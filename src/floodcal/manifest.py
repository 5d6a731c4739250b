"""Deterministic JSON manifests, the CSV and array readers, and the archive
writer and reader, for pipeline artifacts.

Every stage writes a manifest carrying the config digest and the seeds it
consumed; no timestamps or environment data, so reruns are byte-identical.
An archive is a directory whose files a table names, each with its array's
shape in sizes ``p`` (locations), ``J`` (components), ``k`` (parameters),
``n_cheap``, ``n_exp`` (runs), ``k+1`` and ``2(k+1)``; None for JSON and CSV.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from pathlib import Path

import numpy as np

from .errors import MalformedArtifact


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


def write_manifest(path, data: dict) -> bytes:
    """Write ``data`` as indented JSON with sorted keys; returns the sha256
    digest of the bytes written."""
    raw = (json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(raw)
    return hashlib.sha256(raw).digest()


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def config_digest(config_path) -> str:
    return hashlib.sha256(Path(config_path).read_bytes()).hexdigest()


def read_csv(path, float_columns: slice) -> tuple[list, list, list]:
    """Header, rows, and each row's ``float_columns`` as floats, of a CSV artifact.

    Raises MalformedArtifact naming ``path`` for an empty file, a row not as
    wide as the header, or a cell in ``float_columns`` that is not a finite
    number.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        rows = list(reader)
    if header is None:
        raise MalformedArtifact(f"{path}: empty file")
    for line, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedArtifact(f"{path}: line {line} has {len(row)} columns, "
                                    f"the header {len(header)}")
    try:
        values = [[float(v) for v in row[float_columns]] for row in rows]
    except ValueError as err:
        raise MalformedArtifact(f"{path}: {err}") from err
    for line, row in enumerate(values, start=2):
        if not all(map(math.isfinite, row)):
            raise MalformedArtifact(f"{path}: line {line} holds a value that is not finite")
    return header, rows, values


def npy_header(fh, path) -> tuple[tuple, bool, np.dtype]:
    """The shape, Fortran-order flag and dtype of the ``.npy`` file open as ``fh``, left
    at its data.  Allocates nothing, so a huge shape is no MemoryError: MalformedArtifact
    naming ``path`` unless the header gives a numeric dtype and the file's size."""
    fmt = np.lib.format
    try:
        version = fmt.read_magic(fh)
        read = {(1, 0): fmt.read_array_header_1_0, (2, 0): fmt.read_array_header_2_0}[version]
        shape, fortran, dtype = read(fh)
    except (KeyError, ValueError) as err:
        raise MalformedArtifact(f"{path}: unreadable .npy header: {err!r}") from err
    size, actual = fh.tell() + math.prod(shape) * dtype.itemsize, os.fstat(fh.fileno()).st_size
    if dtype.kind not in "biufc" or size != actual:
        raise MalformedArtifact(f"{path}: not a numeric array filling the file: {dtype} of "
                                f"shape {shape} takes {size} bytes, the file has {actual}")
    return shape, fortran, dtype


def load_array(path) -> np.ndarray:
    """An array saved by ``np.save``; MalformedArtifact naming ``path`` if
    :func:`npy_header` rejects it or a value is not finite."""
    with open(path, "rb") as fh:
        npy_header(fh, path)
        fh.seek(0)
        array = np.load(fh, allow_pickle=False)
    if not np.all(np.isfinite(array)):
        raise MalformedArtifact(f"{path}: holds values that are not finite")
    return array


def write_archive(directory, table: dict, contents: dict) -> None:
    """Write each file ``table`` names from ``contents``, keyed alike: a dict as a
    manifest, CSV rows through ``csv.writer``, an array through ``np.save``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in table:
        if name.endswith(".json"):
            write_manifest(directory / name, contents[name])
        elif name.endswith(".csv"):
            with open(directory / name, "w", newline="") as fh:
                csv.writer(fh).writerows(contents[name])
        else:
            np.save(directory / name, contents[name])


def read_archive(directory, table: dict, sizes: dict) -> dict:
    """The arrays of ``table`` in ``directory``, through :func:`load_array`, keyed
    by name without ``.npy``.  A shape symbol takes its size from ``sizes``, or
    else from the first array that has it; MalformedArtifact if an array is
    unreadable or disagrees with a size so bound."""
    directory, sizes, arrays = Path(directory), dict(sizes), {}
    for name, shape in table.items():
        if shape is None:
            continue
        array = load_array(directory / name)
        bound = [sizes.setdefault(symbol, size) for symbol, size in zip(shape, array.shape)]
        if array.ndim != len(shape) or list(array.shape) != bound:
            bindings = ", ".join(f"{symbol} = {sizes.get(symbol)!r}" for symbol in shape)
            raise MalformedArtifact(f"{directory}: {name} has shape {array.shape}, expected "
                                    f"({', '.join(shape)}) with {bindings}")
        arrays[name.removesuffix(".npy")] = array
    return arrays
