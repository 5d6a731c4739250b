"""The one file writer, deterministic JSON manifests, the CSV and array readers,
and the archive writer and reader, for pipeline artifacts.

Every stage writes a manifest carrying the config digest and the seeds it
consumed; no timestamps or environment data, so reruns are byte-identical.
An archive is a directory whose files a table names, each with its array's
shape in sizes ``p`` (locations), ``J`` (components), ``k`` (parameters),
``n_cheap``, ``n_exp`` (runs), ``k+1`` and ``2(k+1)``; None for JSON and CSV.
"""

from __future__ import annotations

import csv
import hashlib
import io
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


def write_file(path, *parts) -> bytes:
    """Write ``parts`` to ``<path>.tmp``, then rename that to ``path``; returns the sha256
    digest of the bytes written.  A str part is written as UTF-8, any other through its
    buffer, so an array is not copied.  If anything raises, the temporary file is removed
    and ``path`` keeps what it held, and an OSError that names no file is given ``path``
    as its filename.  There is no fsync: what this guards against is a process that dies
    mid-write, not a power cut."""
    tmp, digest = f"{path}.tmp", hashlib.sha256()
    fh = open(tmp, "wb")  # if this raises, there is nothing to remove
    try:
        with fh:
            for part in parts:
                data = part.encode() if isinstance(part, str) else part
                fh.write(data)
                digest.update(data)
        os.replace(tmp, path)
    except BaseException as err:
        os.remove(tmp)
        if isinstance(err, OSError) and err.filename is None:  # a full disk's ENOSPC
            err.filename = os.fspath(path)
        raise
    return digest.digest()


def file_digest(path) -> bytes:
    """The sha256 digest of the file at ``path``."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):  # a read of 1 MiB added 0.8 MB to peak RSS
            digest.update(chunk)
    return digest.digest()


def write_manifest(path, data: dict) -> bytes:
    """Write ``data`` as indented JSON with sorted keys; returns the sha256
    digest of the bytes written."""
    return write_file(path, json.dumps(_jsonable(data), indent=2, sort_keys=True) + "\n")


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def csv_text(rows) -> str:
    """``rows`` as ``csv.writer`` writes them, each line ended by CRLF."""
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    return text.getvalue()


def read_csv(path, float_columns: slice) -> tuple[list, list, list]:
    """Header, rows, and each row's ``float_columns`` as floats, of a CSV artifact.

    Raises MalformedArtifact naming ``path`` for a file that is not UTF-8 text
    or is empty, a row not as wide as the header, or a cell in ``float_columns``
    that is not a finite number.
    """
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            rows = list(reader)
    except UnicodeDecodeError as err:
        raise MalformedArtifact(f"{path}: not UTF-8 text: {err}") from err
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


def npy_parts(array: np.ndarray) -> tuple[bytes, np.ndarray]:
    """The header and the data of the ``.npy`` file ``np.save`` writes for ``array``;
    the data is the array itself, or its transpose in Fortran order, uncopied."""
    header, meta = io.BytesIO(), np.lib.format.header_data_from_array_1_0(array)
    np.lib.format.write_array_header_1_0(header, meta)
    return header.getvalue(), np.ascontiguousarray(array.T if meta["fortran_order"] else array)


def write_archive(directory, table: dict, contents: dict) -> None:
    """Write each file ``table`` names from ``contents``, keyed alike: a dict as a
    manifest, CSV rows as ``csv.writer`` writes them, an array as ``np.save`` does."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name in table:
        if name.endswith(".json"):
            write_manifest(directory / name, contents[name])
        elif name.endswith(".csv"):
            write_file(directory / name, csv_text(contents[name]))
        else:
            write_file(directory / name, *npy_parts(np.asarray(contents[name])))


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
