"""Deterministic JSON manifests, and the CSV and array readers, for pipeline artifacts.

Every stage writes a manifest carrying the config digest and the seeds it
consumed; no timestamps or environment data, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
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


def load_array(path) -> np.ndarray:
    """An array saved by ``np.save``; MalformedArtifact naming ``path`` if bytes
    follow the array's data or a value is not finite."""
    with open(path, "rb") as fh:
        array = np.load(fh, allow_pickle=False)
        if fh.read(1):
            raise MalformedArtifact(f"{path}: bytes follow the array's data")
    if not np.all(np.isfinite(array)):
        raise MalformedArtifact(f"{path}: holds values that are not finite")
    return array
