"""Deterministic JSON manifests, and the CSV reader, for pipeline artifacts.

Every stage writes a manifest carrying the config digest and the seeds it
consumed; no timestamps or environment data, so reruns are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
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


def write_manifest(path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(data), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_manifest(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def config_digest(config_path) -> str:
    return hashlib.sha256(Path(config_path).read_bytes()).hexdigest()


def read_csv(path, float_columns: slice) -> tuple[list, list, list]:
    """Header, rows, and each row's ``float_columns`` as floats, of a CSV artifact.

    Raises MalformedArtifact naming ``path`` for an empty file, a row not as
    wide as the header, or a cell in ``float_columns`` that is not a number.
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
        return header, rows, [[float(v) for v in row[float_columns]] for row in rows]
    except ValueError as err:
        raise MalformedArtifact(f"{path}: {err}") from err
