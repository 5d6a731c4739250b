"""``manifest.write_file``, the one way an artifact reaches disk, its helpers, and a
check that no other code in the package writes a file."""

import ast
import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from floodcal.errors import MalformedArtifact
from floodcal.manifest import csv_text, file_digest, npy_parts, read_csv, write_file

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "floodcal"


class _FullDisk(str):
    """A str part whose write fails, as a full disk fails it."""

    def encode(self, *args, **kwargs):
        raise OSError(28, "No space left on device")


class TestWriteFile:
    def test_str_as_utf8_and_arrays_through_their_buffer(self, tmp_path):
        path, array = tmp_path / "artifact", np.arange(6.0).reshape(2, 3)
        digest = write_file(path, "héllo\n", b"\x00", array)
        raw = path.read_bytes()
        assert raw == "héllo\n".encode() + b"\x00" + array.tobytes()
        assert digest == hashlib.sha256(raw).digest() == file_digest(path)
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]

    def test_replaces_the_previous_file(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(b"the previous bytes, longer than the new ones")
        write_file(path, "new")
        assert path.read_bytes() == b"new"

    @pytest.mark.parametrize("previous", [None, b"the previous bytes"], ids=["absent", "present"])
    def test_a_part_that_raises_partway_leaves_the_old_file_and_no_temporary(
            self, tmp_path, previous):
        path = tmp_path / "artifact.csv"
        if previous is not None:
            path.write_bytes(previous)
        with pytest.raises(OSError, match="No space left on device"):
            write_file(path, "the first part is written\n", _FullDisk("the second fails\n"), "")
        assert (path.read_bytes() if path.exists() else None) == previous
        assert [p.name for p in tmp_path.iterdir()] == ([] if previous is None else [path.name])

    def test_a_path_under_a_regular_file_raises_as_open_does(self, tmp_path):
        (tmp_path / "file").write_text("")
        with pytest.raises(NotADirectoryError):
            write_file(tmp_path / "file" / "artifact", "x")
        assert [p.name for p in tmp_path.iterdir()] == ["file"]


@pytest.mark.parametrize("array", [
    np.arange(12.0).reshape(3, 4),
    np.asfortranarray(np.arange(12.0).reshape(3, 4)),
    np.arange(24.0).reshape(4, 6)[::2, 1::2],
    np.arange(5, dtype=np.int32),
    np.zeros((0, 3)),
    np.array(2.5),
], ids=["c-order", "fortran-order", "strided", "int32", "empty", "0-d"])
def test_npy_parts_are_the_bytes_np_save_writes(tmp_path, array):
    np.save(tmp_path / "saved.npy", array)
    write_file(tmp_path / "written.npy", *npy_parts(array))
    assert (tmp_path / "written.npy").read_bytes() == (tmp_path / "saved.npy").read_bytes()


def test_npy_parts_write_a_contiguous_array_uncopied():
    for array in (np.ones((3, 4)), np.asfortranarray(np.ones((3, 4)))):
        assert np.shares_memory(npy_parts(array)[1], array)


def test_csv_text_is_what_csv_writer_writes(tmp_path):
    rows = [["component", "value"], [0, "1.5"], [1, "a,b"], [2, 'a "quote"']]
    with open(tmp_path / "expected.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    assert csv_text(rows).encode() == (tmp_path / "expected.csv").read_bytes()


def test_read_csv_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "table.csv"
    path.write_bytes(b"a,b\n1,\xff\n")
    with pytest.raises(MalformedArtifact, match=f"{path}: not UTF-8 text"):
        read_csv(path, slice(None))


# --- one writer -----------------------------------------------------------------

_NUMPY_SAVES = {"save", "savez", "savez_compressed", "savetxt"}


def _writes_file(call: ast.Call) -> bool:
    """Whether ``call`` writes a file: open with a w, a, x or + mode (or one not
    spelled out), numpy's savers, os.replace or os.rename, Path.write_text or
    write_bytes, or ndarray.tofile."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    owner = ast.unparse(func.value) if isinstance(func, ast.Attribute) else None
    if name == "open":
        if owner == "os":  # flags, not a mode
            return True
        index = 1 if owner in (None, "io", "builtins") else 0  # Path.open takes the mode first
        modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[index:index + 1]
        mode = modes[0] if modes else ast.Constant("r")
        return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not set(mode.value) & set("wax+"))
    return ((owner in ("np", "numpy") and name in _NUMPY_SAVES)
            or (owner == "os" and name in ("replace", "rename"))
            or name in ("write_text", "write_bytes", "tofile"))


def file_writes(source: str, module: str) -> list[str]:
    """``line: call`` for each call in ``source`` that writes a file, and each import
    of a writer under another name, except within ``manifest.write_file``."""
    tree = ast.parse(source)
    allowed = {id(node) for function in ast.walk(tree)
               if module == "manifest" and isinstance(function, ast.FunctionDef)
               and function.name == "write_file" for node in ast.walk(function)}
    found = []
    for node in ast.walk(tree):
        if id(node) in allowed:
            continue
        if isinstance(node, ast.Call) and _writes_file(node):
            found.append(f"{node.lineno}: {ast.unparse(node.func)}")
        elif isinstance(node, ast.ImportFrom) and node.module in ("os", "numpy"):
            writers = {"os": {"replace", "rename", "open"}, "numpy": _NUMPY_SAVES}[node.module]
            found += [f"{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names if alias.name in writers]
    return found


class TestOneWriter:
    def test_only_write_file_writes_a_file(self):
        modules = sorted(PACKAGE.glob("*.py"))
        assert len(modules) > 10
        found = {path.name: file_writes(path.read_text(), path.stem) for path in modules}
        assert {name: calls for name, calls in found.items() if calls} == {}

    def test_the_check_finds_each_way_of_writing(self):
        source = """
import os
from os import replace
import numpy as np

def store(path, array, mode):
    open(path, "w"); open(path, "ab"); open(path, mode="x"); open(path, "r+b")
    open(path, mode); io.open(path, "wb"); path.open("w"); os.open(path, os.O_WRONLY)
    np.save(path, array); np.savetxt(path, array); array.tofile(path)
    os.replace(path, path); os.rename(path, path)
    path.write_text("x"); path.write_bytes(b"x")

def write_file(path):
    open(path, "wb")
"""
        assert len(file_writes(source, "cli")) == 17  # write_file outside manifest.py too

    def test_the_check_passes_reads_and_write_file_itself(self):
        source = """
def load(path):
    open(path); open(path, "rb"); open(path, newline=""); path.open(); io.open(path, "r")
    "text".replace("t", "s")

def write_file(path, *parts):
    open(path, "wb")
    os.replace(path, path)
"""
        assert file_writes(source, "manifest") == []
