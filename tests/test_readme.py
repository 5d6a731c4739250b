"""The README's Python code blocks import only names that exist."""

import ast
import importlib
import re
from pathlib import Path

README = (Path(__file__).parents[1] / "README.md").read_text()


def _imported_names(text):
    """(module, name) for each ``from module import name`` in the ```python blocks."""
    for block in re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom):
                yield from ((node.module, alias.name) for alias in node.names)


def test_every_name_a_python_block_imports_exists():
    names = list(_imported_names(README))
    assert ("floodcal", "fit_multires") in names  # the quick start is among the blocks
    missing = [f"{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"README imports names that do not exist: {missing}"

