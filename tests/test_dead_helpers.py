"""Every private function and method of the package is referenced somewhere
in the package besides its own definition, so a helper that a change leaves
without callers fails here instead of lingering."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "topolab").glob("*.py"))


def unreferenced_private_functions(paths):
    """(file, name) of each private function or method, dunders aside, whose
    name no Name or attribute access in paths reads; an import is no use."""
    defined, used = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defined.add((path.name, name))
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((file, name) for file, name in defined if name not in used)


def test_every_private_helper_is_referenced():
    assert len(SOURCES) > 5
    assert unreferenced_private_functions(SOURCES) == []


def test_the_check_sees_an_orphan_and_ignores_dunders(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from .other import _imported\n\n"
        "def _used():\n    pass\n\n"
        "def _orphan():\n    _used()\n\n"
        "class A:\n    def __init__(self):\n        self._method()\n\n"
        "    def _method(self):\n        pass\n\n"
        "    def _unused_method(self):\n        pass\n"
    )
    expected = [("sample.py", "_orphan"), ("sample.py", "_unused_method")]
    assert unreferenced_private_functions([source]) == expected
