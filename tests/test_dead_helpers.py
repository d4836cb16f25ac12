"""Every private function, method and module-level name of the package is
read somewhere in the package besides its own definition, so a helper or a
constant that a change leaves without readers fails here instead of
lingering."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "topolab").glob("*.py"))


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def unreferenced_private_names(paths):
    """(file, name) of each private function, method or module-level
    assignment target, dunders aside, whose name no Name or attribute
    access in paths reads (an assignment is no read, nor an import)."""
    defined, used = set(), set()
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for statement in tree.body:
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            else:
                continue
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and _private(node.id):
                        defined.add((path.name, node.id))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and _private(node.name):
                defined.add((path.name, node.name))
            elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted((file, name) for file, name in defined if name not in used)


def test_every_private_helper_is_referenced():
    assert len(SOURCES) > 5
    assert unreferenced_private_names(SOURCES) == []


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
    assert unreferenced_private_names([source]) == expected


def test_the_check_sees_a_module_constant_that_only_its_assignment_names(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "_READ = 1\n_LEFT, _PAIRED = 2, 3\n_ANNOTATED: int = 4\n__all__ = []\n\n"
        "def f():\n    _LOCAL = _READ + _PAIRED\n    return _LOCAL\n"
    )
    expected = [("sample.py", "_ANNOTATED"), ("sample.py", "_LEFT")]
    assert unreferenced_private_names([source]) == expected
