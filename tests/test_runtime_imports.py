"""The package imports nothing at run time beyond the standard library and
numpy; scipy, networkx, sympy and hypothesis stay test-only."""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "topolab").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "topolab"}


def imported_modules(path):
    """Top-level names of every module the file imports, at any depth of
    its syntax tree (function bodies included); relative imports are the
    package itself."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "topolab" if node.level else node.module.split(".")[0]


def test_sources_import_only_the_standard_library_and_numpy():
    assert len(SOURCES) > 5
    outside = {
        (path.name, name) for path in SOURCES for name in imported_modules(path) if name not in ALLOWED
    }
    assert not outside, sorted(outside)


def test_the_import_check_sees_imports_inside_functions(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import os\nfrom . import groups\n\ndef f():\n    import scipy.sparse\n")
    assert list(imported_modules(source)) == ["os", "topolab", "scipy"]
