"""The package imports nothing at run time beyond the standard library and
numpy, and no numpy submodule that numpy loads lazily; scipy, networkx,
sympy and hypothesis stay test-only."""

import ast
import subprocess
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


# numpy loads numpy.ma on the first plain np.unique, and numpy.random on
# first use: each costs milliseconds and resident memory in every run
LAZY_SUBMODULES_PROBE = """
import contextlib, io, sys
from topolab import build_group, parse_group_spec
from topolab.cli import main
from topolab.subgroups import commutator_subgroup, generated_subgroup

with contextlib.redirect_stdout(io.StringIO()):
    assert main(["classify", "S7", "--json"]) == 0
    assert main(["semitop", "S4", "--from", "0", "--to", "3", "--steps"]) == 0
    assert main(["lattice", "C2 x C2 x C2", "--dot", sys.argv[1]]) == 0
    assert main(["perm", "--degree", "6", "--gens", "(0 1 2 3 4 5),(0 1)", "--check-lemma", "--oracle"]) == 0
g = build_group(parse_group_spec("S4"))
left, right = generated_subgroup(g, [1]), generated_subgroup(g, [2])
assert not left.is_normal and not right.is_normal
commutator_subgroup(g, left, right)
print(*[name for name in ("numpy.ma", "numpy.random") if name in sys.modules])
"""


def test_commands_load_no_lazy_numpy_submodule(tmp_path):
    result = subprocess.run(
        [sys.executable, "-c", LAZY_SUBMODULES_PROBE, str(tmp_path / "lattice.dot")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "\n"
