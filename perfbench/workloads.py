"""The benchmark's inputs: four fixed query lists, generated from a seed.

Every input is owned here.  The catalog is a frozen copy of the 43 spec
strings (with the index of each group's indiscrete kernel, the last entry
of its normal lattice), and the permutation actions come from this module's
own RNG, so no change to the program can change what the benchmark runs.

A query is a ``Query(key, kind, args)``:

* ``kind == "cli"``: ``args`` is the argv handed to ``topolab.cli.main``;
* ``kind == "taimanov"``: ``args`` is ``(spec,)`` for the library route
  ``taimanov_topology(build_group(parse_group_spec(spec)))``.

``key`` names the query in ``references.json``.  The seed fixes the query
order, the ``--seed`` given to the CLI, and the permutation actions.
"""

from __future__ import annotations

import random
from typing import NamedTuple

WORKLOADS = ("catalog", "wide-lattice", "large-order", "perm-sweep")

# (spec, index of the indiscrete kernel), frozen from topolab's catalog.
CATALOG = (
    ("C1", 0), ("C2", 1), ("C3", 1), ("C4", 2), ("C5", 1), ("C6", 3),
    ("C7", 1), ("C8", 3), ("C9", 2), ("C12", 5), ("C16", 4), ("C32", 5),
    ("C64", 6), ("C128", 7), ("C256", 8), ("C2 x C2", 4), ("C2 x C4", 7),
    ("C3 x C3", 5), ("C4 x C4", 14), ("C2 x C2 x C2", 15), ("D8", 5),
    ("D16", 6), ("D32", 7), ("D64", 8), ("D128", 9), ("D256", 10),
    ("Q8", 5), ("Heis(2)", 5), ("Heis(3)", 6), ("Heis(5)", 8),
    ("Q8 x C2", 18), ("D8 x C2", 18), ("Q8 x D8", 90), ("Q8 x Q8", 90),
    ("D8 x D8", 90), ("Heis(3) x C3", 31), ("Heis(2) x C2", 18), ("S3", 2),
    ("S4", 3), ("A4", 2), ("A5", 1), ("Dih(C9)", 3), ("ASL(3,2)", 2),
)

WIDE_LATTICE_DOT_SPEC = "C2 x C2 x C2 x C2 x C2 x C2"  # 2825 normal subgroups
WIDE_LATTICE_CLASSIFY = ("C2 x C2 x C2 x C2 x C2", "C2 x C2 x C2 x C4", "Q8 x D8",
                         "D8 x D8", "C4 x C4 x C2")
LARGE_ORDER_CLASSIFY = ("S7", "SL(2,17)")  # both above the dense-table limit
LARGE_ORDER_TAIMANOV = ("S7",)

# The file `lattice --dot` writes, relative to the worker's run directory.
DOT_NAME = "lattice.dot"


class Query(NamedTuple):
    key: str
    kind: str
    args: tuple


def _cli(argv: list[str], seed: int) -> Query:
    return Query(" ".join(argv), "cli", tuple(argv + ["--seed", str(seed)]))


# ---------------------------------------------------------------------------
# Permutation actions of degree 6-8.  Each slot is one group up to
# relabelling of the points, so its order, its lemma verdict, the failing
# condition and the full centralizer order are the same for every seed,
# while the generators the program sees change with the seed.


def _cycles(text: str, degree: int) -> tuple[int, ...]:
    """'(0 1 2)(3 4)' as an image tuple on 0..degree-1."""
    img = list(range(degree))
    for chunk in text.replace(")", "").split("("):
        pts = [int(p) for p in chunk.split()]
        for a, b in zip(pts, pts[1:] + pts[:1]):
            img[a] = b
    return tuple(img)


def _affine_line(p: int, mult: int) -> list[tuple[int, ...]]:
    """x -> x + 1 and x -> mult*x on Z/p."""
    return [tuple((x + 1) % p for x in range(p)), tuple((mult * x) % p for x in range(p))]


def _pgl27() -> list[tuple[int, ...]]:
    """PGL(2,7) on the projective line 0..6, infinity = 7."""
    inf = 7

    def inv(x: int) -> int:
        return inf if x == 0 else 0 if x == inf else (-pow(x, 5, 7)) % 7

    shift = tuple(inf if x == inf else (x + 1) % 7 for x in range(8))
    scale = tuple(inf if x == inf else (3 * x) % 7 for x in range(8))
    return [shift, scale, tuple(inv(x) for x in range(8))]


def _agl18() -> list[tuple[int, ...]]:
    """AGL(1,8): translations and a primitive multiplier of F_8 = F_2[a]/(a^3+a+1)."""

    def times_a(x: int) -> int:
        x <<= 1
        return x ^ 0b1011 if x & 0b1000 else x

    return [tuple(x ^ 1 for x in range(8)), tuple(times_a(x) for x in range(8))]


def _slot(degree: int, *gens: str) -> tuple[int, list[tuple[int, ...]]]:
    return degree, [_cycles(g, degree) for g in gens]


# Transitive actions: the tuple closure and stabilizer scans dominate.
TRANSITIVE_SLOTS = (
    _slot(6, "(0 1 2 3 4 5)"),                              # C6, regular
    _slot(6, "(0 1 2 3 4 5)", "(1 5)(2 4)"),                # D12 on the hexagon
    _slot(6, "(0 1 2)", "(1 2 3 4 5)"),                     # A6
    _slot(6, "(0 1 2 3 4 5)", "(0 1)"),                     # S6
    _slot(6, "(0 1 2)", "(0 1)", "(0 3)(1 4)(2 5)"),        # S3 wr S2
    _slot(6, "(0 1)", "(0 2 4)(1 3 5)", "(0 2)(1 3)"),      # S2 wr S3
    _slot(6, "(0 1 2)", "(0 3)(1 4)(2 5)"),                 # C3 wr C2
    _slot(7, "(0 1 2 3 4 5 6)"),                            # C7
    _slot(7, "(0 1 2 3 4 5 6)", "(1 6)(2 5)(3 4)"),         # D14
    (7, _affine_line(7, 3)),                                # AGL(1,7)
    (7, _affine_line(7, 2)),                                # F21
    _slot(7, "(0 1 2)", "(0 1 2 3 4 5 6)"),                 # A7
    _slot(7, "(0 1 2 3 4 5 6)", "(0 1)"),                   # S7
    _slot(8, "(0 1 2 3 4 5 6 7)"),                          # C8
    _slot(8, "(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)"),   # Q8, regular
    _slot(8, "(0 1)(2 3)(4 5)(6 7)", "(0 2)(1 3)(4 6)(5 7)",
          "(0 4)(1 5)(2 6)(3 7)"),                          # C2^3, regular
    _slot(8, "(0 1 2 3 4 5 6 7)", "(1 7)(2 6)(3 5)"),       # D16
    _slot(8, "(0 1 2 3)", "(0 4)(1 5)(2 6)(3 7)"),          # C4 wr C2
    (8, _agl18()),                                          # AGL(1,8)
    (8, _pgl27()),                                          # PGL(2,7)
    _slot(8, "(0 1)", "(0 2 4 6)(1 3 5 7)", "(0 2)(1 3)"),  # S2 wr S4
    _slot(8, "(0 1 2 3)", "(0 1)", "(0 4)(1 5)(2 6)(3 7)"), # S4 wr S2
    _slot(8, "(0 1 2)", "(1 2 3 4 5 6 7)"),                 # A8
    _slot(8, "(0 1 2 3 4 5 6 7)", "(0 1)"),                 # S8
    _slot(8, "(0 1)", "(1 2 3 4 5 6 7)"),                   # S8
    _slot(8, "(0 1 2 3 4 5 6 7)", "(0 1 2)"),               # S8
    _slot(8, "(0 1 2 3 4 5 6)", "(5 6 7)"),                 # A8
    _slot(8, "(0 1 2)", "(2 3 4 5 6 7 0)"),                 # A8
)

# Intransitive block actions: conditions (a) and (b) fail in turn, and the
# witness construction runs.
INTRANSITIVE_SLOTS = (
    _slot(6, "(0 1 2)(3 4 5)"),                             # C3, diagonal
    _slot(6, "(0 1 2)(3 4 5)", "(0 1)(3 4)"),               # S3, diagonal
    _slot(6, "(0 1 2)", "(0 1)", "(3 4 5)"),                # S3 x C3
    _slot(6, "(0 1 2)", "(0 1)", "(3 4 5)", "(3 4)"),       # S3 x S3
    _slot(6, "(0 1)", "(2 3)", "(4 5)"),                    # C2^3 on 2+2+2
    _slot(6, "(0 1 2 3)(4 5)", "(0 1)(4 5)"),               # S4 on 4, sign on 2
    _slot(6, "(0 1 2)", "(0 1)(3 4)"),                      # S3 on 3, sign on 2, fixed 5
    _slot(6, "(0 1 2 3)(4 5)"),                             # C4 on 4, C2 on 2
    _slot(6, "(0 1)", "(2 3 4 5)", "(2 3)"),                # C2 x S4
    _slot(7, "(0 1 2 3)", "(0 1)", "(4 5 6)", "(4 5)"),     # S4 x S3
    _slot(7, "(0 1 2 3 4)", "(0 1)", "(5 6)"),              # S5 x C2
    _slot(7, "(0 1 2 3)(4 6)", "(0 1)(5 6)"),               # S4 on 4, on 3 pairings
    _slot(8, "(0 1 2 3)(4 5 6 7)", "(0 1)(4 5)"),           # S4, diagonal
    _slot(8, "(0 1 2)(4 5 6)", "(0 1)(2 3)(4 5)(6 7)"),     # A4, diagonal
    _slot(8, "(0 1 2)", "(0 1)(2 3)", "(4 5 6 7)", "(4 5)"),  # A4 x S4
    _slot(8, "(0 1 2 3 4)", "(0 1)", "(5 6 7)", "(5 6)"),   # S5 x S3
    _slot(8, "(0 1 2 3 4 5)", "(0 1)"),                     # S6, two fixed points
    _slot(8, "(0 1 2)", "(0 1 2 3 4)"),                     # A5, three fixed points
    _slot(8, "(0 1 2 3 4 5 6)", "(0 1)"),                   # S7, one fixed point
    _slot(8, "(0 1 2 3)(4 5 6 7)", "(1 3)(4 7)(5 6)"),      # D8 on vertices and edges
    _slot(8, "(0 1 2 3 4)", "(5 6 7)"),                     # C5 x C3
    _slot(8, "(0 1 2 3 4 5 6)"),                            # C7, one fixed point
    (8, [g + (7,) for g in _affine_line(7, 3)]),            # AGL(1,7), one fixed point
    _slot(8, "(0 1)", "(2 3)", "(4 5 6 7)", "(4 5)"),       # C2 x C2 x S4
)

PERM_SLOTS = TRANSITIVE_SLOTS + INTRANSITIVE_SLOTS


def _compose(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a after b, the program's product convention."""
    return tuple(a[x] for x in b)


def format_cycles(perm: tuple[int, ...]) -> str:
    seen = [False] * len(perm)
    out = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            continue
        cycle = []
        x = start
        while not seen[x]:
            seen[x] = True
            cycle.append(str(x))
            x = perm[x]
        out.append("(" + " ".join(cycle) + ")")
    return "".join(out)


def perm_action_gens(slot: int, rng: random.Random) -> tuple[int, list[tuple[int, ...]]]:
    """The slot's generators relabelled by a random point permutation, plus
    one redundant generator: a random word in the others."""
    degree, gens = PERM_SLOTS[slot]
    word = gens[rng.randrange(len(gens))]
    for _ in range(rng.randint(2, 5)):
        word = _compose(word, gens[rng.randrange(len(gens))])
    label = list(range(degree))
    rng.shuffle(label)
    relabelled = []
    for g in gens + [word]:
        img = [0] * degree
        for x in range(degree):
            img[label[x]] = label[g[x]]
        relabelled.append(tuple(img))
    return degree, [g for g in relabelled if g != tuple(range(degree))]


def queries(workload: str, seed: int) -> list[Query]:
    """The workload's query list for this seed, in the order it runs."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalog":
        out = []
        for spec, top in CATALOG:
            out.append(_cli(["classify", spec, "--json"], seed))
            out.append(_cli(["semitop", spec, "--from", "0", "--to", str(top), "--steps"], seed))
            out.append(_cli(["semitop", spec, "--from", "0", "--to", str(top)], seed))
            out.append(Query(f"taimanov {spec}", "taimanov", (spec,)))
    elif workload == "wide-lattice":
        out = [_cli(["lattice", WIDE_LATTICE_DOT_SPEC, "--dot", DOT_NAME], seed)]
        out += [_cli(["classify", spec, "--json"], seed) for spec in WIDE_LATTICE_CLASSIFY]
    elif workload == "large-order":
        out = [_cli(["classify", spec, "--json"], seed) for spec in LARGE_ORDER_CLASSIFY]
        out += [Query(f"taimanov {spec}", "taimanov", (spec,)) for spec in LARGE_ORDER_TAIMANOV]
    elif workload == "perm-sweep":
        out = []
        for slot in range(len(PERM_SLOTS)):
            degree, gens = perm_action_gens(slot, rng)
            argv = ["perm", "--degree", str(degree),
                    "--gens", ",".join(format_cycles(g) for g in gens),
                    "--check-lemma", "--oracle"]
            out.append(Query(f"perm slot {slot}", "cli", tuple(argv + ["--seed", str(seed)])))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out
