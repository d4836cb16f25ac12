"""Serialized outputs: the classification JSON schema and DOT lattice diagrams."""

from __future__ import annotations

import json

import numpy as np

from . import __version__ as TOOL_VERSION
from .classify import ClassificationReport
from .groups import FiniteGroup, row_blocks
from .specparse import print_group_spec
from .subgroups import normal_lattice


def report_payload(report: ClassificationReport, *, seed: int) -> dict:
    """The JSON-ready dict for one classification, fixed key order."""
    rows = []
    for row in report.rows:
        entry = {
            "index": row.index,
            "order": row.order,
            "a_complete": row.a_complete,
            "commutator_with_G_order": row.commutator_with_g_order,
        }
        if row.a_complete_violator is not None:
            entry["witness"] = row.a_complete_violator
        rows.append(entry)
    return {
        "spec": print_group_spec(report.spec) if report.spec is not None else None,
        "order": report.order,
        "flags": {
            "perfect": report.is_perfect,
            "taimanov": report.is_taimanov,
            "totally_taimanov": report.is_totally_taimanov,
            "arnautov": report.is_arnautov,
        },
        "center_order": report.center_order,
        "normal_subgroups": rows,
        "tool_version": TOOL_VERSION,
        "seed": seed,
    }


def emit_report_json(report: ClassificationReport, *, seed: int = 0) -> str:
    """Deterministic JSON text for one classification report."""
    return json.dumps(report_payload(report, seed=seed), indent=2)


def emit_catalog_json(reports: list[ClassificationReport], *, seed: int = 0) -> str:
    """Deterministic JSON array over the catalog, in listing order."""
    return json.dumps([report_payload(r, seed=seed) for r in reports], indent=2)


def emit_lattice_dot(group: FiniteGroup) -> str:
    """DOT digraph of the normal subgroup lattice.

    One node per normal subgroup ("N#k (order m)"), solid edges for the
    covering relation, and a dashed edge N -> L labelled "semi:n" for every
    strictly nested pair whose identity map (zeta_N, zeta_L) is n-step
    semitopological for some finite n.  Both are read off the lattice's
    containment matrix at the strictly nested pairs, a block of rows N at a
    time.  Normal subgroups form a modular lattice, so by the Jordan-Dedekind
    chain condition every maximal chain between two members has the same
    length: L covers N iff N < L and L is one level above N, the level of a
    member being the length of the longest chain up to it from {e}.  Members
    of equal order are never strictly nested, and members sort by order, so
    the levels of one order are read off the members before it, one pass
    per level h from the top down: a member still unset that contains some
    member of level h is at level h + 1.
    n is the first term of the commutator chain [G, L], [G, [G, L]], ...
    (walked on comm_index) that lies in N, as in semitop.min_steps; every
    chain is walked at once, and each term is one gather of the containment
    matrix at the block's pairs.  The edge text is joined from a table of
    pieces: a head "  n{i} -> " per member and a tail per member and step
    (0 for a solid edge), picked by index arrays.
    """
    lattice = normal_lattice(group)
    contains, count = lattice.contains, len(lattice.subgroups)
    comm = lattice.comm_index
    chain = [comm]  # chain[t][j]: term t + 1 of the chain from N_j
    while not np.array_equal(comm[chain[-1]], chain[-1]):
        chain.append(comm[chain[-1]])
    orders = [sub.order for sub in lattice.subgroups]
    height = np.zeros(count, dtype=np.int8)  # at most log2 |G|
    cuts = (np.flatnonzero(np.diff(orders)) + 1).tolist()  # the first member of each order past 1
    for first, last in zip(cuts, cuts[1:] + [count]):
        below = height[:first]
        for block in row_blocks(last, first, start=first):
            unset, h = np.ones(block.stop - block.start, dtype=bool), int(below.max())
            while unset.any():  # {e} at level 0 lies in every member
                above = contains[np.flatnonzero(below == h), block].any(axis=0) & unset
                height[block][above] = h + 1
                unset &= ~above
                h -= 1
    # a head per member, then a tail per step t (0 for solid) and member
    pieces = [f"  n{i} -> " for i in range(count)] + [f"n{j};\n" for j in range(count)]
    for t in range(1, len(chain) + 1):
        pieces += [f'n{j} [style=dashed, label="semi:{t}"];\n' for j in range(count)]
    pieces = np.array(pieces, dtype=object)

    def edges(rows: np.ndarray, cols: np.ndarray, steps) -> str:
        picks = np.stack([rows, (steps + 1) * count + cols], axis=1)  # head, tail of each edge
        return "".join(pieces[picks.ravel()].tolist())

    solid, dashed = [], []  # one string per block
    for block in row_blocks(count, count):
        rows, cols = divmod(np.flatnonzero(contains[block]), count)
        rows += block.start
        strict = rows != cols
        rows, cols = rows[strict], cols[strict]
        cover = height[cols] == height[rows] + 1
        solid.append(edges(rows[cover], cols[cover], 0))
        steps = np.zeros(len(rows), dtype=np.intp)
        for t, terms in enumerate(chain, 1):
            steps[(steps == 0) & contains[terms[cols], rows]] = t
        semi = steps > 0
        dashed.append(edges(rows[semi], cols[semi], steps[semi]))
    nodes = "".join(f'  n{k} [label="N#{k} (order {m})"];\n' for k, m in enumerate(orders))
    return "".join(["digraph lattice {\n  rankdir=BT;\n", nodes, *solid, *dashed, "}\n"])
