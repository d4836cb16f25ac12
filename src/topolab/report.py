"""Serialized outputs: the classification JSON schema and DOT lattice diagrams."""

from __future__ import annotations

import json

import numpy as np

from . import __version__ as TOOL_VERSION
from .classify import ClassificationReport
from .groups import FiniteGroup
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
    semitopological for some finite n.  Both come from the lattice's
    containment matrix: L covers N when nothing strictly above N lies
    strictly below L, and n is the first term of the commutator chain
    [G, L], [G, [G, L]], ... (walked on comm_index) that lies in N, as in
    semitop.min_steps.
    """
    lattice = normal_lattice(group)
    count = len(lattice.subgroups)
    above = lattice.contains.copy()
    np.fill_diagonal(above, False)  # above[i, j]: N_i strictly inside N_j
    covers = np.empty_like(above)
    for i in range(count):
        up = above[i]
        covers[i] = up & ~above[up].any(axis=0)
    comm = lattice.comm_index
    steps = np.zeros((count, count), dtype=np.int8)
    for j in range(count):
        chain = [comm[j]]
        while comm[chain[-1]] != chain[-1]:
            chain.append(comm[chain[-1]])
        inside = lattice.contains[chain]  # inside[t, i]: term t lies in N_i
        steps[:, j] = np.where(inside.any(axis=0), inside.argmax(axis=0) + 1, 0)
    steps[~above] = 0
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for k, sub in enumerate(lattice.subgroups):
        lines.append(f'  n{k} [label="N#{k} (order {sub.order})"];')
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(covers))):
        lines.append(f"  n{i} -> n{j};")
    dashed = np.nonzero(steps)
    for i, j, n in zip(*(idx.tolist() for idx in dashed), steps[dashed].tolist()):
        lines.append(f'  n{i} -> n{j} [style=dashed, label="semi:{n}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
