"""Serialized outputs: the classification JSON schema and DOT lattice diagrams."""

from __future__ import annotations

import json

from . import __version__ as TOOL_VERSION
from .classify import ClassificationReport
from .groups import FiniteGroup
from .semitop import min_steps
from .specparse import print_group_spec
from .subgroups import all_normal_subgroups
from .topology import make_topology


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
    semitopological for some finite n.
    """
    normals = all_normal_subgroups(group)
    count = len(normals)
    contained = [
        [i != j and normals[i].issubset(normals[j]) for j in range(count)]
        for i in range(count)
    ]
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for k, sub in enumerate(normals):
        lines.append(f'  n{k} [label="N#{k} (order {sub.order})"];')
    for i in range(count):
        for j in range(count):
            if not contained[i][j]:
                continue
            if any(contained[i][k] and contained[k][j] for k in range(count)):
                continue
            lines.append(f"  n{i} -> n{j};")
    for i in range(count):
        for j in range(count):
            if not contained[i][j]:
                continue
            steps = min_steps(
                make_topology(group, normals[i]), make_topology(group, normals[j])
            ).steps
            if steps is not None:
                lines.append(f'  n{i} -> n{j} [style=dashed, label="semi:{steps}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
