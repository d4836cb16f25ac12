"""The built-in group catalog driving batch classification and the tests.

Nilpotent families (cyclics, 2-power dihedrals, Q8, Heisenberg groups, and
direct products of those) plus six non-nilpotent groups.  Order matters:
batch output follows this listing.
"""

from __future__ import annotations

from typing import Optional

from .groups import DEFAULT_ORDER_CAP, FiniteGroup, GroupSpec, build_group, spec_order
from .specparse import parse_group_spec

CATALOG_SPECS: tuple[str, ...] = (
    "C1",
    "C2",
    "C3",
    "C4",
    "C5",
    "C6",
    "C7",
    "C8",
    "C9",
    "C12",
    "C16",
    "C32",
    "C64",
    "C128",
    "C256",
    "C2 x C2",
    "C2 x C4",
    "C3 x C3",
    "C4 x C4",
    "C2 x C2 x C2",
    "D8",
    "D16",
    "D32",
    "D64",
    "D128",
    "D256",
    "Q8",
    "Heis(2)",
    "Heis(3)",
    "Heis(5)",
    "Q8 x C2",
    "D8 x C2",
    "Q8 x D8",
    "Q8 x Q8",
    "D8 x D8",
    "Heis(3) x C3",
    "Heis(2) x C2",
    "S3",
    "S4",
    "A4",
    "A5",
    "Dih(C9)",
    "ASL(3,2)",
)

NON_NILPOTENT_SPECS: tuple[str, ...] = ("S3", "S4", "A4", "A5", "Dih(C9)", "ASL(3,2)")


def catalog_entries(max_order: Optional[int] = None) -> list[tuple[str, GroupSpec]]:
    """(text, AST) pairs of catalog members, filtered by closed-form order.

    A perm spec has no closed-form order, so the filter keeps it; building
    it is still guarded by build_group's order cap.
    """
    out = []
    for text in CATALOG_SPECS:
        ast = parse_group_spec(text)
        order = None if max_order is None else spec_order(ast, max_order)
        if order is None or order <= max_order:
            out.append((text, ast))
    return out


def catalog_groups(
    max_order: Optional[int] = None,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    seed: int = 0,
) -> list[tuple[str, FiniteGroup]]:
    """Built catalog members in listing order."""
    return [
        (text, build_group(ast, order_cap=order_cap, seed=seed))
        for text, ast in catalog_entries(max_order)
    ]
