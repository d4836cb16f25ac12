"""Group-level classification: Taimanov, totally Taimanov, Arnautov,
perfectness, and A-completeness of almost trivial topologies.

Everything here is finite-group specific, where the classes collapse to
element-wise criteria: a finite group is Taimanov iff its center is
trivial, zeta_N is A-complete iff G/N has trivial center, and Arnautov,
totally Taimanov, and "[G,N] = N for all normal N" coincide.  The two
available routes to each verdict are both computed and must agree.

The center route reads the preimage of Z(G/N) from quotient_center (the x
whose commutator with every generator of G lies in N), so no quotient
group is built; the commutator route reads [G, N] off the normal lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInconsistency
from .groups import FiniteGroup, GroupSpec, center
from .subgroups import (
    Subgroup,
    all_normal_subgroups,
    derived_subgroup,
    normal_lattice,
    quotient_center,
)
from .topology import AlmostTrivialTopology, make_topology


@dataclass(frozen=True)
class ArnautovWitness:
    """A normal subgroup with [G, N] strictly below N, plus the resulting
    semitopological non-open identity map (zeta_{[G,N]}, zeta_N)."""

    kernel: Subgroup
    commutator: Subgroup
    pair: tuple[AlmostTrivialTopology, AlmostTrivialTopology]


@dataclass(frozen=True)
class NormalSubgroupRow:
    index: int
    subgroup: Subgroup
    order: int
    a_complete: bool
    commutator_with_g_order: int
    a_complete_violator: Optional[int]


@dataclass(frozen=True)
class ClassificationReport:
    spec: Optional[GroupSpec]
    order: int
    center_order: int
    is_perfect: bool
    is_taimanov: bool
    is_totally_taimanov: bool
    is_arnautov: bool
    is_markov: bool
    rows: tuple[NormalSubgroupRow, ...]
    witnesses: dict


def is_taimanov(group: FiniteGroup) -> bool:
    """True iff the center is trivial (the trivial group counts as Taimanov)."""
    return len(center(group)) == 1


def is_perfect(group: FiniteGroup) -> bool:
    """True iff G equals its derived subgroup [G, G]."""
    return derived_subgroup(group).order == group.order


def is_totally_taimanov(group: FiniteGroup) -> tuple[bool, Optional[Subgroup]]:
    """True iff every quotient G/N has trivial center.

    On failure returns the smallest violating normal subgroup (by order,
    then element set).
    """
    for sub in all_normal_subgroups(group):
        if quotient_center(group, sub).order != sub.order:
            return False, sub
    return True, None


def is_a_complete(tau: AlmostTrivialTopology) -> bool:
    """Whether no strictly coarser topology receives a semitopological
    identity map from zeta_N.

    Decided as "G/N has trivial center"; independently re-derived as "no
    normal N' strictly above N has [G, N'] <= N", and the two must agree.
    """
    verdict, violator = _a_complete_both_routes(tau)
    return verdict


def _a_complete_both_routes(
    tau: AlmostTrivialTopology,
) -> tuple[bool, Optional[int]]:
    group = tau.group
    by_center = quotient_center(group, tau.kernel).order == tau.kernel.order

    lattice = normal_lattice(group)
    k = lattice.index(tau.kernel)
    # N' above N whose [G, N'] lies in N
    above = lattice.contains[k] & lattice.contains[lattice.comm_index, k]
    above[k] = False
    hits = np.flatnonzero(above)
    violator: Optional[int] = int(hits[0]) if hits.size else None
    by_criterion = violator is None
    if by_center != by_criterion:
        raise InternalInconsistency(
            "center route and commutator route disagree on A-completeness"
        )
    return by_center, violator


def is_arnautov(group: FiniteGroup) -> tuple[bool, Optional[ArnautovWitness]]:
    """True iff [G, N] = N for every normal subgroup N.

    On failure the witness carries the smallest violating N together with
    the semitopological non-open identity map (zeta_{[G,N]}, zeta_N).
    Must agree with total Taimanovness, and is checked to.
    """
    lattice = normal_lattice(group)
    comm = lattice.comm_index
    moved = np.flatnonzero(comm != np.arange(len(comm)))
    witness: Optional[ArnautovWitness] = None
    if moved.size:
        sub = lattice.subgroups[moved[0]]
        commutator = lattice.subgroups[comm[moved[0]]]
        pair = (make_topology(group, commutator), make_topology(group, sub))
        witness = ArnautovWitness(sub, commutator, pair)
    verdict = witness is None
    if verdict != is_totally_taimanov(group)[0]:
        raise InternalInconsistency(
            "[G,N]=N route and quotient-center route disagree on Arnautov"
        )
    return verdict, witness


def classify(group: FiniteGroup) -> ClassificationReport:
    """Full classification with per-normal-subgroup A-completeness table."""
    lattice = normal_lattice(group)
    rows = []
    for idx, sub in enumerate(lattice.subgroups):
        tau = make_topology(group, sub)
        complete, violator = _a_complete_both_routes(tau)
        rows.append(
            NormalSubgroupRow(
                index=idx,
                subgroup=sub,
                order=sub.order,
                a_complete=complete,
                commutator_with_g_order=lattice.subgroups[lattice.comm_index[idx]].order,
                a_complete_violator=violator,
            )
        )

    taimanov = is_taimanov(group)
    totally, tt_witness = is_totally_taimanov(group)
    arnautov, arnautov_witness = is_arnautov(group)
    perfect = is_perfect(group)
    witnesses: dict = {}
    if not taimanov:
        from .subgroups import center_subgroup

        witnesses["taimanov"] = center_subgroup(group)
    if not totally:
        witnesses["totally_taimanov"] = tt_witness
    if not arnautov:
        witnesses["arnautov"] = arnautov_witness
    if not perfect:
        witnesses["perfect"] = derived_subgroup(group)

    return ClassificationReport(
        spec=group.spec,
        order=group.order,
        center_order=len(center(group)),
        is_perfect=perfect,
        is_taimanov=taimanov,
        is_totally_taimanov=totally,
        is_arnautov=arnautov,
        is_markov=True,  # finite groups admit no nondiscrete Hausdorff group topology
        rows=tuple(rows),
        witnesses=witnesses,
    )
