"""Group-level classification: Taimanov, totally Taimanov, Arnautov,
perfectness, and A-completeness of almost trivial topologies.

Everything here is finite-group specific, where the classes collapse to
element-wise criteria: a finite group is Taimanov iff its center is
trivial, zeta_N is A-complete iff G/N has trivial center, and Arnautov,
totally Taimanov, and "[G,N] = N for all normal N" coincide.  The two
available routes to each verdict are both computed and must agree.

The center route reads the preimage of Z(G/N), the x whose commutator
with every generator of G lies in N, off G itself, so no quotient group is
built; the commutator route reads [G, N] off the normal lattice.  Both are
read for every lattice member at once and cached on the group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InternalInconsistency
from .groups import FiniteGroup, GroupSpec, center, row_blocks
from .subgroups import Subgroup, _central_preimages, center_subgroup, derived_subgroup, normal_lattice
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
    bad = np.flatnonzero(~_centerless_quotients(group))
    if bad.size:
        return False, normal_lattice(group).subgroups[bad[0]]
    return True, None


def is_a_complete(tau: AlmostTrivialTopology) -> bool:
    """Whether no strictly coarser topology receives a semitopological
    identity map from zeta_N.

    Decided as "G/N has trivial center"; independently re-derived as "no
    normal N' strictly above N has [G, N'] <= N", and the two must agree.
    """
    complete, _ = _a_complete_both_routes(tau.group)
    return bool(complete[normal_lattice(tau.group).index(tau.kernel)])


def _centerless_quotients(group: FiniteGroup) -> np.ndarray:
    """For every lattice member N, whether G/N has trivial center, read at
    the principals' class minima reps.

    The preimage Z of Z(G/N) is normal, so it is the union of the
    principals it holds, and it holds P_p = <reps[p]>^G iff it holds
    reps[p], that is iff [reps[p], s] lies in N for every generator s.
    Since N <= Z, Z(G/N) is trivial iff every principal whose commutators
    all lie in N is held by N: |reps| x |S| products, not |G| x |S|.
    """

    def build() -> np.ndarray:
        lattice = normal_lattice(group)
        central = _central_preimages(group, lattice.masks, lattice.reps)  # [N, p]: P_p <= Z
        out = ~(central & ~lattice.holds).any(axis=1)
        out.setflags(write=False)
        return out

    return group._cached("centerless_quotients", build)


def _a_complete_both_routes(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """For every lattice member N, whether zeta_N is A-complete, and the
    position of the first N' strictly above N with [G, N'] <= N (-1 if
    none).  The center route decides; the commutator route must agree.
    """

    def build() -> tuple[np.ndarray, np.ndarray]:
        lattice = normal_lattice(group)
        contains = lattice.contains
        count = len(contains)
        by_center = _centerless_quotients(group)
        violator = np.full(count, -1)
        for block in row_blocks(count, count):
            # above[i, j]: N_j strictly above N_k with [G, N_j] <= N_k, k = block.start + i
            above = contains[block] & contains[lattice.comm_index, block].T
            above[np.arange(len(above)), np.arange(block.start, block.stop)] = False
            hits = above.any(axis=1)
            violator[block][hits] = above[hits].argmax(axis=1)
        if not np.array_equal(by_center, violator < 0):
            raise InternalInconsistency(
                "center route and commutator route disagree on A-completeness"
            )
        violator.setflags(write=False)
        return by_center, violator

    return group._cached("a_complete", build)


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
    complete, violators = _a_complete_both_routes(group)
    comm = lattice.comm_index
    rows = [
        NormalSubgroupRow(
            index=idx,
            subgroup=sub,
            order=sub.order,
            a_complete=bool(complete[idx]),
            commutator_with_g_order=lattice.subgroups[comm[idx]].order,
            a_complete_violator=None if violators[idx] < 0 else int(violators[idx]),
        )
        for idx, sub in enumerate(lattice.subgroups)
    ]

    taimanov = is_taimanov(group)
    totally, tt_witness = is_totally_taimanov(group)
    arnautov, arnautov_witness = is_arnautov(group)
    perfect = is_perfect(group)
    witnesses: dict = {}
    if not taimanov:
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
