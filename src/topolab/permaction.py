"""Orbit/stabilizer analysis of permutation groups H <= S(X) on finite X,
and the criterion for c_{S(X)}(H) to be trivial.

The criterion: the centralizer of H inside the full symmetric group is
trivial iff (a) every point stabilizer at an orbit representative is
self-normalizing in H, and (b) stabilizers at distinct representatives are
never conjugate in H.  Because conjugates of point stabilizers are again
point stabilizers (S_x^h = S_{h^-1(x)}), both conditions reduce to set
comparisons among the stabilizers along orbits, and each failure yields an
explicit non-identity permutation commuting with H.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegreeTooLarge, InternalInconsistency
from .groups import FiniteGroup, PermSpec, build_group

# above groups.DEFAULT_ORDER_CAP: S8 (order 40320) is a supported action
MATERIALIZATION_CAP = 100_000
ORACLE_MAX_DEGREE = 8

Perm = tuple[int, ...]


def _compose(a: Perm, b: Perm) -> Perm:
    """a after b (matching the group product convention)."""
    return tuple(a[x] for x in b)


def _validate_perm(perm: Sequence[int], degree: int) -> Perm:
    p = tuple(int(x) for x in perm)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise ValueError(f"{perm!r} is not a permutation of 0..{degree - 1}")
    return p


class PermAction:
    """A subgroup of S(degree) given by generators, closed on demand into a
    FiniteGroup (order cap MATERIALIZATION_CAP)."""

    def __init__(self, degree: int, generators: Sequence[Sequence[int]]):
        if degree < 1:
            raise ValueError("degree must be at least 1")
        self.degree = degree
        self.generators: tuple[Perm, ...] = tuple(
            _validate_perm(g, degree) for g in generators
        )
        self._group: Optional[FiniteGroup] = None

    @property
    def group(self) -> FiniteGroup:
        if self._group is None:
            self._group = build_group(
                PermSpec(self.degree, self.generators), order_cap=MATERIALIZATION_CAP
            )
        return self._group

    @property
    def elements(self) -> tuple[Perm, ...]:
        """All elements of the generated subgroup, in discovery order."""
        return tuple(map(tuple, self.group.perms.tolist()))

    @property
    def order(self) -> int:
        return self.group.order

    def fixed_points(self) -> np.ndarray:
        """Boolean matrix: [h, pt] is True when element h fixes pt, so column
        pt is the stabilizer of pt as a mask over elements."""
        perms = self.group.perms
        return perms == np.arange(self.degree, dtype=perms.dtype)

    def point_stabilizers(self) -> dict[int, frozenset[int]]:
        """For every point, the set of element indices fixing it."""
        fixed = self.fixed_points()
        return {pt: frozenset(np.flatnonzero(fixed[:, pt]).tolist()) for pt in range(self.degree)}

    def __repr__(self) -> str:
        return f"PermAction(degree={self.degree}, generators={len(self.generators)})"


@dataclass(frozen=True)
class OrbitData:
    """Orbit partition with smallest-point representatives and their
    stabilizers (as tuples of permutations)."""

    orbits: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    stabilizers: dict[int, tuple[Perm, ...]]


@dataclass(frozen=True)
class LemmaFailure:
    """Why the trivial-centralizer criterion failed.

    condition "a": the stabilizer at `representative` is not
    self-normalizing; `paired_point` is another point of the same orbit with
    an equal stabilizer and `conjugator` maps it to the representative.

    condition "b": the stabilizers at `representative` and
    `other_representative` are conjugate; `paired_point` lies in the second
    orbit, has the same stabilizer as `representative`, and `conjugator`
    maps it to `other_representative`.
    """

    condition: str
    representative: int
    other_representative: Optional[int]
    paired_point: int
    conjugator: Perm


def _orbit_partition(action: PermAction) -> tuple[tuple[int, ...], ...]:
    """Orbits in order of their smallest points.  The orbit of x is the set
    of images h(x), so its smallest point is the minimum of column x."""
    smallest = action.group.perms.min(axis=0)
    points = np.argsort(smallest, kind="stable")
    cuts = np.flatnonzero(np.diff(smallest[points])) + 1
    return tuple(tuple(orbit.tolist()) for orbit in np.split(points, cuts))


def orbit_data(action: PermAction) -> OrbitData:
    """Orbits, representatives, and representative stabilizers."""
    perms = action.group.perms
    fixed = action.fixed_points()
    orbits = _orbit_partition(action)
    reps = tuple(orbit[0] for orbit in orbits)
    stabilizers = {}
    for orbit, rep in zip(orbits, reps):
        stab = tuple(map(tuple, perms[fixed[:, rep]].tolist()))
        if len(orbit) * len(stab) != action.order:
            raise InternalInconsistency("orbit-stabilizer arithmetic fails")
        stabilizers[rep] = stab
    return OrbitData(orbits, reps, stabilizers)


def full_symmetric_centralizer(action: PermAction) -> tuple[Perm, ...]:
    """Exhaustive centralizer of H inside the full S(X), degree <= 8, in
    lexicographic order."""
    if action.degree > ORACLE_MAX_DEGREE:
        raise DegreeTooLarge(
            f"exhaustive centralizer limited to degree {ORACLE_MAX_DEGREE}"
        )
    # S_k in lexicographic order: each first point f, then the rows of
    # S_{k-1} shifted past f
    rows = np.zeros((1, 0), dtype=np.int8)
    for k in range(1, action.degree + 1):
        first = np.repeat(np.arange(k, dtype=np.int8), len(rows))[:, None]
        rest = np.tile(rows, (k, 1))
        rows = np.hstack([first, rest + (rest >= first)])
    for g in action.generators:
        garr = np.asarray(g, dtype=np.intp)
        # tau∘g == g∘tau, rowwise; one generator at a time shrinks the rows
        rows = rows[(rows[:, garr] == garr[rows]).all(axis=1)]
    return tuple(map(tuple, rows.tolist()))


def _first_mapping(action: PermAction, src: int, dst: int) -> Perm:
    perms = action.group.perms
    hits = np.flatnonzero(perms[:, src] == dst)
    if not len(hits):
        raise InternalInconsistency(f"no element maps {src} to {dst}")
    return tuple(perms[hits[0]].tolist())


def lemma_trivial_centralizer(
    action: PermAction,
) -> tuple[bool, Optional[LemmaFailure]]:
    """Decide c_{S(X)}(H) = {id} via the two stabilizer conditions.

    Conjugate-stabilizer failures across distinct orbits (condition b) are
    reported in preference to self-normalizing failures (condition a);
    within a condition the smallest representatives win.
    """
    fixed = action.fixed_points()
    stabs = [fixed[:, pt].tobytes() for pt in range(action.degree)]
    orbits = _orbit_partition(action)
    reps = [orbit[0] for orbit in orbits]

    # (b): S_x conjugate to S_z in H  <=>  some point of O(z) has stabilizer
    # equal (as a set) to S_x, since conjugates of point stabilizers are the
    # stabilizers along the orbit.
    for i, x in enumerate(reps):
        for z, orbit_z in ((reps[j], orbits[j]) for j in range(i + 1, len(reps))):
            for y in orbit_z:
                if stabs[y] == stabs[x]:
                    return False, LemmaFailure(
                        condition="b",
                        representative=x,
                        other_representative=z,
                        paired_point=y,
                        conjugator=_first_mapping(action, y, z),
                    )

    # (a): S_x self-normalizing  <=>  no other point of O(x) shares the
    # exact stabilizer set.
    for x, orbit in zip(reps, orbits):
        for y in orbit:
            if y != x and stabs[y] == stabs[x]:
                return False, LemmaFailure(
                    condition="a",
                    representative=x,
                    other_representative=None,
                    paired_point=y,
                    conjugator=_first_mapping(action, y, x),
                )
    return True, None


def _transversal(action: PermAction, root: int) -> dict[int, Perm]:
    """For each point of the root's orbit, one element mapping root to it."""
    ident = tuple(range(action.degree))
    reached = {root: ident}
    frontier = [root]
    while frontier:
        pt = frontier.pop()
        for g in action.generators:
            img = g[pt]
            if img not in reached:
                reached[img] = _compose(g, reached[pt])
                frontier.append(img)
    return reached


def build_centralizing_witness(action: PermAction, failure: LemmaFailure) -> Perm:
    """Turn a criterion failure into a non-identity permutation commuting
    with every generator; verified before being returned.

    For condition (a), with h0 normalizing S_x without fixing x, the witness
    sends h(x) to h(h0(x)) along the orbit and fixes everything else.  For
    condition (b) it swaps the two orbits via h(x) <-> h(y), which is well
    defined because x and y have equal stabilizers.
    """
    tau = list(range(action.degree))
    x = failure.representative
    trans_x = _transversal(action, x)
    if failure.condition == "a":
        h0 = failure.conjugator
        target = h0[x]
        for pt, u in trans_x.items():
            tau[pt] = u[target]
    elif failure.condition == "b":
        y = failure.paired_point
        for pt, u in trans_x.items():
            tau[pt] = u[y]
        trans_y = _transversal(action, y)
        for pt, v in trans_y.items():
            tau[pt] = v[x]
    else:
        raise ValueError(f"unknown failure condition {failure.condition!r}")

    witness = tuple(tau)
    if sorted(witness) != list(range(action.degree)):
        raise InternalInconsistency("constructed witness is not a permutation")
    if witness == tuple(range(action.degree)):
        raise InternalInconsistency("constructed witness is the identity")
    for g in action.generators:
        if _compose(witness, g) != _compose(g, witness):
            raise InternalInconsistency("constructed witness fails to commute")
    return witness


def random_actions(
    degree: int, count: int, seed: int, max_generators: int = 3
) -> list[PermAction]:
    """Reproducible sample of actions with 1..max_generators uniform
    generators; the seed fixes the whole sequence."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, max_generators)
        gens = [tuple(rng.sample(range(degree), degree)) for _ in range(k)]
        out.append(PermAction(degree, gens))
    return out
