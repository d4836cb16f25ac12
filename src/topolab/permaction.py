"""Orbit/stabilizer analysis of permutation groups H <= S(X) on finite X,
and the criterion for c_{S(X)}(H) to be trivial.

The criterion: the centralizer of H inside the full symmetric group is
trivial iff (a) every point stabilizer at an orbit representative is
self-normalizing in H, and (b) stabilizers at distinct representatives are
never conjugate in H.  It rests on c_{S(X)}(H) being N_H(H_x)/H_x for
transitive H (Dixon & Mortimer, *Permutation Groups*, GTM 163, Thm 4.2A).
Because conjugates of point stabilizers are again point stabilizers
(S_x^h = S_{h^-1(x)}), both conditions reduce to equalities among the
stabilizers along orbits, which are Subgroup masks compared by their packed
bytes, and each failure yields an explicit non-identity permutation
commuting with H, built along transversals read off one column of the
element rows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DegreeTooLarge, InternalInconsistency
from .groups import FiniteGroup, PermSpec, build_group, row_keys
from .subgroups import Subgroup, _orbit_minima, _split_by_label

# above groups.DEFAULT_ORDER_CAP: S8 (order 40320) is a supported action
MATERIALIZATION_CAP = 100_000
ORACLE_MAX_DEGREE = 8

Perm = tuple[int, ...]


def _compose(a: Perm, b: Perm) -> Perm:
    """a after b (matching the group product convention)."""
    return tuple(a[x] for x in b)


def _validate_perm(perm: Sequence[int], degree: int) -> Perm:
    p = tuple(int(x) for x in perm if type(x) is int or isinstance(x, np.integer))  # non-integers and bools shorten p
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

    def __repr__(self) -> str:
        return f"PermAction(degree={self.degree}, generators={len(self.generators)})"


@dataclass(frozen=True)
class OrbitData:
    """Orbit partition with smallest-point representatives and their
    stabilizers, as Subgroup masks of the action's group."""

    orbits: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    stabilizers: dict[int, Subgroup]


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
    """Orbits in order of their smallest points, read as the orbit minima
    under the generators' maps, as _class_labels reads conjugacy classes."""
    maps = [(slice(None), row) for row in action.group.perms[list(action.group.generator_ids)]]
    return _split_by_label(_orbit_minima(action.degree, maps))


def orbit_data(action: PermAction) -> OrbitData:
    """Orbits, representatives, and representative stabilizers."""
    fixed = action.fixed_points()
    orbits = _orbit_partition(action)
    reps = tuple(orbit[0] for orbit in orbits)
    stabilizers = {}
    for orbit, rep in zip(orbits, reps):
        stab = Subgroup(action.group, fixed[:, rep])
        if len(orbit) * stab.order != action.order:
            raise InternalInconsistency("orbit-stabilizer arithmetic fails")
        stabilizers[rep] = stab
    return OrbitData(orbits, reps, stabilizers)


def full_symmetric_centralizer(action: PermAction) -> np.ndarray:
    """Exhaustive centralizer of H inside the full S(X), degree <= 8, as an
    int8 array with one row t per map, t[x] the image of x, in
    lexicographic order, by propagation from the generators alone.  Rows t
    grow an orbit at a time: each unused image of its smallest point in
    increasing order, the rest by t(g x) = g t(x) along a spanning tree,
    kept while images stay distinct and t commutes with the generators.
    Points below a representative lie in earlier orbits: rows stay sorted."""
    n = action.degree
    if n > ORACLE_MAX_DEGREE:
        raise DegreeTooLarge(f"exhaustive centralizer limited to degree {ORACLE_MAX_DEGREE}")
    gens = [np.asarray(g, dtype=np.intp) for g in action.generators]
    rows, free = np.zeros((1, n), dtype=np.int8), np.ones((1, n), dtype=bool)  # free: unused images
    done: list[int] = []
    for rep in (p for p in range(n) if p not in done):
        image = np.flatnonzero(free) % n
        rows, free = np.repeat(rows, n - len(done), axis=0), np.repeat(free, n - len(done), axis=0)
        rows[:, rep] = image
        orbit = [rep]
        for x in orbit:  # grows while walked: breadth first along a spanning tree
            for g in gens:
                if g[x] not in orbit:
                    orbit.append(int(g[x]))
                    rows[:, orbit[-1]] = g[rows[:, x]]
        done += orbit
        at, keep = np.arange(len(rows)), np.ones(len(rows), dtype=bool)
        for x in orbit:
            keep &= free[at, rows[:, x]]
            free[at, rows[:, x]] = False
        for g in gens:
            keep &= (rows[:, g[orbit]] == g[rows[:, orbit]]).all(axis=1)
        if not keep.all():
            rows, free = rows[keep], free[keep]
    return rows


def _first_mapping(action: PermAction, src: int, dst: int) -> Perm:
    perms = action.group.perms
    hits = np.flatnonzero(perms[:, src] == dst)
    if not len(hits):
        raise InternalInconsistency(f"no element maps {src} to {dst}")
    return tuple(perms[hits[0]].tolist())


def _stabilizer_keys(fixed: np.ndarray) -> list[bytes]:
    """Subgroup.packed of each column of a fixed-point mask: row 8k + b goes
    to bit 7 - b of byte k, read by contiguous rows, not down the columns."""
    packed = np.zeros(((len(fixed) + 7) // 8, fixed.shape[1]), dtype=np.uint8)
    for b in range(8):
        rows = fixed[b::8].view(np.uint8)
        packed[: len(rows)] |= rows << (7 - b)
    return row_keys(packed.T)


def lemma_trivial_centralizer(
    action: PermAction,
) -> tuple[bool, Optional[LemmaFailure]]:
    """Decide c_{S(X)}(H) = {id} via the two stabilizer conditions.

    Conjugate-stabilizer failures across distinct orbits (condition b) are
    reported in preference to self-normalizing failures (condition a);
    within a condition the smallest representatives win, then orbit order.
    One pass keys every point by its stabilizer's packed mask (the bytes of
    Subgroup.packed), listing the (orbit index, point) pairs under each key
    in orbit order; while (b) holds, no earlier orbit has a point under a
    representative's key, so each list is read once from its own orbit on.
    """
    keys = _stabilizer_keys(action.fixed_points())
    orbits = _orbit_partition(action)
    holders: dict[bytes, list[tuple[int, int]]] = {}
    for i, orbit in enumerate(orbits):
        for pt in orbit:
            holders.setdefault(keys[pt], []).append((i, pt))
    same = [holders[keys[orbit[0]]] for orbit in orbits]

    # (b): S_x conjugate to S_z in H  <=>  some point of O(z) has stabilizer
    # equal (as a set) to S_x, since conjugates of point stabilizers are the
    # stabilizers along the orbit.
    for i, orbit in enumerate(orbits):
        j, y = next(((j, y) for j, y in same[i] if j > i), (None, None))
        if j is not None:
            z = orbits[j][0]
            return False, LemmaFailure("b", orbit[0], z, y, _first_mapping(action, y, z))

    # (a): S_x self-normalizing  <=>  no other point of O(x) shares the
    # exact stabilizer set.
    for i, orbit in enumerate(orbits):
        x = orbit[0]
        y = next((y for j, y in same[i] if j == i and y != x), None)
        if y is not None:
            return False, LemmaFailure("a", x, None, y, _first_mapping(action, y, x))
    return True, None


def _transversal(action: PermAction, root: int) -> tuple[np.ndarray, np.ndarray]:
    """The points of the root's orbit and, row for row, the first element
    in numbering order that maps root to each."""
    perms = action.group.perms
    points, first = np.unique(perms[:, root], return_index=True)
    return points, perms[first]


def build_centralizing_witness(action: PermAction, failure: LemmaFailure) -> Perm:
    """Turn a criterion failure into a non-identity permutation commuting
    with every generator; verified before being returned.

    For condition (a), with h0 normalizing S_x without fixing x, the witness
    sends h(x) to h(h0(x)) along the orbit and fixes everything else.  For
    condition (b) it swaps the two orbits via h(x) <-> h(y), which is well
    defined because x and y have equal stabilizers.
    """
    tau = np.arange(action.degree)
    x = failure.representative
    points_x, trans_x = _transversal(action, x)
    if failure.condition == "a":
        tau[points_x] = trans_x[:, failure.conjugator[x]]
    elif failure.condition == "b":
        y = failure.paired_point
        tau[points_x] = trans_x[:, y]
        points_y, trans_y = _transversal(action, y)
        tau[points_y] = trans_y[:, x]
    else:
        raise ValueError(f"unknown failure condition {failure.condition!r}")

    witness = tuple(tau.tolist())
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
