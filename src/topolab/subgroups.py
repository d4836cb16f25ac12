"""Subgroup generation, normal lattices, central series, quotients.

A Subgroup is identified by its sorted element-id set within a fixed parent
group; nothing here identifies subgroups across different parents.  Derived
data that is expensive to recompute (conjugacy classes, the normal lattice,
quotients) is cached on the parent group behind its internal lock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotNormal, OrderCapExceeded
from .groups import FiniteGroup, cayley_table, center, group_from_table

# ceiling on the normal-lattice size; elementary-abelian inputs can have
# astronomically many normal subgroups and must fail fast instead of hanging
NORMAL_LATTICE_BOUND = 4096


class Subgroup:
    """A subset of a parent group closed under product and inverse."""

    __slots__ = ("parent", "elements", "_set", "_normal")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int], _normal: Optional[bool] = None):
        self.parent = parent
        self.elements: tuple[int, ...] = tuple(sorted({int(x) for x in elements}))
        if not self.elements or self.elements[0] != 0:
            raise ValueError("a subgroup must contain the identity")
        self._set = frozenset(self.elements)
        self._normal = _normal

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_set(self) -> frozenset[int]:
        return self._set

    def __contains__(self, x: int) -> bool:
        return x in self._set

    def issubset(self, other: "Subgroup") -> bool:
        return self._set <= other._set

    @property
    def is_normal(self) -> bool:
        if self._normal is None:
            self._normal = _closed_under_conjugation(self.parent, self.elements)
        return self._normal

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.elements == other.elements
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.elements))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.order})"


@dataclass(frozen=True)
class CentralSeries:
    """Lower or upper central series, listed to its stabilization point.

    The lower series stops as soon as it reaches the trivial subgroup; a
    series that stalls earlier instead ends with its first repeated term, so
    stabilization is visible in the data itself.  Dually for the upper
    series and the full group.
    """

    kind: str
    terms: tuple[Subgroup, ...]
    stabilized: bool


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """Canonical projection onto G/N; cosets numbered by smallest member."""

    source: FiniteGroup
    target: FiniteGroup
    kernel: Subgroup
    projection: np.ndarray

    def apply(self, x: int) -> int:
        return int(self.projection[x])


# ---------------------------------------------------------------------------
# closure machinery


def _closure(group: FiniteGroup, seed_ids: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing seed_ids (closure under products).

    Seeds already inside the running span are skipped, so the working
    generator list stays logarithmic even when the seed is a whole
    conjugacy class or subgroup.
    """
    seeds = sorted({int(x) for x in seed_ids} - {0})
    mask = np.zeros(group.order, dtype=bool)
    mask[0] = True
    gens = np.zeros(0, dtype=np.int64)
    for s in seeds:
        if mask[s]:
            continue
        gens = np.append(gens, s)
        mask[s] = True
        frontier = np.flatnonzero(mask)
        while frontier.size:
            new_mask = np.zeros_like(mask)
            new_mask[group.mul_many(frontier[:, None], gens)] = True
            new_mask &= ~mask
            mask |= new_mask
            frontier = np.flatnonzero(new_mask)
    return tuple(np.flatnonzero(mask).tolist())


def _conjugates(group: FiniteGroup, h: int, elems) -> np.ndarray:
    """h x h^-1 for every x in elems."""
    return group.mul_many(group.mul_many(h, elems), group.inv(h))


def _closed_under_conjugation(group: FiniteGroup, elements: Sequence[int]) -> bool:
    inside = np.zeros(group.order, dtype=bool)
    inside[list(elements)] = True
    return all(inside[_conjugates(group, g, elements)].all() for g in group.generator_ids)


def _small_generating_set(group: FiniteGroup, elements: Sequence[int]) -> tuple[int, ...]:
    gens: list[int] = []
    span: frozenset[int] = frozenset((0,))
    for x in elements:
        if x not in span:
            gens.append(int(x))
            span = frozenset(_closure(group, gens))
            if len(span) == len(elements):
                break
    return tuple(gens)


def subgroup(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Wrap a verified subgroup; raises ValueError if not closed."""
    sub = Subgroup(group, elements)
    if tuple(_closure(group, sub.elements)) != sub.elements:
        raise ValueError("element set is not closed under the group operations")
    return sub


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return group._cached("trivial_subgroup", lambda: Subgroup(group, (0,), _normal=True))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return group._cached(
        "full_subgroup", lambda: Subgroup(group, range(group.order), _normal=True)
    )


def center_subgroup(group: FiniteGroup) -> Subgroup:
    return group._cached(
        "center_subgroup", lambda: Subgroup(group, center(group), _normal=True)
    )


def generated_subgroup(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given elements."""
    return Subgroup(group, _closure(group, elements))


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted tuples, ordered by smallest member."""

    def build() -> tuple[tuple[int, ...], ...]:
        cmaps = [group.conj_map(g) for g in group.generator_ids]
        seen = np.zeros(group.order, dtype=bool)
        classes: list[tuple[int, ...]] = []
        for x in range(group.order):
            if seen[x]:
                continue
            orbit = {x}
            seen[x] = True
            frontier = np.asarray([x])
            while frontier.size:
                images = np.unique(np.concatenate([m[frontier] for m in cmaps])) if cmaps else frontier[:0]
                fresh = images[~seen[images]]
                seen[fresh] = True
                orbit.update(int(v) for v in fresh)
                frontier = fresh
            classes.append(tuple(sorted(orbit)))
        return tuple(classes)

    return group._cached("conjugacy_classes", build)


def normal_closure(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing the given elements."""
    class_of = _class_lookup(group)
    seed: set[int] = set()
    for x in elements:
        seed.update(class_of[int(x)])
    return Subgroup(group, _closure(group, seed), _normal=True)


def _class_lookup(group: FiniteGroup) -> dict[int, tuple[int, ...]]:
    def build() -> dict[int, tuple[int, ...]]:
        lookup: dict[int, tuple[int, ...]] = {}
        for cls in conjugacy_classes(group):
            for x in cls:
                lookup[x] = cls
        return lookup

    return group._cached("class_lookup", build)


def all_normal_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every normal subgroup, sorted by (order, element set).

    Found by joining known normal subgroups with one conjugacy class at a
    time, starting from the trivial subgroup.  Complete because any normal
    subgroup strictly above N contains a full class outside N, and joining
    that class moves strictly closer to it.  Raises OrderCapExceeded when
    the lattice grows past NORMAL_LATTICE_BOUND.
    """

    def build() -> tuple[Subgroup, ...]:
        classes = conjugacy_classes(group)
        triv = trivial_subgroup(group)
        found: dict[tuple[int, ...], Subgroup] = {triv.elements: triv}
        frontier = [triv]
        while frontier:
            fresh: list[Subgroup] = []
            for sub in frontier:
                for cls in classes:
                    # every found subgroup is a union of classes, so membership
                    # of the class minimum decides containment
                    if cls[0] == 0 or cls[0] in sub._set:
                        continue
                    joined = _closure(group, sub.elements + cls)
                    if joined not in found:
                        if len(found) >= NORMAL_LATTICE_BOUND:
                            raise OrderCapExceeded(
                                "normal subgroup lattice exceeds "
                                f"{NORMAL_LATTICE_BOUND} entries"
                            )
                        new_sub = Subgroup(group, joined, _normal=True)
                        found[joined] = new_sub
                        fresh.append(new_sub)
            frontier = fresh
        return tuple(sorted(found.values(), key=lambda s: (s.order, s.elements)))

    return group._cached("all_normal_subgroups", build)


def commutator_subgroup(group: FiniteGroup, left: Subgroup, right: Subgroup) -> Subgroup:
    """Subgroup generated by every [h, k] with h in left, k in right.

    When both arguments are normal, [left, right] is the normal closure of
    the commutators of generator pairs (peel words off with
    [xy, z] = x[y,z]x^-1 [x,z] and its mirror image), which avoids the
    quadratic sweep; otherwise all pairs are enumerated.
    """
    if left.parent is not group or right.parent is not group:
        raise ValueError("subgroups must belong to the given group")
    if left.order == 1 or right.order == 1:
        return trivial_subgroup(group)

    def subgroup_gens(sub: Subgroup) -> tuple[int, ...]:
        if sub.order == group.order:
            return group.generator_ids
        return _small_generating_set(group, sub.elements)

    def build() -> Subgroup:
        if left.is_normal and right.is_normal:
            values = {
                group.commutator(a, b)
                for a in subgroup_gens(left)
                for b in subgroup_gens(right)
            }
            return normal_closure(group, values)
        values = _commutator_values(group, left.elements, right.elements)
        return Subgroup(group, _closure(group, values))

    if left.order == group.order:
        # [G, N] is asked for over and over by the topology layers
        return group._cached(("comm_full", right.elements), build)
    return build()


def _commutator_values(
    group: FiniteGroup, hs: Sequence[int], ks: Sequence[int]
) -> set[int]:
    karr = np.asarray(ks, dtype=np.int64)
    kinv = group.inverses[karr]
    out: set[int] = set()
    for h in hs:
        # [h, k] = (h k h^-1) k^-1 for every k at once
        out.update(np.unique(group.mul_many(_conjugates(group, h, karr), kinv)).tolist())
    return out


def derived_subgroup(group: FiniteGroup) -> Subgroup:
    full = full_subgroup(group)
    return group._cached(
        "derived_subgroup", lambda: commutator_subgroup(group, full, full)
    )


def lower_central_series(group: FiniteGroup) -> CentralSeries:
    full = full_subgroup(group)
    terms = [full]
    if full.order > 1:
        while True:
            nxt = commutator_subgroup(group, full, terms[-1])
            terms.append(nxt)
            if nxt.order == 1 or nxt == terms[-2]:
                break
    return CentralSeries("lower", tuple(terms), stabilized=True)


def upper_central_series(group: FiniteGroup) -> CentralSeries:
    terms = [trivial_subgroup(group)]
    while terms[-1].order < group.order:
        quo = quotient_group(group, terms[-1])
        zq = set(center(quo.target))
        pre = [x for x in group.elements() if int(quo.projection[x]) in zq]
        nxt = Subgroup(group, pre, _normal=True)
        if nxt == terms[-1]:
            terms.append(nxt)
            break
        terms.append(nxt)
    return CentralSeries("upper", tuple(terms), stabilized=True)


def nilpotency_class(group: FiniteGroup) -> Optional[int]:
    """Nilpotency class, or None when the lower series stalls above {e}.

    The class is the least positive n with the (n+1)-st lower term trivial,
    so the trivial group gets class 1.
    """
    series = lower_central_series(group)
    if series.terms[-1].order != 1:
        return None
    first_trivial = next(i for i, t in enumerate(series.terms) if t.order == 1)
    return max(1, first_trivial)


def quotient_group(group: FiniteGroup, kernel: Subgroup) -> QuotientMap:
    """Quotient by a normal subgroup; the target shares the source's
    element numbering discipline (coset id = rank of its smallest member).

    Quotients are cached per kernel; the quotient by the trivial subgroup is
    the group itself (shared, since groups are immutable).
    """
    if not kernel.is_normal:
        raise NotNormal("quotient kernel must be a normal subgroup")

    def build() -> QuotientMap:
        if kernel.order == 1:
            return QuotientMap(group, group, kernel, np.arange(group.order))
        n = group.order
        karr = np.asarray(kernel.elements, dtype=np.int64)
        proj = np.full(n, -1, dtype=np.int32)
        reps: list[int] = []
        for x in range(n):
            if proj[x] >= 0:
                continue
            proj[group.mul_many(x, karr)] = len(reps)
            reps.append(x)
        gen_images: dict[int, int] = {}  # image in G/N -> a generator of G with it
        for g in group.generator_ids:
            img = int(proj[g])
            if img != 0 and img not in gen_images:
                gen_images[img] = g
        # right multiplication by each generator image, on coset numbers
        rmul = [proj[group.mul_many(reps, g)] for g in gen_images.values()]
        target = group_from_table(cayley_table(len(reps), rmul), tuple(gen_images))
        return QuotientMap(group, target, kernel, proj)

    return group._cached(("quotient", kernel.elements), build)


def subgroup_as_group(sub: Subgroup) -> tuple[FiniteGroup, np.ndarray]:
    """Materialize a subgroup as a group of its own.

    Returns the new group and the embedding array mapping its element ids to
    parent ids (new id i = i-th smallest parent id, so 0 stays the identity).
    The new group reuses the parent's permutation action, restricted to the
    subgroup's elements.
    """
    parent = sub.parent

    def build() -> tuple[FiniteGroup, np.ndarray]:
        if sub.order == parent.order:
            return parent, np.arange(parent.order)
        embed = np.asarray(sub.elements, dtype=np.int64)
        gens = np.searchsorted(embed, _small_generating_set(parent, sub.elements))
        return FiniteGroup(None, parent.perms[embed], tuple(gens.tolist())), embed

    return parent._cached(("subgroup_group", sub.elements), build)


def normalizer(ambient: Subgroup, sub: Subgroup) -> Subgroup:
    """Elements of ambient conjugating sub onto itself."""
    group = ambient.parent
    if not sub._set <= ambient._set:
        raise ValueError("sub must be contained in ambient")
    sarr = np.asarray(sub.elements, dtype=np.int64)
    keep: list[int] = []
    for h in ambient.elements:
        conj = _conjugate_set(group, sarr, h)
        if conj == sub._set:
            keep.append(h)
    return Subgroup(group, keep)


def are_conjugate(
    ambient: Subgroup, first: Subgroup, second: Subgroup
) -> tuple[bool, Optional[int]]:
    """Whether some h in ambient maps first onto second; returns the witness."""
    group = ambient.parent
    if not (first._set <= ambient._set and second._set <= ambient._set):
        raise ValueError("subgroups must be contained in ambient")
    if first.order != second.order:
        return False, None
    sarr = np.asarray(first.elements, dtype=np.int64)
    for h in ambient.elements:
        if _conjugate_set(group, sarr, h) == second._set:
            return True, h
    return False, None


def _conjugate_set(group: FiniteGroup, elems: np.ndarray, h: int) -> frozenset[int]:
    return frozenset(_conjugates(group, h, elems).tolist())
