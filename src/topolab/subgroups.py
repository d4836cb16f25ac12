"""Subgroup generation, normal lattices, central series, quotients.

A Subgroup is a read-only membership mask over the element ids of a fixed
parent group, identified by the packed bytes of that mask; nothing here
identifies subgroups across different parents.  Derived data that is
expensive to recompute (conjugacy classes, the normal lattice, quotients,
quotient centers) is cached on the parent group behind its internal lock,
keyed by those bytes where it depends on a subgroup.

Conjugacy classes are one label array, the smallest member of each
element's class; every other view of the classes is read off it.

The center of G/N is read off G itself: quotient_center returns its
preimage, the x whose commutator with every generator of G lies in N, from
one membership mask per generator.  upper_central_series and the
classification's center route use it; quotient_group, which builds G/N as
a group of its own with a dense table, is left to quotient topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import NotNormal, OrderCapExceeded
from .groups import FiniteGroup, cayley_table, center, group_from_table

# ceiling on the normal-lattice size; elementary-abelian inputs can have
# astronomically many normal subgroups and must fail fast instead of hanging
NORMAL_LATTICE_BOUND = 4096


class Subgroup:
    """A subset of a parent group closed under product and inverse, held as
    mask, a read-only bool array over the parent's element ids, plus its
    order and packed, the np.packbits bytes of mask that == and hash use.

    Built from element ids (ValueError for one outside 0..order-1) or from
    such a mask, which is shared, not copied, when it is read-only.
    """

    __slots__ = ("parent", "mask", "order", "packed", "_normal")

    def __init__(self, parent: FiniteGroup, elements: Iterable[int], _normal: Optional[bool] = None):
        self.parent = parent
        if isinstance(elements, np.ndarray) and elements.dtype == bool:
            if elements.shape != (parent.order,):
                raise ValueError("a subgroup mask needs one entry per group element")
            mask = elements.copy() if elements.flags.writeable else elements
        else:
            mask = np.zeros(parent.order, dtype=bool)
            mask[_checked_ids(parent, elements)] = True
        if not mask[0]:
            raise ValueError("a subgroup must contain the identity")
        mask.setflags(write=False)
        self.mask = mask
        self.order = int(np.count_nonzero(mask))
        self.packed = np.packbits(mask).tobytes()
        self._normal = _normal

    @property
    def elements(self) -> tuple[int, ...]:
        """Member ids in increasing order."""
        return tuple(np.flatnonzero(self.mask).tolist())

    @property
    def element_set(self) -> frozenset[int]:
        return frozenset(self.elements)

    def __contains__(self, x: int) -> bool:
        return 0 <= x < self.parent.order and bool(self.mask[x])

    def issubset(self, other: "Subgroup") -> bool:
        return not (self.mask & ~other.mask).any()

    @property
    def is_normal(self) -> bool:
        if self._normal is None:
            self._normal = _closed_under_conjugation(self.parent, self.mask)
        return self._normal

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.packed == other.packed
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.packed))

    def __repr__(self) -> str:
        return f"Subgroup(order={self.order} of {self.parent.order})"


def _checked_ids(group: FiniteGroup, elements: Iterable[int]) -> np.ndarray:
    """Element ids as an int64 array; ValueError for one outside 0..order-1."""
    ids = np.asarray(elements if isinstance(elements, np.ndarray) else list(elements), dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= group.order):
        raise ValueError(f"element ids must lie in 0..{group.order - 1}")
    return ids


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


def _closure(group: FiniteGroup, seed_ids: Iterable[int]) -> tuple[np.ndarray, list[int]]:
    """Membership mask of the smallest subgroup containing seed_ids, and
    the seeds it kept as generators.

    Seeds are taken in increasing order, and one already inside the running
    span is skipped, so the kept list is each seed outside the span of the
    smaller ones.  It stays logarithmic even when the seed is a whole
    conjugacy class or subgroup.  Each round multiplies only the elements
    found in the round before.  While the squares s^2, s^4, ... of the
    newest seed are new, they join the generators, so an element of order
    m has all its powers after about log2(m) rounds instead of m; after
    that they are dropped, since only the seeds are needed for closure.
    A round makes at most (new elements) x (generators) products.
    """
    mask = np.zeros(group.order, dtype=bool)
    mask[0] = True
    gens: list[int] = []
    for s in sorted({int(x) for x in seed_ids} - {0}):
        if mask[s]:
            continue
        gens.append(s)
        # the old span is a subgroup: only its products with s can be new
        fresh = _mark_new(mask, group.mul_many(np.flatnonzero(mask), s))
        squares = [s]
        while fresh.size:
            if squares:
                square = group.mul(squares[-1], squares[-1])
                squares = [] if mask[square] else squares + [square]
            fresh = _mark_new(mask, group.mul_many(fresh[:, None], gens + squares[1:]))
    return mask, gens


def _mark_new(mask: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Set mask at ids; return the ids that were not set before."""
    ids = np.unique(ids)
    ids = ids[~mask[ids]]
    mask[ids] = True
    return ids


def _coset_labels(group: FiniteGroup, kernel: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Coset number of every element modulo a normal subgroup (given by its
    element ids), cosets numbered by their smallest member; also returns
    those smallest members."""
    labels = np.full(group.order, -1, dtype=np.int32)
    reps: list[int] = []
    for x in range(group.order):
        if labels[x] < 0:
            labels[group.mul_many(x, kernel)] = len(reps)
            reps.append(x)
    return labels, reps


def _commutators(group: FiniteGroup, gs, ls) -> np.ndarray:
    """[g, l] = (g l g^-1) l^-1, broadcast over id arrays gs and ls."""
    gl = group.mul_many(gs, ls)
    return group.mul_many(group.mul_many(gl, group.inverses[gs]), group.inverses[ls])


def _conjugates(group: FiniteGroup, h: int, elems) -> np.ndarray:
    """h x h^-1 for every x in elems."""
    return group.mul_many(group.mul_many(h, elems), group.inv(h))


def _closed_under_conjugation(group: FiniteGroup, mask: np.ndarray) -> bool:
    elements = np.flatnonzero(mask)
    return all(mask[_conjugates(group, g, elements)].all() for g in group.generator_ids)


def subgroup(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Wrap a verified subgroup; raises ValueError if not closed or if an
    id lies outside 0..order-1."""
    sub = Subgroup(group, elements)
    if not np.array_equal(_closure(group, np.flatnonzero(sub.mask))[0], sub.mask):
        raise ValueError("element set is not closed under the group operations")
    return sub


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return group._cached("trivial_subgroup", lambda: Subgroup(group, (0,), _normal=True))


def full_subgroup(group: FiniteGroup) -> Subgroup:
    return group._cached(
        "full_subgroup", lambda: Subgroup(group, np.ones(group.order, dtype=bool), _normal=True)
    )


def center_subgroup(group: FiniteGroup) -> Subgroup:
    return group._cached(
        "center_subgroup", lambda: Subgroup(group, center(group), _normal=True)
    )


def generated_subgroup(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing the given elements; raises ValueError
    for an id outside 0..order-1."""
    return Subgroup(group, _closure(group, _checked_ids(group, elements))[0])


def _class_labels(group: FiniteGroup) -> np.ndarray:
    """Read-only array: the smallest member of every element's class.

    A round sets the labels of x and g x g^-1 to the smaller of the two for
    each generator g, then lets every label jump to its label's label, so a
    minimum crosses a conjugation cycle in a few rounds even when ids rise
    along it.  Labels only fall and always name a class member; a round
    that changes nothing leaves them constant on every class.
    """

    def build() -> np.ndarray:
        cmaps = [group.conj_map(g) for g in group.generator_ids]
        labels = np.arange(group.order)
        while True:
            before = labels
            for m in cmaps:
                labels = np.minimum(labels, labels[m])
                # m is a permutation, so no id is written twice
                labels[m] = np.minimum(labels[m], labels)
            labels = labels[labels]
            if np.array_equal(labels, before):
                break
        labels.setflags(write=False)
        return labels

    return group._cached("class_labels", build)


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted tuples, ordered by smallest member;
    read off the class labels, which are what is cached."""
    labels = _class_labels(group)
    ids = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[ids])) + 1
    return tuple(tuple(cls.tolist()) for cls in np.split(ids, cuts))


def normal_closure(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing the given elements; raises
    ValueError for an id outside 0..order-1."""
    labels = _class_labels(group)
    hit = np.zeros(group.order, dtype=bool)
    hit[labels[_checked_ids(group, elements)]] = True
    return Subgroup(group, _closure(group, np.flatnonzero(hit[labels]))[0], _normal=True)


class NormalLattice:
    """Every normal subgroup of a group, with the arrays its consumers share.

    subgroups[k] is the k-th normal subgroup in (order, element set) order
    and masks[k] its membership row over the group's elements, of which
    subgroups[k].mask is a view.  contains[i, j] says subgroups[i] <=
    subgroups[j] (so the diagonal is set), and comm_index[k], built on first
    use, is the position of [G, subgroups[k]].  Nothing here is writable.
    """

    __slots__ = ("group", "subgroups", "masks", "contains", "_position")

    def __init__(self, group: FiniteGroup, masks: np.ndarray):
        self.group = group
        # among equal orders the smaller element tuple is the mask set at
        # the first position where two masks differ, so its complement's
        # packed bytes are the smaller ones
        sizes = masks.sum(axis=1)
        keys = [row.tobytes() for row in np.packbits(~masks, axis=1)]
        order = sorted(range(len(masks)), key=lambda k: (sizes[k], keys[k]))
        self.masks = masks[order]
        self.masks.setflags(write=False)
        self.subgroups: tuple[Subgroup, ...] = tuple(
            Subgroup(group, row, _normal=True) for row in self.masks
        )
        self.contains = _containment(group, self.masks)
        self.contains.setflags(write=False)
        self._position = {sub.packed: k for k, sub in enumerate(self.subgroups)}

    def index(self, sub: Subgroup) -> int:
        """Position of a normal subgroup of the same group."""
        return self._position[sub.packed]

    @property
    def comm_index(self) -> np.ndarray:
        def build() -> np.ndarray:
            full = full_subgroup(self.group)
            out = np.array(
                [self.index(commutator_subgroup(self.group, full, sub)) for sub in self.subgroups],
                dtype=np.intp,
            )
            out.setflags(write=False)
            return out

        return self.group._cached("lattice_comm_index", build)


# float32 entries per block of the containment product
_CONTAINMENT_BLOCK = 1 << 22


def _containment(group: FiniteGroup, masks: np.ndarray) -> np.ndarray:
    """contains[i, j] = (row i of masks lies inside row j), for rows that are
    unions of conjugacy classes.  Compared on one member per class, as a
    float32 product of row blocks (exact: counts stay far below 2^24)."""
    rows = masks[:, np.unique(_class_labels(group))].astype(np.float32)
    sizes = rows.sum(axis=1)
    count = len(rows)
    contains = np.empty((count, count), dtype=bool)
    step = max(1, _CONTAINMENT_BLOCK // count)
    for lo in range(0, count, step):
        hi = lo + step
        contains[lo:hi] = rows[lo:hi] @ rows.T == sizes[lo:hi, None]
    return contains


def normal_lattice(group: FiniteGroup) -> NormalLattice:
    """The normal subgroup lattice, built once per group.

    Every normal subgroup is a product of principal ones, the normal
    closures of single conjugacy classes.  A breadth-first search from the
    trivial subgroup joins each found N with each principal P; the join is
    the product set NP, the union of the N-cosets that meet P, so no join
    closes anything.  When P contains N the join is P itself, and when P
    lies in N it is N, so cosets of N are labelled only if some P is
    incomparable with N.  Raises OrderCapExceeded when the lattice grows
    past NORMAL_LATTICE_BOUND.
    """

    def build() -> NormalLattice:
        rows = [np.arange(group.order) == 0]
        found = {np.packbits(rows[0]).tobytes()}

        def add(mask: np.ndarray) -> None:
            key = np.packbits(mask).tobytes()
            if key in found:
                return
            if len(rows) >= NORMAL_LATTICE_BOUND:
                raise OrderCapExceeded(
                    f"normal subgroup lattice exceeds {NORMAL_LATTICE_BOUND} entries"
                )
            found.add(key)
            rows.append(mask)

        for cls in conjugacy_classes(group)[1:]:  # the first class is {e}
            add(_closure(group, cls)[0])
        principals = np.array(rows[1:], dtype=bool).reshape(-1, group.order)
        as_float = principals.astype(np.float32)
        sizes = principals.sum(axis=1)
        k = 1
        while k < len(rows):
            mask = rows[k]
            k += 1
            meet = as_float @ mask  # |P n N| for every principal P
            apart = (meet < sizes) & (meet < mask.sum())
            if not apart.any():
                continue
            labels, reps = _coset_labels(group, np.flatnonzero(mask))
            which, members = np.nonzero(principals[apart])
            hit = np.zeros((int(apart.sum()), len(reps)), dtype=bool)
            hit[which, labels[members]] = True
            for joined in hit[:, labels]:
                add(joined)
        return NormalLattice(group, np.array(rows))

    return group._cached("normal_lattice", build)


def all_normal_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every normal subgroup, sorted by (order, element set); see
    normal_lattice for how they are found."""
    return normal_lattice(group).subgroups


def commutator_subgroup(group: FiniteGroup, left: Subgroup, right: Subgroup) -> Subgroup:
    """Subgroup generated by every [h, k] with h in left, k in right.

    When both arguments are normal, [left, right] is the normal closure of
    the commutators of the generators of left with every element of right
    (peel words off with [xy, k] = x[y,k]x^-1 [x,k]), which avoids the
    quadratic sweep; otherwise all pairs are enumerated.
    """
    if left.parent is not group or right.parent is not group:
        raise ValueError("subgroups must belong to the given group")
    if left.order == 1 or right.order == 1:
        return trivial_subgroup(group)

    def build() -> Subgroup:
        ks = np.flatnonzero(right.mask)
        if left.is_normal and right.is_normal:
            if left.order == group.order:
                gens = group.generator_ids
            else:
                _, gens = _closure(group, np.flatnonzero(left.mask))
            values = _commutators(group, np.asarray(gens)[:, None], ks[None, :])
            return normal_closure(group, np.unique(values))
        seeds: set[int] = set()
        for h in np.flatnonzero(left.mask):
            seeds.update(np.unique(_commutators(group, h, ks)).tolist())
        return Subgroup(group, _closure(group, seeds)[0])

    if left.order == group.order:
        # [G, N] is asked for over and over by the topology layers
        return group._cached(("comm_full", right.packed), build)
    return build()


def derived_subgroup(group: FiniteGroup) -> Subgroup:
    full = full_subgroup(group)
    return group._cached(
        "derived_subgroup", lambda: commutator_subgroup(group, full, full)
    )


def _iterated_commutators(group: FiniteGroup, start: Subgroup) -> list[Subgroup]:
    """[G, start], [G,[G,start]], ... down to the first repetition."""
    full = full_subgroup(group)
    chain = [commutator_subgroup(group, full, start)]
    while True:
        nxt = commutator_subgroup(group, full, chain[-1])
        if nxt == chain[-1]:
            return chain
        chain.append(nxt)


def lower_central_series(group: FiniteGroup) -> CentralSeries:
    full = full_subgroup(group)
    if full.order == 1:
        return CentralSeries("lower", (full,), stabilized=True)
    terms = [full, *_iterated_commutators(group, full)]
    if terms[-1].order > 1 and terms[-1] != terms[-2]:
        terms.append(terms[-1])  # a stall shows as one repeated term
    return CentralSeries("lower", tuple(terms), stabilized=True)


def upper_central_series(group: FiniteGroup) -> CentralSeries:
    """Z_{i+1} is the preimage of Z(G/Z_i), read off quotient_center."""
    terms = [trivial_subgroup(group)]
    while terms[-1].order < group.order:
        nxt = quotient_center(group, terms[-1])
        terms.append(nxt)
        if nxt == terms[-2]:
            break
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
        proj, reps = _coset_labels(group, np.flatnonzero(kernel.mask))
        gen_images: dict[int, int] = {}  # image in G/N -> a generator of G with it
        for g in group.generator_ids:
            img = int(proj[g])
            if img != 0 and img not in gen_images:
                gen_images[img] = g
        # right multiplication by each generator image, on coset numbers
        rmul = [proj[group.mul_many(reps, g)] for g in gen_images.values()]
        target = group_from_table(cayley_table(len(reps), rmul), tuple(gen_images))
        return QuotientMap(group, target, kernel, proj)

    return group._cached(("quotient", kernel.packed), build)


def quotient_center(group: FiniteGroup, kernel: Subgroup) -> Subgroup:
    """Preimage of Z(G/N) for a normal kernel N, without building G/N.

    xN is central in G/N iff [x, s] lies in N for every generator s of G,
    so the preimage is the AND over generators of N's membership mask read
    at [x, s].  Z(G/N) is trivial iff the result has the order of N.
    Cached per kernel.
    """
    if not kernel.is_normal:
        raise NotNormal("quotient kernel must be a normal subgroup")

    def build() -> Subgroup:
        central = kernel.mask[_generator_commutators(group)].all(axis=0)
        return Subgroup(group, central, _normal=True)

    return group._cached(("quotient_center", kernel.packed), build)


def _generator_commutators(group: FiniteGroup) -> np.ndarray:
    """Row i holds [x, s_i] = (x s_i)(s_i x)^-1 for every x, where s_i is
    the i-th generator of the group."""

    def build() -> np.ndarray:
        xs = np.arange(group.order)[None, :]
        gens = np.asarray(group.generator_ids, dtype=np.int64).reshape(-1, 1)
        rows = _commutators(group, xs, gens)
        rows.setflags(write=False)
        return rows

    return group._cached("generator_commutators", build)


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
        embed = np.flatnonzero(sub.mask)
        gens = np.searchsorted(embed, _closure(parent, embed)[1])
        return FiniteGroup(None, parent.perms[embed], tuple(gens.tolist())), embed

    return parent._cached(("subgroup_group", sub.packed), build)


def normalizer(ambient: Subgroup, sub: Subgroup) -> Subgroup:
    """Elements of ambient conjugating sub onto itself."""
    group = ambient.parent
    if not sub.issubset(ambient):
        raise ValueError("sub must be contained in ambient")
    # conjugation is injective, so h sub h^-1 lies in sub iff it equals sub
    sarr = np.flatnonzero(sub.mask)
    keep = [
        h for h in np.flatnonzero(ambient.mask).tolist()
        if sub.mask[_conjugates(group, h, sarr)].all()
    ]
    return Subgroup(group, keep)


def are_conjugate(
    ambient: Subgroup, first: Subgroup, second: Subgroup
) -> tuple[bool, Optional[int]]:
    """Whether some h in ambient maps first onto second; returns the witness."""
    group = ambient.parent
    if not (first.issubset(ambient) and second.issubset(ambient)):
        raise ValueError("subgroups must be contained in ambient")
    if first.order != second.order:
        return False, None
    sarr = np.flatnonzero(first.mask)
    for h in np.flatnonzero(ambient.mask).tolist():
        if second.mask[_conjugates(group, h, sarr)].all():
            return True, h
    return False, None
