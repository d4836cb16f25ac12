"""Subgroup generation, normal lattices, central series, quotients.

A Subgroup is a read-only membership mask over the element ids of a fixed
parent group, identified by the packed bytes of that mask; nothing here
identifies subgroups across different parents.  Derived data that is
expensive to recompute (conjugacy classes, the normal lattice, quotients,
quotient centers) is cached on the parent group behind its internal lock,
keyed by those bytes where it depends on a subgroup.

Conjugacy classes are one label array, the smallest member of each
element's class; every other view of the classes, their members grouped
by class (_class_members) among them, is read off it.  A normal subgroup
is a union of classes, so normal closures and [G, N] read one element per
class, in _closure's one loop over a partition into classes or elements.

The center of G/N is read off G itself: _central_preimages returns its
preimage, the x whose commutator with every generator of G lies in N, for
a stack of kernel masks at once, read at every element or at given ones.
quotient_center (one kernel), upper_central_series and the semitop oracle
read it at every element.  The classification's center route reads it at
the principals' class minima only: the preimage is normal, so it is the
union of the principals it holds.  quotient_group, which builds G/N as a
group of its own, the regular action on the cosets, is left to quotient
topologies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from .errors import NotNormal, OrderCapExceeded
from .groups import BLOCK_ENTRIES, CALL_CHARGE, FiniteGroup, _commutators, _conjugates, _conjugation_map, _perm_dtype
from .groups import _smallest_prime_factor, cayley_table, center, doubling_blocks, row_blocks, row_keys

# ceiling on the normal-lattice size; elementary-abelian inputs can have
# astronomically many normal subgroups and must fail fast instead of hanging
NORMAL_LATTICE_BOUND = 4096

# member rows x principals past which normal_lattice screens its candidates
# with the packed witness test: below it the float32 product over every
# candidate costs less than the test's dozen numpy calls
WITNESS_ENTRIES = 1 << 14


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

    @classmethod
    def _normal_row(cls, parent: FiniteGroup, mask: np.ndarray, order: int, packed: bytes) -> "Subgroup":
        """A normal subgroup whose read-only mask, order and packed bytes are known."""
        sub = cls.__new__(cls)
        sub.parent, sub.mask, sub.order, sub.packed, sub._normal = parent, mask, order, packed, True
        return sub

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
            gens = np.asarray(self.parent.generator_ids, dtype=np.intp)
            blocks = _conjugating(self.parent, gens, np.flatnonzero(self.mask), self.mask)
            self._normal = all(block.all() for _, block in blocks)
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


@dataclass(frozen=True, eq=False)
class QuotientMap:
    """Canonical projection onto G/N; cosets numbered by smallest member."""

    source: FiniteGroup
    target: FiniteGroup
    kernel: Subgroup
    projection: np.ndarray


# ---------------------------------------------------------------------------
# closure machinery


def _closure(
    group: FiniteGroup, seed_ids: Iterable[int], within: Optional[np.ndarray] = None, by_class: bool = False
) -> tuple[np.ndarray, list[int]]:
    """Membership mask of the smallest subgroup containing seed_ids, and
    the seeds it kept as generators.

    The span is held at the minima of the classes of a partition: the
    conjugacy classes in class mode, singletons in element mode, which
    reads no labels and sums no class sizes.  Seeds are read as their class
    minima, taken in increasing order, and one already inside the running
    span is skipped, so the kept list is each seed outside the span of the
    smaller ones.  It stays logarithmic even when the seed is a whole
    conjugacy class or subgroup.  Each round multiplies only the classes
    found in the round before, by every member of the kept seed classes,
    each product read as its class minimum.  While the squares s^2, s^4,
    ... of the newest seed are new, they join those factors, so an element
    of order m has all its powers after about log2(m) rounds instead of m;
    after that they are dropped, since only the seeds are needed for
    closure.  A round makes at most (new classes) x (factors) products.

    within, when given, is the mask of a subgroup M known to hold every
    seed.  The span is then a subgroup of M, and once the mask holds more
    than |M|/p elements, p the smallest prime dividing |M|, its index in M
    is below p, so it is M (Lagrange): the closure returns a copy of M
    there.  Every later seed would have been skipped, so the kept seeds
    are the same and generate M.

    by_class says that the seeds are a union of conjugacy classes, so the
    span is normal and a union of classes, and class mode runs (element
    mode when every class is a singleton, in abelian groups).  Reading
    class minima is enough: for m in the span, c in a seed class C and g
    in G, (g m g^-1) c = g (m c') g^-1 with c' = g^-1 c g in C, so the
    classes of m C cover those of K C for the class K of m.
    """
    found, enough = 1, group.order + 1
    if within is not None:
        size = int(np.count_nonzero(within))
        enough = size // _smallest_prime_factor(size) + 1
    labels = _class_labels(group) if by_class and len(center(group)) < group.order else None
    read, members, weight = (lambda x: x), (lambda m: [m]), len  # element mode
    if labels is not None:
        starts, ids = _class_members(group)
        read, members = labels.__getitem__, (lambda m: ids[starts[m] : starts[m + 1]])
        weight = lambda fresh: int((starts[fresh + 1] - starts[fresh]).sum())
    held = np.zeros(group.order, dtype=bool)  # the span's class minima
    held[0] = True
    gens, factors = [], np.zeros(0, dtype=np.intp)  # factors: the members of the kept seed classes
    for m in sorted(set(read(np.asarray(seed_ids, dtype=np.intp)).tolist()) - {0}):
        if held[m]:
            continue
        gens.append(m)
        # the old span is a subgroup, normal in class mode: only its
        # products with the class of m can be new
        fresh = _mark_new(held, read(group.mul_many(np.flatnonzero(held)[:, None], members(m))))
        factors = np.concatenate([factors, members(m)])
        squares = [m]
        while fresh.size:
            if within is not None:  # else the bound is out of reach
                found += weight(fresh)
                if found >= enough:
                    return within.copy(), gens
            if squares:
                square = group.mul(squares[-1], squares[-1])
                squares = [] if held[read(square)] else squares + [square]
            step = np.concatenate([factors, squares[1:]]) if len(squares) > 1 else factors
            fresh = _mark_new(held, read(group.mul_many(fresh[:, None], step)))
    return (held if labels is None else held[labels]), gens


def _mark_new(mask: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Set mask at ids; return the ids that were not set before, in
    increasing order, read off a scatter over the group instead of a sort."""
    before = mask.copy()
    mask[ids] = True
    return np.flatnonzero(mask != before)


def _coset_labels(group: FiniteGroup, kernel: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coset number of every element modulo a normal subgroup (given by its
    element ids), cosets numbered by their smallest member; also returns
    those smallest members, in increasing order.

    Each mul_many call multiplies the next unlabelled elements by the whole
    kernel, as many as there are unlabelled cosets but at most
    BLOCK_ENTRIES // |N| (and at least one), and every element of a coset
    row gets that row's minimum, so no coset needs a call of its own.
    """
    first = np.full(group.order, -1, dtype=np.int64)  # smallest member of each coset
    todo = np.arange(group.order)
    while todo.size:
        step = max(1, min(todo.size, BLOCK_ENTRIES) // len(kernel))
        cosets = group.mul_many(todo[:step, None], kernel)
        first[cosets] = cosets.min(axis=1, keepdims=True)
        todo = todo[first[todo] < 0]
    reps = np.flatnonzero(first == np.arange(group.order))
    number = np.empty(group.order, dtype=np.int32)
    number[reps] = np.arange(len(reps))
    return number[first], reps


def _conjugating(group: FiniteGroup, hs: np.ndarray, source: np.ndarray, target: np.ndarray):
    """Yield (lo, block) with block[i] true iff h source h^-1 lies in target
    (a mask) for h = hs[lo + i], source being an id array, in doubling
    blocks of h."""
    for block in doubling_blocks(len(hs), len(source)):
        yield block.start, target[_conjugates(group, hs[block, None], source)].all(axis=1)


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
    """Read-only array: the smallest member of every element's class, the
    orbit minima under conjugation by each generator, whose maps are read
    on the base with no product."""

    def build() -> np.ndarray:
        maps = [(slice(None), _conjugation_map(group, h)) for h in group.generator_ids]
        labels = _orbit_minima(group.order, maps)
        labels.setflags(write=False)
        return labels

    return group._cached("class_labels", build)


def _orbit_minima(count: int, maps) -> np.ndarray:
    """The smallest node of every node's orbit, for nodes 0..count-1 and
    maps given as (sources, targets) index pairs, each one-to-one.

    A round sets the labels of x and its target to the smaller of the two
    for each map, then lets every label jump to its label's label, so a
    minimum crosses a long cycle in a few rounds even when ids rise along
    it.  Since each map is one-to-one, no id is written twice in one
    scatter.  Labels only fall and always name an orbit member; a round
    that changes nothing leaves them constant on every orbit.
    """
    labels = np.arange(count)
    while True:
        before = labels.copy()
        for src, dst in maps:
            labels[src] = np.minimum(labels[src], labels[dst])
            labels[dst] = np.minimum(labels[dst], labels[src])
        labels = labels[labels]
        if np.array_equal(labels, before):
            return labels


def _class_members(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The members of every conjugacy class, as a CSR over the class labels:
    the class whose smallest member is m is ids[starts[m] : starts[m + 1]],
    in increasing order (empty for an m that is no class minimum)."""

    def build() -> tuple[np.ndarray, np.ndarray]:
        labels = _class_labels(group)
        starts = np.concatenate([[0], np.cumsum(np.bincount(labels, minlength=group.order))])
        ids = np.argsort(labels, kind="stable")
        for array in (starts, ids):
            array.setflags(write=False)
        return starts, ids

    return group._cached("class_members", build)


def conjugacy_classes(group: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Conjugacy classes as sorted tuples, ordered by smallest member;
    read off the class labels, which are what is cached."""
    return _split_by_label(_class_labels(group))


def _split_by_label(labels: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The ids 0..len(labels)-1 grouped by label, in label order."""
    ids = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[ids])) + 1
    return tuple(tuple(part.tolist()) for part in np.split(ids, cuts))


def normal_closure(group: FiniteGroup, elements: Iterable[int]) -> Subgroup:
    """Smallest normal subgroup containing the given elements, the subgroup
    generated by their classes: one _closure in class mode, which reads
    one element per class.  Raises ValueError for an id outside
    0..order-1."""
    return Subgroup(group, _closure(group, _checked_ids(group, elements), by_class=True)[0], _normal=True)


class NormalLattice:
    """Every normal subgroup of a group, with the arrays its consumers share.

    Built from the members' masks as packed uint8 rows, sorted by one
    lexsort and unpacked by one np.unpackbits; each Subgroup takes its mask
    row and the bytes of its packed row.
    subgroups[k] is the k-th normal subgroup in (order, element set) order
    and masks[k] its membership row over the group's elements, of which
    subgroups[k].mask is a view.  holds[k, p] says subgroups[k] contains
    reps[p], the smallest member of a class whose normal closure is the
    p-th distinct principal member, so row k is the principal set that
    normal_lattice searches over.  Each member is the union of the
    principals it holds, so contains[i, j], subgroups[i] <= subgroups[j]
    (the diagonal is set), compares rows of holds in _subset_blocks, the
    rows of one order only with the members of larger order, since two
    members of one order are never nested; the trivial member's row and G's
    column need no product.  comm_index[k], built on first use, is the
    position of [G, subgroups[k]].  joins is the number of joins
    normal_lattice formed (0 when built from given rows).  Nothing here is
    writable.
    """

    __slots__ = ("group", "subgroups", "masks", "reps", "holds", "contains", "_position", "_joins")

    def __init__(self, group: FiniteGroup, rows: np.ndarray, reps: np.ndarray, joins: int = 0):
        self.group = group
        self._joins = joins
        sizes = np.bitwise_count(rows).sum(axis=1)
        # among equal orders the smaller element tuple is the mask set at
        # the first position where two masks differ, so its complement's
        # packed bytes are the smaller ones
        order = np.lexsort(((~rows).view(np.dtype((np.void, rows.shape[1]))).ravel(), sizes))
        rows, sizes = rows[order], sizes[order]
        self.masks = np.unpackbits(rows, axis=1, count=group.order).view(bool)
        self.masks.setflags(write=False)  # so that each subgroup shares its row
        packed = row_keys(rows)
        self.subgroups: tuple[Subgroup, ...] = tuple(
            Subgroup._normal_row(group, *row) for row in zip(self.masks, sizes.tolist(), packed)
        )
        self.reps = reps
        self.holds = self.masks[:, reps]
        rows = self.holds.astype(np.float32)
        top = len(rows) - 1  # G
        self.contains = np.eye(len(rows), dtype=bool)
        self.contains[0] = self.contains[:, top] = True
        # the rows of each order against the members of larger order below G
        levels = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
        for start, stop in zip(levels, levels[1:-1]):
            for block, subset in _subset_blocks(rows[start:stop], rows.T[:, stop:top]):
                self.contains[start:stop][block, stop:top] = subset
        for array in (self.reps, self.holds, self.contains):
            array.setflags(write=False)
        self._position = dict(zip(packed, range(len(packed))))

    @property
    def joins(self) -> int:
        return self._joins

    def index(self, sub: Subgroup) -> int:
        """Position of a normal subgroup of the same group."""
        return self._position[sub.packed]

    @property
    def comm_index(self) -> np.ndarray:
        """Position of [G, N] for every member N.

        [G, AB] = [G, A][G, B] for normal A and B, and every N is the
        product of the principal members inside it, so [G, N] is the
        first member M whose principal set holds U(N), the union of the
        principal sets of the [G, P] over the principals P <= N: M contains
        [G, P] iff it holds the principals of [G, P], as both are unions of
        the principals they hold.  The first member holding reps[p] is the
        p-th principal, and commutator_subgroup runs on the principals
        only.  U is one float32 product of holds with the rows of holds at
        the [G, P], and the subset test against holds runs once per
        distinct union, of which there are few (one on C2^6).
        """

        def build() -> np.ndarray:
            group = self.group
            full = full_subgroup(group)
            principals = self.holds.argmax(axis=0)
            comms = [self.index(commutator_subgroup(group, full, self.subgroups[p])) for p in principals]
            below = self.holds.astype(np.float32)  # [N, P]: P <= N
            unions = below @ self.holds[comms].astype(np.float32) > 0  # [N, Q]: Q <= [G, P] for some P <= N
            # a set bit past the principals, so that no key is empty (C1 has no principals)
            keys = np.packbits(np.concatenate([unions, np.ones((len(unions), 1), dtype=bool)], axis=1), axis=1)
            keys = keys.view(np.dtype((np.void, keys.shape[1]))).ravel()
            _, picks, which = np.unique(keys, return_index=True, return_inverse=True)
            # members sort by order, so the first one holding a union is its join
            tests = _subset_blocks(unions[picks].astype(np.float32), below.T)
            out = np.concatenate([subset.argmax(axis=1) for _, subset in tests])[which]
            out.setflags(write=False)
            return out

        return self.group._cached("lattice_comm_index", build)


def _subset_blocks(rows: np.ndarray, cols: np.ndarray):
    """Yield (block, subset), block a slice of the rows of rows and
    subset[i, j] true iff every entry set in row i of rows[block] is set in
    column j of cols, for 0/1 float32 matrices, either of which may have no
    columns: a product per row_blocks block (exact, since counts stay far
    below 2^24)."""
    sizes = rows.sum(axis=1)
    for block in row_blocks(len(rows), cols.shape[1]):
        yield block, rows[block] @ cols == sizes[block, None]


def normal_lattice(group: FiniteGroup) -> NormalLattice:
    """The normal subgroup lattice, built once per group.

    Every normal subgroup N is the union of the principal members it holds,
    the normal closures of its elements, so it is known by X(N), the set of
    distinct principals P_0, ..., P_{n-1} (_principal_closures) that it
    holds: its row of holds.  A join with a principal is one OR: X(N P_p)
    is the union of J[i, p] = X(P_i P_p) over the i in X(N), since an
    element ab of N P_p, with a in some P_i <= N and b in P_p, has its
    normal closure inside the normal P_i P_p (_JoinTable).

    The search is Close-by-One (S. O. Kuznetsov, 1993), which finds each
    closed set once, so no member is deduplicated.  A member B whose last
    principal added is y extends by each p > y outside B to D, the union
    of J[i, p] over B and p.  Taken one p at a time, every member with
    y < p is known when p comes up, so column p of J is formed once, off
    the products P_i P_p or off the cosets of P_p, whichever costs fewer
    products, and only at the P_i apart from P_p, neither holding the
    other.  That suffices, as X(B) is closed downward: it holds every q
    with P_q <= P_i for each i it holds.  B lacks p, so none of its P_i
    holds P_p, and J[i, p] = X(P_p) for each P_i inside P_p: X(D) is
    X(P_p) and the J[i, p] of the apart i in X(B), each holding i.  D is
    kept, with last principal p, iff it holds no principal below p that B
    does not.

    Most joins fail that test, so a member is dropped before its join is
    formed when a witness shows it must fail.  The witness of an apart
    principal i at column p is the first q < p in J[i, p] outside X(P_i):
    a member B that holds i but lacks q fails, since D contains P_i P_p,
    which holds q.  So does a B that lacks some q < p in X(P_p), which
    covers the witnesses of the i comparable with P_p.  The test runs on
    bits, row i holding the members that hold i packed into words, and
    costs O(n |L| / 64) word operations for a column, |L| the member
    count.  One witness per principal may let a doomed join through, so
    the canonicity test still runs on the members that pass: the members,
    their order and the point where the bound refuses are unchanged.
    Until the members' rows hold WITNESS_ENTRIES entries the test is not
    run and every candidate's join is formed.

    A block of joins is one float32 product of the members' rows, read at
    the apart principals, with the column, ORed with X(P_p), and the
    member count is checked after each block.  Each member's mask
    comes out at the end, as the OR of its principals' packed masks
    (_member_keys).  Raises OrderCapExceeded once the lattice grows past
    NORMAL_LATTICE_BOUND.
    """

    def build() -> NormalLattice:
        principals, reps = _principal_closures(group)
        n = len(reps)
        table = _JoinTable(group, principals, reps)
        rows = -(-(NORMAL_LATTICE_BOUND + 1) // 64) * 64  # every member the bound allows, in words of 64
        found = np.zeros((rows, n), dtype=bool)  # row 0 is the trivial member
        bits = np.zeros((n, rows // 8), dtype=np.uint8)  # [i]: the members holding i, packed little-endian
        count, packed, joined = 1, 0, 0  # packed: the members written to bits
        for p in range(n):
            apart, column = table.column(p)
            if not p or count * n <= WITNESS_ENTRIES:  # no principal lies below the first
                todo = np.flatnonzero(~found[:count, p])
            else:
                start = packed & -8  # the members from packed on, from a whole byte
                bits[:, start // 8 : -(-count // 8)] = np.packbits(found[start:count], 0, bitorder="little").T
                packed = count
                words = bits[:, : -(-count // 64) * 8].view(np.uint64)  # the words that hold members
                # a witness per apart principal i: the first q < p in J[i, p] outside X(P_i)
                outside = column[:, :p] > table.below[apart, :p]
                has = outside.any(axis=1)
                holders, witness = apart[has], outside.argmax(axis=1)[has]
                drop = np.bitwise_or.reduce(words[holders] & ~words[witness], axis=0)
                # and the members holding p, or lacking some q < p in X(P_p)
                drop |= words[p] | ~np.bitwise_and.reduce(words[np.flatnonzero(table.below[p, :p])], axis=0)
                todo = np.flatnonzero(np.unpackbits(~drop.view(np.uint8), count=count, bitorder="little"))
            joined += len(todo)
            weights = column.astype(np.float32)
            for block in row_blocks(len(todo), 4 * n):  # float32 products
                held = found[todo[block]]
                joins = table.below[p] | (held[:, apart].astype(np.float32) @ weights > 0)
                # canonical: no principal below p that B lacks
                joins = joins[~(joins[:, :p] > held[:, :p]).any(axis=1)]
                _check_lattice_size(count + len(joins))
                found[count : count + len(joins)] = joins
                count += len(joins)
        return NormalLattice(group, _member_keys(group, principals, found[:count]), reps, joined)

    return group._cached("normal_lattice", build)


def _check_lattice_size(count: int) -> None:
    if count > NORMAL_LATTICE_BOUND:
        raise OrderCapExceeded(f"normal subgroup lattice exceeds {NORMAL_LATTICE_BOUND} entries")


class _JoinTable:
    """The join table J of the distinct principals P_0, ..., P_{n-1}, given
    by their masks and class minima reps: J[i, p] = X(P_i P_p), X(P) being
    the principals P holds, its mask read at reps.  below[p] is X(P_p), the
    only array over pairs of principals it keeps.  When one of P_i and P_p
    holds the other, the join is the larger one, whose row of below is
    already there, so column p holds only the P_i apart from P_p, neither
    holding the other.

    Column p takes the cheaper of two routes, priced by cost[p], the
    products sum |P_i| |P_p| over the apart P_i, against the |G| products
    of one coset labelling and the CALL_CHARGE that a call costs beside
    them:
    - cost[p] <= |G| + CALL_CHARGE: P_i P_p is normal, a union of classes,
      so reps[k] lies in it iff some product ab, a in P_i and b in P_p, has
      class minimum reps[k].  Consecutive such columns form a run, whose
      products and marks stay within BLOCK_ENTRIES: one mul_many over every
      apart pair of the run and one scatter of the products' slots, made
      when the search reaches the run's first column.
    - else reps[k] lies in P_i P_p iff its coset modulo P_p meets P_i, read
      off one _coset_labels of P_p.
    """

    def __init__(self, group: FiniteGroup, principals: np.ndarray, reps: np.ndarray):
        n = len(reps)
        self.group, self.principals, self.reps = group, principals, reps
        self.below = principals[:, reps]  # [p, q]: P_q <= P_p
        self.which, self.members = np.nonzero(principals)
        self.sizes = np.bincount(self.which, minlength=n)  # P_i is members[starts[i]:][:sizes[i]]
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.cost = np.empty(n, dtype=np.int64)  # [p]: products of P_p with the P_i apart from it
        self.apart = np.empty(n, dtype=np.intp)  # [p]: how many P_i are apart from P_p
        for block in row_blocks(n, n):
            apart = ~(self.below[block] | self.below[:, block].T)
            self.apart[block] = np.count_nonzero(apart, axis=1)
            self.cost[block] = self.sizes[block] * np.broadcast_to(self.sizes, apart.shape).sum(axis=1, where=apart)
        # an element's slot: the k whose rep is its class minimum, else n
        slots = np.full(group.order, n)
        slots[reps] = np.arange(n)
        self.slots = slots[_class_labels(group)]
        self.run = (0, 0, None, None)  # first and stop column, entry bounds, marks

    def column(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        """apart, the i in increasing order whose P_i is apart from P_p,
        and the bool rows J[apart, p]."""
        apart = ~(self.below[p] | self.below[:, p])
        if not self.cost[p]:  # no principal is apart from P_p
            column = np.zeros((0, len(self.reps)), dtype=bool)
        elif self.cost[p] <= self.group.order + CALL_CHARGE:
            column = self._products(p)
        else:
            column = self._cosets(p, apart)
        return np.flatnonzero(apart), column

    def _products(self, p: int) -> np.ndarray:
        """Rows J[i, p] for the i apart from P_p, read off the products of
        p's run."""
        first, stop, bounds, marks = self.run
        if not first <= p < stop:
            first, stop, bounds, marks = self.run = self._form_run(p)
        return marks[bounds[p - first] : bounds[p - first + 1], :-1]

    def _form_run(self, p: int) -> tuple:
        """The run from column p: p and the columns after it whose cost is
        at most |G| + CALL_CHARGE, while the products and marks stay within
        BLOCK_ENTRIES (p at least); for each apart pair (i, q), q in the
        run, a row of marks holding the slots of P_i P_q."""
        n, sizes, cost = len(self.reps), self.sizes, self.cost[p:]
        fits = (cost <= self.group.order + CALL_CHARGE) & (np.cumsum(cost + self.apart[p:] * (n + 1)) <= BLOCK_ENTRIES)
        stop = p + max(1, int(np.argmin(np.append(fits, False))))
        cols, rows = np.nonzero(~(self.below[p:stop] | self.below[:, p:stop].T))  # apart pairs
        cols += p
        counts = sizes[rows] * sizes[cols]
        ends = np.cumsum(counts)
        entry = np.repeat(np.arange(len(rows)), counts)  # the pair of each product
        a, b = np.divmod(np.arange(ends[-1]) - (ends - counts)[entry], sizes[cols][entry])
        members, starts = self.members, self.starts
        products = self.group.mul_many(members[starts[rows][entry] + a], members[starts[cols][entry] + b])
        marks = np.zeros((len(rows), n + 1), dtype=bool)
        marks[entry, self.slots[products]] = True
        return p, stop, np.searchsorted(cols, np.arange(p, stop + 1)), marks

    def _cosets(self, p: int, apart: np.ndarray) -> np.ndarray:
        """Rows J[i, p] for the i apart from P_p, a mask, read off the
        cosets of P_p."""
        n = len(self.reps)
        labels, cosets = _coset_labels(self.group, np.flatnonzero(self.principals[p]))
        # a slot per coset holding some rep, named by one of its reps,
        # and slot n for the cosets holding none
        slot = np.full(len(cosets), n)
        slot[labels[self.reps]] = np.arange(n)
        meets = np.zeros((self.apart[p], n + 1), dtype=bool)  # [i, s]: P_i meets slot s
        pick = apart[self.which]
        meets[(np.cumsum(apart) - 1)[self.which[pick]], slot[labels[self.members[pick]]]] = True
        return meets[:, slot[labels[self.reps]]]


def _member_keys(group: FiniteGroup, principals: np.ndarray, held: np.ndarray) -> np.ndarray:
    """The packed masks of every member as uint8 rows, row k of held naming
    the principals it holds (row 0, holding none, is the trivial member):
    the OR of their np.packbits rows, as uint64 words, reduced over blocks
    of members that gather at most BLOCK_ENTRIES bytes."""
    size = (group.order + 7) // 8
    words = np.zeros((len(principals) + 1, -(-size // 8) * 8), dtype=np.uint8)
    words[:-1, :size] = np.packbits(principals, axis=1)
    words[-1, 0] = 0x80  # the identity, the trivial member's only element
    masks = words.view(np.uint64)
    row, col = np.nonzero(np.column_stack([held, ~held.any(axis=1)]))
    starts = np.searchsorted(row, np.arange(len(held) + 1))  # row k's first gathered mask
    step = max(1, BLOCK_ENTRIES // words.shape[1])  # masks gathered at once
    out, lo = [], 0
    while lo < len(held):
        hi = max(lo + 1, int(np.searchsorted(starts, starts[lo] + step, side="right")) - 1)
        out.append(np.bitwise_or.reduceat(masks[col[starts[lo] : starts[hi]]], starts[lo:hi] - starts[lo], axis=0))
        lo = hi
    return np.concatenate(out).view(np.uint8)[:, :size]


def _principal_closures(group: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """Rows holding the distinct normal closures of the nontrivial conjugacy
    classes, in the order of their first class, one per cyclic subgroup,
    and reps, the smallest member of each one's first class.

    x and x^k with gcd(k, ord x) = 1 generate the same cyclic subgroup, so
    their classes have the same normal closure: after closing the class of
    x, the classes of those powers, read off the class labels, are done.
    For a central x, alone in its class, <x> is normal, so the powers of x
    that mark those classes are its closure.  Every other closure runs in
    _closure's class mode, within the smallest normal subgroup found so far
    that holds the class (G if none), so it stops at Lagrange's bound there.
    Each distinct closure is a member of the normal lattice, so this raises
    OrderCapExceeded as soon as they and the trivial member pass
    NORMAL_LATTICE_BOUND.
    """
    labels = _class_labels(group)
    central = np.bincount(labels, minlength=group.order) == 1  # at the class minima
    done = np.zeros(group.order, dtype=bool)
    bounds = [np.ones(group.order, dtype=bool)]  # G, then each closure
    holder = np.zeros(group.order, dtype=np.intp)  # the smallest bound holding each element
    held = np.full(group.order, group.order)  # its order
    distinct: dict = {}  # packed row -> its row and class minimum
    for x in np.flatnonzero(labels == np.arange(group.order))[1:].tolist():  # class minima but e
        if done[x]:
            continue
        powers = _powers(group, x)
        m = len(powers)
        done[labels[powers[np.gcd(np.arange(m), m) == 1]]] = True
        if central[x]:
            mask = np.zeros(group.order, dtype=bool)
            mask[powers] = True
        else:
            mask = _closure(group, [x], bounds[holder[x]], True)[0]
        size = np.count_nonzero(mask)
        smaller = mask & (held > size)
        holder[smaller], held[smaller] = len(bounds), size
        bounds.append(mask)
        distinct.setdefault(np.packbits(mask).tobytes(), (mask, x))
        _check_lattice_size(len(distinct) + 1)
    rows = np.array([mask for mask, _ in distinct.values()], dtype=bool).reshape(-1, group.order)
    return rows, np.array([x for _, x in distinct.values()], dtype=np.intp)


def _powers(group: FiniteGroup, x: int) -> np.ndarray:
    """x^0, x^1, ..., x^(m-1) for the order m of x; each mul_many call
    doubles the list."""
    powers = np.array([0, x])
    while not (powers[1:] == 0).any():
        powers = np.concatenate([powers, group.mul_many(powers, group.mul(int(powers[-1]), x))])
    return powers[: 1 + int(np.argmax(powers[1:] == 0))]


def all_normal_subgroups(group: FiniteGroup) -> tuple[Subgroup, ...]:
    """Every normal subgroup, sorted by (order, element set); see
    normal_lattice for how they are found."""
    return normal_lattice(group).subgroups


def commutator_subgroup(group: FiniteGroup, left: Subgroup, right: Subgroup) -> Subgroup:
    """Subgroup generated by every [h, k] with h in left, k in right.

    When both arguments are normal, [left, right] is the normal closure M
    of the commutators [s, y] of the generators s of left with the
    smallest members y of the classes in right, which avoids the quadratic
    sweep.  M lies in [left, right], which is normal.  Conversely, the x
    with [h, x] in M for every h in left form a normal subgroup C, since
    [h, xz] = [h, x] x[h, z]x^-1 and [h, g x g^-1] = g[g^-1 h g, x]g^-1;
    and x lies in C once [s, x] lies in M for every generator s, by
    [ab, x] = a[b, x]a^-1 [a, x].  So every y lies in C, hence so does
    right, the normal closure of the y, and [left, right] <= M.
    Otherwise all pairs are enumerated.
    """
    if left.parent is not group or right.parent is not group:
        raise ValueError("subgroups must belong to the given group")
    if left.order == 1 or right.order == 1:
        return trivial_subgroup(group)

    def build() -> Subgroup:
        if left.is_normal and right.is_normal:
            if left.order == group.order:
                gens = group.generator_ids
            else:
                _, gens = _closure(group, np.flatnonzero(left.mask))
            minima = np.flatnonzero(right.mask & (_class_labels(group) == np.arange(group.order)))
            values = _commutators(group, np.asarray(gens)[:, None], minima[None, :])
            return normal_closure(group, values.ravel())
        hs, ks = np.flatnonzero(left.mask), np.flatnonzero(right.mask)
        seeds = np.zeros(group.order, dtype=bool)
        for block in row_blocks(len(hs), len(ks)):
            seeds[_commutators(group, hs[block, None], ks)] = True
        return Subgroup(group, _closure(group, np.flatnonzero(seeds))[0])

    if left.order == group.order:
        # [G, N] is asked for over and over by the topology layers
        return group._cached(("comm_full", right.packed), build)
    return build()


def derived_subgroup(group: FiniteGroup) -> Subgroup:
    full = full_subgroup(group)
    return commutator_subgroup(group, full, full)


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
        return CentralSeries("lower", (full,))
    terms = [full, *_iterated_commutators(group, full)]
    if terms[-1].order > 1 and terms[-1] != terms[-2]:
        terms.append(terms[-1])  # a stall shows as one repeated term
    return CentralSeries("lower", tuple(terms))


def upper_central_series(group: FiniteGroup) -> CentralSeries:
    """Z_{i+1} is the preimage of Z(G/Z_i), read off quotient_center."""
    terms = [trivial_subgroup(group)]
    while terms[-1].order < group.order:
        nxt = quotient_center(group, terms[-1])
        terms.append(nxt)
        if nxt == terms[-2]:
            break
    return CentralSeries("upper", tuple(terms))


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
    """Quotient by a normal subgroup; the target is the regular action on
    the cosets, coset id = rank of its smallest member, checked on first
    use as build_group's groups are.

    Quotients are cached per kernel; the quotient by the trivial subgroup is
    the group itself (shared, since groups are immutable).
    """
    if not kernel.is_normal:
        raise NotNormal("quotient modulus must be normal")

    def build() -> QuotientMap:
        if kernel.order == 1:
            return QuotientMap(group, group, kernel, np.arange(group.order))
        proj, reps = _coset_labels(group, np.flatnonzero(kernel.mask))
        gen_images: dict[int, int] = {}  # image in G/N -> a generator of G with it
        for g in group.generator_ids:
            img = int(proj[g])
            if img != 0 and img not in gen_images:
                gen_images[img] = g
        # left multiplication by each generator image, on coset numbers
        lmul = [proj[group.mul_many(g, reps)] for g in gen_images.values()]
        rows = cayley_table(len(reps), lmul).astype(_perm_dtype(len(reps)))
        target = FiniteGroup(None, rows, tuple(gen_images), check_seed=0)
        return QuotientMap(group, target, kernel, proj)

    return group._cached(("quotient", kernel.packed), build)


def quotient_center(group: FiniteGroup, kernel: Subgroup) -> Subgroup:
    """Preimage of Z(G/N) for a normal kernel N, without building G/N; see
    _central_preimages.  Z(G/N) is trivial iff it has the order of N.
    Cached per kernel.
    """
    if not kernel.is_normal:
        raise NotNormal("quotient modulus must be normal")

    def build() -> Subgroup:
        return Subgroup(group, _central_preimages(group, kernel.mask[None])[0], _normal=True)

    return group._cached(("quotient_center", kernel.packed), build)


def _central_preimages(group: FiniteGroup, masks: np.ndarray, xs: Optional[np.ndarray] = None) -> np.ndarray:
    """Row k: the preimage of Z(G/N) for the normal N of mask row k, read
    at the ids xs if given, else at every element, in row_blocks.  xN is
    central in G/N iff [x, s] lies in N for every generator s of G, so the
    row is the AND over generators of N's mask read at [x, s]; over every
    element that is one cached row of commutators per generator."""

    def build() -> np.ndarray:
        rows = _commutators(group, np.arange(group.order), gens[:, None])
        rows.setflags(write=False)
        return rows

    gens = np.asarray(group.generator_ids, dtype=np.intp)
    rows = group._cached("generator_commutators", build) if xs is None else _commutators(group, xs, gens[:, None])
    out = np.empty((len(masks), rows.shape[1]), dtype=bool)
    for block in row_blocks(len(masks), rows.size):
        out[block] = masks[block][:, rows].all(axis=1)
    return out


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
    hs = np.flatnonzero(ambient.mask)
    blocks = _conjugating(group, hs, np.flatnonzero(sub.mask), sub.mask)
    return Subgroup(group, hs[np.concatenate([block for _, block in blocks])])


def are_conjugate(
    ambient: Subgroup, first: Subgroup, second: Subgroup
) -> tuple[bool, Optional[int]]:
    """Whether some h in ambient maps first onto second; returns the witness."""
    group = ambient.parent
    if not (first.issubset(ambient) and second.issubset(ambient)):
        raise ValueError("subgroups must be contained in ambient")
    if first.order != second.order:
        return False, None
    hs = np.flatnonzero(ambient.mask)
    for lo, block in _conjugating(group, hs, np.flatnonzero(first.mask), second.mask):
        if block.any():
            return True, int(hs[lo + block.argmax()])
    return False, None
