"""Finite groups as faithful permutation actions with canonical numbering.

Every group is materialized by breadth-first closure of a fixed generator
list: element 0 is the identity and new elements are discovered in shortlex
order over generator words (generators in constructor order, FIFO levels).
Two builds of the same spec therefore agree element-for-element.

Every product id comes from FiniteGroup.mul_many.  An element is fixed by
its images of a base (a few points whose pointwise stabilizer is trivial),
so a product composes only the base columns and maps them back to an id
with one read per base point of an int32 transition table, from prefix
state and image to the next state.  This lookup is built on first use, so
the perm analysis, which reads only the rows, never pays for it.  A group
of order <= TABLE_LIMIT may also keep every product in a dense n x n table,
built by ski rental: mul_many serves products from the lookup and meters
them, each call charged CALL_CHARGE entries more, and builds the table once
the meter reaches the n^2 entries the table costs to fill.  A group that
reads few products (ASL(3,2) in a catalog query, C4000's lattice) never
fills n^2 entries; one that reads many pays at most about twice what the
table alone would.  The table is read only inside FiniteGroup.  Instances
are immutable to callers, so they can be shared freely between threads.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .errors import InvalidSpec, OrderCapExceeded

DEFAULT_ORDER_CAP = 20_000
TABLE_LIMIT = 4096
# table entries a mul_many call is charged beside its products on the meter:
# a lookup call of 8 products costs 10-29 us, mostly numpy call overhead, and
# the fill 3.2-10 ns an entry (one x86-64 thread, best of 300 and of 5), so a
# call is worth 1000 (C256) to 6900 (ASL(3,2)) entries; C4000 reads 15.8 us
# against 3.5 ns, about 4500, and Heis(13) about 3900
CALL_CHARGE = 4096
_ASSOC_EXHAUSTIVE_LIMIT = 128
_ASSOC_SAMPLES = 10_000
# entries per block of the temporaries that grow with |G| x degree, with
# |G| x |N| or with the square of the lattice size: closure levels, inverse
# images and law, coset rows, and the containment, [G, N] and DOT products
BLOCK_ENTRIES = 1 << 20


def row_blocks(count: int, width: int, start: int = 0) -> Iterator[slice]:
    """Slices over rows start..count-1 of width entries each, a block
    holding at most BLOCK_ENTRIES entries and at least one row."""
    step = max(1, BLOCK_ENTRIES // max(1, width))
    return (slice(lo, min(lo + step, count)) for lo in range(start, count, step))


def doubling_blocks(count: int, width: int) -> Iterator[slice]:
    """Slices over rows 0..count-1 of width entries each, from one row
    doubling up to the rows that hold BLOCK_ENTRIES entries, so a caller
    that stops at the first hit pays about as much as the rows before it."""
    lo, step, cap = 0, 1, max(1, BLOCK_ENTRIES // max(1, width))
    while lo < count:
        yield slice(lo, min(lo + step, count))
        lo, step = lo + step, min(2 * step, cap)


# ---------------------------------------------------------------------------
# Group specs (abstract syntax of the construction language)


@dataclass(frozen=True)
class Cyclic:
    n: int


@dataclass(frozen=True)
class Dihedral:
    """Dihedral group given by its total order (even)."""

    order: int


@dataclass(frozen=True)
class Quaternion8:
    pass


@dataclass(frozen=True)
class Symmetric:
    n: int


@dataclass(frozen=True)
class Alternating:
    n: int


@dataclass(frozen=True)
class Heisenberg:
    """Upper unitriangular 3x3 matrices over Z/m; order m^3."""

    m: int


@dataclass(frozen=True)
class GeneralizedDihedral:
    """A x| <inversion> over an abelian base group; order 2|A|."""

    base: "GroupSpec"


@dataclass(frozen=True)
class SpecialLinear:
    n: int
    p: int


@dataclass(frozen=True)
class AffineSpecialLinear:
    """SL(n,p) acting on F_p^n extended by translations; needs gcd(n, p-1) = 1."""

    n: int
    p: int


@dataclass(frozen=True)
class PermSpec:
    """Subgroup of S(degree) generated by explicit permutations."""

    degree: int
    generators: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Product:
    left: "GroupSpec"
    right: "GroupSpec"


GroupSpec = Union[
    Cyclic,
    Dihedral,
    Quaternion8,
    Symmetric,
    Alternating,
    Heisenberg,
    GeneralizedDihedral,
    SpecialLinear,
    AffineSpecialLinear,
    PermSpec,
    Product,
]


# ---------------------------------------------------------------------------
# The group object


class FiniteGroup:
    """A finite group with elements 0..order-1 and identity 0.

    Instances are produced by :func:`build_group`, :func:`direct_product`,
    from the parent's rows (subgroup materializations), or from the regular
    action on the cosets (quotients).  Rows, generators and order are frozen
    at construction; the element lookup (checked by _smoke_check before its
    first use when the constructor was given a check seed, as build_group
    and quotient_group do), the table and other caches are built on first
    use, invisible to callers, safe to share.
    """

    __slots__ = (
        "spec",
        "order",
        "degree",
        "perms",
        "generator_ids",
        "_checked",
        "_unchecked",
        "_check_seed",
        "_table",
        "_metered",
        "_cache",
        "_cache_lock",
        "_factors",
    )

    def __init__(
        self,
        spec: Optional[GroupSpec],
        perms: np.ndarray,
        generator_ids: tuple[int, ...],
        check_seed: Optional[int] = None,
    ):
        self.spec = spec
        self.perms = np.ascontiguousarray(perms)  # the lookup takes from it flattened
        self.perms.setflags(write=False)
        self.order = int(perms.shape[0])
        self.degree = int(perms.shape[1])
        self.generator_ids = generator_ids
        self._table: Optional[np.ndarray] = None
        self._metered = 0  # lookup products served, plus CALL_CHARGE a call
        self._checked = self._unchecked = None
        self._check_seed = check_seed
        self._cache: dict = {}
        # reentrant: cached builders routinely call other cached builders
        self._cache_lock = threading.RLock()
        self._factors: Optional[tuple["FiniteGroup", "FiniteGroup"]] = None

    identity = 0

    def _index(self) -> tuple:
        """The lookup (base, transition tables, base images, inverses), built
        and checked under the lock on first use; until then only the
        building thread reads it."""
        if self._checked is None:
            with self._cache_lock:
                return self._checked or self._unchecked or self._build_index()
        return self._checked

    def _build_index(self) -> tuple:
        base, levels = _base_index(self.perms)
        try:
            # every element's base images, one row each
            images = np.take(self.perms, base, axis=1)
            images.setflags(write=False)
            self._unchecked = (base, levels, images)
            # x^-1(b) is the point that row x sends to b: base only, in row blocks
            inverse_images = np.empty((self.order, len(base)), dtype=np.intp)
            for block in row_blocks(self.order, self.degree):
                for j, b in enumerate(base):
                    inverse_images[block, j] = (self.perms[block] == b).argmax(axis=1)
            self._unchecked += (self._ids(inverse_images),)
            self._unchecked[3].setflags(write=False)
            if self._check_seed is not None:
                _smoke_check(self, self._check_seed)
            self._checked = self._unchecked
        finally:
            self._unchecked = None
        return self._checked

    _base = property(lambda self: self._index()[0])
    _levels = property(lambda self: self._index()[1])
    _base_images = property(lambda self: self._index()[2], doc="row x holds x's base images")
    inverses = property(lambda self: self._index()[3], doc="inverses[x] is the id of x^-1")

    @property
    def table(self) -> Optional[np.ndarray]:
        """Dense multiplication table of a group of order <= TABLE_LIMIT,
        None above that; built on this first read, or by mul_many once its
        meter reaches order^2.  The lookup's checks read it up to order
        _ASSOC_EXHAUSTIVE_LIMIT, so those groups build it with the lookup."""
        self._index()  # first: the lookup's checks may build the table
        if self._table is None and self.order <= TABLE_LIMIT:
            with self._cache_lock:
                if self._table is None:
                    ids = np.arange(self.order)
                    built = cayley_table(
                        self.order, [self._product_ids(g, ids) for g in self.generator_ids]
                    )
                    built.setflags(write=False)
                    self._table = built
        return self._table

    # -- element arithmetic -------------------------------------------------

    def mul_many(self, xs, ys) -> np.ndarray:
        """Products x*y (composition: y acts first) for broadcast id arrays,
        as int32 ids; a read of the table when there is one.  Otherwise the
        lookup serves them and the meter counts them, plus CALL_CHARGE; the
        first call that finds the meter at order^2 builds the table (ski
        rental), when the order is at most TABLE_LIMIT.  Either path gives
        the same ids."""
        table = self._table
        if table is None and self.order <= TABLE_LIMIT and self._metered >= self.order**2:
            table = self.table
        if table is not None:
            return table[xs, ys]
        products = self._product_ids(xs, ys)
        # unlocked: an update lost to a racing thread only delays the build
        self._metered += products.size + CALL_CHARGE
        return products

    def mul(self, x: int, y: int) -> int:
        """Product x*y (composition: y acts first)."""
        return int(self.mul_many(x, y))

    def inv(self, x: int) -> int:
        return int(self.inverses[x])

    def elements(self) -> range:
        return range(self.order)

    def element_perm(self, x: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.perms[x])

    # -- base-image lookup --------------------------------------------------

    def _product_ids(self, xs, ys) -> np.ndarray:
        """mul_many without the table: x's row read at y's base images."""
        y_images = self._base_images.take(ys, axis=0)
        rows = np.asarray(xs, dtype=np.intp) * self.degree
        return self._ids(self.perms.take(rows[..., None] + y_images))

    def _ids(self, images: np.ndarray) -> np.ndarray:
        """Element ids from base images (last axis): state = level[state,
        image] for each base point, from state 0, where the last level holds
        ids and -1 for a prefix no element has.  Each read is a take from
        the flattened level at state * degree + image, so an image outside
        0..degree-1 reads a neighbouring row (clipped at the ends); the
        check that each id has the given base images rejects it, as it does
        any images no element has, with a ValueError.  One element's images
        are read with Python ints, which cost less than numpy calls."""
        degree = self.degree
        if images.ndim == 1:
            flat = images.tolist()
            state = 0
            if all(0 <= image < degree for image in flat):  # else state 0 fails the check
                for level, image in zip(self._levels, flat):
                    state = level.item(state * degree + image)
            if state < 0 or self._base_images[state].tolist() != flat:
                raise ValueError("permutation is not an element of the group")
            return np.int32(state)
        width = np.intp(degree)  # so that state * width is computed in intp
        state = np.zeros(images.shape[:-1], dtype=np.int32)
        for j, level in enumerate(self._levels):
            state = level.take(state * width + images[..., j], mode="clip")
        if (state < 0).any() or not np.array_equal(self._base_images.take(state, axis=0), images):
            raise ValueError("permutation is not an element of the group")
        return state

    def _lookup(self, perm_rows: np.ndarray) -> np.ndarray:
        """Element ids of full permutation rows (last axis)."""
        perm_rows = np.asarray(perm_rows)
        ids = self._ids(perm_rows.take(self._base, axis=-1))
        if not np.array_equal(self.perms.take(ids, axis=0), perm_rows):
            raise ValueError("permutation is not an element of the group")
        return ids

    # -- vectorized helpers -------------------------------------------------

    def commuting_mask(self, g: int) -> np.ndarray:
        """Boolean mask over all x of [x, g] = e.

        x g and g x are equal iff they agree on the base, so this compares
        base images and never needs a table or a lookup.
        """
        pg = self.perms[g]
        images = self._base_images
        mask = np.ones(self.order, dtype=bool)
        # one base point at a time: a row-wise all() over so few columns is slow
        for j, b in enumerate(pg.take(self._base)):
            mask &= self.perms[:, b] == pg.take(images[:, j])
        return mask

    # -- shared derived-data cache -------------------------------------------

    def _cached(self, key, builder: Callable[[], object]):
        got = self._cache.get(key)
        if got is not None:
            return got
        with self._cache_lock:
            got = self._cache.get(key)
            if got is None:
                got = builder()
                self._cache[key] = got
        return got

    # -- product metadata ----------------------------------------------------

    def pair_id(self, x1: int, x2: int) -> int:
        """Element id of (x1, x2) in a direct product group."""
        if self._factors is None:
            raise ValueError("not a direct product")
        g1, g2 = self._factors
        combined = np.concatenate(
            [g1.perms[x1].astype(np.int64), g2.perms[x2].astype(np.int64) + g1.degree]
        )
        return int(self._lookup(combined))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _base_index(perms: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """A base (points whose images tell all rows apart, chosen greedily in
    point order) and one int32 transition table per base point.  Level j
    maps (state of the images of the earlier base points, image of point
    j) to the next state, or to the next level's dead state, its extra
    last row, when no row has them; on the last level states are row ids
    and the dead state is -1.  In a group each level has a proper multiple
    of the states before it, so all levels hold under |G| + |base| rows.
    A point refines iff its pairs state * degree + image, marked in a bool
    array, outnumber the states; the marks in order number the next states.
    Where marking costs more than a few reads per row, points on which all
    rows of a state agree are first skipped in blocks: O(|G|) per point."""
    n, degree = perms.shape
    rank = np.zeros(n, dtype=np.int32)  # prefix state of each row
    distinct, point, base, levels = 1, 0, [], []
    while distinct < n and point < degree:
        if distinct * degree > 4 * n:
            peer = np.empty(distinct, dtype=np.intp)
            peer[rank] = np.arange(n)
            peer = peer[rank]  # a row with the same state
            while point < degree:
                block = slice(point, point + max(1, (BLOCK_ENTRIES >> 3) // n))
                moved = np.flatnonzero((perms[peer, block] != perms[:, block]).any(axis=0))
                if len(moved):
                    point += int(moved[0])
                    break
                point = block.stop
            else:
                break
        pairs = rank.astype(np.int64) * degree + perms[:, point]
        marked = np.zeros(distinct * degree, dtype=bool)
        marked[pairs] = True
        keys = np.flatnonzero(marked)
        del marked  # before the level, which is four times its size
        if len(keys) > distinct:
            last = len(keys) == n
            level = np.full((distinct + 1, degree), -1 if last else len(keys), dtype=np.int32)
            level.flat[pairs if last else keys] = np.arange(len(keys))
            level.setflags(write=False)
            base.append(point)
            levels.append(level)
            rank, distinct = level.flat[pairs], len(keys)
        point += 1
    _require(distinct == n, "permutation rows are not distinct")
    return np.asarray(base, dtype=np.intp), levels


def cayley_table(n: int, lmul: Sequence[np.ndarray]) -> np.ndarray:
    """Dense table of a group of order n from left multiplication by each
    generator (lmul[i][x] = g_i * x, which is row g_i).  Rows are filled
    along a breadth-first search that multiplies each level on the left by
    a step set: the generators, then the elements found first, up to
    isqrt(n) of them (baby steps, giant steps).  A cycle of length n takes
    about sqrt(n) levels, not n, and each element meets at most isqrt(n)
    steps beside the generators, so the candidate reads stay near n^1.5,
    below the n^2 fill.  If y = t * f, row y is row t read at row f, one
    flat take per block of rows."""
    table = np.empty((n, n), dtype=np.int32)
    table[0] = np.arange(n, dtype=np.int32)
    done = np.zeros(n, dtype=bool)
    done[0] = True
    for row in lmul:
        table[row[0]] = row
        done[row[0]] = True
    steps = frontier = np.flatnonzero(done)[1:]
    while frontier.size:
        found = table[steps[:, None], frontier].ravel()
        fresh = np.flatnonzero(~done[found])
        ys, first = np.unique(found[fresh], return_index=True)
        done[ys] = True
        t, f = np.divmod(fresh[first], frontier.size)
        t, f = steps[t, None] * n, frontier[f]
        # int64 index, row read and take: 16 bytes an entry, BLOCK_ENTRIES a block
        for block in row_blocks(len(ys), n << 4):
            table[ys[block]] = table.take(t[block] + table[f[block]])
        steps = np.concatenate((steps, ys[: max(0, math.isqrt(n) - steps.size)]))
        frontier = ys
    if not done.all():
        raise InvalidSpec("generators do not generate the group")
    return table


# ---------------------------------------------------------------------------
# Spec validation and closed-form orders


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidSpec(msg)


def _smallest_prime_factor(n: int) -> int:
    """The smallest prime dividing n >= 2."""
    return next((p for p in range(2, math.isqrt(n) + 1) if n % p == 0), n)


def _product(factors: Iterable[int], cap: Optional[int]) -> int:
    """Product of factors >= 1, stopping at the first partial product above
    cap (when cap is not None), so a huge spec never forms a huge number."""
    out = 1
    for f in factors:
        out *= f
        if cap is not None and out > cap:
            break
    return out


def _sl_factors(n: int, p: int) -> Iterator[int]:
    """Factors of |SL(n, p)| = p^(n(n-1)/2) * prod_{k=2..n} (p^k - 1), small first."""
    yield from itertools.repeat(p, n * (n - 1) // 2)
    for k in range(2, n + 1):
        yield p**k - 1


def spec_order(spec: GroupSpec, cap: Optional[int] = None) -> Optional[int]:
    """Closed-form order of a spec, or None when only closure can tell (perm).

    With a cap, an order above it comes back as some number above it (a
    partial product), found without forming any number much larger than
    the cap: S100000000 is over the cap after a few factors.  SL/ASL field
    sizes are tested for primality by build_group, after the order cap:
    trial division of a huge field size would not end.
    """
    if isinstance(spec, Cyclic):
        _require(spec.n >= 1, "cyclic order must be >= 1")
        return spec.n
    if isinstance(spec, Dihedral):
        _require(spec.order >= 2 and spec.order % 2 == 0, "dihedral order must be even and >= 2")
        return spec.order
    if isinstance(spec, Quaternion8):
        return 8
    if isinstance(spec, Symmetric):
        _require(spec.n >= 1, "symmetric degree must be >= 1")
        return _product(range(2, spec.n + 1), cap)
    if isinstance(spec, Alternating):
        _require(spec.n >= 1, "alternating degree must be >= 1")
        return _product(range(3, spec.n + 1), cap)  # n!/2
    if isinstance(spec, Heisenberg):
        _require(spec.m >= 1, "Heisenberg modulus must be >= 1")
        return spec.m**3
    if isinstance(spec, GeneralizedDihedral):
        base = spec_order(spec.base, cap)
        return None if base is None else 2 * base
    if isinstance(spec, SpecialLinear):
        _require(spec.n >= 1, "SL dimension must be >= 1")
        _require(spec.p >= 2, f"SL field size {spec.p} is not prime")
        return _product(_sl_factors(spec.n, spec.p), cap)
    if isinstance(spec, AffineSpecialLinear):
        _require(spec.n >= 1, "ASL dimension must be >= 1")
        _require(
            math.gcd(spec.n, spec.p - 1) == 1,
            f"ASL requires gcd(n, p-1) = 1, got gcd({spec.n}, {spec.p - 1})",
        )
        _require(spec.p >= 2, f"ASL field size {spec.p} is not prime")
        translations = itertools.repeat(spec.p, spec.n)
        return _product(itertools.chain(translations, _sl_factors(spec.n, spec.p)), cap)
    if isinstance(spec, PermSpec):
        _require(spec.degree >= 1, "perm degree must be >= 1")
        for gen in spec.generators:
            _require(
                len(gen) == spec.degree and sorted(gen) == list(range(spec.degree)),
                f"generator {gen} is not a permutation of 0..{spec.degree - 1}",
            )
        return None
    if isinstance(spec, Product):
        left = spec_order(spec.left, cap)
        right = spec_order(spec.right, cap)
        if left is None or right is None:
            return None
        return left * right
    raise InvalidSpec(f"unknown spec node {spec!r}")


# ---------------------------------------------------------------------------
# Breadth-first enumeration


def _perm_dtype(degree: int):
    return np.uint16 if degree <= 0xFFFF else np.uint32


def row_keys(rows: np.ndarray) -> list[bytes]:
    """The bytes of each row of a 2-D array, from one tolist of an np.void view."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


def fresh_rows(rows: np.ndarray, seen: dict) -> list[int]:
    """Positions of the rows whose bytes are new keys of seen (a dict is more
    compact than a set), first occurrences in row order, adding the keys."""
    return [i for i, k in enumerate(row_keys(rows)) if k not in seen and seen.setdefault(k) is None]


def _bfs_enumerate(
    degree: int, gens: Sequence[np.ndarray], order_cap: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Elements in shortlex order, one breadth-first level at a time.

    Candidate row i*k + j of a level is frontier[i] * step[j] (step[j] acts
    first), so scanning the candidates in row order finds new elements in
    the order a FIFO queue over elements and generators would.  Levels are
    scanned in blocks, each checked against the order cap.
    """
    dtype = _perm_dtype(degree)
    ident = np.arange(degree, dtype=dtype)
    index = {ident.tobytes(): None}
    levels = [ident[None, :]]
    step = np.asarray(gens, dtype=dtype).reshape(-1, degree)
    while len(levels[-1]) and len(step):
        rows = max(1, min(4096, BLOCK_ENTRIES // degree) // len(step))  # frontier rows per block
        fresh = []
        for lo in range(0, len(levels[-1]), rows):
            # take, not [:, step]: that gather comes out strided, and the reshape copies it
            candidates = np.take(levels[-1][lo : lo + rows], step, axis=1).reshape(-1, degree)
            fresh.append(candidates[fresh_rows(candidates, index)])
            if len(index) > order_cap:
                raise OrderCapExceeded(f"group closure exceeds the order cap ({order_cap})")
        levels.append(np.concatenate(fresh))
        if len(levels) == 2:
            # the first level is the generators without repeats or the
            # identity; later levels need only these, and generator j is
            # element j + 1
            step = levels[1]
    return np.concatenate(levels), tuple(range(1, len(step) + 1))


def _assemble(
    spec: Optional[GroupSpec],
    degree: int,
    gens: Sequence[np.ndarray],
    order_cap: int,
    seed: int,
    expected_order: Optional[int],
) -> FiniteGroup:
    perms, gen_ids = _bfs_enumerate(degree, gens, order_cap)
    if not np.array_equal(perms[0], np.arange(degree)):
        raise InvalidSpec("element 0 is not the identity")
    if expected_order is not None and len(perms) != expected_order:
        raise InvalidSpec(
            f"closure produced order {len(perms)}, expected {expected_order} for {spec!r}"
        )
    return FiniteGroup(spec, perms, gen_ids, check_seed=seed)


def _smoke_check(group: FiniteGroup, seed: int) -> None:
    """Inverse and associativity checks of an element lookup, run as it is built.

    Up to order 128 the table is built here, and each entry t[x, y] must
    have the base images x[y[base]], which tell the rows apart: the table
    that the breadth-first fill built is their composition law.  Above
    that, seeded random triples compare (x y) z with x (y z) as ids from
    the base-image lookup, without forcing a table build.
    """
    n = group.order
    # a sort, not np.unique, which imports numpy.ma (about 1.5 MB resident)
    if not np.array_equal(np.sort(group.inverses), np.arange(n)):
        raise InvalidSpec("inverse map is not a bijection")
    # x x^-1 on full rows, a block at a time: no whole copy of perms
    for block in row_blocks(n, group.degree):
        inverse_rows = group.perms[group.inverses[block]]
        composed = np.take_along_axis(group.perms[block], inverse_rows, axis=1)
        if not (composed == group.perms[0]).all():
            raise InvalidSpec("inverse law fails on permutations")
    if n <= _ASSOC_EXHAUSTIVE_LIMIT:
        ids = np.arange(n)
        t = group.table
        if not (np.array_equal(t[0], ids) and np.array_equal(t[:, 0], ids)):
            raise InvalidSpec("identity law fails on the table")
        images = group._base_images
        if not np.array_equal(images.take(t, axis=0), group.perms.take(images, axis=1)):
            raise InvalidSpec("associativity fails")
        return
    # the standard library's generator: importing numpy.random costs about
    # 6 MB of resident memory in every process that builds a group
    draws = np.frombuffer(random.Random(seed).randbytes(12 * _ASSOC_SAMPLES), dtype=np.uint32)
    # triple i of block k is draws 3000k + i, + 1000 + i and + 2000 + i
    xs, ys, zs = np.swapaxes((draws % n).reshape(-1, 3, 1000), 0, 1)
    mul = group._product_ids
    if not np.array_equal(mul(mul(xs, ys), zs), mul(xs, mul(ys, zs))):
        raise InvalidSpec("associativity fails on sampled triples")


# ---------------------------------------------------------------------------
# Constructors (canonical generator lists, documented per constructor)


def _cyclic_action(n: int) -> tuple[int, list[np.ndarray]]:
    # Rotation k -> k+1 on n points; enumeration is e, g, g^2, ...
    if n == 1:
        return 1, []
    rot = np.roll(np.arange(n), -1)
    return n, [rot]


def _symmetric_action(n: int) -> tuple[int, list[np.ndarray]]:
    # Generators: transposition (0 1), then the full cycle (0 1 ... n-1).
    if n == 1:
        return 1, []
    swap = np.arange(n)
    swap[[0, 1]] = [1, 0]
    if n == 2:
        return n, [swap]
    return n, [swap, np.roll(np.arange(n), -1)]


def _alternating_action(n: int) -> tuple[int, list[np.ndarray]]:
    # Generators: (0 1 2), then an n- or (n-1)-cycle of even parity.
    if n <= 2:
        return max(n, 1), []
    tri = np.arange(n)
    tri[[0, 1, 2]] = [1, 2, 0]
    if n == 3:
        return n, [tri]
    if n % 2 == 1:
        return n, [tri, np.roll(np.arange(n), -1)]
    cyc = np.arange(n)
    cyc[1:] = np.roll(np.arange(1, n), -1)
    return n, [tri, cyc]


def _quaternion_action() -> tuple[int, list[np.ndarray]]:
    # Left-regular action on the 8 unit labels {1,i,j,k,-1,-i,-j,-k}:
    # left multiplication by the generators i and j.
    return 8, [np.array([1, 4, 3, 6, 5, 0, 7, 2]), np.array([2, 7, 4, 1, 6, 3, 0, 5])]


def _heisenberg_action(m: int) -> tuple[int, list[np.ndarray]]:
    # Faithful affine-plane action on Z_m^2 (point x*m + y):
    #   X: (x, y) -> (x + y, y),  Y: (x, y) -> (x, y + 1).
    if m == 1:
        return 1, []
    pts = np.arange(m * m)
    xs, ys = divmod(pts, m)
    gen_x = ((xs + ys) % m) * m + ys
    gen_y = xs * m + (ys + 1) % m
    return m * m, [gen_x, gen_y]


def _gen_dihedral_action(base: FiniteGroup) -> tuple[int, list[np.ndarray]]:
    # Left-regular action of A x| <inv> on points (a, eps) = eps*|A| + a.
    # Generators: each base generator as (g, 0), then the flip (e, 1).
    n = base.order
    gens: list[np.ndarray] = []
    for g in base.generator_ids:
        left = base.mul_many(g, np.arange(n))
        gens.append(np.concatenate([left, left + n]))
    inv = base.inverses.astype(np.int64)
    gens.append(np.concatenate([inv + n, inv]))  # the flip
    return 2 * n, gens


def _vector_points(n: int, p: int) -> np.ndarray:
    """All vectors of F_p^n as rows, indexed big-endian base p."""
    pts = np.arange(p**n)
    return np.stack([(pts // p ** (n - 1 - k)) % p for k in range(n)], axis=1)


def _vector_index(vecs: np.ndarray, p: int) -> np.ndarray:
    n = vecs.shape[1]
    weights = p ** np.arange(n - 1, -1, -1)
    return (vecs % p) @ weights


def _sl_generators(n: int, p: int) -> list[np.ndarray]:
    """Elementary transvections I + E_ij (row-major (i, j), i != j)."""
    vecs = _vector_points(n, p)
    gens = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            image = vecs.copy()
            image[:, i] = (image[:, i] + image[:, j]) % p
            gens.append(_vector_index(image, p))
    return gens


def _sl_action(n: int, p: int) -> tuple[int, list[np.ndarray]]:
    if n == 1:
        return p, []
    return p**n, _sl_generators(n, p)


def _asl_action(n: int, p: int) -> tuple[int, list[np.ndarray]]:
    # SL transvections plus the translation v -> v + e_1.
    vecs = _vector_points(n, p)
    shift = vecs.copy()
    shift[:, 0] = (shift[:, 0] + 1) % p
    gens = _sl_generators(n, p) if n > 1 else []
    gens.append(_vector_index(shift, p))
    return p**n, gens


def build_group(
    spec: GroupSpec, *, order_cap: int = DEFAULT_ORDER_CAP, seed: int = 0
) -> FiniteGroup:
    """Build the group described by a spec.

    Raises InvalidSpec for malformed specs and OrderCapExceeded when the
    result (known in closed form for every constructor except perm specs)
    would exceed order_cap, or when an SL/ASL field size does.
    """
    expected = spec_order(spec, order_cap)
    if expected is not None and expected > order_cap:
        raise OrderCapExceeded(f"spec {spec!r} has order above the cap ({order_cap})")
    if isinstance(spec, Cyclic):
        degree, gens = _cyclic_action(spec.n)
    elif isinstance(spec, Dihedral):
        return _assemble_gen_dihedral(spec, Cyclic(spec.order // 2), order_cap, seed)
    elif isinstance(spec, Quaternion8):
        degree, gens = _quaternion_action()
    elif isinstance(spec, Symmetric):
        degree, gens = _symmetric_action(spec.n)
    elif isinstance(spec, Alternating):
        degree, gens = _alternating_action(spec.n)
    elif isinstance(spec, Heisenberg):
        degree, gens = _heisenberg_action(spec.m)
    elif isinstance(spec, GeneralizedDihedral):
        return _assemble_gen_dihedral(spec, spec.base, order_cap, seed)
    elif isinstance(spec, SpecialLinear):
        _check_field_size("SL", spec.p, order_cap)
        degree, gens = _sl_action(spec.n, spec.p)
    elif isinstance(spec, AffineSpecialLinear):
        _check_field_size("ASL", spec.p, order_cap)
        degree, gens = _asl_action(spec.n, spec.p)
    elif isinstance(spec, PermSpec):
        degree, gens = spec.degree, [np.asarray(g) for g in spec.generators]
    elif isinstance(spec, Product):
        left = build_group(spec.left, order_cap=order_cap, seed=seed)
        right = build_group(spec.right, order_cap=order_cap, seed=seed)
        return direct_product(left, right, order_cap=order_cap, seed=seed, spec=spec)
    else:
        raise InvalidSpec(f"unknown spec node {spec!r}")
    return _assemble(spec, degree, gens, order_cap, seed, expected)


def _check_field_size(name: str, p: int, order_cap: int) -> None:
    """The field size counts against the order cap: SL(1, p) is trivial and
    passes any cap, but its action has p points and trial division of a
    huge p would not end.  Every other SL/ASL spec with p above the cap is
    over it already."""
    if p > order_cap:
        raise OrderCapExceeded(f"{name} field size {p} is above the cap ({order_cap})")
    _require(_smallest_prime_factor(p) == p, f"{name} field size {p} is not prime")


def _assemble_gen_dihedral(
    spec: GroupSpec, base_spec: GroupSpec, order_cap: int, seed: int
) -> FiniteGroup:
    base = build_group(base_spec, order_cap=order_cap, seed=seed)
    _require(len(center(base)) == base.order, "generalized dihedral base must be abelian")
    degree, gens = _gen_dihedral_action(base)
    return _assemble(spec, degree, gens, order_cap, seed, 2 * base.order)


def direct_product(
    left: FiniteGroup,
    right: FiniteGroup,
    *,
    order_cap: int = DEFAULT_ORDER_CAP,
    seed: int = 0,
    spec: Optional[GroupSpec] = None,
) -> FiniteGroup:
    """Direct product acting on the disjoint union of the factor point sets.

    Memoized per factor pair; the cached value pins the right factor, so
    identity-keyed caching is safe.
    """
    expected = left.order * right.order
    if expected > order_cap:
        raise OrderCapExceeded(f"product order {expected} is above the cap ({order_cap})")

    def build() -> FiniteGroup:
        degree = left.degree + right.degree
        gens: list[np.ndarray] = []
        for g in left.generator_ids:
            row = np.arange(degree, dtype=np.int64)
            row[: left.degree] = left.perms[g]
            gens.append(row)
        for g in right.generator_ids:
            row = np.arange(degree, dtype=np.int64)
            row[left.degree :] = right.perms[g].astype(np.int64) + left.degree
            gens.append(row)
        node = spec
        if node is None and left.spec is not None and right.spec is not None:
            node = Product(left.spec, right.spec)
        group = _assemble(node, degree, gens, order_cap, seed, expected)
        group._factors = (left, right)
        return group

    return left._cached(("direct_product", id(right)), build)


# ---------------------------------------------------------------------------
# Element-level operations


def multiply(group: FiniteGroup, x: int, y: int) -> int:
    """Group product x*y."""
    return group.mul(x, y)


def invert(group: FiniteGroup, x: int) -> int:
    """The unique y with x*y = e."""
    return group.inv(x)


def commutator(group: FiniteGroup, x: int, y: int) -> int:
    """[x, y] = x y x^-1 y^-1."""
    return int(_commutators(group, x, y))


def _conjugates(group: FiniteGroup, hs, xs) -> np.ndarray:
    """h x h^-1, broadcast over id arrays hs and xs."""
    return group.mul_many(group.mul_many(hs, xs), group.inverses[hs])


def _commutators(group: FiniteGroup, gs, ls) -> np.ndarray:
    """[g, l] = (g l g^-1) l^-1, broadcast over id arrays gs and ls."""
    return group.mul_many(_conjugates(group, gs, ls), group.inverses[ls])


def center(group: FiniteGroup) -> tuple[int, ...]:
    """Elements commuting with everything; equals the centralizer of any
    generating set."""
    return group._cached("center", lambda: centralizer(group, group.generator_ids))


def centralizer(group: FiniteGroup, elems: Iterable[int]) -> tuple[int, ...]:
    """Intersection of the centralizers of elems; the whole group if empty."""
    mask = np.ones(group.order, dtype=bool)
    for s in elems:
        mask &= group.commuting_mask(int(s))
    return tuple(int(i) for i in np.flatnonzero(mask))
