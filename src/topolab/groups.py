"""Finite groups as faithful permutation actions with canonical numbering.

Every group is materialized by breadth-first closure of a fixed generator
list: element 0 is the identity and new elements are discovered in shortlex
order over generator words (generators in constructor order, FIFO levels).
Two builds of the same spec therefore agree element-for-element.

Every product id comes from FiniteGroup.mul_many.  An element is fixed by
its images of a base (a few points whose pointwise stabilizer is trivial),
so a product composes only the base columns and maps them back to an id
with one read per base point of an int32 transition table, from prefix
state and image to the next state.  Groups of order <= TABLE_LIMIT cache all
products in a dense table, built on first use; the table is read only
inside FiniteGroup.  Instances are immutable after construction, so they
can be shared freely between threads.
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
_ASSOC_EXHAUSTIVE_LIMIT = 128
_ASSOC_SAMPLES = 10_000
# permutation entries per block of the inverse-law check
_INVERSE_BLOCK = 1 << 20


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
    from the parent's rows (subgroup materializations), or from a
    multiplication table (quotients).  All state is frozen at construction;
    caches added later are invisible to callers and safe under concurrent
    reads.
    """

    __slots__ = (
        "spec",
        "order",
        "degree",
        "perms",
        "inverses",
        "generator_ids",
        "_base",
        "_levels",
        "_table",
        "_cache",
        "_cache_lock",
        "_factors",
    )

    def __init__(
        self,
        spec: Optional[GroupSpec],
        perms: np.ndarray,
        generator_ids: tuple[int, ...],
        table: Optional[np.ndarray] = None,
    ):
        self.spec = spec
        self.perms = perms
        self.perms.setflags(write=False)
        self.order = int(perms.shape[0])
        self.degree = int(perms.shape[1])
        self.generator_ids = generator_ids
        self._table = table
        if table is not None:
            self._table.setflags(write=False)
        self._base, self._levels = _base_index(perms)
        # x^-1(b) is the point that row x sends to b: read for the base only
        inverse_images = np.empty((self.order, len(self._base)), dtype=np.intp)
        for j, b in enumerate(self._base):
            inverse_images[:, j] = (perms == b).argmax(axis=1)
        self.inverses = self._ids(inverse_images)
        self.inverses.setflags(write=False)
        self._cache: dict = {}
        # reentrant: cached builders routinely call other cached builders
        self._cache_lock = threading.RLock()
        self._factors: Optional[tuple["FiniteGroup", "FiniteGroup"]] = None

    identity = 0

    @property
    def table(self) -> Optional[np.ndarray]:
        """Dense multiplication table; built on first demand for groups of
        order <= TABLE_LIMIT, None above that."""
        if self._table is None and self.order <= TABLE_LIMIT:
            with self._cache_lock:
                if self._table is None:
                    ids = np.arange(self.order)
                    built = cayley_table(
                        self.order, [self._product_ids(ids, g) for g in self.generator_ids]
                    )
                    built.setflags(write=False)
                    self._table = built
        return self._table

    # -- element arithmetic -------------------------------------------------

    def mul_many(self, xs, ys) -> np.ndarray:
        """Products x*y (composition: y acts first) for broadcast id arrays,
        as int32 ids; a read of the table when there is one."""
        table = self.table
        if table is not None:
            return table[xs, ys]
        return self._product_ids(xs, ys)

    def mul(self, x: int, y: int) -> int:
        """Product x*y (composition: y acts first)."""
        return int(self.mul_many(x, y))

    def inv(self, x: int) -> int:
        return int(self.inverses[x])

    def conjugate(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul(self.mul(g, x), self.inv(g))

    def commutator(self, x: int, y: int) -> int:
        """[x, y] = x y x^-1 y^-1."""
        return self.mul(self.mul(x, y), self.mul(self.inv(x), self.inv(y)))

    def elements(self) -> range:
        return range(self.order)

    def element_perm(self, x: int) -> tuple[int, ...]:
        return tuple(int(v) for v in self.perms[x])

    # -- base-image lookup --------------------------------------------------

    def _product_ids(self, xs, ys) -> np.ndarray:
        """mul_many without the table: compose only the base columns."""
        y_base = self.perms[np.asarray(ys)[..., None], self._base]
        return self._ids(self.perms[np.asarray(xs)[..., None], y_base])

    def _ids(self, images: np.ndarray) -> np.ndarray:
        """Element ids from base images (last axis): state = level[state,
        image] for each base point, from state 0, where the last level holds
        ids and -1 for a prefix no element has.  Raises ValueError for images
        no element has."""
        state = np.zeros(images.shape[:-1], dtype=np.int32)
        for j, level in enumerate(self._levels):
            state = level[state, images[..., j]]
        if (state < 0).any() or not np.array_equal(
            self.perms[state[..., None], self._base], images
        ):
            raise ValueError("permutation is not an element of the group")
        return state

    def _lookup(self, perm_rows: np.ndarray) -> np.ndarray:
        """Element ids of full permutation rows (last axis)."""
        perm_rows = np.asarray(perm_rows)
        ids = self._ids(perm_rows[..., self._base])
        if not np.array_equal(self.perms[ids], perm_rows):
            raise ValueError("permutation is not an element of the group")
        return ids

    # -- vectorized helpers -------------------------------------------------

    def commuting_mask(self, g: int) -> np.ndarray:
        """Boolean mask over all x of [x, g] = e.

        x g and g x are equal iff they agree on the base, so this compares
        base images and never needs a table or a lookup.
        """
        pg = self.perms[g]
        return (self.perms[:, pg[self._base]] == pg[self.perms[:, self._base]]).all(axis=1)

    def conj_map(self, g: int) -> np.ndarray:
        """Array m with m[x] = g x g^-1 for every x."""
        return self.mul_many(self.mul_many(g, np.arange(self.order)), self.inv(g))

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

    @property
    def factors(self) -> Optional[tuple["FiniteGroup", "FiniteGroup"]]:
        return self._factors

    def pair_id(self, x1: int, x2: int) -> int:
        """Element id of (x1, x2) in a direct product group."""
        if self._factors is None:
            raise ValueError("not a direct product")
        g1, g2 = self._factors
        combined = np.concatenate(
            [g1.perms[x1].astype(np.int64), g2.perms[x2].astype(np.int64) + g1.degree]
        )
        return int(self._lookup(combined))

    def component_ids(self, x: int) -> tuple[int, int]:
        """Factor element ids of a direct product element."""
        if self._factors is None:
            raise ValueError("not a direct product")
        g1, g2 = self._factors
        row = self.perms[x].astype(np.int64)
        return int(g1._lookup(row[: g1.degree])), int(g2._lookup(row[g1.degree :] - g1.degree))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


def _base_index(perms: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """A base (points whose images tell all rows apart, chosen greedily in
    point order) and one int32 transition table per base point.  Level j
    maps (state of the images of the earlier base points, image of point
    j) to the next state, or to the next level's dead state, its extra
    last row, when no row has them; on the last level states are row ids
    and the dead state is -1.  In a group each level has a proper multiple
    of the states before it, so all levels hold under |G| + |base| rows."""
    n, degree = perms.shape
    rank = np.zeros(n, dtype=np.int64)  # prefix state of each row
    order = np.arange(n)  # rows sorted by state
    same = np.ones(n - 1, dtype=bool)  # order[i], order[i + 1] share a state
    distinct = 1
    base: list[int] = []
    levels: list[np.ndarray] = []
    for point in range(degree):
        if distinct == n:
            break
        # the point refines the states iff its column changes inside one
        column = perms[order, point]
        if not (same & (column[1:] != column[:-1])).any():
            continue
        values, refined = np.unique(rank * degree + perms[:, point], return_inverse=True)
        last = len(values) == n
        level = np.full((distinct + 1, degree), -1 if last else len(values), dtype=np.int32)
        level[rank, perms[:, point]] = np.arange(n) if last else refined.reshape(n)
        level.setflags(write=False)
        base.append(point)
        levels.append(level)
        rank, distinct = refined.reshape(n), len(values)
        order = np.argsort(rank)
        same = rank[order[1:]] == rank[order[:-1]]
    if distinct != n:
        raise InvalidSpec("permutation rows are not distinct")
    return np.asarray(base, dtype=np.intp), levels


def cayley_table(n: int, rmul: Sequence[np.ndarray]) -> np.ndarray:
    """Dense table of a group of order n from right multiplication by each
    generator (rmul[i][x] = x * g_i).  Columns are filled along a
    breadth-first tree over generator words: if y = p * g_i, column y is
    rmul[i] applied to column p."""
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    done = np.zeros(n, dtype=bool)
    done[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        grown = []
        for r in rmul:
            images = r[frontier]
            fresh = ~done[images]
            ys, first = np.unique(images[fresh], return_index=True)
            done[ys] = True
            table[:, ys] = r[table[:, frontier[fresh][first]]]
            grown.append(ys)
        frontier = np.concatenate(grown) if grown else frontier[:0]
    if not done.all():
        raise InvalidSpec("generators do not generate the group")
    return table


# ---------------------------------------------------------------------------
# Spec validation and closed-form orders


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidSpec(msg)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


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


def _bfs_enumerate(
    degree: int, gens: Sequence[np.ndarray], order_cap: int
) -> tuple[np.ndarray, tuple[int, ...]]:
    """Elements in shortlex order, one breadth-first level at a time.

    Candidate row i*k + j of a level is frontier[i] * step[j] (step[j] acts
    first), so scanning the candidates in row order finds new elements in
    the order a FIFO queue over elements and generators would.
    """
    dtype = _perm_dtype(degree)
    ident = np.arange(degree, dtype=dtype)
    width = ident.nbytes
    index = {ident.tobytes(): None}  # a dict is more compact than a set
    levels = [ident[None, :]]
    step = np.asarray(gens, dtype=dtype).reshape(-1, degree)
    while len(levels[-1]) and len(step):
        candidates = levels[-1][:, step].reshape(-1, degree)
        raw = candidates.tobytes()
        fresh = []
        for row in range(len(candidates)):
            key = raw[row * width : (row + 1) * width]
            if key not in index:
                if len(index) >= order_cap:
                    raise OrderCapExceeded(
                        f"group closure exceeds the order cap ({order_cap})"
                    )
                index[key] = None
                fresh.append(row)
        levels.append(candidates[fresh])
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
    group = FiniteGroup(spec, perms, gen_ids)
    if expected_order is not None and group.order != expected_order:
        raise InvalidSpec(
            f"closure produced order {group.order}, expected {expected_order} for {spec!r}"
        )
    _smoke_check(group, seed)
    return group


def _smoke_check(group: FiniteGroup, seed: int) -> None:
    """Identity/inverse/associativity sanity checks at construction.

    Exhaustive associativity up to order 128 (on all products).  Above
    that, seeded random triples compare (x y) z with x (y z) as ids from
    the base-image lookup every product uses, without forcing a table
    build.
    """
    n = group.order
    if not np.array_equal(group.perms[0], np.arange(group.degree, dtype=group.perms.dtype)):
        raise InvalidSpec("element 0 is not the identity")
    # a sort, not np.unique, which imports numpy.ma (about 1.5 MB resident)
    if not np.array_equal(np.sort(group.inverses), np.arange(n)):
        raise InvalidSpec("inverse map is not a bijection")
    # x x^-1 on full rows, a block at a time: no whole copy of perms
    step = max(1, _INVERSE_BLOCK // group.degree)
    for lo in range(0, n, step):
        inverse_rows = group.perms[group.inverses[lo : lo + step]]
        composed = np.take_along_axis(group.perms[lo : lo + step], inverse_rows, axis=1)
        if not (composed == group.perms[0]).all():
            raise InvalidSpec("inverse law fails on permutations")
    if n <= _ASSOC_EXHAUSTIVE_LIMIT:
        ids = np.arange(n)
        t = group.mul_many(ids[:, None], ids)
        if not (
            np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))
        ):
            raise InvalidSpec("identity law fails on the table")
        # t[t[x]][y,z] = (x y) z  and  t[x][t][y,z] = x (y z), one x at a
        # time: two n x n arrays where all x at once would need two n^3
        for x in range(n):
            if not np.array_equal(t[t[x]], t[x][t]):
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
    # Left-regular action on the 8 unit labels {1,i,j,k,-1,-i,-j,-k};
    # generators i and j.
    def unit_mul(a: int, b: int) -> int:
        sa, ua = divmod(a, 4)
        sb, ub = divmod(b, 4)
        sign = sa ^ sb
        if ua == 0:
            unit = ub
        elif ub == 0:
            unit = ua
        elif ua == ub:
            unit, sign = 0, sign ^ 1
        else:
            third = 6 - ua - ub
            unit = third
            if (ua, ub) not in ((1, 2), (2, 3), (3, 1)):
                sign ^= 1
        return 4 * sign + unit

    rows = [np.array([unit_mul(a, b) for b in range(8)]) for a in range(8)]
    return 8, [rows[1], rows[2]]


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
    flip = np.concatenate([inv + n, inv])
    gens.append(flip)
    return 2 * n, gens


def _vector_points(n: int, p: int) -> np.ndarray:
    """All vectors of F_p^n as rows, indexed big-endian base p."""
    pts = np.arange(p**n)
    cols = []
    for k in range(n):
        cols.append((pts // p ** (n - 1 - k)) % p)
    return np.stack(cols, axis=1)


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
    _require(_is_prime(p), f"{name} field size {p} is not prime")


def _assemble_gen_dihedral(
    spec: GroupSpec, base_spec: GroupSpec, order_cap: int, seed: int
) -> FiniteGroup:
    base = build_group(base_spec, order_cap=order_cap, seed=seed)
    if not _is_abelian(base):
        raise InvalidSpec("generalized dihedral base must be abelian")
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
        raise OrderCapExceeded(
            f"product order {expected} is above the cap ({order_cap})"
        )

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


def group_from_table(
    table: np.ndarray,
    generator_ids: tuple[int, ...],
    spec: Optional[GroupSpec] = None,
) -> FiniteGroup:
    """Wrap an explicit multiplication table (rows double as the regular action)."""
    table = np.ascontiguousarray(table, dtype=np.int32)
    n = table.shape[0]
    if not np.array_equal(table[0], np.arange(n)):
        raise InvalidSpec("table row 0 is not the identity")
    group = FiniteGroup(spec, table.astype(_perm_dtype(n)), generator_ids, table)
    if not (table[np.arange(n), group.inverses] == 0).all():
        raise InvalidSpec("table has an element without an inverse")
    return group


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
    return group.commutator(x, y)


def _is_abelian(group: FiniteGroup) -> bool:
    return len(center(group)) == group.order


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
