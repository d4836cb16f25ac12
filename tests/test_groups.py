import hashlib
import itertools
import math
import re
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    brute_center,
    c2_power_gens,
    find_element,
    group,
    reference_base_index,
    reference_bfs_enumerate,
    reference_cayley_table,
    reference_ids,
    reference_level_ids,
    reference_product_ids,
    reference_sorted_transition_tables,
)
from topolab import (
    AffineSpecialLinear,
    Cyclic,
    Dihedral,
    GeneralizedDihedral,
    InternalInconsistency,
    InvalidSpec,
    OrderCapExceeded,
    PermAction,
    PermSpec,
    SpecialLinear,
    Symmetric,
    build_group,
    center,
    centralizer,
    commutator,
    invert,
    all_normal_subgroups,
    multiply,
    quotient_group,
    spec_order,
)
from topolab import groups
from topolab.catalog import catalog_entries
from topolab.sortkeys import FirstOfEqual, _insert
from topolab.specparse import parse_perm_generators


def test_cyclic_order():
    assert group("C6").order == 6


def test_heisenberg_order():
    assert group("Heis(3)").order == 27


def test_affine_sl_order_against_matrix_enumeration():
    # independent count of 3x3 matrices over F_2 with determinant 1
    def det2(m):
        return (
            m[0][0] * (m[1][1] * m[2][2] ^ m[1][2] * m[2][1])
            ^ m[0][1] * (m[1][0] * m[2][2] ^ m[1][2] * m[2][0])
            ^ m[0][2] * (m[1][0] * m[2][1] ^ m[1][1] * m[2][0])
        )

    sl_count = sum(
        det2([bits[0:3], bits[3:6], bits[6:9]]) == 1
        for bits in itertools.product((0, 1), repeat=9)
    )
    assert sl_count == 168
    assert group("SL(3,2)").order == sl_count
    assert group("ASL(3,2)").order == sl_count * 8


def test_identity_and_inverse_laws():
    g = group("S4")
    for x in g.elements():
        assert multiply(g, 0, x) == x == multiply(g, x, 0)
        y = invert(g, x)
        assert multiply(g, x, y) == 0 == multiply(g, y, x)


def test_cyclic_inverse_is_modular_negation():
    c6 = group("C6")
    assert invert(c6, 0) == 0
    assert invert(c6, 1) == 5  # g^-1 = g^5
    c2 = group("C2")
    assert invert(c2, 1) == 1  # involutions are self-inverse


def test_multiply_matches_permutation_composition():
    s3 = group("S3")
    for x in s3.elements():
        for y in s3.elements():
            px, py = s3.element_perm(x), s3.element_perm(y)
            composed = tuple(px[py[k]] for k in range(3))
            assert s3.element_perm(multiply(s3, x, y)) == composed


def test_transposition_times_cycle_fixes_a_point():
    s3 = group("S3")
    swap = find_element(s3, (1, 0, 2))
    cyc = find_element(s3, (1, 2, 0))
    product_perm = s3.element_perm(multiply(s3, swap, cyc))
    assert product_perm == (0, 2, 1)  # a transposition fixing point 0


def test_commutator_examples():
    s3 = group("S3")
    for x in s3.elements():
        assert commutator(s3, x, x) == 0
    c6 = group("C6")
    assert all(commutator(c6, x, y) == 0 for x in c6.elements() for y in c6.elements())
    swap = find_element(s3, (1, 0, 2))
    cyc = find_element(s3, (1, 2, 0))
    comm_perm = s3.element_perm(commutator(s3, swap, cyc))
    assert sorted(comm_perm) == [0, 1, 2] and comm_perm != (0, 1, 2)
    assert comm_perm in {(1, 2, 0), (2, 0, 1)}  # a 3-cycle


def test_commutator_matches_the_inline_definition():
    import random

    s4, s7 = group("S4"), group("S7")
    assert s4.table is not None and s7.table is None  # S7 multiplies through the lookup
    pairs = [(s4, x, y) for x in s4.elements() for y in s4.elements()]
    rng = random.Random(20)
    pairs += [(s7, rng.randrange(s7.order), rng.randrange(s7.order)) for _ in range(200)]
    for g, x, y in pairs:
        assert commutator(g, x, y) == g.mul(g.mul(x, y), g.mul(g.inv(x), g.inv(y))), (g, x, y)


@pytest.mark.parametrize(
    "spec_text, center_size",
    [("C6", 6), ("S3", 1), ("Q8", 2), ("Heis(3)", 3), ("Dih(C9)", 1)],
)
def test_center_against_exhaustive_scan(spec_text, center_size):
    g = group(spec_text)
    scanned = brute_center(g)
    assert list(center(g)) == scanned
    assert len(scanned) == center_size


def test_centralizer_examples():
    s3 = group("S3")
    assert centralizer(s3, [0]) == tuple(s3.elements())
    assert centralizer(s3, []) == tuple(s3.elements())
    cyc = find_element(s3, (1, 2, 0))
    cent = centralizer(s3, [cyc])
    brute = tuple(
        x for x in s3.elements() if multiply(s3, x, cyc) == multiply(s3, cyc, x)
    )
    assert cent == brute
    assert len(cent) == 3


def test_center_equals_centralizer_of_everything(catalog64):
    for _, g in catalog64:
        assert center(g) == centralizer(g, g.elements())


def test_center_is_a_normal_subgroup(catalog64):
    for _, g in catalog64:
        z = set(center(g))
        assert 0 in z
        for a in z:
            assert invert(g, a) in z
            for b in z:
                assert multiply(g, a, b) in z
        for x in g.elements():
            for a in z:
                assert multiply(g, multiply(g, x, a), invert(g, x)) in z


def test_perm_spec_generating_symmetric_group():
    gens = ((1, 0, 2, 3, 4), (1, 2, 3, 4, 0))
    g = build_group(PermSpec(5, gens))
    assert g.order == 120


def test_dihedral_is_generalized_dihedral_over_cyclic():
    plain = group("D18")
    general = group("Dih(C9)")
    assert np.array_equal(plain.perms, general.perms)
    assert plain.generator_ids == general.generator_ids


def test_builds_are_deterministic():
    a = group("Q8 x D8")
    b = group("Q8 x D8")
    assert np.array_equal(a.perms, b.perms)
    assert a.generator_ids == b.generator_ids
    assert np.array_equal(a.table, b.table)


def test_order_cap():
    with pytest.raises(OrderCapExceeded):
        build_group(Symmetric(9))  # 362880 > 20000
    with pytest.raises(OrderCapExceeded):
        build_group(Cyclic(100), order_cap=99)
    assert build_group(Cyclic(100), order_cap=100).order == 100


def test_invalid_specs():
    with pytest.raises(InvalidSpec):
        build_group(SpecialLinear(2, 4))  # 4 is not prime
    with pytest.raises(InvalidSpec):
        build_group(AffineSpecialLinear(2, 3))  # gcd(2, 2) != 1
    with pytest.raises(InvalidSpec):
        build_group(Dihedral(7))  # odd order
    with pytest.raises(InvalidSpec):
        build_group(Cyclic(0))
    with pytest.raises(InvalidSpec):
        build_group(GeneralizedDihedral(Symmetric(3)))  # non-abelian base
    assert spec_order(AffineSpecialLinear(3, 2)) == 1344


@pytest.mark.parametrize(
    "text, order",
    [
        ("D2", 2),
        ("Heis(1)", 1),
        ("SL(1,5)", 1),
        ("ASL(1,5)", 5),
        ("A1", 1),
        ("A2", 1),
        ("A3", 3),
        ("S1", 1),
        ("S2", 2),
        ("C1", 1),
        ("SL(2,2)", 6),
        ("SL(2,3)", 24),
    ],
)
def test_degenerate_and_small_atoms(text, order):
    assert group(text).order == order


def test_large_group_has_no_table_but_consistent_products():
    s7 = group("S7")
    assert s7.order == 5040
    assert s7.table is None
    rng = np.random.default_rng(1)
    for x, y in rng.integers(0, s7.order, (50, 2)):
        px, py = s7.element_perm(int(x)), s7.element_perm(int(y))
        composed = tuple(px[py[k]] for k in range(7))
        assert s7.element_perm(multiply(s7, int(x), int(y))) == composed


def test_small_group_table_matches_permutations():
    d8 = group("D8")
    for x in d8.elements():
        for y in d8.elements():
            px, py = d8.element_perm(x), d8.element_perm(y)
            composed = tuple(px[py[k]] for k in range(d8.degree))
            assert d8.element_perm(int(d8.table[x, y])) == composed


def test_product_component_roundtrip():
    # factor numbering is canonical, so fresh builds of S3 and C4 number the
    # product's factors; pair (a, b) acts as a on the first 3 points and as
    # b on the last 4
    g, g1, g2 = group("S3 x C4"), group("S3"), group("C4")
    pairs = [(a, b) for a in g1.elements() for b in g2.elements()]
    ids = [g.pair_id(a, b) for a, b in pairs]
    assert sorted(ids) == list(g.elements())
    for (a, b), x in zip(pairs, ids):
        perm = g.element_perm(x)
        assert perm[:3] == g1.element_perm(a)
        assert tuple(v - 3 for v in perm[3:]) == g2.element_perm(b)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 23), st.integers(0, 23), st.integers(0, 23))
def test_group_laws_random_triples(x, y, z):
    g = group("S4")
    assert multiply(g, multiply(g, x, y), z) == multiply(g, x, multiply(g, y, z))
    assert invert(g, multiply(g, x, y)) == multiply(g, invert(g, y), invert(g, x))


def test_concurrent_reads_share_caches():
    from concurrent.futures import ThreadPoolExecutor

    from topolab import all_normal_subgroups, taimanov_topology

    g = group("Q8 x D8")

    def probe(_):
        normals = all_normal_subgroups(g)
        tau, _ = taimanov_topology(g)
        return (len(normals), tau.kernel.order, center(g))

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(probe, range(16)))
    assert len(set(results)) == 1


def test_racing_first_reads_build_one_checked_lookup(monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    builds = []
    honest = groups._base_index
    monkeypatch.setattr(groups, "_base_index", lambda perms: builds.append(len(perms)) or honest(perms))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for text in ("C128", "S5", "Q8 x D8") * 4:
            builds.clear()
            g = group(text)
            ids = np.arange(g.order)
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(g.mul_many, ids[:, None], ids) for _ in range(16)]
                tables = [f.result(timeout=60) for f in futures]
            assert all(np.array_equal(t, tables[0]) for t in tables)
            assert builds.count(g.order) == 1, text
    finally:
        sys.setswitchinterval(interval)


# sha256 prefixes of perms (uint16 bytes) and inverses (int32 bytes), recorded
# before products moved onto base images; element numbering must not move
NUMBERING_DIGESTS = {
    "S7": ("61bf899fd3d01241", "fc6a2219d2db5d92"),
    "SL(2,17)": ("4aef8105e8406f58", "044a4ce32251ccfd"),
    "A5 x A5": ("2ce3be709a6a4193", "e20b3cce04d8a266"),
    "Q8 x D8": ("f3a97601c29e36f7", "3a94d391bc97fee0"),
}


def _digest(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


@pytest.mark.parametrize("text", sorted(NUMBERING_DIGESTS))
def test_mul_many_matches_composed_permutations(text):
    g = group(text)
    assert g.perms.dtype == np.uint16
    assert (_digest(g.perms), _digest(g.inverses.astype(np.int32))) == NUMBERING_DIGESTS[text]
    rng = np.random.default_rng(7)
    xs = rng.integers(0, g.order, 500)
    ys = rng.integers(0, g.order, 500)
    got = g.mul_many(xs, ys)
    assert got.dtype == np.int32
    composed = np.take_along_axis(g.perms[xs], g.perms[ys].astype(np.intp), axis=1)
    assert np.array_equal(g.perms[got], composed)
    # the base-image lookup agrees with the table where there is one
    assert np.array_equal(g._product_ids(xs, ys), got)
    # broadcasting against a scalar and as an outer product
    assert np.array_equal(g.mul_many(int(xs[0]), ys), g.mul_many(np.full(500, xs[0]), ys))
    outer = g.mul_many(xs[:4, None], ys[None, :4])
    assert np.array_equal(np.diag(outer), got[:4])
    assert g.mul(int(xs[1]), int(ys[1])) == int(got[1])


NUMBERING_SPECS = (
    "S7",
    "SL(2,17)",
    "A5 x A5",
    "Heis(7) x C2",
    "C512",
    "perm[(0 1 2 3 4 5),(0 1)]",
    "perm[(0 1 2),(0 1 2),(3 4)] x C3",
    "perm[(0 1 2 3 4 5 6 7),(1 7)(2 6)(3 5)] x perm[(0 1),(0 1)]",
)


def test_level_wise_closure_numbers_elements_like_the_element_queue(monkeypatch):
    """Every closure build_group runs (factors, dihedral bases, products)
    gives the rows and generator ids of the element-at-a-time BFS."""
    closures = []
    level_wise = groups._bfs_enumerate

    def recording(degree, gens, order_cap, base=None, order=None):
        got = level_wise(degree, gens, order_cap, base, order)
        closures.append((degree, [np.array(g) for g in gens], order_cap, got))
        return got

    monkeypatch.setattr(groups, "_bfs_enumerate", recording)
    for _, spec in catalog_entries(None):
        build_group(spec)
    for text in NUMBERING_SPECS:
        group(text)
    assert len(closures) > len(NUMBERING_SPECS)
    for degree, gens, order_cap, (perms, gen_ids) in closures:
        ref_perms, ref_ids = reference_bfs_enumerate(degree, gens, order_cap)
        assert perms.dtype == ref_perms.dtype
        assert np.array_equal(perms, ref_perms)
        assert gen_ids == ref_ids


def test_level_wise_closure_stops_at_the_cap_like_the_element_queue():
    swap, cycle = np.array([1, 0, 2, 3, 4]), np.array([1, 2, 3, 4, 0])
    gens = [np.arange(5), swap, swap, cycle]  # S5, identity and a repeat dropped
    for closure in (groups._bfs_enumerate, reference_bfs_enumerate):
        with pytest.raises(OrderCapExceeded, match=r"order cap \(119\)"):
            closure(5, gens, 119)
    perms, gen_ids = groups._bfs_enumerate(5, gens, 120)
    ref_perms, ref_ids = reference_bfs_enumerate(5, gens, 120)
    assert len(perms) == 120 and np.array_equal(perms, ref_perms)
    assert gen_ids == ref_ids == (1, 2)


# the degenerate atoms, and a product keyed on a base with S3's in it
BASE_SPECS = (
    "C1", "D2", "S1", "S2", "A1", "A2", "A3", "Heis(1)", "SL(1,5)", "SL(1,7)", "ASL(1,5)", "S3 x C256",
)


def _has_perm_atom(spec):
    """Whether a spec node has a perm spec among its atoms."""
    if isinstance(spec, groups.Product):
        return _has_perm_atom(spec.left) or _has_perm_atom(spec.right)
    return isinstance(spec, PermSpec)


def test_every_constructor_base_separates_its_rows():
    from topolab.specparse import parse_group_spec

    specs = [spec for _, spec in catalog_entries(None)]
    specs += [parse_group_spec(text) for text in NUMBERING_SPECS + BASE_SPECS]
    for spec in specs:
        g = build_group(spec)
        base = g._closure_base
        assert (base is None) == _has_perm_atom(spec), spec
        if base is not None:
            images = g.perms[:, list(base)]
            assert len(np.unique(images, axis=0)) == g.order, spec


@pytest.mark.parametrize(
    "text, action",
    [
        ("C64", "_cyclic_action"),
        ("Heis(7)", "_heisenberg_action"),
        ("SL(2,17)", "_sl_action"),
        ("Dih(C5 x C5)", "_gen_dihedral_action"),
    ],
)
def test_a_base_missing_a_point_fails_the_build(monkeypatch, text, action):
    honest = getattr(groups, action)

    def short(*args):
        degree, gens, base = honest(*args)
        return degree, gens, base[:-1]

    monkeypatch.setattr(groups, action, short)
    # a defect in the program, not in the spec, named as it is written
    with pytest.raises(InternalInconsistency, match=rf"closure produced order \d+, expected \d+ for {re.escape(text)}$"):
        group(text)


@pytest.mark.parametrize("text", ["C64", "D64", "Heis(7)", "SL(2,5)", "C5 x Heis(5)"])
def test_closure_keyed_on_a_base_finds_the_rows_of_full_row_keys(monkeypatch, text):
    # every block reads the base images first, and forms its new rows one
    # row at a time
    g = group(text)
    gens = [g.perms[x] for x in g.generator_ids]
    monkeypatch.setattr(groups, "_FORM_ALL", 0)
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", 64)
    perms, gen_ids = groups._bfs_enumerate(g.degree, gens, g.order, g._closure_base)
    full_perms, full_ids = groups._bfs_enumerate(g.degree, gens, g.order)
    assert perms.dtype == full_perms.dtype and np.array_equal(perms, full_perms)
    assert gen_ids == full_ids


REFLECTION_17 = "(1 16)(2 15)(3 14)(4 13)(5 12)(6 11)(7 10)(8 9)"


@pytest.mark.parametrize(
    "text, form",
    [
        ("perm[(0 1 2 3 4 5 6),(0 1)]", "row"),  # S7 with no base: rows of 6 x 3 bits
        ("C16", "base"),
        ("S7", "base"),  # its base, the first 6 points, is the row but its last image
        ("ASL(3,2)", "base"),
        ("Q8 x D8", "base"),
        ("C17", "base"),
        ("C4000", "base"),
        ("Heis(5)", "base"),
        ("SL(2,17)", "base"),
        ("D256", "base"),
        (" x ".join(["C2"] * 13), "bytes"),  # 13 base points of 5 bits
        (f"perm[({' '.join(map(str, range(17)))}),{REFLECTION_17}]", "bytes"),
    ],
)
def test_closure_keys_base_images_of_one_word_else_rows_of_one_word_else_row_bytes(
    monkeypatch, text, form
):
    g = group(text)
    gens = [g.perms[x] for x in g.generator_ids]
    received = []

    class Words(groups.WordKeys):
        def __init__(self, columns, *args):
            received.append(("words", columns.tolist()))
            super().__init__(columns, *args)

    class Bytes(groups.RowKeys):
        def __init__(self, *args):
            received.append(("bytes", None))
            super().__init__(*args)

    monkeypatch.setattr(groups, "WordKeys", Words)
    monkeypatch.setattr(groups, "RowKeys", Bytes)
    perms, gen_ids = groups._bfs_enumerate(g.degree, gens, g.order, g._closure_base, g.order)
    expected = {
        "row": ("words", list(range(g.degree - 1))),
        "base": ("words", list(g._closure_base or ())),
        "bytes": ("bytes", None),
    }
    assert received == [expected[form]]
    ref_perms, ref_ids = reference_bfs_enumerate(g.degree, gens, g.order)
    assert perms.dtype == ref_perms.dtype and np.array_equal(perms, ref_perms)
    assert gen_ids == ref_ids


@pytest.mark.parametrize(
    "degree, gens, table",
    [
        (8, "(0 1 2 3 4 5 6 7),(0 1)", True),  # S8: rows of 7 x 3 = 21 bits
        (8, "(0 1 2 3 4 5 6),(5 6 7)", True),  # A8
        (8, "(0 1),(0 2 4 6)(1 3 5 7)", True),  # C2 wr C4, on blocks of two
        (8, "(0 1 2),(3 4 5 6 7),(3 4)", True),  # C3 x S5, intransitive
        (9, "(0 1 2 3 4 5 6 7),(0 1)", False),  # S8 fixing a ninth point: 8 x 4 bits
        (9, "(0 1 2 3 4 5 6 7 8),(1 8)(2 7)(3 6)(4 5)", False),  # D9
        (9, "(0 1 2)(3 4 5)(6 7 8),(0 3 6)(1 4 7)(2 5 8),(0 1 2)", False),
    ],
)
def test_closure_of_perm_specs_matches_the_element_queue_either_side_of_the_table_width(
    monkeypatch, degree, gens, table
):
    # a perm spec's order is unknown, so the width alone chooses the table
    gens = [np.array(g) for g in parse_perm_generators(gens, degree)]
    tables = _record_tables(monkeypatch)
    perms, gen_ids = groups._bfs_enumerate(degree, gens, 10**5)
    assert tables == [table]
    ref_perms, ref_ids = reference_bfs_enumerate(degree, gens, 10**5)
    assert perms.dtype == ref_perms.dtype and np.array_equal(perms, ref_perms)
    assert gen_ids == ref_ids


@pytest.mark.parametrize(
    "text, table",
    [
        ("S7", True),  # base images of 6 x 3 bits, a 256 KiB table
        ("SL(2,5)", True),  # base images of 2 x 5 bits
        ("Q8 x D8", True),  # base images of 2 x 4 bits
        ("ASL(3,2)", True),  # base images of 4 x 3 bits, a 4 KiB table
        ("C2 x C2 x C2 x C2 x C2", True),  # base images of 5 x 4 bits, a 1 MiB table for 32 elements
        (" x ".join(["C2"] * 6), False),  # base images of 6 x 4 bits, wider than TABLE_BITS
    ],
)
def test_closure_of_specs_matches_the_element_queue_with_a_table_and_without(monkeypatch, text, table):
    g = group(text)
    gens = [g.perms[x] for x in g.generator_ids]
    tables = _record_tables(monkeypatch)
    perms, gen_ids = groups._bfs_enumerate(g.degree, gens, g.order, g._closure_base, g.order)
    assert tables == [table]
    ref_perms, ref_ids = reference_bfs_enumerate(g.degree, gens, g.order)
    assert perms.dtype == ref_perms.dtype and np.array_equal(perms, ref_perms)
    assert gen_ids == ref_ids


@pytest.mark.parametrize(
    "text, store",
    [
        ("A5", "table"),  # base images of 3 x 3 bits
        ("ASL(3,2)", "table"),
        ("Q8 x D8", "table"),
        ("C2 x C2 x C2 x C2 x C2", "table"),  # base images of 5 x 4 bits
        ("C7 x C7 x C7 x C7", "table"),  # base images of 4 x 5 bits
        (" x ".join(["C2"] * 6), "sorted"),  # base images of 6 x 4 bits
        (" x ".join(["C3"] * 6), "sorted"),  # base images of 6 x 5 bits
        (" x ".join(["C2"] * 12), "argsort"),  # base images of 12 x 5 bits
        ("perm[(0 1),(0 2 4 6 8 10 12 14)(1 3 5 7 9 11 13 15)]", "argsort"),  # C2 wr C8: rows of 15 x 4 bits
        (" x ".join(["C2"] * 13), "bytes"),
        (f"perm[({' '.join(map(str, range(17)))}),{REFLECTION_17}]", "bytes"),
    ],
)
def test_closure_matches_the_element_queue_on_each_key_store(monkeypatch, text, store):
    """A table, the sorted store when a block's position bits fit beside
    its keys and when a stable argsort ranks them, and row bytes."""
    g = group(text)
    gens = [g.perms[x] for x in g.generator_ids]
    stores = []

    class Words(groups.WordKeys):
        def __init__(self, *args):
            super().__init__(*args)
            table, argsort = self.table is not None, self.first_of_equal.ramp is None
            stores.append("table" if table else "argsort" if argsort else "sorted")

    class Bytes(groups.RowKeys):
        def __init__(self, *args):
            super().__init__(*args)
            stores.append("bytes")

    monkeypatch.setattr(groups, "WordKeys", Words)
    monkeypatch.setattr(groups, "RowKeys", Bytes)
    perms, gen_ids = groups._bfs_enumerate(g.degree, gens, g.order, g._closure_base, g.order)
    assert stores == [store]
    ref_perms, ref_ids = reference_bfs_enumerate(g.degree, gens, g.order)
    assert perms.dtype == ref_perms.dtype and np.array_equal(perms, ref_perms)
    assert gen_ids == ref_ids


@st.composite
def key_blocks(draw):
    """A block of keys below 2^width with repeats, in uint64 or intp, and
    the most keys of a block: key << shift | position, shift being the
    position bits of most keys, fits the word or, for FirstOfEqual's
    stable argsort, does not."""
    dtype = draw(st.sampled_from([np.uint64, np.intp]))
    room = 64 if dtype is np.uint64 else 63
    count = draw(st.integers(0, 300))
    most = max(1, count) + draw(st.integers(0, 300))
    shift = max(1, most - 1).bit_length()
    fits = draw(st.booleans())
    width = draw(st.integers(1, room - shift) if fits else st.integers(room - shift + 1, room))
    pool = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=10))
    keys = np.array([draw(st.sampled_from(pool)) for _ in range(count)], dtype=dtype)
    return keys, width, most


@settings(max_examples=200, deadline=None)
@given(key_blocks())
def test_first_of_equal_matches_np_unique(block):
    keys, width, most = block
    given_keys = keys.copy()
    distinct, first = FirstOfEqual(width, most, keys.dtype.type)(keys)
    want_distinct, want_first = np.unique(keys, return_index=True)
    assert distinct.dtype == keys.dtype
    assert np.array_equal(distinct, want_distinct) and np.array_equal(first, want_first)
    assert np.array_equal(keys, given_keys)  # the block is read, not sorted in place


@pytest.mark.parametrize(
    "dtype, width, argsort", [(np.uint64, 52, False), (np.uint64, 53, True), (np.intp, 51, False), (np.intp, 52, True)]
)
def test_first_of_equal_keeps_the_widest_keys_either_side_of_the_fit(dtype, width, argsort):
    # blocks of 4096 keys take 12 position bits: key << 12 | position fills
    # a uint64 at 52 bits and an intp at 51, and one bit more must take the
    # argsort
    top = (1 << width) - 1
    keys = np.array([top, 3, top, 7] * 1024, dtype=dtype)
    first_of_equal = FirstOfEqual(width, 4096, dtype)
    assert (first_of_equal.ramp is None) == argsort
    distinct, first = first_of_equal(keys)
    assert distinct.tolist() == [3, 7, top] and first.tolist() == [1, 3, 0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=300, unique=True), st.data())
def test_insert_merges_new_keys_and_new_ids_into_the_sorted_store(values, data):
    """Word keys: sorted keys inserted at their searchsorted places give
    the sorted union.  Row ids: ids in key order, with the new ids inserted
    in key order at their keys' places, give the argsort of all keys."""
    found = data.draw(st.integers(1, len(values)))
    old, fresh = np.array(values[:found], dtype=np.uint64), np.array(values[found:], dtype=np.uint64)
    seen = np.sort(old)
    keys = np.sort(fresh)
    merged = _insert(seen, seen.searchsorted(keys), keys)
    assert merged.dtype == np.uint64
    assert np.array_equal(merged, np.sort(np.concatenate([seen, keys])))
    order = fresh.argsort()
    ids = _insert(old.argsort(), seen.searchsorted(fresh)[order], found + order)
    assert np.array_equal(ids, np.concatenate([old, fresh]).argsort())


def _record_tables(monkeypatch) -> list[bool]:
    """Whether each WordKeys made from now on keeps its keys in a table."""
    tables = []

    class Words(groups.WordKeys):
        def __init__(self, *args):
            super().__init__(*args)
            tables.append(self.table is not None)

    monkeypatch.setattr(groups, "WordKeys", Words)
    return tables


def test_closure_of_s8_holds_one_table_beside_its_rows():
    gens = [np.array([1, 2, 3, 4, 5, 6, 7, 0]), np.array([1, 0, 2, 3, 4, 5, 6, 7])]
    tracemalloc.start()
    try:
        perms, _ = groups._bfs_enumerate(8, gens, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(perms) == 40320
    # 3.4 MiB measured: the 2 MiB table of 21-bit keys, and the 630 KiB of
    # rows grown by doubling, the order being unknown; the sorted keys
    # took 1.9 MiB
    assert peak < 4 << 20


def test_closure_of_c4000_keeps_no_row_keys():
    tracemalloc.start()
    try:
        build_group(Cyclic(4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 62 MiB measured: the levels and their concatenation, 32 MB each;
    # keyed on whole rows it was 92 MiB, the row bytes another 32 MB
    assert peak < 77 << 20


def test_closure_of_c4000_holds_its_rows_once():
    tracemalloc.start()
    try:
        build_group(Cyclic(4000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows are 4000 x 4000 uint16 entries, 30.5 MiB, written into one
    # array sized by the order: 30.6 MiB measured, against 62 MiB when the
    # levels were kept apart and then concatenated
    assert peak < 34 << 20


@st.composite
def closure_inputs(draw):
    """Generators of a perm group of order at most 720: permutations of 3
    to 6 points acting alike on several copies of them, with fixed points
    after (degree 5 to 40, so keys of one word and of more), relabelled at
    random, with the identity and repeats among them; and a BLOCK_ENTRIES
    small enough that levels span many blocks, or the default."""
    m = draw(st.integers(3, 6))
    copies = draw(st.integers(1, 36 // m))
    degree = max(5, m * copies + draw(st.integers(0, 4)))
    # numpy's generator, not hypothesis' permutations, which shrink towards
    # the identity and would mostly close trivial groups
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label = rng.permutation(degree)
    gens = []
    for perm in (rng.permutation(m) for _ in range(draw(st.integers(1, 3)))):
        row = np.arange(degree)
        row[: m * copies] = (np.arange(copies)[:, None] * m + perm).ravel()
        relabelled = np.empty(degree, dtype=np.intp)
        relabelled[label] = label[row]
        gens.append(relabelled)
    gens.append(np.arange(degree))  # the identity
    extra = draw(st.lists(st.integers(0, len(gens) - 1), max_size=3))
    picks = draw(st.permutations(list(range(len(gens) - 1)) + extra))
    block = draw(st.sampled_from([8, 64, 512, groups.BLOCK_ENTRIES]))
    return degree, [gens[i] for i in picks], block


@settings(max_examples=80, deadline=None)
@given(closure_inputs())
def test_closure_matches_the_element_queue_on_random_perm_specs(inputs):
    degree, gens, block = inputs
    ref_perms, ref_ids = reference_bfs_enumerate(degree, gens, 10**6)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groups, "BLOCK_ENTRIES", block)
        perms, gen_ids = groups._bfs_enumerate(degree, gens, len(ref_perms))
        if len(ref_perms) > 1:
            with pytest.raises(OrderCapExceeded, match=rf"order cap \({len(ref_perms) - 1}\)"):
                groups._bfs_enumerate(degree, gens, len(ref_perms) - 1)
    assert perms.dtype == ref_perms.dtype and np.array_equal(perms, ref_perms)
    assert gen_ids == ref_ids


def test_s8_closure_makes_numpy_calls_per_block_not_per_candidate():
    gens = []
    for a, b in itertools.combinations(range(8), 2):
        row = np.arange(8)
        row[[a, b]] = b, a
        gens.append(row)
    # by the 28 transpositions, level k holds the elements with 8 - k
    # cycles (Stirling numbers of the first kind), in blocks of 4096 // 28
    # frontier rows: 281 blocks over 40320 * 28 = 1128960 candidates
    levels = (1, 28, 322, 1960, 6769, 13132, 13068, 5040)
    blocks = sum(-(-size // (4096 // 28)) for size in levels)
    calls = []

    def count(frame, event, arg):
        if event == "c_call":
            calls.append(arg)

    sys.setprofile(count)
    try:
        perms, _ = groups._bfs_enumerate(8, gens, 40320)
    finally:
        sys.setprofile(None)
    assert len(perms) == 40320
    # 4427 measured (builtins such as len included), about 16 a block; one
    # dict probe per new element made 40319 setdefault calls alone
    assert len(calls) < 20 * blocks


def test_closure_stops_at_the_cap_inside_a_large_level():
    # S8 by its 28 transpositions: the last level holds the 5040 8-cycles,
    # found from 13068 x 28 candidates over many blocks
    transpositions = []
    for i, j in itertools.combinations(range(8), 2):
        row = list(range(8))
        row[i], row[j] = j, i
        transpositions.append(tuple(row))
    spec = PermSpec(8, tuple(transpositions))
    with pytest.raises(OrderCapExceeded, match=r"^group closure exceeds the order cap \(40319\)$"):
        build_group(spec, order_cap=40319)
    assert build_group(spec, order_cap=40320).order == 40320


def test_permutation_outside_the_group_is_rejected():
    # a reversal of Q8 x D8's 16 points has base images no element has
    g = group("Q8 x D8")
    with pytest.raises(ValueError):
        g._ids(np.arange(16)[::-1].take(g._base))


LOOKUP_SPECS = ("S7", "SL(2,17)", "Heis(7) x C2", "A5 x A5", "Q8 x D8")


@pytest.fixture(scope="module")
def lookup_groups(catalog):
    return [g for _, g in catalog] + [group(text) for text in LOOKUP_SPECS]


def test_base_search_picks_the_base_of_the_sorting_search(lookup_groups):
    for g in lookup_groups:
        assert np.array_equal(g._base, reference_base_index(g.perms)[0])


def test_transition_tables_agree_with_the_searchsorted_chain(lookup_groups):
    rng = np.random.default_rng(3)
    s8 = PermAction(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)]).group
    wide = [group(f"perm[{text}]") for text in HIGH_POINT_SPECS]
    assert all(g.perms.dtype == np.uint32 for g in wide)
    for g in lookup_groups + [s8] + wide:
        index = reference_base_index(g.perms)
        every = g.perms[:, g._base]
        assert np.array_equal(g._ids(every), np.arange(g.order))
        assert np.array_equal(reference_ids(g.perms, index, every), np.arange(g.order))
        xs, ys = rng.integers(0, g.order, (2, 300))
        composed = g.perms[xs[:, None], g.perms[ys[:, None], g._base]]
        assert np.array_equal(g._ids(composed), reference_ids(g.perms, index, composed))
        # inverses from base points alone match a lookup of inverted rows
        inverted = np.argsort(g.perms, axis=1)[:, g._base]
        assert np.array_equal(g.inverses, reference_ids(g.perms, index, inverted))
        assert all(level.dtype == np.int32 for level in g._levels)
        assert sum(len(level) for level in g._levels) < g.order + len(g._base)
        # flat takes give the ids of 2-D fancy indexing, shape and dtype too
        assert np.array_equal(g._base_images, g.perms[:, g._base])
        assert np.array_equal(g._ids(composed), reference_level_ids(g, composed))
        shapes = (
            (int(xs[0]), int(ys[0])),  # scalar
            (xs[:, None], ys[:7]),  # outer product
            (xs, int(ys[1])),  # against a scalar
            (xs[:0], ys[:0]),  # empty
            (xs[:0, None], ys[:3]),
        )
        for x_ids, y_ids in shapes:
            got, want = g._product_ids(x_ids, y_ids), reference_product_ids(g, x_ids, y_ids)
            assert got.dtype == want.dtype == np.int32
            assert np.shape(got) == np.shape(want) and np.array_equal(got, want)


# degree 100000, moving only the last points
HIGH_POINT_SPECS = ["(99998 99999)", "(99996 99997 99998 99999),(99996 99997)"]


def test_linear_base_search_gives_the_tables_of_the_sorting_search(lookup_groups):
    s8 = PermAction(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)]).group
    # wide actions, where points that refine nothing are skipped in blocks
    wide = [PermAction(2046, parse_perm_generators(c2_power_gens(10), 2046)).group]
    wide += [group(f"perm[{text}]") for text in HIGH_POINT_SPECS]
    for g in lookup_groups + [s8] + wide:
        base, levels = reference_sorted_transition_tables(g.perms)
        assert np.array_equal(g._base, base) and g._base.dtype == base.dtype
        assert len(g._levels) == len(levels)
        for got, want in zip(g._levels, levels):
            assert got.dtype == want.dtype and np.array_equal(got, want)


def test_base_search_is_linear_in_the_degree():
    # the sort-based search took about 0.5 s on each, and a pass per point
    # over a bool array of states x degree entries about 1.7 s
    for text in HIGH_POINT_SPECS:
        perms = group(f"perm[{text}]").perms
        assert perms.shape[1] == 100_000
        best = min(_seconds(lambda: groups._base_index(perms)) for _ in range(3))
        assert best < 0.1, (text, best)


def _seconds(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


@pytest.mark.parametrize("degree", [3, 1000])
def test_base_search_rejects_repeated_rows(degree):
    rows = np.tile(np.arange(degree, dtype=np.uint16), (3, 1))
    rows[2, [0, 1]] = [1, 0]
    with pytest.raises(InvalidSpec, match="not distinct"):
        groups._base_index(rows)


def test_inverse_images_are_read_in_row_blocks():
    c4000 = group("C4000")
    tracemalloc.start()
    try:
        rebuilt = groups.FiniteGroup(None, c4000.perms, c4000.generator_ids)
        rebuilt.inverses  # the lookup, inverses included, is built on first use
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(rebuilt.inverses, c4000.inverses)
    # one bool per entry of perms for each base point would be 15 MiB
    assert peak < 4 << 20


def _dies_at(g, images):
    """The level whose read first lands on its dead state (the last row of
    the next level, or -1 after the last level), or None."""
    state = 0
    for j, level in enumerate(g._levels):
        state = int(level[state, images[j]])
        nxt = len(g._levels[j + 1]) - 1 if j + 1 < len(g._levels) else -1
        if state == nxt:
            return j
    return None


def test_base_images_no_element_has_are_rejected_at_each_level():
    g = group("A5 x A5")  # base 0, 1, 2 of the left factor, then 5, 6, 7
    assert len(g._base) == 6
    x = g.perms[1234, g._base].astype(np.int64)
    outside, early, middle, last = x.copy(), x.copy(), x.copy(), x.copy()
    outside[0] = 5  # point 0 is never sent into the right factor
    early[1] = x[0]  # two base points with one image
    middle[4] = x[3]
    last[5] = x[3]
    for images, level in ((outside, 0), (early, 1), (middle, 4), (last, 5)):
        assert _dies_at(g, images) == level
        with pytest.raises(ValueError):
            g._ids(images)
        with pytest.raises(ValueError):
            g._ids(np.stack([x, images]))
    assert g._ids(x) == 1234


def test_images_outside_the_points_are_rejected():
    # a flat read at state * degree + image takes an image past the last
    # point from the next row: only the base-image check can tell
    g = group("S7")
    x = g.perms[1234, g._base].astype(np.int64)
    for j in range(len(x)):
        for bad in (x[j] + g.degree, x[j] - g.degree, -1, g.degree * g.order):
            images = x.copy()
            images[j] = bad
            with pytest.raises(ValueError):
                g._ids(images)
            with pytest.raises(ValueError):
                g._ids(np.stack([x, images]))
    assert g._ids(np.stack([x, x])).tolist() == [1234, 1234]


def test_corrupted_table_entry_fails_the_base_image_check():
    g = group("S7")
    x = 4321
    images = g.perms[x, g._base]
    state = 0
    for j, level in enumerate(g._levels[:-1]):
        state = int(level[state, images[j]])
    corrupted = g._levels[-1].copy()
    assert corrupted[state, images[-1]] == x
    corrupted[state, images[-1]] = x + 1  # another element's id
    g._levels[-1] = corrupted
    with pytest.raises(ValueError):
        g._ids(images)
    with pytest.raises(ValueError):
        g.mul_many(x, 0)


@pytest.mark.parametrize("text", ["Q8 x D8", "C128"])
def test_table_check_catches_two_swapped_entries(text):
    g = group(text)
    assert g.order <= groups._ASSOC_EXHAUSTIVE_LIMIT
    groups._smoke_check(g, 0)
    # two entries of one row trade ids: the row is still a permutation of
    # the ids and the identity laws still hold
    table = g.table.copy()
    table[3, [5, 6]] = table[3, [6, 5]]
    g._table = table
    with pytest.raises(InvalidSpec, match="associativity fails"):
        groups._smoke_check(g, 0)


@pytest.mark.parametrize("text", ["C256", "S7"])
def test_sampled_associativity_check_catches_a_wrong_product(text, monkeypatch):
    g = group(text)
    assert g.order > groups._ASSOC_EXHAUSTIVE_LIMIT
    honest = groups.FiniteGroup._product_ids

    def swapped(self, xs, ys):
        # products 1 and 2 trade ids; every id stays a valid element
        got = honest(self, xs, ys)
        return np.where(got == 1, 2, np.where(got == 2, 1, got))

    monkeypatch.setattr(groups.FiniteGroup, "_product_ids", swapped)
    with pytest.raises(InvalidSpec, match="associativity"):
        groups._smoke_check(g, 0)


@pytest.mark.parametrize(
    "text", ["S5", "A6", "SL(2,3)", "ASL(3,2)", "Heis(3) x C4", "Dih(C9)", "SL(1,5)", "A2"]
)
def test_capped_spec_order_is_exact_up_to_the_cap(text):
    from topolab import parse_group_spec

    ast = parse_group_spec(text)
    exact = spec_order(ast)
    assert spec_order(ast, exact) == exact
    assert spec_order(ast, exact + 1) == exact
    if exact > 1:
        assert spec_order(ast, exact - 1) > exact - 1


def test_capped_spec_order_of_huge_specs_is_quick():
    assert spec_order(Symmetric(10**12), 20000) > 20000
    assert spec_order(SpecialLinear(10**6, 2), 20000) > 20000
    assert spec_order(SpecialLinear(1, 10**30 + 57), 20000) == 1


def _spec_nodes(spec):
    """The nodes of a spec tree, itself included."""
    children = (spec.left, spec.right) if isinstance(spec, groups.Product) else ()
    if isinstance(spec, groups.GeneralizedDihedral):
        children = (spec.base,)
    return [spec] + [node for child in children for node in _spec_nodes(child)]


@pytest.mark.parametrize(
    "text",
    [
        " x ".join(["C2"] * 14),
        "perm[(0 1)] x " + " x ".join(["C2"] * 13),  # no order known above the perm spec
        "Dih(C4 x C2) x D8 x S3 x SL(2,3)",
        "Dih(perm[(0 1)] x C3) x C2",
    ],
)
def test_build_group_walks_the_spec_tree_once(monkeypatch, text):
    from topolab import parse_group_spec

    spec = parse_group_spec(text)
    calls = []
    walk = groups.spec_order

    def counting(node, *args):
        calls.append(id(node))
        return walk(node, *args)

    monkeypatch.setattr(groups, "spec_order", counting)
    build_group(spec)
    nodes = _spec_nodes(spec)
    # once a node, and once for the rotations of each dihedral group, a
    # node build_group makes: at most two calls a node
    rotations = sum(isinstance(node, groups.Dihedral) for node in nodes)
    assert all(calls.count(id(node)) == 1 for node in nodes)
    assert len(calls) == len(nodes) + rotations <= 2 * len(nodes)


def test_a_product_over_the_cap_below_a_perm_spec_is_named_before_it_is_built():
    c200 = Cyclic(200)
    spec = groups.Product(PermSpec(2, ((1, 0),)), groups.Product(c200, c200))
    with pytest.raises(OrderCapExceeded, match=r"^spec C200 x C200 has order above the cap \(20000\)$"):
        build_group(spec)


def test_inverse_law_check_reads_full_rows():
    from topolab.groups import FiniteGroup

    s3 = group("S3")
    # S3 on 6 points; points 3 4 5 lie off the base, so inverses stay those of S3
    perms = np.concatenate([s3.perms, np.tile(np.arange(3, 6, dtype=s3.perms.dtype), (6, 1))], axis=1)
    cycle = next(x for x in s3.elements() if all(s3.perms[x, p] != p for p in range(3)))
    perms[cycle, 3:] = [4, 5, 3]  # only this 3-cycle also cycles points 3 4 5
    bent = FiniteGroup(None, perms, s3.generator_ids)
    assert bent.inverses.tolist() == s3.inverses.tolist()
    with pytest.raises(InvalidSpec, match="inverse law"):
        groups._smoke_check(bent, 0)


def test_row_fill_of_the_table_matches_the_column_fill(lattice_groups):
    # every group of the normal-lattice checks that has a table (the
    # catalog, D2000, C4000 and wide abelian products), then quotients
    for name, g in lattice_groups:
        ids = np.arange(g.order)
        rmul = [g._product_ids(ids, s) for s in g.generator_ids]
        assert np.array_equal(g.table, reference_cayley_table(g.order, rmul)), name
    for text, index in (("S4", 1), ("Q8 x D8", 3), ("D2000", 2)):
        g = group(text)
        quotient = quotient_group(g, all_normal_subgroups(g)[index])
        proj = quotient.projection
        reps = np.unique(proj, return_index=True)[1]
        rmul = [proj[g.mul_many(reps, s)] for s in g.generator_ids]
        expected = reference_cayley_table(len(reps), rmul)
        assert np.array_equal(quotient.target.table, expected), text


@pytest.mark.parametrize("text", ["C2 x C256", "Heis(13)"])
def test_row_fill_matches_the_column_fill_past_the_step_set_bound(text):
    # in C2 x C256 the step set reaches isqrt(n) = 22 partway through a
    # level of 16; Heis(13) is nonabelian, and its third level already
    # holds 215 elements against isqrt(n) = 46
    g = group(text)
    ids = np.arange(g.order)
    rmul = [g._product_ids(ids, s) for s in g.generator_ids]
    assert np.array_equal(g.table, reference_cayley_table(g.order, rmul))


def _left_rows(g):
    ids = np.arange(g.order)
    return [g._product_ids(s, ids) for s in g.generator_ids]


def test_table_of_a_proper_subgroup_is_refused():
    c4000 = group("C4000")
    (row,) = _left_rows(c4000)
    square = row[row]  # left multiplication by the generator squared
    with pytest.raises(InvalidSpec, match="generators do not generate the group"):
        groups.cayley_table(c4000.order, [square])
    with pytest.raises(InvalidSpec, match="generators do not generate the group"):
        groups.cayley_table(2, [])


def test_table_of_c4000_takes_about_sqrt_n_levels(monkeypatch):
    c4000 = group("C4000")
    lmul = _left_rows(c4000)
    levels = []
    honest = np.unique
    monkeypatch.setattr(groups.np, "unique", lambda *a, **k: levels.append(1) or honest(*a, **k))
    table = groups.cayley_table(c4000.order, lmul)
    monkeypatch.undo()
    assert np.array_equal(table[:, 0], np.arange(c4000.order))
    # one np.unique per level; a fill one generator level at a time takes 4000
    n = c4000.order
    assert len(levels) <= 2 * math.isqrt(n) + math.ceil(math.log2(n))


@pytest.mark.parametrize("text", ["C4000", "D2000", "ASL(3,2)"])
def test_table_fill_keeps_its_temporaries_in_row_blocks(text):
    g = group(text)
    lmul = _left_rows(g)
    tracemalloc.start()
    try:
        groups.cayley_table(g.order, lmul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the table's own int32 entries, plus about 1 MiB of block temporaries;
    # with one level-wide index C4000 took 3 MiB above it and ASL(3,2) 13 MiB
    assert peak < 4 * g.order**2 + (2 << 20)


@pytest.mark.parametrize("text", ["C128", "Q8 x D8", "ASL(3,2)"])
def test_table_is_built_once_per_group(text, monkeypatch):
    # up to order 128 the lookup's checks read the table: the table read
    # that builds the lookup must not build the table a second time
    builds = []
    honest = groups.cayley_table
    monkeypatch.setattr(groups, "cayley_table", lambda n, lmul: builds.append(n) or honest(n, lmul))
    g = group(text)
    built_before = len(builds)
    g.mul_many(1, 2)
    assert g.table is g.table
    g.mul_many(np.arange(g.order), 3)
    assert builds[built_before:] == [g.order]
    assert builds.count(g.order) == 1


def _count_table_builds(monkeypatch) -> list[int]:
    builds = []
    honest = groups.cayley_table
    monkeypatch.setattr(groups, "cayley_table", lambda n, lmul: builds.append(n) or honest(n, lmul))
    return builds


def _catalog_queries(text):
    """The four catalog queries on text, each on a fresh group: classify,
    semitop with and without steps from the discrete to the indiscrete
    kernel, and the Taimanov witness."""
    from topolab import cli, taimanov_topology

    g = group(text)
    top = [n.order for n in all_normal_subgroups(g)].index(g.order)
    semitop = ["semitop", text, "--from", "0", "--to", str(top)]
    yield lambda: cli.main(["classify", text, "--json"])
    yield lambda: cli.main(semitop + ["--steps"])
    yield lambda: cli.main(semitop)
    yield lambda: taimanov_topology(group(text))


def test_catalog_groups_up_to_order_128_build_one_table_a_query(monkeypatch, capsys):
    # the lookup's exhaustive check reads the table up to order 128, and
    # every later product reads that same table; a query that builds no
    # lookup for the group (the Taimanov witness of C1) builds no table
    honest = groups.FiniteGroup._build_index
    for text, ast in catalog_entries(groups._ASSOC_EXHAUSTIVE_LIMIT):
        order = spec_order(ast)
        for query in _catalog_queries(text):
            builds, indexed = _count_table_builds(monkeypatch), []
            monkeypatch.setattr(
                groups.FiniteGroup, "_build_index", lambda g: indexed.append(g.order) or honest(g)
            )
            query()
            monkeypatch.undo()
            assert builds.count(order) == indexed.count(order), (text, builds)
            assert indexed.count(order) == 1 or text == "C1", text
    capsys.readouterr()


@pytest.mark.parametrize("text", ["ASL(3,2)", "C4000", "A5 x A5"])
def test_groups_reading_few_products_build_no_table(text, monkeypatch, capsys):
    # ASL(3,2)'s largest catalog query meters about 370k of 1344^2 = 1.8M
    # entries; C4000's lattice about 3.0M of 16M
    queries = list(_catalog_queries(text))
    if text != "ASL(3,2)":
        queries = queries[:1]  # classify
    for query in queries:
        builds = _count_table_builds(monkeypatch)
        query()
        monkeypatch.undo()
        assert builds == [], text
    capsys.readouterr()


@pytest.mark.parametrize("text", ["C256", "D256", "ASL(3,2)"])
def test_the_meter_builds_one_table_and_keeps_every_product(text, monkeypatch):
    builds = _count_table_builds(monkeypatch)
    g = group(text)
    built_before = len(builds)
    ids = np.arange(g.order)
    width = 256  # products a call
    calls = -(-(g.order**2) // (width + groups.CALL_CHARGE))  # calls that fill the meter
    rng = np.random.default_rng(7)
    pairs = rng.integers(g.order, size=(calls + 3, 2, width))
    for call, (xs, ys) in enumerate(pairs):
        assert (g._table is None) == (call <= calls), call
        got = g.mul_many(xs, ys)
        assert got.dtype == np.int32
        assert np.array_equal(got, g._product_ids(xs, ys)), call
    assert builds[built_before:] == [g.order]
    assert np.array_equal(g.mul_many(ids[:, None], ids), g._product_ids(ids[:, None], ids))
    # one product at a time, from the table and from a fresh group's lookup
    fresh = group(text)
    for x, y in pairs[0].T[:3].tolist():  # 12 calls, under C256's 16
        assert g.mul(x, y) == fresh.mul(x, y) == g.mul_many(x, y) == fresh.mul_many(x, y)
    assert fresh._table is None


def test_no_table_above_the_limit_whatever_the_meter_reads():
    g = group("S7")
    assert g.order > groups.TABLE_LIMIT
    g._metered = g.order**2
    assert g.mul_many(np.arange(5), 3).tolist() == g._product_ids(np.arange(5), 3).tolist()
    assert g._table is None and g.table is None


def test_classify_c4000_allocates_far_less_than_its_table():
    from topolab.classify import classify

    c4000 = group("C4000")
    c4000.inverses  # the lookup, 6.2 MiB traced to build, before tracing
    tracemalloc.start()
    try:
        classify(c4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c4000._table is None
    # measured 1.6 MiB; the dense table alone is 4 * 4000^2 bytes = 61 MiB,
    # and with it the traced peak was 62.6 MiB
    assert peak < 8 << 20


def test_lookup_checks_run_on_the_first_product_of_a_bent_group(monkeypatch):
    s3 = group("S3")
    # the rows of test_inverse_law_check_reads_full_rows, closed by build_group's path
    perms = np.concatenate([s3.perms, np.tile(np.arange(3, 6, dtype=s3.perms.dtype), (6, 1))], axis=1)
    cycle = next(x for x in s3.elements() if all(s3.perms[x, p] != p for p in range(3)))
    perms[cycle, 3:] = [4, 5, 3]
    monkeypatch.setattr(
        groups, "_bfs_enumerate", lambda degree, gens, cap, base=None, order=None: (perms, s3.generator_ids)
    )
    bent = groups._assemble(None, 6, [], 100, 0, 6)  # order and identity row pass
    for _ in range(2):  # the lookup is never handed out unchecked
        with pytest.raises(InvalidSpec, match="inverse law"):
            bent.mul_many(1, 2)
    with pytest.raises(InvalidSpec, match="inverse law"):
        bent.inverses


@pytest.mark.parametrize(
    "count, width, start",
    [(0, 5, 0), (1, 0, 0), (10, 0, 0), (100, 3, 0), (100, 7, 40), (5, 40, 0), (9, 40, 3), (17, 16, 17)],
)
def test_row_blocks_cover_every_row_once_in_order(monkeypatch, count, width, start):
    monkeypatch.setattr(groups, "BLOCK_ENTRIES", 16)  # width 40 is above it
    blocks = list(groups.row_blocks(count, width, start))
    covered = [row for block in blocks for row in range(count)[block]]
    assert covered == list(range(start, count))
    for block in blocks:
        rows = block.stop - block.start
        assert rows >= 1 and (rows == 1 or rows * width <= 16), block
    # as many rows per block as fit, so no more blocks than needed
    assert len(blocks) == -(-(count - start) // max(1, 16 // max(1, width)))
