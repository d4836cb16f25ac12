import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    _oracle_classes,
    brute_closure,
    brute_commutator_subgroup,
    brute_is_subgroup,
    find_element,
    group,
    oracle_normal_subgroups,
    reference_quotient_center,
    reference_small_generating_set,
)
from topolab import (
    NotNormal,
    all_normal_subgroups,
    are_conjugate,
    center,
    commutator_subgroup,
    conjugacy_classes,
    full_subgroup,
    generated_subgroup,
    lower_central_series,
    nilpotency_class,
    normal_closure,
    normalizer,
    quotient_center,
    quotient_group,
    subgroup,
    subgroup_as_group,
    upper_central_series,
)
from topolab.subgroups import (
    Subgroup,
    _class_labels,
    _closure,
    normal_lattice,
    trivial_subgroup,
)


# D2000 has long classes whose ids increase along conjugation, C4000 has
# 4000 singleton classes
CLASS_SPECS = ("S7", "SL(2,17)", "Heis(7) x C2", "A5 x A5", "D2000", "C4000")


def test_class_labels_match_the_oracle_classes(catalog):
    for name, g in list(catalog) + [(text, group(text)) for text in CLASS_SPECS]:
        expected = _oracle_classes(g)
        smallest = np.empty(g.order, dtype=np.int64)
        for cls in expected:
            smallest[list(cls)] = cls[0]
        labels = _class_labels(g)
        assert np.array_equal(labels, smallest) and not labels.flags.writeable, name
        assert conjugacy_classes(g) == tuple(expected), name


def test_closure_keeps_the_reference_generators(catalog64):
    for name, g in catalog64:
        for n in all_normal_subgroups(g):
            mask, gens = _closure(g, np.flatnonzero(n.mask))
            assert np.array_equal(mask, n.mask), name
            assert gens == reference_small_generating_set(g, n), (name, n.order)


def test_generated_subgroup_examples():
    s3 = group("S3")
    assert generated_subgroup(s3, []).elements == (0,)
    assert generated_subgroup(s3, s3.generator_ids).order == 6

    s4 = group("S4")
    a = find_element(s4, (1, 0, 3, 2))  # (0 1)(2 3)
    b = find_element(s4, (2, 3, 0, 1))  # (0 2)(1 3)
    klein = generated_subgroup(s4, [a, b])
    assert klein.order == 4
    assert list(klein.elements) == brute_closure(s4, [a, b])


def test_generated_subgroup_matches_brute_closure():
    s4 = group("S4")
    rng = np.random.default_rng(3)
    for _ in range(20):
        seed = [int(x) for x in rng.integers(0, 24, rng.integers(1, 4))]
        assert list(generated_subgroup(s4, seed).elements) == brute_closure(s4, seed)


def test_normal_closure_examples():
    s4 = group("S4")
    assert normal_closure(s4, [0]).elements == (0,)
    transposition = find_element(s4, (1, 0, 2, 3))
    assert normal_closure(s4, [transposition]).order == 24
    three_cycle = find_element(s4, (1, 2, 0, 3))
    assert normal_closure(s4, [three_cycle]).order == 12


def test_normal_closure_contains_generated(catalog24):
    for _, g in catalog24:
        rng = np.random.default_rng(g.order)
        for _ in range(5):
            seed = [int(x) for x in rng.integers(0, g.order, 2)]
            gen = generated_subgroup(g, seed)
            ncl = normal_closure(g, seed)
            assert gen.issubset(ncl)
            if gen.is_normal:
                assert gen == ncl


@pytest.mark.parametrize(
    "spec_text, orders",
    [("C6", [1, 2, 3, 6]), ("S4", [1, 4, 12, 24]), ("A5", [1, 60])],
)
def test_all_normal_subgroups_examples(spec_text, orders):
    g = group(spec_text)
    assert [n.order for n in all_normal_subgroups(g)] == orders


def test_all_normal_subgroups_match_class_union_filter(catalog24):
    # independent oracle: a normal subgroup is exactly a subgroup that is a
    # union of conjugacy classes; enumerate all identity-containing unions
    for name, g in catalog24:
        classes = conjugacy_classes(g)
        others = [c for c in classes if c[0] != 0]
        if len(others) > 14:
            continue
        expected = set()
        for take in itertools.product((False, True), repeat=len(others)):
            elems = {0}
            for flag, cls in zip(take, others):
                if flag:
                    elems.update(cls)
            if brute_is_subgroup(g, elems):
                expected.add(tuple(sorted(elems)))
        got = {n.elements for n in all_normal_subgroups(g)}
        assert got == expected, name


def test_all_normal_subgroups_are_normal_and_sorted(catalog64):
    for _, g in catalog64:
        normals = all_normal_subgroups(g)
        keys = [(n.order, n.elements) for n in normals]
        assert keys == sorted(keys)
        assert normals[0].order == 1 and normals[-1].order == g.order
        for n in normals:
            assert n.is_normal


def test_commutator_subgroup_examples():
    s4 = group("S4")
    full = full_subgroup(s4)
    assert commutator_subgroup(s4, full, trivial_subgroup(s4)).order == 1
    derived = commutator_subgroup(s4, full, full)
    assert derived.order == 12
    assert list(derived.elements) == brute_commutator_subgroup(
        s4, s4.elements(), s4.elements()
    )
    v4 = all_normal_subgroups(s4)[1]
    assert commutator_subgroup(s4, full, v4) == v4


def test_commutator_with_normal_stays_inside(catalog24):
    for _, g in catalog24:
        full = full_subgroup(g)
        for n in all_normal_subgroups(g):
            assert commutator_subgroup(g, full, n).issubset(n)


def test_lower_central_series_examples():
    assert [t.order for t in lower_central_series(group("C6")).terms] == [6, 1]
    assert [t.order for t in lower_central_series(group("Heis(3)")).terms] == [27, 3, 1]
    s3_terms = lower_central_series(group("S3")).terms
    assert [t.order for t in s3_terms] == [6, 3, 3]
    assert s3_terms[-1] == s3_terms[-2]
    # a perfect group stalls at once: G itself is the one repeated term
    assert [t.order for t in lower_central_series(group("A5")).terms] == [60, 60]
    assert [t.order for t in lower_central_series(group("SL(2,5)")).terms] == [120, 120]
    assert [t.order for t in lower_central_series(group("C1")).terms] == [1]


def test_upper_central_series_examples():
    assert [t.order for t in upper_central_series(group("C6")).terms] == [1, 6]
    assert [t.order for t in upper_central_series(group("S3")).terms] == [1, 1]
    assert [t.order for t in upper_central_series(group("Heis(3)")).terms] == [1, 3, 27]


def test_nilpotency_class_examples():
    assert nilpotency_class(group("C5")) == 1
    assert nilpotency_class(group("Heis(3)")) == 2
    assert nilpotency_class(group("S3")) is None
    assert nilpotency_class(group("C1")) == 1


def test_series_duality(catalog64):
    for name, g in catalog64:
        lower = lower_central_series(g)
        upper = upper_central_series(g)
        lower_reaches = lower.terms[-1].order == 1
        upper_reaches = upper.terms[-1].order == g.order
        assert lower_reaches == upper_reaches, name
        if lower_reaches:
            down = max(
                1, next(i for i, t in enumerate(lower.terms) if t.order == 1)
            )
            up = max(
                1, next(i for i, t in enumerate(upper.terms) if t.order == g.order)
            )
            assert down == up == nilpotency_class(g), name


def test_quotient_examples():
    s4 = group("S4")
    normals = all_normal_subgroups(s4)
    identity_quotient = quotient_group(s4, normals[0])
    assert identity_quotient.target is s4
    assert list(identity_quotient.projection) == list(s4.elements())
    whole = quotient_group(s4, normals[-1])
    assert whole.target.order == 1
    v4 = normals[1]
    assert quotient_group(s4, v4).target.order == 6


def test_quotient_requires_normal():
    s4 = group("S4")
    transposition = find_element(s4, (1, 0, 2, 3))
    sub = generated_subgroup(s4, [transposition])
    with pytest.raises(NotNormal):
        quotient_group(s4, sub)


def test_quotient_projection_is_homomorphism(catalog):
    rng = np.random.default_rng(0)
    for name, g in catalog:
        if g.order > 256 and g.order != 1344:
            continue
        xs = rng.integers(0, g.order, 10_000)
        ys = rng.integers(0, g.order, 10_000)
        table = g.table
        for n in all_normal_subgroups(g):
            quo = quotient_group(g, n)
            proj = quo.projection
            lhs = proj[table[xs, ys]]
            qt = quo.target.table
            rhs = qt[proj[xs], proj[ys]]
            assert np.array_equal(lhs, rhs), name


# groups beyond the catalog with large orders, wide lattices or both
QUOTIENT_CENTER_SPECS = ("S7", "SL(2,17)", "Heis(7) x C2", "A5 x A5", "Q8 x D8")


def _catalog_and_extras(catalog):
    return list(catalog) + [(text, group(text)) for text in QUOTIENT_CENTER_SPECS]


def test_quotient_center_matches_the_built_quotient(catalog):
    for name, g in _catalog_and_extras(catalog):
        for n in all_normal_subgroups(g):
            got = quotient_center(g, n)
            assert got.elements == reference_quotient_center(g, n), (name, n.order)
            assert got.is_normal and n.issubset(got), name


def test_upper_central_series_matches_the_built_quotients(catalog):
    for name, g in _catalog_and_extras(catalog):
        expected = [(0,)]
        while len(expected[-1]) < g.order:
            kernel = Subgroup(g, expected[-1], _normal=True)
            expected.append(reference_quotient_center(g, kernel))
            if expected[-1] == expected[-2]:
                break
        assert [t.elements for t in upper_central_series(g).terms] == expected, name


def test_quotient_center_requires_normal():
    s4 = group("S4")
    sub = generated_subgroup(s4, [find_element(s4, (1, 0, 2, 3))])
    with pytest.raises(NotNormal):
        quotient_center(s4, sub)


def test_center_image_lands_in_quotient_center(catalog64):
    for name, g in catalog64:
        z = set(center(g))
        for n in all_normal_subgroups(g):
            quo = quotient_group(g, n)
            zq = set(center(quo.target))
            assert {int(quo.projection[x]) for x in z} <= zq, name


def test_normalizer_examples():
    s4 = group("S4")
    v4 = all_normal_subgroups(s4)[1]
    assert normalizer(full_subgroup(s4), v4).order == 24

    t01 = find_element(s4, (1, 0, 2, 3))
    t23 = find_element(s4, (0, 1, 3, 2))
    sub = generated_subgroup(s4, [t01])
    norm = normalizer(full_subgroup(s4), sub)
    assert norm == generated_subgroup(s4, [t01, t23])
    assert norm.order == 4

    s3 = group("S3")
    stab = Subgroup(s3, [x for x in s3.elements() if s3.element_perm(x)[2] == 2])
    assert normalizer(full_subgroup(s3), stab) == stab


def test_are_conjugate_examples():
    s4 = group("S4")
    ambient = full_subgroup(s4)
    t01 = find_element(s4, (1, 0, 2, 3))
    sub = generated_subgroup(s4, [t01])
    ok, witness = are_conjugate(ambient, sub, sub)
    assert ok and witness == 0

    stab3 = Subgroup(s4, [x for x in s4.elements() if s4.element_perm(x)[3] == 3])
    stab0 = Subgroup(s4, [x for x in s4.elements() if s4.element_perm(x)[0] == 0])
    ok, witness = are_conjugate(ambient, stab3, stab0)
    assert ok
    conj = {s4.conjugate(witness, x) for x in stab3.elements}
    assert conj == stab0.element_set

    dbl = find_element(s4, (1, 0, 3, 2))
    ok, witness = are_conjugate(ambient, sub, generated_subgroup(s4, [dbl]))
    assert not ok and witness is None


def test_subgroup_as_group_is_faithful():
    s4 = group("S4")
    a4 = all_normal_subgroups(s4)[2]
    host, embed = subgroup_as_group(a4)
    assert host.order == 12
    for x in host.elements():
        for y in host.elements():
            assert embed[host.mul(x, y)] == s4.mul(int(embed[x]), int(embed[y]))


def test_large_group_normal_lattice_and_subgroup_materialization():
    s7 = group("S7")
    normals = all_normal_subgroups(s7)
    assert [n.order for n in normals] == [1, 2520, 5040]
    a7, embed = subgroup_as_group(normals[1])
    assert a7.order == 2520
    assert len(center(a7)) == 1
    rng = __import__("numpy").random.default_rng(5)
    for x, y in rng.integers(0, 2520, (30, 2)):
        assert embed[a7.mul(int(x), int(y))] == s7.mul(int(embed[x]), int(embed[y]))


def test_lattice_matches_class_join_oracle(catalog64):
    extra = [(text, group(text)) for text in ("C2 x C2 x C2 x C2 x C2", "C2 x C2 x C2 x C4")]
    for name, g in catalog64 + extra:
        lattice = normal_lattice(g)
        got = [(n.order, n.elements) for n in lattice.subgroups]
        assert got == oracle_normal_subgroups(g), name
        assert all(
            np.flatnonzero(row).tolist() == list(n.elements)
            for row, n in zip(lattice.masks, lattice.subgroups)
        ), name
        # contains[i, j] is N_i <= N_j, checked on the element sets
        nested = [[a.issubset(b) for b in lattice.subgroups] for a in lattice.subgroups]
        assert lattice.contains.tolist() == nested, name


def test_lattice_just_above_the_bound_fails():
    from topolab import OrderCapExceeded
    from topolab.subgroups import NORMAL_LATTICE_BOUND

    # C2^7 has 29212 normal subgroups, C2^6 has 2825
    assert 2825 <= NORMAL_LATTICE_BOUND < 29212
    with pytest.raises(OrderCapExceeded):
        all_normal_subgroups(group("C2 x C2 x C2 x C2 x C2 x C2 x C2"))


def test_elementary_abelian_lattice_blowup_fails_fast():
    from topolab import OrderCapExceeded

    g = group("C2 x C2 x C2 x C2 x C2 x C2 x C2 x C2 x C2")  # 2^9
    with pytest.raises(OrderCapExceeded):
        all_normal_subgroups(g)


def test_commutator_fast_path_matches_all_pairs():
    # the normal-arguments shortcut must agree with the quadratic definition
    for text in ("S4", "Q8", "Heis(3)", "Dih(C9)"):
        g = group(text)
        full = full_subgroup(g)
        for n in all_normal_subgroups(g):
            fast = commutator_subgroup(g, full, n)
            brute = brute_commutator_subgroup(g, g.elements(), n.elements)
            assert list(fast.elements) == brute, (text, n.order)


def test_subgroup_constructor_verifies():
    s4 = group("S4")
    four_cycle = find_element(s4, (1, 2, 3, 0))
    with pytest.raises(ValueError):
        subgroup(s4, [0, four_cycle])  # not closed: misses the square
    assert subgroup(s4, range(24)).order == 24


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(0, 23), min_size=1, max_size=4))
def test_generated_subgroup_is_closed(seed):
    s4 = group("S4")
    sub = generated_subgroup(s4, seed)
    assert brute_is_subgroup(s4, sub.elements)
    assert set(seed) <= set(sub.elements)


@pytest.mark.parametrize("make", [Subgroup, subgroup, generated_subgroup, normal_closure])
@pytest.mark.parametrize("ids", [[0, 99], [-1]])
def test_out_of_range_element_ids_are_rejected(make, ids):
    # -1 must not wrap around to the last element
    with pytest.raises(ValueError, match="element ids must lie in 0..5"):
        make(group("S3"), ids)


def test_subgroup_from_ids_equals_subgroup_from_mask(catalog64):
    for name, g in catalog64:
        for n in all_normal_subgroups(g):
            by_ids = Subgroup(g, n.elements)
            by_mask = Subgroup(g, n.mask.copy())
            assert by_ids == by_mask and hash(by_ids) == hash(by_mask), name
            assert by_ids.elements == by_mask.elements == n.elements, name
            assert not by_ids.mask.flags.writeable and not by_mask.mask.flags.writeable, name


def test_commutator_cache_is_shared_by_ids_and_mask_subgroups():
    g = group("S4")
    full = full_subgroup(g)
    klein = all_normal_subgroups(g)[1]
    assert klein.order == 4
    first = commutator_subgroup(g, full, Subgroup(g, klein.elements, _normal=True))
    again = commutator_subgroup(g, full, Subgroup(g, klein.mask.copy(), _normal=True))
    assert again is first


def test_lattice_subgroups_are_read_only_views_of_the_masks(catalog64):
    for name, g in catalog64:
        lattice = normal_lattice(g)
        for k, sub in enumerate(lattice.subgroups):
            assert np.shares_memory(sub.mask, lattice.masks[k]), (name, k)
            assert not sub.mask.flags.writeable, (name, k)


@pytest.mark.parametrize("text", ["Q8 x D8", "S4"])
def test_cache_keys_hold_no_element_tuples(text):
    from topolab.classify import classify

    g = group(text)
    classify(g)
    lattice = normal_lattice(g)
    quotient_group(g, lattice.subgroups[1])
    subgroup_as_group(lattice.subgroups[1])
    for key in g._cache:
        assert isinstance(key, str) or (
            len(key) == 2 and isinstance(key[0], str) and isinstance(key[1], (bytes, int))
        ), key
