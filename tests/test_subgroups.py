import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CLASS_ROUTE_SPECS,
    EXTRA_LATTICE_SPECS,
    LATTICE_SPECS,
    _oracle_classes,
    brute_closure,
    brute_commutator_subgroup,
    brute_is_subgroup,
    find_element,
    group,
    oracle_normal_subgroups,
    reference_commutator_with_g,
    reference_coset_labels,
    reference_normal_lattice_masks,
    reference_are_conjugate,
    reference_comm_index,
    reference_contains,
    reference_normalizer,
    reference_principal_closures,
    reference_quotient_center,
    reference_small_generating_set,
)
from topolab import (
    InvalidSpec,
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
    NormalLattice,
    Subgroup,
    _class_labels,
    _class_members,
    _closure,
    _coset_labels,
    _JoinTable,
    _orbit_minima,
    _powers,
    _principal_closures,
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


@pytest.mark.parametrize("text", ["Q8 x D8", "C2 x C256"])
def test_quotient_checks_catch_two_swapped_entries(text, monkeypatch):
    # the target is checked as every built group is: exhaustively up to
    # order 128 (Q8 x D8 modulo an order-2 kernel has order 32), by samples
    # above it (C2 x C256 modulo one has order 256)
    import topolab.subgroups as subgroups_module

    g = group(text)
    kernel = all_normal_subgroups(g)[1]
    honest = subgroups_module.cayley_table

    def swapped(n, lmul):
        # two entries of one row trade ids: every row is still a permutation
        rows = honest(n, lmul)
        rows[3, [5, 6]] = rows[3, [6, 5]]
        return rows

    monkeypatch.setattr(subgroups_module, "cayley_table", swapped)
    target = quotient_group(g, kernel).target
    assert kernel.order == 2 and target.order == g.order // 2
    with pytest.raises(InvalidSpec):
        target.mul(1, 2)


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
    conj = {s4.mul(s4.mul(witness, x), s4.inv(witness)) for x in stab3.elements}
    assert conj == stab0.element_set

    dbl = find_element(s4, (1, 0, 3, 2))
    ok, witness = are_conjugate(ambient, sub, generated_subgroup(s4, [dbl]))
    assert not ok and witness is None


def _cyclic_and_normal_subgroups(g):
    """The normal subgroups, then the non-normal cyclic ones by order."""
    cyclic = {generated_subgroup(g, [x]) for x in g.elements()}
    apart = sorted((c for c in cyclic if not c.is_normal), key=lambda c: (c.order, c.elements))
    return list(all_normal_subgroups(g)) + apart


@pytest.mark.parametrize("text", ["S4", "A5", "Q8 x C2"])
def test_conjugation_kernel_matches_elementwise_references(monkeypatch, text):
    import topolab.subgroups as subgroups_module

    monkeypatch.setattr(subgroups_module, "BLOCK_ENTRIES", 16)  # several row blocks per call
    g = group(text)
    subs = _cyclic_and_normal_subgroups(g)
    full = full_subgroup(g)
    for sub in subs:
        # a fresh Subgroup: the lattice members come with _normal set
        assert Subgroup(g, sub.elements).is_normal == (len(reference_normalizer(full, sub)) == g.order)
    for ambient in all_normal_subgroups(g):
        inside = [sub for sub in subs if sub.issubset(ambient)]
        for sub in inside:
            assert normalizer(ambient, sub).elements == reference_normalizer(ambient, sub), (text, sub)
        for first, second in itertools.product(inside, repeat=2):
            expected = reference_are_conjugate(ambient, first, second)
            assert are_conjugate(ambient, first, second) == expected, (text, first, second)


def test_commutator_subgroup_of_non_normal_subgroups_matches_all_pairs(monkeypatch):
    import topolab.groups as groups_module
    import topolab.subgroups as subgroups_module

    monkeypatch.setattr(subgroups_module, "BLOCK_ENTRIES", 16)
    monkeypatch.setattr(groups_module, "BLOCK_ENTRIES", 16)  # several row_blocks per call
    s4 = group("S4")
    stabilizers = [Subgroup(s4, [x for x in s4.elements() if s4.element_perm(x)[k] == k]) for k in (0, 3)]
    subs = [sub for sub in _cyclic_and_normal_subgroups(s4) if not sub.is_normal] + stabilizers
    for left, right in itertools.product(subs, repeat=2):
        expected = brute_commutator_subgroup(s4, left.elements, right.elements)
        assert list(commutator_subgroup(s4, left, right).elements) == expected, (left, right)


@pytest.mark.parametrize("text", ["S4", "D16", "Heis(3)", "A4", "Q8 x C2"])
def test_commutator_subgroup_of_normal_subgroups_below_g_matches_all_pairs(text):
    # left normal and not G: the closure reads left's generators off its mask
    g = group(text)
    normals = all_normal_subgroups(g)
    lefts = [n for n in normals if 1 < n.order < g.order]
    rights = [m for m in normals if m.order > 1]
    assert lefts
    for left, right in itertools.product(lefts, rights):
        expected = brute_commutator_subgroup(g, left.elements, right.elements)
        assert list(commutator_subgroup(g, left, right).elements) == expected, (text, left, right)


def test_the_trivial_group_is_normal_in_itself():
    c1 = group("C1")
    assert c1.generator_ids == ()
    assert trivial_subgroup(c1).is_normal
    assert Subgroup(c1, [0]).is_normal  # decided over no generators


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
    texts = ("C2 x C2 x C2 x C2 x C2", "C2 x C2 x C2 x C4") + EXTRA_LATTICE_SPECS
    extra = [(text, group(text)) for text in texts]
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


def test_lattice_store_holds_exactly_the_members_the_bound_allows(monkeypatch):
    import topolab.subgroups as subgroups_module
    from topolab import OrderCapExceeded

    spec = "C2 x C2 x C2 x C2 x C2 x C2"  # 2825 normal subgroups
    expected = [sub.packed for sub in all_normal_subgroups(group(spec))]
    monkeypatch.setattr(subgroups_module, "NORMAL_LATTICE_BOUND", 2825)
    assert [sub.packed for sub in normal_lattice(group(spec)).subgroups] == expected
    monkeypatch.setattr(subgroups_module, "NORMAL_LATTICE_BOUND", 2824)
    with pytest.raises(OrderCapExceeded, match="exceeds 2824 entries"):
        normal_lattice(group(spec))


def test_elementary_abelian_lattice_blowup_fails_fast():
    from topolab import OrderCapExceeded

    g = group("C2 x C2 x C2 x C2 x C2 x C2 x C2 x C2 x C2")  # 2^9
    with pytest.raises(OrderCapExceeded):
        all_normal_subgroups(g)


def _class_route_groups(lattice_groups):
    return lattice_groups + [(text, group(text)) for text in EXTRA_LATTICE_SPECS + CLASS_ROUTE_SPECS]


def _class_union_seeds(g):
    """Seeds that are unions of conjugacy classes: single classes, evenly
    spaced when there are more than 48, each of those with the class after
    it, and the classes of every normal subgroup."""
    classes = conjugacy_classes(g)
    picked = list(range(1, len(classes), max(1, len(classes) // 48)))
    seeds = [np.array(classes[c]) for c in picked]
    seeds += [np.array(classes[c] + classes[(c + 1) % len(classes)]) for c in picked]
    return seeds + [np.flatnonzero(n.mask) for n in all_normal_subgroups(g)]


def test_class_members_list_every_class_in_order(lattice_groups):
    for name, g in _class_route_groups(lattice_groups):
        starts, ids = _class_members(g)
        classes = conjugacy_classes(g)
        assert all(tuple(ids[starts[cls[0]] : starts[cls[0] + 1]].tolist()) == cls for cls in classes), name
        assert np.count_nonzero(np.diff(starts)) == len(classes), name


def test_class_mode_closure_matches_the_element_path(lattice_groups):
    """Over every seed that is a union of classes, with and without G as
    the bound, class mode gives the element path's mask and keeps the
    smallest members of the classes it multiplied by, increasing."""
    for name, g in _class_route_groups(lattice_groups):
        labels = _class_labels(g)
        full = np.ones(g.order, dtype=bool)
        for seed in _class_union_seeds(g):
            expected = _closure(g, seed)[0]
            for within in (None, full):
                mask, kept = _closure(g, seed, within, True)
                assert np.array_equal(mask, expected), (name, len(seed))
                assert kept == sorted(kept) and np.array_equal(labels[kept], kept), (name, len(seed))
                assert set(kept) <= set(labels[seed].tolist()), (name, len(seed))


def test_commutator_with_g_matches_all_pairs_on_every_member(lattice_groups):
    """[G, N] from G's generators and N's class minima, for every lattice
    member N, against every [x, n] with x in G and n in N."""
    for name, g in _class_route_groups(lattice_groups):
        full = full_subgroup(g)
        for n in all_normal_subgroups(g):
            got = commutator_subgroup(g, full, n)
            assert np.array_equal(got.mask, reference_commutator_with_g(g, n)), (name, n.order)


@pytest.mark.parametrize("text, classes", [("S7", 15), ("SL(2,17)", 21), ("ASL(3,2)", 11)])
def test_class_labels_read_conjugates_on_the_base_with_no_product(count_products, text, classes):
    g = group(text)
    served = count_products()
    labels = _class_labels(g)
    # two products per element and generator before: 20160 on S7
    assert sum(served) == 0
    # partitions of 7; q + 4 for SL(2, q), q odd; AGL(3, 2)
    assert len(np.unique(labels)) == classes


def test_principal_closures_of_s7_read_one_element_per_class(count_products):
    g = group("S7")
    _class_members(g)
    served = count_products()
    rows, _ = _principal_closures(g)
    assert sorted(rows.sum(axis=1).tolist()) == [2520, 5040]
    # 72457 products one element at a time, 16690 one element per class
    assert sum(served) <= 25_000


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


def test_lattice_subgroups_are_read_only_views_of_the_masks(lattice_groups):
    for name, g in lattice_groups + [(text, group(text)) for text in EXTRA_LATTICE_SPECS]:
        lattice = normal_lattice(g)
        for k, sub in enumerate(lattice.subgroups):
            assert np.shares_memory(sub.mask, lattice.masks[k]), (name, k)
            assert not sub.mask.flags.writeable, (name, k)
            # built in bulk from its row, popcount and packed key, it equals
            # the subgroup built from a copy of the row
            built = Subgroup(g, lattice.masks[k].copy())
            assert (sub.packed, sub.order) == (built.packed, built.order), (name, k)
            assert sub == built and hash(sub) == hash(built) and sub.is_normal, (name, k)


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


def test_principal_closures_match_one_closure_per_class(lattice_groups):
    for name, g in lattice_groups:
        rows, reps = _principal_closures(g)
        got = {np.packbits(row).tobytes() for row in rows}
        assert got == reference_principal_closures(g), name
        # each row is the normal closure of its class minimum
        assert np.array_equal(_class_labels(g)[reps], reps), name
        for row, x in zip(rows, reps.tolist()):
            assert np.array_equal(normal_closure(g, [x]).mask, row), (name, x)


def test_closure_stops_at_lagranges_bound_and_not_before():
    g = group("S7")
    full = np.ones(g.order, dtype=bool)
    three_cycles = next(cls for cls in conjugacy_classes(g) if len(cls) == 70)
    # the 3-cycles generate A7, exactly |S7|/2 elements: no stop at S7
    mask, kept = _closure(g, three_cycles, full)
    assert np.count_nonzero(mask) == g.order // 2
    assert np.array_equal(mask, _closure(g, three_cycles)[0])
    # inside A7 it gives A7 again, with the same seeds
    stopped, same = _closure(g, three_cycles, mask)
    assert np.array_equal(stopped, mask) and same == kept
    transpositions = next(cls for cls in conjugacy_classes(g) if len(cls) == 21)
    assert np.array_equal(_closure(g, transpositions, full)[0], full)


def test_principal_closures_of_s7_close_little_more_than_two_subgroups(count_products):
    g = group("S7")
    _class_labels(g)
    served = count_products()
    rows, _ = _principal_closures(g)
    # the 14 closures, one per cyclic subgroup, give A7 and S7
    assert sorted(rows.sum(axis=1).tolist()) == [2520, 5040]
    # each of the 14 closures ran to the end before: 181688 products
    assert sum(served) <= 100_000


def test_powers_match_the_scalar_loop_with_one_product_call_a_doubling(count_products):
    tabled, s7 = group("Q8 x D8"), group("S7")
    assert tabled.table is not None and s7.table is None
    served = count_products()
    for g in (tabled, s7):
        for x in range(g.order):
            expected, power = [0], x
            while power != 0:
                expected.append(power)
                power = g.mul(power, x)
            before = len(served)
            assert _powers(g, x).tolist() == expected, (g, x)
            # the list grows from x^0..x^k to x^0..x^2k a call
            assert len(served) - before == (len(expected) - 1).bit_length(), (g, x)


# exact (mul_many calls, products) of one closure on a fresh group
CLOSURE_WORK = {
    "principals": {"S7": (83, 16705), "D2000": (250, 260562), "C2^6": (63, 63), "Q8 x D8": (142, 365)},
    "generated": {"S7": (29, 10098), "D2000": (24, 8108), "C2^6": (18, 390), "Q8 x D8": (16, 271)},
    "normal": {"S7": (4, 5761), "D2000": (4, 126001), "C2^6": (3, 3), "Q8 x D8": (3, 3)},
}
CLOSURES = {
    "principals": _principal_closures,
    "generated": lambda g: generated_subgroup(g, range(1, 20)),
    "normal": lambda g: normal_closure(g, [5]),
}


@pytest.mark.parametrize("kind, name", [(kind, name) for kind in CLOSURE_WORK for name in CLOSURE_WORK[kind]])
def test_closures_make_a_pinned_number_of_products(count_products, kind, name):
    """A change in the work a closure does fails here, a change in its
    speed does not.  The class members and inverses, which make no
    product, are built before counting."""
    g = group("C2 x C2 x C2 x C2 x C2 x C2" if name == "C2^6" else name)
    _class_members(g)
    g.inverses
    served = count_products()
    CLOSURES[kind](g)
    assert (len(served), sum(served)) == CLOSURE_WORK[kind][name]


def test_coset_labels_match_the_per_coset_loop(lattice_groups):
    for name, g in lattice_groups:
        for sub in normal_lattice(g).subgroups:
            kernel = np.flatnonzero(sub.mask)
            labels, reps = _coset_labels(g, kernel)
            expected, expected_reps = reference_coset_labels(g, kernel)
            assert np.array_equal(labels, expected), (name, sub.order)
            assert reps.tolist() == expected_reps, (name, sub.order)
            if g.order <= 64:
                assert np.array_equal(quotient_group(g, sub).projection, expected), (name, sub.order)


def test_comm_index_matches_one_commutator_subgroup_per_member(lattice_groups):
    wide = EXTRA_LATTICE_SPECS + ("C3 x C3 x C3 x C3 x C3",)
    for name, g in lattice_groups + [(text, group(text)) for text in wide]:
        lattice = normal_lattice(g)
        assert lattice.comm_index.tolist() == reference_comm_index(g, lattice), name


def test_lattice_relations_of_the_trivial_and_a_prime_order_group():
    # C1 has no principals, so its one member's union of [G, P] is empty
    trivial = normal_lattice(group("C1"))
    assert trivial.holds.shape == (1, 0)
    assert trivial.contains.tolist() == [[True]]
    assert trivial.comm_index.tolist() == [0]
    prime = normal_lattice(group("C7"))
    assert prime.contains.tolist() == [[True, True], [False, True]]
    assert prime.comm_index.tolist() == [0, 0]


def test_contains_matches_the_element_subset_test_across_row_blocks(lattice_groups, monkeypatch):
    """C2^6 and C3^5 take 8 and 7 row blocks; the other lattices are built
    again with 16-entry blocks, so that blocks start inside an order."""
    import topolab.groups as groups_module

    for text in ("C2 x C2 x C2 x C2 x C2 x C2", "C3 x C3 x C3 x C3 x C3"):
        lattice = normal_lattice(group(text))
        count = len(lattice.subgroups)
        assert len(list(groups_module.row_blocks(count, count))) >= 7, text
        assert np.array_equal(lattice.contains, reference_contains(lattice)), text
    extra = [(text, group(text)) for text in EXTRA_LATTICE_SPECS]
    lattices = [(name, g, normal_lattice(g)) for name, g in lattice_groups + extra]
    monkeypatch.setattr(groups_module, "BLOCK_ENTRIES", 16)  # 16 // |L| rows a block, at least one
    for name, g, lattice in lattices:
        rebuilt = NormalLattice(g, np.packbits(lattice.masks, axis=1), lattice.reps)
        assert np.array_equal(rebuilt.contains, reference_contains(lattice)), name


def test_comm_index_tests_one_row_per_distinct_union(monkeypatch):
    import topolab.subgroups as subgroups_module

    lattice = normal_lattice(group("C2 x C2 x C2 x C2 x C2 x C2"))
    subset_blocks = subgroups_module._subset_blocks
    tested = []

    def recording(rows, cols, *orders):
        tested.append(rows.shape)
        return subset_blocks(rows, cols, *orders)

    monkeypatch.setattr(subgroups_module, "_subset_blocks", recording)
    # every [G, N] is trivial, so every union of the [G, P] is empty
    assert lattice.comm_index.tolist() == [0] * 2825
    assert tested == [(1, 63)]


def test_holds_reads_one_class_minimum_per_principal(lattice_groups):
    for name, g in lattice_groups + [(text, group(text)) for text in EXTRA_LATTICE_SPECS]:
        lattice = normal_lattice(g)
        holds, reps = lattice.holds, lattice.reps.tolist()
        assert not holds.flags.writeable and holds.shape == (len(lattice.subgroups), len(reps)), name
        assert np.array_equal(_class_labels(g)[reps], reps), name
        # column p is every member's membership of reps[p]
        assert holds.tolist() == [[x in sub.element_set for x in reps] for sub in lattice.subgroups], name
        # the first member holding column p is the normal closure of reps[p]
        for p, x in enumerate(reps):
            assert lattice.subgroups[holds[:, p].argmax()] == normal_closure(g, [x]), (name, x)
        # one column per distinct normal closure of a nontrivial class
        assert len({col.tobytes() for col in holds.T}) == len(reps), name
        assert len(reps) == len(reference_principal_closures(g)), name
        # every member is the join of the principals it holds
        assert len({row.tobytes() for row in holds}) == len(holds), name


def test_lattice_relations_scale_with_the_principals_not_the_classes():
    # abelian, so 2025 classes, but 636 members and only 30 principals
    g = group("C3 x C3 x C3 x C3 x C25")
    g.table
    _class_labels(g)
    tracemalloc.start()
    try:
        lattice = normal_lattice(g)
        lattice.comm_index
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lattice.subgroups) == 636
    # 13.0 MiB measured with containment compared on one column per class
    # (a 636 x 2025 float32 copy of the masks), 7.5 MiB on one per principal
    assert peak < 9 << 20


def test_lattice_masks_match_the_per_member_search(lattice_groups):
    # C2^6 and C3^5 are the widest lattices under the bound (2825 and 2664
    # members over 63 and 121 principals)
    wide = EXTRA_LATTICE_SPECS + ("C2 x C2 x C2 x C2 x C2 x C2", "C3 x C3 x C3 x C3 x C3")
    for name, g in lattice_groups + [(text, group(text)) for text in wide]:
        got = {np.packbits(row).tobytes() for row in normal_lattice(g).masks}
        assert got == reference_normal_lattice_masks(g), name


# joins of a member with a principal formed by the search as it runs, and
# with the witness test in every column; plain Close-by-One formed 86258,
# 194271 and 114950 on the first three and 919 on both groups of order 64
JOINS_FORMED = {
    "C2 x C2 x C2 x C2 x C2 x C2": (3115, 2824),
    "C3 x C3 x C3 x C3 x C3": (2889, 2663),
    "C5 x C5 x C5 x C5": (1347, 1119),
    "C7 x C7 x C7 x C7": (3701, 3651),
    "Q8 x D8": (919, 122),
    "D8 x D8": (919, 122),
}


def test_lattice_search_drops_most_joins_before_forming_them(monkeypatch):
    """With the witness test in every column, each member but the trivial
    one costs one join on the elementary abelian groups; one witness per
    principal misses some doomed joins of Q8 x D8 and D8 x D8, which the
    canonicity test then drops."""
    import topolab.subgroups as subgroups_module

    for text, (formed, everywhere) in JOINS_FORMED.items():
        lattice = normal_lattice(group(text))
        assert lattice.joins == formed, text
        with monkeypatch.context() as patch:
            patch.setattr(subgroups_module, "WITNESS_ENTRIES", 0)
            assert normal_lattice(group(text)).joins == everywhere, text
        assert everywhere >= len(lattice.subgroups) - 1, text
    assert NormalLattice(lattice.group, np.packbits(lattice.masks, axis=1), lattice.reps).joins == 0


def test_witness_test_in_every_column_finds_the_same_lattices(lattice_groups, monkeypatch):
    import topolab.subgroups as subgroups_module

    extra = [(text, group(text)) for text in EXTRA_LATTICE_SPECS]
    lattices = [(name, normal_lattice(g)) for name, g in lattice_groups + extra]
    monkeypatch.setattr(subgroups_module, "WITNESS_ENTRIES", 0)
    for name, lattice in lattices:
        screened = normal_lattice(group(name))
        assert np.array_equal(screened.masks, lattice.masks), name
        assert np.array_equal(screened.reps, lattice.reps), name
        assert screened.joins <= lattice.joins, name


def test_join_table_matches_the_closure_of_each_pair(catalog64):
    """J[i, p], the principals of P_i P_p, against the subgroup generated by
    the elements of both, read at the class minima: column(p) forms the
    rows of the P_i apart from P_p, and every other pair joins to the
    larger of its two principals, read off that one's row of below."""
    for name, g in catalog64 + [(text, group(text)) for text in LATTICE_SPECS[:2]]:
        rows, reps = _principal_closures(g)
        table = _JoinTable(g, rows, reps)
        for p in range(len(reps)):
            apart, column = table.column(p)
            expected = np.array([_closure(g, np.flatnonzero(rows[i] | rows[p]))[0][reps] for i in range(len(reps))])
            assert np.array_equal(column, expected[apart]), (name, p)
            for i in np.setdiff1d(np.arange(len(reps)), apart).tolist():
                larger = i if table.below[i, p] else p
                assert np.array_equal(expected[i], table.below[larger]), (name, p, i)


# groups whose join columns take both routes, or whose principals are
# central, beside the catalog and the lattice specs
ROUTE_SPECS = ("Q8 x D8", "Heis(3) x C3", "Dih(C9)", "A5 x C7", "C2 x C2 x C2 x C2 x C625")


def _apart_costs(g, rows):
    """The products sum |P_i| |P_p| over the P_i apart from P_p (neither
    holding the other), for every principal P_p, by brute force."""
    sizes = rows.sum(axis=1)
    inside = rows.astype(np.float32) @ (~rows).T.astype(np.float32) == 0  # [i, p]: P_i <= P_p
    apart = ~inside & ~inside.T
    return sizes * (apart.astype(np.int64) @ sizes)


@pytest.mark.parametrize(
    "text, labelled",
    [
        ("C2 x C2 x C2 x C2 x C2 x C2", 0),
        ("Q8 x D8", 0),
        ("C2 x C2 x C2 x C2 x C625", 77),
        ("C128", 0),
        ("S7", 0),
        ("SL(2,17)", 0),
    ],
)
def test_lattice_labels_cosets_once_per_principal_with_one_apart(monkeypatch, text, labelled):
    """The search labels the cosets of P_p once when the principals apart
    from P_p would cost more than |G| + CALL_CHARGE products, and reads
    every other column off products: C2^6 and Q8 x D8 label nothing, and
    neither does a chain of principals, as in C128, S7 and SL(2,17)."""
    import topolab.subgroups as subgroups_module
    from topolab.groups import CALL_CHARGE

    g = group(text)
    _class_labels(g)
    kernels = []
    label = subgroups_module._coset_labels

    def recording(g, kernel):
        kernels.append(np.packbits(np.isin(np.arange(g.order), kernel)).tobytes())
        return label(g, kernel)

    monkeypatch.setattr(subgroups_module, "_coset_labels", recording)
    normal_lattice(g)
    rows = _principal_closures(g)[0]
    costly = _apart_costs(g, rows) > g.order + CALL_CHARGE
    assert len(kernels) == len(set(kernels)) == labelled
    assert set(kernels) == {np.packbits(row).tobytes() for row in rows[costly]}


def test_c2_power_6_join_columns_make_one_product_call(count_products):
    """Each of the 63 columns costs 62 x 4 = 248 products, so all of them
    form one run: one mul_many call where the cosets took 63 or more."""
    g = group("C2 x C2 x C2 x C2 x C2 x C2")
    rows, reps = _principal_closures(g)
    table = _JoinTable(g, rows, reps)
    served = count_products()
    for p in range(len(reps)):
        table.column(p)
    assert served == [63 * 248]


def test_join_columns_agree_on_both_routes(catalog, monkeypatch):
    """Every column of J read off the cosets of P_p equals the one read off
    the products P_i P_p, each route forced through the charge that the
    rule adds to |G|; also read again in reverse, which forms the runs of
    products from other first columns.  The products route
    takes the columns of up to |G| + 2^17 products: every column but 4 of
    D2000, 11 of C4000 and 61 of C2^4 x C625, whose costliest columns
    make 27 million."""
    import topolab.subgroups as subgroups_module

    label = subgroups_module._coset_labels
    labelled = []
    monkeypatch.setattr(subgroups_module, "_coset_labels", lambda g, kernel: labelled.append(1) or label(g, kernel))
    specs = LATTICE_SPECS + EXTRA_LATTICE_SPECS + ROUTE_SPECS
    for name, g in list(catalog) + [(text, group(text)) for text in specs]:
        rows, reps = _principal_closures(g)
        columns = list(range(len(reps)))
        routes = []
        costs = _apart_costs(g, rows)
        for charge in (-g.order - 1, 1 << 17):  # cosets for every column, then products
            monkeypatch.setattr(subgroups_module, "CALL_CHARGE", charge)
            table = _JoinTable(g, rows, reps)
            labelled.clear()
            routes.append([table.column(p) for p in columns + columns[::-1]])
            assert len(labelled) == 2 * np.count_nonzero(costs > max(0, g.order + charge)), name
        for p, (cosets, products) in enumerate(zip(*routes)):
            assert np.array_equal(cosets[0], products[0]) and np.array_equal(cosets[1], products[1]), (name, p)


def test_central_principals_are_their_closures(catalog):
    """A central class minimum x takes the powers of x as its principal
    row; each such row is the normal closure that _closure finds."""
    specs = LATTICE_SPECS + EXTRA_LATTICE_SPECS + ROUTE_SPECS
    found = 0
    for name, g in list(catalog) + [(text, group(text)) for text in specs]:
        rows, reps = _principal_closures(g)
        central = np.bincount(_class_labels(g), minlength=g.order)[reps] == 1
        for row, x in zip(rows[central], reps[central].tolist()):
            assert np.array_equal(row, _closure(g, [x], by_class=True)[0]), (name, x)
        found += np.count_nonzero(central)
    assert found > 0


def test_principals_past_the_bound_refuse_before_the_rest_are_closed(monkeypatch):
    import topolab.subgroups as subgroups_module
    from topolab import OrderCapExceeded

    g = group("C2 x C2 x C2 x C2 x C2 x C2")  # 63 principals
    _class_labels(g)
    close = subgroups_module._closure
    calls = []

    def counting(*args):
        calls.append(1)
        return close(*args)

    monkeypatch.setattr(subgroups_module, "NORMAL_LATTICE_BOUND", 40)
    monkeypatch.setattr(subgroups_module, "_closure", counting)
    with pytest.raises(OrderCapExceeded, match="exceeds 40 entries"):
        normal_lattice(g)
    assert len(calls) <= 41


def test_lattice_past_the_bound_over_many_principals_refuses_in_bounded_memory():
    from topolab import OrderCapExceeded

    # C2^9 as Dih(C2^8): 511 principals, far more normal subgroups than the bound
    g = group("Dih(C2 x C2 x C2 x C2 x C2 x C2 x C2 x C2)")
    g.table
    _class_labels(g)
    tracemalloc.start()
    try:
        with pytest.raises(OrderCapExceeded):
            normal_lattice(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10.4 MiB measured for the element-space search; the join table in
    # full, 511^3 bools, would be 127 MiB
    assert peak < 24 << 20


def test_c2_power_6_lattice_makes_few_products(count_products):
    g = group("C2 x C2 x C2 x C2 x C2 x C2")
    calls = count_products()
    assert len(normal_lattice(g).subgroups) == 2825
    # one labelling per principal and a few per level; the per-member
    # search made 7268 calls
    assert len(calls) <= 1000


def test_lattice_masks_are_stacked_once():
    # 335 members over 10000 elements, 3.2 MiB of masks
    g = group("C2 x C2 x C2 x C2 x C625")
    _class_labels(g)
    tracemalloc.start()
    try:
        lattice = normal_lattice(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lattice.subgroups) == 335
    # 13.0 MiB measured while the search kept row views of its blocks and
    # the lattice sorted a stacked copy of them; 6.6 MiB with the masks
    # unpacked once, in sorted order, from the packed keys
    assert peak < 9 << 20


def test_c2_power_6_lattice_memory_is_bounded():
    g = group("C2 x C2 x C2 x C2 x C2 x C2")
    tracemalloc.start()
    try:
        normal_lattice(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 16.4-16.7 MiB measured, 8 MiB of it the 2825 x 2825 containment matrix
    assert peak < 18 << 20


def test_orbit_minima_cross_a_rising_cycle_in_few_rounds():
    class Rounds(list):
        """The maps, counting how often a round walks them."""

        walks = 0

        def __iter__(self):
            self.walks += 1
            return super().__iter__()

    nodes = np.arange(4096)
    maps = Rounds([(nodes, np.roll(nodes, -1))])  # x -> x + 1, ids rising along the cycle
    assert (_orbit_minima(len(nodes), maps) == 0).all()
    # the labels jump to their labels' labels; without that a minimum moves
    # one step per round
    assert maps.walks <= 2 * 12 + 2
    # two maps, each a cycle on its own half of the nodes
    half = np.arange(2048)
    halves = [(half, np.roll(half, 1)), (half + 2048, np.roll(half, -1) + 2048)]
    assert _orbit_minima(4096, halves).tolist() == [0] * 2048 + [2048] * 2048


def test_orbit_minima_match_scipy_connected_components():
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import coo_matrix

    rng = np.random.default_rng(16)
    for trial in range(24):
        count = int(rng.integers(1, 600))
        maps = []
        for _ in range(int(rng.integers(1, 4))):
            # one-to-one from part of the nodes onto as many distinct nodes
            size = int(rng.integers(0, count + 1))
            maps.append((rng.choice(count, size, replace=False), rng.choice(count, size, replace=False)))
        if trial % 3 == 0:
            # a permutation of every node, as the conjugation maps are
            maps.append((slice(None), rng.permutation(count)))
        if trial % 3 == 1:
            # one long cycle through every node, ids shuffled along it
            cycle = rng.permutation(count)
            maps.append((cycle, np.roll(cycle, -1)))
        nodes = np.arange(count)
        src = np.concatenate([nodes[a] for a, _ in maps])
        dst = np.concatenate([nodes[b] for _, b in maps])
        graph = coo_matrix((np.ones(len(src)), (src, dst)), shape=(count, count))
        _, component = csgraph.connected_components(graph, directed=False)
        smallest = np.full(count, count)
        np.minimum.at(smallest, component, nodes)
        assert np.array_equal(_orbit_minima(count, maps), smallest[component]), trial
