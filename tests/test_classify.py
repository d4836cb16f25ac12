import importlib
import tracemalloc

import numpy as np
import pytest

from conftest import CLASS_ROUTE_SPECS, EXTRA_LATTICE_SPECS, group
from topolab import (
    InternalInconsistency,
    all_normal_subgroups,
    center,
    classify,
    commutator_subgroup,
    discrete_topology,
    indiscrete_topology,
    is_a_complete,
    is_arnautov,
    is_perfect,
    is_semitopological,
    is_taimanov,
    is_totally_taimanov,
    leq,
    make_topology,
    quotient_group,
    subgroups,
)
from topolab.classify import _centerless_quotients
from topolab.subgroups import _central_preimages, full_subgroup, normal_lattice


def test_is_taimanov_examples():
    assert not is_taimanov(group("C2"))
    assert is_taimanov(group("S3"))
    assert is_taimanov(group("S4"))
    assert is_taimanov(group("C1"))  # trivial group, by convention Z({e}) = {e}


def test_is_totally_taimanov_examples():
    ok, witness = is_totally_taimanov(group("A5"))
    assert ok and witness is None

    s4 = group("S4")
    ok, witness = is_totally_taimanov(s4)
    assert not ok
    assert witness.order == 12  # quotient by A4 is abelian of order 2
    quo = quotient_group(s4, witness)
    assert len(center(quo.target)) > 1

    ok, witness = is_totally_taimanov(group("C1"))
    assert ok and witness is None


def test_is_perfect_examples():
    assert is_perfect(group("A5"))
    assert not is_perfect(group("S4"))
    assert is_perfect(group("C1"))


def test_is_a_complete_examples(catalog24):
    for _, g in catalog24:
        assert is_a_complete(indiscrete_topology(g))
    s3 = group("S3")
    assert is_a_complete(discrete_topology(s3))
    s4 = group("S4")
    a4 = all_normal_subgroups(s4)[2]
    assert not is_a_complete(make_topology(s4, a4))


def test_is_a_complete_matches_quotient_center(catalog64):
    for name, g in catalog64:
        for n in all_normal_subgroups(g):
            verdict = is_a_complete(make_topology(g, n))
            quo = quotient_group(g, n)
            assert verdict == (len(center(quo.target)) == 1), name


def test_is_arnautov_examples():
    ok, witness = is_arnautov(group("A5"))
    assert ok and witness is None

    s4 = group("S4")
    ok, witness = is_arnautov(s4)
    assert not ok
    assert witness.kernel.order == 24  # [S4, S4] = A4 strictly below S4
    assert witness.commutator.order == 12

    ok, witness = is_arnautov(group("ASL(3,2)"))
    assert ok and witness is None


def test_arnautov_witness_pair_is_semitopological_not_open():
    for spec_text in ("S4", "C6", "D8", "Q8", "Heis(3)", "Dih(C9)"):
        g = group(spec_text)
        ok, witness = is_arnautov(g)
        assert not ok, spec_text
        tau, sigma = witness.pair
        assert commutator_subgroup(g, full_subgroup(g), witness.kernel) == witness.commutator
        assert witness.commutator != witness.kernel
        assert is_semitopological(tau, sigma).is_semitopological
        assert leq(tau, sigma) and not leq(sigma, tau)  # strictly coarser target


def test_classify_cyclic6():
    rep = classify(group("C6"))
    assert not rep.is_perfect and not rep.is_taimanov
    assert not rep.is_totally_taimanov and not rep.is_arnautov
    assert rep.is_markov
    assert [row.a_complete for row in rep.rows] == [False, False, False, True]
    assert rep.center_order == 6


def test_classify_alternating5():
    rep = classify(group("A5"))
    assert rep.is_perfect and rep.is_taimanov
    assert rep.is_totally_taimanov and rep.is_arnautov
    assert len(rep.rows) == 2
    assert all(row.a_complete for row in rep.rows)
    assert not rep.witnesses


def test_classify_generalized_dihedral_odd():
    rep = classify(group("Dih(C9)"))
    assert rep.is_taimanov
    assert not rep.is_arnautov  # the rotation subgroup is abelian normal


def test_classify_trivial_group():
    rep = classify(group("C1"))
    assert len(rep.rows) == 1
    assert rep.is_taimanov and rep.is_arnautov and rep.is_perfect


def test_implication_lattice(catalog64):
    for name, g in catalog64:
        rep = classify(g)
        if rep.is_arnautov:
            assert rep.is_totally_taimanov, name
            assert rep.is_perfect, name
        assert rep.is_arnautov == rep.is_totally_taimanov, name
        if rep.is_totally_taimanov:
            assert rep.is_perfect, name
        if rep.is_taimanov:
            assert rep.center_order == 1, name
        # the flag column for the trivial kernel agrees with Taimanovness
        assert rep.rows[0].a_complete == rep.is_taimanov, name
        assert rep.rows[-1].a_complete, name


def test_arnautov_closed_under_quotients(catalog):
    for name, g in catalog:
        if not is_arnautov(g)[0]:
            continue
        for n in all_normal_subgroups(g):
            quo = quotient_group(g, n)
            assert is_arnautov(quo.target)[0], name


def test_taimanov_product_law_samples():
    from topolab import direct_product

    cases = [("S3", "S3", True), ("S3", "C2", False), ("C2", "C3", False), ("S4", "A5", True)]
    for left, right, expected in cases:
        g1, g2 = group(left), group(right)
        prod = direct_product(g1, g2)
        assert is_taimanov(prod) == expected
        assert is_taimanov(prod) == (is_taimanov(g1) and is_taimanov(g2))


def test_full_catalog_classifies_consistently(catalog):
    for name, g in catalog:
        rep = classify(g)
        assert rep.order == g.order, name
        assert rep.is_arnautov == rep.is_totally_taimanov, name
        if rep.is_totally_taimanov:
            assert rep.is_perfect, name
        assert rep.rows[0].a_complete == rep.is_taimanov, name
        assert rep.rows[-1].a_complete, name
        assert rep.rows[-1].commutator_with_g_order == (
            g.order if rep.is_perfect else rep.witnesses["perfect"].order
        ), name


def test_totally_taimanov_witness_is_smallest(catalog24):
    for name, g in catalog24:
        ok, witness = is_totally_taimanov(g)
        if ok:
            continue
        for n in all_normal_subgroups(g):
            if (n.order, n.elements) < (witness.order, witness.elements):
                quo = quotient_group(g, n)
                assert len(center(quo.target)) == 1, name


def test_centerless_quotients_at_the_principals_match_every_element(lattice_groups):
    """The center route read at the principals' class minima against the
    preimage of Z(G/N) read at every element: trivial iff it is N."""
    for name, g in lattice_groups + [(text, group(text)) for text in EXTRA_LATTICE_SPECS + CLASS_ROUTE_SPECS]:
        masks = normal_lattice(g).masks
        expected = _central_preimages(g, masks).sum(axis=1) == masks.sum(axis=1)
        assert np.array_equal(_centerless_quotients(g), expected), name


def test_center_route_is_cross_checked(monkeypatch):
    """A center route that lies in either direction makes classify and
    is_arnautov raise instead of reporting."""
    classify_module = importlib.import_module("topolab.classify")

    def lying(center_of):
        # the center route read off a quotient_center that lies
        return lambda g: np.array([center_of(g, n).order == n.order for n in all_normal_subgroups(g)])

    lies = (
        ("D8", lying(lambda g, kernel: kernel)),  # every G/N centerless; Z(D8) is not
        ("A5", lying(lambda g, kernel: full_subgroup(g))),  # every G/N with a center
    )
    for spec, wrong in lies:
        monkeypatch.setattr(classify_module, "_centerless_quotients", wrong)
        for check in (classify, is_arnautov):
            with pytest.raises(InternalInconsistency):
                check(group(spec))


def test_classify_builds_no_quotient_group(monkeypatch):
    cayley_table = subgroups.cayley_table
    built = []

    def counting(*args, **kwargs):
        built.append(args)
        return cayley_table(*args, **kwargs)

    monkeypatch.setattr(subgroups, "cayley_table", counting)
    g = group("SL(2,17)")
    tracemalloc.start()
    try:
        rep = classify(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not rep.is_taimanov and len(rep.rows) == 3
    assert built == []
    assert peak < 8 << 20
