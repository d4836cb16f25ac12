import numpy as np
import pytest

from conftest import group, reference_semitop_oracle
from topolab import (
    NotComparable,
    all_normal_subgroups,
    center,
    commutator_subgroup,
    direct_product,
    discrete_topology,
    indiscrete_topology,
    induced,
    is_n_step,
    is_semitopological,
    is_semitopological_oracle,
    make_topology,
    min_steps,
    nilpotency_class,
    quotient_group,
    quotient_topology,
    product_topology,
)
from topolab.groups import _commutators
from topolab.subgroups import Subgroup, full_subgroup, generated_subgroup
from topolab.topology import AlmostTrivialTopology


def _topologies(g):
    return [make_topology(g, n) for n in all_normal_subgroups(g)]


def _nested_pairs(g):
    tops = _topologies(g)
    return [
        (tau, sigma)
        for tau in tops
        for sigma in tops
        if tau.kernel.issubset(sigma.kernel)
    ]


def test_discrete_to_indiscrete_iff_abelian():
    for spec_text, expected in (("C6", True), ("C2 x C2", True), ("S3", False)):
        g = group(spec_text)
        verdict = is_semitopological(discrete_topology(g), indiscrete_topology(g))
        assert verdict.is_semitopological == expected
        if not expected:
            gg, ll = verdict.violating_pair
            assert g.mul(g.mul(gg, ll), g.mul(g.inv(gg), g.inv(ll))) != 0


def test_heisenberg_discrete_to_central_kernel():
    h3 = group("Heis(3)")
    zeta_center = make_topology(h3, Subgroup(h3, center(h3)))
    assert is_semitopological(discrete_topology(h3), zeta_center).is_semitopological


def test_violating_pair_is_first_in_id_order():
    s3 = group("S3")
    verdict = is_semitopological(discrete_topology(s3), indiscrete_topology(s3))
    gg, ll = verdict.violating_pair
    for g2 in range(gg + 1):
        for l2 in range(ll if g2 == gg else s3.order):
            assert s3.mul(s3.mul(g2, l2), s3.mul(s3.inv(g2), s3.inv(l2))) == 0


def _first_violating_pair(g, small, large):
    """Reference scan: g in id order, then l in L."""
    for g2 in g.elements():
        for l2 in large.elements:
            if g.mul(g.mul(g2, l2), g.mul(g.inv(g2), g.inv(l2))) not in small:
                return (g2, l2)
    return None


@pytest.mark.parametrize("spec_text", ["S4", "Dih(C9)", "S7"])
def test_violating_pair_matches_scalar_scan(spec_text):
    g = group(spec_text)
    pairs = _nested_pairs(g)
    if g.order > 4096:
        # above the dense-table limit; from the discrete topology the scan
        # stops early, while a holding verdict would scan all |G|^2 pairs
        pairs = [(tau, sigma) for tau, sigma in pairs if tau.is_discrete and not sigma.is_discrete]
    for tau, sigma in pairs:
        verdict = is_semitopological(tau, sigma)
        assert verdict.violating_pair == _first_violating_pair(g, tau.kernel, sigma.kernel)
        assert verdict.is_semitopological == (verdict.violating_pair is None)


def test_oracle_matches_on_s4_normal_pairs():
    s4 = group("S4")
    for tau, sigma in _nested_pairs(s4):
        assert (
            is_semitopological(tau, sigma).is_semitopological
            == is_semitopological_oracle(tau, sigma)
        )


def test_oracle_specific_pairs():
    s4 = group("S4")
    normals = all_normal_subgroups(s4)
    v4, a4 = normals[1], normals[2]
    assert is_semitopological_oracle(make_topology(s4, a4), indiscrete_topology(s4))
    assert not is_semitopological_oracle(discrete_topology(s4), make_topology(s4, v4))


def test_oracle_matches_the_elementwise_reference_on_nested_catalog_pairs(catalog):
    pairs = 0
    for name, g in catalog:
        tops = [make_topology(g, n) for n in all_normal_subgroups(g)[:40]]
        for tau in tops:
            for sigma in tops:
                if tau.kernel.issubset(sigma.kernel):
                    pairs += 1
                    expected = reference_semitop_oracle(tau, sigma)
                    assert is_semitopological_oracle(tau, sigma) == expected, (name, tau, sigma)
    assert pairs == 1828


def test_oracle_reads_no_class_labels_and_closes_nothing(monkeypatch):
    import topolab.subgroups as subgroups_module

    pairs = _nested_pairs(group("Heis(3) x C3"))
    expected = [reference_semitop_oracle(tau, sigma) for tau, sigma in pairs]

    def shared(*args, **kwargs):
        raise AssertionError("the main route runs on this step")

    monkeypatch.setattr(subgroups_module, "_class_labels", shared)
    monkeypatch.setattr(subgroups_module, "_closure", shared)
    assert [is_semitopological_oracle(tau, sigma) for tau, sigma in pairs] == expected


def test_cli_reports_a_lying_oracle(monkeypatch, capsys):
    import topolab.cli as cli_module

    def lying(tau, sigma):
        return not is_semitopological_oracle(tau, sigma)

    monkeypatch.setattr(cli_module, "is_semitopological_oracle", lying)
    for args in (("--from", "0", "--to", "3"), ("--from", "2", "--to", "3")):  # false, then true
        assert cli_module.main(["semitop", "S4", *args]) == 0
        assert "oracle agrees: false" in capsys.readouterr().out.splitlines()


def test_not_comparable_raises():
    s4 = group("S4")
    normals = all_normal_subgroups(s4)
    with pytest.raises(NotComparable):
        is_semitopological(make_topology(s4, normals[2]), make_topology(s4, normals[1]))
    with pytest.raises(NotComparable):
        min_steps(indiscrete_topology(s4), discrete_topology(s4))


def test_one_step_equals_semitopological():
    s4 = group("S4")
    for tau, sigma in _nested_pairs(s4):
        assert is_n_step(tau, sigma, 1) == is_semitopological(tau, sigma).is_semitopological


def test_n_step_rejects_nonpositive_counts():
    s4 = group("S4")
    with pytest.raises(ValueError):
        is_n_step(discrete_topology(s4), indiscrete_topology(s4), 0)


def test_n_step_examples():
    h3 = group("Heis(3)")
    assert not is_n_step(discrete_topology(h3), indiscrete_topology(h3), 1)
    assert is_n_step(discrete_topology(h3), indiscrete_topology(h3), 2)
    s3 = group("S3")
    for n in (1, 2, 3, 7):
        assert not is_n_step(discrete_topology(s3), indiscrete_topology(s3), n)


def test_min_steps_examples():
    c6 = group("C6")
    assert min_steps(discrete_topology(c6), indiscrete_topology(c6)).steps == 1
    h3 = group("Heis(3)")
    result = min_steps(discrete_topology(h3), indiscrete_topology(h3))
    assert result.steps == 2
    assert [s.order for s in result.chain] == [27, 3]
    s4 = group("S4")
    absent = min_steps(discrete_topology(s4), indiscrete_topology(s4))
    assert absent.steps is None and absent.chain is None


def test_min_steps_equals_nilpotency_class(catalog64):
    for name, g in catalog64:
        steps = min_steps(discrete_topology(g), indiscrete_topology(g)).steps
        assert steps == nilpotency_class(g), name


def test_chain_links_are_semitopological(catalog24):
    for name, g in catalog24:
        for tau, sigma in _nested_pairs(g):
            result = min_steps(tau, sigma)
            if result.steps is None:
                continue
            assert len(result.chain) == result.steps, name
            assert result.chain[0] == sigma.kernel
            links = list(result.chain) + [tau.kernel]
            for coarse, fine in zip(links, links[1:]):
                assert fine.issubset(coarse), name
                step = is_semitopological(
                    make_topology(g, fine), make_topology(g, coarse)
                )
                assert step.is_semitopological, name


def test_semitopological_implies_commutator_bound(catalog24):
    # whenever the verdict is true, [G, L] really sits inside N
    for name, g in catalog24:
        full = full_subgroup(g)
        for tau, sigma in _nested_pairs(g):
            if is_semitopological(tau, sigma).is_semitopological:
                comm = commutator_subgroup(g, full, sigma.kernel)
                assert comm.issubset(tau.kernel), name


def test_interpolation_property():
    # a true verdict persists to any kernel between N and L
    for spec_text in ("C12", "D8", "Q8", "Heis(3)", "S4", "C2 x C2 x C2", "D16"):
        g = group(spec_text)
        if g.order > 32:
            continue
        normals = all_normal_subgroups(g)
        for n1 in normals:
            for n2 in normals:
                if not n1.issubset(n2):
                    continue
                tau, sigma = make_topology(g, n1), make_topology(g, n2)
                if not is_semitopological(tau, sigma).is_semitopological:
                    continue
                for mid in normals:
                    if n1.issubset(mid) and mid.issubset(n2):
                        assert is_semitopological(
                            tau, make_topology(g, mid)
                        ).is_semitopological, spec_text


def test_stability_under_subgroups_and_quotients(catalog24):
    for name, g in catalog24:
        normals = all_normal_subgroups(g)
        cyclics = {generated_subgroup(g, [x]).elements for x in g.elements()}
        subs = list(normals) + [Subgroup(g, e) for e in sorted(cyclics)]
        for tau, sigma in _nested_pairs(g):
            if not is_semitopological(tau, sigma).is_semitopological:
                continue
            for sub in subs:
                tau_h = induced(tau, sub)
                sigma_h = induced(sigma, sub)
                assert is_semitopological(tau_h, sigma_h).is_semitopological, name
            for n0 in normals:
                tau_q = quotient_topology(tau, n0)
                sigma_q = quotient_topology(sigma, n0)
                assert is_semitopological(tau_q, sigma_q).is_semitopological, name


def test_product_stability(catalog):
    small = [(n, g) for n, g in catalog if g.order <= 16]
    for i, (name1, g1) in enumerate(small):
        for name2, g2 in small[i:]:
            if g1.order * g2.order > 256:
                continue
            pairs1 = _nested_pairs(g1)[:3]
            pairs2 = _nested_pairs(g2)[:3]
            for tau1, sigma1 in pairs1:
                for tau2, sigma2 in pairs2:
                    tau = product_topology(tau1, tau2)
                    sigma = product_topology(sigma1, sigma2)
                    verdict = is_semitopological(tau, sigma).is_semitopological
                    expected = (
                        is_semitopological(tau1, sigma1).is_semitopological
                        and is_semitopological(tau2, sigma2).is_semitopological
                    )
                    assert verdict == expected, (name1, name2)
                    steps = min_steps(tau, sigma).steps
                    s1 = min_steps(tau1, sigma1).steps
                    s2 = min_steps(tau2, sigma2).steps
                    if s1 is None or s2 is None:
                        assert steps is None, (name1, name2)
                    else:
                        assert steps == max(s1, s2), (name1, name2)


def test_discrete_source_iff_central_kernel(catalog24):
    # id: (G, delta) -> (G, zeta_N) is semitopological exactly when N <= Z(G)
    for name, g in catalog24:
        z = set(center(g))
        for n in all_normal_subgroups(g):
            verdict = is_semitopological(
                discrete_topology(g), make_topology(g, n)
            ).is_semitopological
            assert verdict == (n.element_set <= z), name


def test_indiscrete_target_iff_kernel_above_derived(catalog24):
    # id: (G, zeta_N) -> (G, iota) is semitopological exactly when G' <= N
    from topolab import derived_subgroup

    for name, g in catalog24:
        derived = derived_subgroup(g)
        for n in all_normal_subgroups(g):
            verdict = is_semitopological(
                make_topology(g, n), indiscrete_topology(g)
            ).is_semitopological
            assert verdict == derived.issubset(n), name


def test_hausdorff_propagates_for_centerless_groups(catalog64):
    for name, g in catalog64:
        if len(center(g)) != 1:
            continue
        delta = discrete_topology(g)
        for sigma in _topologies(g):
            if is_semitopological(delta, sigma).is_semitopological:
                assert sigma.kernel.order == 1, name


def _first_violating_pair_by_loop(tau, sigma):
    """The violating pair of a failing pair, one commutator row per g in
    order of g."""
    g, small, large = tau.group, tau.kernel, sigma.kernel
    larr = np.flatnonzero(large.mask)
    for x in g.elements():
        outside = ~small.mask[_commutators(g, x, larr)]
        if outside.any():
            return (x, int(larr[np.argmax(outside)]))
    raise AssertionError("no violating pair")


def test_violating_pair_matches_the_per_element_loop(catalog):
    # every nested pair of the catalog lattices, S7 and SL(2,17); the loop
    # runs only where the oracle says the map fails, since on a holding
    # pair of S7 it would read every commutator
    for name, g in list(catalog) + [(text, group(text)) for text in ("S7", "SL(2,17)")]:
        for tau, sigma in _nested_pairs(g):
            holds = is_semitopological_oracle(tau, sigma)
            expected = None if holds else _first_violating_pair_by_loop(tau, sigma)
            assert is_semitopological(tau, sigma).violating_pair == expected, name


def test_product_kernel_matches_the_pair_id_loop(catalog):
    # the product cases of test_product_stability
    small = [(n, g) for n, g in catalog if g.order <= 16]
    for i, (name1, g1) in enumerate(small):
        for name2, g2 in small[i:]:
            if g1.order * g2.order > 256:
                continue
            for tau1, _ in _nested_pairs(g1)[:3]:
                for _, sigma2 in _nested_pairs(g2)[:3]:
                    product = product_topology(tau1, sigma2)
                    ids = [
                        product.group.pair_id(x1, x2)
                        for x1 in tau1.kernel.elements
                        for x2 in sigma2.kernel.elements
                    ]
                    assert product.kernel.elements == tuple(sorted(ids)), (name1, name2)
