import math

import numpy as np
import pytest

from conftest import (
    reference_full_symmetric_centralizer,
    reference_transversal,
    reference_tuple_closure,
)
from topolab import (
    CapExceeded,
    DegreeTooLarge,
    InternalInconsistency,
    OrderCapExceeded,
    PermAction,
    build_centralizing_witness,
    full_symmetric_centralizer,
    lemma_trivial_centralizer,
    orbit_data,
    random_actions,
)
from topolab import permaction
from topolab.permaction import _compose, _first_mapping


def test_orbit_data_three_cycle_on_five_points():
    act = PermAction(5, [(1, 2, 0, 3, 4)])
    data = orbit_data(act)
    assert data.orbits == ((0, 1, 2), (3,), (4,))
    assert data.representatives == (0, 3, 4)
    assert len(data.stabilizers[0]) == 1


def test_orbit_data_trivial_group():
    act = PermAction(4, [])
    data = orbit_data(act)
    assert data.orbits == ((0,), (1,), (2,), (3,))
    assert all(len(data.stabilizers[r]) == 1 for r in data.representatives)


def test_orbit_data_natural_symmetric():
    act = PermAction(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    data = orbit_data(act)
    assert act.order == 120
    assert data.orbits == ((0, 1, 2, 3, 4),)
    assert len(data.stabilizers[0]) == math.factorial(4)


def test_full_symmetric_centralizer_examples():
    trivial = PermAction(4, [])
    assert len(full_symmetric_centralizer(trivial)) == 24

    all_of_s4 = PermAction(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert full_symmetric_centralizer(all_of_s4) == ((0, 1, 2, 3),)

    single_swap = PermAction(4, [(1, 0, 2, 3)])
    cent = full_symmetric_centralizer(single_swap)
    assert set(cent) == {
        (0, 1, 2, 3),
        (0, 1, 3, 2),
        (1, 0, 2, 3),
        (1, 0, 3, 2),
    }


def test_degree_limit_on_oracle():
    with pytest.raises(DegreeTooLarge):
        full_symmetric_centralizer(PermAction(9, []))


def test_lemma_reports_b_failure_for_single_swap():
    act = PermAction(4, [(1, 0, 2, 3)])
    ok, failure = lemma_trivial_centralizer(act)
    assert not ok
    assert failure.condition == "b"
    assert (failure.representative, failure.other_representative) == (2, 3)
    witness = build_centralizing_witness(act, failure)
    assert witness == (0, 1, 3, 2)


def test_lemma_reports_a_failure_for_free_cycle():
    # <(0 1 2)> acting on 4 points: the stabilizer at 0 is trivial, hence
    # normalized by everything; no conjugate-stabilizer pair across orbits
    act = PermAction(4, [(1, 2, 0, 3)])
    ok, failure = lemma_trivial_centralizer(act)
    assert not ok
    assert failure.condition == "a"
    assert failure.representative == 0
    witness = build_centralizing_witness(act, failure)
    assert witness != (0, 1, 2, 3)
    for g in act.generators:
        assert _compose(witness, g) == _compose(g, witness)


def test_lemma_true_for_natural_symmetric_action():
    for n in range(3, 8):
        shift = tuple((i + 1) % n for i in range(n))
        swap = tuple([1, 0] + list(range(2, n)))
        act = PermAction(n, [shift, swap])
        assert act.order == math.factorial(n)
        ok, failure = lemma_trivial_centralizer(act)
        assert ok and failure is None


def test_lemma_matches_oracle_on_seeded_samples():
    for degree in (3, 4, 5):
        for act in random_actions(degree, 60, seed=degree):
            ok, failure = lemma_trivial_centralizer(act)
            oracle = len(full_symmetric_centralizer(act)) == 1
            assert ok == oracle
            if failure is not None:
                witness = build_centralizing_witness(act, failure)
                assert witness in full_symmetric_centralizer(act)


def test_orbit_stabilizer_arithmetic_on_random_actions():
    for act in random_actions(6, 25, seed=11):
        data = orbit_data(act)
        for orbit, rep in zip(data.orbits, data.representatives):
            assert len(orbit) * len(data.stabilizers[rep]) == act.order


def test_centralizer_elements_transport_stabilizers():
    # tau in c_{S(X)}(H) satisfies S_x = tau^-1 S_{tau(x)} tau pointwise
    for act in random_actions(5, 25, seed=23):
        stabs = act.point_stabilizers()
        elements = act.elements
        cent = full_symmetric_centralizer(act)
        for tau in cent[:6]:
            tau_inv = tuple(sorted(range(5), key=lambda i: tau[i]))
            for x in range(5):
                moved = {
                    elements.index(_compose(tau_inv, _compose(elements[i], tau)))
                    for i in stabs[tau[x]]
                }
                assert moved == set(stabs[x])


def test_materialization_cap():
    # S12 natural action blows past the cap
    n = 12
    shift = tuple((i + 1) % n for i in range(n))
    swap = tuple([1, 0] + list(range(2, n)))
    with pytest.raises(CapExceeded):
        PermAction(n, [shift, swap]).elements


def test_cap_error_is_the_order_cap_error():
    assert CapExceeded is OrderCapExceeded


def test_elements_match_the_tuple_closure():
    actions = [act for d in (6, 7, 8) for act in random_actions(d, 20, seed=d)]
    actions.append(PermAction(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)]))
    assert actions[-1].order == math.factorial(8)
    for act in actions:
        assert act.elements == reference_tuple_closure(act.degree, act.generators)


def test_full_symmetric_centralizer_matches_the_itertools_scan():
    actions = [act for d in (6, 7, 8) for act in random_actions(d, 20, seed=d)]
    actions.append(PermAction(8, []))  # every one of the 40320 permutations survives
    for act in actions:
        assert full_symmetric_centralizer(act) == reference_full_symmetric_centralizer(act)
    assert len(full_symmetric_centralizer(actions[-1])) == math.factorial(8)


def test_first_mapping_is_the_first_element_in_numbering_order():
    # the conjugator a lemma failure reports is the first such element
    for act in random_actions(5, 10, seed=31, max_generators=1):
        elements = act.elements
        for src in range(5):
            for dst in range(5):
                first = next((h for h in elements if h[src] == dst), None)
                if first is None:
                    with pytest.raises(InternalInconsistency):
                        _first_mapping(act, src, dst)
                else:
                    assert _first_mapping(act, src, dst) == first


def test_witnesses_agree_with_the_generator_walk_transversal(monkeypatch):
    # the witness is well defined for any transversal, so reading the root's
    # column and walking the generators must give the same permutation
    failures = []
    for d in range(3, 9):
        for act in random_actions(d, 40, seed=d):
            _, failure = lemma_trivial_centralizer(act)
            if failure is not None:
                failures.append((act, failure, build_centralizing_witness(act, failure)))
    assert {f.condition for _, f, _ in failures} == {"a", "b"}

    def walk(action, root):
        reached = reference_transversal(action, root)
        return np.array(list(reached)), np.array(list(reached.values()))

    monkeypatch.setattr(permaction, "_transversal", walk)
    for act, failure, witness in failures:
        assert build_centralizing_witness(act, failure) == witness


def test_bad_generator_rejected():
    with pytest.raises(ValueError):
        PermAction(3, [(0, 0, 1)])
