import math
import random

import numpy as np
import pytest

from conftest import (
    c2_power_gens,
    reference_full_symmetric_centralizer,
    reference_lemma_trivial_centralizer,
    reference_orbit_data,
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
from topolab.subgroups import Subgroup
from topolab import groups, permaction
from topolab.cli import main
from topolab.permaction import _compose, _first_mapping
from topolab.specparse import parse_perm_generators


def test_orbit_data_three_cycle_on_five_points():
    act = PermAction(5, [(1, 2, 0, 3, 4)])
    data = orbit_data(act)
    assert data.orbits == ((0, 1, 2), (3,), (4,))
    assert data.representatives == (0, 3, 4)
    assert data.stabilizers[0].order == 1


def test_orbit_data_trivial_group():
    act = PermAction(4, [])
    data = orbit_data(act)
    assert data.orbits == ((0,), (1,), (2,), (3,))
    assert all(data.stabilizers[r].order == 1 for r in data.representatives)


def test_orbit_data_natural_symmetric():
    act = PermAction(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])
    data = orbit_data(act)
    assert act.order == 120
    assert data.orbits == ((0, 1, 2, 3, 4),)
    assert data.stabilizers[0].order == math.factorial(4)


def as_maps(rows):
    """The centralizer's rows as tuples of Python ints, one per map."""
    return tuple(map(tuple, rows.tolist()))


def test_full_symmetric_centralizer_examples():
    trivial = PermAction(4, [])
    assert len(full_symmetric_centralizer(trivial)) == 24

    all_of_s4 = PermAction(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    assert full_symmetric_centralizer(all_of_s4).tolist() == [[0, 1, 2, 3]]

    single_swap = PermAction(4, [(1, 0, 2, 3)])
    cent = as_maps(full_symmetric_centralizer(single_swap))
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
                assert witness in as_maps(full_symmetric_centralizer(act))


def test_orbit_stabilizer_arithmetic_on_random_actions():
    for act in random_actions(6, 25, seed=11):
        data = orbit_data(act)
        for orbit, rep in zip(data.orbits, data.representatives):
            assert len(orbit) * data.stabilizers[rep].order == act.order


def test_centralizer_elements_transport_stabilizers():
    # tau in c_{S(X)}(H) satisfies S_x = tau^-1 S_{tau(x)} tau pointwise
    for act in random_actions(5, 25, seed=23):
        fixed = act.fixed_points()
        stabs = [np.flatnonzero(fixed[:, x]).tolist() for x in range(5)]
        elements = act.elements
        cent = as_maps(full_symmetric_centralizer(act))
        for tau in cent[:6]:
            tau_inv = tuple(sorted(range(5), key=lambda i: tau[i]))
            for x in range(5):
                moved = {
                    elements.index(_compose(tau_inv, _compose(elements[i], tau)))
                    for i in stabs[tau[x]]
                }
                assert moved == set(stabs[x])


def test_stabilizer_keys_are_the_packed_stabilizer_masks():
    actions = [act for d in range(3, 9) for act in random_actions(d, 10, seed=d)]
    degree = 2 * (2**10 - 1)
    actions.append(PermAction(degree, parse_perm_generators(c2_power_gens(10), degree)))
    for act in actions:
        fixed = act.fixed_points()
        keys = permaction._stabilizer_keys(fixed)
        assert keys == [Subgroup(act.group, fixed[:, pt]).packed for pt in range(act.degree)]


def test_orbit_data_and_lemma_match_the_references():
    # the C2^k actions reach condition (a) with one stabilizer per orbit
    actions = [act for d in range(3, 9) for act in random_actions(d, 40, seed=d)]
    for k in range(1, 6):
        degree = 2 * (2**k - 1)
        actions.append(PermAction(degree, parse_perm_generators(c2_power_gens(k), degree)))
    conditions = set()
    for act in actions:
        data = orbit_data(act)
        orbits, reps, stabilizers = reference_orbit_data(act)
        assert (data.orbits, data.representatives) == (orbits, reps)
        ids = {h: i for i, h in enumerate(act.elements)}
        for rep in reps:
            assert data.stabilizers[rep].elements == tuple(ids[h] for h in stabilizers[rep])
        result = lemma_trivial_centralizer(act)
        assert result == reference_lemma_trivial_centralizer(act)
        conditions.add(result[1] and result[1].condition)
    assert conditions == {None, "a", "b"}


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


def _block_actions(count, seed):
    """Intransitive actions of degree 6-8: each generator acts on two
    blocks of points at once (or fixes one), the points relabelled at
    random so that orbits interleave."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        degree = rng.randint(6, 8)
        cut = rng.randint(1, degree - 1)
        label = rng.sample(range(degree), degree)
        gens = []
        for _ in range(rng.randint(1, 3)):
            left = rng.sample(range(cut), cut) if rng.random() < 0.8 else list(range(cut))
            right = rng.sample(range(cut, degree), degree - cut)
            image = left + right
            perm = [0] * degree
            for x in range(degree):
                perm[label[x]] = label[image[x]]
            gens.append(tuple(perm))
        out.append(PermAction(degree, gens))
    return out


def test_full_symmetric_centralizer_matches_the_itertools_scan():
    actions = [act for d in (6, 7, 8) for act in random_actions(d, 20, seed=d)]
    actions += [act for d in range(1, 6) for act in random_actions(d, 8, seed=100 + d)]
    actions += _block_actions(40, seed=5)
    actions.append(PermAction(8, [tuple(range(8))]))
    actions.append(PermAction(8, []))  # every one of the 40320 permutations survives
    for act in actions:
        assert as_maps(full_symmetric_centralizer(act)) == reference_full_symmetric_centralizer(act)
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


def test_oracle_reads_only_the_generators(monkeypatch):
    actions = [PermAction(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)])]
    actions += _block_actions(5, seed=6)
    expected = [reference_full_symmetric_centralizer(act) for act in actions]

    def no_closure(self):
        raise AssertionError("the oracle closed the group")

    monkeypatch.setattr(PermAction, "group", property(no_closure))
    assert [as_maps(full_symmetric_centralizer(act)) for act in actions] == expected


def test_perm_command_builds_no_element_lookup(monkeypatch, capsys):
    builds = []
    honest = groups._base_index
    monkeypatch.setattr(groups, "_base_index", lambda perms: builds.append(len(perms)) or honest(perms))
    argv = ["perm", "--degree", "8", "--gens", "(0 1 2 3 4 5 6 7),(0 1)", "--check-lemma", "--oracle"]
    assert main(argv) == 0
    assert "lemma agrees with oracle: true" in capsys.readouterr().out
    assert builds == []
    # the counter does see a build: the first read of the inverses
    PermAction(8, [(1, 2, 3, 4, 5, 6, 7, 0), (1, 0, 2, 3, 4, 5, 6, 7)]).group.inverses
    assert builds == [40320]
