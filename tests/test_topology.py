import tracemalloc

import pytest

from conftest import find_element, group, reference_taimanov_witness
from topolab import (
    GroupMismatch,
    NotNormal,
    all_normal_subgroups,
    center,
    centralizer,
    direct_product,
    discrete_topology,
    generated_subgroup,
    indiscrete_topology,
    induced,
    is_open,
    leq,
    make_topology,
    product_topology,
    quotient_group,
    quotient_topology,
    taimanov_topology,
)
from topolab.subgroups import Subgroup, center_subgroup, full_subgroup, trivial_subgroup


def test_make_topology_trivial_cases():
    s4 = group("S4")
    assert discrete_topology(s4).kernel.order == 1
    assert indiscrete_topology(s4).kernel.order == 24
    v4 = all_normal_subgroups(s4)[1]
    assert make_topology(s4, v4).kernel == v4


def test_make_topology_rejects_bad_kernels():
    s4 = group("S4")
    transposition = find_element(s4, (1, 0, 2, 3))
    with pytest.raises(NotNormal):
        make_topology(s4, generated_subgroup(s4, [transposition]))
    with pytest.raises(GroupMismatch):
        make_topology(s4, trivial_subgroup(group("C6")))


def test_leq_examples():
    s4 = group("S4")
    delta, iota = discrete_topology(s4), indiscrete_topology(s4)
    assert leq(delta, iota)  # iota <= delta always
    assert not leq(iota, delta)
    normals = all_normal_subgroups(s4)
    zeta_v4, zeta_a4 = make_topology(s4, normals[1]), make_topology(s4, normals[2])
    assert leq(zeta_v4, zeta_a4)  # V4 inside A4 reverses

    klein = group("C2 x C2")
    subs = [
        Subgroup(klein, [0, x]) for x in range(1, 4)
    ]
    t1, t2 = make_topology(klein, subs[0]), make_topology(klein, subs[1])
    assert not leq(t1, t2) and not leq(t2, t1)


def test_lattice_anti_isomorphism(catalog64):
    for name, g in catalog64:
        normals = all_normal_subgroups(g)
        if len(normals) > 20:
            continue
        topologies = [make_topology(g, n) for n in normals]
        for i, n1 in enumerate(normals):
            for j, n2 in enumerate(normals):
                assert leq(topologies[i], topologies[j]) == n1.issubset(n2), name
        # meet of two topologies is the join of kernels and vice versa
        for n1 in normals[:6]:
            for n2 in normals[:6]:
                meet_kernel = generated_subgroup(g, n1.elements + n2.elements)
                join_kernel = Subgroup(g, sorted(n1.element_set & n2.element_set))
                meet, join = make_topology(g, meet_kernel), make_topology(g, join_kernel)
                assert leq(make_topology(g, n1), meet) and leq(make_topology(g, n2), meet)
                assert leq(join, make_topology(g, n1)) and leq(join, make_topology(g, n2))


def test_taimanov_examples():
    c6 = group("C6")
    tau, witness = taimanov_topology(c6)
    assert tau.is_indiscrete and witness.elements == ()

    s3 = group("S3")
    tau, witness = taimanov_topology(s3)
    assert tau.is_discrete
    assert centralizer(s3, witness.elements) == (0,)

    q8 = group("Q8")
    tau, _ = taimanov_topology(q8)
    assert tau.kernel.order == 2


def test_taimanov_kernel_is_center_with_sound_witness(catalog64):
    for name, g in catalog64:
        tau, witness = taimanov_topology(g)
        assert tau.kernel.elements == center(g), name
        assert centralizer(g, witness.elements) == center(g), name
        assert witness.centralizer.elements == center(g), name


def test_taimanov_witness_matches_the_commuting_matrix_greedy(catalog):
    extras = [(text, group(text)) for text in ("S7", "SL(2,17)", "A5 x A5", "Q8 x D8")]
    for name, g in list(catalog) + extras:
        _, witness = taimanov_topology(g)
        elements, cent = reference_taimanov_witness(g)
        assert witness.elements == elements, name
        assert witness.centralizer.elements == cent, name


def test_taimanov_witness_builds_no_commuting_matrix():
    g = group("SL(2,17)")  # |G|^2 = 4896^2 bytes, about 24 MB as a bool matrix
    tracemalloc.start()
    try:
        taimanov_topology(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_taimanov_functorial_into_quotients(catalog64):
    for name, g in catalog64:
        tau, _ = taimanov_topology(g)
        for n in all_normal_subgroups(g):
            quo = quotient_group(g, n)
            tq, _ = taimanov_topology(quo.target)
            image = {int(quo.projection[x]) for x in tau.kernel.elements}
            assert image <= tq.kernel.element_set, name


def test_induced_examples():
    s4 = group("S4")
    normals = all_normal_subgroups(s4)
    v4, a4 = normals[1], normals[2]
    assert induced(discrete_topology(s4), a4).is_discrete
    assert induced(indiscrete_topology(s4), a4).is_indiscrete
    restricted = induced(make_topology(s4, v4), a4)
    assert restricted.kernel.order == 4
    assert restricted.group.order == 12


def test_quotient_topology_examples():
    s4 = group("S4")
    normals = all_normal_subgroups(s4)
    v4, a4 = normals[1], normals[2]
    zeta = make_topology(s4, v4)

    same = quotient_topology(zeta, trivial_subgroup(s4))
    assert same.kernel.order == 4 and same.group.order == 24

    collapsed = quotient_topology(zeta, v4)
    assert collapsed.is_discrete and collapsed.group.order == 6

    modded = quotient_topology(zeta, a4)
    assert modded.group.order == 2 and modded.is_discrete


def test_product_topology_examples():
    s3, c6 = group("S3"), group("C6")
    d1, d2 = discrete_topology(s3), discrete_topology(c6)
    assert product_topology(d1, d2).is_discrete
    i1, i2 = indiscrete_topology(s3), indiscrete_topology(c6)
    assert product_topology(i1, i2).is_indiscrete

    t1, _ = taimanov_topology(s3)
    t2, _ = taimanov_topology(c6)
    combined = product_topology(t1, t2)
    tp, _ = taimanov_topology(combined.group)
    assert combined.kernel == tp.kernel


def test_is_open_examples():
    s4 = group("S4")
    normals = all_normal_subgroups(s4)
    for n in normals:
        assert is_open(discrete_topology(s4), n)
    assert not is_open(indiscrete_topology(s4), normals[1])

    h3 = group("Heis(3)")
    zeta_center = make_topology(h3, center_subgroup(h3))
    noncentral = next(x for x in h3.elements() if x not in zeta_center.kernel)
    cent = Subgroup(h3, centralizer(h3, [noncentral]))
    assert is_open(zeta_center, cent)
    # centralizers are open in the topology with central kernel
    for x in h3.elements():
        assert is_open(zeta_center, Subgroup(h3, centralizer(h3, [x])))


def test_heisenberg_centralizer_image_not_open_mod_center():
    for m in (2, 3, 5):
        g = group(f"Heis({m})")
        shift = 2  # the generator adding 1 to the middle coordinate
        cent = centralizer(g, [shift])
        assert len(cent) == m * m
        quo = quotient_group(g, center_subgroup(g))
        image = Subgroup(quo.target, sorted({int(quo.projection[x]) for x in cent}))
        assert image.order == m
        assert image.order < quo.target.order
        assert not is_open(indiscrete_topology(quo.target), image)
        # and the quotient's own centralizer topology is indiscrete (abelian)
        tq, _ = taimanov_topology(quo.target)
        assert tq.is_indiscrete
