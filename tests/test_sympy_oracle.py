"""Third oracle: sympy's permutation groups, a separate implementation of
normal closures and commutator subgroups.  Skipped when sympy is absent."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

combinatorics = pytest.importorskip("sympy.combinatorics")

from topolab import (
    DEFAULT_ORDER_CAP,
    PermAction,
    PermSpec,
    build_centralizing_witness,
    build_group,
    center,
    parse_group_spec,
    commutator_subgroup,
    conjugacy_classes,
    derived_subgroup,
    full_subgroup,
    lemma_trivial_centralizer,
    nilpotency_class,
)
from topolab.permaction import ORACLE_MAX_DEGREE
from topolab.subgroups import normal_closure, normal_lattice

Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup
SymmetricGroup = combinatorics.named_groups.SymmetricGroup


@st.composite
def perm_groups(draw):
    degree = draw(st.integers(2, 7))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, [tuple(p) for p in gens]


@settings(max_examples=40, deadline=None)
@given(perm_groups())
def test_principal_normal_subgroups_and_commutators_match_sympy(spec):
    degree, gens = spec
    g = build_group(PermSpec(degree, tuple(gens)))
    g_sym = PermutationGroup([Permutation(list(p)) for p in gens])
    assert g_sym.order() == g.order

    def sym(x):
        return Permutation(list(g.element_perm(x)))

    lattice = normal_lattice(g)
    classes = conjugacy_classes(g)
    for cls in classes[1:]:
        principal = normal_closure(g, cls)
        assert principal.order == g_sym.normal_closure(sym(cls[0])).order()
        assert lattice.subgroups[lattice.index(principal)] == principal

    full = full_subgroup(g)
    for k, sub in enumerate(lattice.subgroups):
        reps = [sym(cls[0]) for cls in classes if cls[0] in sub]
        sub_sym = g_sym.normal_closure(PermutationGroup(reps))
        assert sub_sym.order() == sub.order
        expected = g_sym.commutator(g_sym, sub_sym).order()
        assert commutator_subgroup(g, full, sub).order == expected
        assert lattice.subgroups[lattice.comm_index[k]].order == expected


@pytest.mark.parametrize("spec", ["S7", "ASL(3,2)", "A5 x C7"])
def test_class_normal_closures_and_commutators_match_sympy(spec):
    """Groups whose classes the random generators above rarely reach: every
    class's normal closure and every lattice member's [G, N], as element
    sets, against sympy's normal_closure and commutator."""
    g = build_group(parse_group_spec(spec))
    g_sym = PermutationGroup([Permutation(list(g.element_perm(s))) for s in g.generator_ids])
    assert g_sym.order() == g.order
    ids = {g.element_perm(x): x for x in g.elements()}

    def sym(x):
        return Permutation(list(g.element_perm(x)))

    def members(sub_sym):
        return sorted(ids[tuple(p.array_form)] for p in sub_sym.generate())

    for cls in conjugacy_classes(g)[1:]:
        assert normal_closure(g, cls).elements == tuple(members(g_sym.normal_closure(sym(cls[0])))), cls[0]
    full = full_subgroup(g)
    for sub in normal_lattice(g).subgroups[1:]:
        sub_sym = g_sym.normal_closure(PermutationGroup([sym(cls[0]) for cls in conjugacy_classes(g) if cls[0] in sub]))
        assert tuple(members(sub_sym)) == sub.elements, sub.order
        expected = tuple(members(g_sym.commutator(g_sym, sub_sym)))
        assert commutator_subgroup(g, full, sub).elements == expected, sub.order


@st.composite
def block_perm_groups(draw):
    """Degree 8-10, at the exhaustive oracle's bound and above it.  Points
    are cut into blocks of at most 5; each generator permutes every block
    within itself, and one may also swap two blocks of equal size.
    Diagonal generators make stabilizers at different representatives
    equal, so both lemma conditions fail in some examples."""
    degree = draw(st.integers(ORACLE_MAX_DEGREE, ORACLE_MAX_DEGREE + 2))
    sizes = []
    while sum(sizes) < degree:
        sizes.append(draw(st.integers(1, min(5, degree - sum(sizes)))))
    starts = [sum(sizes[:k]) for k in range(len(sizes))]
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        image = []
        for start, size in zip(starts, sizes):
            image += [start + x for x in draw(st.permutations(range(size)))]
        gens.append(tuple(image))
    pairs = [(a, b) for a in range(len(sizes)) for b in range(a + 1, len(sizes)) if sizes[a] == sizes[b]]
    if pairs and draw(st.booleans()):
        a, b = draw(st.sampled_from(pairs))
        swap = list(range(degree))
        for x in range(sizes[a]):
            swap[starts[a] + x], swap[starts[b] + x] = starts[b] + x, starts[a] + x
        gens.append(tuple(swap))
    return degree, gens


@settings(max_examples=30, deadline=None)
@given(block_perm_groups())
def test_lemma_center_and_derived_subgroup_match_sympy_on_degrees_8_to_10(spec):
    degree, gens = spec
    g_sym = PermutationGroup([Permutation(list(p)) for p in gens])
    assume(g_sym.order() <= DEFAULT_ORDER_CAP)
    centralizer = SymmetricGroup(degree).centralizer(g_sym)

    action = PermAction(degree, gens)
    assert action.order == g_sym.order()
    ok, failure = lemma_trivial_centralizer(action)
    assert ok == (centralizer.order() == 1)
    if failure is not None:
        witness = build_centralizing_witness(action, failure)
        assert centralizer.contains(Permutation(list(witness)))

    g = build_group(PermSpec(degree, tuple(gens)))
    assert len(center(g)) == g_sym.center().order()
    assert derived_subgroup(g).order == g_sym.derived_subgroup().order()


@settings(max_examples=30, deadline=None)
@given(block_perm_groups())
def test_nilpotency_class_matches_sympy_lower_central_series(spec):
    degree, gens = spec
    g_sym = PermutationGroup([Permutation(list(p)) for p in gens])
    assume(g_sym.order() <= DEFAULT_ORDER_CAP)
    series = g_sym.lower_central_series()  # ends where it stalls
    expected = max(1, len(series) - 1) if series[-1].order() == 1 else None
    assert nilpotency_class(build_group(PermSpec(degree, tuple(gens)))) == expected
