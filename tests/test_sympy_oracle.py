"""Third oracle: sympy's permutation groups, a separate implementation of
normal closures and commutator subgroups.  Skipped when sympy is absent."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

combinatorics = pytest.importorskip("sympy.combinatorics")

from topolab import PermSpec, build_group, commutator_subgroup, conjugacy_classes, full_subgroup
from topolab.subgroups import normal_closure, normal_lattice

Permutation = combinatorics.Permutation
PermutationGroup = combinatorics.PermutationGroup


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
