"""Shared fixtures and tiny brute-force oracles used across the suite.

The oracles deliberately use nothing but FiniteGroup.mul / FiniteGroup.inv
so they stay independent of the subgroup/topology machinery they check.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from topolab import OrderCapExceeded, build_group, center, parse_group_spec, quotient_group
from topolab.catalog import catalog_groups

# CLI tests run topolab in child processes; they import it from this
# checkout, as pytest's pythonpath setting makes the test process do
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")])
)


@pytest.fixture(scope="session")
def catalog():
    return catalog_groups()


@pytest.fixture(scope="session")
def catalog64(catalog):
    return [(name, g) for name, g in catalog if g.order <= 64]


@pytest.fixture(scope="session")
def catalog24(catalog):
    return [(name, g) for name, g in catalog if g.order <= 24]


def group(text):
    return build_group(parse_group_spec(text))


def brute_center(g):
    return sorted(
        x
        for x in g.elements()
        if all(g.mul(x, y) == g.mul(y, x) for y in g.elements())
    )


def brute_closure(g, elems):
    found = {0} | {int(x) for x in elems}
    frontier = list(found)
    while frontier:
        cur = frontier.pop()
        for other in list(found):
            for prod in (g.mul(cur, other), g.mul(other, cur)):
                if prod not in found:
                    found.add(prod)
                    frontier.append(prod)
    return sorted(found)


def brute_is_subgroup(g, elems):
    elem_set = set(elems)
    if 0 not in elem_set:
        return False
    return all(g.mul(a, b) in elem_set for a in elem_set for b in elem_set)


def brute_commutator_subgroup(g, hs, ks):
    values = {g.commutator(h, k) for h in hs for k in ks}
    return brute_closure(g, values)


def find_element(g, perm):
    """Element id whose permutation image is the given tuple."""
    for x in g.elements():
        if g.element_perm(x) == tuple(perm):
            return x
    raise AssertionError(f"no element acts as {perm}")


def _frontier_closure(g, seed_ids):
    """Subgroup generated by seed_ids as a sorted tuple: breadth-first over
    the seeds as generators, one generator step per round."""
    mask = np.zeros(g.order, dtype=bool)
    mask[0] = True
    gens = np.array(sorted({int(x) for x in seed_ids} - {0}), dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size and gens.size:
        images = np.unique(g.mul_many(frontier[:, None], gens))
        frontier = images[~mask[images]]
        mask[frontier] = True
    return tuple(np.flatnonzero(mask).tolist())


def _oracle_classes(g):
    cmaps = [g.conj_map(s) for s in g.generator_ids]
    seen, classes = set(), []
    for x in g.elements():
        if x in seen:
            continue
        orbit, todo = {x}, [x]
        while todo:
            y = todo.pop()
            for m in cmaps:
                z = int(m[y])
                if z not in orbit:
                    orbit.add(z)
                    todo.append(z)
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def reference_small_generating_set(g, sub):
    """Generators of a subgroup as subgroups._small_generating_set chose
    them before _closure returned its kept seeds: each member, in increasing
    order, outside the span of the earlier picks, until the span is the
    whole subgroup.  Spans come from _frontier_closure."""
    gens, span = [], {0}
    for x in sub.elements:
        if x not in span:
            gens.append(x)
            span = set(_frontier_closure(g, gens))
            if len(span) == sub.order:
                break
    return gens


def oracle_normal_subgroups(g):
    """Every normal subgroup as a sorted (order, elements) list, by the
    class-join search: join each found normal subgroup with one conjugacy
    class at a time and close, starting from the trivial subgroup.  Uses
    only FiniteGroup products, not the subgroups module it checks."""
    classes = _oracle_classes(g)
    found = {(0,)}
    frontier = [(0,)]
    while frontier:
        fresh = []
        for sub in frontier:
            inside = set(sub)
            for cls in classes:
                if cls[0] in inside:
                    continue
                joined = _frontier_closure(g, sub + cls)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return sorted((len(sub), sub) for sub in found)


def reference_bfs_enumerate(degree, gens, order_cap):
    """Breadth-first closure one element at a time, as groups._bfs_enumerate
    did before it went level-wise: a FIFO queue of elements, each multiplied
    by every generator in order (identity and repeated generators dropped).
    Returns the element rows and the generator ids."""
    dtype = np.uint16 if degree <= 0xFFFF else np.uint32
    gen_arrays = []
    seen_gens = set()
    ident = np.arange(degree, dtype=dtype)
    ident_key = ident.tobytes()
    for g in gens:
        arr = np.asarray(g, dtype=dtype)
        key = arr.tobytes()
        if key == ident_key or key in seen_gens:
            continue
        seen_gens.add(key)
        gen_arrays.append(arr)

    perms = [ident]
    index = {ident_key: 0}
    head = 0
    while head < len(perms):
        cur = perms[head]
        for g in gen_arrays:
            nxt = cur[g]
            key = nxt.tobytes()
            if key not in index:
                if len(perms) >= order_cap:
                    raise OrderCapExceeded(f"group closure exceeds the order cap ({order_cap})")
                index[key] = len(perms)
                perms.append(nxt)
        head += 1
    return np.vstack(perms), tuple(index[g.tobytes()] for g in gen_arrays)


def reference_tuple_closure(degree, generators):
    """The subgroup of S(degree) generated by image tuples, closed with
    Python tuples as PermAction did before it was built on FiniteGroup:
    elements in discovery order, element h times generator g being h
    after g."""
    ident = tuple(range(degree))
    elems = [ident]
    index = {ident}
    head = 0
    while head < len(elems):
        cur = elems[head]
        for g in generators:
            nxt = tuple(cur[x] for x in g)
            if nxt not in index:
                index.add(nxt)
                elems.append(nxt)
        head += 1
    return tuple(elems)


def reference_quotient_center(g, kernel):
    """Preimage of Z(G/N) as sorted ids, read off the quotient group that
    quotient_group builds (its own table and center), as classify and
    upper_central_series found it before quotient_center."""
    quo = quotient_group(g, kernel)
    return tuple(np.flatnonzero(np.isin(quo.projection, center(quo.target))).tolist())


def reference_taimanov_witness(g):
    """The Taimanov witness greedy as taimanov_topology ran it over a dense
    |G| x |G| commuting matrix: each round counts, for every g, the members
    of the current intersection commuting with g, and adjoins the smallest
    id with the least count.  Returns the witness and its centralizer."""
    commuting = np.empty((g.order, g.order), dtype=bool)
    for x in g.elements():
        commuting[x] = g.commuting_mask(x)
    current = np.ones(g.order, dtype=bool)
    witness = []
    while current.sum() > len(center(g)):
        x = int(np.argmin(commuting[current].sum(axis=0)))
        witness.append(x)
        current &= commuting[:, x]
    return tuple(witness), tuple(np.flatnonzero(current).tolist())


def reference_base_index(perms):
    """The base and sorted per-level keys of the searchsorted chain that
    FiniteGroup._ids used before transition tables: the base is chosen
    greedily in point order with one np.unique per point; level j holds
    (first sorted position of the prefix) * degree + image, sorted.
    Returns (base, level_keys, sorted_ids)."""
    n, degree = perms.shape
    rank = np.zeros(n, dtype=np.int64)
    distinct = 1
    base = []
    for point in range(degree):
        if distinct == n:
            break
        values, refined = np.unique(rank * degree + perms[:, point], return_inverse=True)
        if len(values) > distinct:
            base.append(point)
            rank, distinct = refined.reshape(n), len(values)
    assert distinct == n, "permutation rows are not distinct"
    sorted_ids = np.argsort(rank).astype(np.int32)
    images = perms[:, base][sorted_ids]
    level_keys = []
    start = np.zeros(n, dtype=np.int64)
    for j in range(len(base)):
        keys = start * degree + images[:, j]
        level_keys.append(keys)
        fresh = np.ones(n, dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        start = np.maximum.accumulate(np.where(fresh, np.arange(n), 0))
    return np.asarray(base, dtype=np.intp), level_keys, sorted_ids


def reference_ids(perms, index, images):
    """Element ids of base images (last axis) through the searchsorted chain
    over reference_base_index(perms); ValueError for images no element has."""
    base, level_keys, sorted_ids = index
    pos = np.zeros(images.shape[:-1], dtype=np.int64)
    for j, keys in enumerate(level_keys):
        pos = np.searchsorted(keys, pos * perms.shape[1] + images[..., j])
    ids = sorted_ids[np.minimum(pos, len(perms) - 1)]
    if not np.array_equal(perms[ids[..., None], base], images):
        raise ValueError("permutation is not an element of the group")
    return ids


def reference_transversal(action, root):
    """For each point of the root's orbit, one element mapping root to it,
    as image tuples: the generator walk permaction._transversal made before
    it read the root's column of the element rows."""
    ident = tuple(range(action.degree))
    reached = {root: ident}
    frontier = [root]
    while frontier:
        pt = frontier.pop()
        for g in action.generators:
            img = g[pt]
            if img not in reached:
                reached[img] = tuple(g[x] for x in reached[pt])
                frontier.append(img)
    return reached


def reference_full_symmetric_centralizer(action):
    """The exhaustive centralizer of a PermAction inside S(degree) as
    permaction computed it from itertools.permutations: every permutation in
    lexicographic order, kept when it commutes with every generator."""
    everyone = np.array(list(itertools.permutations(range(action.degree))), dtype=np.int8)
    mask = np.ones(len(everyone), dtype=bool)
    for g in action.generators:
        garr = np.asarray(g, dtype=np.int8)
        mask &= (everyone[:, garr] == garr[everyone]).all(axis=1)
    return tuple(tuple(int(v) for v in row) for row in everyone[mask])
