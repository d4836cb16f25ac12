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


# wide lattices, and large cyclic and dihedral groups with many classes per
# cyclic subgroup, beside the catalog in the normal-lattice reference checks
LATTICE_SPECS = ("C2 x C2 x C2 x C2 x C2", "C2 x C2 x C2 x C4", "C4 x C4 x C2", "D2000", "C4000")

# beside lattice_groups in the slower checks: wide lattices of odd order,
# and a nonabelian one whose principal subgroups need two seeds
EXTRA_LATTICE_SPECS = ("C3 x C3 x C3 x C3", "Heis(5) x C5")


# beside lattice_groups and EXTRA_LATTICE_SPECS where normal closures, [G, N]
# and quotient centres read one element per class: non-abelian groups with
# large classes, on both sides of the dense-table limit, and A4, which has
# a normal Sylow subgroup but is not nilpotent
CLASS_ROUTE_SPECS = ("S7", "SL(2,17)", "ASL(3,2)", "A5 x C7", "A4")


@pytest.fixture
def count_products(monkeypatch):
    """Call it to start counting FiniteGroup.mul_many: it returns a list
    that gets the size of every product array served from then on, one
    entry per call."""
    from topolab.groups import FiniteGroup

    multiply = FiniteGroup.mul_many
    served = []

    def counting(self, xs, ys):
        got = multiply(self, xs, ys)
        served.append(np.size(got))
        return got

    def start():
        monkeypatch.setattr(FiniteGroup, "mul_many", counting)
        return served

    return start


@pytest.fixture(scope="session")
def lattice_groups(catalog):
    return list(catalog) + [(text, group(text)) for text in LATTICE_SPECS]


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
    values = {g.mul(g.mul(h, k), g.mul(g.inv(h), g.inv(k))) for h in hs for k in ks}
    return brute_closure(g, values)


def reference_normalizer(ambient, sub):
    """Ids of the h in ambient with h x h^-1 in sub for every x in sub."""
    g = ambient.parent
    return tuple(
        h for h in ambient.elements if all(g.mul(g.mul(h, x), g.inv(h)) in sub for x in sub.elements)
    )


def reference_are_conjugate(ambient, first, second):
    """(True, the first h in ambient with h first h^-1 = second) or (False, None)."""
    g = ambient.parent
    if first.order == second.order:
        for h in ambient.elements:
            if all(g.mul(g.mul(h, x), g.inv(h)) in second for x in first.elements):
                return True, h
    return False, None


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
    ids = np.arange(g.order)
    cmaps = [g.mul_many(g.mul_many(s, ids), g.inv(s)) for s in g.generator_ids]
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


def reference_cayley_table(n, rmul):
    """Dense table of a group of order n from right multiplication by each
    generator (rmul[i][x] = x * g_i), as groups.cayley_table filled it
    before it went row-wise: one strided column per breadth-first tree
    node, column y = rmul[i] applied to column p when y = p * g_i."""
    table = np.empty((n, n), dtype=np.int32)
    table[:, 0] = np.arange(n, dtype=np.int32)
    done = np.zeros(n, dtype=bool)
    done[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        grown = []
        for r in rmul:
            images = r[frontier]
            fresh = ~done[images]
            ys, first = np.unique(images[fresh], return_index=True)
            done[ys] = True
            table[:, ys] = r[table[:, frontier[fresh][first]]]
            grown.append(ys)
        frontier = np.concatenate(grown) if grown else frontier[:0]
    assert done.all()
    return table


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


def reference_sorted_transition_tables(perms):
    """groups._base_index as it was before it dropped the sort: one np.unique
    per refining point relabels the pairs state * degree + image, and an
    argsort of the states tells whether a point refines them (its column
    changes inside one state).  Returns (base, levels)."""
    n, degree = perms.shape
    rank = np.zeros(n, dtype=np.int64)
    order = np.arange(n)
    same = np.ones(n - 1, dtype=bool)
    distinct = 1
    base = []
    levels = []
    for point in range(degree):
        if distinct == n:
            break
        column = perms[order, point]
        if not (same & (column[1:] != column[:-1])).any():
            continue
        values, refined = np.unique(rank * degree + perms[:, point], return_inverse=True)
        last = len(values) == n
        level = np.full((distinct + 1, degree), -1 if last else len(values), dtype=np.int32)
        level[rank, perms[:, point]] = np.arange(n) if last else refined.reshape(n)
        base.append(point)
        levels.append(level)
        rank, distinct = refined.reshape(n), len(values)
        order = np.argsort(rank)
        same = rank[order[1:]] == rank[order[:-1]]
    assert distinct == n, "permutation rows are not distinct"
    return np.asarray(base, dtype=np.intp), levels


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


def reference_product_ids(g, xs, ys):
    """Products x*y through the base-image lookup as FiniteGroup._product_ids
    read it before flat takes: 2-D broadcast fancy indexing of perms at the
    base columns of y."""
    y_base = g.perms[np.asarray(ys)[..., None], g._base]
    return reference_level_ids(g, g.perms[np.asarray(xs)[..., None], y_base])


def reference_level_ids(g, images):
    """Element ids of base images (last axis) as FiniteGroup._ids read them
    before flat takes: level[state, image] by 2-D fancy indexing, then the
    check that each id has those base images."""
    state = np.zeros(images.shape[:-1], dtype=np.int32)
    for j, level in enumerate(g._levels):
        state = level[state, images[..., j]]
    if (state < 0).any() or not np.array_equal(g.perms[state[..., None], g._base], images):
        raise ValueError("permutation is not an element of the group")
    return state


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


def c2_power_gens(k):
    """The --gens text of the C2^k action: k generators on 2(2^k - 1)
    points, generator i swapping 2(c-1) and 2(c-1)+1 for every c in
    1..2^k-1 with bit i set, so each pair is an orbit with a stabilizer of
    its own."""
    return ",".join(
        "".join(f"({2 * c - 2} {2 * c - 1})" for c in range(1, 2**k) if c >> i & 1)
        for i in range(k)
    )


def reference_orbit_data(action):
    """Orbits, representatives and representative stabilizers as
    permaction.orbit_data found them before stabilizers were Subgroup masks:
    each stabilizer a tuple of permutation tuples, in element order."""
    from topolab.errors import InternalInconsistency
    from topolab.permaction import _orbit_partition

    perms = action.group.perms
    fixed = action.fixed_points()
    orbits = _orbit_partition(action)
    reps = tuple(orbit[0] for orbit in orbits)
    stabilizers = {}
    for orbit, rep in zip(orbits, reps):
        stab = tuple(map(tuple, perms[fixed[:, rep]].tolist()))
        if len(orbit) * len(stab) != action.order:
            raise InternalInconsistency("orbit-stabilizer arithmetic fails")
        stabilizers[rep] = stab
    return orbits, reps, stabilizers


def reference_lemma_trivial_centralizer(action):
    """The trivial-centralizer criterion as permaction decided it before its
    one pass over packed stabilizer keys: condition (b) compares stabilizer
    bytes pair by pair over later orbits, then condition (a) within each
    orbit, smallest representatives first."""
    from topolab.permaction import LemmaFailure, _first_mapping, _orbit_partition

    fixed = action.fixed_points()
    stabs = [fixed[:, pt].tobytes() for pt in range(action.degree)]
    orbits = _orbit_partition(action)
    reps = [orbit[0] for orbit in orbits]
    for i, x in enumerate(reps):
        for z, orbit_z in ((reps[j], orbits[j]) for j in range(i + 1, len(reps))):
            for y in orbit_z:
                if stabs[y] == stabs[x]:
                    return False, LemmaFailure(
                        condition="b",
                        representative=x,
                        other_representative=z,
                        paired_point=y,
                        conjugator=_first_mapping(action, y, z),
                    )
    for x, orbit in zip(reps, orbits):
        for y in orbit:
            if y != x and stabs[y] == stabs[x]:
                return False, LemmaFailure(
                    condition="a",
                    representative=x,
                    other_representative=None,
                    paired_point=y,
                    conjugator=_first_mapping(action, y, x),
                )
    return True, None


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


def reference_principal_closures(g):
    """The normal closure of every nontrivial conjugacy class, as a set of
    packed masks, with one _closure per class as normal_lattice found its
    principal subgroups before it closed one class per cyclic subgroup."""
    from topolab.subgroups import _closure, conjugacy_classes

    return {np.packbits(_closure(g, cls)[0]).tobytes() for cls in conjugacy_classes(g)[1:]}


def reference_normal_lattice_masks(g):
    """Packed masks of every normal subgroup, as normal_lattice found them
    before it searched a level at a time: one Python iteration per member,
    which labels that member's cosets afresh and joins it with every
    principal subgroup apart from it."""
    from topolab.subgroups import _coset_labels, _principal_closures

    def fresh_rows(block, seen):
        """Positions of the rows whose bytes are new keys of seen, adding them."""
        keys = [row.tobytes() for row in block]
        return [i for i, k in enumerate(keys) if k not in seen and seen.setdefault(k) is None]

    rows, found = [], {}

    def add(block):
        rows.extend(block[k] for k in fresh_rows(np.packbits(block, axis=1), found))

    add((np.arange(g.order) == 0)[None])
    add(_principal_closures(g)[0])
    count = len(rows) - 1
    which, members = np.nonzero(np.array(rows[1:], dtype=bool).reshape(count, g.order))
    sizes = np.bincount(which, minlength=count)
    k = 1
    while k < len(rows):
        mask = rows[k]
        k += 1
        meet = np.bincount(which, weights=mask[members], minlength=count)  # |P n N|
        apart = (meet < sizes) & (meet < mask.sum())
        if not apart.any():
            continue
        labels, reps = _coset_labels(g, np.flatnonzero(mask))
        pick = apart[which]
        hit = np.zeros((count, len(reps)), dtype=bool)
        hit[which[pick], labels[members[pick]]] = True
        distinct = hit[apart]
        add(distinct[fresh_rows(np.packbits(distinct, axis=1), {})][:, labels])
    return {np.packbits(row).tobytes() for row in rows}


def reference_coset_labels(g, kernel):
    """Coset numbers and smallest members modulo a normal subgroup given by
    its element ids, as _coset_labels found them before it labelled cosets
    in blocks: a pass over the ids with one mul_many call per coset."""
    labels = np.full(g.order, -1, dtype=np.int32)
    reps = []
    for x in range(g.order):
        if labels[x] < 0:
            labels[g.mul_many(x, kernel)] = len(reps)
            reps.append(x)
    return labels, reps


def reference_contains(lattice):
    """contains[i, j], N_i <= N_j, read off the element masks: N_i lies in
    N_j iff the two share all |N_i| elements of N_i."""
    masks = lattice.masks.astype(np.float32)
    return masks @ masks.T == masks.sum(axis=1)[:, None]


def reference_comm_index(g, lattice):
    """Position of [G, N] for every lattice member N, with one
    commutator_subgroup call per member, as NormalLattice.comm_index was
    built before it read [G, N] off the principal members."""
    from topolab.subgroups import commutator_subgroup, full_subgroup

    full = full_subgroup(g)
    return [lattice.index(commutator_subgroup(g, full, sub)) for sub in lattice.subgroups]


def reference_commutator_with_g(g, sub):
    """[G, N] for a normal N as the subgroup generated by every [x, n], x in
    G and n in N.  Since y [x, n] y^-1 = [y x y^-1, y n y^-1], those are the
    members of the classes of the [x, m] over every x in G and the smallest
    member m of each class of N; the closure is the element path's."""
    from topolab.groups import _commutators
    from topolab.subgroups import _class_labels, _closure

    labels = _class_labels(g)
    minima = np.flatnonzero(sub.mask & (labels == np.arange(g.order)))
    hit = np.zeros(g.order, dtype=bool)
    hit[labels[_commutators(g, np.arange(g.order)[:, None], minima[None, :])]] = True
    return _closure(g, np.flatnonzero(hit[labels]))[0]


def reference_semitop_oracle(tau, sigma):
    """Whether every commutator [g, l], g in G and l in L = kernel(sigma),
    lies in N = kernel(tau): the elementwise brute force that
    is_semitopological_oracle ran before it read the criterion off the
    generators and the cosets of N."""
    g, small, large = tau.group, tau.kernel, sigma.kernel
    every_g = np.arange(g.order)
    commutators = (
        g.mul_many(g.mul_many(g.mul_many(every_g, l), g.inverses[every_g]), g.inverses[l])
        for l in large.elements
    )
    return all(small.mask[c].all() for c in commutators)


def reference_lattice_dot(g):
    """The DOT text of emit_lattice_dot as it was built before it walked
    the containment matrix in row blocks: dense |L| x |L| matrices, covers
    one row at a time and the commutator chain one column at a time."""
    from topolab.subgroups import normal_lattice

    lattice = normal_lattice(g)
    count = len(lattice.subgroups)
    above = lattice.contains.copy()
    np.fill_diagonal(above, False)  # above[i, j]: N_i strictly inside N_j
    covers = np.empty_like(above)
    for i in range(count):
        up = above[i]
        covers[i] = up & ~above[up].any(axis=0)
    comm = lattice.comm_index
    steps = np.zeros((count, count), dtype=np.int8)
    for j in range(count):
        chain = [comm[j]]
        while comm[chain[-1]] != chain[-1]:
            chain.append(comm[chain[-1]])
        inside = lattice.contains[chain]  # inside[t, i]: term t lies in N_i
        steps[:, j] = np.where(inside.any(axis=0), inside.argmax(axis=0) + 1, 0)
    steps[~above] = 0
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for k, sub in enumerate(lattice.subgroups):
        lines.append(f'  n{k} [label="N#{k} (order {sub.order})"];')
    for i, j in zip(*(idx.tolist() for idx in np.nonzero(covers))):
        lines.append(f"  n{i} -> n{j};")
    dashed = np.nonzero(steps)
    for i, j, n in zip(*(idx.tolist() for idx in dashed), steps[dashed].tolist()):
        lines.append(f'  n{i} -> n{j} [style=dashed, label="semi:{n}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
