import json
import re

from conftest import EXTRA_LATTICE_SPECS, group
from topolab import classify, emit_lattice_dot, emit_report_json
from topolab.report import emit_catalog_json

NODE_RE = re.compile(r'^  n(\d+) \[label="N#(\d+) \(order (\d+)\)"\];$')
SOLID_RE = re.compile(r"^  n(\d+) -> n(\d+);$")
DASHED_RE = re.compile(r'^  n(\d+) -> n(\d+) \[style=dashed, label="semi:(\d+)"\];$')


def _dot_parts(text):
    lines = text.strip().splitlines()
    assert lines[0] == "digraph lattice {"
    assert lines[-1] == "}"
    nodes, solid, dashed = [], [], []
    for line in lines[1:-1]:
        if line == "  rankdir=BT;":
            continue
        m = NODE_RE.match(line)
        if m:
            nodes.append((int(m.group(1)), int(m.group(3))))
            continue
        m = SOLID_RE.match(line)
        if m:
            solid.append((int(m.group(1)), int(m.group(2))))
            continue
        m = DASHED_RE.match(line)
        if m:
            dashed.append((int(m.group(1)), int(m.group(2)), int(m.group(3))))
            continue
        raise AssertionError(f"unparseable DOT line: {line!r}")
    return nodes, solid, dashed


def test_json_schema_and_key_order():
    rep = classify(group("A5"))
    payload = json.loads(emit_report_json(rep, seed=7))
    assert list(payload) == [
        "spec",
        "order",
        "flags",
        "center_order",
        "normal_subgroups",
        "tool_version",
        "seed",
    ]
    assert payload["spec"] == "A5"
    assert payload["order"] == 60
    assert list(payload["flags"]) == ["perfect", "taimanov", "totally_taimanov", "arnautov"]
    assert all(payload["flags"].values())
    assert len(payload["normal_subgroups"]) == 2
    assert payload["seed"] == 7


def test_json_c6_report():
    payload = json.loads(emit_report_json(classify(group("C6"))))
    assert payload["flags"] == {
        "perfect": False,
        "taimanov": False,
        "totally_taimanov": False,
        "arnautov": False,
    }
    rows = payload["normal_subgroups"]
    assert len(rows) == 4
    assert [row["a_complete"] for row in rows] == [False, False, False, True]
    assert all("witness" in row for row in rows[:3])
    assert "witness" not in rows[3]


def test_json_trivial_group_single_row():
    payload = json.loads(emit_report_json(classify(group("C1"))))
    assert len(payload["normal_subgroups"]) == 1


def test_json_deterministic():
    rep = classify(group("S4"))
    assert emit_report_json(rep, seed=0) == emit_report_json(rep, seed=0)
    again = classify(group("S4"))
    assert emit_report_json(rep, seed=0) == emit_report_json(again, seed=0)
    reports = [classify(group("C6")), classify(group("S3"))]
    assert emit_catalog_json(reports) == emit_catalog_json(reports)


def test_dot_cyclic4_chain():
    text = emit_lattice_dot(group("C4"))
    nodes, solid, dashed = _dot_parts(text)
    assert [order for _, order in nodes] == [1, 2, 4]
    assert solid == [(0, 1), (1, 2)]
    assert dashed == [(0, 1, 1), (0, 2, 1), (1, 2, 1)]


def test_dot_alternating5_no_dashed_edges():
    text = emit_lattice_dot(group("A5"))
    nodes, solid, dashed = _dot_parts(text)
    assert [order for _, order in nodes] == [1, 60]
    assert solid == [(0, 1)]
    assert dashed == []


def test_dot_heisenberg3_two_step_edge():
    g = group("Heis(3)")
    text = emit_lattice_dot(g)
    nodes, solid, dashed = _dot_parts(text)
    assert len(nodes) == 7
    iota_node = len(nodes) - 1
    assert (0, iota_node, 2) in dashed  # delta -> iota takes two steps


def test_dot_s4_single_dashed_edge():
    text = emit_lattice_dot(group("S4"))
    nodes, solid, dashed = _dot_parts(text)
    assert [order for _, order in nodes] == [1, 4, 12, 24]
    assert dashed == [(2, 3, 1)]  # only zeta_A4 -> iota is semitopological


def test_dot_counts_match_lattice(catalog24):
    from topolab import all_normal_subgroups, make_topology, min_steps

    for name, g in catalog24:
        normals = all_normal_subgroups(g)
        if len(normals) > 12:
            continue
        nodes, solid, dashed = _dot_parts(emit_lattice_dot(g))
        assert len(nodes) == len(normals), name
        expected_dashed = 0
        for i, n1 in enumerate(normals):
            for j, n2 in enumerate(normals):
                if i != j and n1.issubset(n2):
                    steps = min_steps(
                        make_topology(g, n1), make_topology(g, n2)
                    ).steps
                    if steps is not None:
                        expected_dashed += 1
        assert len(dashed) == expected_dashed, name


def test_dot_edges_match_brute_covering_and_min_steps(catalog):
    from topolab import all_normal_subgroups, make_topology, min_steps

    for name, g in catalog:
        normals = all_normal_subgroups(g)
        if len(normals) > 100:
            continue
        nodes, solid, dashed = _dot_parts(emit_lattice_dot(g))
        assert nodes == [(k, n.order) for k, n in enumerate(normals)], name
        below = [
            (i, j)
            for i, small in enumerate(normals)
            for j, large in enumerate(normals)
            if i != j and small.issubset(large)
        ]
        covers = [
            (i, j)
            for i, j in below
            if not any(
                k not in (i, j) and normals[i].issubset(mid) and mid.issubset(normals[j])
                for k, mid in enumerate(normals)
            )
        ]
        assert solid == covers, name
        expected = []
        for i, j in below:
            steps = min_steps(make_topology(g, normals[i]), make_topology(g, normals[j])).steps
            if steps is not None:
                expected.append((i, j, steps))
        assert dashed == expected, name


def test_comm_index_matches_commutator_subgroup_and_brute_force(catalog24):
    from conftest import brute_commutator_subgroup
    from topolab import commutator_subgroup, full_subgroup
    from topolab.subgroups import normal_lattice

    for name, g in catalog24:
        lattice = normal_lattice(g)
        full = full_subgroup(g)
        for k, sub in enumerate(lattice.subgroups):
            via_index = lattice.subgroups[lattice.comm_index[k]]
            assert via_index == commutator_subgroup(g, full, sub), (name, k)
            brute = brute_commutator_subgroup(g, g.elements(), sub.elements)
            assert list(via_index.elements) == brute, (name, k)


def test_dot_matches_the_dense_reference(lattice_groups):
    from conftest import reference_lattice_dot

    for name, g in lattice_groups + [(text, group(text)) for text in EXTRA_LATTICE_SPECS]:
        assert emit_lattice_dot(g) == reference_lattice_dot(g), name


def test_comm_index_and_dot_keep_their_temporaries_blocked():
    import tracemalloc

    from topolab.subgroups import normal_lattice

    # C2^6 has 2825 normal subgroups: one unblocked 2825 x 2825 float32
    # product would take 32 MB, and the DOT text itself takes about 5 MB;
    # comm_index tests only its distinct unions against the members
    g = group("C2 x C2 x C2 x C2 x C2 x C2")
    lattice = normal_lattice(g)
    tracemalloc.start()
    try:
        lattice.comm_index
        emit_lattice_dot(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak
