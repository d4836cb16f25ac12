import json
import os
import resource
import subprocess
import sys

from topolab import DEFAULT_ORDER_CAP


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "topolab", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_classify_text_output():
    result = run_cli("classify", "S4")
    assert result.returncode == 0
    assert "spec: S4" in result.stdout
    assert "taimanov=true" in result.stdout
    assert "arnautov=false" in result.stdout


def test_classify_json_output():
    result = run_cli("classify", "A5", "--json", "--seed", "3")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["spec"] == "A5"
    assert payload["flags"]["arnautov"] is True
    assert payload["seed"] == 3


def test_parse_error_exit_code():
    result = run_cli("classify", "Heis(")
    assert result.returncode == 2
    assert "position 5" in result.stderr


def test_invalid_spec_exit_code():
    result = run_cli("classify", "SL(2,4)")
    assert result.returncode == 2


def test_order_cap_exit_code_and_env_override():
    result = run_cli("classify", "S5", env_extra={"TOPOLAB_ORDER_CAP": "100"})
    assert result.returncode == 3
    result = run_cli("classify", "S5", env_extra={"TOPOLAB_ORDER_CAP": "200"})
    assert result.returncode == 0


def test_semitop_command():
    result = run_cli("semitop", "S4", "--from", "0", "--to", "2")
    assert result.returncode == 0
    assert "semitopological: false" in result.stdout
    assert "violating pair" in result.stdout

    result = run_cli("semitop", "Heis(3)", "--from", "0", "--to", "6", "--steps")
    assert result.returncode == 0
    assert "steps: 2" in result.stdout


def test_semitop_not_comparable_exit_code():
    result = run_cli("semitop", "S4", "--from", "2", "--to", "1")
    assert result.returncode == 1


def test_lattice_command(tmp_path):
    out = tmp_path / "lattice.dot"
    result = run_cli("lattice", "C4", "--dot", str(out))
    assert result.returncode == 0
    text = out.read_text()
    assert text.startswith("digraph lattice {")
    assert 'label="semi:1"' in text


def test_catalog_json_deterministic():
    first = run_cli("catalog", "--max-order", "24", "--json")
    second = run_cli("catalog", "--max-order", "24", "--json")
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    specs = [entry["spec"] for entry in payload]
    assert "S4" in specs and "C256" not in specs


def test_catalog_text():
    result = run_cli("catalog", "--max-order", "8")
    assert result.returncode == 0
    assert any(line.startswith("Q8") for line in result.stdout.splitlines())


def test_perm_command():
    result = run_cli(
        "perm", "--degree", "4", "--gens", "(0 1)", "--check-lemma", "--oracle"
    )
    assert result.returncode == 0
    assert "group order: 2" in result.stdout
    assert "trivial centralizer in S(X): false" in result.stdout
    assert "centralizing witness: (2 3)" in result.stdout
    assert "full centralizer order: 4" in result.stdout
    assert "lemma agrees with oracle: true" in result.stdout


def test_perm_degree_too_large_for_oracle():
    result = run_cli("perm", "--degree", "9", "--gens", "(0 1)", "--oracle")
    assert result.returncode == 1


def test_unwritable_dot_path_is_a_one_line_error(tmp_path):
    result = run_cli("lattice", "C4", "--dot", str(tmp_path / "missing" / "x.dot"))
    assert result.returncode == 1
    assert result.stderr.startswith("error: cannot write")
    assert len(result.stderr.splitlines()) == 1


def test_deeply_nested_spec_is_a_syntax_error():
    result = run_cli("classify", "Dih(" * 2000 + "C3" + ")" * 2000)
    assert result.returncode == 2
    assert "nested more than 32 deep" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    # the deepest spec the parser accepts fails on the order cap instead
    result = run_cli("classify", "Dih(" * 32 + "C3" + ")" * 32)
    assert result.returncode == 3


def test_huge_field_size_hits_the_order_cap_before_primality():
    # trial division of this prime would run for minutes
    result = subprocess.run(
        [sys.executable, "-m", "topolab", "classify", "SL(2,1000000000000000003)"],
        capture_output=True,
        text=True,
        timeout=20,
    )
    assert result.returncode == 3
    assert len(result.stderr.splitlines()) == 1


def _run_bounded(*args, timeout=10):
    return subprocess.run(
        [sys.executable, "-m", "topolab", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def test_huge_symmetric_and_alternating_degrees_hit_the_order_cap():
    # the order is bounded against the cap before n! would be computed
    for spec in ("S100000000", "A100000000", "C2 x S100000000"):
        result = _run_bounded("classify", spec)
        assert result.returncode == 3, spec
        assert result.stderr.startswith("error: spec "), spec
        assert len(result.stderr.splitlines()) == 1, spec


def test_trivial_special_linear_over_a_huge_field_hits_the_order_cap():
    # SL(1, p) has order 1, but its field size counts against the cap
    result = _run_bounded("classify", "SL(1,1000000000000000003)")
    assert result.returncode == 3
    assert result.stderr == (
        "error: SL field size 1000000000000000003 is above the cap (20000)\n"
    )
    assert run_cli("classify", "SL(1,7)").returncode == 0


def test_lattice_above_the_bound_exits_3(tmp_path):
    out = tmp_path / "lattice.dot"
    result = _run_bounded("lattice", "C2 x C2 x C2 x C2 x C2 x C2 x C2", "--dot", str(out), timeout=60)
    assert result.returncode == 3
    assert "normal subgroup lattice exceeds" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


def test_huge_perm_degree_hits_the_cap_before_parsing():
    # parsing would pad every generator to the full degree
    result = _run_bounded("perm", "--degree", "100000000", "--gens", "(0 1)")
    assert result.returncode == 3
    assert result.stderr == "error: perm degree 100000000 is above the cap (100000)\n"


def test_perm_cap_is_above_the_spec_cap():
    # S8 (order 40320) is over DEFAULT_ORDER_CAP but within the perm cap
    assert 40320 > DEFAULT_ORDER_CAP
    result = _run_bounded("perm", "--degree", "8", "--gens", "(0 1 2 3 4 5 6 7),(0 1)")
    assert result.returncode == 0
    assert "group order: 40320\n" in result.stdout
    # S9 (order 362880) is over the perm cap
    result = _run_bounded("perm", "--degree", "9", "--gens", "(0 1 2 3 4 5 6 7 8),(0 1)")
    assert result.returncode == 3
    assert result.stderr == "error: group closure exceeds the order cap (100000)\n"


def _run_in_1gb(*args):
    """The CLI under a 10 s timeout and a 1 GB address-space limit that
    applies to the child process only."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "topolab", *args],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=limit,
    )


def test_huge_point_in_a_perm_spec_hits_the_perm_cap():
    # the degree of a perm spec comes from its largest point
    result = _run_in_1gb("classify", "perm[(99999999 1)]")
    assert result.returncode == 3
    assert result.stderr == "error: perm degree 100000000 is above the cap (100000)\n"
    result = _run_in_1gb("classify", "perm[(70000 1)]")
    assert result.returncode == 0
    assert "order: 2\n" in result.stdout


def test_huge_point_in_perm_generators_is_rejected_before_building():
    result = _run_in_1gb("perm", "--degree", "5", "--gens", "(99999999 1)")
    assert result.returncode == 2
    assert result.stderr == "error: syntax error at position 0: cycles mention point 99999999\n"
