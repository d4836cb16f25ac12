import json
import os
import resource
import subprocess
import sys

import pytest
from conftest import c2_power_gens
from topolab import DEFAULT_ORDER_CAP, errors


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


@pytest.mark.parametrize("cap", ["0", "-5", "many"])
@pytest.mark.parametrize("command", [["classify", "C1"], ["lattice", "C1", "--dot", os.devnull], ["catalog"]])
def test_an_order_cap_below_1_or_not_an_integer_is_rejected(command, cap):
    result = run_cli(*command, env_extra={"TOPOLAB_ORDER_CAP": cap})
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: TOPOLAB_ORDER_CAP must be a positive integer, got '{cap}'\n"


@pytest.mark.parametrize("spec", ["S9", "C3 x S9", "Dih(C20000)"])
def test_a_spec_over_the_cap_is_named_in_the_spec_language(spec):
    result = run_cli("classify", spec)
    assert result.returncode == 3
    assert result.stderr == f"error: spec {spec} has order above the cap ({DEFAULT_ORDER_CAP})\n"


def test_semitop_command():
    result = run_cli("semitop", "S4", "--from", "0", "--to", "2")
    assert result.returncode == 0
    assert "semitopological: false" in result.stdout
    assert "violating pair" in result.stdout

    result = run_cli("semitop", "Heis(3)", "--from", "0", "--to", "6", "--steps")
    assert result.returncode == 0
    assert "steps: 2" in result.stdout


def test_semitop_not_comparable_exit_code():
    for extra in ((), ("--steps",)):
        result = run_cli("semitop", "S4", "--from", "2", "--to", "1", *extra)
        assert result.returncode == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1


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
    assert result.stdout == ""
    assert result.stderr == "error: exhaustive centralizer limited to degree 8\n"


@pytest.mark.parametrize("degree", ["0", "-3"])
def test_perm_degree_below_one_is_an_invalid_spec(degree):
    result = run_cli("perm", "--degree", degree, "--gens", "(0)")
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: perm degree must be >= 1\n"


def test_perm_failing_lemma_check_writes_no_stdout(monkeypatch, capsys):
    from topolab import cli

    def failing(action):
        raise errors.InternalInconsistency("routes disagree")

    monkeypatch.setattr(cli, "lemma_trivial_centralizer", failing)
    assert cli.main(["perm", "--degree", "4", "--gens", "(0 1)", "--check-lemma"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: routes disagree\n"


@pytest.mark.parametrize(
    "gens, detail",
    [
        ("", "position 0: expected '('"),
        ("(0 1", "position 4: expected integer or ')'"),
        ("(0 1),", "position 6: expected '('"),
        ("(0 1)x", "position 5: expected '(' or ',' or end of input"),
    ],
)
def test_perm_gens_syntax_errors_point_into_the_gens_text(gens, detail, capsys):
    from topolab import cli

    assert cli.main(["perm", "--degree", "3", "--gens", gens]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: syntax error at {detail}\n"


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


@pytest.mark.parametrize(
    "args, position",
    [
        (("classify", "C" + "9" * 5000), 1),
        (("perm", "--degree", "8", "--gens", "(0 " + "9" * 5000 + ")"), 3),
    ],
)
def test_an_integer_of_thousands_of_digits_is_a_syntax_error(args, position):
    # Python refuses to convert a digit string of more than 4300 digits
    result = run_cli(*args)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"error: syntax error at position {position}: integer of more than 100 digits\n"


def test_an_integer_of_100_digits_reaches_the_order_cap():
    result = run_cli("classify", "C" + "9" * 100)
    assert result.returncode == 3
    assert result.stderr == f"error: spec C{'9' * 100} has order above the cap ({DEFAULT_ORDER_CAP})\n"


def test_a_spec_of_more_than_64_factors_is_a_syntax_error(capsys):
    # every walk of the spec tree recurses into each product: 990 factors
    # ran past Python's recursion limit
    from topolab import cli

    at_limit = " x ".join(["C1"] * 64)
    assert cli.main(["classify", at_limit]) == 0  # in process, under the test runner's frames
    assert "order: 1\n" in capsys.readouterr().out
    for spec in (at_limit + " x C1", " x ".join(["C2"] * 2000)):
        result = run_cli("classify", spec)
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == f"error: syntax error at position {len(at_limit) + 3}: more than 64 factors\n"


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


@pytest.mark.parametrize("spec, lo, hi", [("S7", "1", "2"), ("Heis(13) x C8", "4", "67")])
def test_semitop_true_pairs_decide_in_seconds(spec, lo, hi):
    # the elementwise oracle took about 4 s and 45 s on these
    result = _run_bounded("semitop", spec, "--from", lo, "--to", hi, timeout=20)
    assert result.returncode == 0
    assert "semitopological: true\noracle agrees: true\n" in result.stdout
    assert "Traceback" not in result.stderr


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


@pytest.mark.parametrize("spec", ["SL(4294967297,2)", "ASL(99999999999999999999,2)", "C2 x SL(4294967297,2)"])
def test_a_dimension_past_a_c_integer_hits_the_order_cap(spec):
    # n(n-1)/2 and n above 2^63 - 1 count factors of |SL(n,p)| and |ASL(n,p)|
    result = _run_bounded("classify", spec)
    assert result.returncode == 3
    assert result.stderr == f"error: spec {spec} has order above the cap ({DEFAULT_ORDER_CAP})\n"
    assert "Traceback" not in result.stderr


def test_catalog_past_a_low_cap_exits_3_with_no_output():
    result = run_cli("catalog", env_extra={"TOPOLAB_ORDER_CAP": "100"})
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "error: spec C128 has order above the cap (100)\n"


def test_lattice_above_the_bound_exits_3(tmp_path):
    out = tmp_path / "lattice.dot"
    result = _run_bounded("lattice", "C2 x C2 x C2 x C2 x C2 x C2 x C2", "--dot", str(out), timeout=60)
    assert result.returncode == 3
    assert "normal subgroup lattice exceeds" in result.stderr
    assert len(result.stderr.splitlines()) == 1
    assert not out.exists()


def test_wide_lattice_past_the_bound_exits_3_in_seconds():
    # C7^5: 2801 principals; the search refuses once it passes the bound,
    # after 33 columns of the join table
    result = _run_bounded("classify", "C7 x C7 x C7 x C7 x C7", timeout=60)
    assert result.returncode == 3
    assert result.stderr == "error: normal subgroup lattice exceeds 4096 entries\n"


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


def _run_in_1gb(*args, stdin=None, timeout=10):
    """The CLI under a timeout (10 s by default) and a 1 GB address-space
    limit that applies to the child process only."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "topolab", *args],
        input=stdin,
        capture_output=True,
        text=True,
        timeout=timeout,
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


def test_perm_stabilizers_fit_in_1gb():
    # up to 19999 stabilizers: each must cost about order bytes, not order x degree
    cases = [(str(2 * (2**k - 1)), c2_power_gens(k), 2**k - 1) for k in (9, 10)]
    cases.append(("20000", "(0 1)", 19999))
    for degree, gens, orbits in cases:
        result = _run_in_1gb("perm", "--degree", degree, "--gens", gens, "--check-lemma")
        assert result.returncode == 0
        assert "Traceback" not in result.stderr
        lines = result.stdout.splitlines()
        assert sum(line.startswith("stabilizer at ") for line in lines) == orbits


def test_running_out_of_memory_exits_3_with_one_line():
    # the order is at the cap, and the action on 20000 points (800 MB of
    # rows) does not fit in 1 GB beside the 200 MB of C10000's, its base;
    # C20000's rows alone now do
    result = _run_in_1gb("classify", "D20000", timeout=60)
    assert result.returncode == 3
    assert result.stdout == ""
    assert result.stderr == "error: out of memory\n"
    assert "Traceback" not in result.stderr


def test_huge_point_in_perm_generators_is_rejected_before_building():
    result = _run_in_1gb("perm", "--degree", "5", "--gens", "(99999999 1)")
    assert result.returncode == 2
    assert result.stderr == "error: syntax error at position 0: cycles mention point 99999999\n"


def test_many_generators_of_a_huge_degree_hit_the_entry_cap():
    # 3000 generators on 100000 points would be 3000 image tuples of 100000
    # entries each before the group is built
    gens = ",".join(f"(99999 {i})" for i in range(1, 3001))
    cap_line = (
        "error: perm spec with 3000 generators of degree 100000 "
        "is above the cap (1000000 image entries)\n"
    )
    result = _run_in_1gb("classify", f"perm[{gens}]")
    assert result.returncode == 3
    assert result.stderr == cap_line
    result = _run_in_1gb("perm", "--degree", "100000", "--gens", gens)
    assert result.returncode == 3
    assert result.stderr == cap_line
    result = _run_in_1gb("perm", "--degree", "100000", "--gens", "-", stdin=gens)
    assert result.returncode == 3
    assert result.stderr == cap_line


def test_perm_generator_text_on_stdin_is_capped_before_parsing():
    # 2.4 MB of "(0 1)," would be 400000 generators' cycle lists
    text_cap_line = "error: perm generator text is above the cap (1000000 characters)\n"
    for degree in ("2", "100000"):
        result = _run_in_1gb("perm", "--degree", degree, "--gens", "-", stdin="(0 1)," * 400_000)
        assert result.returncode == 3
        assert result.stderr == text_cap_line


def test_perm_reads_generators_from_stdin():
    # the C2^12 action's cycle text is over Linux's 128 KiB limit on one argument
    gens = c2_power_gens(12)
    assert len(gens) > 128 << 10
    result = _run_in_1gb("perm", "--degree", "8190", "--gens", "-", "--check-lemma", stdin=gens, timeout=60)
    assert result.returncode == 0
    assert result.stderr == ""
    lines = result.stdout.splitlines()
    assert lines[:2] == ["degree: 8190", "group order: 4096"]
    assert sum(line.startswith("stabilizer at ") for line in lines) == 4095
    assert "trivial centralizer in S(X): false" in lines
    small = _run_in_1gb("perm", "--degree", "4", "--gens", "-", "--oracle", stdin="(0 1),\n(2 3)\n")
    assert small.returncode == 0
    assert "full centralizer order: 4\n" in small.stdout


def test_main_called_again_in_process_prints_what_a_fresh_process_prints(capsys):
    from topolab.cli import main

    semitop = ["semitop", "Heis(3)", "--from", "0", "--to", "6"]
    pairs = ((semitop + ["--steps"], semitop), (["classify", "S4", "--json"], ["classify", "S4"]))
    for first, second in pairs:
        assert main(first) == 0
        capsys.readouterr()
        assert main(second) == 0
        again = capsys.readouterr().out
        fresh = run_cli(*second)
        assert fresh.returncode == 0
        assert again == fresh.stdout, second


@pytest.mark.parametrize(
    "error, code",
    [
        (errors.SpecSyntaxError(0, ("group atom",)), 2),
        (errors.InvalidSpec("bad spec"), 2),
        (errors.OrderCapExceeded("too big"), 3),
        (errors.NotNormal("not normal"), 1),
        (errors.GroupMismatch("other group"), 1),
        (errors.NotComparable("not nested"), 1),
        (errors.DegreeTooLarge("too many points"), 1),
        (errors.InternalInconsistency("routes disagree"), 1),
        (errors.TopolabError("cannot write"), 1),
    ],
)
def test_every_error_is_one_line_and_its_documented_exit_code(error, code, monkeypatch, capsys):
    from topolab import cli

    def failing(args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "classify", failing)
    assert cli.main(["classify", "C2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {error}\n"
