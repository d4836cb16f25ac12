import subprocess
import sys

import pytest

from topolab import (
    Cyclic,
    GeneralizedDihedral,
    PermSpec,
    Product,
    SpecSyntaxError,
    Symmetric,
    parse_group_spec,
    print_group_spec,
    format_perm,
)
from topolab.specparse import parse_perm_generators


def test_atoms():
    assert parse_group_spec("S4") == Symmetric(4)
    assert parse_group_spec("C2 x C2") == Product(Cyclic(2), Cyclic(2))
    assert parse_group_spec("Dih(C9)") == GeneralizedDihedral(Cyclic(9))


def test_products_associate_left():
    ast = parse_group_spec("C2 x C3 x C4")
    assert ast == Product(Product(Cyclic(2), Cyclic(3)), Cyclic(4))


def test_whitespace_insensitive():
    assert parse_group_spec("C2xC2") == parse_group_spec("  C2  x  C2 ")
    assert parse_group_spec("SL( 3 , 2 )") == parse_group_spec("SL(3,2)")


def test_perm_specs():
    spec = parse_group_spec("perm[(0 1 2),(0 1)]")
    assert spec == PermSpec(3, ((1, 2, 0), (1, 0, 2)))
    double = parse_group_spec("perm[(0 1)(2 3)]")
    assert double == PermSpec(4, ((1, 0, 3, 2),))
    pinned = parse_group_spec("perm[(0 1)(4)]")
    assert pinned.degree == 5
    # the rightmost cycle acts first
    assert parse_group_spec("perm[(0 1)(1 2)]") == PermSpec(3, ((1, 2, 0),))


@pytest.mark.parametrize(
    "text",
    [
        "S4",
        "C2 x C2",
        "C12 x D8 x Q8",
        "Heis(5)",
        "Dih(C3 x C3)",
        "SL(3,2)",
        "ASL(3,2)",
        "perm[(0 1 2),(0 1)]",
        "perm[(0 1)(2 3),(0 2)(1 3)]",
        "perm[(0)]",
    ],
)
def test_parse_print_roundtrip(text):
    ast = parse_group_spec(text)
    assert parse_group_spec(print_group_spec(ast)) == ast


def test_print_pins_perm_degree():
    spec = PermSpec(6, ((1, 0, 2, 3, 4, 5),))
    printed = print_group_spec(spec)
    assert printed == "perm[(0 1)(5)]"
    assert parse_group_spec(printed) == spec


@pytest.mark.parametrize(
    "text, position",
    [
        ("Heis(", 5),
        ("", 0),
        ("C", 1),
        ("S4 )", 3),
        ("perm[]", 5),
        ("x C2", 0),
        ("Dih(S3", 6),
        ("SL(3 2)", 5),
    ],
)
def test_syntax_error_positions(text, position):
    with pytest.raises(SpecSyntaxError) as err:
        parse_group_spec(text)
    assert err.value.position == position


@pytest.mark.parametrize(
    "text, position, expected",
    [
        ("C\u00b2", 1, ("integer",)),  # superscript two
        ("C\u0663", 1, ("integer",)),  # Arabic-Indic three
        ("Heis(\uff13)", 5, ("integer",)),  # fullwidth three
        ("C1\u00b2", 2, ("'x'", "end of input")),
        ("perm[(0 \u00b9)]", 8, ("integer", "')'")),
        ("perm[(\u00b9 0)]", 6, ("integer",)),
    ],
)
def test_integers_take_ascii_digits_only(text, position, expected):
    with pytest.raises(SpecSyntaxError) as err:
        parse_group_spec(text)
    assert (err.value.position, err.value.expected) == (position, expected)


def test_perm_generators_take_ascii_digits_only():
    with pytest.raises(SpecSyntaxError) as err:
        parse_perm_generators("(0 \u00b9)", 3)
    assert (err.value.position, err.value.expected) == (3, ("integer", "')'"))


def test_repeated_point_in_cycle_rejected():
    with pytest.raises(SpecSyntaxError):
        parse_group_spec("perm[(0 0)]")


def test_parse_perm_generators_pads_to_degree():
    gens = parse_perm_generators("(0 1),(2 3)", 6)
    assert gens == ((1, 0, 2, 3, 4, 5), (0, 1, 3, 2, 4, 5))
    with pytest.raises(SpecSyntaxError):
        parse_perm_generators("(0 7)", 4)


def test_many_cycles_parse_without_a_pass_per_cycle_over_the_degree():
    # 40000 transpositions on 80000 points: one pass over all points per
    # cycle would take minutes
    spec = "perm[" + "".join(f"({2 * i} {2 * i + 1})" for i in range(40000)) + "]"
    script = "import sys; from topolab import parse_group_spec; print(parse_group_spec(sys.stdin.read()).degree)"
    result = subprocess.run(
        [sys.executable, "-c", script], input=spec, capture_output=True, text=True, timeout=10
    )
    assert result.returncode == 0 and result.stdout == "80000\n"


def test_format_perm():
    assert format_perm((1, 0, 3, 2)) == "(0 1)(2 3)"
    assert format_perm((0, 1, 2)) == "()"
    assert format_perm((1, 2, 0)) == "(0 1 2)"
