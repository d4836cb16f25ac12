"""Parser and printer for the group-spec mini-language.

Grammar (whitespace between tokens is ignored):

    spec   := term {"x" term}
    term   := "C" int | "D" int | "Q8" | "S" int | "A" int
            | "Heis" "(" int ")" | "Dih" "(" spec ")"
            | "SL" "(" int "," int ")" | "ASL" "(" int "," int ")"
            | "perm" "[" gen {"," gen} "]"
    gen    := cycle {cycle}          (juxtaposed cycles multiply)
    cycle  := "(" int {int} ")"

Products associate to the left.  A perm spec's degree is one more than the
largest point mentioned; above permaction.MATERIALIZATION_CAP it raises
OrderCapExceeded before any permutation is built.  Printing appends a
singleton cycle to pin a degree that exceeds every moved point, and parsing
drops generators that reduce to the identity, so parse(print(ast)) == ast
for any parser-produced AST.

"Dih(" nests at most MAX_NESTING deep: each level doubles the order, so
deeper specs are far beyond any group that can be built, and rejecting
them here keeps the recursion bounded.
"""

from __future__ import annotations

from .errors import OrderCapExceeded, SpecSyntaxError

MAX_NESTING = 32
from .groups import (
    AffineSpecialLinear,
    Alternating,
    Cyclic,
    Dihedral,
    GeneralizedDihedral,
    GroupSpec,
    Heisenberg,
    PermSpec,
    Product,
    Quaternion8,
    SpecialLinear,
    Symmetric,
)
from .permaction import MATERIALIZATION_CAP


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def try_literal(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect_literal(self, literal: str) -> None:
        if not self.try_literal(literal):
            raise SpecSyntaxError(self.pos, (f"'{literal}'",))

    def peek_literal(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def expect_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError(start, ("integer",))
        return int(self.text[start : self.pos])


def parse_group_spec(text: str) -> GroupSpec:
    """Parse a spec string to its AST; raises SpecSyntaxError with the
    offending position and the expected tokens."""
    scanner = _Scanner(text)
    spec = _parse_spec(scanner)
    if not scanner.at_end():
        raise SpecSyntaxError(scanner.pos, ("'x'", "end of input"))
    return spec


def _parse_spec(scanner: _Scanner) -> GroupSpec:
    spec = _parse_term(scanner)
    while scanner.try_literal("x"):
        spec = Product(spec, _parse_term(scanner))
    return spec


def _parse_term(scanner: _Scanner) -> GroupSpec:
    # longest keywords first so "ASL(" is never read as "A" of a 5-term
    if scanner.try_literal("ASL"):
        scanner.expect_literal("(")
        n = scanner.expect_int()
        scanner.expect_literal(",")
        p = scanner.expect_int()
        scanner.expect_literal(")")
        return AffineSpecialLinear(n, p)
    if scanner.try_literal("SL"):
        scanner.expect_literal("(")
        n = scanner.expect_int()
        scanner.expect_literal(",")
        p = scanner.expect_int()
        scanner.expect_literal(")")
        return SpecialLinear(n, p)
    if scanner.try_literal("Heis"):
        scanner.expect_literal("(")
        m = scanner.expect_int()
        scanner.expect_literal(")")
        return Heisenberg(m)
    if scanner.try_literal("Dih"):
        scanner.expect_literal("(")
        if scanner.depth == MAX_NESTING:
            raise SpecSyntaxError(
                scanner.pos, (), f"'Dih(' nested more than {MAX_NESTING} deep"
            )
        scanner.depth += 1
        inner = _parse_spec(scanner)
        scanner.depth -= 1
        scanner.expect_literal(")")
        return GeneralizedDihedral(inner)
    if scanner.try_literal("perm"):
        return _parse_perm(scanner)
    if scanner.try_literal("Q8"):
        return Quaternion8()
    if scanner.try_literal("C"):
        return Cyclic(scanner.expect_int())
    if scanner.try_literal("D"):
        return Dihedral(scanner.expect_int())
    if scanner.try_literal("S"):
        return Symmetric(scanner.expect_int())
    if scanner.try_literal("A"):
        return Alternating(scanner.expect_int())
    raise SpecSyntaxError(scanner.pos, ("group atom",))


def _parse_cycle(scanner: _Scanner) -> list[int]:
    scanner.expect_literal("(")
    points = [scanner.expect_int()]
    while not scanner.peek_literal(")"):
        scanner.skip_ws()
        if scanner.pos >= len(scanner.text) or not scanner.text[scanner.pos].isdigit():
            raise SpecSyntaxError(scanner.pos, ("integer", "')'"))
        points.append(scanner.expect_int())
    scanner.expect_literal(")")
    if len(set(points)) != len(points):
        raise SpecSyntaxError(scanner.pos, ("distinct points in a cycle",))
    return points


def _parse_perm(scanner: _Scanner) -> PermSpec:
    gens_cycles = _parse_bracketed_cycles(scanner)
    degree = 1 + max(pt for gen in gens_cycles for cyc in gen for pt in cyc)
    if degree > MATERIALIZATION_CAP:
        raise OrderCapExceeded(f"perm degree {degree} is above the cap ({MATERIALIZATION_CAP})")
    return PermSpec(degree, _generators(gens_cycles, degree))


def _parse_bracketed_cycles(scanner: _Scanner) -> list[list[list[int]]]:
    """The cycles of each generator in "[gen, gen, ...]"."""
    scanner.expect_literal("[")
    gens_cycles: list[list[list[int]]] = [[_parse_cycle(scanner)]]
    while True:
        if scanner.peek_literal("("):
            gens_cycles[-1].append(_parse_cycle(scanner))
        elif scanner.try_literal(","):
            gens_cycles.append([_parse_cycle(scanner)])
        else:
            break
    scanner.expect_literal("]")
    return gens_cycles


def _generators(gens_cycles: list[list[list[int]]], degree: int) -> tuple[tuple[int, ...], ...]:
    """Each generator as an image tuple on 0..degree-1, the product of its
    cycles with the rightmost acting first; identities are dropped.  A
    cycle touches only its own points."""
    identity = tuple(range(degree))
    generators = []
    for cycles in gens_cycles:
        perm = list(identity)
        for cyc in cycles:
            images = [perm[b] for b in cyc[1:] + cyc[:1]]
            for a, image in zip(cyc, images):
                perm[a] = image
        if tuple(perm) != identity:
            generators.append(tuple(perm))
    return tuple(generators)


def parse_perm_generators(text: str, degree: int) -> tuple[tuple[int, ...], ...]:
    """Parse a bare generator list "(0 1 2),(0 1)" against a fixed degree."""
    scanner = _Scanner(f"[{text}]")
    gens_cycles = _parse_bracketed_cycles(scanner)
    if not scanner.at_end():
        raise SpecSyntaxError(scanner.pos - 1, ("','", "end of input"))
    largest = max(pt for gen in gens_cycles for cyc in gen for pt in cyc)
    if largest >= degree:
        raise SpecSyntaxError(
            0, (f"points below the degree {degree}",), f"cycles mention point {largest}"
        )
    return _generators(gens_cycles, degree)


# ---------------------------------------------------------------------------
# printing


def perm_cycles(perm: tuple[int, ...]) -> list[list[int]]:
    """Disjoint cycle decomposition of the moved points, smallest first."""
    seen: set[int] = set()
    cycles = []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            continue
        cyc = [start]
        seen.add(start)
        nxt = perm[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        cycles.append(cyc)
    return cycles


def format_perm(perm: tuple[int, ...]) -> str:
    """Cycle notation, "()" for the identity."""
    cycles = perm_cycles(perm)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in cyc) + ")" for cyc in cycles)


def print_group_spec(spec: GroupSpec) -> str:
    """Canonical text for an AST; inverse to parse_group_spec on its range."""
    if isinstance(spec, Cyclic):
        return f"C{spec.n}"
    if isinstance(spec, Dihedral):
        return f"D{spec.order}"
    if isinstance(spec, Quaternion8):
        return "Q8"
    if isinstance(spec, Symmetric):
        return f"S{spec.n}"
    if isinstance(spec, Alternating):
        return f"A{spec.n}"
    if isinstance(spec, Heisenberg):
        return f"Heis({spec.m})"
    if isinstance(spec, GeneralizedDihedral):
        return f"Dih({print_group_spec(spec.base)})"
    if isinstance(spec, SpecialLinear):
        return f"SL({spec.n},{spec.p})"
    if isinstance(spec, AffineSpecialLinear):
        return f"ASL({spec.n},{spec.p})"
    if isinstance(spec, PermSpec):
        return _print_perm_spec(spec)
    if isinstance(spec, Product):
        return f"{print_group_spec(spec.left)} x {print_group_spec(spec.right)}"
    raise ValueError(f"unknown spec node {spec!r}")


def _print_perm_spec(spec: PermSpec) -> str:
    max_moved = -1
    rendered = []
    for gen in spec.generators:
        cycles = perm_cycles(gen)
        max_moved = max(max_moved, max(pt for cyc in cycles for pt in cyc))
        rendered.append("".join("(" + " ".join(map(str, cyc)) + ")" for cyc in cycles))
    pin = f"({spec.degree - 1})"
    if max_moved < spec.degree - 1:
        # a singleton cycle fixes nothing but records the degree
        if rendered:
            rendered[-1] += pin
        else:
            rendered.append(pin)
    return "perm[" + ",".join(rendered) + "]"
