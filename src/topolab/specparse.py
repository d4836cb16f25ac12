"""Parser and printer for the group-spec mini-language.

Grammar (whitespace between tokens is ignored):

    spec   := term {"x" term}
    term   := "C" int | "D" int | "Q8" | "S" int | "A" int
            | "Heis" "(" int ")" | "Dih" "(" spec ")"
            | "SL" "(" int "," int ")" | "ASL" "(" int "," int ")"
            | "perm" "[" gens "]"
    gens   := gen {"," gen}          (the whole of a perm --gens text)
    gen    := cycle {cycle}          (juxtaposed cycles multiply)
    cycle  := "(" int {int} ")"

Products associate to the left.  _ATOMS, the one source of atom syntax
for parsing and printing, holds each atom's keyword, node and argument
shape; perm specs and products are read and written outside it.  A perm
spec's degree is one more than the largest point mentioned; above
permaction.MATERIALIZATION_CAP it raises OrderCapExceeded before any
permutation is built, and so does a generator list whose degree x
generator count is above PERM_ENTRY_CAP (each generator becomes one image
tuple of the full degree).  Printing appends a singleton cycle to pin a
degree that exceeds every moved point, and parsing drops generators that
reduce to the identity, so parse(print(ast)) == ast for any
parser-produced AST.

"Dih(" nests at most MAX_NESTING deep: each level doubles the order, so
deeper specs are far beyond any group that can be built, and rejecting
them here keeps the recursion bounded.  For the same reason a spec holds
at most MAX_FACTORS atoms, nested ones included, since every walk of its
tree (its order, its build, its printing) recurses into each product, and
an integer has at most MAX_DIGITS digits, far above any cap, where
Python's own limit on converting long digit strings would otherwise end
the parse.
"""

from __future__ import annotations

from .errors import InvalidSpec, OrderCapExceeded, SpecSyntaxError

MAX_NESTING = 32
MAX_FACTORS = 64
MAX_DIGITS = 100
# ceiling on degree x generator count, the entries of a perm spec's image tuples
PERM_ENTRY_CAP = 1_000_000
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

# a shape holds literal tokens and, for its node's fields in order, the
# markers of an integer and a nested spec; longest keyword first, so "ASL("
# is never read as "A" of a 5-term
_INT, _SPEC = object(), object()
_ATOMS = (
    ("Heis", Heisenberg, ("(", _INT, ")")),
    ("ASL", AffineSpecialLinear, ("(", _INT, ",", _INT, ")")),
    ("Dih", GeneralizedDihedral, ("(", _SPEC, ")")),
    ("SL", SpecialLinear, ("(", _INT, ",", _INT, ")")),
    ("Q8", Quaternion8, ()),
    ("C", Cyclic, (_INT,)),
    ("D", Dihedral, (_INT,)),
    ("S", Symmetric, (_INT,)),
    ("A", Alternating, (_INT,)),
)
_ATOM_BY_NODE = {node: (keyword, shape) for keyword, node, shape in _ATOMS}


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.atoms = 0

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

    def at_digit(self) -> bool:  # ASCII only: str.isdigit also takes '²' and '３'
        return self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9"

    def expect_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.at_digit():
            self.pos += 1
        if self.pos == start:
            raise SpecSyntaxError(start, ("integer",))
        if self.pos - start > MAX_DIGITS:
            raise SpecSyntaxError(start, (), f"integer of more than {MAX_DIGITS} digits")
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
    if scanner.atoms == MAX_FACTORS:
        scanner.skip_ws()
        raise SpecSyntaxError(scanner.pos, (), f"more than {MAX_FACTORS} factors")
    scanner.atoms += 1
    if scanner.try_literal("perm"):
        return _parse_perm(scanner)
    for keyword, node, shape in _ATOMS:
        if scanner.try_literal(keyword):
            args = []
            for token in shape:
                if token is _INT:
                    args.append(scanner.expect_int())
                elif token is _SPEC:
                    if scanner.depth == MAX_NESTING:
                        message = f"'{keyword}(' nested more than {MAX_NESTING} deep"
                        raise SpecSyntaxError(scanner.pos, (), message)
                    scanner.depth += 1
                    args.append(_parse_spec(scanner))
                    scanner.depth -= 1
                else:
                    scanner.expect_literal(token)
            return node(*args)
    raise SpecSyntaxError(scanner.pos, ("group atom",))


def _parse_cycle(scanner: _Scanner) -> list[int]:
    scanner.expect_literal("(")
    points = [scanner.expect_int()]
    while not scanner.peek_literal(")"):
        scanner.skip_ws()
        if not scanner.at_digit():
            raise SpecSyntaxError(scanner.pos, ("integer", "')'"))
        points.append(scanner.expect_int())
    scanner.expect_literal(")")
    if len(set(points)) != len(points):
        raise SpecSyntaxError(scanner.pos, ("distinct points in a cycle",))
    return points


def _parse_perm(scanner: _Scanner) -> PermSpec:
    scanner.expect_literal("[")
    gens_cycles = _parse_generators(scanner)
    scanner.expect_literal("]")
    degree = 1 + max(pt for gen in gens_cycles for cyc in gen for pt in cyc)
    _check_perm_degree(degree)
    return PermSpec(degree, _generators(gens_cycles, degree))


def _check_perm_degree(degree: int) -> None:
    if degree > MATERIALIZATION_CAP:
        raise OrderCapExceeded(f"perm degree {degree} is above the cap ({MATERIALIZATION_CAP})")


def _parse_generators(scanner: _Scanner) -> list[list[list[int]]]:
    """The cycles of each generator in 'gen {"," gen}'."""
    gens_cycles: list[list[list[int]]] = [[_parse_cycle(scanner)]]
    while True:
        if scanner.peek_literal("("):
            gens_cycles[-1].append(_parse_cycle(scanner))
        elif scanner.try_literal(","):
            gens_cycles.append([_parse_cycle(scanner)])
        else:
            return gens_cycles


def _generators(gens_cycles: list[list[list[int]]], degree: int) -> tuple[tuple[int, ...], ...]:
    """Each generator as an image tuple on 0..degree-1, the product of its
    cycles with the rightmost acting first; identities are dropped.  A
    cycle touches only its own points.  Raises OrderCapExceeded, before any
    tuple is built, when degree x generator count is above PERM_ENTRY_CAP."""
    if degree * len(gens_cycles) > PERM_ENTRY_CAP:
        raise OrderCapExceeded(
            f"perm spec with {len(gens_cycles)} generators of degree {degree} "
            f"is above the cap ({PERM_ENTRY_CAP} image entries)"
        )
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
    """Parse a bare generator list "(0 1 2),(0 1)" against a fixed degree;
    error positions are in text.  The degree and the length of text meet
    their caps before parsing, which pads every generator to the degree,
    as an SL/ASL field size counts against the cap in build_group."""
    if degree < 1:
        raise InvalidSpec("perm degree must be >= 1")
    _check_perm_degree(degree)
    if len(text) > PERM_ENTRY_CAP:
        raise OrderCapExceeded(f"perm generator text is above the cap ({PERM_ENTRY_CAP} characters)")
    scanner = _Scanner(text)
    gens_cycles = _parse_generators(scanner)
    if not scanner.at_end():
        raise SpecSyntaxError(scanner.pos, ("'('", "','", "end of input"))
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
    if isinstance(spec, PermSpec):
        return _print_perm_spec(spec)
    if isinstance(spec, Product):
        return f"{print_group_spec(spec.left)} x {print_group_spec(spec.right)}"
    if type(spec) not in _ATOM_BY_NODE:
        raise ValueError(f"unknown spec node {spec!r}")
    keyword, shape = _ATOM_BY_NODE[type(spec)]
    values = iter(vars(spec).values())
    return keyword + "".join(
        str(next(values)) if token is _INT else print_group_spec(next(values)) if token is _SPEC else token
        for token in shape
    )


def _print_perm_spec(spec: PermSpec) -> str:
    rendered = [format_perm(gen) for gen in spec.generators]
    pin = f"({spec.degree - 1})"
    if all(gen[-1] == spec.degree - 1 for gen in spec.generators):
        # no generator moves the last point (perm[(3)] has no generators):
        # a singleton cycle fixes nothing but records the degree
        if rendered:
            rendered[-1] += pin
        else:
            rendered.append(pin)
    return "perm[" + ",".join(rendered) + "]"
