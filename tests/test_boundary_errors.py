"""Bad arguments at the library boundary raise their documented types."""

import numpy as np
import pytest

from conftest import group
from topolab import (
    Cyclic,
    GroupMismatch,
    Heisenberg,
    InvalidSpec,
    NotNormal,
    OrderCapExceeded,
    PermAction,
    PermSpec,
    SpecialLinear,
    Symmetric,
    build_group,
    centralizer,
    commutator,
    direct_product,
    discrete_topology,
    induced,
    invert,
    is_semitopological,
    leq,
    multiply,
    quotient_center,
    quotient_group,
    quotient_topology,
)
from topolab.subgroups import (
    Subgroup,
    are_conjugate,
    commutator_subgroup,
    full_subgroup,
    generated_subgroup,
    normalizer,
    trivial_subgroup,
)


def _transposition(g):
    """A non-normal subgroup of S3: the identity and one element of order 2."""
    x = next(x for x in range(1, g.order) if g.mul(x, x) == 0)
    return Subgroup(g, [0, x])


CASES = {
    "subgroup mask of the wrong length": (
        ValueError, "one entry per group element",
        lambda s3, c2: Subgroup(s3, np.ones(s3.order + 1, dtype=bool)),
    ),
    "subgroup without the identity": (
        ValueError, "must contain the identity", lambda s3, c2: Subgroup(s3, [1])
    ),
    "commutator of another group's subgroups": (
        ValueError, "must belong to the given group",
        lambda s3, c2: commutator_subgroup(s3, full_subgroup(c2), full_subgroup(c2)),
    ),
    "normalizer outside the ambient": (
        ValueError, "sub must be contained in ambient",
        lambda s3, c2: normalizer(trivial_subgroup(s3), full_subgroup(s3)),
    ),
    "conjugacy outside the ambient": (
        ValueError, "subgroups must be contained in ambient",
        lambda s3, c2: are_conjugate(trivial_subgroup(s3), full_subgroup(s3), full_subgroup(s3)),
    ),
    "leq across groups": (
        GroupMismatch, "different groups", lambda s3, c2: leq(discrete_topology(s3), discrete_topology(c2))
    ),
    "semitop across groups": (
        GroupMismatch, "different groups",
        lambda s3, c2: is_semitopological(discrete_topology(s3), discrete_topology(c2)),
    ),
    "induced on another group's subgroup": (
        GroupMismatch, "subgroup belongs to a different group",
        lambda s3, c2: induced(discrete_topology(s3), full_subgroup(c2)),
    ),
    "quotient by another group's subgroup": (
        GroupMismatch, "modulus belongs to a different group",
        lambda s3, c2: quotient_topology(discrete_topology(s3), full_subgroup(c2)),
    ),
    "quotient by a non-normal subgroup": (
        NotNormal, "quotient modulus must be normal",
        lambda s3, c2: quotient_topology(discrete_topology(s3), _transposition(s3)),
    ),
    "quotient group by a non-normal subgroup": (
        NotNormal, "quotient modulus must be normal", lambda s3, c2: quotient_group(s3, _transposition(s3))
    ),
    "quotient centre by a non-normal subgroup": (
        NotNormal, "quotient modulus must be normal", lambda s3, c2: quotient_center(s3, _transposition(s3))
    ),
    "pair_id outside a direct product": (ValueError, "not a direct product", lambda s3, c2: s3.pair_id(0, 0)),
    "direct product over the order cap": (
        OrderCapExceeded, "product order 40000 is above the cap",
        lambda s3, c2: direct_product(group("C200"), group("C200")),
    ),
    "perm action of degree 0": (ValueError, "degree must be at least 1", lambda s3, c2: PermAction(0, [])),
    # int() would read these as 1, 2 and (1, 0, 2)
    "generated subgroup of a fractional id": (
        ValueError, "element ids must be integers", lambda s3, c2: generated_subgroup(group("C4"), [1.5])
    ),
    "subgroup of a fractional id": (
        ValueError, "element ids must be integers", lambda s3, c2: Subgroup(group("C4"), [0, 2.9])
    ),
    "perm action of a fractional image": (
        ValueError, "is not a permutation of 0..2", lambda s3, c2: PermAction(3, [(1, 0, 2.7)])
    ),
    "perm action of a bool image": (
        ValueError, "is not a permutation of 0..2", lambda s3, c2: PermAction(3, [(True, False, 2)])
    ),
    # numpy would read -1 as the last element and True as 1
    "product of a negative id": (ValueError, r"element ids must lie in 0\.\.5$", lambda s3, c2: s3.mul(-1, 0)),
    "product of an id past the last": (ValueError, "must lie in 0..5", lambda s3, c2: s3.mul(0, s3.order)),
    "product of a bool": (ValueError, "element ids must be integers", lambda s3, c2: s3.mul(True, 1)),
    "product of a bool in a group without a table": (
        ValueError, "element ids must be integers", lambda s3, c2: group("S7").mul(True, 1)
    ),
    "inverse of a negative id": (ValueError, "must lie in 0..5039", lambda s3, c2: group("S7").inv(-1)),
    "permutation of a negative id": (ValueError, "must lie in 0..5", lambda s3, c2: s3.element_perm(-1)),
    "commuting mask of a negative id": (ValueError, "must lie in 0..5", lambda s3, c2: s3.commuting_mask(-1)),
    "pair id of a negative left id": (
        ValueError, "must lie in 0..5", lambda s3, c2: direct_product(s3, c2).pair_id(-1, 0)
    ),
    "pair id past the right factor": (
        ValueError, "must lie in 0..1", lambda s3, c2: direct_product(s3, c2).pair_id(0, 2)
    ),
    "multiply of a negative id": (ValueError, "must lie in 0..5", lambda s3, c2: multiply(s3, 0, -1)),
    "invert of a fractional id": (ValueError, "element ids must be integers", lambda s3, c2: invert(s3, 1.0)),
    "commutator of a negative id": (ValueError, "must lie in 0..5", lambda s3, c2: commutator(s3, -1, 1)),
    "centralizer of a fractional id": (
        ValueError, "element ids must be integers", lambda s3, c2: centralizer(s3, [2.5])
    ),
    # numpy took these fields in arithmetic, or read 2.0 as an image
    "cyclic spec of a fractional order": (
        InvalidSpec, r"Cyclic\.n must be an int, got 2\.5", lambda s3, c2: build_group(Cyclic(2.5))
    ),
    "symmetric spec of a float degree": (
        InvalidSpec, r"Symmetric\.n must be an int", lambda s3, c2: build_group(Symmetric(3.0))
    ),
    "Heisenberg spec of a fractional modulus": (
        InvalidSpec, r"Heisenberg\.m must be an int", lambda s3, c2: build_group(Heisenberg(2.5))
    ),
    "SL spec of a float field size": (
        InvalidSpec, r"SpecialLinear\.p must be an int", lambda s3, c2: build_group(SpecialLinear(2, 3.0))
    ),
    "cyclic spec of a bool": (
        InvalidSpec, r"Cyclic\.n must be an int, got True", lambda s3, c2: build_group(Cyclic(True))
    ),
    "cyclic spec of a string": (
        InvalidSpec, r"Cyclic\.n must be an int, got '3'", lambda s3, c2: build_group(Cyclic("3"))
    ),
    "perm spec of a float degree": (
        InvalidSpec, r"PermSpec\.degree must be an int",
        lambda s3, c2: build_group(PermSpec(3.0, ((1, 0, 2),))),
    ),
    "perm spec of a float image": (
        InvalidSpec, r"generator \(1, 0, 2\.0\) is not a permutation of 0\.\.2",
        lambda s3, c2: build_group(PermSpec(3, ((1, 0, 2.0),))),
    ),
    "perm spec of a bool image": (
        InvalidSpec, r"is not a permutation of 0\.\.2", lambda s3, c2: build_group(PermSpec(3, ((True, False, 2),)))
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_library_boundary_errors(case):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message):
        call(group("S3"), group("C2"))
