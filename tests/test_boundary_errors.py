"""Bad arguments at the library boundary raise their documented types."""

import numpy as np
import pytest

from conftest import group
from topolab import (
    GroupMismatch,
    NotNormal,
    OrderCapExceeded,
    PermAction,
    direct_product,
    discrete_topology,
    induced,
    is_semitopological,
    leq,
    quotient_center,
    quotient_group,
    quotient_topology,
)
from topolab.subgroups import (
    Subgroup,
    are_conjugate,
    commutator_subgroup,
    full_subgroup,
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
}


@pytest.mark.parametrize("case", list(CASES))
def test_library_boundary_errors(case):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message):
        call(group("S3"), group("C2"))
