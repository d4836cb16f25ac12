"""Exception types shared across the package."""

from __future__ import annotations


class TopolabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidSpec(TopolabError):
    """A group spec is malformed (bad parameter, failed side condition)."""


class OrderCapExceeded(TopolabError):
    """A construction would produce a group larger than the configured cap."""


# the permutation-action cap is the same idea with a larger cap
CapExceeded = OrderCapExceeded


class NotNormal(TopolabError):
    """An operation requiring a normal subgroup received a non-normal one."""


class GroupMismatch(TopolabError):
    """Two objects that must live on the same group do not."""


class NotComparable(TopolabError):
    """Topologies are not nested the way the operation requires."""


class DegreeTooLarge(TopolabError):
    """The exhaustive symmetric-group oracle refuses degrees above its bound."""


class InternalInconsistency(TopolabError):
    """Two routes that must agree disagreed; this signals a bug, not bad input."""


class SpecSyntaxError(TopolabError):
    """Parse failure in the group-spec mini-language."""

    def __init__(self, position: int, expected: tuple[str, ...], message: str | None = None):
        self.position = position
        self.expected = expected
        detail = message or f"expected {' or '.join(expected)}"
        super().__init__(f"syntax error at position {position}: {detail}")
