"""Almost trivial group topologies and the Taimanov topology.

A group topology on a finite group is determined by the normal subgroup
N = closure of {e}: the topology zeta_N whose open sets are unions of
cosets of N.  Finite groups admit no other group topologies (they are
totally Markov), which is why nothing else is representable here.  The
assignment N -> zeta_N reverses inclusion: smaller kernels mean finer
topologies, with zeta_{e} discrete and zeta_G indiscrete.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatch, InternalInconsistency, NotNormal
from .groups import FiniteGroup, direct_product, row_blocks
from .subgroups import (
    Subgroup,
    _class_labels,
    center_subgroup,
    normal_closure,
    quotient_group,
    subgroup_as_group,
    trivial_subgroup,
    full_subgroup,
)


@dataclass(frozen=True)
class AlmostTrivialTopology:
    """The topology zeta_N with kernel N (the closure of the identity)."""

    group: FiniteGroup
    kernel: Subgroup

    @property
    def is_discrete(self) -> bool:
        return self.kernel.order == 1

    @property
    def is_indiscrete(self) -> bool:
        return self.kernel.order == self.group.order

    def __repr__(self) -> str:
        return f"AlmostTrivialTopology(kernel order {self.kernel.order} of {self.group.order})"


@dataclass(frozen=True)
class TaimanovWitness:
    """A finite set F whose centralizer realizes the Taimanov kernel Z(G)."""

    elements: tuple[int, ...]
    centralizer: Subgroup


def make_topology(group: FiniteGroup, kernel: Subgroup) -> AlmostTrivialTopology:
    if kernel.parent is not group:
        raise GroupMismatch("kernel belongs to a different group")
    if not kernel.is_normal:
        raise NotNormal("an almost trivial topology needs a normal kernel")
    return AlmostTrivialTopology(group, kernel)


def discrete_topology(group: FiniteGroup) -> AlmostTrivialTopology:
    return AlmostTrivialTopology(group, trivial_subgroup(group))


def indiscrete_topology(group: FiniteGroup) -> AlmostTrivialTopology:
    return AlmostTrivialTopology(group, full_subgroup(group))


def leq(tau: AlmostTrivialTopology, sigma: AlmostTrivialTopology) -> bool:
    """Whether sigma <= tau (sigma coarser), i.e. kernel(tau) <= kernel(sigma)."""
    if tau.group is not sigma.group:
        raise GroupMismatch("topologies live on different groups")
    return tau.kernel.issubset(sigma.kernel)


def is_open(tau: AlmostTrivialTopology, sub: Subgroup) -> bool:
    """A subgroup is zeta_N-open (equivalently closed) iff it contains N."""
    return tau.kernel.issubset(sub)


def taimanov_topology(
    group: FiniteGroup,
) -> tuple[AlmostTrivialTopology, TaimanovWitness]:
    """The topology generated by centralizers of finite sets.

    On a finite group its kernel is exactly the center.  The witness F is
    grown greedily: while c_G(F) still exceeds Z(G), adjoin the element
    whose centralizer cuts the current intersection the most (ties to the
    smallest element id).  Minimality of F is not claimed.

    The first round reads |C(g)| = |G| / |class of g| off the class
    labels; each later round counts, for every g, the members of the
    current intersection commuting with g, one commuting mask per member.
    Each round replaces the intersection by a proper subgroup of it, so it
    at least halves every round.
    """

    def build() -> tuple[AlmostTrivialTopology, TaimanovWitness]:
        zc = center_subgroup(group)
        current = np.ones(group.order, dtype=bool)
        witness: list[int] = []
        while current.sum() > zc.order:
            if witness:
                counts = np.zeros(group.order, dtype=np.int64)
                for x in np.flatnonzero(current):
                    counts += group.commuting_mask(int(x))  # commuting is symmetric
            else:
                labels = _class_labels(group)
                counts = group.order // np.bincount(labels)[labels]
            g = int(np.argmin(counts))
            witness.append(g)
            current &= group.commuting_mask(g)
        if not np.array_equal(current, zc.mask):
            raise InternalInconsistency("witness centralizer disagrees with the center")
        return make_topology(group, zc), TaimanovWitness(tuple(witness), zc)

    return group._cached("taimanov_topology", build)


def induced(tau: AlmostTrivialTopology, sub: Subgroup) -> AlmostTrivialTopology:
    """Restriction to a subgroup: kernel H∩N on H materialized as a group."""
    if sub.parent is not tau.group:
        raise GroupMismatch("subgroup belongs to a different group")
    host, embed = subgroup_as_group(sub)
    return make_topology(host, Subgroup(host, tau.kernel.mask[embed]))


def quotient_topology(
    tau: AlmostTrivialTopology, modulus: Subgroup
) -> AlmostTrivialTopology:
    """Quotient by a normal subgroup N0: kernel N0*N/N0 on G/N0."""
    if modulus.parent is not tau.group:
        raise GroupMismatch("modulus belongs to a different group")
    quo = quotient_group(tau.group, modulus)
    join = normal_closure(tau.group, np.flatnonzero(modulus.mask | tau.kernel.mask))
    image = quo.projection[join.mask]
    return make_topology(quo.target, Subgroup(quo.target, image, _normal=True))


def product_topology(
    tau1: AlmostTrivialTopology, tau2: AlmostTrivialTopology
) -> AlmostTrivialTopology:
    """zeta_{N1} x zeta_{N2} = zeta_{N1 x N2} on the direct product."""
    product = direct_product(tau1.group, tau2.group)
    base, split = product._base, tau1.group.degree
    on_left = base < split  # the base points among the left factor's points
    left = tau1.group.perms[tau1.kernel.mask][:, base[on_left]]
    right = tau2.group.perms[tau2.kernel.mask][:, base[~on_left] - split].astype(np.int64) + split
    kernel = np.zeros(product.order, dtype=bool)
    # the base images of (x1, x2) for a block of x1 and every x2, one lookup a block
    for block in row_blocks(len(left), len(right) * len(base)):
        images = np.empty((len(left[block]), len(right), len(base)), dtype=np.int64)
        images[..., on_left] = left[block, None]
        images[..., ~on_left] = right
        kernel[product._ids(images)] = True
    return make_topology(product, Subgroup(product, kernel, _normal=True))
