"""Deciding when identity maps between almost trivial topologies are
semitopological, in one step or several.

For kernels N <= L the identity map (G, zeta_N) -> (G, zeta_L) is
semitopological exactly when [G, L] <= N; iterating the commutator gives
the n-step version: the map factors through n semitopological identity
maps iff the n-fold iterate [G,[G,...[G,L]]] lands inside N.  The first
is cross-checked by an oracle that reads it as L/N <= Z(G/N), off the
preimage of Z(G/N) that quotient_center builds from the generators of G.

The general characterization of semitopological maps adds a thinness
requirement on preimages of neighborhoods.  It is not implemented here
because kernels are normal, so every neighborhood filter in sight has a
conjugation-invariant base and the thinness half holds automatically;
only the commutator condition can fail.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GroupMismatch, NotComparable
from .groups import FiniteGroup, _commutators, doubling_blocks
from .subgroups import (
    Subgroup,
    _iterated_commutators,
    commutator_subgroup,
    full_subgroup,
    normal_closure,
    quotient_center,
)
from .topology import AlmostTrivialTopology


@dataclass(frozen=True)
class SemitopVerdict:
    is_semitopological: bool
    violating_pair: Optional[tuple[int, int]]


@dataclass(frozen=True)
class StepCount:
    """Minimal number of semitopological steps, with a realizing chain.

    When steps = n, chain lists the kernels [L = K_0, K_1, ..., K_{n-1}]
    of the factorization from the coarse end; the final hop lands in N.
    Absent (steps None) when the commutator iteration stalls outside N.
    """

    steps: Optional[int]
    chain: Optional[tuple[Subgroup, ...]]


def _check_pair(
    tau: AlmostTrivialTopology, sigma: AlmostTrivialTopology
) -> tuple[FiniteGroup, Subgroup, Subgroup]:
    if tau.group is not sigma.group:
        raise GroupMismatch("topologies live on different groups")
    if not tau.kernel.issubset(sigma.kernel):
        raise NotComparable(
            "the identity map is only continuous when kernel(tau) <= kernel(sigma)"
        )
    return tau.group, tau.kernel, sigma.kernel


def is_semitopological(
    tau: AlmostTrivialTopology, sigma: AlmostTrivialTopology
) -> SemitopVerdict:
    """Decide [G, L] <= N; on failure return the first violating (g, l),
    in order of g and then of l."""
    group, small, large = _check_pair(tau, sigma)
    comm = commutator_subgroup(group, full_subgroup(group), large)
    if comm.issubset(small):
        return SemitopVerdict(True, None)
    larr = np.flatnonzero(large.mask)
    for block in doubling_blocks(group.order, len(larr)):
        gs = np.arange(block.start, block.stop)
        outside = ~small.mask[_commutators(group, gs[:, None], larr)]
        if outside.any():
            g, i = divmod(int(np.argmax(outside)), len(larr))  # the first in row order
            return SemitopVerdict(False, (block.start + g, int(larr[i])))
    raise AssertionError("generated commutators escape N but no pair does")


def is_semitopological_oracle(
    tau: AlmostTrivialTopology, sigma: AlmostTrivialTopology
) -> bool:
    """Whether L lies in the preimage of Z(G/N): [G, L] <= N iff every lN
    is central in G/N, that is iff [l, s] lies in N for every l in L and
    generator s of G.  It reads no class labels and closes nothing, unlike
    commutator_subgroup."""
    group, small, large = _check_pair(tau, sigma)
    return large.issubset(quotient_center(group, small))


def is_n_step(
    tau: AlmostTrivialTopology, sigma: AlmostTrivialTopology, n: int
) -> bool:
    """Whether the n-fold iterate [G,[...[G, L]]] is contained in N."""
    if n < 1:
        raise ValueError("step count must be a positive integer")
    group, small, large = _check_pair(tau, sigma)
    iterates = _iterated_commutators(group, large)
    return iterates[min(n, len(iterates)) - 1].issubset(small)


def min_steps(
    tau: AlmostTrivialTopology, sigma: AlmostTrivialTopology
) -> StepCount:
    """Least n making the identity map n-step semitopological.

    The realizing chain joins each commutator iterate with N, a product of
    two normal subgroups and so the normal closure of their union, so that
    all intermediate kernels sit between N and L; consecutive links then each
    satisfy the one-step criterion.  The iterates strictly decrease until
    they stabilize, so this terminates after at most log2|G| rounds.
    """
    group, small, large = _check_pair(tau, sigma)
    iterates = _iterated_commutators(group, large)
    steps = None
    for i, term in enumerate(iterates):
        if term.issubset(small):
            steps = i + 1
            break
    if steps is None:
        return StepCount(None, None)
    chain: list[Subgroup] = [large]
    for term in iterates[: steps - 1]:
        chain.append(normal_closure(group, np.flatnonzero(term.mask | small.mask)))
    return StepCount(steps, tuple(chain))
