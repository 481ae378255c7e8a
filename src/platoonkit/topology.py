"""Platoon graphs, reference-vehicle arrangements, and grounded Laplacians.

A platoon P(n, k) is a chain of n vehicles, indexed 1..n, where vehicles i
and j communicate iff 0 < |i - j| <= k.  A subset of vehicles acts as
references (grounded nodes); deleting their rows and columns from the graph
Laplacian yields the grounded Laplacian block that drives every robustness
quantity downstream.

Vehicle indices are 1-based everywhere in the public API.  Laplacian blocks
are built in exact integer arithmetic; conversion to floating point happens
only at the spectral boundary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import errors
from .errors import ParameterError


def _check_size(n, n_min: int) -> int:
    """Check the vehicle count n before any O(n) work, and refuse an n whose
    dense arrays would not fit in memory: four n x n copies of 8-byte values
    (the Laplacian and its temporaries, then the grounded block, the
    eigensolver's float copy and its symmetry test) are alive at once."""
    n = errors.check("vehicle count n", n, n_min, integer=True)
    errors.check_memory(f"a platoon of {n} vehicles", 4 * 8.0 * n * n)
    return n


@dataclass(frozen=True)
class PlatoonTopology:
    """A k-nearest-neighbor platoon graph P(n, k), stored as its rule.

    Attributes:
        n: vehicle count (>= 2).
        k: connectivity index (>= 1); k >= n - 1 yields the complete graph.
    """

    n: int
    k: int

    @property
    def edges(self) -> frozenset:
        """Every (i, j) pair with i < j <= i + k."""
        return frozenset(
            (i, j) for i in range(1, self.n + 1) for j in range(i + 1, min(self.n, i + self.k) + 1)
        )

    def neighbors(self, i: int) -> tuple:
        """Sorted neighbor indices of vehicle i."""
        if not 1 <= i <= self.n:
            raise ParameterError(f"vehicle index {i} outside 1..{self.n}")
        lo = max(1, i - self.k)
        hi = min(self.n, i + self.k)
        return tuple(j for j in range(lo, hi + 1) if j != i)

    def degrees(self) -> np.ndarray:
        i = np.arange(1, self.n + 1)
        return np.minimum(i - 1, self.k) + np.minimum(self.n - i, self.k)

    def laplacian(self) -> np.ndarray:
        i = np.arange(self.n)
        near = np.abs(i[:, None] - i) <= self.k
        # near includes i itself, once in its row sum and once on its diagonal
        return np.diag(near.sum(axis=1)) - near


def build_platoon(n: int, k: int) -> PlatoonTopology:
    """P(n, k) with the exact |i - j| <= k edge rule.

    Args:
        n: vehicle count, n >= 2.
        k: connectivity index, k >= 1.  Values k >= n - 1 are allowed and
           saturate to the complete graph.

    Raises:
        ParameterError: if n < 2 or k < 1, either is not a whole number, or
            the Laplacian of P(n, k) would not fit in memory.
    """
    n = _check_size(n, 2)
    return PlatoonTopology(n=n, k=errors.check("connectivity index k", k, 1, integer=True))


@dataclass(frozen=True)
class ReferenceSet:
    """A nonempty set of reference (grounded) vehicles and its complement.

    Attributes:
        n: vehicle count of the underlying platoon.
        refs: sorted tuple of reference indices.
        followers: sorted tuple of the remaining indices.
    """

    n: int
    refs: tuple
    followers: tuple


def make_reference_set(n: int, refs) -> ReferenceSet:
    """Validate and normalize a collection of 1-based reference indices."""
    n = _check_size(n, 1)
    refs = sorted({errors.check("reference index", r, 1, integer=True) for r in refs})
    if not refs:
        raise ParameterError("reference set must be nonempty")
    if refs[-1] > n:
        raise ParameterError(f"reference indices {[r for r in refs if r > n]} outside 1..{n}")
    is_ref = set(refs)
    followers = tuple(i for i in range(1, n + 1) if i not in is_ref)
    return ReferenceSet(n=n, refs=tuple(refs), followers=followers)


def md_arrangement(n: int, k: int) -> ReferenceSet:
    """Minimally dense reference arrangement for P(n, k).

    Partitions 1..n into consecutive segments of length 2k + 1 starting at
    vehicle 1 (the trailing segment may be shorter) and places one reference
    at the middle of each segment, position start + ceil(len / 2) - 1.
    Yields ceil(n / (2k + 1)) references.
    """
    n = _check_size(n, 1)
    seg = 2 * errors.check("connectivity index k", k, 1, integer=True) + 1
    refs = [start + (min(seg, n - start + 1) + 1) // 2 - 1 for start in range(1, n + 1, seg)]
    return make_reference_set(n, refs)


@dataclass(frozen=True)
class GroundedSystem:
    """Grounded Laplacian decomposition of a platoon with references.

    The full Laplacian, with followers ordered before references, splits as

        [ lg   l12 ]
        [ l21  l22 ]

    and only the follower blocks lg (|F| x |F|, symmetric positive definite)
    and l12 (|F| x |R|) matter for the error dynamics.  Entries are exact
    signed integers.

    Attributes:
        lg: grounded Laplacian over followers.
        l12: coupling block from followers to references.
        betas: per-follower count of reference neighbors.
        boundary_size: number of follower-reference edges, equals betas.sum().
        dmax_f: maximum degree over follower vehicles.
        n, k: provenance of the underlying platoon.
        refs, followers: 1-based index tuples (followers order matches lg rows).
    """

    lg: np.ndarray
    l12: np.ndarray
    betas: np.ndarray
    boundary_size: int
    dmax_f: int
    n: int
    k: int
    refs: tuple
    followers: tuple

    @property
    def n_followers(self) -> int:
        return len(self.followers)


def ground(topology: PlatoonTopology, refset: ReferenceSet) -> GroundedSystem:
    """Delete reference rows/columns from the Laplacian of `topology`.

    Raises:
        ParameterError: if the reference set does not match the topology or
            leaves no followers (an all-reference platoon has no dynamics).
    """
    if refset.n != topology.n:
        raise ParameterError(
            f"reference set is for n={refset.n}, topology has n={topology.n}"
        )
    if not refset.followers:
        raise ParameterError("no followers left: all vehicles are references")
    lap = topology.laplacian()
    f_idx = np.array([i - 1 for i in refset.followers])
    r_idx = np.array([i - 1 for i in refset.refs])
    lg = lap[np.ix_(f_idx, f_idx)]
    l12 = lap[np.ix_(f_idx, r_idx)]
    betas = -l12.sum(axis=1)
    return GroundedSystem(
        lg=lg,
        l12=l12,
        betas=betas,
        boundary_size=int(betas.sum()),
        dmax_f=int(lg.diagonal().max()),
        n=topology.n,
        k=topology.k,
        refs=refset.refs,
        followers=refset.followers,
    )
