"""Semilattices in Z^nu described by their supporting classes.

A semilattice S in a nu-dimensional real space is a discrete spanning
subset with 0 in S and S = S +- 2S.  Relative to a fixed basis contained
in S it decomposes as a disjoint union of cosets tau_J + 2<S>, where
tau_J is the 0/1-vector supported on a subset J of {1..nu} and J ranges
over the *supporting class* of S.  That class always contains the empty
set and every singleton, and conversely any family of subsets containing
those determines a semilattice: a union of cosets of 2<S> indexed this
way absorbs +-2S automatically.  So the class is taken here as the
defining datum.

Subsets are canonicalised as bitmasks with coordinate 1 at the lowest
bit; iteration over a subset is always in ascending coordinate order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence


class SemilatticeError(ValueError):
    """Invalid supporting-class data."""


class MissingZeroClass(SemilatticeError):
    def __init__(self) -> None:
        super().__init__("supporting class must contain the empty set")


class MissingSingleton(SemilatticeError):
    def __init__(self, coordinate: int) -> None:
        super().__init__(f"supporting class must contain the singleton {{{coordinate}}}")
        self.coordinate = coordinate


class OutOfRangeIndex(SemilatticeError):
    def __init__(self, coordinate: int, dim: int) -> None:
        super().__init__(f"coordinate {coordinate} outside 1..{dim}")
        self.coordinate = coordinate


class DimensionMismatch(SemilatticeError):
    pass


class IndexOrderError(SemilatticeError):
    pass


class DimTooLarge(SemilatticeError):
    pass


def mask_of(elems: Iterable[int], dim: int) -> int:
    """Bitmask of a subset of 1..dim (coordinate 1 = lowest bit)."""
    mask = 0
    for r in elems:
        if not 1 <= r <= dim:
            raise OutOfRangeIndex(r, dim)
        mask |= 1 << (r - 1)
    return mask


def elems_of(mask: int) -> tuple[int, ...]:
    """Ascending coordinates of a bitmask."""
    out = []
    r = 1
    while mask:
        if mask & 1:
            out.append(r)
        mask >>= 1
        r += 1
    return tuple(out)


@dataclass(frozen=True)
class Semilattice:
    """A semilattice given by dimension and supporting class (as bitmasks)."""

    dim: int
    supp: frozenset[int]

    @property
    def index(self) -> int:
        """|supp| - 1, the index of the semilattice."""
        return len(self.supp) - 1

    @property
    def is_lattice(self) -> bool:
        return len(self.supp) == 1 << self.dim

    def contains(self, coords: Sequence[int]) -> bool:
        """Whether the integer vector lies in S.

        Membership only depends on the mod-2 reduction: the vector is in
        S exactly when its odd-coordinate set belongs to the supporting
        class.
        """
        if len(coords) != self.dim:
            raise DimensionMismatch(
                f"expected {self.dim} coordinates, got {len(coords)}"
            )
        odd = 0
        for i, c in enumerate(coords):
            if c % 2:
                odd |= 1 << i
        return odd in self.supp

    def essential_supp(self) -> frozenset[int]:
        """Supporting-class members of size >= 3."""
        return frozenset(m for m in self.supp if m.bit_count() >= 3)

    def pair_divisor(self, r: int, s: int) -> int:
        """1 if the pair {r,s} is supported, else 2 (requires r < s)."""
        if not 1 <= r < s <= self.dim:
            raise IndexOrderError(f"need 1 <= r < s <= {self.dim}, got ({r}, {s})")
        return 1 if (1 << (r - 1)) | (1 << (s - 1)) in self.supp else 2

    def sum_supports(self) -> frozenset[int]:
        """Odd-coordinate sets of S + S, i.e. symmetric differences of class members."""
        return frozenset(a ^ b for a in self.supp for b in self.supp)

    def to_subsets(self) -> list[list[int]]:
        """Serialisable form: supporting class as sorted integer lists."""
        return [list(elems_of(m)) for m in sorted(self.supp)]

    @classmethod
    def lattice(cls, dim: int) -> "Semilattice":
        return cls(dim, frozenset(range(1 << dim)))

    @classmethod
    def minimal(cls, dim: int) -> "Semilattice":
        return cls(dim, frozenset([0] + [1 << i for i in range(dim)]))


def make_semilattice(dim: int, subsets: Iterable[Iterable[int]]) -> Semilattice:
    """Validate a supporting class given as subsets of 1..dim.

    Rejects classes missing the empty set or a singleton, and subsets
    with coordinates outside 1..dim.  dim = 0 yields the zero
    semilattice with class {{}}.
    """
    if dim < 0:
        raise SemilatticeError("dimension must be non-negative")
    masks = frozenset(mask_of(sub, dim) for sub in subsets)
    if 0 not in masks:
        raise MissingZeroClass()
    for i in range(dim):
        if (1 << i) not in masks:
            raise MissingSingleton(i + 1)
    return Semilattice(dim, masks)


def _permuted_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


def _canonical_key(masks: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(masks))


def enumerate_semilattices(
    dim: int, up_to_permutation: bool = False
) -> Iterator[Semilattice]:
    """Yield every semilattice of the given dimension.

    The free choices are the subsets of size >= 2, so there are
    2^(2^dim - dim - 1) classes in all.  With up_to_permutation=True only
    the lexicographically-least representative of each orbit under
    coordinate permutations is yielded.  Guarded at dim <= 5.
    """
    if dim > 5:
        raise DimTooLarge(f"enumeration guarded at dim <= 5, got {dim}")
    if dim < 0:
        raise SemilatticeError("dimension must be non-negative")
    base = [0] + [1 << i for i in range(dim)]
    free = [m for m in range(1 << dim) if m.bit_count() >= 2]
    perms = list(itertools.permutations(range(dim))) if up_to_permutation else []
    for bits in range(1 << len(free)):
        masks = list(base)
        for i, m in enumerate(free):
            if bits >> i & 1:
                masks.append(m)
        if up_to_permutation:
            key = _canonical_key(masks)
            if any(
                _canonical_key(_permuted_mask(m, p) for m in masks) < key
                for p in perms
            ):
                continue
        yield Semilattice(dim, frozenset(masks))
