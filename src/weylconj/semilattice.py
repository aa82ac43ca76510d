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

Coordinate permutations act on classes.  The canonical member of an
orbit is its least class, comparing classes as sorted tuples of masks.
`enumerate_semilattices` treats a class as a bitset over the free
subsets (size >= 2, ascending mask order), so that this comparison is a
few integer operations (`_precedes`) and a permuted class is a few table
lookups (`_image_tables`).
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, NamedTuple, Sequence

from .limits import MAX_SEMILATTICE_DIM, refuse_past


class SpecValidationError(ValueError):
    """Invalid extended affine root system data."""


def mask_of(elems: Sequence[int], dim: int) -> int:
    """Bitmask of a subset of 1..dim (coordinate 1 = lowest bit), each coordinate once."""
    mask = 0
    for r in elems:
        if not 1 <= r <= dim:
            raise SpecValidationError(f"coordinate {r} outside 1..{dim}")
        bit = 1 << (r - 1)
        if mask & bit:
            raise SpecValidationError(f"coordinate {r} repeated in subset {list(elems)}")
        mask |= bit
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


def odd_mask(coords: Iterable[int]) -> int:
    """Bitmask of the odd coordinates of an integer vector (position 0 = lowest bit)."""
    mask = 0
    for pos, c in enumerate(coords):
        if c % 2:
            mask |= 1 << pos
    return mask


class _DimPairs(NamedTuple):
    pairs: tuple[tuple[int, int], ...]  # every r < s in 1..dim, in lexicographic order
    masks: tuple[int, ...]  # the same pairs as bitmasks
    small: frozenset[int]  # the subsets of size <= 2: the empty set, singletons and pairs


@functools.cache
def _dim_pairs(dim: int) -> _DimPairs:
    """The pairs of 1..dim, built once per dimension.

    A spec's nullity is bounded (`limits.MAX_NULLITY`), and a sweep asks
    for a handful of dimensions millions of times.
    """
    pairs = tuple(itertools.combinations(range(1, dim + 1), 2))
    masks = tuple([(1 << (r - 1)) | (1 << (s - 1)) for r, s in pairs])
    return _DimPairs(pairs, masks, frozenset([0, *(1 << i for i in range(dim)), *masks]))


def pair_masks(dim: int) -> tuple[int, ...]:
    """The pairs r < s of 1..dim as bitmasks, in the order of `PairIncidence.pairs`."""
    return _dim_pairs(dim).masks


class PairIncidence(NamedTuple):
    """Per pair r < s: its divisor and the bitset of family positions whose member contains it.

    The library reads Delta(r,s) and integrality only here: each divisor
    rule is stated once, in the builder of its table (`Semilattice.incidence`,
    `RootSystemSpec.incidence`), and `is_integral` is the one integrality test.
    """

    dim: int
    family: tuple[int, ...]  # sorted essential members, as bitmasks
    divisors: tuple[int, ...]  # per pair, in the order of `pairs`
    rows: tuple[int, ...]
    parity: tuple[int, ...]  # the rows with divisor 2: an integral choice meets each evenly

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """Every r < s in 1..dim, in lexicographic order (shared by every table of this dim)."""
        return _dim_pairs(self.dim).pairs

    def is_integral(self, bits: int) -> bool:
        """Whether the choice of family positions `bits` meets every Delta = 2 row evenly."""
        return not any((bits & row).bit_count() & 1 for row in self.parity)


def pair_incidence(dim: int, family: Iterable[int], divisors: Sequence[int]) -> PairIncidence:
    """The incidence table of a family of subsets of 1..dim.

    `divisors` gives Delta for each pair of `pair_masks(dim)`, in that
    order.  A pair's row is the AND of its two coordinates' columns, and
    a column (the positions whose member contains the coordinate) is
    filled from each member's set bits, so the work is the family's
    total size plus one AND per pair.
    """
    family = tuple(sorted(family))
    cols = [0] * (dim + 1)
    bit = 1
    for j in family:
        while j:
            low = j & -j
            cols[low.bit_length()] |= bit
            j ^= low
        bit <<= 1
    rows = tuple([cols[r] & cols[s] for r, s in _dim_pairs(dim).pairs])
    parity = tuple([row for row, delta in zip(rows, divisors) if delta == 2])
    return PairIncidence(dim, family, tuple(divisors), rows, parity)


class cached_attribute:
    """`functools.cached_property` without its lock.

    Up to Python 3.11 `cached_property` takes a per-class lock on every
    first access, about 1 us; a classify row reads two fresh tables.  The
    value is stored in the instance dict, which shadows this non-data
    descriptor from then on.  A NamedTuple has no instance dict, so a
    record with cached attributes is a NamedTuple of its fields plus a
    subclass that holds the methods and declares no `__slots__`; the
    fields stay read-only, and equality and hashing read only them.
    """

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class _SemilatticeFields(NamedTuple):
    dim: int
    supp: frozenset[int]


class Semilattice(_SemilatticeFields):
    """A semilattice given by dimension and supporting class (as bitmasks)."""

    @property
    def index(self) -> int:
        """|supp| - 1, the index of the semilattice."""
        return len(self.supp) - 1

    @cached_attribute
    def members(self) -> tuple[int, ...]:
        """The supporting class as masks in ascending order."""
        return tuple(sorted(self.supp))

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
            raise SpecValidationError(f"expected {self.dim} coordinates, got {len(coords)}")
        return odd_mask(coords) in self.supp

    def essential_supp(self) -> frozenset[int]:
        """Supporting-class members of size >= 3."""
        return self.supp - _dim_pairs(self.dim).small

    @cached_attribute
    def incidence(self) -> PairIncidence:
        """The essential members against this semilattice's own pairs.

        A pair is supported (Delta = 1) exactly when it is a class member.
        """
        supp = self.supp
        divisors = [1 if pair in supp else 2 for pair in pair_masks(self.dim)]
        return pair_incidence(self.dim, self.essential_supp(), divisors)

    def to_subsets(self) -> list[list[int]]:
        """Serialisable form: supporting class as sorted integer lists."""
        return [list(elems_of(m)) for m in self.members]

    @classmethod
    def lattice(cls, dim: int) -> "Semilattice":
        return cls(dim, frozenset(range(1 << dim)))

    @classmethod
    def minimal(cls, dim: int) -> "Semilattice":
        return cls(dim, frozenset([0] + [1 << i for i in range(dim)]))


def make_semilattice(dim: int, subsets: Iterable[Sequence[int]]) -> Semilattice:
    """Validate a supporting class given as subsets of 1..dim.

    Rejects classes missing the empty set or a singleton, and subsets
    with coordinates outside 1..dim or with a coordinate listed twice.
    A subset listed twice is one member of the class.  dim = 0 yields
    the zero semilattice with class {{}}.
    """
    if dim < 0:
        raise SpecValidationError("dimension must be non-negative")
    masks = frozenset(mask_of(sub, dim) for sub in subsets)
    if 0 not in masks:
        raise SpecValidationError("supporting class must contain the empty set")
    for i in range(dim):
        if (1 << i) not in masks:
            raise SpecValidationError(f"supporting class must contain the singleton {{{i + 1}}}")
    return Semilattice(dim, masks)


def _permuted_mask(mask: int, perm: Sequence[int]) -> int:
    out = 0
    while mask:
        low = mask & -mask
        out |= 1 << perm[low.bit_length() - 1]
        mask ^= low
    return out


# Width of the pieces a class bitset is cut into for the image lookups.
_CHUNK_BITS = 6


def _free_masks(dim: int) -> list[int]:
    """The subsets of size >= 2, in ascending mask order: bit i of a class bitset is the i-th."""
    return [m for m in range(1 << dim) if m.bit_count() >= 2]


def _below_top(free: Sequence[int], dim: int) -> int:
    """Bitset of the free subsets that sort below the largest singleton."""
    top = 1 << (dim - 1) if dim else 0
    return sum(1 << i for i, m in enumerate(free) if m < top)


def _precedes(a: int, b: int, below_top: int) -> bool:
    """Whether class bitset a sorts before b, compared as sorted mask tuples.

    The tuples agree up to the lowest differing free subset x.  The class
    holding x sorts first exactly when the other class has a member above
    x: a higher free subset, or the largest singleton when x is below it.
    """
    diff = a ^ b
    if not diff:
        return False
    low = diff & -diff
    if low & below_top:
        return bool(a & low)
    if a & low:
        return bool(b >> low.bit_length())
    return not a >> low.bit_length()


def _image_tables(dim: int, free: Sequence[int]) -> list[list[tuple[int, int, list[int]]]]:
    """Per non-identity permutation, (shift, mask, table) for each chunk of a class bitset.

    table[v] is the image under the permutation of the free subsets whose
    bits within the chunk are v, so a class's image is the OR of one
    lookup per chunk.
    """
    position = {m: i for i, m in enumerate(free)}
    tables = []
    for perm in itertools.islice(itertools.permutations(range(dim)), 1, None):
        images = [1 << position[_permuted_mask(m, perm)] for m in free]
        chunks = []
        for shift in range(0, len(free), _CHUNK_BITS):
            table = [0]
            for image in images[shift : shift + _CHUNK_BITS]:
                table += [t | image for t in table]
            chunks.append((shift, len(table) - 1, table))
        tables.append(chunks)
    return tables


def _is_least(bits: int, tables: list[list[tuple[int, int, list[int]]]], below_top: int) -> bool:
    """Whether no permuted image of the class bitset sorts before it."""
    for chunks in tables:
        image = 0
        for shift, mask, table in chunks:
            image |= table[bits >> shift & mask]
        if _precedes(image, bits, below_top):
            return False
    return True


def _raw_classes(width: int, count: int | None) -> Iterator[int]:
    """Class bitsets over `width` free bits in ascending order, only those with `count` bits if given."""
    if count is None:
        yield from range(1 << width)
        return
    if not 0 <= count <= width:
        return
    bits = (1 << count) - 1
    while bits < 1 << width:
        yield bits
        if not bits:
            return
        # Gosper's step: the next larger integer with the same number of set bits
        low = bits & -bits
        ripple = bits + low
        bits = ripple | ((bits ^ ripple) >> 2) // low


def enumerate_semilattices(
    dim: int, up_to_permutation: bool = False, index: int | None = None
) -> Iterator[Semilattice]:
    """Yield every semilattice of the given dimension, lazily.

    The free choices are the subsets of size >= 2, so there are
    2^(2^dim - dim - 1) classes in all.  A class is a bitset over those
    subsets in ascending mask order, and classes are visited in ascending
    bitset order.  With `index` only the classes of that index are
    visited, those with index - dim free members.

    With up_to_permutation=True only the least member of each orbit under
    coordinate permutations is yielded, least when the classes are
    compared as sorted mask tuples.  A class is tested on bitsets: one
    image table per permutation, built once per call, gives each permuted
    class with a few lookups, and the class is dropped at the first image
    that sorts before it.  Every raw class is still visited, at up to
    dim! images each, so a full listing is feasible up to dim 4; at dim 5
    only the first classes of a listing or of an `index` slice are.
    """
    refuse_past("semilattice dimension", dim, MAX_SEMILATTICE_DIM)
    if dim < 0:
        raise SpecValidationError("dimension must be non-negative")
    base = [0] + [1 << i for i in range(dim)]
    free = _free_masks(dim)
    if up_to_permutation:
        tables = _image_tables(dim, free)
        below_top = _below_top(free, dim)
    count = None if index is None else index - dim
    for bits in _raw_classes(len(free), count):
        if up_to_permutation and not _is_least(bits, tables, below_top):
            continue
        masks = list(base)
        for i, m in enumerate(free):
            if bits >> i & 1:
                masks.append(m)
        yield Semilattice(dim, frozenset(masks))
