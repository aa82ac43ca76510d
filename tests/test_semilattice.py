"""Supporting-class validation, membership and enumeration."""

import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from weylconj.semilattice import (
    _below_top,
    _free_masks,
    _permuted_mask,
    _precedes,
    Semilattice,
    SpecValidationError,
    elems_of,
    enumerate_semilattices,
    make_semilattice,
    mask_of,
)


def _canonical_key(masks):
    return tuple(sorted(masks))


def reference_enumerate(dim, up_to_permutation=False):
    """The raw scan: every class, kept when no permuted sorted tuple is smaller."""
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


@lru_cache(maxsize=None)
def reference_list(dim, up_to_permutation):
    return tuple(reference_enumerate(dim, up_to_permutation))


def brute_force_points(s: Semilattice, radius: int):
    """All points of S inside the box [-radius, radius]^dim, from the coset union."""
    points = set()
    shifts = itertools.product(range(-radius, radius + 1), repeat=s.dim)
    taus = [elems_of(m) for m in s.supp]
    for v in shifts:
        for tau in taus:
            p = tuple(2 * v[i] + (1 if (i + 1) in tau else 0) for i in range(s.dim))
            if all(abs(x) <= radius for x in p):
                points.add(p)
    return points


class TestValidation:
    def test_minimal_class_dim2(self):
        s = make_semilattice(2, [[], [1], [2]])
        assert s.index == 2

    def test_full_lattice_dim3(self):
        s = make_semilattice(3, [list(c) for r in range(4) for c in itertools.combinations([1, 2, 3], r)])
        assert s.is_lattice
        assert s.index == 7

    def test_missing_singleton(self):
        with pytest.raises(
            SpecValidationError, match=r"^supporting class must contain the singleton \{2\}$"
        ):
            make_semilattice(2, [[], [1]])

    def test_missing_zero(self):
        with pytest.raises(
            SpecValidationError, match="^supporting class must contain the empty set$"
        ):
            make_semilattice(1, [[1]])

    def test_out_of_range(self):
        with pytest.raises(SpecValidationError, match=r"^coordinate 3 outside 1\.\.2$"):
            make_semilattice(2, [[], [1], [2], [3]])

    def test_zero_dimension(self):
        s = make_semilattice(0, [[]])
        assert s.index == 0
        assert s.is_lattice

    def test_duplicates_collapse(self):
        s = make_semilattice(2, [[], [1], [1], [2], [2, 1], [1, 2]])
        assert s.index == 3

    def test_repeated_coordinate_is_refused(self):
        # a repeated subset is one member, a repeated coordinate an error
        with pytest.raises(SpecValidationError) as err:
            make_semilattice(3, [[], [1], [2], [3], [1, 1, 2], [2, 1]])
        assert str(err.value) == "coordinate 1 repeated in subset [1, 1, 2]"


class TestContains:
    def test_unsupported_pair(self):
        s = make_semilattice(2, [[], [1], [2]])
        assert not s.contains((1, 1))

    def test_odd_first_coordinate(self):
        s = make_semilattice(2, [[], [1], [2]])
        assert s.contains((3, 0))
        # cross-check against the explicit coset union
        points = brute_force_points(s, 4)
        for x in itertools.product(range(-4, 5), repeat=2):
            assert s.contains(x) == (x in points), x

    def test_zero_vector(self):
        s = make_semilattice(2, [[], [1], [2]])
        assert s.contains((0, 0))

    def test_dimension_mismatch(self):
        with pytest.raises(SpecValidationError, match="^expected 2 coordinates, got 3$"):
            make_semilattice(2, [[], [1], [2]]).contains((1, 0, 0))


class TestIndexAndEssential:
    def test_minimal_index_is_dimension(self):
        for dim in range(1, 5):
            assert Semilattice.minimal(dim).index == dim

    def test_lattice_dim3_index(self):
        assert Semilattice.lattice(3).index == 7

    def test_mixed_class_count(self):
        s = make_semilattice(3, [[], [1], [2], [3], [1, 2, 3]])
        assert s.index == 4

    def test_essential_lattice_dim3(self):
        assert Semilattice.lattice(3).essential_supp() == frozenset(
            [mask_of([1, 2, 3], 3)]
        )

    def test_essential_lattice_dim4(self):
        # oracle: direct enumeration of subsets of size >= 3
        expected = {
            mask_of(c, 4)
            for size in (3, 4)
            for c in itertools.combinations([1, 2, 3, 4], size)
        }
        assert Semilattice.lattice(4).essential_supp() == frozenset(expected)
        assert len(expected) == 5

    def test_essential_minimal_empty(self):
        for dim in range(5):
            assert Semilattice.minimal(dim).essential_supp() == frozenset()

    def test_members_sorted_once(self):
        s = make_semilattice(3, [[1, 2, 3], [3], [], [2], [1]])
        assert s.members == (0, 1, 2, 4, 7) == tuple(sorted(s.supp))
        assert s.members is s.members  # computed on first read, then stored
        assert s.to_subsets() == [[], [1], [2], [3], [1, 2, 3]]


def side_divisors(s):
    """Delta(r,t) per pair r < t, read from the semilattice's own table."""
    return dict(zip(s.incidence.pairs, s.incidence.divisors))


class TestPairDivisor:
    def test_lattice_pairs(self):
        s = Semilattice.lattice(3)
        for r, t in itertools.combinations([1, 2, 3], 2):
            assert side_divisors(s)[(r, t)] == 1

    def test_unsupported_pair(self):
        s = Semilattice.minimal(2)
        assert side_divisors(s) == {(1, 2): 2}

    def test_partially_supported(self):
        s = make_semilattice(3, [[], [1], [2], [3], [1, 3]])
        assert side_divisors(s) == {(1, 2): 2, (1, 3): 1, (2, 3): 2}

    def test_one_divisor_per_ordered_pair(self):
        for dim in range(5):
            table = Semilattice.lattice(dim).incidence
            assert table.pairs == tuple(itertools.combinations(range(1, dim + 1), 2))
            assert table.divisors == (1,) * (dim * (dim - 1) // 2)


class TestEnumeration:
    def test_counts_match_formula(self):
        for dim in range(5):
            count = sum(1 for _ in enumerate_semilattices(dim))
            assert count == 1 << ((1 << dim) - dim - 1)
        assert 1 << ((1 << 4) - 4 - 1) == 2048

    def test_dim2_yields_two(self):
        assert sum(1 for _ in enumerate_semilattices(2)) == 2

    def test_dim3_yields_sixteen(self):
        assert sum(1 for _ in enumerate_semilattices(3)) == 16

    def test_up_to_permutation_dim3(self):
        check_orbit_representatives(3)

    def test_up_to_permutation_dim4(self):
        check_orbit_representatives(4)


def check_orbit_representatives(dim):
    """One representative per orbit, each the least of its orbit."""
    raw = [frozenset(s.supp) for s in enumerate_semilattices(dim)]
    # oracle: explicit orbit partition under coordinate permutations
    def permute_class(supp, perm):
        out = set()
        for mask in supp:
            new = 0
            for i in range(dim):
                if mask >> i & 1:
                    new |= 1 << perm[i]
            out.add(new)
        return frozenset(out)

    orbits = set()
    for supp in raw:
        orbit = frozenset(
            permute_class(supp, p) for p in itertools.permutations(range(dim))
        )
        orbits.add(orbit)
    reps = list(enumerate_semilattices(dim, up_to_permutation=True))
    assert len(reps) == len(orbits)
    # each representative is the lexicographically least of its orbit
    for rep in reps:
        orbit = {
            tuple(sorted(permute_class(rep.supp, p)))
            for p in itertools.permutations(range(dim))
        }
        assert tuple(sorted(rep.supp)) == min(orbit)


class TestAgainstRawScan:
    """The bitset test against the raw d!-scan it replaced."""

    @pytest.mark.parametrize("up_to_permutation", [False, True])
    @pytest.mark.parametrize("dim", range(5))
    def test_same_sequence(self, dim, up_to_permutation):
        expected = list(reference_list(dim, up_to_permutation))
        assert list(enumerate_semilattices(dim, up_to_permutation)) == expected

    @pytest.mark.parametrize("up_to_permutation", [False, True])
    @pytest.mark.parametrize("dim", range(5))
    def test_every_index(self, dim, up_to_permutation):
        expected = reference_list(dim, up_to_permutation)
        # one index below and one above the range yield nothing
        for index in range(dim - 1, (1 << dim) + 1):
            got = list(enumerate_semilattices(dim, up_to_permutation, index=index))
            assert got == [s for s in expected if s.index == index], index

    def test_first_classes_dim5(self):
        expected = list(itertools.islice(reference_enumerate(5, True), 300))
        got = list(itertools.islice(enumerate_semilattices(5, True), 300))
        assert got == expected

    def test_full_lattice_dim5(self):
        assert list(enumerate_semilattices(5, True, index=31)) == [Semilattice.lattice(5)]


def _free_cycles(perm, free):
    seen, cycles = set(), 0
    for m in free:
        if m in seen:
            continue
        cycles += 1
        while m not in seen:
            seen.add(m)
            m = _permuted_mask(m, perm)
    return cycles


class TestBurnside:
    @pytest.mark.parametrize("dim, orbits", [(0, 1), (1, 1), (2, 2), (3, 8), (4, 180)])
    def test_orbit_count(self, dim, orbits):
        free = _free_masks(dim)
        perms = list(itertools.permutations(range(dim)))
        burnside = sum(1 << _free_cycles(p, free) for p in perms)
        assert burnside % len(perms) == 0
        assert burnside // len(perms) == orbits
        assert sum(1 for _ in enumerate_semilattices(dim, True)) == orbits

    @pytest.mark.parametrize("dim", [3, 4])
    def test_orbit_sizes_sum_to_raw_count(self, dim):
        perms = list(itertools.permutations(range(dim)))
        total = 0
        for rep in enumerate_semilattices(dim, True):
            orbit = {frozenset(_permuted_mask(m, p) for m in rep.supp) for p in perms}
            assert math.factorial(dim) % len(orbit) == 0
            total += len(orbit)
        assert total == 1 << ((1 << dim) - dim - 1)


@st.composite
def class_pairs(draw):
    dim = draw(st.sampled_from([4, 5]))
    width = len(_free_masks(dim))
    a = draw(st.integers(0, (1 << width) - 1))
    # a near neighbour half the time, so long common prefixes are drawn too
    b = draw(st.one_of(st.integers(0, (1 << width) - 1),
                       st.integers(0, width - 1).map(lambda i: a ^ (1 << i))))
    return dim, a, b


@given(class_pairs())
def test_bitset_order_is_sorted_tuple_order(pair):
    dim, a, b = pair
    free = _free_masks(dim)
    base = [0] + [1 << i for i in range(dim)]

    def key(bits):
        return _canonical_key(base + [m for i, m in enumerate(free) if bits >> i & 1])

    below_top = _below_top(free, dim)
    assert _precedes(a, b, below_top) == (key(a) < key(b))
    assert _precedes(b, a, below_top) == (key(b) < key(a))


coords3 = st.tuples(*[st.integers(-6, 6)] * 3)


@st.composite
def semilattices(draw, dim=3):
    free = [m for m in range(1 << dim) if m.bit_count() >= 2]
    chosen = draw(st.sets(st.sampled_from(free))) if free else set()
    return Semilattice(dim, frozenset([0] + [1 << i for i in range(dim)] + list(chosen)))


@given(semilattices(), st.integers(0, 20), st.integers(0, 20), coords3)
def test_coset_absorption(s, a, b, v):
    supp = sorted(s.supp)
    tau_j = supp[a % len(supp)]
    tau_k = supp[b % len(supp)]
    point = tuple(
        (tau_j >> i & 1) + 2 * ((tau_k >> i & 1) + 2 * v[i]) for i in range(3)
    )
    assert s.contains(point)


@given(semilattices(), coords3, coords3)
def test_even_shift_invariance(s, x, shift):
    shifted = tuple(a + 2 * b for a, b in zip(x, shift))
    assert s.contains(x) == s.contains(shifted)


@given(semilattices())
def test_index_partition_by_size(s):
    pairs = sum(1 for m in s.supp if m.bit_count() == 2)
    assert s.index == len(s.essential_supp()) + pairs + s.dim
