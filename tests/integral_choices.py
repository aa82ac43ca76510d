"""Integral collections as assignments J -> {0, 1}, for tests that read them member by member."""

from weylconj.integral import _integral_bitsets


def integral_collections(spec):
    """All integral assignments, in ascending bit order (trivial one first)."""
    table = spec.incidence
    for bits in _integral_bitsets(table):
        yield {j: bits >> pos & 1 for pos, j in enumerate(table.family)}
