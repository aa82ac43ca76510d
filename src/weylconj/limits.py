"""Every size bound weylconj enforces, and the one refusal past them.

Each bound caps a size whose cost grows too fast to leave unbounded, and
its comment names that cost.  A site calls `refuse_past` before the work
the bound guards.  This module imports nothing, so every module can.
Times are end to end on a 2-vCPU Xeon, Python 3.11.7.
"""

# A supporting class holds up to 2^nu members: reading the nullity-16 lattice takes 0.3 s.
MAX_NULLITY = 16
# The count walks 2^|family| choices: 24 members (B3, nu = t = 7, Inc = 1024) take about 1.8 s.
MAX_FAMILY = 24
# `verify` builds a (rank + 2 nu)-square matrix per word, over words in every pair of directions.
MAX_VERIFY_RANK = 4
MAX_VERIFY_NULLITY = 4
# The cover's box, |finite roots| (2h + 5)^nu states, one bit each: F4 at nu = 4, h = 2
# (314,928) takes 0.005 s; the costliest box admitted, B2 at nu = 1, h = 24,997, takes 0.5 s.
MAX_COVER_STATES = 400_000
# `classify` lists every class of a side, and a full listing at dimension 5 is infeasible.
MAX_CLASSIFY_NULLITY = 4
# Dimension d has 2^(2^d - d - 1) raw classes: 2^26 at d = 5, feasible only by index slice.
MAX_SEMILATTICE_DIM = 5


class TooLarge(ValueError):
    """An input past one of the bounds above; `cli.main` reports it as an input error."""


def refuse_past(size: str, value: int, bound: int) -> None:
    """Raise `TooLarge`, naming the size, its value and the bound, when value > bound."""
    if value > bound:
        raise TooLarge(f"{size} {value} exceeds the bound {bound}")
