"""Every decision path's answer is invariant under permuting a side's coordinates.

`classify` prints one representative per orbit of S_t x S_(nu-t) and
`construct` searches only representatives, which is sound only when
every answer is constant on each orbit.  The metamorphic relation
(Chen, Cheung & Yiu, "Metamorphic testing: a new approach for
generating next test cases", HKUST-CS98-01, 1998) is checked on full
orbits: every raw class pair of a slice, grouped by orbit.
"""

import itertools

import pytest

from weylconj.center import center_structure
from weylconj.corpus import classification_pairs
from weylconj.integral import count_collections, decide_by_reduction, minimality_screen
from weylconj.rootsystem import make_spec
from weylconj.semilattice import _permuted_mask


def orbit_keys():
    """A memoised orbit key: the least sorted class over all permutations."""
    keys = {}

    def key(s):
        if s.supp not in keys:
            keys[s.supp] = min(
                tuple(sorted(_permuted_mask(m, perm) for m in s.supp))
                for perm in itertools.permutations(range(s.dim))
            )
        return keys[s.supp]

    return key


@pytest.mark.parametrize(
    "family, rank, nullity, twist, specs",
    [
        ("B", 3, 4, 4, 2048),
        ("C", 3, 4, 0, 2048),
        ("B", 2, 4, 2, 4),
        ("B", 2, 3, 1, 2),
        ("B", 2, 4, 3, 16),
    ],
)
def test_four_answers_are_constant_on_each_orbit(family, rank, nullity, twist, specs):
    # the collection count, the screen verdict, the reduction's Inc and
    # the Smith torsion; the orbits found are the ones classify lists
    key = orbit_keys()
    answers = {}
    pairs = classification_pairs(family, rank, nullity, twist, up_to_permutation=False)
    for s1, s2 in pairs:
        spec = make_spec(family, rank, nullity, twist, s1, s2)
        answer = (
            count_collections(spec).inc,
            minimality_screen(spec).verdict,
            decide_by_reduction(spec),
            center_structure(spec).torsion,
        )
        orbit = (key(s1), key(s2))
        assert answers.setdefault(orbit, answer) == answer, (orbit, answer, answers[orbit])
    assert len(pairs) == specs
    reps = classification_pairs(family, rank, nullity, twist, up_to_permutation=True)
    assert len(answers) == len(reps)
