"""One module, four ways in: from towers, from counts, from JSON and from the placement.

Each form is checked against a reference kept here, a list of
(``Fraction`` top, length, orientation) triples with every operation
written out on it: the presentation order, ``canonical()`` (orientation
ties included) and ``torsion()`` orders, the counts (``len``,
``free_rank``, ``rank``, ``signed_rank``), ``shift``, ``reflect``,
``kunneth``, ``to_json``, and ``==``/``hash`` across the forms.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction as F

import pytest

from ilocal import (
    DOWN,
    INFINITE,
    UP,
    FUModule,
    LinearCombination,
    Tower,
    kunneth,
    place_towers,
    reflect,
    shift,
    signed_rank,
)
from ilocal.towers import _from_rows, _module_from_counts

RANK = {DOWN: 0, UP: 1, None: 2}
FLIP = {DOWN: UP, UP: DOWN, None: None}
SEEDS = range(100)


# -- the reference ----------------------------------------------------------


def ref_canonical(ref):
    return sorted(ref, key=lambda r: (-r[0], -r[1], RANK[r[2]]))


def ref_torsion(ref):
    return [r for r in ref if r[1] != INFINITE]


def ref_rank(ref):
    return sum(length for _, length, _ in ref_torsion(ref))


def ref_signed_rank(ref):
    if any(o is None for _, _, o in ref_torsion(ref)):
        return None
    return sum(length if o is DOWN else -length for _, length, o in ref_torsion(ref))


def ref_shift(ref, sigma):
    return [(top - sigma, length, o) for top, length, o in ref]


def ref_reflect(ref):
    return [(2 * length - 1 - top, length, FLIP[o]) for top, length, o in ref]


def ref_kunneth(a, b):
    out = []
    for s, ls, _ in a:
        for t, lt, _ in b:
            out.append((s + t, min(ls, lt), None))
            if INFINITE not in (ls, lt):
                out.append((s + t - 2 * max(ls, lt) + 1, min(ls, lt), None))
    return ref_canonical(out)


def ref_json(ref):
    return {
        "towers": [
            {
                "top": f"{top.numerator}/{top.denominator}",
                "length": "inf" if length == INFINITE else length,
                "orientation": o.value if o else None,
            }
            for top, length, o in ref
        ]
    }


def ref_place(terms):
    """The placement rule on ``Fraction``s: heads 0 (down) or 1 (up), then against each tail."""
    out, prev = [], None
    for sign, index in sorted(terms, key=lambda t: (-t[1], -t[0])):
        if prev is None:
            head = F(0) if sign > 0 else F(1)
        elif prev[0] != sign:
            head = prev[1]
        else:
            head = prev[1] - sign
        if sign > 0:
            out.append((head, index, DOWN))
            tail = head - 2 * (index - 1)
        else:
            tail = head + 2 * (index - 1)
            out.append((tail, index, UP))
        prev = (sign, tail)
    return out


def triples(m):
    return [(t.top, t.length, t.orientation) for t in m.towers]


def multiset(ref):
    return Counter((top, length) for top, length, _ in ref)


# -- the four forms -----------------------------------------------------------


def random_ref(rng):
    """Mixed denominators, free towers, all three orientations and repeated (top, length)."""
    ref = []
    for _ in range(rng.randint(0, 8)):
        top = F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 4)))
        if rng.random() < 0.2:
            ref.append((top, INFINITE, None))
        else:
            ref.append((top, rng.randint(1, 3), rng.choice((DOWN, UP, None))))
    if ref and rng.random() < 0.5:  # the same (top, length) in other orientations
        top, length, _ = rng.choice(ref)
        if length != INFINITE:
            ref += [(top, length, o) for o in rng.sample((DOWN, UP, None), rng.randint(1, 3))]
        rng.shuffle(ref)
    return ref


def from_towers(ref):
    return FUModule(tuple(Tower(top, length, o) for top, length, o in ref))


def from_counts(ref):
    """The unoriented module of ``ref`` from integer multiplicities over the lcm of its denominators."""
    q = math.lcm(*(top.denominator for top, _, _ in ref))
    counts = Counter((int(top * q), length) for top, length, _ in ref)
    return _module_from_counts(dict(counts), q)


def from_json(ref):
    return FUModule.from_json(from_towers(ref).to_json())


def random_terms(rng):
    return [(rng.choice((1, -1)), rng.randint(1, 6)) for _ in range(rng.randint(0, 7))]


def forms(rng):
    """(module, reference) pairs: one random module in the first three forms, and a placement."""
    ref = random_ref(rng)
    unoriented = ref_canonical([(top, length, None) for top, length, _ in ref])
    terms = random_terms(rng)
    return [
        (from_towers(ref), ref),
        (from_counts(ref), unoriented),
        (from_json(ref), ref),
        (place_towers(LinearCombination(tuple(terms))), ref_place(terms)),
    ]


# -- checks -------------------------------------------------------------------


def check(m, ref, other, sigma):
    """``m`` against its reference ``ref``; ``other`` is the second factor of ``kunneth``."""
    assert triples(m) == ref
    assert triples(m.canonical()) == ref_canonical(ref)
    assert triples(m.torsion()) == ref_torsion(ref)
    assert len(m) == len(ref)
    assert m.free_rank == len(ref) - len(ref_torsion(ref))
    assert m.rank == ref_rank(ref)
    expected = ref_signed_rank(ref)
    if expected is None:
        with pytest.raises(ValueError):
            signed_rank(m)
    else:
        assert signed_rank(m) == expected
    assert triples(shift(m, sigma)) == ref_shift(ref, sigma)
    if m.free_rank:
        with pytest.raises(ValueError):
            reflect(m)
    else:
        assert triples(reflect(m)) == ref_reflect(ref)
    for x, y, want in ((m, from_towers(other), ref_kunneth(ref, other)),
                       (from_counts(other), m, ref_kunneth(other, ref))):
        assert triples(kunneth(x, y)) == want
    assert m.to_json() == ref_json(ref)


@pytest.mark.parametrize("seed", SEEDS)
def test_each_form_matches_the_reference(seed):
    rng = random.Random(seed)
    other = random_ref(rng)
    sigma = F(rng.randint(-4, 4), rng.choice((1, 2, 3)))
    for m, ref in forms(rng):
        check(m, ref, other, sigma)


@pytest.mark.parametrize("seed", range(20))
def test_rows_with_counts_match_the_reference(seed):
    """A row table with oriented rows of count above one, which no public constructor writes."""
    rng = random.Random(seed)
    ref, other = random_ref(rng), random_ref(rng)
    ref = [r for r in ref for _ in range(rng.randint(1, 3))]
    q = 12 * rng.randint(1, 2)  # a multiple of every denominator, not always their lcm
    rows = [((int(r[0] * q), r[1], r[2]), len(list(run))) for r, run in itertools.groupby(ref)]
    check(_from_rows(rows, q), ref, other, F(rng.randint(-4, 4), 3))


@pytest.mark.parametrize("seed", SEEDS)
def test_equality_and_hash_across_forms(seed):
    rng = random.Random(seed)
    built = forms(rng)
    for m, ref in built:
        # each module against every form of its own reference
        for n in (from_towers(ref), from_counts(ref), from_json(ref)):
            assert m == n and hash(m) == hash(n)
    for m, ref in built:
        for n, other in built:
            assert (m == n) == (multiset(ref) == multiset(other))
            if m == n:
                assert hash(m) == hash(n)
