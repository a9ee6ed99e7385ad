import random
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilocal import (
    DOWN,
    INFINITE,
    UP,
    FUModule,
    Tower,
    kunneth,
    reflect,
    shift,
    signed_rank,
)
from ilocal.homology import homology
from ilocal.suite import random_geometric_complex
from ilocal.towers import _module_from_counts

from conftest import oriented_equal

T = Tower


def mod(*towers):
    return FUModule(tuple(towers))


class TestTower:
    def test_occupied_gradings(self):
        assert list(T(F(0), 5).gradings()) == [F(0), F(-2), F(-4), F(-6), F(-8)]

    def test_head_tail_orientations(self):
        down = T(F(0), 3, DOWN)
        up = T(F(0), 3, UP)
        assert (down.head, down.tail) == (F(0), F(-4))
        assert (up.head, up.tail) == (F(-4), F(0))

    def test_free_tower_is_unoriented(self):
        with pytest.raises(ValueError):
            T(F(0), INFINITE, DOWN)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            T(F(0), 0)
        with pytest.raises(ValueError):
            T(F(0), -2)

    def test_json_round_trip(self):
        for t in (T(F(1, 2), 3, UP), T(F(-5), INFINITE), T(F(0), 1)):
            assert Tower.from_json(t.to_json()) == t


class TestShift:
    def test_bracket_lowers_by_sigma(self):
        # ({T_0(5)}, sigma = -1) -> {T_1(5)}
        assert shift(mod(T(F(0), 5)), F(-1)) == mod(T(F(1), 5))

    def test_identity_shift(self):
        m = mod(T(F(0), 7))
        assert shift(m, F(0)) == m

    def test_minus_d_plus_one_with_d_zero(self):
        # sigma = -(d - 1) with d = 0 raises gradings by -1
        m = mod(T(F(0), 5), T(F(-2), 4))
        assert shift(m, F(1)) == mod(T(F(-1), 5), T(F(-3), 4))

    def test_composition(self):
        m = mod(T(F(3), 2), T(F(0), INFINITE))
        assert shift(shift(m, F(2)), F(-5)) == shift(m, F(-3))


class TestReflect:
    def test_single_tower(self):
        for i in range(1, 8):
            assert reflect(mod(T(F(0), i))) == mod(T(F(2 * i - 1), i))

    def test_fixed_line(self):
        assert reflect(mod(T(F(1, 2), 1))) == mod(T(F(1, 2), 1))

    def test_two_towers(self):
        assert reflect(mod(T(F(0), 3), T(F(-5), 2))) == mod(T(F(5), 3), T(F(8), 2))

    def test_involution(self):
        m = mod(T(F(3), 4, DOWN), T(F(-1), 2, UP), T(F(1, 3), 1))
        assert oriented_equal(reflect(reflect(m)), m)

    def test_orientations_flip(self):
        out = reflect(mod(T(F(0), 2, DOWN)))
        assert out.towers[0].orientation is UP

    def test_rejects_free_towers(self):
        with pytest.raises(ValueError):
            reflect(mod(T(F(0), INFINITE)))


class TestSignedRank:
    def test_mixed(self):
        m = mod(T(F(0), 5, DOWN), T(F(-2), 4, UP), T(F(-2), 2, DOWN))
        assert signed_rank(m) == 3

    def test_empty(self):
        assert signed_rank(mod()) == 0

    def test_all_down(self):
        m = mod(T(F(0), 4, DOWN), T(F(-7), 3, DOWN), T(F(-12), 2, DOWN))
        assert signed_rank(m) == 9

    def test_unoriented_rejected(self):
        with pytest.raises(ValueError):
            signed_rank(mod(T(F(0), 2)))

    def test_additive_over_union(self):
        a = mod(T(F(0), 5, DOWN), T(F(-2), 4, UP))
        b = mod(T(F(2), 3, DOWN))
        union = mod(*(a.towers + b.towers))
        assert signed_rank(union) == signed_rank(a) + signed_rank(b)


class TestKunneth:
    def test_unit(self):
        unit = mod(T(F(0), INFINITE))
        m = mod(T(F(3), 2), T(F(0), INFINITE), T(F(-1), 1))
        assert kunneth(unit, m) == m

    def test_x1_squared(self):
        h = mod(T(F(0), INFINITE), T(F(0), 1))
        expected = mod(
            T(F(0), INFINITE), T(F(0), 1), T(F(0), 1), T(F(0), 1), T(F(-1), 1)
        )
        assert kunneth(h, h) == expected

    def test_x2_x3(self):
        h2 = mod(T(F(0), INFINITE), T(F(0), 2))
        h3 = mod(T(F(0), INFINITE), T(F(0), 3))
        expected = mod(
            T(F(0), INFINITE), T(F(0), 2), T(F(0), 3), T(F(0), 2), T(F(-5), 2)
        )
        assert kunneth(h2, h3) == expected

    def test_output_canonically_sorted(self):
        out = kunneth(mod(T(F(0), 2), T(F(4), 1)), mod(T(F(0), INFINITE)))
        keys = [(-t.top, -t.length) for t in out.towers]
        assert keys == sorted(keys)


# -- property tests -------------------------------------------------------

finite_towers = st.builds(
    Tower,
    top=st.integers(-8, 8).map(F),
    length=st.integers(1, 6),
)
rank_one_modules = st.lists(finite_towers, max_size=4).map(
    lambda ts: FUModule(tuple(ts) + (Tower(F(0), INFINITE),))
)


@settings(max_examples=60, deadline=None)
@given(rank_one_modules, rank_one_modules)
def test_kunneth_commutative(a, b):
    assert kunneth(a, b) == kunneth(b, a)


@settings(max_examples=40, deadline=None)
@given(rank_one_modules, rank_one_modules, rank_one_modules)
def test_kunneth_associative_on_rank_one(a, b, c):
    assert kunneth(kunneth(a, b), c) == kunneth(a, kunneth(b, c))


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_towers, max_size=5))
def test_reflect_involution_property(towers):
    m = FUModule(tuple(towers))
    assert reflect(reflect(m)) == m


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_towers, max_size=5), st.integers(-6, 6), st.integers(-6, 6))
def test_shift_adds(towers, a, b):
    m = FUModule(tuple(towers))
    assert shift(shift(m, F(a)), F(b)) == shift(m, F(a + b))


@settings(max_examples=60, deadline=None)
@given(st.lists(finite_towers, max_size=5))
def test_module_json_round_trip(towers):
    m = FUModule(tuple(towers))
    assert oriented_equal(FUModule.from_json(m.to_json()), m)


# -- Kunneth against the pairwise reference --------------------------------


def ref_kunneth(a, b):
    """Kunneth as one tower per pair of towers, canonically sorted."""
    out = [Tower(s.top + t.top, min(s.length, t.length)) for s in a for t in b]
    for s in a:
        for t in b:
            if not (s.is_free or t.is_free):
                top = s.top + t.top - 2 * max(s.length, t.length) + 1
                out.append(Tower(top, min(s.length, t.length)))
    return FUModule(tuple(out)).canonical()


def random_module(rng, free_only=False):
    towers = []
    for _ in range(rng.randint(0, 7)):
        top = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        if free_only or rng.random() < 0.25:
            towers.append(Tower(top, INFINITE))
        else:
            towers.append(Tower(top, rng.randint(1, 3), rng.choice((DOWN, UP, None))))
    if rng.random() < 0.3 and towers:  # repeated towers, as homology gives
        towers += rng.choices(towers, k=rng.randint(1, 4))
    return FUModule(tuple(towers))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_kunneth_matches_pairwise_reference(seed):
    rng = random.Random(seed)
    a, b, c = (random_module(rng, free_only=rng.random() < 0.15) for _ in range(3))
    for x, y in ((a, b), (b, a), (a, FUModule()), (FUModule(), b)):
        got, want = kunneth(x, y), ref_kunneth(x, y)
        assert got.towers == want.towers
        assert got.to_json() == want.to_json()
    # an iterated product reads the first product's towers back
    got, want = kunneth(kunneth(a, b), c), ref_kunneth(ref_kunneth(a, b), c)
    assert got.towers == want.towers
    assert got.to_json() == want.to_json()


def test_shared_towers_compare_like_distinct_ones():
    t = T(F(1, 2), 3)
    shared = mod(t, t, t, T(F(0), INFINITE))
    distinct = mod(T(F(1, 2), 3), T(F(1, 2), 3), T(F(1, 2), 3), T(F(0), INFINITE))
    assert shared == distinct and hash(shared) == hash(distinct)
    assert shared.towers == distinct.towers
    assert shared.to_json() == distinct.to_json()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_counts_match_a_recount(seed):
    rng = random.Random(seed)
    a, b = random_module(rng), random_module(rng)
    product = kunneth(a, b)
    counts = {(F(rng.randint(-4, 4), 2), rng.choice((1, 2, INFINITE))): rng.randint(1, 3)}
    for m in (product, _module_from_counts(counts), a, FUModule.from_json(b.to_json())):
        recount = {}
        for t in m.towers:
            recount[t.top, t.length] = recount.get((t.top, t.length), 0) + 1
        assert dict(m._counts) == recount
    # a built module repeats one instance per distinct tower
    assert len({id(t) for t in product.towers}) == len(product._counts)


# -- module equality is multiset equality of (top, length) -----------------


def multiset(m):
    return Counter((t.top, t.length) for t in m)


def presentations(rng, m):
    """``m`` rebuilt by ``FUModule(...)``, shuffled and reoriented, and read back from JSON."""
    towers = [
        t if t.is_free else Tower(t.top, t.length, rng.choice((DOWN, UP, None)))
        for t in m.towers
    ]
    rng.shuffle(towers)
    return [FUModule(tuple(towers)), FUModule.from_json(m.to_json())]


def variants(rng, m):
    """Modules one step away from ``m``: a tower moved, lengthened, dropped or added."""
    out = [FUModule(m.towers + (Tower(F(rng.randint(-3, 3), 2), INFINITE),))]
    if m.towers:
        k = rng.randrange(len(m.towers))
        t = m.towers[k]
        rest = m.towers[:k] + m.towers[k + 1:]
        out.append(FUModule(rest))
        out.append(FUModule(rest + (Tower(t.top + rng.choice((2, F(1, 2), F(-1, 3))), t.length),)))
        if not t.is_free:
            out.append(FUModule(rest + (Tower(t.top, t.length + 1, t.orientation),)))
            out.append(FUModule(rest + (Tower(t.top, INFINITE),)))
    return out


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_equality_and_hash_agree_with_multiset_equality(seed):
    rng = random.Random(seed)
    a, b = random_module(rng), random_module(rng)
    c = random_geometric_complex(rng, max_cells=10)
    # modules whose multiplicities are seeded (homology, kunneth) and built ones
    seeded = [homology(c).module, kunneth(a, b), kunneth(homology(c).module, a), a]
    for m in seeded:
        group = [m, *presentations(rng, m), *variants(rng, m), b]
        counted = [multiset(x) for x in group]
        for x, mx in zip(group, counted):
            for y, my in zip(group, counted):
                assert (x == y) == (mx == my)
                if x == y:
                    assert hash(x) == hash(y)
    # Kunneth's seeded table against the pairwise reference's plain module
    assert kunneth(a, b) == ref_kunneth(a, b) == FUModule.from_json(kunneth(a, b).to_json())
    assert hash(kunneth(a, b)) == hash(ref_kunneth(a, b))
