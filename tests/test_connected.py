import json
import random
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilocal import complexes as complexes_module, doubling as doubling_module
from ilocal import (
    DOWN,
    LinearCombination,
    LocalClass,
    NotInXForm,
    NotSimplified,
    Tower,
    UP,
    FUModule,
    canonical_splitting,
    complex_to_json,
    connect_sum,
    connected_homology,
    decode,
    hf_conn,
    homology,
    local_map_f,
    local_map_g,
    place_towers,
    predict_mu_bar,
    predict_rokhlin_parity,
    reflect,
    representative,
    simplify,
    verify_local_pair,
)
from ilocal.suite import (
    admissible_deltas,
    check_decode_roundtrip,
    check_representative,
    random_combination,
    random_even_d,
)

from conftest import oriented_equal

T = Tower
LC = LinearCombination


def mod(*towers):
    return FUModule(tuple(towers))


class TestLinearCombination:
    def test_sorted_descending_with_plus_first(self):
        lc = LC(((-1, 4), (1, 5), (1, 4)))
        assert lc.terms == ((1, 5), (1, 4), (-1, 4))

    def test_simplified_flag(self):
        assert LC(((1, 3), (1, 3))).simplified
        assert not LC(((1, 3), (-1, 3))).simplified

    def test_rejects_bad_terms(self):
        with pytest.raises(ValueError):
            LC(((2, 3),))
        with pytest.raises(ValueError):
            LC(((1, 0),))

    @pytest.mark.parametrize("sign", [1.0, -1.0, True, F(1)])
    def test_rejects_a_sign_that_is_not_an_int(self, sign):
        # 1.0 == 1 and True == 1, but simplify needs an int count of terms
        with pytest.raises(ValueError, match="term sign must be"):
            LC(((sign, 2),))

    def test_json_round_trip(self):
        lc = LC(((1, 5), (-1, 2)))
        assert LC.from_json(lc.to_json()) == lc
        cls = LocalClass(lc, F(-3, 2))
        assert LocalClass.from_json(cls.to_json()) == cls


class TestSimplify:
    def test_inverse_pair(self):
        assert simplify(LC(((1, 4), (-1, 4)))) == LC()

    def test_one_cancellation(self):
        lc = LC(((1, 5), (-1, 4), (1, 4), (1, 2)))
        assert simplify(lc) == LC(((1, 5), (1, 2)))

    def test_same_sign_untouched(self):
        lc = LC(((1, 3), (1, 3)))
        assert simplify(lc) == lc


class TestPlacement:
    def test_single_term(self):
        for i in (1, 4, 9):
            out = connected_homology(LC(((1, i),)))
            assert oriented_equal(out, mod(T(F(0), i, DOWN)))

    def test_alternating_example(self):
        out = connected_homology(LC(((1, 5), (-1, 4), (1, 2))))
        assert oriented_equal(
            out, mod(T(F(0), 5, DOWN), T(F(-2), 4, UP), T(F(-2), 2, DOWN))
        )

    def test_same_sign_example(self):
        out = connected_homology(LC(((1, 4), (1, 3), (1, 2))))
        assert oriented_equal(
            out, mod(T(F(0), 4, DOWN), T(F(-7), 3, DOWN), T(F(-12), 2, DOWN))
        )

    def test_all_negative(self):
        out = connected_homology(LC(((-1, 2), (-1, 1))))
        assert oriented_equal(out, mod(T(F(3), 2, UP), T(F(4), 1, UP)))

    def test_unsimplified_rejected(self):
        with pytest.raises(NotSimplified):
            connected_homology(LC(((1, 3), (-1, 3))))

    def test_cancelling_pair_still_places(self):
        out = place_towers(LC(((1, 3), (-1, 3))))
        assert out == mod(T(F(0), 3), T(F(0), 3))

    def test_negation_reflects(self):
        for terms in (((1, 5), (-1, 4), (1, 2)), ((1, 4), (1, 1)), ((-1, 6),)):
            lc = LC(terms)
            flipped = connected_homology(LC(tuple((-s, i) for s, i in lc.terms)))
            mirrored = reflect(connected_homology(lc))
            assert oriented_equal(flipped, mirrored)


class TestHfConn:
    def test_single_tower_shift(self):
        assert oriented_equal(hf_conn(LC(((1, 1),)), F(0)), mod(T(F(-1), 1, DOWN)))

    def test_empty(self):
        assert hf_conn(LC(), F(4)) == mod()

    def test_alternating_shifted(self):
        out = hf_conn(LC(((1, 5), (-1, 4), (1, 2))), F(0))
        assert oriented_equal(
            out, mod(T(F(-1), 5, DOWN), T(F(-3), 4, UP), T(F(-3), 2, DOWN))
        )


def mixed_combination(rng, n, max_index):
    """n terms with indices up to ``max_index``, each index with one random sign."""
    indices = [rng.randint(1, max_index) for _ in range(n)]
    sign_of = {i: rng.choice((1, -1)) for i in set(indices)}
    return LC(tuple((sign_of[i], i) for i in indices))


class TestRepresentative:
    def test_pairs_are_omega_and_j_omega_with_equal_stars(self):
        # every J-pair is (J.omegaK..., omegaK...) with as many stars on
        # each side, so none is a prefix pair, and J.omegaK... is canonical
        rng = random.Random("representative pairs")
        for n in (1, 2, 5, 12, 30):
            rep = representative(mixed_combination(rng, n, 8))
            pairs = list(rep.pairs())
            assert len(pairs) == n
            for small, large in pairs:
                assert re.fullmatch(r"J\.omega([2-9]|[1-9][0-9]+)?\**", small), small
                assert large == small[len("J."):]
            assert canonical_splitting(rep) == {small for small, _ in pairs}
            assert rep._prefixed == ()

    @pytest.mark.trusted_derived
    def test_derived_complexes_store_no_id_table(self, monkeypatch):
        # dual and double carry the splitting as flags and probe new names
        # against the new-name set, so no step builds an index or an id splitting
        derived_complexes = []
        for module in (complexes_module, doubling_module):
            def recorded(*args, _derived=module._derived, **kwargs):
                c = _derived(*args, **kwargs)
                derived_complexes.append(c)
                return c
            monkeypatch.setattr(module, "_derived", recorded)
        lc = mixed_combination(random.Random("no id table"), 40, 12)
        assert {sign for sign, _ in lc} == {1, -1}
        rep = representative(lc)
        assert len(derived_complexes) == len(lc) + 2 * sum(sign < 0 for sign, _ in lc)
        assert derived_complexes[-1] is rep
        for c in derived_complexes:
            assert "_index" not in vars(c)
            assert "_canon" in vars(c)

    def test_cell_count(self):
        for terms in (((1, 4), (1, 3), (1, 2)), ((1, 5), (-1, 4)), ()):
            assert len(representative(LC(terms))) == 2 * len(terms) + 1

    def test_ball_gradings(self):
        rep = representative(LC(((1, 4), (1, 3), (1, 2))))
        assert sorted({c.gr for c in rep.cells.values()}, reverse=True) == [
            F(0),
            F(-8),
            F(-14),
            F(-18),
        ]

    def test_alternating_homology(self):
        rep = representative(LC(((1, 5), (-1, 4))))
        assert homology(rep).module.torsion() == mod(T(F(0), 5), T(F(-2), 4))

    def test_matches_placement(self):
        rng = random.Random("representative")
        for _ in range(40):
            lc = random_combination(rng, 5, 7, allow_cancelling=rng.random() < 0.4)
            w = check_representative(lc)
            assert w is None, w

    def test_json_matches_golden_bytes(self):
        # six fixed combinations of up to 30 terms and mixed signs; the file
        # holds the representative JSON as first written, byte for byte
        golden = (Path(__file__).parent / "fixtures" / "representative_golden.json").read_text()
        cases = []
        for case in json.loads(golden):
            rep = representative(LC.from_json(case["terms"]))
            cases.append({"terms": case["terms"], "complex": complex_to_json(rep)})
        assert max(len(case["terms"]) for case in cases) == 30
        assert json.dumps(cases, indent=2) + "\n" == golden

    @pytest.mark.trusted_derived
    def test_derived_complexes_build_no_cells(self):
        # representative, homology and the local maps read the positional
        # tables only; a derived complex builds its Cell objects, id
        # boundary and J when read
        rng = random.Random("lazy cells")
        lc = LC(tuple((rng.choice((1, -1)), rng.randint(1, 9)) for _ in range(20)))
        rep = representative(lc)
        homology(rep)
        delta = admissible_deltas(rep)[-1]
        f, g = local_map_f(rep, delta), local_map_g(rep, delta)
        assert verify_local_pair(f, g).passed
        for c in (rep, f.source, f.target):
            assert not {"cells", "bdry", "J"} & vars(c).keys()
        golden = (Path(__file__).parent / "fixtures" / "representative_golden.json").read_text()
        cases = []
        for case in json.loads(golden):
            rep = representative(LC.from_json(case["terms"]))
            homology(rep)
            assert "cells" not in vars(rep)
            cases.append({"terms": case["terms"], "complex": complex_to_json(rep)})
        assert json.dumps(cases, indent=2) + "\n" == golden


class TestDecode:
    def test_alternating(self):
        m = mod(T(F(-1), 5), T(F(-3), 4), T(F(-3), 2))
        assert decode(m, F(0)) == LC(((1, 5), (-1, 4), (1, 2)))

    def test_empty(self):
        assert decode(mod(), F(6)) == LC()

    def test_misordered_module_rejected(self):
        with pytest.raises(NotInXForm):
            decode(mod(T(F(-1), 1), T(F(-2), 2)), F(0))

    def test_wrong_d_rejected(self):
        m = hf_conn(LC(((1, 3),)), F(0))
        with pytest.raises(NotInXForm):
            decode(m, F(2))

    def test_off_coset_module_rejected(self):
        with pytest.raises(NotInXForm):
            decode(mod(T(F(1, 2), 3)), F(0))

    def test_broken_chain_rejected(self):
        # two towers of equal length at the wrong relative offset
        with pytest.raises(NotInXForm):
            decode(mod(T(F(-1), 2), T(F(-3), 2)), F(0))

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            # after a down chain (tail -5): down needs top -6, up needs bottom -5
            (T(F(-1), 3), T(F(-3), 1), None),
            (T(F(-1), 3), T(F(-6), 1), LC(((1, 3), (1, 1)))),
            # after an up chain (tail 4): up needs bottom 5, down needs top 4
            (T(F(4), 3), T(F(2), 1), None),
            (T(F(4), 3), T(F(4), 1), LC(((-1, 3), (1, 1)))),
        ],
    )
    def test_transition_after_leading_chain(self, first, second, expected):
        m = mod(first, second)
        if expected is None:
            with pytest.raises(NotInXForm):
                decode(m, F(0))
        else:
            assert decode(m, F(0)) == expected

    def test_free_tower_rejected(self):
        from ilocal import INFINITE

        with pytest.raises(ValueError):
            decode(mod(T(F(0), INFINITE)), F(0))

    def test_multiplicities(self):
        lc = LC(((1, 4), (1, 4), (-1, 2), (-1, 2), (-1, 2)))
        assert decode(hf_conn(lc, F(2)), F(2)) == lc

    def test_round_trip_randomized(self):
        rng = random.Random("roundtrip")
        for _ in range(200):
            w = check_decode_roundtrip(random_combination(rng, 6, 9), random_even_d(rng))
            assert w is None, w

    @staticmethod
    def placed_or_perturbed(rng):
        """A placed module, perturbed by one edit or not, or random towers."""
        d = random_even_d(rng)
        kind = rng.randrange(6)
        if kind == 5:
            towers = [T(F(rng.randint(-12, 12)), rng.randint(1, 9)) for _ in range(rng.randint(0, 6))]
        else:
            towers = list(hf_conn(random_combination(rng, 6, 9), d))
        if not towers and kind in (1, 2, 3):
            kind = 4  # an empty module can only gain a tower
        if kind == 1:
            k = rng.randrange(len(towers))
            towers[k] = T(towers[k].top + rng.choice((-2, -1, 1, 2)), towers[k].length)
        elif kind == 2:
            k = rng.randrange(len(towers))
            towers[k] = T(towers[k].top, max(1, towers[k].length + rng.choice((-1, 1))))
        elif kind == 3:
            del towers[rng.randrange(len(towers))]
        elif kind == 4:
            towers.append(T(F(rng.randint(-12, 12)), rng.randint(1, 9)))
        rng.shuffle(towers)
        towers = [T(t.top, t.length, rng.choice((DOWN, UP, None))) for t in towers]
        return mod(*towers), d + rng.choice((0, 0, 0, 2, -2))

    def test_accepted_modules_reassemble(self):
        # decode accepts a module only if its chains are placed towers, so
        # the decoded combination places the module again (orientations are
        # not compared)
        rng = random.Random("decode reassembles")
        outcomes = {}
        for _ in range(4000):
            m, d = self.placed_or_perturbed(rng)
            try:
                lc = decode(m, d)
            except NotInXForm as exc:
                reason = "chain" if "concatenate" in str(exc) else "rule"
                outcomes[reason] = outcomes.get(reason, 0) + 1
                continue
            assert hf_conn(lc, d) == m
            outcomes["accepted"] = outcomes.get("accepted", 0) + 1
        assert min(outcomes.get(k, 0) for k in ("accepted", "chain", "rule")) > 400, outcomes

    def test_round_trip_rational_d(self):
        lc = LC(((1, 3), (-1, 1)))
        for d in (F(1), F(-3), F(1, 2), F(-7, 2)):
            assert check_decode_roundtrip(lc, d) is None


class TestConnectSum:
    def test_inverse_pair_cancels(self):
        a = (hf_conn(LC(((1, 3),)), F(0)), F(0))
        b = (hf_conn(LC(((-1, 3),)), F(0)), F(0))
        assert connect_sum(a, b) == (mod(), F(0))

    def test_recombination(self):
        a = (hf_conn(LC(((1, 5),)), F(0)), F(0))
        b = (hf_conn(LC(((-1, 4),)), F(0)), F(0))
        module, d = connect_sum(a, b)
        assert d == 0 and module == hf_conn(LC(((1, 5), (-1, 4))), F(0))

    def test_d_adds(self):
        a = (hf_conn(LC(((1, 4),)), F(2)), F(2))
        b = (hf_conn(LC(((1, 3),)), F(-2)), F(-2))
        module, d = connect_sum(a, b)
        assert d == 0
        assert oriented_equal(module, mod(T(F(-1), 4, DOWN), T(F(-8), 3, DOWN)))


class TestCorollaries:
    def test_mu_bar_example(self):
        assert predict_mu_bar(LC(((1, 5), (-1, 4), (1, 2))), F(2)) == 2

    def test_empty_class(self):
        assert predict_mu_bar(LC(), F(0)) == 0
        assert predict_rokhlin_parity(LC(), F(0)) == 0

    def test_parity_example(self):
        assert predict_rokhlin_parity(LC(((1, 4), (1, 3), (1, 2))), F(0)) == 1

    def test_parity_needs_even_d(self):
        with pytest.raises(ValueError):
            predict_rokhlin_parity(LC(((1, 2),)), F(1))

    def test_mu_bar_additive_over_connect_sum(self):
        rng = random.Random("mubar")
        for _ in range(50):
            lc1 = random_combination(rng, 4, 6)
            lc2 = random_combination(rng, 4, 6)
            d1, d2 = random_even_d(rng), random_even_d(rng)
            module, d = connect_sum(
                (hf_conn(lc1, d1), d1), (hf_conn(lc2, d2), d2)
            )
            recovered = decode(module, d)
            assert predict_mu_bar(recovered, d) == predict_mu_bar(lc1, d1) + predict_mu_bar(
                lc2, d2
            )


def test_towers_are_summands_of_the_naive_tensor():
    # every tower of the connected module occurs, with multiplicity, in the
    # torsion homology of the unreduced tensor of the signed factors
    from collections import Counter

    from ilocal import build_trivial, build_xi, dual, tensor

    rng = random.Random("summand4")
    for _ in range(25):
        lc = random_combination(rng, 4, 5)
        naive = build_trivial()
        for sign, i in lc:
            naive = tensor(naive, build_xi(i) if sign > 0 else dual(build_xi(i)))
        torsion = Counter((t.top, t.length) for t in homology(naive).module.torsion())
        wanted = Counter((t.top, t.length) for t in connected_homology(lc))
        assert all(torsion[k] >= v for k, v in wanted.items()), lc.to_json()


@st.composite
def combinations(draw):
    indices = draw(st.lists(st.integers(1, 9), max_size=6))
    signs = {i: draw(st.sampled_from((1, -1))) for i in set(indices)}
    return LC(tuple((signs[i], i) for i in indices))


@settings(max_examples=80, deadline=None)
@given(combinations(), st.integers(-5, 5))
def test_round_trip_property(lc, half_d):
    w = check_decode_roundtrip(lc, F(2 * half_d))
    assert w is None, w
