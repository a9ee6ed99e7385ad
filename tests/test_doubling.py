import random
from fractions import Fraction as F

import pytest

from ilocal import doubling
from ilocal import (
    Cell,
    ChainMap,
    INFINITE,
    Tower,
    FUModule,
    WidthExceeded,
    build_misordered,
    build_trivial,
    build_xi,
    canonical_splitting,
    complex_to_json,
    compose,
    double,
    dual,
    half,
    homology,
    local_map_f,
    local_map_g,
    verify_local_pair,
)
from ilocal.suite import (
    admissible_deltas,
    check_local_pair,
    random_split_complex,
    random_splitting,
)

T = Tower


def mod(*towers):
    return FUModule(tuple(towers))


def signature(sc):
    """Involution-aware fingerprint strong enough for the tiny complexes here."""

    def cell_sig(cid):
        c = sc.cells[cid]
        return (c.dim, c.gr, sc.J[cid] == cid, sorted(sc.fu_bdry(cid).values()))

    return sorted(cell_sig(cid) for cid in sc.ids())


class TestDouble:
    def test_double_of_trivial_is_basis_complex(self):
        for delta in (1, 2, 5):
            assert signature(double(build_trivial(), delta).complex) == signature(
                build_xi(delta)
            )

    def test_double_of_xi_matches_ball_complex(self):
        dr = double(build_xi(3), 2)
        got = sorted((c.dim, c.gr) for c in dr.complex.cells.values())
        assert got == [(0, F(0)), (0, F(0)), (1, F(-6)), (1, F(-6)), (2, F(-10))]
        assert dr.complex.fixed == dr.theta

    def test_new_cell_gradings(self):
        x = build_misordered(1, 2)
        dr = double(x, 1)
        eta = x.cells[x.fixed]
        assert dr.complex.cells[dr.omega].gr == eta.gr
        assert dr.complex.cells[dr.omega].dim == eta.dim
        assert dr.complex.cells[dr.theta].gr == eta.gr - 2
        assert dr.complex.cells[dr.theta].dim == eta.dim + 1

    def test_width_is_two_delta(self):
        for delta in (1, 2):
            assert double(build_xi(2), delta).complex.width() == 2 * delta

    def test_width_is_two_delta_on_random_complexes(self, split_corpus):
        # the theta -> omega gap is 2*delta and every other gap is at least
        # the input width W >= 2*delta; a c -> theta gap is at least 2W - 2*delta
        for x in split_corpus:
            for sc in (x, dual(x)):
                for delta in admissible_deltas(sc):
                    assert double(sc, delta).complex.width() == 2 * delta

    def test_cells_on_random_complexes(self, split_corpus):
        # x's cells stay; omega and J.omega take eta's (dim, gr), and theta
        # sits one dimension up at gr(eta) - 2*delta
        for x in split_corpus:
            eta = x.cells[x.fixed]
            for delta in admissible_deltas(x):
                dr = double(x, delta)
                expected = [c for cid, c in x.cells.items() if cid != x.fixed] + [
                    Cell(dr.omega, eta.dim, eta.gr),
                    Cell(dr.j_omega, eta.dim, eta.gr),
                    Cell(dr.theta, eta.dim + 1, eta.gr - 2 * delta),
                ]
                assert list(dr.complex.cells.values()) == expected

    def test_width_exceeded(self):
        with pytest.raises(WidthExceeded):
            double(build_xi(2), 3)

    def test_delta_zero_permitted(self):
        dr = double(build_xi(2), 0)
        assert dr.complex.width() == 0
        assert homology(dr.complex).module == homology(build_xi(2)).module

    def test_doubled_homology_adds_one_tower(self):
        # double(X_4, 3): new tower tops at the Maslov grading of the fixed cell
        assert homology(double(build_xi(4), 3).complex).module == mod(
            T(F(0), INFINITE), T(F(0), 4), T(F(-7), 3)
        )

    def test_homology_independent_of_splitting(self):
        rng = random.Random("splittings")
        for _ in range(20):
            sc = random_split_complex(rng, max_cells=10)
            deltas = list(admissible_deltas(sc, cap=3))
            delta = deltas[-1]
            s1 = canonical_splitting(sc)
            s2 = random_splitting(rng, sc)
            assert (
                homology(double(sc, delta, s1).complex).module
                == homology(double(sc, delta, s2).complex).module
            )

    def test_dd_squared_zero_via_validation(self):
        # the tests rebuild every double through validation, which checks
        # bdry^2 = 0; exercise the theta casework by doubling a complex whose
        # fixed cell sits in low dimension
        b = dual(build_misordered(1, 2))
        dr = double(b, 1)
        assert dr.complex.width() == 2


class TestHalf:
    def test_half_models_subtraction(self):
        h = half(build_xi(5), 4)
        assert homology(h).module.torsion() == mod(T(F(0), 5), T(F(-2), 4))
        assert len(h) == 5

    def test_width_exceeded(self):
        with pytest.raises(WidthExceeded):
            half(build_xi(1), 2)

    def test_half_double_duality(self):
        # dual(half(x, d)) equals double(dual(x), d) up to relabeling and a
        # complementary (dim, gr) shift, so compare shift-normalized shapes
        def shape(sc):
            lo = min(c.dim for c in sc.cells.values())
            return sorted(
                (c.maslov, c.dim - lo, sorted(sc.fu_bdry(c.id).values()))
                for c in sc.cells.values()
            )

        for x, delta in ((build_xi(3), 2), (build_misordered(1, 2), 1)):
            lhs = dual(half(x, delta))
            rhs = double(dual(x), delta).complex
            assert shape(lhs) == shape(rhs)
            assert homology(lhs).module == homology(rhs).module

    def test_cancelling_pair_is_locally_trivial(self):
        # the representative of X_i - X_i admits local maps to and from the
        # trivial complex: collapse Maslov-zero cells, kill the rest
        for i in (1, 3):
            b = half(double(build_trivial(), i).complex, i)
            trivial = build_trivial()
            f = ChainMap(trivial, b, {"eta": {(b.fixed, 0)}})
            g = ChainMap(
                b,
                trivial,
                {
                    cid: {("eta", 0)} if b.maslov(cid) == 0 else set()
                    for cid in b.ids()
                },
            )
            report = verify_local_pair(f, g)
            assert report.passed, report.to_json()


class TestLocalMaps:
    def test_f_on_basis_complex(self):
        # with the splitting {a}: f(omega) = b x a + U^{i - delta} (Ja x b)
        i, delta = 4, 3
        x = build_xi(i)
        dr = double(x, delta, {"a"})
        f = local_map_f(x, delta, {"a"})
        assert f(dr.omega) == frozenset({("b⊗a", 0), ("Ja⊗b", i - delta)})
        assert f(dr.theta) == frozenset({("b⊗b", 0)})
        assert f("a") == frozenset({("a⊗a", 0)})

    def test_g_on_basis_complex(self):
        x = build_xi(4)
        dr = double(x, 2, {"a"})
        g = local_map_g(x, 2, {"a"})
        assert g("b⊗b") == frozenset({(dr.theta, 0)})
        assert g("a⊗b") == frozenset()
        assert g("Ja⊗b") == frozenset()
        assert g("b⊗a") == frozenset({(dr.omega, 0)})
        assert g("b⊗Ja") == frozenset({(dr.j_omega, 0)})

    def test_g_theta_correction_exponent(self):
        # dualizing the misordered disk puts the fixed cell into the boundary
        # of the chosen 1-cells; the correction term picks up one power of U
        b = dual(build_misordered(1, 2))
        dr = double(b, 1)
        g = local_map_g(b, 1)
        chosen_cell = next(c for c in canonical_splitting(b) if b.fixed in b.bdry[c])
        assert g(f"{chosen_cell}⊗Ja") == frozenset({(chosen_cell, 0), (dr.theta, 1)})

    def test_gf_identity(self):
        x = build_misordered(1, 3)
        f, g = local_map_f(x, 1), local_map_g(x, 1)
        assert compose(g, f).identity_witness() is None

    def test_local_maps_are_chain_maps(self):
        for x, delta in ((build_xi(4), 3), (build_misordered(1, 2), 1)):
            for m in (local_map_f(x, delta), local_map_g(x, delta)):
                assert m.grading_witness() is None
                assert m.chain_witness() is None
                assert m.j_witness() is None


class TestVerifyLocalPair:
    def test_basis_doubling_pair_passes(self):
        report = verify_local_pair(local_map_f(build_xi(4), 3), local_map_g(build_xi(4), 3))
        assert report.passed and report.witness is None

    def test_identity_pair(self):
        ident = ChainMap.identity(build_xi(2))
        assert verify_local_pair(ident, ident).passed

    def test_perturbed_exponent_fails_with_witness(self):
        x = build_xi(3)
        f = local_map_f(x, 2)
        g = local_map_g(x, 2)
        mutated = {}
        victim = None
        for cid, terms in f.assignment.items():
            terms = set(terms)
            if victim is None and terms:
                tid, exp = sorted(terms)[0]
                terms = {(tid, exp + 1)} | (terms - {(tid, exp)})
                victim = cid
            mutated[cid] = terms
        bad = ChainMap(f.source, f.target, mutated)
        report = verify_local_pair(bad, g)
        assert not report.passed
        assert not report.chain_map
        assert report.witness["check"] == "chain_map"
        assert report.witness["cell"] == victim

    def test_delta_zero_pair(self):
        report = verify_local_pair(local_map_f(build_xi(2), 0), local_map_g(build_xi(2), 0))
        assert report.passed

    def test_tensor_factor_equivalence_along_representative(self):
        # each doubling step is locally equivalent to adding a tensor factor
        rng = random.Random("steps")
        s = build_trivial()
        for index in (3, 2, 1):
            splitting = random_splitting(rng, s)
            w = check_local_pair(s, index, splitting)
            assert w is None, w
            s = double(s, index, splitting).complex

    def test_path_complex_with_boundary_into_fixed_cell(self):
        # a path a -- eta -- Ja: the chosen 1-cell has both a free endpoint
        # and eta in its boundary, so doubling rewrites it as a + omega
        from ilocal import Cell, GeometricComplex, SplitComplex

        cells = [
            Cell("eta", 0, F(4)),
            Cell("a", 0, F(2)),
            Cell("Ja", 0, F(2)),
            Cell("u", 1, F(0)),
            Cell("Ju", 1, F(0)),
        ]
        bdry = {"u": {"a", "eta"}, "Ju": {"Ja", "eta"}}
        J = {"eta": "eta", "a": "Ja", "Ja": "a", "u": "Ju", "Ju": "u"}
        sc = SplitComplex(GeometricComplex(cells, bdry), J)
        assert homology(sc).module.free_rank == 1 and sc.width() == 2

        dr = double(sc, 1, {"a", "u"})
        assert dr.complex.bdry["u"] == frozenset({"a", dr.omega})
        for delta in (0, 1):
            report = verify_local_pair(
                local_map_f(sc, delta, {"a", "u"}), local_map_g(sc, delta, {"a", "u"})
            )
            assert report.passed, report.to_json()
            got = homology(double(sc, delta).complex).module
            expected = FUModule(
                homology(sc).module.towers + ((T(F(4), delta),) if delta else ())
            )
            assert got == expected

    def test_random_corpus_spot_check(self):
        rng = random.Random("verify")
        for _ in range(10):
            sc = random_split_complex(rng, max_cells=9)
            delta = max(admissible_deltas(sc, cap=2))
            w = check_local_pair(sc, delta, random_splitting(rng, sc))
            assert w is None, w


class TestSharedLocalPair:
    """f and g share one double and one tensor through a one-slot cache."""

    def test_check_local_pair_builds_one_double_and_one_tensor(self, monkeypatch):
        doubling._local_pair.cache_clear()
        calls = {"double": 0, "tensor": 0}
        for name in calls:

            def counted(*args, _name=name, _original=getattr(doubling, name)):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(doubling, name, counted)
        assert check_local_pair(build_xi(4), 3) is None
        assert calls == {"double": 1, "tensor": 1}

    def test_interleaved_calls_match_fresh_builds(self):
        cases = [
            (x, delta, frozenset(chosen))
            for x, splittings in (
                (build_xi(4), ({"a"}, {"Ja"})),
                (build_misordered(1, 3), ({"e0", "e1"}, {"Je0", "e1"})),
            )
            for delta in (0, 1)
            for chosen in splittings
        ]

        def summary(m):
            return m.assignment, complex_to_json(m.source), complex_to_json(m.target)

        fresh = {}
        for i, (x, delta, chosen) in enumerate(cases):
            for name, build in (("f", local_map_f), ("g", local_map_g)):
                doubling._local_pair.cache_clear()
                fresh[i, name] = summary(build(x, delta, chosen))
        # every call after every other call: each pair of cases differs in the
        # complex, the delta, the splitting or the map, or in none of them
        calls = list(fresh)
        for first in calls:
            for second in calls:
                doubling._local_pair.cache_clear()
                for i, name in (first, second):
                    x, delta, chosen = cases[i]
                    build = local_map_f if name == "f" else local_map_g
                    assert summary(build(x, delta, chosen)) == fresh[i, name], (first, second)

    def test_f_then_g_share_the_double_and_the_tensor(self):
        x = build_xi(3)
        f, g = local_map_f(x, 1), local_map_g(x, 1)
        assert f.source is g.target and f.target is g.source

    def test_bad_delta_fails_before_the_cache(self):
        x = build_xi(3)
        for bad in ([1], -1, 1.0, True):
            for build in (local_map_f, local_map_g):
                with pytest.raises(ValueError, match="doubling parameter must be"):
                    build(x, bad)
        with pytest.raises(WidthExceeded):
            local_map_g(x, 4)
