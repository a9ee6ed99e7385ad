import random
import re
from fractions import Fraction as F

import pytest

from ilocal import doubling
from ilocal import (
    Cell,
    ChainMap,
    GeometricComplex,
    INFINITE,
    NotSplit,
    SplitComplex,
    Tower,
    FUModule,
    WidthExceeded,
    build_misordered,
    build_trivial,
    build_xi,
    canonical_splitting,
    complex_to_json,
    compose,
    decompose,
    double,
    dual,
    half,
    homology,
    local_map_f,
    local_map_g,
    verify_local_pair,
)
from ilocal.complexes import _flags, _Flags
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

    @pytest.mark.parametrize(
        "splitting, message",
        [
            ({"a", "b"}, r"a splitting never contains the fixed cell"),
            ({"z"}, r"splitting mentions unknown cell 'z'"),
            ({"a", "Ja"}, r"splitting contains both members of the pair \('Ja', 'a'\)"),
            (set(), r"splitting must pick exactly one cell from each J-pair"),
        ],
        ids=["fixed-cell", "unknown-cell", "both-of-a-pair", "not-one-per-pair"],
    )
    def test_invalid_splitting_rejected(self, splitting, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            double(build_xi(2), 1, splitting)

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

    def test_local_maps_store_no_term_sets(self):
        # the maps keep their F2 pattern alone; the term sets wait for a read
        for x, delta in ((build_xi(4), 3), (build_misordered(1, 2), 1)):
            f, g = local_map_f(x, delta), local_map_g(x, delta)
            assert verify_local_pair(f, g).passed
            assert "assignment" not in vars(f) and "assignment" not in vars(g)

    def test_local_maps_do_not_depend_on_where_eta_sits(self, split_corpus):
        # double numbers x's cells around eta, so moving eta first moves
        # omega, J.omega and theta nowhere but the cells of x do move
        rng = random.Random("eta first")
        moved_cases = 0
        for sc in split_corpus:
            cells = sorted(sc.cells.values(), key=lambda c: c.id != sc.fixed)
            first = SplitComplex(GeometricComplex(cells, sc.bdry, sc.tau), sc.J)
            moved_cases += first._fpos != sc._fpos
            splitting = random_splitting(rng, sc)
            for delta in admissible_deltas(sc, cap=2):
                outcomes = []
                for x in (sc, first):
                    f, g = local_map_f(x, delta, splitting), local_map_g(x, delta, splitting)
                    outcomes.append((f.assignment, g.assignment, verify_local_pair(f, g)))
                assert outcomes[0] == outcomes[1]
                assert outcomes[0][2].passed
        assert moved_cases >= 150

    def test_local_maps_are_chain_maps(self):
        for x, delta in ((build_xi(4), 3), (build_misordered(1, 2), 1)):
            for m in (local_map_f(x, delta), local_map_g(x, delta)):
                assert m._grading is None
                assert m.chain_witness() is None
                assert m.j_witness() is None


NOT_SPLIT_CALLS = {
    "double": lambda g: double(g, 1),
    "half": lambda g: half(g, 1),
    "decompose": lambda g: decompose(g, ["a"], ["a"]),
    "canonical_splitting": canonical_splitting,
    "local_map_f": lambda g: local_map_f(g, 1),
    "local_map_g": lambda g: local_map_g(g, 1, ["a"]),
}


@pytest.mark.parametrize("name", list(NOT_SPLIT_CALLS))
def test_operations_on_splittings_reject_a_complex_that_is_not_split(name):
    # X_1 without its J: every one of them goes through canonical_splitting
    cells = [Cell("a", 0, F(0)), Cell("Ja", 0, F(0)), Cell("b", 1, F(-2))]
    g = GeometricComplex(cells, {"b": {"a", "Ja"}})
    with pytest.raises(NotSplit, match="^a splitting requires a split complex$"):
        NOT_SPLIT_CALLS[name](g)


NON_STRING_MEMBER_CALLS = {
    "_flags": _flags,
    "double": lambda x, s: double(x, 1, s),
    "decompose": lambda x, s: decompose(x, ["a"], s),
    "local_map_f": lambda x, s: local_map_f(x, 1, s),
}


@pytest.mark.parametrize("name", list(NON_STRING_MEMBER_CALLS))
@pytest.mark.parametrize("splitting", [["a", 1], [1]], ids=["with-a-string", "alone"])
def test_a_member_that_is_not_a_string_is_an_unknown_cell(name, splitting):
    # ids are strings, so such a member is named before the sorted walk
    with pytest.raises(ValueError, match="^splitting mentions unknown cell 1$"):
        NON_STRING_MEMBER_CALLS[name](build_xi(2), splitting)


@pytest.mark.parametrize("name", list(NON_STRING_MEMBER_CALLS))
@pytest.mark.parametrize("splitting", [[["a"]], ["a", ["Ja"]], [{"a"}]],
                         ids=["alone", "with-a-string", "a-set"])
def test_an_unhashable_member_is_an_unknown_cell(name, splitting):
    odd = next(cid for cid in splitting if not isinstance(cid, str))
    with pytest.raises(ValueError, match=rf"^splitting mentions unknown cell {re.escape(repr(odd))}$"):
        NON_STRING_MEMBER_CALLS[name](build_xi(2), splitting)


@pytest.mark.parametrize("name", list(NON_STRING_MEMBER_CALLS))
@pytest.mark.parametrize("splitting", ["a", "Ja", ""])
def test_a_string_splitting_is_rejected_whole(name, splitting):
    # not read as its characters: "a" is no splitting {"a"}, "Ja" no {"J", "a"}
    message = f"^a splitting must be a collection of cell ids, got {splitting!r}$"
    with pytest.raises(ValueError, match=message):
        NON_STRING_MEMBER_CALLS[name](build_xi(2), splitting)


class TestStoredSplitting:
    """Split complexes store their canonical splitting as flags; dual and double carry them."""

    def test_double_stores_its_canonical_splitting(self):
        x = build_misordered(1, 3)
        for _ in range(3):
            dr = double(x, 1)
            c = dr.complex
            # x's flags, omega unflagged at eta's position, then J.omega and theta
            stored = vars(c)["_canon"]
            assert stored == x._canon + b"\x01\x00"
            # conftest's revalidate_derived compares them with the rebuilt
            # complex's; the id splitting is built from them on first read
            assert canonical_splitting(c) == canonical_splitting(x) | {dr.j_omega}
            assert vars(c)["_named"] == {cid for cid in c.ids() if cid.startswith(("omega", "J.", "theta"))}
            x = c

    def test_a_given_splitting_stores_the_same_flags(self):
        x = build_xi(3)
        # the canonical splitting depends on the ids alone: "Ja" < "a"
        for splitting in ({"a"}, {"Ja"}, frozenset({"Ja"}), None):
            dr = double(x, 1, splitting)
            assert vars(dr.complex)["_canon"] == x._canon + b"\x01\x00"
            assert canonical_splitting(dr.complex) == {"Ja", "J.omega"}
            assert dr.splitting == (set(splitting) if splitting else {"Ja"}) | {"omega"}

    def test_only_the_stored_object_skips_the_check(self):
        x = build_xi(3)
        # wrong flags (both members of the pair) planted as the stored ones
        # are taken as they are ...
        planted = vars(x)["_canon"] = _Flags(b"\x01\x01\x00")
        assert _flags(x, None) is planted and _flags(x, planted) is planted
        assert canonical_splitting(x) == {"a", "Ja"}
        # ... while the same cells as ids, or the same bytes, are checked in full
        with pytest.raises(ValueError, match="contains both members"):
            _flags(x, {"a", "Ja"})
        with pytest.raises(ValueError, match="^splitting mentions unknown cell 1$"):
            _flags(x, bytes(planted))

    def test_a_given_splitting_becomes_flags_by_position(self):
        x = build_misordered(1, 3)  # e0, Je0, e1, Je1, e2
        assert _flags(x, {"Je0", "e1"}) == b"\x00\x01\x01\x00\x00"
        assert _flags(x, None) == x._canon == b"\x00\x01\x00\x01\x00"  # "Je0" < "e0"
        assert type(_flags(x, ["e0", "e1"])) is _Flags

    @pytest.mark.parametrize("first", [True, False], ids=["prefix-first", "prefix-second"])
    @pytest.mark.parametrize("partner, flips, stays", [
        ("a!", True, False),  # "a" < "a!" but "a!*" < "a*"
        ("ab", False, False),  # "a*" < "ab*", and no longer a prefix pair
        ("a*", False, True),  # "a*" < "a**", still a prefix pair
    ], ids=["flips", "ends", "stays"])
    def test_dual_repairs_only_the_prefix_pairs(self, first, partner, flips, stays):
        # starring keeps the order of every pair but a prefix pair, so dual
        # carries its input's flags only when no pair is one; otherwise it
        # stores no splitting field and they are rebuilt from its ids
        pair = [Cell("a", 0, F(0)), Cell(partner, 0, F(0))]
        cells = (pair if first else pair[::-1]) + [Cell("b", 1, F(-2))]
        x = SplitComplex(GeometricComplex(cells, {"b": {"a", partner}}),
                         {"a": partner, partner: "a", "b": "b"})
        p, jp = (0, 1) if first else (1, 0)  # the positions of "a" and its partner
        assert canonical_splitting(x) == {"a"} and x._prefixed == (p,)
        d = dual(x)
        assert not {"_canon", "_prefixed", "_named"} & vars(d).keys()
        want = bytearray(3)
        want[jp if flips else p] = 1
        assert (d._canon, d._prefixed, d._named) == (want, (p,) if stays else (), frozenset())
        assert canonical_splitting(d) == {partner + "*" if flips else "a*"}
        # once the prefix pair ends, the second dual carries the first's
        # flags; conftest checks every stored field against the ids
        dd = dual(d)
        assert ("_canon" in vars(dd)) is not stays
        assert canonical_splitting(dd) == {partner + "**" if flips else "a**"}
        for c in (d, dd):
            ids, J = c.ids(), c.J
            smaller = {cid for cid in ids if cid < J[cid]}
            assert canonical_splitting(c) == smaller
            assert complex_to_json(c)["J"] == sorted([cid, J[cid]] for cid in smaller)
            dr, given = double(c, 1), double(c, 1, smaller)
            assert dr.splitting == given.splitting == smaller | {dr.omega}
            assert complex_to_json(dr.complex) == complex_to_json(given.complex)


class TestVerifyLocalPair:
    def test_basis_doubling_pair_passes(self):
        report = verify_local_pair(local_map_f(build_xi(4), 3), local_map_g(build_xi(4), 3))
        assert report.passed and report.witness is None

    def test_identity_pair(self):
        x = build_xi(2)
        ident = ChainMap(x, x, {cid: {(cid, 0)} for cid in x.ids()})
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

    @staticmethod
    def identity(x):
        return ChainMap(x, x, {cid: {(cid, 0)} for cid in x.ids()})

    def test_map_that_breaks_j_fails_with_witness(self):
        # a and Ja both go to a: a chain map, but f(Ja) = a while J(f(a)) = Ja
        x = build_xi(1)
        collapse = ChainMap(x, x, {"a": {("a", 0)}, "Ja": {("a", 0)}})
        for f, g, name in ((collapse, self.identity(x), "f"), (self.identity(x), collapse, "g")):
            report = verify_local_pair(f, g)
            assert (report.chain_map, report.j_equivariant, report.gf_identity) == (True, False, False)
            assert not report.u_localized_iso
            assert report.witness == {
                "check": "j_equivariant",
                "map": name,
                "cell": "a",
                "difference": [["Ja", 0], ["a", 0]],
                "reason": "f(Jx) differs from J(f(x))",
            }

    def test_equivariant_pair_whose_composite_is_not_the_identity(self):
        x = build_xi(1)
        swap = ChainMap(x, x, {cid: {(x.J[cid], 0)} for cid in x.ids()})
        zero = ChainMap(x, x, {})
        for f, image in ((swap, [["Ja", 0]]), (zero, [])):
            report = verify_local_pair(f, self.identity(x))
            assert (report.chain_map, report.j_equivariant, report.gf_identity) == (True, True, False)
            assert report.witness == {
                "check": "gf_identity",
                "cell": "a",
                "image": image,
                "reason": "composite is not the identity here",
            }

    def test_target_of_free_rank_three_fails_the_localized_check(self):
        # eta, a and Ja are 0-cells with d = 0: three free towers
        from ilocal import GeometricComplex, SplitComplex

        cells = [Cell(cid, 0, F(0)) for cid in ("eta", "a", "Ja")]
        b = SplitComplex(GeometricComplex(cells, {}), {"eta": "eta", "a": "Ja", "Ja": "a"})
        t = build_trivial()
        f = ChainMap(t, b, {"eta": {("eta", 0)}})
        g = ChainMap(b, t, {"eta": {("eta", 0)}})
        report = verify_local_pair(f, g)
        assert (report.chain_map, report.j_equivariant, report.gf_identity) == (True, True, True)
        assert not report.u_localized_iso
        assert report.witness == {
            "check": "u_localized_iso",
            "map": "f",
            "reason": "U-localized iso test requires free rank one on both sides",
        }

    def test_maps_between_different_complexes_are_not_a_pair(self):
        # X1 and X2 have the same cell ids; their identities are not a local pair
        f, g = self.identity(build_xi(1)), self.identity(build_xi(2))
        with pytest.raises(ValueError, match="maps do not form a pair"):
            verify_local_pair(f, g)
        with pytest.raises(ValueError, match="maps are not composable"):
            compose(g, f)
        # one complex built twice is the same complex
        f, g = self.identity(build_xi(1)), self.identity(build_xi(1))
        assert f.source is not g.source
        assert compose(g, f).identity_witness() is None
        assert verify_local_pair(f, g).passed

    def test_maps_between_non_split_complexes_raise(self):
        from ilocal import GeometricComplex, NotSplit

        c = GeometricComplex([Cell("x", 0, F(0))], {})
        ident = self.identity(c)
        with pytest.raises(NotSplit, match="J-equivariance requires split source and target"):
            verify_local_pair(ident, ident)

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
