from fractions import Fraction as F

import pytest

from ilocal import (
    Cell,
    GeometricComplex,
    INFINITE,
    InvalidComplex,
    NotSplit,
    SplitComplex,
    build_misordered,
    build_trivial,
    build_xi,
    canonical_splitting,
    complex_from_json,
    complex_to_json,
    decompose,
    double,
    dual,
    tensor,
    to_fu_matrices,
    width,
)


class TestBuilders:
    def test_xi_gradings(self):
        x2 = build_xi(2)
        assert x2.maslov("b") == F(-3)  # M(b) = -2i + 1
        assert x2.maslov("a") == F(0)
        assert x2.fixed == "b"

    def test_xi_differential(self):
        x1 = build_xi(1)
        assert x1.fu_bdry("b") == {"a": 1, "Ja": 1}

    def test_xi_width(self):
        for i in (1, 3, 7):
            assert width(build_xi(i)) == 2 * i

    def test_xi_rejects_nonpositive(self):
        for bad in (0, -1):
            with pytest.raises(ValueError):
                build_xi(bad)

    def test_trivial(self):
        t = build_trivial()
        assert len(t) == 1 and t.fixed == "eta"
        assert width(t) == INFINITE

    def test_misordered(self):
        m = build_misordered(1, 2)
        assert m.fu_bdry("e1") == {"e0": 1, "Je0": 1}
        assert m.fu_bdry("e2") == {"e1": 2, "Je1": 2}
        assert width(m) == 2

    def test_misordered_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            build_misordered(2, 2)
        with pytest.raises(ValueError):
            build_misordered(0, 3)
        with pytest.raises(ValueError):
            build_misordered(3, 1)


class TestValidation:
    def test_nonmonotone_grading_rejected(self):
        cells = [Cell("x", 1, F(0)), Cell("y", 0, F(-2))]
        with pytest.raises(InvalidComplex, match="'x'.*'y'|grading decreases"):
            GeometricComplex(cells, {"x": {"y"}})

    def test_odd_gap_rejected(self):
        cells = [Cell("x", 1, F(-1)), Cell("y", 0, F(0))]
        with pytest.raises(InvalidComplex):
            GeometricComplex(cells, {"x": {"y"}})

    def test_wrong_degree_rejected(self):
        cells = [Cell("x", 2, F(0)), Cell("y", 0, F(0))]
        with pytest.raises(InvalidComplex, match="degree -1"):
            GeometricComplex(cells, {"x": {"y"}})

    def test_bdry_squared_rejected(self):
        cells = [
            Cell("p", 0, F(0)),
            Cell("x", 1, F(0)),
            Cell("z", 2, F(0)),
        ]
        with pytest.raises(InvalidComplex, match="bdry\\^2"):
            GeometricComplex(cells, {"x": {"p"}, "z": {"x"}})

    def test_duplicate_id_rejected(self):
        with pytest.raises(InvalidComplex, match="duplicate"):
            GeometricComplex([Cell("x", 0, F(0)), Cell("x", 0, F(0))], {})

    def test_fractional_tau_coset(self):
        with pytest.raises(InvalidComplex, match="outside the coset"):
            GeometricComplex([Cell("x", 0, F(1, 2)), Cell("y", 0, F(1, 3))], {})
        with pytest.raises(InvalidComplex, match="outside the coset"):
            GeometricComplex([Cell("x", 0, F(1, 2)), Cell("y", 0, F(3, 2))], {})
        g = GeometricComplex([Cell("x", 1, F(1, 2)), Cell("y", 0, F(5, 2))], {"x": {"y"}})
        assert g.tau == F(1, 2)
        assert g.width() == 2 and g.fu_bdry("x") == {"y": 1}

    def test_unknown_boundary_target_rejected(self):
        with pytest.raises(InvalidComplex, match="boundary of 'x' mentions unknown cell 'z'"):
            GeometricComplex([Cell("x", 1, F(0)), Cell("y", 0, F(0))], {"x": {"y", "z"}})

    def test_j_must_preserve_gradings(self):
        cells = [Cell("x", 0, F(1, 2)), Cell("y", 0, F(5, 2)), Cell("e", 0, F(1, 2))]
        g = GeometricComplex(cells, {})
        with pytest.raises(NotSplit, match="does not preserve the gradings"):
            SplitComplex(g, {"x": "y", "y": "x", "e": "e"})

    def test_u_exponent_rejects_negative_gap(self):
        x = build_xi(2)
        assert x.u_exponent("b", "a") == 2
        with pytest.raises(InvalidComplex, match="invalid grading gap"):
            x.u_exponent("a", "b")

    def test_two_fixed_cells_rejected(self):
        cells = [Cell("x", 0, F(0)), Cell("y", 0, F(0))]
        g = GeometricComplex(cells, {})
        with pytest.raises(NotSplit, match="exactly one"):
            SplitComplex(g, {"x": "x", "y": "y"})

    def test_j_not_involution_rejected(self):
        cells = [Cell("x", 0, F(0)), Cell("y", 0, F(0)), Cell("z", 0, F(0))]
        g = GeometricComplex(cells, {})
        with pytest.raises(NotSplit, match="involution"):
            SplitComplex(g, {"x": "y", "y": "z", "z": "x"})

    def test_j_bdry_commutation_rejected(self):
        cells = [
            Cell("a", 0, F(0)),
            Cell("Ja", 0, F(0)),
            Cell("b", 1, F(-2)),
            Cell("Jb", 1, F(-2)),
            Cell("e", 0, F(0)),
        ]
        g = GeometricComplex(cells, {"b": {"a"}, "Jb": {"a"}})
        J = {"a": "Ja", "Ja": "a", "b": "Jb", "Jb": "b", "e": "e"}
        with pytest.raises(NotSplit, match="commute"):
            SplitComplex(g, J)

    def test_split_results_are_validated_once(self, monkeypatch):
        # a split complex reuses the validation of its base instead of
        # running it again
        calls = []
        validate = GeometricComplex._validate

        def counting(self):
            calls.append(self)
            validate(self)

        monkeypatch.setattr(GeometricComplex, "_validate", counting)
        x = build_xi(2)
        for make in (
            lambda: build_xi(3),
            lambda: dual(x),
            lambda: tensor(x, x),
            lambda: double(x, 1).complex,
        ):
            calls.clear()
            assert isinstance(make(), SplitComplex)
            assert len(calls) == 1


class TestTensor:
    def test_cell_count(self):
        assert len(tensor(build_xi(2), build_xi(5))) == 9

    def test_split_product_has_one_fixed_cell(self):
        p = tensor(build_xi(1), build_xi(2))
        assert isinstance(p, SplitComplex)
        assert p.fixed == "b⊗b"

    def test_gradings_add(self):
        p = tensor(build_xi(2), build_xi(3))
        assert p.cell("b⊗b").gr == F(-10)
        assert p.cell("b⊗b").dim == 2

    def test_width_is_min(self):
        p = tensor(build_xi(2), build_xi(5))
        assert width(p) == min(width(build_xi(2)), width(build_xi(5))) == 4

    def test_plain_factor_gives_plain_product(self):
        g = GeometricComplex([Cell("x", 0, F(0))], {})
        assert not isinstance(tensor(g, build_xi(1)), SplitComplex)


class TestDual:
    def test_dual_xi_differential(self):
        d = dual(build_xi(4))
        assert d.fu_bdry("a*") == {"b*": 4}
        assert d.fu_bdry("Ja*") == {"b*": 4}
        assert d.fu_bdry("b*") == {}

    def test_maslov_negates(self):
        c = build_misordered(1, 3)
        d = dual(c)
        for cid in c.ids():
            assert d.maslov(cid + "*") == -c.maslov(cid)

    def test_width_preserved(self):
        for c in (build_xi(3), build_misordered(2, 3), tensor(build_xi(1), build_xi(2))):
            assert width(dual(c)) == width(c)

    def test_double_dual_restores_maslov_and_bdry(self):
        c = build_misordered(1, 2)
        dd = dual(dual(c))
        for cid in c.ids():
            assert dd.maslov(cid + "**") == c.maslov(cid)
            assert dd.bdry[cid + "**"] == frozenset(t + "**" for t in c.bdry[cid])

    def test_dual_preserves_split(self):
        d = dual(build_xi(2))
        assert isinstance(d, SplitComplex)
        assert d.fixed == "b*"


class TestDecompose:
    def test_pair_sum(self):
        x = build_xi(3)
        s = frozenset({"a"})
        assert decompose(x, {"a", "Ja"}, s) == (frozenset(), frozenset({"a"}), 0)

    def test_fixed_component(self):
        x = build_xi(3)
        assert decompose(x, {"b"}, {"a"}) == (frozenset(), frozenset(), 1)

    def test_partner_alone(self):
        x = build_xi(3)
        assert decompose(x, {"Ja"}, {"a"}) == (frozenset({"a"}), frozenset({"a"}), 0)

    def test_reassembles(self):
        m = build_misordered(1, 2)
        chosen = canonical_splitting(m)
        for chain in ({"e0"}, {"e0", "Je1"}, {"e2", "Je0"}, set(m.ids())):
            a, b, eps = decompose(m, chain, chosen)
            rebuilt = set(a)
            for c in b:
                rebuilt ^= {c, m.J[c]}
            if eps:
                rebuilt ^= {m.fixed}
            assert rebuilt == set(chain)


class TestFUMatrices:
    def test_xi_column(self):
        ms = to_fu_matrices(build_xi(3))
        assert ms[1].entries == {("a", "b"): 3, ("Ja", "b"): 3}
        assert ms[0].entries == {}

    def test_trivial(self):
        ms = to_fu_matrices(build_trivial())
        assert list(ms) == [0]
        assert ms[0].entries == {}

    def test_misordered(self):
        ms = to_fu_matrices(build_misordered(1, 2))
        assert set(ms[1].entries.values()) == {1}
        assert set(ms[2].entries.values()) == {2}

    def test_j_equivariance_of_entries(self):
        for sc in (build_misordered(1, 3), tensor(build_xi(1), build_xi(2))):
            for m in to_fu_matrices(sc).values():
                for (t, s), exp in m.entries.items():
                    assert m.entries[(sc.J[t], sc.J[s])] == exp


class TestJson:
    def test_round_trip_split(self):
        for c in (build_xi(2), build_misordered(1, 3), tensor(build_xi(1), build_xi(2))):
            back = complex_from_json(complex_to_json(c))
            assert isinstance(back, SplitComplex)
            assert back.ids() == c.ids()
            assert back.bdry == c.bdry
            assert back.J == c.J
            assert back.tau == c.tau

    def test_round_trip_plain(self):
        g = GeometricComplex([Cell("x", 0, F(1, 2)), Cell("y", 1, F(-3, 2))], {"y": {"x"}})
        back = complex_from_json(complex_to_json(g))
        assert not isinstance(back, SplitComplex)
        assert back.cells["x"].gr == F(1, 2)

    def test_invalid_json_names_cells(self):
        obj = complex_to_json(build_xi(1))
        obj["cells"][2]["gr"] = "2/1"  # b above a: monotonicity breaks
        with pytest.raises(InvalidComplex, match="'b'"):
            complex_from_json(obj)
