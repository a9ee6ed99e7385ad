import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
)
from ilocal.complexes import _Starred
from ilocal.suite import admissible_deltas, random_geometric_complex, random_split_complex


class TestBuilders:
    def test_xi_gradings(self):
        x2 = build_xi(2)
        assert x2.maslov("b") == F(-3)  # M(b) = -2i + 1
        assert x2.maslov("a") == F(0)
        assert x2.fixed == "b"

    def test_xi_differential(self):
        for i in (1, 3):
            x = build_xi(i)
            assert x.fu_bdry("b") == {"a": i, "Ja": i}
            assert x.fu_bdry("a") == x.fu_bdry("Ja") == {}

    def test_xi_width(self):
        for i in (1, 3, 7):
            assert build_xi(i).width() == 2 * i

    def test_xi_rejects_nonpositive(self):
        for bad in (0, -1, True):
            with pytest.raises(ValueError):
                build_xi(bad)

    def test_trivial(self):
        t = build_trivial()
        assert len(t) == 1 and t.fixed == "eta"
        assert t.fu_bdry("eta") == {}
        assert t.width() == INFINITE

    def test_misordered(self):
        m = build_misordered(1, 2)
        assert m.fu_bdry("e1") == m.fu_bdry("Je1") == {"e0": 1, "Je0": 1}
        assert m.fu_bdry("e2") == {"e1": 2, "Je1": 2}
        assert m.width() == 2

    def test_misordered_rejects_bad_orders(self):
        with pytest.raises(ValueError):
            build_misordered(2, 2)
        with pytest.raises(ValueError):
            build_misordered(0, 3)
        with pytest.raises(ValueError):
            build_misordered(3, 1)
        with pytest.raises(ValueError):
            build_misordered(True, 2)


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

    @pytest.mark.trusted_derived
    def test_split_results_are_validated_once(self, monkeypatch):
        # a split builder validates once (the split complex reuses the
        # validation of its base); dual, tensor and double derive complexes
        # that are valid by construction and run no validation of their own
        calls = []
        validate, check_j = GeometricComplex.__init__, SplitComplex.__init__

        def counting_validate(self, *args):
            calls.append("validate")
            validate(self, *args)

        def counting_check_j(self, base, J):
            calls.append("J")
            check_j(self, base, J)

        monkeypatch.setattr(GeometricComplex, "__init__", counting_validate)
        monkeypatch.setattr(SplitComplex, "__init__", counting_check_j)
        x = build_xi(2)
        calls.clear()
        build_xi(3)
        assert calls == ["validate", "J"]
        for make in (
            lambda: dual(x),
            lambda: tensor(x, x),
            lambda: double(x, 1).complex,
        ):
            calls.clear()
            assert isinstance(make(), SplitComplex)
            assert calls == []

    @pytest.mark.trusted_derived
    def test_double_rebuilds_a_fixed_cell_listed_first_once(self, monkeypatch, split_corpus):
        # every complex the library builds, and its dual, has its fixed cell
        # last and is doubled as it is; read back with the fixed cell listed
        # first, it is rebuilt once with that cell last, and its double is
        # the same complex with the same labels
        calls = []

        def counting(cls):
            init = cls.__init__

            def counting_init(self, *args):
                calls.append(cls.__name__)
                init(self, *args)
            monkeypatch.setattr(cls, "__init__", counting_init)
        counting(GeometricComplex)
        counting(SplitComplex)
        for sc in split_corpus:
            obj = complex_to_json(sc)
            obj["cells"].sort(key=lambda cell: cell["id"] != sc.fixed)
            first = complex_from_json(obj)
            assert first.ids()[0] == sc.fixed
            rebuilt = ["GeometricComplex", "SplitComplex"] if len(sc) > 1 else []
            for x, x_first in ((sc, first), (dual(sc), dual(first))):
                for delta in admissible_deltas(sc):
                    calls.clear()
                    dr = double(x, delta)
                    assert calls == []
                    moved = double(x_first, delta)
                    assert calls == rebuilt
                    assert complex_to_json(moved.complex) == complex_to_json(dr.complex)
                    assert moved.labels_json() == dr.labels_json()


def cells_of(*specs):
    """Cells from (id, dim, gr) triples."""
    return [Cell(cid, dim, F(gr)) for cid, dim, gr in specs]


# (cells, bdry, tau, message).  Each input breaks one rule at two cells, or
# two rules at once, so the order of the checks and of the cells decides
# which error is reported.  No cell has two faulty boundary targets: their
# order within a frozenset is not fixed.
GEOMETRIC_ERRORS = {
    "duplicate, first repeat wins": (
        cells_of(("x", 0, 0), ("y", 0, 0), ("y", 0, 0), ("x", 0, 0)), {}, None,
        "duplicate cell id 'y'",
    ),
    "duplicate before unknown bdry source": (
        cells_of(("x", 0, 0), ("x", 0, 0)), {"q": set()}, None,
        "duplicate cell id 'x'",
    ),
    "duplicate before coset": (
        cells_of(("x", 0, 0), ("y", 0, 1), ("y", 0, 0)), {}, None,
        "duplicate cell id 'y'",
    ),
    "unknown bdry source, bdry order": (
        cells_of(("x", 0, 0), ("y", 0, 0)), {"x": set(), "q": {"x"}, "p": set()}, None,
        "bdry source 'q' is not a cell",
    ),
    "unknown bdry source before coset": (
        cells_of(("x", 0, 0), ("y", 0, 1)), {"q": set()}, None,
        "bdry source 'q' is not a cell",
    ),
    "coset, cell order": (
        cells_of(("x", 0, 0), ("y", 0, F(1, 2)), ("z", 0, 1)), {}, None,
        "cell 'y' has gr 1/2 outside the coset tau=0 + 2Z",
    ),
    "coset against a given tau": (
        cells_of(("x", 0, F(1, 2)), ("y", 0, F(3, 2)), ("z", 0, F(1, 3))), {}, F(5, 2),
        "cell 'y' has gr 3/2 outside the coset tau=1/2 + 2Z",
    ),
    "coset before edges": (
        cells_of(("x", 1, 0), ("y", 0, -2), ("z", 0, 1)), {"x": {"y"}}, None,
        "cell 'z' has gr 1 outside the coset tau=0 + 2Z",
    ),
    "unknown target, bdry order": (
        cells_of(("x", 1, 0), ("y", 1, 0)), {"y": {"w"}, "x": {"z"}}, None,
        "boundary of 'y' mentions unknown cell 'w'",
    ),
    "dimension": (
        cells_of(("x", 2, 0), ("y", 0, 0)), {"x": {"y"}}, None,
        "boundary pair ('x', 'y') is not of dimensional degree -1",
    ),
    "dimension before grading on one edge": (
        cells_of(("x", 2, 0), ("y", 0, -2)), {"x": {"y"}}, None,
        "boundary pair ('x', 'y') is not of dimensional degree -1",
    ),
    "grading decreases": (
        cells_of(("x", 1, 0), ("y", 0, -2)), {"x": {"y"}}, None,
        "grading decreases along boundary pair ('x', 'y')",
    ),
    "grading before a later unknown target": (
        cells_of(("x", 1, 0), ("y", 0, -2), ("z", 1, 0)), {"x": {"y"}, "z": {"q"}}, None,
        "grading decreases along boundary pair ('x', 'y')",
    ),
    "unknown target before a later grading": (
        cells_of(("x", 1, 0), ("y", 0, -2), ("z", 1, 0)), {"z": {"q"}, "x": {"y"}}, None,
        "boundary of 'z' mentions unknown cell 'q'",
    ),
    "repeated boundary pair": (
        cells_of(("x", 1, -2), ("y", 0, 0), ("z", 0, 0)), {"x": ["y", "z", "y"]}, None,
        "boundary pair ('x', 'y') appears more than once",
    ),
    "string boundary value": (
        cells_of(("x", 1, -2), ("yz", 0, 0)), {"x": "yz"}, None,
        "boundary of 'x' must be a collection of ids, got 'yz'",
    ),
    "pair checks of the cell before its repeat": (
        cells_of(("x", 1, -2), ("y", 0, 0)), {"x": ["y", "y", "w"]}, None,
        "boundary of 'x' mentions unknown cell 'w'",
    ),
    "edges before bdry^2": (
        cells_of(("p", 0, 0), ("x", 1, 0), ("z", 2, 0), ("w", 1, 0), ("v", 0, -2)),
        {"x": {"p"}, "z": {"x"}, "w": {"v"}}, None,
        "grading decreases along boundary pair ('w', 'v')",
    ),
    "bdry^2, cell order": (
        cells_of(("p", 0, 0), ("x", 1, 0), ("y", 2, 0), ("z", 2, 0)),
        {"z": {"x"}, "y": {"x"}, "x": {"p"}}, None,
        "bdry^2 is nonzero at cell 'y' (hits ['p'])",
    ),
    "bdry^2 names every hit, sorted": (
        cells_of(("q", 0, 0), ("p", 0, 0), ("x", 1, 0), ("z", 2, 0)),
        {"x": {"p", "q"}, "z": {"x"}}, None,
        "bdry^2 is nonzero at cell 'z' (hits ['p', 'q'])",
    ),
}

_SQUARE = cells_of(("a", 0, 0), ("Ja", 0, 0), ("b", 1, -2), ("Jb", 1, -2), ("e", 0, 0))
_FLAT = cells_of(("x", 0, 0), ("y", 0, 0), ("e", 0, 0))

# (cells, bdry, J, message), in the same spirit for SplitComplex
SPLIT_ERRORS = {
    "J misses a cell": (
        _FLAT, {}, {"x": "y", "y": "x"},
        "J must be defined on exactly the cells of the complex",
    ),
    "J has an extra key, before involution": (
        _FLAT, {}, {"x": "y", "y": "e", "e": "e", "q": "q"},
        "J must be defined on exactly the cells of the complex",
    ),
    "unknown image, J order": (
        _FLAT, {}, {"e": "e", "y": "p", "x": "q"},
        "J sends 'y' to unknown cell 'p'",
    ),
    "involution": (
        _FLAT, {}, {"x": "y", "y": "e", "e": "x"},
        "J is not an involution on the pair ('x', 'y')",
    ),
    "involution before a later unknown image": (
        _FLAT, {}, {"x": "y", "y": "e", "e": "q"},
        "J is not an involution on the pair ('x', 'y')",
    ),
    "unknown image before a later involution": (
        _FLAT, {}, {"e": "q", "x": "y", "y": "e"},
        "J sends 'e' to unknown cell 'q'",
    ),
    "gradings, dimension": (
        cells_of(("x", 0, 0), ("y", 1, 0), ("e", 0, 0)), {}, {"x": "y", "y": "x", "e": "e"},
        "J does not preserve the gradings of ('x', 'y')",
    ),
    "gradings, gr": (
        cells_of(("x", 0, 0), ("y", 0, 2), ("e", 0, 0)), {}, {"y": "x", "x": "y", "e": "e"},
        "J does not preserve the gradings of ('y', 'x')",
    ),
    "gradings before a later involution": (
        cells_of(("x", 0, 0), ("y", 0, 2), ("u", 0, 0), ("v", 0, 0), ("e", 0, 0)), {},
        {"x": "y", "y": "x", "u": "v", "v": "e", "e": "e"},
        "J does not preserve the gradings of ('x', 'y')",
    ),
    "gradings before the fixed count": (
        cells_of(("x", 0, 0), ("y", 0, 2)), {}, {"x": "y", "y": "x"},
        "J does not preserve the gradings of ('x', 'y')",
    ),
    "no fixed cell": (
        cells_of(("x", 0, 0), ("y", 0, 0)), {}, {"x": "y", "y": "x"},
        "exactly one J-fixed cell required, found []",
    ),
    "two fixed cells, sorted": (
        cells_of(("x", 0, 0), ("y", 0, 0), ("u", 0, 0), ("v", 0, 0)), {},
        {"y": "y", "x": "x", "u": "v", "v": "u"},
        "exactly one J-fixed cell required, found ['x', 'y']",
    ),
    "fixed count before commutation": (
        _SQUARE + cells_of(("f", 0, 0)), {"b": {"a"}, "Jb": {"a"}},
        {"a": "Ja", "Ja": "a", "b": "Jb", "Jb": "b", "e": "e", "f": "f"},
        "exactly one J-fixed cell required, found ['e', 'f']",
    ),
    "commutation, cell order": (
        _SQUARE, {"Jb": {"a"}, "b": {"a"}},
        {"Jb": "b", "b": "Jb", "a": "Ja", "Ja": "a", "e": "e"},
        "J does not commute with bdry at cell 'b'",
    ),
    "commutation, cell order with the partner first": (
        [_SQUARE[0], _SQUARE[1], _SQUARE[3], _SQUARE[2], _SQUARE[4]], {"b": {"a"}, "Jb": {"a"}},
        {"b": "Jb", "Jb": "b", "a": "Ja", "Ja": "a", "e": "e"},
        "J does not commute with bdry at cell 'Jb'",
    ),
}


class TestErrorMessages:
    """The exact message of every constructor check, and which check wins."""

    @pytest.mark.parametrize("case", list(GEOMETRIC_ERRORS))
    def test_geometric(self, case):
        cells, bdry, tau, message = GEOMETRIC_ERRORS[case]
        with pytest.raises(InvalidComplex) as info:
            GeometricComplex(cells, bdry, tau)
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "case", [case for case, (_, bdry, _, _) in GEOMETRIC_ERRORS.items()
                 if all(bdry.values()) and not any(isinstance(v, str) for v in bdry.values())]
    )
    def test_geometric_from_json(self, case):
        # JSON lists boundary pairs, so it expresses the cases in which
        # every boundary source has a target and no boundary is one string
        cells, bdry, tau, message = GEOMETRIC_ERRORS[case]
        obj = {
            "cells": [{"id": c.id, "dim": c.dim, "gr": str(c.gr)} for c in cells],
            "bdry": [[src, tgt] for src, targets in bdry.items() for tgt in targets],
        }
        if tau is not None:
            obj["tau"] = str(tau)
        with pytest.raises(InvalidComplex) as info:
            complex_from_json(obj)
        assert str(info.value) == message

    @pytest.mark.parametrize("case", list(SPLIT_ERRORS))
    def test_split(self, case):
        cells, bdry, J, message = SPLIT_ERRORS[case]
        g = GeometricComplex(cells, bdry)
        with pytest.raises(NotSplit) as info:
            SplitComplex(g, J)
        assert str(info.value) == message


class TestTensor:
    def test_cell_count(self):
        assert len(tensor(build_xi(2), build_xi(5))) == 9

    def test_split_product_has_one_fixed_cell(self):
        p = tensor(build_xi(1), build_xi(2))
        assert isinstance(p, SplitComplex)
        assert p.fixed == "b⊗b"

    def test_gradings_add(self):
        p = tensor(build_xi(2), build_xi(3))
        assert p.cells["b⊗b"].gr == F(-10)
        assert p.cells["b⊗b"].dim == 2

    def test_width_is_min(self):
        p = tensor(build_xi(2), build_xi(5))
        assert p.width() == min(build_xi(2).width(), build_xi(5).width()) == 4

    def test_plain_factor_gives_plain_product(self):
        g = GeometricComplex([Cell("x", 0, F(0))], {})
        assert not isinstance(tensor(g, build_xi(1)), SplitComplex)

    def test_colliding_ids_name_the_first_repeat(self):
        # "a⊗b" ⊗ "c" and "a" ⊗ "b⊗c" get the same id
        c1 = GeometricComplex(cells_of(("a⊗b", 0, 0), ("a", 0, 0)), {})
        c2 = GeometricComplex(cells_of(("c", 0, 0), ("b⊗c", 0, 0)), {})
        with pytest.raises(InvalidComplex) as info:
            tensor(c1, c2)
        assert str(info.value) == "duplicate cell id 'a⊗b⊗c'"

    def test_empty_factor_gives_empty_product(self):
        empty = GeometricComplex([], {})
        for p in (tensor(empty, build_xi(2)), tensor(build_xi(2), empty)):
            assert len(p) == 0
            assert p.width() == INFINITE


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
            assert dual(c).width() == c.width()

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


class TestDerivedGradings:
    """``dual`` and ``tensor`` compute integer tables; the cells read back from
    them must carry the gradings of the Fraction formulas they replace."""

    @staticmethod
    def corpus(split_corpus, pair_corpus):
        return list(split_corpus) + [c for pair in pair_corpus for c in pair]

    def test_dual_cells(self, split_corpus, pair_corpus):
        for c in self.corpus(split_corpus, pair_corpus):
            n = max((cell.dim for cell in c.cells.values()), default=0)
            expected = [
                Cell(cid + "*", n - cell.dim, -n - cell.gr) for cid, cell in c.cells.items()
            ]
            assert list(dual(c).cells.values()) == expected

    def test_tensor_cells(self, split_corpus, pair_corpus):
        pairs = list(pair_corpus) + [(x, build_xi(2)) for x in split_corpus]
        for c1, c2 in pairs:
            expected = [
                Cell(f"{u}⊗{v}", a.dim + b.dim, a.gr + b.gr)
                for u, a in c1.cells.items()
                for v, b in c2.cells.items()
            ]
            assert list(tensor(c1, c2).cells.values()) == expected


class TestStoredFields:
    """Every construction ends in one storage step: ``cells`` is a view built
    from the tables on first read, and ``_q`` is tau's denominator."""

    def test_validated_cells_are_built_on_first_read(self):
        obj = {
            "tau": "1/2",
            "cells": [
                {"id": "z", "dim": 1, "gr": "-7/2"},
                {"id": "a", "dim": 0, "gr": "1/2"},
                {"id": "m", "dim": 0, "gr": "-3/2"},
            ],
            "bdry": [["z", "a"], ["z", "m"]],
        }
        given = {
            "build_xi": (build_xi(3), cells_of(("a", 0, 0), ("Ja", 0, 0), ("b", 1, -6))),
            "complex_from_json": (
                complex_from_json(obj),
                cells_of(("z", 1, F(-7, 2)), ("a", 0, F(1, 2)), ("m", 0, F(-3, 2))),
            ),
        }
        for name, (c, cells) in given.items():
            assert "cells" not in vars(c), name
            assert list(c.cells.items()) == [(cell.id, cell) for cell in cells], name
            assert "cells" in vars(c), name

    def test_validated_complexes_store_no_id_table(self):
        obj = complex_to_json(build_misordered(1, 3))
        plain = {"cells": obj["cells"], "bdry": obj["bdry"]}
        g = GeometricComplex(cells_of(("x", 1, 0), ("y", 0, 2)), {"x": {"y"}})
        for c in (g, build_xi(2), build_misordered(1, 3), complex_from_json(obj),
                  complex_from_json(plain)):
            assert not {"bdry", "J", "cells"} & vars(c).keys()

    @pytest.mark.trusted_derived
    def test_split_over_a_derived_base_builds_no_cells(self, monkeypatch):
        x2 = build_xi(2)
        d = tensor(dual(x2), x2)
        built = []
        init = Cell.__init__

        def counting_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self.id)

        monkeypatch.setattr(Cell, "__init__", counting_init)
        s = SplitComplex(d, d.J)
        assert built == []
        assert "cells" not in vars(d) and "cells" not in vars(s)
        assert (s._ids, list(s._dims), list(s._nums), s._q, s.bdry, s.tau, s.J, s.fixed) == (
            d._ids, list(d._dims), list(d._nums), d._q, d.bdry, d.tau, d.J, d.fixed
        )

    def test_q_is_the_denominator_of_tau(self, split_corpus, pair_corpus):
        xi = build_xi(2)
        complexes = []
        for x in split_corpus:
            complexes += [x, dual(x), tensor(x, xi), tensor(dual(x), x)]
            complexes += [double(x, delta).complex for delta in (0, 1) if 2 * delta <= x.width()]
        for c1, c2 in pair_corpus:
            complexes += [c1, c2, dual(c1), dual(c2), tensor(c1, c2), tensor(dual(c2), c1)]
        assert {c.tau.denominator for c in complexes} > {1}
        for c in complexes:
            assert c._q == c.tau.denominator


class TestStoredForm:
    """``dual``, and ``double`` of a dual, store their results as stems, star
    counts and base gradings under one affine map; ids, dims and numerators
    are views of them, built on first read, and ``max_dim`` and ``len`` read
    fields.  The double of any other complex stores its tables."""

    VIEWS = {"_ids", "_dims", "_nums"}

    @staticmethod
    def tables(c):
        return list(c._ids), list(c._dims), list(c._nums)

    @staticmethod
    def dualized(ref, q):
        """The tables of the dual: one more star, dim n - d and numerator -n*q - k."""
        ids, dims, nums = ref
        n = max(dims, default=0)
        return [cid + "*" for cid in ids], [n - d for d in dims], [-n * q - k for k in nums]

    @staticmethod
    def doubled(ref, dr, delta, q):
        """The tables of the double: eta's cell goes, omega, J.omega and theta come last."""
        ids, dims, nums = ref
        e = ids.index(dr.eta)
        d, k = dims[e], nums[e]
        keep = [p for p in range(len(ids)) if p != e]
        return ([ids[p] for p in keep] + [dr.omega, dr.j_omega, dr.theta],
                [dims[p] for p in keep] + [d, d, d + 1],
                [nums[p] for p in keep] + [k, k, k - 2 * delta * q])

    def check(self, c, ref):
        ids, dims, _ = ref
        if not isinstance(c, _Starred):  # the double of a complex not derived stores its tables
            assert self.tables(c) == tuple(ref)
            return
        assert not self.VIEWS & vars(c).keys()
        assert (len(c), c.max_dim()) == (len(ids), max(dims, default=0))
        assert (vars(c)["_lo"], vars(c)["_hi"]) == (min(dims, default=0), max(dims, default=0))
        assert not self.VIEWS & vars(c).keys()
        assert self.tables(c) == tuple(ref)
        assert self.VIEWS <= vars(c).keys()

    def test_chains_store_no_table_until_read(self, split_corpus, pair_corpus):
        rng = random.Random("stored form")
        one_cell = GeometricComplex(cells_of(("x", 2, 0)), {})
        starts = list(split_corpus) + [c for pair in pair_corpus for c in pair]
        starts += [GeometricComplex([], {}), one_cell, build_trivial()]
        for x in starts:
            c, ref = x, self.tables(x)
            for _ in range(rng.randint(1, 6)):
                deltas = range(min(2, c.width() // 2) + 1)
                if isinstance(c, SplitComplex) and rng.random() < 0.5:
                    delta = rng.choice(deltas)
                    dr = double(c, delta)
                    assert isinstance(dr.complex, _Starred) == isinstance(c, _Starred)
                    c, ref = dr.complex, self.doubled(ref, dr, delta, c._q)
                else:
                    c, ref = dual(c), self.dualized(ref, c._q)
                self.check(c, ref)
            assert dual(dual(c))._ids == tuple(cid + "**" for cid in c._ids)

    def test_two_duals_add_two_stars(self, split_corpus, pair_corpus):
        for x in list(split_corpus) + [c for pair in pair_corpus for c in pair]:
            dd = dual(dual(x))
            assert not self.VIEWS & vars(dd).keys()
            assert dd._ids == tuple(cid + "**" for cid in x._ids)


def boundary_forms_agree(c):
    """``bdry``, built from ``_adj`` on first read, agrees with c's positions.

    Rows are compared as sets: the order in which a frozenset iterates may
    differ from the order of a row, and nothing may depend on it.
    """
    ids = c.ids()
    adj, bdry = c._adj, c.bdry
    assert len(adj) == len(ids) and bdry.keys() == set(ids)
    for row in adj:
        assert type(row) is tuple and len(set(row)) == len(row)
        assert all(type(t) is int and 0 <= t < len(ids) for t in row)
    assert GeometricComplex.bdry.build(c) == bdry
    assert bdry == {cid: frozenset(ids[t] for t in row) for cid, row in zip(ids, adj)}


@pytest.mark.trusted_derived
class TestBoundaryForms:
    """Every complex but a product stores its boundary as positions,
    ``_adj``, which a product builds from its leaves on first read; the id
    boundary is built from it on first read, as is the index of positions
    where it is not stored.  The validating constructor checks positions
    too, so a validated complex builds no id boundary either."""

    @staticmethod
    def stored(c):
        return [form for form in ("bdry", "_adj") if form in vars(c)]

    @staticmethod
    def index_agrees(c):
        assert c._index == {cid: i for i, cid in enumerate(c.ids())}

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_forms_agree(self, seed):
        rng = random.Random(seed)
        # a draw may end in a derived complex or in a validated one
        sc = random_split_complex(rng, max_cells=10)
        g = random_geometric_complex(rng, max_cells=8)
        made = [sc, g, build_xi(rng.randint(1, 4)), build_misordered(1, 3),
                complex_from_json(complex_to_json(sc))]
        assert self.stored(g) == ["_adj"]
        for c in (dual(sc), dual(g), double(sc, 0).complex):
            assert self.stored(c) == ["_adj"]
            made.append(c)
        # a product stores its leaves and builds its positions on first read
        products = [tensor(sc, build_xi(2)), tensor(g, sc), tensor(dual(sc), tensor(g, g))]
        for c in products:
            assert "_factors" in vars(c) and self.stored(c) == []
        for c in made + products:
            assert "_adj" in vars(c) or c in products
            boundary_forms_agree(c)
            assert self.stored(c) == ["bdry", "_adj"]
            self.index_agrees(c)

    def test_split_complex_over_a_product_stores_adj(self):
        p = tensor(build_xi(1), dual(build_xi(2)))
        s = SplitComplex(p, p.J)
        # J is checked on positions, so neither builds an id boundary
        assert self.stored(s) == self.stored(p) == ["_adj"]
        assert s._adj is p._adj
        boundary_forms_agree(s)
        assert s.bdry == p.bdry
        self.index_agrees(p)
        self.index_agrees(s)


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

    @pytest.mark.parametrize(
        "chosen, message",
        [
            ({"a", "b"}, r"a splitting never contains the fixed cell"),
            # the first failing cell in sorted order
            ({"a", "Ja"}, r"splitting contains both members of the pair \('Ja', 'a'\)"),
            ({"z"}, r"splitting mentions unknown cell 'z'"),
            (set(), r"splitting must pick exactly one cell from each J-pair"),
        ],
        ids=["fixed-cell", "both-of-a-pair", "unknown-cell", "missing-pair"],
    )
    def test_invalid_splitting_rejected(self, chosen, message):
        # the same checks and messages as double's
        with pytest.raises(ValueError, match=f"^{message}$"):
            decompose(build_xi(3), {"a"}, chosen)

    def test_first_unknown_cell_of_the_chain_is_named(self):
        # in the chain's given order, whatever the hash order of the ids
        unknown = [f"u{k}" for k in range(40)]
        for chain in (["zz", "yy", "ww"], ["a", *unknown], ["a", *unknown[::-1]]):
            first = next(cid for cid in chain if cid != "a")
            with pytest.raises(ValueError, match=f"^chain mentions unknown cell '{first}'$"):
                decompose(build_xi(2), chain, None)
            with pytest.raises(ValueError, match=f"^chain mentions unknown cell '{first}'$"):
                decompose(build_xi(2), iter(chain), {"a"})

    @pytest.mark.parametrize("chain", [[["a"]], ["a", ["b"]], [{"a"}, "zz"]])
    def test_an_unhashable_member_is_an_unknown_cell(self, chain):
        odd = next(cid for cid in chain if not isinstance(cid, str))
        with pytest.raises(ValueError, match=f"^chain mentions unknown cell {re.escape(repr(odd))}$"):
            decompose(build_xi(2), chain, None)


class TestDerivedDifferential:
    def test_j_equivariance_of_entries(self):
        for sc in (build_misordered(1, 3), tensor(build_xi(1), build_xi(2))):
            for cid in sc.ids():
                image = {sc.J[tid]: exp for tid, exp in sc.fu_bdry(cid).items()}
                assert sc.fu_bdry(sc.J[cid]) == image


class TestJson:
    def test_round_trip_split(self):
        for c in (build_xi(2), build_misordered(1, 3), tensor(build_xi(1), build_xi(2))):
            back = complex_from_json(complex_to_json(c))
            assert isinstance(back, SplitComplex)
            assert back.ids() == c.ids()
            assert back.bdry == c.bdry
            assert back.J == c.J
            assert back.tau == c.tau

    def test_round_trip_stores_the_same_tables(self, split_corpus, pair_corpus):
        made = list(split_corpus) + [c for pair in pair_corpus for c in pair]
        made += [dual(c) for c in made]
        product = build_xi(1)
        for i in range(2, 7):
            product = tensor(product, dual(build_xi(i)) if i % 2 == 0 else build_xi(i))
        made.append(product)
        for c in made:
            back = complex_from_json(complex_to_json(c))
            assert (back._ids, list(back._dims), list(back._nums), back.tau, back._width) == (
                c._ids, list(c._dims), list(c._nums), c.tau, c._width
            )
            assert [set(row) for row in back._adj] == [set(row) for row in c._adj]
            assert isinstance(back, SplitComplex) == isinstance(c, SplitComplex)
            if isinstance(c, SplitComplex):
                assert (list(back._jpos), back._fpos) == (list(c._jpos), c._fpos)

    @pytest.mark.parametrize(
        "J, fixed, cid",
        [
            ([["x", "y"], ["y", "z"]], "x", "y"),
            ([["x", "y"]], "y", "y"),
            ([["x", "x"], ["y", "z"]], None, "x"),
            ([["y", "z"], ["z", "y"]], "x", "z"),
        ],
        ids=["two-pairs", "pair-and-fixed", "self-pair", "repeated-pair"],
    )
    def test_j_lists_each_cell_once(self, J, fixed, cid):
        obj = {"cells": [{"id": c, "dim": 0, "gr": "0"} for c in "xyz"], "J": J}
        if fixed is not None:
            obj["fixed"] = fixed
        with pytest.raises(NotSplit) as info:
            complex_from_json(obj)
        assert str(info.value) == f"cell {cid!r} appears more than once in 'J' and 'fixed'"

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
