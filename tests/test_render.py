import sys
from fractions import Fraction as F

import pytest

from ilocal import DOWN, Tower, UP, FUModule, INFINITE, render, render_ascii, render_svg

T = Tower


def mod(*towers):
    return FUModule(tuple(towers))


class TestAscii:
    def test_single_down_tower(self):
        assert render_ascii(mod(T(F(0), 1, DOWN))) == "0 |  v"

    def test_empty_module(self):
        assert render_ascii(mod()) == "0 |"

    def test_up_tower_arrowhead_on_top(self):
        lines = render_ascii(mod(T(F(0), 2, UP))).splitlines()
        assert lines[0].endswith("^")
        assert lines[1].endswith("*")

    def test_unoriented_circles(self):
        assert render_ascii(mod(T(F(0), 2))).splitlines() == [" 0 |  o", "-2 |  o"]

    @pytest.mark.parametrize(
        "towers, expected",
        [
            ((T(F(0), 1, DOWN), T(F(-1), 1, DOWN)), " 0 |  v\n-1 |     v"),
            (
                (T(F(0), 3, DOWN), T(F(-1), 2, UP)),
                " 0 |  *\n-1 |     ^\n-2 |  |\n-3 |     *\n-4 |  v",
            ),
            # mixed denominators: only the occupied gradings get a row
            (
                (T(F(0), 3), T(F(1, 2), 2, DOWN)),
                " 1/2 |     *\n   0 |  o\n-3/2 |     v\n  -2 |  o\n  -4 |  o",
            ),
        ],
        ids=["odd-step", "odd-step-arrows", "mixed"],
    )
    def test_mixed_parity_interleaves_rows(self, towers, expected):
        assert render_ascii(mod(*towers)) == expected

    def test_column_cap(self):
        wide = mod(*[T(F(0), 1, DOWN) for _ in range(60)])
        out = render_ascii(wide)
        assert all(len(line) <= 120 for line in out.splitlines())
        assert out.splitlines()[0].endswith("...")

    def test_rejects_free_towers(self):
        with pytest.raises(ValueError):
            render_ascii(mod(T(F(0), INFINITE)))


class TestSvg:
    def test_structure(self):
        out = render_svg(mod(T(F(0), 2, DOWN)))
        assert out.startswith("<svg ") and out.endswith("</svg>")
        assert 'version="1.1"' in out
        assert out.count("<circle") == 2
        assert "marker-end" in out

    def test_empty(self):
        out = render_svg(mod())
        assert out.startswith("<svg ") and ">0<" in out


class TestGridCap:
    """The rows x towers grid is sized from tops and lengths before any row is listed."""

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_far_apart_towers_are_refused(self, fmt):
        with pytest.raises(ValueError, match="2000001 rows x 2 towers"):
            render(mod(T(F(0), 1, DOWN), T(F(-4000000), 1, DOWN)), fmt)

    @pytest.mark.parametrize(
        "towers, cells",
        [
            ((T(F(0), 3, DOWN), T(F(-8), 1, UP)), 10),  # 5 rows of step 2
            ((T(F(0), 1, DOWN), T(F(-3), 1, DOWN)), 8),  # 4 rows of step 1
            ((T(F(0), 3), T(F(1, 2), 2)), 10),  # 5 occupied rows of mixed denominators
        ],
        ids=["even", "odd", "mixed"],
    )
    def test_cap_admits_exactly_its_cell_count(self, monkeypatch, towers, cells):
        m = mod(*towers)
        monkeypatch.setattr(sys.modules["ilocal.render"], "MAX_GRID_CELLS", cells)
        assert len(render_ascii(m).splitlines()) == cells // len(towers)
        monkeypatch.setattr(sys.modules["ilocal.render"], "MAX_GRID_CELLS", cells - 1)
        for fmt in ("ascii", "svg"):
            with pytest.raises(ValueError, match=f"exceed {cells - 1} diagram cells"):
                render(m, fmt)


def test_render_dispatch():
    m = mod(T(F(0), 1, DOWN))
    assert render(m, "ascii") == render_ascii(m)
    assert render(m, "svg") == render_svg(m)
    with pytest.raises(ValueError):
        render(m, "png")
