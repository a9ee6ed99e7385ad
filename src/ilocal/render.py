"""Tower diagrams: ASCII for terminals, SVG 1.1 for documents.

One column per tower in module order, one row per grading (descending; the
row step is two except when gradings of both parities occur, in which case
the odd rows are interleaved).  Oriented towers are drawn with an arrow
from head to tail: a down tower reads ``*``, ``|``, ..., ``v`` from top to
bottom and an up tower ``^``, ``|``, ..., ``*``; unoriented cells are
``o``.  Grading labels sit on the left.  Output is deterministic
byte-for-byte for a fixed input.
"""

from __future__ import annotations

from typing import Dict, List

from .towers import DOWN, FUModule, Grading, Tower

MAX_ASCII_COLUMNS = 120
#: Largest rows x towers grid drawn (the benchmark's render cases reach 44,400).
MAX_GRID_CELLS = 250_000
TRUNCATION_MARKER = "..."


def _label(g: Grading) -> str:
    return str(g.numerator) if g.denominator == 1 else f"{g.numerator}/{g.denominator}"


def _tower_chars(t: Tower) -> Dict[Grading, str]:
    cells = list(t.gradings())  # top to bottom
    if t.orientation is None:
        return {g: "o" for g in cells}
    chars = {}
    for pos, g in enumerate(cells):
        first, last = pos == 0, pos == len(cells) - 1
        if t.orientation is DOWN:
            chars[g] = "v" if last else ("*" if first else "|")
        else:
            chars[g] = "^" if first else ("*" if last else "|")
    return chars


def _rows(m: FUModule) -> List[Grading]:
    """Row gradings, top down; the grid is sized from tops and lengths before any is listed."""
    if any(t.is_free for t in m):
        raise ValueError("diagrams are drawn for finite modules only")
    if not m.towers:
        return []
    hi = max(t.top for t in m)
    # a cell's grading is its tower's top less an even integer
    diffs = [hi - t.top for t in m]
    mixed = any(d.denominator != 1 for d in diffs)
    step = 2 if all(d % 2 == 0 for d in diffs) else 1
    n = sum(t.length for t in m) if mixed else (hi - min(t.bottom for t in m)) // step + 1
    if n * len(m.towers) > MAX_GRID_CELLS:
        raise ValueError(f"{n} rows x {len(m.towers)} towers exceed {MAX_GRID_CELLS} diagram cells")
    if mixed:
        return sorted({g for t in m for g in t.gradings()}, reverse=True)
    return [hi - step * k for k in range(n)]


def render_ascii(m: FUModule) -> str:
    rows = _rows(m)
    if not rows:
        return "0 |"
    columns = [_tower_chars(t) for t in m]
    width = max(len(_label(g)) for g in rows)
    lines = []
    for g in rows:
        line = _label(g).rjust(width) + " |"
        for chars in columns:
            line += "  " + chars.get(g, " ")
        line = line.rstrip()
        if len(line) > MAX_ASCII_COLUMNS:
            line = line[: MAX_ASCII_COLUMNS - len(TRUNCATION_MARKER)] + TRUNCATION_MARKER
        lines.append(line)
    return "\n".join(lines)


# -- SVG -----------------------------------------------------------------

_CELL_R = 5
_COL_STEP = 36
_ROW_STEP = 24
_LEFT = 72
_TOP = 24


def render_svg(m: FUModule) -> str:
    rows = _rows(m)
    n_cols = len(m.towers)
    height = _TOP + _ROW_STEP * max(len(rows), 1) + _TOP
    width = _LEFT + _COL_STEP * max(n_cols, 1) + _COL_STEP
    row_y = {g: _TOP + _ROW_STEP * i + _ROW_STEP // 2 for i, g in enumerate(rows)}
    col_x = {i: _LEFT + _COL_STEP * i + _COL_STEP // 2 for i in range(n_cols)}
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        "<defs>",
        '<marker id="arrow" markerWidth="8" markerHeight="8" refX="6" refY="3" '
        'orient="auto"><path d="M0,0 L6,3 L0,6 z" fill="black"/></marker>',
        "</defs>",
    ]
    if not rows:
        out.append(
            f'<text x="{_LEFT - 8}" y="{_TOP + 4}" text-anchor="end" '
            f'font-family="monospace" font-size="12">0</text>'
        )
        out.append("</svg>")
        return "\n".join(out)
    for g in rows:
        y = row_y[g]
        out.append(
            f'<line x1="{_LEFT}" y1="{y}" x2="{width - 12}" y2="{y}" '
            f'stroke="lightgray" stroke-dasharray="2,4"/>'
        )
        out.append(
            f'<text x="{_LEFT - 8}" y="{y + 4}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{_label(g)}</text>'
        )
    for i, t in enumerate(m.towers):
        x = col_x[i]
        cells = list(t.gradings())
        if t.orientation is not None and len(cells) > 1:
            y1, y2 = row_y[t.head], row_y[t.tail]
            out.append(
                f'<line x1="{x}" y1="{y1}" x2="{x}" y2="{y2}" stroke="black" '
                f'marker-end="url(#arrow)"/>'
            )
        fill = "white" if t.orientation is None else "black"
        for g in cells:
            out.append(
                f'<circle cx="{x}" cy="{row_y[g]}" r="{_CELL_R}" fill="{fill}" '
                f'stroke="black"/>'
            )
    out.append("</svg>")
    return "\n".join(out)


def render(m: FUModule, format: str = "ascii") -> str:
    if format == "ascii":
        return render_ascii(m)
    if format == "svg":
        return render_svg(m)
    raise ValueError(f"unknown render format {format!r}")
