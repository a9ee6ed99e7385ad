"""Tower diagrams: ASCII for terminals, SVG 1.1 for documents.

One column per tower in module order, one row per grading, descending.  When
all tops differ by integers, the rows run without gaps from the highest top
to the lowest bottom; the row step is two, or one when those differences
have both parities, in which case the odd rows are interleaved.  When some
tops differ by a non-integer (mixed denominators), the rows are the occupied
gradings only, with no fill.  Oriented towers are drawn with an arrow from
head to tail: a down tower reads ``*``, ``|``, ..., ``v`` from top to bottom
and an up tower ``^``, ``|``, ..., ``*``; unoriented cells are ``o``.
Grading labels sit on the left.  A grid of more than ``MAX_GRID_CELLS`` rows
x towers is refused with ``ValueError`` before any row is listed (with mixed
denominators the rows are counted as the sum of the tower lengths).  Output
is deterministic byte-for-byte for a fixed input.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from .towers import DOWN, UP, FUModule

MAX_ASCII_COLUMNS = 120
#: Largest rows x towers grid drawn (the benchmark's render cases reach 44,400).
MAX_GRID_CELLS = 250_000
TRUNCATION_MARKER = "..."


def _layout(m: FUModule) -> Tuple[List[str], List[Sequence[int]]]:
    """Row labels top down, and per tower the row indices of its cells top down."""
    if any(t.is_free for t in m):
        raise ValueError("diagrams are drawn for finite modules only")
    if not m.towers:
        return [], []
    hi = max(t.top for t in m)
    # a cell's grading is its tower's top less an even integer
    diffs = [hi - t.top for t in m]
    mixed = any(d.denominator != 1 for d in diffs)
    step = 2 if all(d % 2 == 0 for d in diffs) else 1
    n = sum(t.length for t in m) if mixed else (hi - min(t.bottom for t in m)) // step + 1
    if n * len(m.towers) > MAX_GRID_CELLS:
        raise ValueError(f"{n} rows x {len(m.towers)} towers exceed {MAX_GRID_CELLS} diagram cells")
    if mixed:
        rows = sorted({g for t in m for g in t.gradings()}, reverse=True)
        index = {g: r for r, g in enumerate(rows)}
        return [str(g) for g in rows], [[index[g] for g in t.gradings()] for t in m]
    stride = 2 // step
    columns = [range(d // step, d // step + stride * t.length, stride) for d, t in zip(diffs, m)]
    return [str(hi - step * k) for k in range(n)], columns


def render_ascii(m: FUModule) -> str:
    rows, columns = _layout(m)
    if not rows:
        return "0 |"
    grid = [[" "] * len(columns) for _ in rows]
    for col, (t, cells) in enumerate(zip(m, columns)):
        first, mid, last = {None: "ooo", DOWN: "*|v", UP: "^|*"}[t.orientation]
        glyphs = first + mid * (t.length - 2) + last
        # a one-cell tower keeps its arrowhead: v when down, ^ when up
        glyphs = glyphs[-t.length :] if t.orientation is DOWN else glyphs[: t.length]
        for r, glyph in zip(cells, glyphs):
            grid[r][col] = glyph
    width = max(map(len, rows))
    lines = []
    for label, chars in zip(rows, grid):
        line = (label.rjust(width) + " |  " + "  ".join(chars)).rstrip()
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
    rows, columns = _layout(m)
    height = _TOP + _ROW_STEP * max(len(rows), 1) + _TOP
    width = _LEFT + _COL_STEP * max(len(columns), 1) + _COL_STEP
    row_y = [_TOP + _ROW_STEP * r + _ROW_STEP // 2 for r in range(len(rows))]
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
    for label, y in zip(rows, row_y):
        out.append(
            f'<line x1="{_LEFT}" y1="{y}" x2="{width - 12}" y2="{y}" '
            f'stroke="lightgray" stroke-dasharray="2,4"/>'
        )
        out.append(
            f'<text x="{_LEFT - 8}" y="{y + 4}" text-anchor="end" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    for i, (t, cells) in enumerate(zip(m, columns)):
        x = _LEFT + _COL_STEP * i + _COL_STEP // 2
        if t.orientation is not None and len(cells) > 1:
            # the arrow runs from head to tail: top down for a down tower
            y1, y2 = row_y[cells[0]], row_y[cells[-1]]
            if t.orientation is UP:
                y1, y2 = y2, y1
            out.append(
                f'<line x1="{x}" y1="{y1}" x2="{x}" y2="{y2}" stroke="black" '
                f'marker-end="url(#arrow)"/>'
            )
        fill = "white" if t.orientation is None else "black"
        for r in cells:
            out.append(
                f'<circle cx="{x}" cy="{row_y[r]}" r="{_CELL_R}" fill="{fill}" '
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
