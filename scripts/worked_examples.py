#!/usr/bin/env python3
"""Walk a combination through the doubling/halving pipeline, step by step.

For each term the script doubles (or dualizes, doubles, dualizes back),
verifies the local maps for that step, and finally compares the torsion
homology of the small representative against the placement algorithm.
It exits 1 if the local maps of a step fail or the two modules disagree,
and 2 with a one-line message if ``--expr`` or ``--d`` cannot be parsed.

    python scripts/worked_examples.py
    python scripts/worked_examples.py --expr "X5 + X4 - X3 - X2 + X1" --svg out.svg
"""

from __future__ import annotations

import argparse

from ilocal import (
    build_trivial,
    connected_homology,
    double,
    dual,
    hf_conn,
    homology,
    local_map_f,
    local_map_g,
    parse_expression,
    render_ascii,
    render_svg,
    simplify,
    verify_local_pair,
    width,
)
from ilocal.towers import grading_from_json


def module_str(m):
    parts = []
    for t in m.canonical():
        length = "inf" if t.is_free else t.length
        arrow = {None: "", "down": " v", "up": " ^"}[t.orientation.value if t.orientation else None]
        parts.append(f"T[{t.top}]({length}){arrow}")
    return "  +  ".join(parts) if parts else "0"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--expr", default="X5 + X4 - X3 - X2 + X1")
    ap.add_argument("--d", default="0", help="correction term for the shifted frame")
    ap.add_argument("--svg", help="also write the shifted diagram to this file")
    args = ap.parse_args()

    try:
        lc = parse_expression(args.expr)
        d = grading_from_json(args.d, "--d")
    except ValueError as exc:  # an ExpressionError or an invalid --d: usage, not a failed check
        ap.error(str(exc))
    print(f"combination: {args.expr}   (d = {d})")
    print()

    s = build_trivial()
    maps_ok = True
    for step, (sign, index) in enumerate(lc, start=1):
        label = f"{'+' if sign > 0 else '-'}X{index}"
        if sign > 0:
            report = verify_local_pair(local_map_f(s, index), local_map_g(s, index))
            s = double(s, index).complex
        else:
            sd = dual(s)
            report = verify_local_pair(local_map_f(sd, index), local_map_g(sd, index))
            s = dual(double(sd, index).complex)
        maps_ok = maps_ok and report.passed
        status = "ok" if report.passed else f"FAILED {report.to_json()}"
        print(
            f"step {step}: {label:>5}  cells={len(s):2d}  width={width(s)}  local maps: {status}"
        )

    print()
    grs = sorted({c.gr for c in s.cells.values()}, reverse=True)
    print("grading levels of the representative:", ", ".join(str(g) for g in grs))
    torsion = homology(s).module.torsion()
    placed = connected_homology(simplify(lc))
    print("torsion homology of representative: ", module_str(torsion))
    print("placement algorithm:                 ", module_str(placed))
    agree = torsion == placed
    print("agree:", agree)
    print()

    shifted = hf_conn(simplify(lc), d)
    print(f"connected module in the d = {d} frame:")
    print(render_ascii(shifted))
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(shifted))
        print(f"\nwrote {args.svg}")
    return 0 if maps_ok and agree else 1


if __name__ == "__main__":
    raise SystemExit(main())
