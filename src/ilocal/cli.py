"""Command-line front end.

Subcommands: build, homology, connected, decode, sum, double, half, dual,
tensor, verify, render, suite.  Results go to stdout as JSON (or plain text
for ``render``); diagnostics go to stderr.  Exit codes: 0 on success, 1 on
a domain error (invalid input data, unreachable decode, ...), 2 on a usage
error.  ``ILOCAL_SEED`` overrides the suite seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import complexes as cx
from . import connected as cn
from . import doubling as db
from . import suite as st
from .errors import ExpressionError
from .expr import MAX_TERMS, format_expression, parse_expression
from .homology import homology
from .render import render
from .towers import FUModule, grading_from_json, grading_to_str

#: ``tensor`` refuses a product of more cells than this before building it.
MAX_TENSOR_CELLS = 100_000


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _one_source(parser: argparse.ArgumentParser, args) -> None:
    if bool(args.expr) == bool(args.file):
        parser.error("provide exactly one of --expr or --file")


def _load_complex(parser: argparse.ArgumentParser, args) -> cx.GeometricComplex:
    _one_source(parser, args)
    if args.expr:
        return cn.representative(parse_expression(args.expr))
    return cx.complex_from_json(_read_json(args.file))


def _require_split(c: cx.GeometricComplex) -> cx.SplitComplex:
    if not isinstance(c, cx.SplitComplex):
        raise ValueError("this operation needs a split complex (J and fixed cell)")
    return c


def _int_within(minimum: int, maximum: float = float("inf")):
    """An argparse type: an integer from ``minimum`` up to ``maximum``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        if value > maximum:
            raise argparse.ArgumentTypeError(f"must be at most {maximum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


def _add_complex_source(sub, expr_help="combination expression, e.g. 'X5 - X4 + X2'"):
    sub.add_argument("--expr", help=expr_help)
    sub.add_argument("--file", help="path to a complex JSON file")


def _cmd_build(parser, args) -> int:
    lc = parse_expression(args.expr)
    _emit(cx.complex_to_json(cn.representative(lc)))
    return 0


def _cmd_homology(parser, args) -> int:
    result = homology(_load_complex(parser, args))
    out = result.module.to_json()
    if args.witnesses:
        out["witnesses"] = result.witnesses_json()
    _emit(out)
    return 0


def _placed_module(args, lc, d=None) -> FUModule:
    """The module of ``lc`` placed at ``--d`` (else ``d``); unplaced if neither."""
    if args.d is not None:
        d = grading_from_json(args.d, "--d")
    lc = cn.simplify(lc)
    return cn.hf_conn(lc, d) if d is not None else cn.connected_homology(lc)


def _cmd_connected(parser, args) -> int:
    _one_source(parser, args)
    if args.file:
        cls = cn.LocalClass.from_json(_read_json(args.file))
        module = _placed_module(args, cls.combo, cls.d)
    else:
        module = _placed_module(args, parse_expression(args.expr))
    _emit(module.to_json())
    return 0


def _cmd_decode(parser, args) -> int:
    module = FUModule.from_json(_read_json(args.file))
    d = grading_from_json(args.d, "--d")
    lc = cn.decode(module, d)
    _emit(
        {
            "terms": lc.to_json(),
            "d": grading_to_str(d),
            "expr": format_expression(lc),
        }
    )
    return 0


def _cmd_sum(parser, args) -> int:
    if len(args.file) < 2:
        parser.error("sum needs at least two --file inputs")
    classes = []
    for path in args.file:
        obj = _read_json(path)
        if not isinstance(obj, dict) or not {"module", "d"} <= obj.keys():
            raise ValueError(f"{path}: a class must be a JSON object with 'module' and 'd'")
        classes.append((FUModule.from_json(obj["module"]), grading_from_json(obj["d"], "'d'")))
    total = classes[0]
    for other in classes[1:]:
        total = cn.connect_sum(total, other)
    module, d = total
    _emit({"module": module.to_json(), "d": grading_to_str(d)})
    return 0


def _cmd_double(parser, args) -> int:
    sc = _require_split(_load_complex(parser, args))
    result = db.double(sc, args.delta)
    _emit({"complex": cx.complex_to_json(result.complex), "labels": result.labels_json()})
    return 0


def _cmd_half(parser, args) -> int:
    sc = _require_split(_load_complex(parser, args))
    _emit(cx.complex_to_json(db.half(sc, args.delta)))
    return 0


def _cmd_dual(parser, args) -> int:
    _emit(cx.complex_to_json(cx.dual(_load_complex(parser, args))))
    return 0


def _cmd_tensor(parser, args) -> int:
    if len(args.file) != 2:
        parser.error("tensor needs exactly two --file inputs")
    c1 = cx.complex_from_json(_read_json(args.file[0]))
    c2 = cx.complex_from_json(_read_json(args.file[1]))
    cells = len(c1) * len(c2)
    if cells > MAX_TENSOR_CELLS:
        raise ValueError(
            f"the tensor of {len(c1)} and {len(c2)} cells would have {cells} cells, "
            f"more than {MAX_TENSOR_CELLS}"
        )
    _emit(cx.complex_to_json(cx.tensor(c1, c2)))
    return 0


def _cmd_verify(parser, args) -> int:
    sc = _require_split(_load_complex(parser, args))
    f = db.local_map_f(sc, args.delta)
    g = db.local_map_g(sc, args.delta)
    _emit(db.verify_local_pair(f, g).to_json())
    return 0


def _cmd_render(parser, args) -> int:
    _one_source(parser, args)
    if args.file:
        if args.d is not None:
            parser.error("--d applies to --expr only; a module file is drawn as stored")
        module = FUModule.from_json(_read_json(args.file))
    else:
        module = _placed_module(args, parse_expression(args.expr))
    print(render(module, args.format))
    return 0


def _cmd_suite(parser, args) -> int:
    seed = os.environ.get("ILOCAL_SEED", args.seed)
    try:
        seed = int(seed)
    except ValueError:
        raise ValueError(f"ILOCAL_SEED must be an integer, got {seed!r}") from None
    counts = {}
    if args.cases is not None:
        n = args.cases
        counts = dict(
            kunneth_cases=n,
            doubling_cases=n,
            local_cases=min(n, max(1, n // 2)),
            representative_cases=n,
            roundtrip_cases=4 * n,
            duality_cases=n,
        )
    config = st.SuiteConfig(
        max_terms=args.max_terms, max_index=args.max_index, max_cells=args.max_cells, **counts
    )
    report = st.run_suite(seed, config)
    _emit(report.to_json())
    if not report.passed:
        print("suite failed; see counterexamples above", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ilocal",
        description="Local-equivalence invariants of involutive F2[U]-complexes",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("build", help="representative complex of an expression")
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_build)

    p = subs.add_parser("homology", help="tower decomposition of H_*")
    _add_complex_source(p)
    p.add_argument("--witnesses", action="store_true", help="dump cycle representatives")
    p.set_defaults(fn=_cmd_homology)

    p = subs.add_parser("connected", help="connected module of a combination")
    _add_complex_source(p, expr_help="combination expression (simplified automatically)")
    p.add_argument("--d", help="correction term; if set, output is in the shifted frame")
    p.set_defaults(fn=_cmd_connected)

    p = subs.add_parser("decode", help="recover the combination from a module")
    p.add_argument("--file", required=True, help="module JSON file")
    p.add_argument("--d", required=True, help="correction term")
    p.set_defaults(fn=_cmd_decode)

    p = subs.add_parser("sum", help="connected sum of (module, d) classes")
    p.add_argument("--file", action="append", default=[], help="class JSON file (repeat)")
    p.set_defaults(fn=_cmd_sum)

    p = subs.add_parser("double", help="double a split complex")
    _add_complex_source(p)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_double)

    p = subs.add_parser("half", help="half a split complex")
    _add_complex_source(p)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_half)

    p = subs.add_parser("dual", help="dualize a complex")
    _add_complex_source(p)
    p.set_defaults(fn=_cmd_dual)

    p = subs.add_parser("tensor", help="tensor two complexes")
    p.add_argument("--file", action="append", default=[], help="complex JSON file (twice)")
    p.set_defaults(fn=_cmd_tensor)

    p = subs.add_parser("verify", help="check the local maps for a doubling")
    _add_complex_source(p)
    p.add_argument("--delta", type=int, required=True)
    p.set_defaults(fn=_cmd_verify)

    p = subs.add_parser("render", help="draw a tower diagram")
    p.add_argument("--expr")
    p.add_argument("--file", help="module JSON file")
    p.add_argument("--d", help="correction term for the shifted frame")
    p.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p.set_defaults(fn=_cmd_render)

    p = subs.add_parser("suite", help="run the randomized verification suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--cases", type=_int_within(0), default=None, help="cases per suite")
    # random_combination allocates up to --max-terms terms, and a kunneth
    # case reduces a product of up to --max-cells squared cells
    p.add_argument("--max-terms", type=_int_within(0, MAX_TERMS), default=4)
    p.add_argument("--max-index", type=_int_within(1), default=6)
    p.add_argument("--max-cells", type=_int_within(3, st.MAX_CELLS), default=10)
    p.set_defaults(fn=_cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(parser, args)
    except ExpressionError as exc:
        print(f"expression error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
