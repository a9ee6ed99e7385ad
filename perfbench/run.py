"""Benchmark of ilocal: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; ilocal is imported from its ``src``.
With ``--trace 0`` the workload runs as a closed loop (one client, one
case at a time, whole passes over its seeded pool) for at least S seconds
and enough cases to put ten samples beyond the 90th percentile, and the
end-to-end metrics of BENCHMARK.json are reported.  With ``--trace 1`` it
alternates untraced passes over the pool with passes that wrap every
layer in spans, for S seconds, and the per-layer metrics are reported.

The last stdout line is the result object; the line before it holds the
details (environment, sample counts, output digest).  Both are also written
to ``.perfbench/results/``, and a traced run writes its spans to
``.perfbench/spans/``; ``compare.py`` reads the result files.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import measure
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 15


def _setup(cls, seed, workdir):
    """Import ilocal afresh and build the pool, SETUP_REPEATS times; keep the last.

    Returns the workload and the set-up times scaled to nominal host speed
    by the reference work timed between them.
    """
    samples, refs = [], [measure.time_reference()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        il = workloads.load_ilocal(with_cli=cls is workloads.CliSession, fresh=True)
        wl = cls(il, seed, workdir)
        samples.append(time.perf_counter() - t0)
        refs.append(measure.time_reference())
    samples = measure.scale_to_nominal(samples, refs, list(range(len(refs))))
    src = ROOT / "src"
    for mod in vars(il).values():
        if src not in Path(mod.__file__).resolve().parents:
            raise RuntimeError(f"{mod.__name__} was imported from {mod.__file__}, not {src}")
    return wl, samples


def _peak_rss_mb(cls) -> float:
    who = resource.RUSAGE_CHILDREN if cls is workloads.CliSession else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(wl, cls, seconds, setup_samples, detail):
    loop = measure.closed_loop(wl.cases, wl.run, wl.output, seconds,
                               min_cases=measure.min_samples())
    p90, beyond = measure.percentile(loop.durations, measure.TAIL_Q)
    detail.update(
        passes=len(loop.pass_ends),
        p90_samples=loop.attempted,
        p90_beyond=beyond,
        halves_spread_cases_per_s=loop.halves_spread(),
        pass_cases_per_s=loop.pass_cases_per_s(),
        wall_s=loop.wall_s,
        wall_cases_per_s=len(loop.wall_durations) / sum(loop.wall_durations),
        reference_ms_median=statistics.median(loop.refs) * 1000,
        reference_ms_range=[min(loop.refs) * 1000, max(loop.refs) * 1000],
    )
    metrics = {
        "cases_per_s": loop.cases_per_s(),
        "case_ms_p50": statistics.median(loop.durations) * 1000,
        "case_ms_p90": p90 * 1000,
        "passed_share": (loop.attempted - loop.failed) / loop.attempted,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": _peak_rss_mb(cls),
    }
    return [loop], metrics


def per_layer(wl, cls, seconds, detail, spans_path):
    """Alternate untraced and traced passes over the pool for ``seconds``.

    The first traced pass gives the per-layer figures.  The tracing overhead
    is the median over the pairs of traced minus untraced cases/s, with the
    order inside a pair alternating so that drift in host speed cancels.
    """
    loops, gaps, tracer = [], [], None
    start = time.perf_counter()
    while not loops or time.perf_counter() - start < seconds:
        pair = {}
        for traced in (False, True) if len(gaps) % 2 == 0 else (True, False):
            pass_tracer = tracing.Tracer() if traced else contextlib.nullcontext()
            with pass_tracer:
                pair[traced] = measure.closed_loop(wl.cases, wl.replay, wl.output, 0)
            if traced and tracer is None:
                tracer = pass_tracer
            loops.append(pair[traced])
        gaps.append(pair[True].cases_per_s() - pair[False].cases_per_s())
    for loop in loops[1:]:
        if loop.digest != loops[0].digest:
            loop.record_failure("outputs differ from the first untraced pass")
    tracer.write_spans(spans_path)
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_s"] = wl.import_seconds() if cls is workloads.CliSession else 0.0
    metrics["trace.overhead_cases_per_s"] = statistics.median(gaps)
    detail.update(
        pairs=len(gaps),
        overhead_by_pair=gaps,
        spans=len(tracer.spans),
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return loops, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ilocal" / "__init__.py").is_file():
        print(f"error: no ilocal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(ROOT / "src"))

    out_dir = ROOT / ".perfbench"
    for sub in ("results", "spans", "tmp"):
        (out_dir / sub).mkdir(parents=True, exist_ok=True)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    cls = workloads.WORKLOADS[args.workload]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }
    with tempfile.TemporaryDirectory(dir=out_dir / "tmp") as workdir:
        wl, setup_samples = _setup(cls, args.seed, workdir)
        detail.update(pool_cases=len(wl.cases), setup_samples_s=setup_samples)
        gc.collect()
        if args.trace:
            loops, metrics = per_layer(
                wl, cls, args.seconds, detail, out_dir / "spans" / f"{stamp}.json.gz"
            )
        else:
            loops, metrics = end_to_end(wl, cls, args.seconds, setup_samples, detail)
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    detail.update(
        attempted_by_phase=[loop.attempted for loop in loops],
        failures=[msg for loop in loops for msg in loop.failures],
        digest=loops[0].digest,
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"detail": detail, "result": result}
    (out_dir / "results" / f"{stamp}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
