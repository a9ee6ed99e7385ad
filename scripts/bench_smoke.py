"""Benchmark smoke runs: pinned seed-1 output digests and traced call counts.

Runs ``perfbench/run.py`` at seed 1 for 3 s per run, once per workload, and
checks in every run that no case failed and that the sha256 over the outputs
of the first untraced pass equals the pinned digest (it depends neither on
``--seconds``, nor on tracing, nor on the checkout or work directory).  Only
``cli_session`` runs untraced; the other three runs are traced and also check

* ``representative_sweep``: double and dual are called, and only the trivial
  start of each case is validated (one ``GeometricComplex`` and one
  ``SplitComplex`` construction per pool case);
* ``local_verify``: one double, one tensor and one decompose per pool case,
  two homology calls per case and no ``induced_map`` (the U-localized check
  is decided at U = 1 on the two reductions), and four chain-witness reads
  per verify;
* ``tensor_kunneth``: one homology per pool case and all 108 tensors of the
  20-case pool built, since homology and Kunneth are never memoised across
  cases.

Standard library only; run from anywhere:

    python3 scripts/bench_smoke.py

Each run's two result lines are printed; the exit status is 1 if any check
failed, with one line per failing run.
"""

from __future__ import annotations

import gzip
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PINNED = {
    "representative_sweep": "7a1699e04aa1369aca0f68fa4037aa2ed1384deaca926da1a6dd407b067a66a9",
    "tensor_kunneth": "315801e6a90c2ab0c8dd0426cf403b02c8eaf63ea58b13328e6e28254c160b23",
    "local_verify": "8c03f056b6cf0e9441e680930a172e017ee83b9ac096aea074f18afc4392bc4b",
    "cli_session": "1f539f3eb60c5750bf0f756fd131eb8aaf4dde6b86db14edcc71046621237db6",
}


def run(workload: str, trace: int):
    """The detail and result records of one 3 s run at seed 1."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "3", "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    detail, result = out.splitlines()[-2:]
    print(detail, result, sep="\n", flush=True)
    return json.loads(detail)["detail"], json.loads(result)


def representative_sweep_off(detail, r):
    pool = detail["pool_cases"]
    value = lambda name: r["metrics"][name]["value"]
    zero = [name for name in ("doubling.double.calls", "complexes.dual.calls") if value(name) == 0]
    # dual and double derive valid complexes; only the trivial start is validated
    constructors = ("complexes.GeometricComplex.calls", "complexes.SplitComplex.calls")
    off = {name: value(name) for name in constructors if value(name) != pool}
    if zero or off:
        return f"layers that read 0: {zero}; pool cases: {pool}; constructor calls off that count: {off}"
    return None


def local_verify_off(detail, r):
    pool = detail["pool_cases"]
    # the result lists only BENCHMARK.json's per-layer metrics; induced_map's
    # calls are counted in the spans of the traced pass that gave them
    with gzip.open(ROOT / detail["spans_file"], "rt", encoding="utf-8") as fh:
        spans = json.load(fh)["spans"]
    value = {name: m["value"] for name, m in r["metrics"].items()}
    value["homology.induced_map.calls"] = sum(s[0] == "homology.induced_map" for s in spans)
    want = dict.fromkeys(
        ("doubling.double.calls", "complexes.tensor.calls", "complexes.decompose.calls"), pool)
    # the U-localized check reads the two reductions at U = 1, with no induced map
    want.update({"homology.induced_map.calls": 0, "homology.homology.calls": 2 * pool,
                 "homology.chain_witness.per_verify": 4.0})
    off = {name: value[name] for name, n in want.items() if value[name] != n}
    return f"pool cases: {pool}; calls off that count: {off}" if off else None


def tensor_kunneth_off(detail, r):
    pool = detail["pool_cases"]
    value = lambda name: r["metrics"][name]["value"]
    # homology and Kunneth are computed afresh in every case, never memoised
    # across cases: one homology per case, and the 108 tensors of the seed-1
    # pool (20 cases of 6 to 8 factors) are all built
    want = {"homology.homology.calls": pool, "complexes.tensor.calls": 108}
    off = {name: value(name) for name, n in want.items() if value(name) != n}
    return f"pool cases: {pool}; calls off: {off}" if pool != 20 or off else None


# the traced runs and the check of their call counts; a workload not named
# here runs untraced
TRACED = {
    "representative_sweep": representative_sweep_off,
    "local_verify": local_verify_off,
    "tensor_kunneth": tensor_kunneth_off,
}


def main() -> int:
    failures = []
    for workload, pinned in PINNED.items():
        check = TRACED.get(workload)
        detail, r = run(workload, int(check is not None))
        problems = [f"failed cases: {r['failed']}"] if r["failed"] != 0 else []
        if detail["digest"] != pinned:
            problems.append(f"output digest {detail['digest']}, pinned {pinned}")
        off = check and check(detail, r)
        if off:
            problems.append(off)
        if problems:
            traced = "traced" if check else "untraced"
            failures.append(f"{workload} {traced}: {'; '.join(problems)}")
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
