"""Tests of the benchmark's own helpers: statistics, span tracing, the loop."""

import inspect
import json
import math
import random
from pathlib import Path

import pytest

import measure
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _span(name, start, end, parent, size=None):
    return [name, start, end, parent, size]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("a", 0.0, 10.0, -1),
        _span("b", 1.0, 4.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("b", 5.0, 7.0, 0),
        _span("a", 20.0, 21.0, -1),
    ]
    stats = tracing.layer_stats(spans)
    assert stats["a"]["calls"] == 2
    assert stats["a"]["total_s"] == pytest.approx(11.0)
    assert stats["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 2.0 + 1.0)
    assert stats["b"]["self_s"] == pytest.approx(3.0 - 1.0 + 2.0)
    assert stats["c"]["self_s"] == pytest.approx(1.0)
    total_self = sum(s["self_s"] for s in stats.values())
    assert total_self == pytest.approx(10.0 + 1.0)  # the two root spans


def test_loglog_slope_recovers_the_power():
    samples = [(n, 3e-6 * n**2.5) for n in (10, 20, 40, 80, 80)]
    assert tracing.loglog_slope(samples) == pytest.approx(2.5)
    assert tracing.loglog_slope([(10, 1.0), (10, 2.0)]) is None
    assert tracing.loglog_slope([]) is None


def test_percentile_keeps_ten_samples_beyond_it():
    assert measure.min_samples() == 100
    values = list(range(100))
    random.Random(0).shuffle(values)
    assert measure.percentile(values, 90) == (89, 10)
    assert measure.percentile(list(range(99)), 90)[1] == 9
    assert measure.percentile(list(range(250)), 90) == (224, 25)
    assert measure.percentile([7.0], 50) == (7.0, 0)


def test_quartile_spread_is_a_share_of_the_median():
    assert measure.quartile_spread([10.0] * 10) == 0.0
    values = [9.0, 10.0, 10.0, 11.0]
    q1, median, q3 = 9.25, 10.0, 10.75
    assert measure.quartile_spread(values) == pytest.approx((q3 - q1) / median)


def test_scaling_uses_the_median_reference_timing_around_each_case():
    nominal = measure.NOMINAL_REF_S
    # five timings: before case 0, after cases 0, 1 and 2, and a disturbed one at the end
    refs = [nominal, nominal, 2 * nominal, 2 * nominal, 50 * nominal]
    ref_pos = [0, 1, 2, 3, 3]
    scaled = measure.scale_to_nominal([1.0, 1.0, 1.0], refs, ref_pos)
    assert scaled[0] == pytest.approx(1.0)  # median of refs[0:3]
    assert scaled[1] == pytest.approx(1.0 / 1.5)  # median of refs[0:4]
    assert scaled[2] == pytest.approx(1.0 / 2.0)  # median of refs[1:5]; the 50x timing is outvoted
    loop = measure.closed_loop([1, 2], lambda c: c, lambda c, r: b"", seconds=0.0, min_cases=4)
    assert len(loop.durations) == len(loop.wall_durations) == 4
    assert len(loop.refs) >= 2


def test_failed_checks_are_counted_and_the_loop_goes_on():
    def run(case):
        if case % 3 == 0:
            raise workloads.CheckFailed(f"case {case}")
        return case

    def output(case, result):
        if case == 4:
            raise ValueError("bad output")
        return str(result).encode()

    loop = measure.closed_loop(list(range(10)), run, output, seconds=0.0, min_cases=25)
    assert loop.attempted == 30  # three whole passes
    assert len(loop.pass_ends) == 3
    assert loop.failed == 3 * 5  # cases 0, 3, 6, 9 fail in run, case 4 in output
    assert len(loop.failures) == 5
    assert (loop.attempted - loop.failed) / loop.attempted == pytest.approx(0.5)


def test_output_that_changes_between_passes_fails():
    calls = {"n": 0}

    def output(case, result):
        calls["n"] += 1
        return b"first" if calls["n"] <= 2 else b"later"

    loop = measure.closed_loop([1, 2], lambda c: c, output, seconds=0.0, min_cases=4)
    assert loop.attempted == 4
    assert loop.failed == 2
    assert "differs from the first pass" in loop.failures[0]


def _ilocal_names():
    """Every attribute of every loaded ilocal module and of its classes."""
    import ilocal.cli  # noqa: F401 - cli holds copies of homology and render

    names = {}
    for mod_name, mod in tracing.ilocal_modules().items():
        for key, value in vars(mod).items():
            names[(mod_name, key)] = value
            if inspect.isclass(value) and value.__module__.startswith("ilocal"):
                for attr, member in vars(value).items():
                    names[(mod_name, key, attr)] = member
    return names


# call sites that hold a copy of a traced function through ``from .x import y``
COPIED_CALL_SITES = (
    ("connected", "double"),
    ("connected", "dual"),
    ("doubling", "homology"),
    ("doubling", "compose"),
    ("doubling", "is_u_localized_iso"),
    ("doubling", "tensor"),
    ("doubling", "decompose"),
    ("suite", "homology"),
    ("cli", "homology"),
    ("cli", "render"),
)


def test_tracer_reaches_copied_call_sites_and_restores_every_name():
    before = _ilocal_names()
    il = workloads.load_ilocal(with_cli=True, fresh=False)
    lc = il.connected.LinearCombination(((1, 3), (-1, 2), (1, 1)))
    tracer = tracing.Tracer()
    with tracer:
        for module, attr in COPIED_CALL_SITES:
            assert getattr(getattr(il, module), attr) is not before[(f"ilocal.{module}", attr)]
        il.homology.homology(il.connected.representative(lc))
    after = _ilocal_names()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    stats = tracing.layer_stats(tracer.spans)
    assert stats["connected.representative"]["calls"] == 1
    assert stats["doubling.double"]["calls"] == 3
    assert stats["complexes.dual"]["calls"] == 2
    assert stats["homology.homology"]["sized"][0][0] == 7


def test_tracer_restores_after_an_exception():
    before = _ilocal_names()
    with pytest.raises(RuntimeError):
        with tracing.Tracer():
            raise RuntimeError("boom")
    after = _ilocal_names()
    assert all(after[k] is before[k] for k in before)


def test_every_declared_per_layer_metric_is_produced(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    il = workloads.load_ilocal(with_cli=True, fresh=False)
    tracer = tracing.Tracer()
    with tracer:
        for cls in workloads.WORKLOADS.values():
            wl = cls(il, 1, str(tmp_path))
            for case in wl.cases[:2]:
                wl.output(case, wl.replay(case))
    metrics = tracing.layer_metrics(tracer)
    metrics.update({"cli.import_s": 0.0, "trace.overhead_cases_per_s": 0.0})
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in metrics]
    assert not missing
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["homology.chain_witness.per_verify"] == 4.0
