"""Closed-loop timing of a workload's cases, and the statistics reported on it.

The host this runs on changes speed by up to a factor of two, in spells of
a fraction of a second to minutes, for every process alike.  So a fixed piece of
standard-library work, ``reference_work``, is timed between cases, and each
case time is scaled by how much slower than nominal the host ran the
reference work around it: reported times are those of a host that does the
reference work in ``NOMINAL_REF_S``.  The reference work touches no ilocal
code, so a change to ilocal moves the scaled times as it moves wall times.
"""

from __future__ import annotations

import bisect
import hashlib
import math
import statistics
import time
from fractions import Fraction

#: The tail percentile reported, and how many samples must lie beyond it.
TAIL_Q = 90
TAIL_BEYOND = 10

#: Seconds ``reference_work`` takes on the nominal host.
NOMINAL_REF_S = 0.007
#: Case seconds between two timings of the reference work.
REF_EVERY_S = 0.1
#: Reference timings on each side of a case that set its scale.
REF_WINDOW = 2


def reference_work(n: int = 1500):
    """Fixed pure-Python work like ilocal's: tuples, dicts, sets, fractions, sorting."""
    table = {}
    acc = Fraction(0)
    for i in range(n):
        key = (i % 97, i // 97, str(i))
        table[key] = [i, -i]
        acc += Fraction(i % 13, 1 + i % 7)
    ordered = sorted(table, key=lambda k: (k[0], -k[1]))
    return len(ordered), acc, len({k[0] for k in ordered})


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


def scale_to_nominal(durations, refs, ref_pos):
    """Scale each duration to the nominal host speed.

    ``refs[j]`` is a timing of the reference work taken after ``ref_pos[j]``
    durations (non-decreasing).  Duration i is scaled by NOMINAL_REF_S over
    the median of the REF_WINDOW timings before it and the REF_WINDOW after,
    so one disturbed timing does not move it.
    """
    scaled = []
    for i, d in enumerate(durations):
        a = bisect.bisect_right(ref_pos, i)  # first timing after duration i
        window = refs[max(0, a - REF_WINDOW):a + REF_WINDOW]
        scaled.append(d * NOMINAL_REF_S / statistics.median(window))
    return scaled


def min_samples(q: float = TAIL_Q, beyond: int = TAIL_BEYOND) -> int:
    """Fewest samples that leave ``beyond`` of them above the q-th percentile."""
    return math.ceil(beyond * 100 / (100 - q))


def percentile(values, q: float):
    """Nearest-rank q-th percentile and the number of samples above its rank."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def quartile_spread(values) -> float:
    """Distance between the first and third quartiles, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


class LoopResult:
    """Per-case timings and outcomes of one closed-loop run."""

    def __init__(self):
        self.durations = []  # seconds per attempted case at nominal host speed, in order
        self.wall_durations = []  # the same cases' wall-clock seconds
        self.refs = []  # timings of the reference work
        self.pass_ends = []  # len(durations) at the end of each full pass
        self.failed = 0
        self.failures = []  # first few failure messages
        self.digest = None  # sha256 over the first pass's outputs
        self.wall_s = 0.0

    @property
    def attempted(self) -> int:
        return len(self.wall_durations)

    def cases_per_s(self, lo: int = 0, hi: int = None) -> float:
        window = self.durations[lo:hi]
        return len(window) / sum(window)

    def pass_cases_per_s(self):
        bounds = [0] + self.pass_ends
        return [self.cases_per_s(a, b) for a, b in zip(bounds, bounds[1:])]

    def halves_spread(self):
        """Gap in cases/s between the first and second half of the full passes,
        as a share of their mean; None with fewer than two passes."""
        if len(self.pass_ends) < 2:
            return None
        cut = self.pass_ends[len(self.pass_ends) // 2 - 1]
        a = self.cases_per_s(0, cut)
        b = self.cases_per_s(cut, self.pass_ends[-1])
        return abs(a - b) / ((a + b) / 2)

    def record_failure(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(message)


def closed_loop(cases, run, output, seconds, min_cases=0, cap_s=150.0) -> LoopResult:
    """One client, one case at a time, whole passes over ``cases``.

    ``run(case)`` is timed and raises when the case's oracle check fails;
    ``output(case, result)`` is untimed and returns the case's canonical
    output bytes (raising on a mismatch it detects).  A case whose output
    differs from its first-pass output also fails.  Passes repeat until
    ``seconds`` have elapsed and ``min_cases`` were attempted, or until
    ``cap_s``.  Failures are counted, never raised.  The reference work is
    timed before the first case, after the last, and between cases once
    REF_EVERY_S of case time has passed since its last timing.
    """
    res = LoopResult()
    first = []
    digest = hashlib.sha256()
    clock = time.perf_counter
    durations, ref_pos = res.wall_durations, []
    since_ref = REF_EVERY_S
    start = clock()
    while True:
        for i, case in enumerate(cases):
            if since_ref >= REF_EVERY_S:
                res.refs.append(time_reference())
                ref_pos.append(len(durations))
                since_ref = 0.0
            t0 = clock()
            try:
                result = run(case)
                error = None
            except Exception as exc:  # noqa: BLE001 - a failed case, counted below
                error = exc
            durations.append(clock() - t0)
            since_ref += durations[-1]
            out = b""
            if error is None:
                try:
                    out = hashlib.sha256(output(case, result)).digest()
                except Exception as exc:  # noqa: BLE001 - a failed case, counted below
                    error = exc
            if error is not None:
                res.record_failure(f"case {i}: {type(error).__name__}: {error}")
            if not res.pass_ends:
                first.append(out)
                digest.update(out if error is None else b"failed")
            elif error is None and out != first[i]:
                res.record_failure(f"case {i}: output differs from the first pass")
            if clock() - start >= cap_s:
                break
        else:
            res.pass_ends.append(len(durations))
            if clock() - start >= seconds and len(durations) >= min_cases:
                break
            continue
        break
    res.refs.append(time_reference())
    ref_pos.append(len(durations))
    res.durations = scale_to_nominal(durations, res.refs, ref_pos)
    res.wall_s = clock() - start
    res.digest = digest.hexdigest()
    return res
