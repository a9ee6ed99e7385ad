"""The four benchmark workloads: seeded inputs, the timed call, and its oracle.

Each workload builds a fixed pool of cases from its seed; the closed loop
replays the pool in whole passes.  The size of every case comes from a
fixed ladder and only the contents are seeded, so every seed gives the same
mix of sizes and the figures of different seeds are comparable.

``run(case)`` is the timed call; it raises ``CheckFailed`` when the case's
oracle disagrees.  ``output(case, result)`` is untimed and returns the
canonical output bytes that the digest covers.  ``replay(case)`` is what the
traced run times; it is ``run`` except for ``cli_session``, whose traced run
replays the same argument lists in-process through ``cli.main``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

MODULES = ("complexes", "connected", "doubling", "expr", "homology", "render", "suite", "towers")


class CheckFailed(Exception):
    """A case's output disagrees with its oracle."""


def load_ilocal(with_cli: bool, fresh: bool) -> SimpleNamespace:
    """Import ilocal's modules (dropping loaded copies first when ``fresh``).

    The package re-exports functions named like its modules (``homology``,
    ``render``), so modules are taken from ``sys.modules``, not attributes.
    """
    if fresh:
        for name in [n for n in sys.modules if n == "ilocal" or n.startswith("ilocal.")]:
            del sys.modules[name]
    names = MODULES + (("cli",) if with_cli else ())
    return SimpleNamespace(**{m: importlib.import_module(f"ilocal.{m}") for m in names})


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _terms(rng: random.Random, n: int, max_index: int):
    """n non-cancelling signed terms: every index carries a single sign."""
    indices = [rng.randint(1, max_index) for _ in range(n)]
    sign_of = {i: rng.choice((1, -1)) for i in sorted(set(indices))}
    return tuple((sign_of[i], i) for i in indices)


class RepresentativeSweep:
    """Representative of a combination, then its homology."""

    name = "representative_sweep"
    sizes = tuple(range(10, 61))  # terms per combination, one case each
    max_index = 12

    def __init__(self, il, seed, workdir):
        self.il = il
        rng = random.Random(f"{self.name}:{seed}")
        self.cases = []
        for n in self.sizes:
            # a negative term costs two duals of the complex built so far, so
            # every case gets the same number of them, spread evenly over the
            # build: of each index pair (1, 2), (3, 4), ... one index is
            # positive and one negative, and each side's terms are dealt
            # round the pairs, the remainder to pairs picked by the seed
            pairs = [rng.sample((i, i + 1), 2) for i in range(1, self.max_index, 2)]
            terms = []
            for side, sign, count in ((0, 1, n // 2), (1, -1, n - n // 2)):
                extra = set(rng.sample(range(len(pairs)), count % len(pairs)))
                for k, pair in enumerate(pairs):
                    terms += [(sign, pair[side])] * (count // len(pairs) + (k in extra))
            self.cases.append(il.connected.LinearCombination(tuple(terms)))
        rng.shuffle(self.cases)
        self.replay = self.run

    def run(self, lc):
        il = self.il
        rep = il.connected.representative(lc)
        module = il.homology.homology(rep).module
        if len(rep) != 2 * len(lc) + 1:
            raise CheckFailed(f"{len(rep)} cells for {len(lc)} terms")
        if module.free_rank != 1:
            raise CheckFailed(f"free rank {module.free_rank}")
        if module.torsion() != il.connected.place_towers(lc):
            raise CheckFailed("torsion differs from the tower placement")
        return rep, module

    def output(self, lc, result):
        rep, module = result
        return _dumps(self.il.complexes.complex_to_json(rep)) + b"\n" + _dumps(module.to_json())


class TensorKunneth:
    """Naive tensor of k basis complexes, each dualised with probability 1/2."""

    name = "tensor_kunneth"
    # factors per case: 3^6, 3^7 and 3^8 cells.  The single 3^8 case is 5%
    # of the pool, so the 90th percentile falls among the 3^7 cases, not on
    # the step between two sizes.
    ladder = (6,) * 13 + (7,) * 6 + (8,)
    max_index = 8

    def __init__(self, il, seed, workdir):
        self.il = il
        rng = random.Random(f"{self.name}:{seed}")
        self.cases = []
        for k in self.ladder:
            picks = [(rng.randint(1, self.max_index), rng.random() < 0.5) for _ in range(k)]
            factors = []
            for i, dualised in picks:
                x = il.complexes.build_xi(i)
                factors.append(il.complexes.dual(x) if dualised else x)
            self.cases.append((tuple(factors), tuple(self._factor_module(i, d) for i, d in picks)))
        rng.shuffle(self.cases)
        self.replay = self.run

    def _factor_module(self, i, dualised):
        # H(X_i) is a free tower at 0 plus the tower a + Ja of length i at 0;
        # dualising negates the free top and reflects the torsion through 1/2
        tw = self.il.towers
        top = 2 * i - 1 if dualised else 0
        return tw.FUModule((tw.Tower(Fraction(0), tw.INFINITE), tw.Tower(Fraction(top), i)))

    def run(self, case):
        factors, modules = case
        il = self.il
        product = factors[0]
        for f in factors[1:]:
            product = il.complexes.tensor(product, f)
        got = il.homology.homology(product).module
        expected = modules[0]
        for m in modules[1:]:
            expected = il.towers.kunneth(expected, m)
        if got != expected:
            raise CheckFailed("product homology differs from the Kunneth formula")
        return got

    def output(self, case, module):
        return _dumps(module.canonical().to_json())


class LocalVerify:
    """Both local maps of a doubling, then the four local-equivalence checks."""

    name = "local_verify"
    max_cells = 10
    max_delta = 6
    # cases per complex size, about what 200 random complexes give; a complex
    # brings all its admissible deltas, and sizes stop taking complexes once
    # their quota is met, so the median and the 90th percentile fall inside
    # the 5- and 9-cell strata on every seed
    quota = {1: 130, 3: 115, 5: 110, 7: 65, 9: 120}

    def __init__(self, il, seed, workdir):
        self.il = il
        rng = random.Random(f"{self.name}:{seed}")
        st = il.suite
        filled = dict.fromkeys(self.quota, 0)
        self.cases = []
        while any(filled[k] < q for k, q in self.quota.items()):
            sc = st.random_split_complex(rng, max_cells=self.max_cells)
            if filled.get(len(sc), 0) >= self.quota.get(len(sc), 0):
                continue
            for delta in st.admissible_deltas(sc, cap=self.max_delta):
                self.cases.append((sc, delta, st.random_splitting(rng, sc)))
                filled[len(sc)] += 1
        self.replay = self.run

    def run(self, case):
        sc, delta, splitting = case
        db = self.il.doubling
        f = db.local_map_f(sc, delta, splitting)
        g = db.local_map_g(sc, delta, splitting)
        report = db.verify_local_pair(f, g)
        if not report.passed:
            raise CheckFailed(json.dumps(report.to_json()))
        return f, g, report

    def output(self, case, result):
        f, g, report = result

        def assignment(m):
            return {cid: sorted(map(list, terms)) for cid, terms in m.assignment.items()}

        return _dumps({
            "double": self.il.complexes.complex_to_json(f.source),
            "f": assignment(f),
            "g": assignment(g),
            "report": report.to_json(),
        })


class CliSession:
    """A seeded sequence of ``ilocal`` subcommands, each in a child process."""

    name = "cli_session"
    # (kind, terms per case); the kinds follow one another in a seeded order
    ladder = (
        [("build", n) for n in (10, 16, 22, 28, 34, 40)]
        + [("homology", n) for n in (10, 16, 22, 28)]
        + [(kind, n) for kind in ("connected", "decode", "sum", "ascii", "svg")
           for n in (10, 20, 30, 40)]
    )
    build_index = 12  # index bound where the command builds a representative
    module_index = 30  # index bound where it only places towers

    def __init__(self, il, seed, workdir):
        self.il = il
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"),
                        PYTHONIOENCODING="utf-8")
        self._expected = {}
        rng = random.Random(f"{self.name}:{seed}")
        self.cases = []
        for k, (kind, n) in enumerate(self.ladder):
            self.cases.append(tuple(self._argv(rng, kind, n, os.path.join(workdir, f"case{k}"))))
        rng.shuffle(self.cases)

    def _placed_class(self, rng, n):
        cn = self.il.connected
        d = Fraction(2 * rng.randint(-5, 5))
        lc = cn.LinearCombination(_terms(rng, n, self.module_index))
        return cn.hf_conn(lc, d).to_json(), str(d)

    def _argv(self, rng, kind, n, stem):
        if kind == "decode":
            module, d = self._placed_class(rng, n)
            return ["decode", "--file", _write(stem + ".json", module), "--d", d]
        if kind == "sum":
            argv = ["sum"]
            for part in "ab":
                module, d = self._placed_class(rng, n)
                argv += ["--file", _write(f"{stem}{part}.json", {"module": module, "d": d})]
            return argv
        builds = kind in ("build", "homology")
        expr = _expression(_terms(rng, n, self.build_index if builds else self.module_index))
        if builds:
            return [kind, "--expr", expr]
        d = str(2 * rng.randint(-5, 5))
        if kind == "connected":
            return ["connected", "--expr", expr, "--d", d]
        return ["render", "--expr", expr, "--d", d, "--format", kind]

    def run(self, argv):
        proc = subprocess.run(
            [sys.executable, "-m", "ilocal.cli", *argv],
            cwd=self.root, env=self.env, capture_output=True, timeout=60,
        )
        if proc.returncode != 0:
            raise CheckFailed(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-300:]}")
        return proc.stdout.decode("utf-8")

    def replay(self, argv):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.il.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        if code != 0:
            raise CheckFailed(f"exit {code}: {err.getvalue()[-300:]}")
        return out.getvalue()

    def output(self, argv, stdout):
        if argv not in self._expected:
            self._expected[argv] = self.replay(argv)
        if stdout != self._expected[argv]:
            raise CheckFailed(f"stdout of {argv[0]} differs from the in-process result")
        return stdout.encode("utf-8")

    def import_seconds(self, repeats=7) -> float:
        """Median child time of ``import ilocal.cli`` minus a bare interpreter start."""
        samples = {"pass": [], "import ilocal.cli": []}
        for _ in range(repeats):
            for code, times in samples.items():
                t0 = time.perf_counter()
                subprocess.run([sys.executable, "-c", code], cwd=self.root, env=self.env,
                               check=True, timeout=60)
                times.append(time.perf_counter() - t0)
        return statistics.median(samples["import ilocal.cli"]) - statistics.median(samples["pass"])


def _expression(terms) -> str:
    ordered = sorted(terms, key=lambda t: (-t[1], -t[0]))
    parts = []
    for pos, (sign, index) in enumerate(ordered):
        op = ("" if sign > 0 else "-") if pos == 0 else ("+ " if sign > 0 else "- ")
        parts.append(f"{op}X{index}")
    return " ".join(parts)


def _write(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


WORKLOADS = {w.name: w for w in (RepresentativeSweep, TensorKunneth, LocalVerify, CliSession)}
