"""Seeded randomized verification suites and the generators backing them.

Each structural identity is stated once, as a ``check_*`` function that
returns ``None`` or a JSON-able witness dict; the acceptance and property
tests call the same functions on their own corpora.  ``_SUITES`` pairs each
check with a draw that yields its cases from a ``random.Random`` seeded
once per suite.  A clean run is the expected outcome, so any failure
indicates a bug in the operations (or a deliberately mutated one under
test).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Dict, List, Optional

from . import complexes as cx
from . import connected as cn
from . import doubling as db
from . import towers as tw
from .homology import _reduce, homology

# -- random objects -------------------------------------------------------


def random_combination(
    rng: random.Random, max_terms: int, max_index: int, allow_cancelling: bool = False
) -> cn.LinearCombination:
    n = rng.randint(0, max_terms)
    indices = [rng.randint(1, max_index) for _ in range(n)]
    if allow_cancelling:
        terms = [(rng.choice((1, -1)), i) for i in indices]
    else:
        sign_of = {i: rng.choice((1, -1)) for i in set(indices)}
        terms = [(sign_of[i], i) for i in indices]
    return cn.LinearCombination(tuple(terms))


def random_even_d(rng: random.Random, lo: int = -10, hi: int = 10) -> Fraction:
    return Fraction(2 * rng.randint(lo // 2, hi // 2))


def random_geometric_complex(rng: random.Random, max_cells: int = 12) -> cx.GeometricComplex:
    """A random valid complex grown cell by cell; every boundary is a cycle."""
    n0 = rng.randint(1, 3)
    cells = [cx.Cell(f"c{k}", 0, Fraction(2 * rng.randint(-3, 3))) for k in range(n0)]
    bdry: Dict[str, frozenset] = {}
    budget = rng.randint(n0, max_cells)
    k = n0
    while k < budget:
        base_dim = rng.choice(sorted({c.dim for c in cells}))
        layer = [c for c in cells if c.dim == base_dim]
        lower = [c for c in cells if c.dim == base_dim - 1]
        lpos = {c.id: i for i, c in enumerate(lower)}
        cols = [sum(1 << lpos[t] for t in bdry.get(c.id, ())) for c in layer]
        R, V, _ = _reduce(cols.__getitem__, range(len(cols)))
        cycles = [v for r, v in zip(R, V) if not r]
        if cycles and rng.random() < 0.8:
            combo = 0
            for v in cycles:
                if rng.random() < 0.5:
                    combo ^= v
            if not combo:
                combo = rng.choice(cycles)
            support = {layer[i].id for i in range(len(layer)) if combo >> i & 1}
        else:
            support = set()
        if support:
            gr_of = {c.id: c.gr for c in layer}
            gr = min(gr_of[cid] for cid in support) - 2 * rng.randint(0, 3)
        else:
            gr = Fraction(2 * rng.randint(-5, 2))
        cells.append(cx.Cell(f"c{k}", base_dim + 1, gr))
        bdry[f"c{k}"] = frozenset(support)
        k += 1
    offset = Fraction(0)
    if rng.random() < 0.25:
        offset = Fraction(rng.randint(1, 3), rng.choice((1, 2, 3)))
    if offset:
        cells = [cx.Cell(c.id, c.dim, c.gr + offset) for c in cells]
    return cx.GeometricComplex(cells, bdry)


def _regrade(rng: random.Random, sc: cx.SplitComplex) -> cx.SplitComplex:
    """Remap the grading levels monotonically; shape and J are untouched."""
    levels = sorted({c.gr for c in sc.cells.values()}, reverse=True)
    new = {}
    cur = Fraction(2 * rng.randint(-2, 2))
    for lv in levels:
        new[lv] = cur
        cur -= 2 * rng.randint(1, 3)
    offset = Fraction(0)
    if rng.random() < 0.25:
        offset = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
    cells = [cx.Cell(c.id, c.dim, new[c.gr] + offset) for c in sc.cells.values()]
    return cx.SplitComplex(cx.GeometricComplex(cells, sc.bdry), sc.J)


def random_split_complex(rng: random.Random, max_cells: int = 10) -> cx.SplitComplex:
    """A random split complex with free rank one, built from verified ops."""
    seed_kind = rng.randrange(3)
    if seed_kind == 0:
        s = cx.build_trivial()
    elif seed_kind == 1:
        s = cx.build_xi(rng.randint(1, 4))
    else:
        x = rng.randint(1, 2)
        s = cx.build_misordered(x, x + rng.randint(1, 2))
    for _ in range(rng.randint(0, 4)):
        ops = ["dual"]
        if len(s) + 2 <= max_cells:
            ops.append("double")
        if len(s) * 3 <= max_cells:
            ops.append("tensor")
        op = rng.choice(ops)
        if op == "dual":
            s = cx.dual(s)
        elif op == "double":
            delta = rng.randint(0, admissible_deltas(s, cap=4)[-1])
            s = db.double(s, delta, random_splitting(rng, s)).complex
        else:
            s = cx.tensor(s, cx.build_xi(rng.randint(1, 3)))
    if rng.random() < 0.7:
        s = _regrade(rng, s)
    return s


def random_splitting(rng: random.Random, sc: cx.SplitComplex) -> frozenset:
    return frozenset(rng.choice(pair) for pair in sc.pairs())


def admissible_deltas(sc: cx.SplitComplex, cap: int = 6) -> range:
    """All doubling parameters to probe; capped when the width is infinite."""
    w = sc.width()
    top = cap if w == tw.INFINITE else min(cap, int(w) // 2)
    return range(0, top + 1)


# -- the suites -----------------------------------------------------------


#: Largest ``max_cells`` the CLI accepts.  A kunneth case reduces the tensor
#: of two complexes of up to this many cells: at 200, a 199 x 198-cell
#: product (39,402 cells) took 0.7 s and raised peak RSS by 134 MB, and
#: memory grows with the square of the product's cell count.
MAX_CELLS = 200


@dataclass(frozen=True)
class SuiteConfig:
    kunneth_cases: int = 25
    doubling_cases: int = 25
    local_cases: int = 10
    representative_cases: int = 40
    roundtrip_cases: int = 150
    duality_cases: int = 25
    max_terms: int = 4
    max_index: int = 6
    max_cells: int = 10


@dataclass
class SuiteResult:
    name: str
    cases: int = 0
    failures: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures


@dataclass
class SuiteReport:
    seed: int
    results: List[SuiteResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "passed": self.passed,
            "suites": [
                {"name": r.name, "cases": r.cases, "failures": r.failures}
                for r in self.results
            ],
        }


def _module_str(m: tw.FUModule) -> str:
    parts = []
    for t in m.canonical():
        length = "inf" if t.is_free else str(t.length)
        parts.append(f"T[{t.top}]({length})")
    return " + ".join(parts) if parts else "0"


def _guarded(result: SuiteResult, case: dict, check, args: tuple) -> None:
    """Run one case; any exception or mismatch becomes a counterexample."""
    result.cases += 1
    try:
        failure = check(*args)
    except Exception as exc:  # noqa: BLE001 - reported as a counterexample
        failure = {"error": f"{type(exc).__name__}: {exc}"}
    if failure:
        result.failures.append({**case, **failure})


# -- the checks; each returns None or a witness dict ----------------------


def check_kunneth(c1: cx.GeometricComplex, c2: cx.GeometricComplex) -> Optional[dict]:
    """The homology of a tensor product is the Kunneth product of the factors'."""
    lhs = homology(cx.tensor(c1, c2)).module
    rhs = tw.kunneth(homology(c1).module, homology(c2).module)
    if lhs != rhs:
        return {"tensor_homology": _module_str(lhs), "kunneth": _module_str(rhs)}
    return None


def check_doubling_homology(
    sc: cx.SplitComplex, delta: int, splitting: Optional[frozenset] = None
) -> Optional[dict]:
    """Doubling by delta > 0 adds the one tower T_{M(eta)}(delta) to the homology.

    The double must be a complex first: ``homology`` is defined only where
    bdry o bdry = 0.
    """
    double = db.double(sc, delta, splitting).complex
    error = cx._bdry_squared_error(double.ids(), double.bdry)
    if error:
        return {"reason": error}
    base = homology(sc).module
    got = homology(double).module
    extra = (tw.Tower(sc.maslov(sc.fixed), delta),) if delta > 0 else ()
    expected = tw.FUModule(base.towers + extra)
    if got != expected:
        return {"expected": _module_str(expected), "got": _module_str(got)}
    return None


def check_local_pair(
    sc: cx.SplitComplex, delta: int, splitting: Optional[frozenset] = None
) -> Optional[dict]:
    """The local maps between the double and the tensor with X_delta pass every check."""
    f = db.local_map_f(sc, delta, splitting)
    g = db.local_map_g(sc, delta, splitting)
    report = db.verify_local_pair(f, g)
    return None if report.passed else {"report": report.to_json()}


def check_representative(lc: cn.LinearCombination) -> Optional[dict]:
    """The representative's torsion is the tower placement of the combination."""
    got = homology(cn.representative(lc)).module.torsion()
    expected = cn.place_towers(lc)
    if got != expected:
        return {"expected": _module_str(expected), "got": _module_str(got)}
    return None


def check_decode_roundtrip(lc: cn.LinearCombination, d: Fraction) -> Optional[dict]:
    """Decoding the connected module placed with correction term d gives lc back."""
    back = cn.decode(cn.hf_conn(lc, d), d)
    return None if back == lc else {"decoded": back.to_json()}


def check_duality(c: cx.GeometricComplex) -> Optional[dict]:
    """Dualizing reflects the torsion, negates the free tops and keeps the width."""
    dc = cx.dual(c)
    h = homology(c).module
    hd = homology(dc).module
    ok = (
        hd.torsion() == tw.reflect(h.torsion())
        and dc.width() == c.width()
        and sorted(-t.top for t in h.free_towers) == sorted(t.top for t in hd.free_towers)
    )
    if not ok:
        return {"homology": _module_str(h), "dual_homology": _module_str(hd)}
    return None


# -- the seeded draws; each yields (case JSON, check arguments) for one draw


def _draw_kunneth(rng, config):
    c1 = random_geometric_complex(rng, config.max_cells)
    c2 = random_geometric_complex(rng, config.max_cells)
    yield {"left": cx.complex_to_json(c1), "right": cx.complex_to_json(c2)}, (c1, c2)


def _draw_split(rng, config, cap: int):
    """One split complex, a case for each of its doubling parameters up to cap."""
    sc = random_split_complex(rng, config.max_cells)
    for delta in admissible_deltas(sc, cap=cap):
        splitting = random_splitting(rng, sc)
        yield {"complex": cx.complex_to_json(sc), "delta": delta}, (sc, delta, splitting)


def _draw_representative(rng, config):
    cancelling = rng.random() < 0.3
    lc = random_combination(rng, config.max_terms, config.max_index, allow_cancelling=cancelling)
    yield {"combination": lc.to_json()}, (lc,)


def _draw_roundtrip(rng, config):
    lc = random_combination(rng, config.max_terms, config.max_index)
    d = random_even_d(rng)
    yield {"combination": lc.to_json(), "d": str(d)}, (lc, d)


def _draw_duality(rng, config):
    c = random_geometric_complex(rng, config.max_cells)
    yield {"complex": cx.complex_to_json(c)}, (c,)


#: (suite name, SuiteConfig field counting its draws, draw, check), in report order
_SUITES = (
    ("kunneth", "kunneth_cases", _draw_kunneth, check_kunneth),
    ("doubling_homology", "doubling_cases", partial(_draw_split, cap=4), check_doubling_homology),
    ("local_equivalence", "local_cases", partial(_draw_split, cap=3), check_local_pair),
    ("representative_match", "representative_cases", _draw_representative, check_representative),
    ("decode_roundtrip", "roundtrip_cases", _draw_roundtrip, check_decode_roundtrip),
    ("duality_reflection", "duality_cases", _draw_duality, check_duality),
)


def run_suite(seed: int, config: Optional[SuiteConfig] = None) -> SuiteReport:
    """Run every randomized suite from one seed; failures carry witnesses."""
    config = config or SuiteConfig()
    results = []
    for name, count, draw, check in _SUITES:
        rng = random.Random(f"{seed}:{name}")
        result = SuiteResult(name)
        for _ in range(getattr(config, count)):
            for case, args in draw(rng, config):
                _guarded(result, case, check, args)
        results.append(result)
    return SuiteReport(seed, results)
