"""Finite F2 skeleta with grading data, and the basic complexes built on them.

A geometric complex is a finite collection of cells, each carrying a
dimensional grading ``dim`` and a rational grading ``gr``; the boundary
relation has degree -1 in ``dim``, never decreases ``gr``, and all gaps are
even.  The derived free F2[U]-complex has differential

    d(e) = sum over e' in bdry(e) of U^((gr(e') - gr(e)) / 2) e'

and Maslov grading M(e) = gr(e) + dim(e) (U has Maslov degree -2 and
dimensional degree 0).  All ``gr`` values lie in one coset of 2Z in Q,
represented by ``tau``.  The skeleton is not required to come from an
actual cell complex: any degree -1 differential over F2 is allowed, which
keeps the class closed under dualization.

Because every ``gr`` lies in ``tau + 2Z``, all gradings of a validated
complex share the reduced denominator ``q`` of ``tau = p/q``, and
``gr - tau`` lies in 2Z exactly when ``gr.denominator == q`` and
``gr.numerator - p`` is divisible by 2q.  Validation checks this once; after
it, grading comparisons and gaps are exact integer operations on the
numerators.  The width (the minimal boundary gap) is recorded by the same
validation pass and stored, since complexes never change after
construction.

A split complex is a geometric complex with a cell-level involution J
commuting with the boundary and fixing exactly one cell, so every operation
here accepts either kind.  It is built from an already validated geometric
complex and reuses that validation: it takes over the cells, boundary and
grading data and checks only J.  Instances are immutable; every operation
here returns a fresh, fully validated complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Tuple, Union

from .errors import InvalidComplex, NotSplit
from .towers import INFINITE, Grading, grading_from_json, grading_to_str

#: An F2 chain in a skeleton: the set of cells with coefficient 1.
Chain = FrozenSet[str]

TENSOR_SEP = "⊗"  # the id of a product cell is "left⊗right"


@dataclass(frozen=True)
class Cell:
    id: str
    dim: int
    gr: Grading

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise InvalidComplex(f"cell id must be a non-empty string, got {self.id!r}")
        if not isinstance(self.dim, int):
            raise InvalidComplex(f"cell {self.id!r} has non-integer dimension {self.dim!r}")
        if type(self.gr) is not Fraction:
            object.__setattr__(self, "gr", Fraction(self.gr))

    @property
    def maslov(self) -> Grading:
        return self.gr + self.dim


class GeometricComplex:
    """Skeleton plus grading function; see the module docstring."""

    def __init__(self, cells: Iterable[Cell], bdry: Mapping[str, Iterable[str]],
                 tau: Grading = None):
        cell_list = tuple(cells)
        self.cells: Dict[str, Cell] = {}
        for c in cell_list:
            if c.id in self.cells:
                raise InvalidComplex(f"duplicate cell id {c.id!r}")
            self.cells[c.id] = c
        self.bdry: Dict[str, Chain] = {}
        for cid, targets in dict(bdry).items():
            if cid not in self.cells:
                raise InvalidComplex(f"bdry source {cid!r} is not a cell")
            self.bdry[cid] = frozenset(targets)
        for cid in self.cells:
            self.bdry.setdefault(cid, frozenset())
        if tau is None:
            tau = next(iter(self.cells.values())).gr if self.cells else Fraction(0)
        self.tau = Fraction(tau) % 2
        self._validate()

    def _validate(self):
        # every gr shares tau's reduced denominator q (see the module
        # docstring), so the checks below compare integer numerators
        p, q = self.tau.numerator, self.tau.denominator
        cells, bdry = self.cells, self.bdry
        num: Dict[str, int] = {}
        for cid, c in cells.items():
            gr = c.gr
            if gr.denominator != q or (gr.numerator - p) % (2 * q):
                raise InvalidComplex(
                    f"cell {cid!r} has gr {gr} outside the coset tau={self.tau} + 2Z"
                )
            num[cid] = gr.numerator
        min_gap = None
        for cid, targets in bdry.items():
            e_dim, e_num = cells[cid].dim - 1, num[cid]
            for tid in targets:
                t = cells.get(tid)
                if t is None:
                    raise InvalidComplex(f"boundary of {cid!r} mentions unknown cell {tid!r}")
                if t.dim != e_dim:
                    raise InvalidComplex(
                        f"boundary pair ({cid!r}, {tid!r}) is not of dimensional degree -1"
                    )
                gap = num[tid] - e_num
                if gap < 0:
                    raise InvalidComplex(
                        f"grading decreases along boundary pair ({cid!r}, {tid!r})"
                    )
                if min_gap is None or gap < min_gap:
                    min_gap = gap
        # bdry o bdry = 0 over F2
        for cid in cells:
            acc: Chain = frozenset()
            for tid in bdry[cid]:
                acc ^= bdry[tid]
            if acc:
                raise InvalidComplex(
                    f"bdry^2 is nonzero at cell {cid!r} (hits {sorted(acc)})"
                )
        self._num = num
        self._width = INFINITE if min_gap is None else min_gap // q

    # -- basic accessors ------------------------------------------------

    def ids(self) -> Tuple[str, ...]:
        return tuple(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, cid: str) -> bool:
        return cid in self.cells

    def cell(self, cid: str) -> Cell:
        return self.cells[cid]

    def maslov(self, cid: str) -> Grading:
        return self.cells[cid].maslov

    def max_dim(self) -> int:
        return max((c.dim for c in self.cells.values()), default=0)

    def u_exponent(self, src: str, tgt: str) -> int:
        """U-power on ``tgt`` in the derived differential of ``src``."""
        gap = self._num[tgt] - self._num[src]  # q times the grading gap
        two_q = 2 * self.tau.denominator
        if gap < 0 or gap % two_q:
            raise InvalidComplex(f"invalid grading gap on boundary pair ({src!r}, {tgt!r})")
        return gap // two_q

    def fu_bdry(self, cid: str) -> Dict[str, int]:
        """Derived F2[U]-differential of a cell as {target: U-exponent}."""
        return {tid: self.u_exponent(cid, tid) for tid in self.bdry[cid]}

    def width(self) -> Union[int, float]:
        """Twice the minimal U-exponent in the differential; INFINITE if d = 0."""
        return self._width


class SplitComplex(GeometricComplex):
    """A geometric complex with an involution J having exactly one fixed cell.

    The cells, boundary and grading data are taken over from ``base``, which
    its own construction has already validated; only J is checked here.
    """

    def __init__(self, base: GeometricComplex, J: Mapping[str, str]):
        self.cells, self.bdry, self.tau = base.cells, base.bdry, base.tau
        self._num, self._width = base._num, base._width
        self.J = dict(J)
        cells, num = self.cells, self._num
        if set(self.J) != set(cells):
            raise NotSplit("J must be defined on exactly the cells of the complex")
        fixed = []
        for cid, jid in self.J.items():
            if jid not in cells:
                raise NotSplit(f"J sends {cid!r} to unknown cell {jid!r}")
            if self.J[jid] != cid:
                raise NotSplit(f"J is not an involution on the pair ({cid!r}, {jid!r})")
            # gradings of the validated base share one denominator
            if (cells[cid].dim, num[cid]) != (cells[jid].dim, num[jid]):
                raise NotSplit(f"J does not preserve the gradings of ({cid!r}, {jid!r})")
            if jid == cid:
                fixed.append(cid)
        if len(fixed) != 1:
            raise NotSplit(f"exactly one J-fixed cell required, found {sorted(fixed)}")
        self.fixed = fixed[0]
        for cid in cells:
            image = frozenset(map(self.J.__getitem__, self.bdry[cid]))
            if image != self.bdry[self.J[cid]]:
                raise NotSplit(f"J does not commute with bdry at cell {cid!r}")

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """The two-element J-orbits, each reported once as (min, max)."""
        for cid, jid in self.J.items():
            if cid < jid:
                yield cid, jid


#: Every split complex is a geometric complex; the name is kept for callers.
AnyComplex = GeometricComplex


def width(c: AnyComplex) -> Union[int, float]:
    return c.width()


# -- splittings ---------------------------------------------------------


def canonical_splitting(sc: SplitComplex) -> FrozenSet[str]:
    """Lexicographically smallest member of each J-orbit pair."""
    return frozenset(a for a, _ in sc.pairs())


def validate_splitting(sc: SplitComplex, chosen: Iterable[str]) -> FrozenSet[str]:
    chosen = frozenset(chosen)
    if sc.fixed in chosen:
        raise ValueError("a splitting never contains the fixed cell")
    for cid in chosen:
        if cid not in sc:
            raise ValueError(f"splitting mentions unknown cell {cid!r}")
        if sc.J[cid] in chosen:
            raise ValueError(f"splitting contains both members of the pair ({cid!r}, {sc.J[cid]!r})")
    if len(chosen) * 2 + 1 != len(sc):
        raise ValueError("splitting must pick exactly one cell from each J-pair")
    return chosen


def decompose(sc: SplitComplex, chain: Iterable[str], chosen: Iterable[str]):
    """Write a chain uniquely as a + (1+J)b + eps*eta with a, b in the splitting.

    Per pair {c, Jc} with c chosen: c alone contributes to a; Jc alone
    contributes c to both a and b (Jc = c + (1+J)c over F2); both contribute
    c to b.  Returns (a, b, eps).
    """
    chain = frozenset(chain)
    chosen = frozenset(chosen)
    for cid in chain:
        if cid not in sc:
            raise ValueError(f"chain mentions unknown cell {cid!r}")
    J = sc.J
    touched = {cid for cid in chain if cid in chosen}
    touched.update(J[cid] for cid in chain if J[cid] in chosen)
    a, b = set(), set()
    for c in touched:
        in_c, in_j = c in chain, J[c] in chain
        if in_c and in_j:
            b.add(c)
        elif in_c:
            a.add(c)
        else:
            a.add(c)
            b.add(c)
    eps = 1 if sc.fixed in chain else 0
    return frozenset(a), frozenset(b), eps


# -- builders -----------------------------------------------------------


def build_trivial() -> SplitComplex:
    """The trivial complex: a single J-fixed 0-cell in grading zero, d = 0."""
    g = GeometricComplex([Cell("eta", 0, Fraction(0))], {}, Fraction(0))
    return SplitComplex(g, {"eta": "eta"})


def _xi_complex(i: int) -> SplitComplex:
    # internal variant that also admits i = 0 (needed by the local maps at
    # doubling parameter zero); the public builder insists on i >= 1
    cells = [Cell("a", 0, Fraction(0)), Cell("Ja", 0, Fraction(0)), Cell("b", 1, Fraction(-2 * i))]
    g = GeometricComplex(cells, {"b": {"a", "Ja"}}, Fraction(0))
    return SplitComplex(g, {"a": "Ja", "Ja": "a", "b": "b"})


def build_xi(i: int) -> SplitComplex:
    """The basis complex with generators a, Ja, b and d(b) = U^i (a + Ja)."""
    if not isinstance(i, int) or i < 1:
        raise ValueError(f"basis index must be a positive integer, got {i!r}")
    return _xi_complex(i)


def build_misordered(x: int, y: int) -> SplitComplex:
    """The disk complex with a misordered grading function (0 < x < y).

    Its torsion homology places the shorter tower in higher grading, so its
    connected module is rejected by the decoder.
    """
    if not (isinstance(x, int) and isinstance(y, int) and 0 < x < y):
        raise ValueError(f"misordered complex requires integers 0 < x < y, got ({x!r}, {y!r})")
    cells = [
        Cell("e0", 0, Fraction(0)),
        Cell("Je0", 0, Fraction(0)),
        Cell("e1", 1, Fraction(-2 * x)),
        Cell("Je1", 1, Fraction(-2 * x)),
        Cell("e2", 2, Fraction(-2 * (x + y))),
    ]
    bdry = {"e1": {"e0", "Je0"}, "Je1": {"e0", "Je0"}, "e2": {"e1", "Je1"}}
    J = {"e0": "Je0", "Je0": "e0", "e1": "Je1", "Je1": "e1", "e2": "e2"}
    return SplitComplex(GeometricComplex(cells, bdry, Fraction(0)), J)


# -- tensor and dual ----------------------------------------------------


def tensor(c1: AnyComplex, c2: AnyComplex) -> AnyComplex:
    """Tensor product: cells are pairs, dim and gr add, Leibniz boundary.

    If both factors are split the product is split with J acting
    coordinatewise; its fixed cell is the pair of fixed cells.
    """
    def pid(u: str, v: str) -> str:
        return f"{u}{TENSOR_SEP}{v}"

    cells = [
        Cell(pid(u.id, v.id), u.dim + v.dim, u.gr + v.gr)
        for u in c1.cells.values()
        for v in c2.cells.values()
    ]
    bdry = {}
    for u in c1.ids():
        for v in c2.ids():
            terms = {pid(du, v) for du in c1.bdry[u]} | {pid(u, dv) for dv in c2.bdry[v]}
            bdry[pid(u, v)] = terms
    g = GeometricComplex(cells, bdry, (c1.tau + c2.tau) % 2)
    if isinstance(c1, SplitComplex) and isinstance(c2, SplitComplex):
        J = {pid(u, v): pid(c1.J[u], c2.J[v]) for u in c1.ids() for v in c2.ids()}
        return SplitComplex(g, J)
    return g


def dual(c: AnyComplex) -> AnyComplex:
    """Dual complex: reversed boundary, M(e*) = -M(e).

    With n the maximal dimension of the input, the dual cell e* has
    dim n - dim(e) and gr -gr(e) - n, which keeps dual dimensions of actual
    cell complexes non-negative; complementary shifts of (dim, gr) leave the
    F2[U]-complex unchanged.
    """
    n = c.max_dim()
    star = {cid: cid + "*" for cid in c.cells}
    cells = [Cell(star[cid], n - cell.dim, -n - cell.gr) for cid, cell in c.cells.items()]
    # transpose in one pass over the edges, visiting sources in cell order
    sources = {cid: [] for cid in c.cells}
    for src in c.cells:
        for tid in c.bdry[src]:
            sources[tid].append(star[src])
    bdry = {star[cid]: frozenset(srcs) for cid, srcs in sources.items()}
    g = GeometricComplex(cells, bdry, (-n - c.tau) % 2)
    if isinstance(c, SplitComplex):
        return SplitComplex(g, {star[cid]: star[c.J[cid]] for cid in c.ids()})
    return g


# -- monomial matrices and JSON --------------------------------------------


@dataclass(frozen=True)
class FUMatrix:
    """Boundary matrix of one dimensional degree; entries are U-exponents."""

    rows: Tuple[str, ...]
    cols: Tuple[str, ...]
    entries: Mapping[Tuple[str, str], int]  # (target row, source col) -> k for U^k


def to_fu_matrices(c: AnyComplex) -> Dict[int, FUMatrix]:
    """Graded monomial boundary matrices, one per dimensional degree present."""
    by_dim: Dict[int, list] = {}
    for cid, cell in c.cells.items():
        by_dim.setdefault(cell.dim, []).append(cid)
    matrices = {}
    for d in sorted(by_dim):
        cols = tuple(by_dim[d])
        rows = tuple(by_dim.get(d - 1, ()))
        entries = {
            (tid, cid): c.u_exponent(cid, tid)
            for cid in cols
            for tid in c.bdry[cid]
        }
        matrices[d] = FUMatrix(rows, cols, entries)
    return matrices


def complex_to_json(c: AnyComplex) -> dict:
    out = {
        "tau": grading_to_str(c.tau),
        "cells": [
            {"id": cell.id, "dim": cell.dim, "gr": grading_to_str(cell.gr)}
            for cell in c.cells.values()
        ],
        "bdry": sorted([src, tgt] for src in c.ids() for tgt in c.bdry[src]),
    }
    if isinstance(c, SplitComplex):
        out["J"] = sorted([a, j] for a, j in c.pairs())
        out["fixed"] = c.fixed
    return out


def _pairs_from_json(obj: dict, key: str) -> list:
    pairs = obj.get(key, [])
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 and all(isinstance(x, str) for x in p)
        for p in pairs
    ):
        raise InvalidComplex(f"{key!r} must be a list of [id, id] pairs")
    return pairs


def complex_from_json(obj: dict) -> AnyComplex:
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise InvalidComplex("a complex must be a JSON object with a 'cells' list")
    cells = []
    for k, e in enumerate(obj["cells"]):
        if not isinstance(e, dict) or not {"id", "dim", "gr"} <= e.keys():
            raise InvalidComplex(f"cells[{k}] must be an object with 'id', 'dim' and 'gr'")
        gr = grading_from_json(e["gr"], f"cell {e['id']!r}", InvalidComplex)
        cells.append(Cell(e["id"], e["dim"], gr))
    bdry: Dict[str, set] = {}
    for src, tgt in _pairs_from_json(obj, "bdry"):
        bdry.setdefault(src, set()).add(tgt)
    tau = grading_from_json(obj["tau"], "tau", InvalidComplex) if "tau" in obj else None
    g = GeometricComplex(cells, bdry, tau)
    if "J" not in obj and "fixed" not in obj:
        return g
    J = {}
    for a, jb in _pairs_from_json(obj, "J"):
        J[a] = jb
        J[jb] = a
    fixed = obj.get("fixed")
    if fixed is not None:
        if not isinstance(fixed, str):
            raise InvalidComplex(f"'fixed' must be a cell id, got {fixed!r}")
        J[fixed] = fixed
    return SplitComplex(g, J)
