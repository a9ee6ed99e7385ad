"""Finite F2 skeleta with grading data, and the basic complexes built on them.

A geometric complex is a finite collection of cells, each carrying a
dimensional grading ``dim`` and a rational grading ``gr``; the boundary
relation has degree -1 in ``dim``, never decreases ``gr``, and all gaps are
even.  The derived free F2[U]-complex has differential

    d(e) = sum over e' in bdry(e) of U^((gr(e') - gr(e)) / 2) e'

and Maslov grading M(e) = gr(e) + dim(e).  U has Maslov degree -2 and
dimensional degree 0, so U^k e has Maslov degree M(e) - 2k.  This is the
one grading rule: ``GeometricComplex.degree_of`` states it and ``_lift``
inverts it (the lift of e to a degree m is the k >= 0 with M(e) - 2k = m).
All ``gr`` values lie in one coset of 2Z in Q, represented by ``tau``.
The skeleton is not required to come from an actual cell complex: any
degree -1 differential over F2 is allowed, which keeps the class closed
under dualization.

Because every ``gr`` lies in ``tau + 2Z``, all gradings of a validated
complex share the reduced denominator ``q`` of ``tau = p/q``, and
``gr - tau`` lies in 2Z exactly when ``gr.denominator == q`` and
``gr.numerator - p`` is divisible by 2q.  Validation checks this once; after
it, grading comparisons and gaps are exact integer operations on the
numerators.  The width (the minimal boundary gap) is recorded by the same
validation pass and stored, since complexes never change after
construction.  Two more integer tables are built on first use: q times
each cell's Maslov grading, on which ``_lift`` works for ``u_power``, the
grading check of a chain map and the local maps alike, and ``_fu_terms``,
each cell's derived differential as (target, U-exponent) pairs with the
exponent (num(target) - num(cell)) // 2q.  That table is the one statement
of the derived differential: ``fu_bdry`` reads it, and so does the chain
check of a chain map.

A split complex is a geometric complex with a cell-level involution J
commuting with the boundary and fixing exactly one cell, so every operation
here accepts either kind.  It is built from an already validated geometric
complex and reuses that validation: it takes over the boundary and the
grading tables and checks only J.

Instances are immutable, and their stored grading data are integer tables:
each cell's dimension and its gr numerator over q, which is always tau's
denominator.  One private step, ``_store``, assigns every stored field
(these tables, the boundary, tau, the width, and for a split complex J and
its fixed cell), and every construction ends there.  The ``Cell`` objects
of ``cells`` are built from the tables on first read, so a complex that is
only reduced, mapped or derived from never builds them.  Complexes that
enter from outside (the public constructors, the builders,
``complex_from_json``) are validated in full into the tables.  ``dual``,
``tensor`` and ``double`` derive new complexes from validated ones and are
valid by construction: each computes the dimensions, numerators, tau, the
width, J and the fixed cell of its result from the tables of its inputs,
and ``_derived`` stores them without validating again.  The one check
that depends on the input stays: ids of a tensor can repeat (``"a⊗b" ⊗
"c"`` and ``"a" ⊗ "b⊗c"``), which raises the same error as in the
constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple, Union

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
        if type(self.dim) is not int:
            raise InvalidComplex(f"cell {self.id!r} has non-integer dimension {self.dim!r}")
        if type(self.gr) is not Fraction:
            object.__setattr__(self, "gr", Fraction(self.gr))

    @property
    def maslov(self) -> Grading:
        return self.gr + self.dim


def _duplicate_id(ids: Iterable[str]) -> InvalidComplex:
    """The error naming the first repeated id of ``ids``, which has one."""
    seen = set()
    for cid in ids:
        if cid in seen:
            return InvalidComplex(f"duplicate cell id {cid!r}")
        seen.add(cid)


def _bdry_squared_error(ids: Iterable[str], bdry: Mapping[str, Chain]) -> Optional[str]:
    """A message naming the first cell of ``ids`` where bdry o bdry is nonzero over F2, or None."""
    # acc is empty again after every cell passes
    acc = set()
    for cid in ids:
        for tid in bdry[cid]:
            acc.symmetric_difference_update(bdry[tid])
        if acc:
            return f"bdry^2 is nonzero at cell {cid!r} (hits {sorted(acc)})"
    return None


class GeometricComplex:
    """Skeleton plus grading function; see the module docstring."""

    def __init__(self, cells: Iterable[Cell], bdry: Mapping[str, Iterable[str]],
                 tau: Grading = None):
        cell_list = tuple(cells)
        dims = {c.id: c.dim for c in cell_list}
        if len(dims) != len(cell_list):
            raise _duplicate_id(c.id for c in cell_list)
        bdry = dict(bdry)
        if not bdry.keys() <= dims.keys():
            cid = next(cid for cid in bdry if cid not in dims)
            raise InvalidComplex(f"bdry source {cid!r} is not a cell")
        bdry = {cid: frozenset(targets) for cid, targets in bdry.items()}
        if len(bdry) != len(dims):
            for cid in dims:
                bdry.setdefault(cid, frozenset())
        if tau is None:
            tau = cell_list[0].gr if cell_list else Fraction(0)
        tau = Fraction(tau) % 2
        _store(self, dims, bdry, tau, *self._validate(cell_list, dims, bdry, tau))

    def _validate(self, cells, dims, bdry, tau):
        """Check a new complex; return its gr numerators over tau's denominator and its width."""
        # every gr shares tau's reduced denominator q (see the module
        # docstring), so the checks below compare integer numerators
        p, q = tau.numerator, tau.denominator
        two_q = 2 * q
        num: Dict[str, int] = {}
        for c in cells:
            n, d = c.gr.as_integer_ratio()
            if d != q or (n - p) % two_q:
                raise InvalidComplex(
                    f"cell {c.id!r} has gr {c.gr} outside the coset tau={tau} + 2Z"
                )
            num[c.id] = n
        min_gap = None
        for cid, targets in bdry.items():
            if not targets:
                continue
            e_dim, e_num = dims[cid] - 1, num[cid]
            for tid in targets:
                t_dim = dims.get(tid)
                if t_dim is None:
                    raise InvalidComplex(f"boundary of {cid!r} mentions unknown cell {tid!r}")
                if t_dim != e_dim:
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
        error = _bdry_squared_error(dims, bdry)
        if error:
            raise InvalidComplex(error)
        return num, INFINITE if min_gap is None else min_gap // q

    @cached_property
    def cells(self) -> Dict[str, Cell]:
        """The cells by id, built from the grading tables on first read."""
        num, q = self._num, self._q
        return {cid: Cell(cid, d, Fraction(num[cid], q)) for cid, d in self._dim.items()}

    # -- basic accessors ------------------------------------------------

    def ids(self) -> Tuple[str, ...]:
        return tuple(self._dim)

    def __len__(self) -> int:
        return len(self._dim)

    def __contains__(self, cid: str) -> bool:
        return cid in self._dim

    def maslov(self, cid: str) -> Grading:
        q = self._q
        return Fraction(self._num[cid] + q * self._dim[cid], q)

    def max_dim(self) -> int:
        return max(self._dim.values(), default=0)

    def degree_of(self, cid: str, k: int) -> Grading:
        """Maslov degree M(cid) - 2k of the chain U^k cid."""
        return self.maslov(cid) - 2 * k

    def u_power(self, cid: str, degree: Grading) -> int:
        """The k >= 0 with ``degree_of(cid, k) == degree``; ValueError if none."""
        k = self._lift(cid, degree.numerator, degree.denominator)
        if k is None:
            raise ValueError(f"degree {degree} is not M({cid!r}) - 2k for an integer k >= 0")
        return k

    def fu_bdry(self, cid: str) -> Dict[str, int]:
        """Derived F2[U]-differential of a cell as {target: U-exponent}."""
        return dict(self._fu_terms[cid])

    def width(self) -> Union[int, float]:
        """Twice the minimal U-exponent in the differential; INFINITE if d = 0."""
        return self._width

    # -- integer tables for the chain-map checks, built on first use --------

    @cached_property
    def _mnum(self) -> Dict[str, int]:
        """q * M(cell) for every cell: the Maslov gradings over the shared q."""
        q, dims = self._q, self._dim
        return {cid: n + q * dims[cid] for cid, n in self._num.items()}

    def _lift(self, cid: str, m: int, q: int) -> Optional[int]:
        """The k >= 0 with M(cid) - 2k == m / q (q > 0), or None if there is none.

        This is the one lift rule.  Both sides are cross-multiplied by the
        two denominators, so ``m / q`` may come from another complex.
        """
        p = self._q
        k, rest = divmod(self._mnum[cid] * q - m * p, 2 * p * q)
        return None if rest or k < 0 else k

    @cached_property
    def _fu_terms(self) -> Dict[str, FrozenSet[Tuple[str, int]]]:
        """Each cell's derived differential as (target, U-exponent) pairs."""
        num, two_q = self._num, 2 * self._q
        return {
            cid: frozenset((tid, (num[tid] - n) // two_q) for tid in self.bdry[cid])
            for cid, n in num.items()
        }


class SplitComplex(GeometricComplex):
    """A geometric complex with an involution J having exactly one fixed cell.

    The boundary and grading tables are taken over from ``base``, which its
    own construction has already validated; only J is checked here.
    """

    def __init__(self, base: GeometricComplex, J: Mapping[str, str]):
        J = dict(J)
        dims, num, bdry = base._dim, base._num, base.bdry
        if J.keys() != dims.keys():
            raise NotSplit("J must be defined on exactly the cells of the complex")
        fixed = []
        for cid, jid in J.items():
            if jid not in dims:
                raise NotSplit(f"J sends {cid!r} to unknown cell {jid!r}")
            if J[jid] != cid:
                raise NotSplit(f"J is not an involution on the pair ({cid!r}, {jid!r})")
            # gradings of the validated base share one denominator
            if dims[cid] != dims[jid] or num[cid] != num[jid]:
                raise NotSplit(f"J does not preserve the gradings of ({cid!r}, {jid!r})")
            if jid == cid:
                fixed.append(cid)
        if len(fixed) != 1:
            raise NotSplit(f"exactly one J-fixed cell required, found {sorted(fixed)}")
        for cid in dims:
            if {J[tid] for tid in bdry[cid]} != bdry[J[cid]]:
                raise NotSplit(f"J does not commute with bdry at cell {cid!r}")
        _store(self, dims, bdry, base.tau, num, base._width, J, fixed[0])

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """The two-element J-orbits, each reported once as (min, max)."""
        for cid, jid in self.J.items():
            if cid < jid:
                yield cid, jid


def _store(c: GeometricComplex, dims: Dict[str, int], bdry: Dict[str, Chain], tau: Grading,
           num: Dict[str, int], width: Union[int, float],
           J: Optional[Dict[str, str]] = None, fixed: Optional[str] = None) -> GeometricComplex:
    """Assign the stored fields of ``c``; nothing else assigns them.

    ``tau`` is reduced mod 2, and ``num`` holds the gr numerators over its denominator ``_q``.
    """
    c._dim, c.bdry, c.tau, c._num, c._q, c._width = dims, bdry, tau, num, tau.denominator, width
    if J is not None:
        c.J, c.fixed = J, fixed
    return c


def _derived(dims, bdry, tau, num, width, J=None, fixed=None) -> GeometricComplex:
    """The result of ``dual``, ``tensor`` or ``double``, stored by ``_store`` unchecked."""
    c = object.__new__(GeometricComplex if J is None else SplitComplex)
    return _store(c, dims, bdry, tau, num, width, J, fixed)


# -- splittings ---------------------------------------------------------


def canonical_splitting(sc: SplitComplex) -> FrozenSet[str]:
    """Lexicographically smallest member of each J-orbit pair."""
    return frozenset(a for a, _ in sc.pairs())


def validate_splitting(sc: SplitComplex, chosen: Optional[Iterable[str]]) -> FrozenSet[str]:
    """The checked splitting ``chosen``; ``None`` stands for the canonical one."""
    if chosen is None:
        return canonical_splitting(sc)
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
    if type(i) is not int or i < 1:
        raise ValueError(f"basis index must be a positive integer, got {i!r}")
    return _xi_complex(i)


def build_misordered(x: int, y: int) -> SplitComplex:
    """The disk complex with a misordered grading function (0 < x < y).

    Its torsion homology places the shorter tower in higher grading, so its
    connected module is rejected by the decoder.
    """
    if not (type(x) is int and type(y) is int and 0 < x < y):
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


def _pid(u: str, v: str) -> str:
    return f"{u}{TENSOR_SEP}{v}"


def tensor(c1: GeometricComplex, c2: GeometricComplex) -> GeometricComplex:
    """Tensor product: cells are pairs, dim and gr add, Leibniz boundary.

    If both factors are split the product is split with J acting
    coordinatewise; its fixed cell is the pair of fixed cells.  A sum of
    gradings from the cosets of tau1 and tau2 lies in the coset of their
    sum, so its reduced denominator is that coset's denominator q, and the
    numerators n1/q1 + n2/q2 over q are the exact integers
    (n1*q2 + n2*q1)*q // (q1*q2).  Each boundary pair of the product moves
    one factor along a boundary pair of that factor, so the width is the
    least factor width, counting a factor only when the other has cells.
    """
    ids2 = c2.ids()
    pid = {u: {v: _pid(u, v) for v in ids2} for u in c1.ids()}
    tau = (c1.tau + c2.tau) % 2
    q, q1, q2 = tau.denominator, c1._q, c2._q
    q12, dims2 = q1 * q2, c2._dim
    scaled2 = {v: n * q1 * q for v, n in c2._num.items()}
    dims, bdry, num = {}, {}, {}
    for u, d1 in c1._dim.items():
        row, scaled, bu = pid[u], c1._num[u] * q2 * q, c1.bdry[u]
        for v, d2 in dims2.items():
            w = row[v]
            dims[w] = d1 + d2
            num[w] = (scaled + scaled2[v]) // q12
            bdry[w] = frozenset([pid[du][v] for du in bu] + [row[dv] for dv in c2.bdry[v]])
    if len(dims) != len(c1) * len(c2):
        raise _duplicate_id(w for row in pid.values() for w in row.values())
    least = min(c1._width if dims2 else INFINITE, c2._width if c1._dim else INFINITE)
    if isinstance(c1, SplitComplex) and isinstance(c2, SplitComplex):
        J = {pid[u][v]: pid[c1.J[u]][c2.J[v]] for u in c1.ids() for v in ids2}
        fixed = pid[c1.fixed][c2.fixed]
        return _derived(dims, bdry, tau, num, least, J, fixed)
    return _derived(dims, bdry, tau, num, least)


def dual(c: GeometricComplex) -> GeometricComplex:
    """Dual complex: reversed boundary, M(e*) = -M(e).

    With n the maximal dimension of the input, the dual cell e* has
    dim n - dim(e) and gr -gr(e) - n, which keeps dual dimensions of actual
    cell complexes non-negative; complementary shifts of (dim, gr) leave the
    F2[U]-complex unchanged.  Over the same denominator q, the numerator k
    of gr becomes -n*q - k, and every boundary pair keeps its gap, so the
    width is unchanged.
    """
    n, q = c.max_dim(), c._q
    star = {cid: cid + "*" for cid in c._dim}
    dims = {star[cid]: n - d for cid, d in c._dim.items()}
    num = {star[cid]: -n * q - k for cid, k in c._num.items()}
    # transpose in one pass over the edges, visiting sources in cell order
    sources = {cid: [] for cid in c._dim}
    for src in c._dim:
        for tid in c.bdry[src]:
            sources[tid].append(star[src])
    bdry = {star[cid]: frozenset(srcs) for cid, srcs in sources.items()}
    tau = (-n - c.tau) % 2
    if isinstance(c, SplitComplex):
        J = {star[cid]: star[c.J[cid]] for cid in c.ids()}
        return _derived(dims, bdry, tau, num, c._width, J, star[c.fixed])
    return _derived(dims, bdry, tau, num, c._width)


# -- JSON ---------------------------------------------------------------


def complex_to_json(c: GeometricComplex) -> dict:
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


def complex_from_json(obj: dict) -> GeometricComplex:
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
