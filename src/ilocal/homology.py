"""Homology of geometric complexes over F2[U], with induced-map support.

Cells are totally ordered by decreasing gr (ties: lower dim first, then id),
so every boundary points strictly earlier and the single F2 boundary matrix
can be column-reduced in the persistence style, columns as integer bitmasks.
The order is computed on the integer numerators that validation stores:
every gr shares one positive denominator, so they order the cells as the
gradings do.
A reduced column pivoting at cell z kills the homogeneous cycle lifted from
it after k = (gr(z) - gr(source)) / 2 powers of U, contributing the torsion
tower T_{M(z)}(k) (k = 0 pairs cancel outright); columns that reduce to zero
are cycles, and the ones never hit as pivots generate free towers.

The reduced columns {R_j != 0} together with the unpaired cycle columns form
an F2 basis of the cycle space with distinct pivots, so any homogeneous
cycle can be expressed over the homology generators by pivot elimination;
that is what evaluating an induced map needs.  The reduction keeps those
basis vectors as bitmasks and builds the cycle representatives from them on
first read; the module itself needs none of them.  Every U-power here follows
the one grading rule of ``complexes``: U^k e has Maslov degree M(e) - 2k
(``GeometricComplex.degree_of``, inverted by ``u_power``).

The chain-map checks compare integer numerators: they read each complex's
table of q times the Maslov gradings and of (target, U-exponent) boundary
terms, and build no ``Fraction``.  The reduction builds neither table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from .complexes import AnyComplex, GeometricComplex, SplitComplex
from .errors import NotAChainMap, NotSplit
from .towers import INFINITE, FUModule, Grading, Tower, grading_to_str

#: A homogeneous F2[U]-chain: cell id -> U-exponent (coefficient 1).
HomogeneousChain = Dict[str, int]

#: General F2[U]-chain as a set of (cell id, U-exponent) terms.
TermSet = FrozenSet[Tuple[str, int]]


@dataclass(frozen=True)
class _BasisCycle:
    vec: int  # keyed by its pivot, whose Maslov degree the cycle has
    kind: str  # "free" | "torsion" | "dead"
    index: int  # position in free_cycles / torsion_pairs (-1 for dead)
    length: object  # torsion length, INFINITE for free, 0 for dead


@dataclass(eq=False)
class ReductionResult:
    """Isomorphism class of H_* plus cycle representatives.

    ``module`` is the unoriented tower decomposition; ``free_cycles`` holds
    one homogeneous representative per free tower and ``torsion_pairs`` one
    (killing chain, cycle, U-exponent) triple per finite tower.  The
    representatives depend on the reduction order and are excluded from
    module equality.  Both are built on first read from the bitmasks in
    ``_free`` and ``_torsion`` and then cached; a chain's degree is the
    Maslov degree of its top cell in ``_order``.
    """

    complex: GeometricComplex
    module: FUModule
    _order: Tuple[str, ...]
    _pos: Dict[str, int]
    _basis: Dict[int, _BasisCycle]
    _free: Tuple[int, ...]  # one cycle bitmask per free tower
    _torsion: Tuple[Tuple[int, int, int], ...]  # (killing chain, cycle, length)

    @cached_property
    def free_cycles(self) -> Tuple[Tuple[Grading, HomogeneousChain], ...]:
        return tuple(self._chain(vec) for vec in self._free)

    @cached_property
    def torsion_pairs(self) -> Tuple[Tuple[HomogeneousChain, HomogeneousChain, int], ...]:
        return tuple(
            (self._chain(x)[1], self._chain(z)[1], k) for x, z, k in self._torsion
        )

    def _chain(self, vec: int) -> Tuple[Grading, HomogeneousChain]:
        """The cells of ``vec`` as a homogeneous chain at its top cell's degree."""
        order, c = self._order, self.complex
        degree = c.maslov(order[vec.bit_length() - 1])
        ch = {}
        while vec:
            b = vec.bit_length() - 1
            vec ^= 1 << b
            ch[order[b]] = c.u_power(order[b], degree)
        return degree, ch

    @property
    def free_rank(self) -> int:
        return self.module.free_rank

    def express(self, chain: HomogeneousChain, degree: Grading):
        """Write the class of a homogeneous cycle over the tower generators.

        Returns a list of (kind, index, U-exponent) with kind "free" or
        "torsion" and index into the corresponding representative tuple;
        torsion coefficients U^c with c at or past the tower length are
        dropped.  Raises ValueError if the input is not a homogeneous cycle.
        """
        degree = Fraction(degree)
        vec = 0
        for cid, exp in chain.items():
            if self.complex.degree_of(cid, exp) != degree:
                raise ValueError(f"chain is not homogeneous of degree {degree} at {cid!r}")
            vec |= 1 << self._pos[cid]
        out = []
        while vec:
            p = vec.bit_length() - 1
            entry = self._basis.get(p)
            if entry is None:
                raise ValueError("chain is not a cycle")
            c = self.complex.u_power(self._order[p], degree)
            vec ^= entry.vec
            if entry.kind == "dead":
                continue
            if entry.kind == "torsion" and c >= entry.length:
                continue
            out.append((entry.kind, entry.index, c))
        return out

    def chain_degree(self, chain: HomogeneousChain) -> Grading:
        cid, exp = next(iter(chain.items()))
        return self.complex.degree_of(cid, exp)

    def witnesses_json(self) -> dict:
        """Cycle representatives as cell/U-exponent lists (CLI --witnesses)."""

        def chain_json(ch: HomogeneousChain):
            return sorted([cid, exp] for cid, exp in ch.items())

        return {
            "free": [
                {"grading": grading_to_str(g), "cycle": chain_json(ch)}
                for g, ch in self.free_cycles
            ],
            "torsion": [
                {
                    "top": grading_to_str(self.chain_degree(z)),
                    "length": k,
                    "cycle": chain_json(z),
                    "killed_by": chain_json(x),
                }
                for x, z, k in self.torsion_pairs
            ],
        }


def _reduce(columns: List[int]) -> Tuple[List[int], List[int], Dict[int, int]]:
    """Reduce F2 column bitmasks: R[j] = sum of the columns in V[j], owner[pivot] = j.

    The V[j] with R[j] == 0 are a basis of the nullspace.
    """
    R: List[int] = []
    V: List[int] = []
    owner: Dict[int, int] = {}
    for j, col in enumerate(columns):
        v = 1 << j
        while col:
            i = col.bit_length() - 1
            if i not in owner:
                break
            col ^= R[owner[i]]
            v ^= V[owner[i]]
        R.append(col)
        V.append(v)
        if col:
            owner[i] = j
    return R, V, owner


def homology(c: AnyComplex) -> ReductionResult:
    """Tower decomposition of H_*(c) by monomial column reduction."""
    # the numerators share the denominator q > 0, so this is (-gr, dim, id)
    num, cells = c._num, c.cells
    order = tuple(sorted(c.ids(), key=lambda cid: (-num[cid], cells[cid].dim, cid)))
    pos = {cid: i for i, cid in enumerate(order)}
    n = len(order)

    R, V, owner = _reduce([sum(1 << pos[tid] for tid in c.bdry[cid]) for cid in order])

    free, torsion = [], []
    basis: Dict[int, _BasisCycle] = {}
    towers = []
    for j in range(n):
        if not R[j]:
            continue
        i = R[j].bit_length() - 1
        k = c.u_exponent(order[j], order[i])
        if k > 0:
            torsion.append((V[j], R[j], k))
            basis[i] = _BasisCycle(R[j], "torsion", len(torsion) - 1, k)
            towers.append(Tower(c.maslov(order[i]), k))
        else:
            basis[i] = _BasisCycle(R[j], "dead", -1, 0)
    for j in range(n):
        if R[j] or j in owner:
            continue
        free.append(V[j])
        basis[j] = _BasisCycle(V[j], "free", len(free) - 1, INFINITE)
        towers.append(Tower(c.maslov(order[j]), INFINITE))
    module = FUModule(tuple(towers)).canonical()
    return ReductionResult(
        complex=c,
        module=module,
        _order=order,
        _pos=pos,
        _basis=basis,
        _free=tuple(free),
        _torsion=tuple(torsion),
    )


# -- chain maps ----------------------------------------------------------


def _bdry_terms(c: AnyComplex, terms: TermSet) -> TermSet:
    # adds U^e d(cid) over F2 per term; the terms of one image are distinct,
    # so each toggles once (ChainMap.apply does the same with f)
    acc, fu = set(), c._fu_terms
    for cid, e in terms:
        image = fu[cid]
        acc.symmetric_difference_update(image if e == 0 else [(tid, e + k) for tid, k in image])
    return frozenset(acc)


@dataclass(frozen=True, eq=False)
class ChainMap:
    """An F2[U]-linear degree-0 map given on skeleton generators.

    ``assignment[x]`` is the set of (target cell, U-exponent) terms of f(x);
    cells missing from the mapping are sent to zero.
    """

    source: AnyComplex
    target: AnyComplex
    assignment: Mapping[str, TermSet]

    def __post_init__(self):
        src, tgt = self.source, self.target
        norm = {}
        for cid in self.assignment:
            if cid not in src.cells:
                raise ValueError(f"assignment mentions unknown source cell {cid!r}")
        for cid in src.ids():
            terms = frozenset(self.assignment.get(cid, ()))
            for tid, exp in terms:
                if tid not in tgt.cells:
                    raise ValueError(f"image of {cid!r} mentions unknown target cell {tid!r}")
                if not isinstance(exp, int) or exp < 0:
                    raise ValueError(f"image of {cid!r} carries invalid U-exponent {exp!r}")
            norm[cid] = terms
        object.__setattr__(self, "assignment", norm)

    @classmethod
    def identity(cls, c: AnyComplex) -> "ChainMap":
        return cls(c, c, {cid: {(cid, 0)} for cid in c.ids()})

    def __call__(self, cid: str) -> TermSet:
        return self.assignment[cid]

    def apply(self, terms: TermSet) -> TermSet:
        acc, assignment = set(), self.assignment
        for cid, e in terms:
            image = assignment[cid]
            acc.symmetric_difference_update(image if e == 0 else [(tid, e + k) for tid, k in image])
        return frozenset(acc)

    # -- checks; each returns None or a witness dict ---------------------

    def grading_witness(self) -> Optional[dict]:
        # degree_of(tid, exp) == M(cid), times qs * qt: the tables hold q
        # times each Maslov grading, and the two q may differ
        src, tgt = self.source, self.target
        qs, qt = src.tau.denominator, tgt.tau.denominator
        ms, mt = src._mnum, tgt._mnum
        for cid in src.ids():
            m = ms[cid] * qt
            bad = [
                (tid, exp)
                for tid, exp in self.assignment[cid]
                if (mt[tid] - 2 * exp * qt) * qs != m
            ]
            if bad:
                tid, exp = min(bad)  # the first failure in sorted order
                return {
                    "cell": cid,
                    "term": [tid, exp],
                    "reason": "image term does not preserve the Maslov grading",
                }
        return None

    def chain_witness(self) -> Optional[dict]:
        fu = self.source._fu_terms
        for cid in self.source.ids():
            lhs = self.apply(fu[cid])
            rhs = _bdry_terms(self.target, self.assignment[cid])
            if lhs != rhs:
                diff = sorted(lhs ^ rhs)
                return {
                    "cell": cid,
                    "difference": [list(t) for t in diff],
                    "reason": "d(f(x)) differs from f(d(x))",
                }
        return None

    def j_witness(self) -> Optional[dict]:
        if not isinstance(self.source, SplitComplex) or not isinstance(self.target, SplitComplex):
            raise NotSplit("J-equivariance requires split source and target")
        for cid in self.source.ids():
            lhs = self.apply(frozenset({(self.source.J[cid], 0)}))
            rhs = frozenset((self.target.J[tid], e) for tid, e in self.assignment[cid])
            if lhs != rhs:
                return {
                    "cell": cid,
                    "difference": [list(t) for t in sorted(lhs ^ rhs)],
                    "reason": "f(Jx) differs from J(f(x))",
                }
        return None

    def check(self) -> None:
        """Raise NotAChainMap unless grading-preserving and a chain map."""
        w = self.grading_witness() or self.chain_witness()
        if w is not None:
            raise NotAChainMap(str(w))

    def identity_witness(self) -> Optional[dict]:
        ids = self.source.ids()
        if ids != self.target.ids():
            return {"reason": "source and target cells differ"}
        for cid in ids:
            if self.assignment[cid] != frozenset({(cid, 0)}):
                return {
                    "cell": cid,
                    "image": [list(t) for t in sorted(self.assignment[cid])],
                    "reason": "composite is not the identity here",
                }
        return None


def compose(outer: ChainMap, inner: ChainMap) -> ChainMap:
    """The composite outer o inner."""
    if not set(inner.target.ids()) <= set(outer.source.ids()):
        raise ValueError("maps are not composable: middle complexes disagree")
    assignment = {cid: outer.apply(inner(cid)) for cid in inner.source.ids()}
    return ChainMap(inner.source, outer.target, assignment)


def induced_map(
    f: ChainMap,
    src_result: Optional[ReductionResult] = None,
    tgt_result: Optional[ReductionResult] = None,
):
    """Classes of f(z) for the free cycles z of the source, in target towers.

    Returns one list of (kind, index, U-exponent) entries per free cycle of
    the source homology, expressed against the target's tower generators.
    """
    f.check()
    src_result = src_result if src_result is not None else homology(f.source)
    tgt_result = tgt_result if tgt_result is not None else homology(f.target)
    images = []
    for degree, chain in src_result.free_cycles:
        images.append(tgt_result.express(dict(f.apply(chain.items())), degree))
    return images


def is_u_localized_iso(
    f: ChainMap,
    src_result: Optional[ReductionResult] = None,
    tgt_result: Optional[ReductionResult] = None,
) -> bool:
    """True iff f is invertible after inverting U (free ranks must be one)."""
    src_result = src_result if src_result is not None else homology(f.source)
    tgt_result = tgt_result if tgt_result is not None else homology(f.target)
    if src_result.free_rank != 1 or tgt_result.free_rank != 1:
        raise ValueError("U-localized iso test requires free rank one on both sides")
    entries = induced_map(f, src_result, tgt_result)[0]
    return any(kind == "free" for kind, _, _ in entries)
