"""Homology of geometric complexes over F2[U], with induced-map support.

Cells are totally ordered by decreasing gr (ties: lower dim first, then id),
so every boundary points strictly earlier and the single F2 boundary matrix
can be column-reduced in the persistence style, columns as integer bitmasks.
A reduced column pivoting at cell z kills the homogeneous cycle lifted from
it after k = (gr(z) - gr(source)) / 2 powers of U, contributing the torsion
tower T_{M(z)}(k) (k = 0 pairs cancel outright); columns that reduce to zero
are cycles, and the ones never hit as pivots generate free towers.

The reduced columns {R_j != 0} together with the unpaired cycle columns form
an F2 basis of the cycle space with distinct pivots, so any homogeneous
cycle can be expressed over the homology generators by pivot elimination;
that is what evaluating an induced map needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    pivot: int
    vec: int
    degree: Grading  # Maslov degree of the lifted cycle
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
    module equality.
    """

    complex: GeometricComplex
    module: FUModule
    free_cycles: Tuple[Tuple[Grading, HomogeneousChain], ...]
    torsion_pairs: Tuple[Tuple[HomogeneousChain, HomogeneousChain, int], ...]
    _order: Tuple[str, ...]
    _pos: Dict[str, int]
    _basis: Dict[int, _BasisCycle]

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
            if self.complex.maslov(cid) - 2 * exp != degree:
                raise ValueError(f"chain is not homogeneous of degree {degree} at {cid!r}")
            vec |= 1 << self._pos[cid]
        out = []
        while vec:
            p = vec.bit_length() - 1
            entry = self._basis.get(p)
            if entry is None:
                raise ValueError("chain is not a cycle")
            c = entry.degree - degree
            if c < 0 or c % 2 != 0:
                raise ValueError("chain is not a cycle in this complex")
            c = int(c / 2)
            vec ^= entry.vec
            if entry.kind == "dead":
                continue
            if entry.kind == "torsion" and c >= entry.length:
                continue
            out.append((entry.kind, entry.index, c))
        return out

    def chain_degree(self, chain: HomogeneousChain) -> Grading:
        cid, exp = next(iter(chain.items()))
        return self.complex.maslov(cid) - 2 * exp

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


def homology(c: AnyComplex) -> ReductionResult:
    """Tower decomposition of H_*(c) by monomial column reduction."""
    order = tuple(sorted(c.ids(), key=lambda cid: (-c.cells[cid].gr, c.cells[cid].dim, cid)))
    pos = {cid: i for i, cid in enumerate(order)}
    n = len(order)

    def chain_of(vec: int, degree: Grading) -> HomogeneousChain:
        ch = {}
        while vec:
            b = vec.bit_length() - 1
            vec ^= 1 << b
            gap = c.maslov(order[b]) - degree
            ch[order[b]] = int(gap / 2)
        return ch

    R: List[int] = []
    V: List[int] = []
    owner: Dict[int, int] = {}
    for j, cid in enumerate(order):
        col = 0
        for tid in c.bdry[cid]:
            col |= 1 << pos[tid]
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

    free_cycles = []
    torsion_pairs = []
    basis: Dict[int, _BasisCycle] = {}
    towers = []
    for j in range(n):
        if not R[j]:
            continue
        i = R[j].bit_length() - 1
        k = c.u_exponent(order[j], order[i])
        degree = c.maslov(order[i])
        if k > 0:
            torsion_pairs.append(
                (chain_of(V[j], c.maslov(order[j])), chain_of(R[j], degree), k)
            )
            basis[i] = _BasisCycle(i, R[j], degree, "torsion", len(torsion_pairs) - 1, k)
            towers.append(Tower(degree, k))
        else:
            basis[i] = _BasisCycle(i, R[j], degree, "dead", -1, 0)
    for j in range(n):
        if R[j] or j in owner:
            continue
        degree = c.maslov(order[j])
        free_cycles.append((degree, chain_of(V[j], degree)))
        basis[j] = _BasisCycle(j, V[j], degree, "free", len(free_cycles) - 1, INFINITE)
        towers.append(Tower(degree, INFINITE))
    module = FUModule(tuple(towers)).canonical()
    return ReductionResult(
        complex=c,
        module=module,
        free_cycles=tuple(free_cycles),
        torsion_pairs=tuple(torsion_pairs),
        _order=order,
        _pos=pos,
        _basis=basis,
    )


# -- chain maps ----------------------------------------------------------


def _terms_of(chain: HomogeneousChain) -> TermSet:
    return frozenset(chain.items())


def _bdry_terms(c: AnyComplex, terms: TermSet) -> TermSet:
    acc = set()
    for cid, e in terms:
        for tid in c.bdry[cid]:
            acc ^= {(tid, e + c.u_exponent(cid, tid))}
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
        acc = set()
        for cid, e in terms:
            for tid, k in self.assignment[cid]:
                acc ^= {(tid, e + k)}
        return frozenset(acc)

    # -- checks; each returns None or a witness dict ---------------------

    def grading_witness(self) -> Optional[dict]:
        src, tgt = self.source, self.target
        for cid in src.ids():
            m = src.maslov(cid)
            for tid, exp in sorted(self.assignment[cid]):
                if tgt.maslov(tid) - 2 * exp != m:
                    return {
                        "cell": cid,
                        "term": [tid, exp],
                        "reason": "image term does not preserve the Maslov grading",
                    }
        return None

    def chain_witness(self) -> Optional[dict]:
        for cid in self.source.ids():
            lhs = self.apply(_bdry_terms(self.source, frozenset({(cid, 0)})))
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
        img_terms = f.apply(_terms_of(chain))
        img_chain: HomogeneousChain = {}
        for tid, e in img_terms:
            img_chain[tid] = e
        images.append(tgt_result.express(img_chain, degree))
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
