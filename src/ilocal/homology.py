"""Homology of geometric complexes over F2[U], with induced-map support.

Cells are totally ordered by decreasing gr (ties: lower dim first, then id),
so every boundary points strictly earlier and the single F2 boundary matrix
can be column-reduced in the persistence style, columns as integer bitmasks
built one at a time as the reduction reads them.  A column of dimension d
adds only columns of dimension d, so the reduction runs one dimension at a
time, from the top down, in the global order within each, and gives the
same R and pivots as one pass over the whole order.  It clears (Chen &
Kerber, "Persistent Homology Computation with a Twist"): a cell already hit
as a pivot by a column one dimension up is a cycle whose column reduces to
zero, so that column is never built.  This needs bdry o bdry = 0, which
every complex has by construction; the result is not defined for a
skeleton without it.
The order is computed on the integer numerators that validation stores:
every gr shares one positive denominator, so they order the cells as the
gradings do.
A reduced column pivoting at cell z kills the homogeneous cycle lifted from
it after k = (gr(z) - gr(source)) / 2 powers of U, contributing the torsion
tower T_{M(z)}(k) (k = 0 pairs cancel outright); columns that reduce to zero
are cycles, and the ones never hit as pivots generate free towers.
Towers are counted per distinct (Maslov numerator, length), so the module
holds one ``Tower`` per distinct pair, repeated by its count.

The reduced columns {R_j != 0} together with the unpaired cycle columns form
an F2 basis of the cycle space with distinct pivots, so any homogeneous
cycle can be expressed over the homology generators by pivot elimination;
that is what evaluating an induced map needs.  The result keeps the
reduction (R, V and the pivot owners) and each tower's column and length;
the module itself needs nothing more.  The cycle representatives and the
pivot basis of ``express`` are built from them on first read.  Every
U-power here follows the one grading rule of ``complexes``: U^k e has
Maslov degree M(e) - 2k (``GeometricComplex.degree_of``, inverted by
``u_power`` and, for the chain-map grading check, by the same integer lift).

The chain-map checks build no ``Fraction``: the grading check lifts each
image term on the integer Maslov table, and the chain check adds U-shifted
images from each complex's table of (target, U-exponent) boundary terms.
The reduction builds neither table.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .complexes import GeometricComplex, SplitComplex
from .errors import NotAChainMap, NotSplit
from .towers import INFINITE, FUModule, Grading, Length, _module_from_counts, grading_to_str

#: A homogeneous F2[U]-chain: cell id -> U-exponent (coefficient 1).
HomogeneousChain = Dict[str, int]

#: General F2[U]-chain as a set of (cell id, U-exponent) terms.
TermSet = FrozenSet[Tuple[str, int]]


@dataclass(eq=False)
class ReductionResult:
    """Isomorphism class of H_* plus cycle representatives.

    ``module`` is the unoriented tower decomposition; ``free_cycles`` holds
    one homogeneous representative per free tower and ``torsion_pairs`` one
    (killing chain, cycle, U-exponent) triple per finite tower.  The
    representatives depend on the reduction order and are excluded from
    module equality.  Both are built on first read from the reduction and
    ``_towers`` and then cached: a free tower's cycle is V[j], a torsion
    tower's is R[j], killed by V[j].  A chain's degree is the Maslov degree
    of its top cell in ``_order``.
    """

    complex: GeometricComplex
    module: FUModule
    _order: Tuple[str, ...]
    _pos: Dict[str, int]
    _R: List[int]  # reduced columns, as bitmasks over _order
    _V: List[int]  # R[j] is the sum of the columns in V[j]
    _owner: Dict[int, int]  # pivot -> the column whose R has it
    _towers: Tuple[Tuple[int, Length], ...]  # (column j, length) per tower

    @cached_property
    def free_cycles(self) -> Tuple[Tuple[Grading, HomogeneousChain], ...]:
        return tuple(self._chain(self._V[j]) for j, length in self._towers if length == INFINITE)

    @cached_property
    def torsion_pairs(self) -> Tuple[Tuple[HomogeneousChain, HomogeneousChain, int], ...]:
        return tuple(
            (self._chain(self._V[j])[1], self._chain(self._R[j])[1], length)
            for j, length in self._towers
            if length != INFINITE
        )

    @cached_property
    def _basis(self) -> Dict[int, Tuple[int, Optional[Tuple[str, int, Length]]]]:
        """Pivot -> (basis cycle, (kind, index, length)), for ``express``.

        A pair that cancels outright (k = 0) has no tower and carries None.
        """
        R, V = self._R, self._V
        basis = {i: (R[j], None) for i, j in self._owner.items()}
        count = {"free": 0, "torsion": 0}
        for j, length in self._towers:
            kind, vec = ("free", V[j]) if length == INFINITE else ("torsion", R[j])
            basis[vec.bit_length() - 1] = (vec, (kind, count[kind], length))
            count[kind] += 1
        return basis

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
        out, basis = [], self._basis
        while vec:
            p = vec.bit_length() - 1
            if p not in basis:
                raise ValueError("chain is not a cycle")
            cycle, tower = basis[p]
            vec ^= cycle
            if tower is not None:
                kind, index, length = tower
                c = self.complex.u_power(self._order[p], degree)
                if c < length:
                    out.append((kind, index, c))
        return out

    def chain_degree(self, chain: HomogeneousChain) -> Grading:
        if not chain:
            raise ValueError("an empty chain has no degree")
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


def _reduce(column: Callable[[int], int], js: Sequence[int], clear: bool = False):
    """Reduce the F2 column bitmasks ``column(j)``, j in ``js`` order, a permutation of range(n).

    R[j] is the sum of the columns in V[j], and owner[pivot] = j; the V[j]
    with R[j] == 0 are a basis of the nullspace.  A column adds only the
    columns reduced before it that share its pivot.  ``clear`` needs rows
    indexed like the columns and a matrix that squares to zero: a column
    whose index is already a pivot then reduces to zero, so it is not built,
    and V[j] = R[owner[j]], whose columns sum to zero.
    """
    R, V, owner = [0] * len(js), [0] * len(js), {}
    for j in js:
        if clear and j in owner:
            V[j] = R[owner[j]]
            continue
        col, v = column(j), 1 << j
        while col:
            i = col.bit_length() - 1
            if i not in owner:
                break
            col ^= R[owner[i]]
            v ^= V[owner[i]]
        R[j], V[j] = col, v
        if col:
            owner[i] = j
    return R, V, owner


def homology(c: GeometricComplex) -> ReductionResult:
    """Tower decomposition of H_*(c) by monomial column reduction, with clearing.

    Defined for complexes (bdry o bdry = 0), which every construction
    guarantees; see the module docstring.
    """
    # the numerators share the denominator q > 0, so this is (-gr, dim, id)
    num, dims, q, bdry = c._num, c._dim, c._q, c.bdry
    order = tuple(sorted(c.ids(), key=lambda cid: (-num[cid], dims[cid], cid)))
    pos = {cid: i for i, cid in enumerate(order)}

    def column(j):
        col = 0
        for tid in bdry[order[j]]:
            col |= 1 << pos[tid]
        return col

    # dimensions from the top down, so each pivot is known before its own
    # column is read; the sort is stable, keeping the order within each
    by_dim = [-dims[cid] for cid in order]
    R, V, owner = _reduce(column, sorted(range(len(order)), key=by_dim.__getitem__), clear=True)

    # a column reducing to zero unpaired is a free tower topped at its own
    # cell; one that pivots at i is a torsion tower topped at i, of length
    # its U-exponent (none when that is 0)
    gens, counts = [], {}
    for j, col in enumerate(R):
        if col:
            top = col.bit_length() - 1
            # the pivot lies above column j by a gap in 2qZ: boundary steps add up
            length = (num[order[top]] - num[order[j]]) // (2 * q)
            if not length:
                continue
        elif j in owner:
            continue
        else:
            top, length = j, INFINITE
        gens.append((j, length))
        key = (num[order[top]] + q * dims[order[top]], length)
        counts[key] = counts.get(key, 0) + 1
    module = _module_from_counts({(Fraction(m, q), ln): k for (m, ln), k in counts.items()})
    return ReductionResult(c, module, order, pos, R, V, owner, tuple(gens))


# -- chain maps ----------------------------------------------------------


def _image_sum(images: Mapping[str, TermSet], terms) -> TermSet:
    """The F2 sum of U^e images[cid] over the terms (cid, e)."""
    # the terms of one image are distinct, so each toggles once
    acc = set()
    for cid, e in terms:
        image = images[cid]
        acc.symmetric_difference_update(image if e == 0 else [(tid, e + k) for tid, k in image])
    return frozenset(acc)


@dataclass(frozen=True, eq=False)
class ChainMap:
    """An F2[U]-linear degree-0 map given on skeleton generators.

    ``assignment[x]`` is the set of (target cell, U-exponent) terms of f(x);
    cells missing from the mapping are sent to zero.
    """

    source: GeometricComplex
    target: GeometricComplex
    assignment: Mapping[str, TermSet]

    def __post_init__(self):
        src, tgt = self.source, self.target
        norm = {}
        for cid in self.assignment:
            if cid not in src:
                raise ValueError(f"assignment mentions unknown source cell {cid!r}")
        for cid in src.ids():
            terms = frozenset(self.assignment.get(cid, ()))
            for tid, exp in terms:
                if tid not in tgt:
                    raise ValueError(f"image of {cid!r} mentions unknown target cell {tid!r}")
                if type(exp) is not int or exp < 0:
                    raise ValueError(f"image of {cid!r} carries invalid U-exponent {exp!r}")
            norm[cid] = terms
        object.__setattr__(self, "assignment", norm)

    @classmethod
    def identity(cls, c: GeometricComplex) -> "ChainMap":
        return cls(c, c, {cid: {(cid, 0)} for cid in c.ids()})

    def __call__(self, cid: str) -> TermSet:
        return self.assignment[cid]

    def apply(self, terms: TermSet) -> TermSet:
        return _image_sum(self.assignment, terms)

    # -- checks; each returns None or a witness dict ---------------------

    def grading_witness(self) -> Optional[dict]:
        # degree_of(tid, exp) == M(cid) iff exp is the lift of tid to M(cid)
        src, lift = self.source, self.target._lift
        for cid in src.ids():
            m, q = src._mnum[cid], src._q
            bad = [(tid, exp) for tid, exp in self.assignment[cid] if lift(tid, m, q) != exp]
            if bad:
                tid, exp = min(bad)  # the first failure in sorted order
                return {
                    "cell": cid,
                    "term": [tid, exp],
                    "reason": "image term does not preserve the Maslov grading",
                }
        return None

    def chain_witness(self) -> Optional[dict]:
        d_src, d_tgt = self.source._fu_terms, self.target._fu_terms
        for cid in self.source.ids():
            lhs = _image_sum(self.assignment, d_src[cid])
            rhs = _image_sum(d_tgt, self.assignment[cid])
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
            lhs = self.assignment[self.source.J[cid]]
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
    if src_result.module.free_rank != 1 or tgt_result.module.free_rank != 1:
        raise ValueError("U-localized iso test requires free rank one on both sides")
    entries = induced_map(f, src_result, tgt_result)[0]
    return any(kind == "free" for kind, _, _ in entries)
