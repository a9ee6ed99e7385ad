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
gradings do.  Ties are broken by id through the complex's id ranks
``_idrank`` (a product of prefix-free factors stores them without joining
an id, see ``complexes``; any other complex sorts its ids once on first
read): each cell's key (-gr, dim, id) is one integer, (dim - num*span)*n
+ rank with span one more than the range of the dims.  The dims differ by
less than span and the ranks lie in [0, n), so the integers sort as the
triples do.  The sort gives ``_perm``, the position in ``ids()`` of each
rank, which the result stores; the ids by rank, ``_order``, are a view.
The columns come from positions: each is read from the complex's
positional boundary ``_adj``, whose positions index ``ids()``, through one
list from positions to ranks, ``_rank``, the inverse of ``_perm``, so no
id is looked up while the columns are built and the reduction builds no
map keyed by cell id; ``express`` reaches a cell's rank through the
complex's ``_index``.
A reduced column pivoting at cell z kills the homogeneous cycle lifted from
it after k = (gr(z) - gr(source)) / 2 powers of U, contributing the torsion
tower T_{M(z)}(k) (k = 0 pairs cancel outright); columns that reduce to zero
are cycles, and the ones never hit as pivots generate free towers.
Towers are counted per distinct (Maslov numerator, length); the module,
one ``Tower`` per distinct pair repeated by its count, is built from that
table on first read, so a caller that needs only the reduction builds no
``Fraction`` and no ``Tower``.

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

The chain-map checks build no ``Fraction`` and read one form of a map, its
F2 pattern ``_pattern``: a bitmask over the target's positions per source
position.  The public constructor's one pass over the terms lifts each on
the integer Maslov table (the grading check) and sets its bit; a map the
library builds (``_derived_map``) stores its pattern alone, each term
lifted once, and builds its term sets on first read.  Once the grading
check passes, the gradings fix every U-exponent of the map, as they fix
the derived differential's, so each further check is a bitmask identity.  The chain check compares, at each
source position x, the XOR of the patterns over its ``_adj`` row with the
XOR of the target's ``_adj`` rows over its pattern; the J check compares the pattern of Jx with the
pattern of x permuted by the target's J.  The first position where the two
masks differ is the witness, and only then are ids read: each differing
target cell, with its lift to M(x) - 1 for the chain check and to M(x) for
the J check.  A map that fails the grading check has no pattern to check,
so both checks then report the grading witness.  ``verify_local_pair``
reads g o f = id as "the XOR of g's patterns over f's pattern at position
i is ``1 << i``"; ``compose`` and
``verify_local_pair`` accept only maps whose middle complexes are one
complex, so those positions index the same cells.

The U-localized check is F2 linear algebra at U = 1.  After inverting U,
the homology in each degree is the F2 homology, at U = 1, of the cells in
that degree's parity, and a grading-preserving chain map acts on it as its
pattern does.  The columns of the reduction are the boundary at U = 1, so
with free rank one on both sides f is an isomorphism after inverting U
exactly when its pattern, read at the positions ``_perm`` gives, maps the
source's free cycle V[j] to a cycle that is not a boundary: one that the
target's pivots (its reduced columns, a basis of the boundaries) do not
reduce to zero.  ``induced_map`` and
``express`` still read f(z) over the F2[U] tower generators, where a free
entry is the same verdict.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterator, List, Mapping, Optional, Sequence, Tuple

from .complexes import GeometricComplex, SplitComplex, complex_to_json
from .errors import NotAChainMap, NotSplit
from .towers import INFINITE, FUModule, Grading, Length, _module_from_counts, _Value, _view, grading_to_str

#: A homogeneous F2[U]-chain: cell id -> U-exponent (coefficient 1).
HomogeneousChain = Dict[str, int]

#: General F2[U]-chain as a set of (cell id, U-exponent) terms.
TermSet = FrozenSet[Tuple[str, int]]


class ReductionResult:
    """Isomorphism class of H_* plus cycle representatives.

    ``module`` is the unoriented tower decomposition, built on first read
    from the integer table ``_counts``; ``free_cycles`` holds one
    homogeneous representative per free tower and ``torsion_pairs`` one
    (killing chain, cycle, U-exponent) triple per finite tower.  The
    representatives depend on the reduction order and are excluded from
    module equality.  Both are built on first read from the reduction and
    ``_towers`` and then cached: a free tower's cycle is V[j], a torsion
    tower's is R[j], killed by V[j].  A chain's degree is the Maslov degree
    of its top cell in ``_order``, the ids by rank, which is built from
    ``_perm`` on first read.
    """

    _fields = ("complex", "_counts", "_perm", "_rank", "_R", "_V", "_owner", "_towers")
    __repr__ = _Value.__repr__

    def __init__(self, complex: GeometricComplex, _counts, _perm, _rank, _R, _V, _owner, _towers):
        self.complex = complex
        self._counts = _counts  # (q * M(top), length) -> towers
        self._perm = _perm  # the position in complex.ids() of each rank
        self._rank = _rank  # the rank of each position, the inverse of _perm
        self._R = _R  # reduced columns, as bitmasks over the ranks
        self._V = _V  # R[j] is the sum of the columns in V[j]
        self._owner = _owner  # pivot -> the column whose R has it
        self._towers = _towers  # (column j, length) per tower

    @_view
    def _order(self) -> Tuple[str, ...]:
        """The cell ids by rank, read off ``_perm`` on first read."""
        return tuple(map(self.complex._ids.__getitem__, self._perm))

    @_view
    def module(self) -> FUModule:
        return _module_from_counts(self._counts, self.complex._q)

    @_view
    def free_cycles(self) -> Tuple[Tuple[Grading, HomogeneousChain], ...]:
        return tuple(self._chain(self._V[j]) for j in _free_columns(self))

    @_view
    def torsion_pairs(self) -> Tuple[Tuple[HomogeneousChain, HomogeneousChain, int], ...]:
        return tuple(
            (self._chain(self._V[j])[1], self._chain(self._R[j])[1], length)
            for j, length in self._towers
            if length != INFINITE
        )

    @_view
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
        return degree, {order[b]: c.u_power(order[b], degree) for b in _bits(vec)}

    def express(self, chain: HomogeneousChain, degree: Grading):
        """Write the class of a homogeneous cycle over the tower generators.

        Returns a list of (kind, index, U-exponent) with kind "free" or
        "torsion" and index into the corresponding representative tuple;
        torsion coefficients U^c with c at or past the tower length are
        dropped.  Raises ValueError if the input is not a homogeneous cycle,
        names an unknown cell or carries a U-exponent that is not an integer
        k >= 0.
        """
        degree, at, rank = Fraction(degree), self.complex._index, self._rank
        vec = 0
        for cid, exp in chain.items():
            i = at.get(cid)
            if i is None:
                raise ValueError(f"chain mentions unknown cell {cid!r}")
            if type(exp) is not int or exp < 0:
                raise ValueError(f"chain carries invalid U-exponent {exp!r} at {cid!r}")
            if self.complex.degree_of(cid, exp) != degree:
                raise ValueError(f"chain is not homogeneous of degree {degree} at {cid!r}")
            vec |= 1 << rank[i]
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
    # the numerators share the denominator q > 0, so this is (-gr, dim, id),
    # as one integer: the dims differ by less than span and the id ranks are
    # below n, so these sort as the triples do.  perm[r] is the position in
    # ids() of rank r, and rank[i], from the inverse permutation, the rank
    # of position i; nums and dims are read by rank
    adj, q, nums, dims = c._adj, c._q, c._nums, c._dims
    n, span = len(dims), max(dims, default=0) - min(dims, default=0) + 1
    keys = [(d - k * span) * n + r for k, d, r in zip(nums, dims, c._idrank)]
    perm = sorted(range(n), key=keys.__getitem__)
    nums, dims = list(map(nums.__getitem__, perm)), list(map(dims.__getitem__, perm))
    rank = [0] * n
    for r, i in enumerate(perm):
        rank[i] = r

    def column(j):
        col = 0
        for t in adj[perm[j]]:
            col |= 1 << rank[t]
        return col

    # dimensions from the top down, so each pivot is known before its own
    # column is read; the sort is stable, keeping the order within each
    js = sorted(range(n), key=dims.__getitem__, reverse=True)
    R, V, owner = _reduce(column, js, clear=True)

    # a column reducing to zero unpaired is a free tower topped at its own
    # cell; one that pivots at i is a torsion tower topped at i, of length
    # its U-exponent (none when that is 0)
    gens, counts = [], {}
    for j, col in enumerate(R):
        if col:
            top = col.bit_length() - 1
            # the pivot lies above column j by a gap in 2qZ: boundary steps add up
            length = (nums[top] - nums[j]) // (2 * q)
            if not length:
                continue
        elif j in owner:
            continue
        else:
            top, length = j, INFINITE
        gens.append((j, length))
        key = (q * dims[top] + nums[top], length)
        counts[key] = counts.get(key, 0) + 1
    return ReductionResult(c, counts, perm, rank, R, V, owner, tuple(gens))


# -- chain maps ----------------------------------------------------------


def _bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _xor_rows(rows: Sequence[int], mask: int) -> int:
    """The F2 sum of ``rows[b]`` over the set bits b of ``mask``."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def _image_sum(images: Mapping[str, TermSet], terms) -> TermSet:
    """The F2 sum of U^e images[cid] over the terms (cid, e)."""
    # the terms of one image are distinct, so each toggles once
    acc = set()
    for cid, e in terms:
        image = images[cid]
        acc.symmetric_difference_update(image if e == 0 else [(tid, e + k) for tid, k in image])
    return frozenset(acc)


class ChainMap:
    """An F2[U]-linear degree-0 map given on skeleton generators.

    ``assignment[x]`` is the set of (target cell, U-exponent) terms of f(x);
    cells missing from the mapping are sent to zero.  The constructor's one
    pass over the terms validates them, runs the grading check, builds the
    F2 pattern ``_pattern`` (see the module docstring) and keeps
    ``assignment`` as each source cell in ``ids()`` order with its frozenset
    of terms, which a map from ``_derived_map`` builds on first read.  The
    chain verdict is kept from its first read.  Each check returns None or
    the same witness dict on every call.
    """

    def __init__(self, source: GeometricComplex, target: GeometricComplex,
                 assignment: Mapping[str, TermSet]):
        for cid in assignment:
            if cid not in source:
                raise ValueError(f"assignment mentions unknown source cell {cid!r}")
        # degree_of(tid, exp) == M(cid) iff exp is the lift of tid to M(cid)
        at, lift, q = target._index, target._lift, source._q
        norm, pattern, grading = {}, [], None
        for cid, m in zip(source._ids, source._mnum):
            terms, mask, bad = frozenset(assignment.get(cid, ())), 0, []
            for tid, exp in terms:
                i = at.get(tid)
                if i is None:
                    raise ValueError(f"image of {cid!r} mentions unknown target cell {tid!r}")
                if type(exp) is not int or exp < 0:
                    raise ValueError(f"image of {cid!r} carries invalid U-exponent {exp!r}")
                mask |= 1 << i
                if lift(i, m, q) != exp:
                    bad.append([tid, exp])
            if bad and grading is None:
                grading = {
                    "cell": cid,
                    "term": min(bad),  # the first failure in sorted order
                    "reason": "image term does not preserve the Maslov grading",
                }
            norm[cid] = terms
            pattern.append(mask)
        self.source, self.target, self.assignment = source, target, norm
        self._pattern, self._grading = pattern, grading

    @_view
    def assignment(self) -> Dict[str, TermSet]:
        """Each source cell's terms, read off ``_pattern`` (maps from ``_derived_map``)."""
        src, t_ids, lift, q = self.source, self.target._ids, self.target._lift, self.source._q
        return {cid: frozenset([(t_ids[t], lift(t, m, q)) for t in _bits(mask)])
                for cid, m, mask in zip(src._ids, src._mnum, self._pattern)}

    def __call__(self, cid: str) -> TermSet:
        return self.assignment[cid]

    def apply(self, terms: TermSet) -> TermSet:
        return _image_sum(self.assignment, terms)

    # -- checks; each returns None or a witness dict ---------------------

    def _lifted_terms(self, mask: int, m: int) -> List[List]:
        """The target cells of ``mask``, sorted, each with its lift to the degree m over the source's q."""
        ids, lift, q = self.target.ids(), self.target._lift, self.source._q
        return sorted([ids[t], lift(t, m, q)] for t in _bits(mask))

    def grading_witness(self) -> Optional[dict]:
        return self._grading

    @_view
    def _chain_verdict(self) -> Optional[dict]:
        if self._grading is not None:
            return self._grading
        # d(f(x)) against f(d(x)) at each position x, both of degree M(x) - 1
        src, pattern = self.source, self._pattern
        rows = [sum(1 << t for t in ts) for ts in self.target._adj]
        for i, ts in enumerate(src._adj):
            diff = _xor_rows(rows, pattern[i])
            for t in ts:
                diff ^= pattern[t]
            if diff:
                return {
                    "cell": src._ids[i],
                    "difference": self._lifted_terms(diff, src._mnum[i] - src._q),
                    "reason": "d(f(x)) differs from f(d(x))",
                }
        return None

    def chain_witness(self) -> Optional[dict]:
        return self._chain_verdict

    def j_witness(self) -> Optional[dict]:
        src, tgt = self.source, self.target
        if not isinstance(src, SplitComplex) or not isinstance(tgt, SplitComplex):
            raise NotSplit("J-equivariance requires split source and target")
        if self._grading is not None:
            return self._grading
        # f(Jx) against J(f(x)) at each position x, both of degree M(x)
        pattern, j_bits = self._pattern, [1 << jp for jp in tgt._jpos]
        for i, (mask, jp, m) in enumerate(zip(pattern, src._jpos, src._mnum)):
            diff = pattern[jp] ^ _xor_rows(j_bits, mask)
            if diff:
                return {
                    "cell": src._ids[i],
                    "difference": self._lifted_terms(diff, m),
                    "reason": "f(Jx) differs from J(f(x))",
                }
        return None

    def check(self) -> None:
        """Raise NotAChainMap unless grading-preserving and a chain map."""
        w = self.chain_witness()
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


def _derived_map(source: GeometricComplex, target: GeometricComplex, pattern: List[int]) -> ChainMap:
    """The map with F2 pattern ``pattern``, which it stores alone; ``assignment`` is a view.

    Each term is lifted once, and one with no lift raises ``u_power``'s
    ValueError, so the map passes the grading check by construction.
    """
    mnum, q, lift = source._mnum, source._q, target._lift
    for i, mask in enumerate(pattern):
        for t in _bits(mask):
            if lift(t, mnum[i], q) is None:
                target.u_power(target._ids[t], source.maslov(source._ids[i]))  # raises
    f = object.__new__(ChainMap)
    f.source, f.target, f._pattern, f._grading = source, target, pattern, None
    return f


def _same_complex(a: GeometricComplex, b: GeometricComplex) -> bool:
    """Whether a and b are one complex: the same object or equal as JSON."""
    return a is b or complex_to_json(a) == complex_to_json(b)


def compose(outer: ChainMap, inner: ChainMap) -> ChainMap:
    """The composite outer o inner; ValueError unless inner's target is outer's source."""
    if not _same_complex(inner.target, outer.source):
        raise ValueError("maps are not composable: middle complexes disagree")
    assignment = {cid: outer.apply(inner(cid)) for cid in inner.source.ids()}
    return ChainMap(inner.source, outer.target, assignment)


def _is_left_inverse(g: ChainMap, f: ChainMap) -> bool:
    """Whether g o f is the identity, read on patterns.

    Both maps must pass the grading check, and f's target must be g's
    source and g's target f's source (``_same_complex``), so that the
    positions of each pattern index the other's rows.
    """
    rows = g._pattern
    return all(_xor_rows(rows, mask) == 1 << i for i, mask in enumerate(f._pattern))


def _result_of(c: GeometricComplex, result: Optional[ReductionResult], side: str) -> ReductionResult:
    """``result``, or ``homology(c)`` if it is None; ValueError if it reduces another complex."""
    if result is None:
        return homology(c)
    if not _same_complex(result.complex, c):
        raise ValueError(f"the {side} reduction result is not of the map's {side}")
    return result


def induced_map(
    f: ChainMap,
    src_result: Optional[ReductionResult] = None,
    tgt_result: Optional[ReductionResult] = None,
):
    """Classes of f(z) for the free cycles z of the source, in target towers.

    Returns one list of (kind, index, U-exponent) entries per free cycle of
    the source homology, expressed against the target's tower generators.
    Raises ValueError unless the results given reduce f's source and target.
    """
    f.check()
    src_result = _result_of(f.source, src_result, "source")
    tgt_result = _result_of(f.target, tgt_result, "target")
    images = []
    for degree, chain in src_result.free_cycles:
        images.append(tgt_result.express(dict(f.apply(chain.items())), degree))
    return images


def _free_columns(result: ReductionResult) -> List[int]:
    """The columns of ``result``'s free towers, one per unit of free rank."""
    return [j for j, length in result._towers if length == INFINITE]


def is_u_localized_iso(
    f: ChainMap,
    src_result: Optional[ReductionResult] = None,
    tgt_result: Optional[ReductionResult] = None,
) -> bool:
    """True iff f is invertible after inverting U (free ranks must be one).

    Decided at U = 1 on the two reductions (see the module docstring): f is
    an isomorphism after inverting U exactly when it maps the source's free
    cycle to a cycle that is not a boundary at U = 1.  Raises ValueError
    unless both free ranks are one, then NotAChainMap unless f passes the
    grading and chain checks, on which the argument rests.
    """
    src_result = _result_of(f.source, src_result, "source")
    tgt_result = _result_of(f.target, tgt_result, "target")
    free, tgt_free = _free_columns(src_result), _free_columns(tgt_result)
    if len(free) != 1 or len(tgt_free) != 1:
        raise ValueError("U-localized iso test requires free rank one on both sides")
    f.check()
    # f(z) on the target's positions, for z the free cycle as source ranks
    perm, pattern, image = src_result._perm, f._pattern, 0
    for b in _bits(src_result._V[free[0]]):
        image ^= pattern[perm[b]]
    # as target ranks, reduced by the pivots of the target's boundaries
    rank, R, owner = tgt_result._rank, tgt_result._R, tgt_result._owner
    vec = sum([1 << rank[t] for t in _bits(image)])
    while vec:
        p = vec.bit_length() - 1
        if p not in owner:
            return True
        vec ^= R[owner[p]]
    return False
