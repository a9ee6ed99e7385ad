"""Homology of geometric complexes over F2[U], with induced-map support.

Cells are totally ordered by decreasing gr (ties: lower dim first, then id),
so every boundary points strictly earlier and the F2 boundary matrix can be
column-reduced in the persistence style.  The boundary lowers dim by exactly
one, so the matrix splits into one block per dimension: the column of a
cell of dimension d has its rows among the cells of dimension d - 1.  As
standard persistence does with one boundary matrix per dimension (Bauer,
Kerber, Reininghaus & Wagner, "PHAT"), each cell gets a rank within its
own dimension, in the global order restricted to that dimension, which
keeps its relative order there.  Column j of dimension d is R[j], an
integer bitmask over the ranks of dimension d - 1, with V[j], one over the
ranks of d; the columns are built one at a time as the reduction reads
them.  A column of dimension d adds only columns of dimension d, so the
reduction runs one dimension at a time, from the top down, and every
pivot, column addition and clearing step is the one pass over the whole
order would take: only the bit positions differ.  It clears (Chen &
Kerber, "Persistent Homology Computation with a Twist"): a cell already hit
as a pivot by a column one dimension up is a cycle whose column reduces to
zero, so that column is never built, and its V is that column's R, which
already sits on this dimension's ranks.  This needs bdry o bdry = 0, which
every complex has by construction; the result is not defined for a
skeleton without it.  The columns take memory quadratic in the size of
each dimension, not in the number of cells.
The order is computed on the integer numerators that validation stores:
every gr shares one positive denominator, so they order the cells as the
gradings do.  Ties are broken by id through the complex's id ranks
``_idrank`` (a product of prefix-free leaves folds them from its leaves'
without joining an id, see ``complexes``; any other complex sorts its ids
once on first read).  Within one dimension each cell's key (-gr, id) is
one integer, rank - num*n: the ranks lie in [0, n), so the integers sort
as the pairs do, and each dimension's cells are sorted on their own.  The
result stores, per dimension, the positions in ``ids()`` of its cells by
rank (``_perm``, which ``homology`` writes) and the rank of each position
within its dimension (``_rank``).  Every reader of R, V and the pivots maps
a bitmask of ranks back to positions through ``_cells``, the one such map;
the global order is read back on the (-gr, dim, rank) of a position
(``ReductionResult._key``), since cells of two dimensions never tie on
(-gr, dim).  The columns come from positions, through ``_rank``, by one
column builder that reads each cell's boundary row from one of two
sources: a product's ``_off``, offsets from the cell's own position, which
the builder adds to that position, or any other complex's ``_adj``,
positions, to which it adds 0.  So a product's positional rows are never
built for its reduction, no id is looked up while the columns are built
and the reduction builds no map keyed by cell id; ``express`` reaches a
cell's rank through the complex's ``_index``.
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
cycle can be expressed over the homology generators by pivot elimination,
one dimension at a time, since no basis cycle leaves its dimension; that
is what evaluating an induced map needs.  The result keeps the
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
masks differ is the witness, and only then are ids read: ``_witness``, the
one builder of both checks' witness dicts, lists each differing target
cell with its lift to M(x) - 1 for the chain check and to M(x) for the J
check.  A map that fails the grading check has no pattern to check,
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
exactly when its pattern, read at the positions of the source's free cycle
V[j], maps it to a cycle that is not a boundary: one that the target's
pivots (its reduced columns, a basis of the boundaries) do not reduce to
zero in some dimension.  ``induced_map`` and
``express`` still read f(z) over the F2[U] tower generators, where a free
entry is the same verdict.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import filterfalse
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

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
    tower's is R[j], killed by V[j].  The reduction is stored per
    dimension d: R[d][j] and V[d][j] for the cell of rank j within d, over
    the ranks within d - 1 and d, and the pivots of d by rank (see the
    module docstring); ``_cells`` reads a bitmask back as positions.  The
    towers are stored as ``homology`` finds them, one dimension at a time,
    and read in the global order of their columns (``_generators``).  A
    chain's degree is the Maslov degree of its top cell.
    """

    _fields = ("complex", "_counts", "_perm", "_rank", "_R", "_V", "_owner", "_towers")
    __repr__ = _Value.__repr__

    def __init__(self, complex: GeometricComplex, _counts, _perm, _rank, _R, _V, _owner, _towers):
        self.complex = complex
        self._counts = _counts  # (q * M(top), length) -> towers
        self._perm = _perm  # dim -> the positions in complex.ids() of its cells, by rank
        self._rank = _rank  # the rank of each position within its dimension
        self._R = _R  # dim d -> reduced columns, as bitmasks over the ranks of d - 1
        self._V = _V  # dim d -> bitmasks over the ranks of d; R[d][j] sums the columns in V[d][j]
        self._owner = _owner  # dim d -> {pivot rank: the column of d + 1 whose R has it}
        self._towers = _towers  # (position of the column's cell, length) per tower

    def _key(self, i: int) -> Tuple[int, int, int]:
        """Position i's place in the global order (-gr, dim, id).

        Within one dimension the ranks follow that order, and cells of two
        dimensions never tie on (-gr, dim), so no id is compared.
        """
        return -self.complex._nums[i], self.complex._dims[i], self._rank[i]

    @_view
    def _generators(self) -> List[Tuple[int, int, Length]]:
        """(dim, rank, length) of each tower's column, in the global order."""
        dims, rank, key = self.complex._dims, self._rank, self._key
        return [(dims[i], rank[i], length) for i, length in sorted(self._towers, key=lambda t: key(t[0]))]

    @_view
    def module(self) -> FUModule:
        return _module_from_counts(self._counts, self.complex._q)

    @_view
    def free_cycles(self) -> Tuple[Tuple[Grading, HomogeneousChain], ...]:
        return tuple(self._chain(d, self._V[d][j]) for d, j, k in self._generators if k == INFINITE)

    @_view
    def torsion_pairs(self) -> Tuple[Tuple[HomogeneousChain, HomogeneousChain, int], ...]:
        return tuple(
            (self._chain(d, self._V[d][j])[1], self._chain(d - 1, self._R[d][j])[1], length)
            for d, j, length in self._generators
            if length != INFINITE
        )

    @_view
    def _basis(self) -> Dict[Tuple[int, int], Tuple[int, Optional[Tuple[str, int, Length]]]]:
        """(dim, pivot rank) -> (basis cycle, (kind, index, length)), for ``express``.

        A pair that cancels outright (k = 0) has no tower and carries None.
        """
        R, V = self._R, self._V
        basis = {(d, i): (R[d + 1][j], None) for d, own in self._owner.items() for i, j in own.items()}
        count = {"free": 0, "torsion": 0}
        for d, j, length in self._generators:
            kind, e, vec = ("free", d, V[d][j]) if length == INFINITE else ("torsion", d - 1, R[d][j])
            basis[e, vec.bit_length() - 1] = (vec, (kind, count[kind], length))
            count[kind] += 1
        return basis

    def _chain(self, d: int, vec: int) -> Tuple[Grading, HomogeneousChain]:
        """The cells of ``vec`` (ranks within d) as a homogeneous chain at its top cell's degree."""
        ids, c = self.complex._ids, self.complex
        cells = [ids[i] for i in _cells(self._perm, d, vec)]
        degree = c.maslov(cells[0])
        return degree, {cid: c.u_power(cid, degree) for cid in reversed(cells)}

    def _ranks(self, positions: Iterable[int]) -> Dict[int, int]:
        """The cells at ``positions`` as one bitmask per dimension, over the ranks within it."""
        dims, rank, vecs = self.complex._dims, self._rank, {}
        for i in positions:
            vecs[dims[i]] = vecs.get(dims[i], 0) | 1 << rank[i]
        return vecs

    def _position(self, cid: str, exp, degree: Optional[Fraction] = None) -> int:
        """The position of the term U^exp cid, the one check of a chain's terms.

        ValueError unless ``cid`` is a cell and ``exp`` an int k >= 0, and,
        given a degree, unless the term has that degree.
        """
        i = self.complex._index.get(cid)
        if i is None:
            raise ValueError(f"chain mentions unknown cell {cid!r}")
        if type(exp) is not int or exp < 0:
            raise ValueError(f"chain carries invalid U-exponent {exp!r} at {cid!r}")
        if degree is not None and self.complex.degree_of(cid, exp) != degree:
            raise ValueError(f"chain is not homogeneous of degree {degree} at {cid!r}")
        return i

    def express(self, chain: HomogeneousChain, degree: Grading):
        """Write the class of a homogeneous cycle over the tower generators.

        Returns a list of (kind, index, U-exponent) with kind "free" or
        "torsion" and index into the corresponding representative tuple;
        torsion coefficients U^c with c at or past the tower length are
        dropped.  Raises ValueError if the input is not a homogeneous cycle,
        names an unknown cell or carries a U-exponent that is not an integer
        k >= 0.
        """
        degree, c, out, basis = Fraction(degree), self.complex, [], self._basis
        # no basis cycle leaves its dimension, so each dimension is eliminated
        # alone, from its top rank down; the terms then come in the global
        # order of their pivots, from the top down
        for d, vec in self._ranks([self._position(*term, degree) for term in chain.items()]).items():
            while vec:
                cycle, tower = basis.get((d, vec.bit_length() - 1), (None, None))
                if cycle is None:
                    raise ValueError("chain is not a cycle")
                if tower is not None:
                    top = next(_cells(self._perm, d, vec))
                    k = c._lift(top, degree.numerator, degree.denominator)
                    if k < tower[2]:
                        out.append((self._key(top), (tower[0], tower[1], k)))
                vec ^= cycle
        return [term for _, term in sorted(out, reverse=True)]

    def chain_degree(self, chain: HomogeneousChain) -> Grading:
        """The degree of a homogeneous chain at its first term; ValueError as ``express`` raises it."""
        if not chain:
            raise ValueError("an empty chain has no degree")
        for cid, exp in chain.items():
            self._position(cid, exp)
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


def _cells(perm: Mapping[int, Sequence[int]], d: int, vec: int) -> Iterator[int]:
    """The positions of the cells of ``vec``, a bitmask over the ranks within dimension d, top first.

    ``perm[d]`` lists dimension d's positions by rank; this is the one map
    back from the ranks by which R, V and the pivots name cells.  Reading
    only the top costs no big-integer operation.
    """
    while vec:
        yield perm[d][vec.bit_length() - 1]
        vec ^= 1 << vec.bit_length() - 1


def _reduce(rows, relative: bool, cells: Sequence, rank, above: Mapping[int, int],
            R_above: Sequence[int]):
    """Reduce the F2 columns of ``cells``, in order: column j has the bits rank[b + t], t in rows[p].

    Here p = cells[j], and the base b is p when the rows are ``relative``
    (offsets from each cell's position) and 0 when they are positions.

    R[j] is the sum of the columns in V[j], and owner[pivot] = j; the V[j]
    with R[j] == 0 are a basis of the nullspace.  A column adds only the
    columns reduced before it that share its pivot.  ``above`` and
    ``R_above`` are the pivot owners and reduced columns of a matrix whose
    rows are these columns and whose product with this one is zero (the
    dimension above, for clearing): a column that is a pivot there then
    reduces to zero, so it is not built, and V[j] = R_above[above[j]],
    whose columns sum to zero.
    """
    R, V, owner = [0] * len(cells), [0] * len(cells), {}
    for j, k in above.items():
        V[j] = R_above[k]
    for j in filterfalse(above.__contains__, range(len(cells))):
        col, v, p = 0, 1 << j, cells[j]
        base = p if relative else 0
        for t in rows[p]:
            col |= 1 << rank[base + t]
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
    # each dimension's cells in the order (-gr, id), and each position's rank
    # within its dimension; the numerators share the denominator q > 0 and
    # the id ranks lie in [0, n), so the key r - num * n sorts as the pairs do
    q, nums, dims, n = c._q, c._nums, c._dims, len(c._dims)
    keys = [r - k * n for k, r in zip(nums, c._idrank)]
    cells, rank = {d: [] for d in sorted(set(dims), reverse=True)}, [0] * n
    for i, d in enumerate(dims):
        cells[d].append(i)
    for row in cells.values():
        row.sort(key=keys.__getitem__)
        for j, i in enumerate(row):
            rank[i] = j

    # dimensions from the top down, so each pivot is known before its own
    # column is read; owner[d] holds the pivots of d, owned by columns of
    # d + 1 (none across a gap in the dims, whose columns are zero).  Of the
    # columns not cleared, one that pivots at t is a torsion tower topped at
    # t, of length its U-exponent (none when that is 0), and one reducing to
    # zero is a free tower topped at its own cell
    R, V, owner, above, towers, counts = {}, {}, {}, {}, [], {}
    # a product's boundary is read as offsets from each cell (see complexes)
    relative = "_factors" in vars(c)
    rows = c._off if relative else c._adj
    for d, row in cells.items():
        below, owner[d] = cells.get(d - 1), above
        R[d], V[d], above = _reduce(rows, relative, row, rank, above, R.get(d + 1))
        for j in filterfalse(owner[d].__contains__, range(len(row))):
            col, i = R[d][j], row[j]
            t = below[col.bit_length() - 1] if col else i
            # the pivot lies above column i by a gap in 2qZ: boundary steps add up
            length = (nums[t] - nums[i]) // (2 * q) if col else INFINITE
            if length:
                towers.append((i, length))
                key = (q * dims[t] + nums[t], length)
                counts[key] = counts.get(key, 0) + 1
    return ReductionResult(c, counts, cells, rank, R, V, owner, tuple(towers))


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
    pass over the terms validates them, runs the grading check, whose
    witness it keeps as ``_grading``, builds the F2 pattern ``_pattern``
    (see the module docstring) and keeps ``assignment`` as each source cell
    in ``ids()`` order with its frozenset of terms, which a map from
    ``_derived_map`` builds on first read.  The
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

    def _witness(self, i: int, diff: int, m: int, reason: str) -> dict:
        """The witness at source position i: the target cells of ``diff``, sorted, each lifted to m.

        m is a degree over the source's q.
        """
        ids, lift, q = self.target._ids, self.target._lift, self.source._q
        return {
            "cell": self.source._ids[i],
            "difference": sorted([ids[t], lift(t, m, q)] for t in _bits(diff)),
            "reason": reason,
        }

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
                return self._witness(i, diff, src._mnum[i] - src._q, "d(f(x)) differs from f(d(x))")
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
                return self._witness(i, diff, m, "f(Jx) differs from J(f(x))")
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


def _free_columns(result: ReductionResult) -> List[Tuple[int, int]]:
    """The (dim, rank) of ``result``'s free columns, one per unit of free rank, in stored order."""
    return [(result.complex._dims[i], result._rank[i]) for i, k in result._towers if k == INFINITE]


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
    # f(z) on the target's positions, for z the free cycle
    (d, j), pattern, image = free[0], f._pattern, 0
    for i in _cells(src_result._perm, d, src_result._V[d][j]):
        image ^= pattern[i]
    # as target ranks, each dimension reduced by the pivots of its boundaries
    R, owner = tgt_result._R, tgt_result._owner
    for e, vec in tgt_result._ranks(_bits(image)).items():
        while vec:
            p = vec.bit_length() - 1
            if p not in owner[e]:
                return True
            vec ^= R[e + 1][owner[e][p]]
    return False
