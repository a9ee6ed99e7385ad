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
construction.  One more integer table is built on first use: ``_mnum``,
q times the Maslov grading at each position, on which ``_lift`` works for
``u_power``, the grading check of a chain map and the local maps alike.
``fu_bdry`` states the derived differential: the exponent of each
boundary term is (num(target) - num(cell)) // 2q.

A split complex is a geometric complex with a cell-level involution J
commuting with the boundary and fixing exactly one cell, so every operation
here accepts either kind.  It is built from an already validated geometric
complex and reuses that validation: it takes over the boundary and the
grading tables and checks only J.

A splitting picks one cell of each J-pair.  Inside the library it is a
``_Flags`` object, one byte per position, 1 at each chosen cell, and
``_flags`` is the one way in: it checks a given id splitting once and turns
it into flags, takes ``None`` for the canonical splitting, passes flags
unchecked and raises ``NotSplit`` for a complex that is not split.  The
canonical splitting, the smaller id of each J-pair, is stated once, as the
``_canon`` flags; ``pairs()``, ``canonical_splitting`` and the JSON's ``J``
list read them.  Only ``dual`` and ``double`` store flags, and neither
creates a prefix pair, one whose smaller id is a proper prefix of the
other.  ``double`` keeps its input's ids, so it stores its input's flags
plus the new pair's.  Starring every id keeps the order of every pair but a
prefix pair, which it may flip ("a" < "a!" but "a!*" < "a*"); so each split
complex has ``_prefixed``, the positions whose id is a proper prefix of
their partner's, and ``dual`` stores its input's flags only when that is
empty.  Otherwise it stores no splitting field, and ``_canon``,
``_prefixed`` and ``_named`` are built from its starred ids on first read.
No pair of a representative is a prefix pair.  ``_named`` is the set of ids
that ``doubling`` may give a new cell (those matching ``_NEW_NAME``); its
name probe reads it in place of the ids, and it is empty for a dual, whose
ids all end in ``*``.

Instances are immutable.  They store their cells by position: ``_ids``
is the tuple that ``ids()`` returns, and in that order ``_dims`` and
``_nums`` list each cell's dimension and its gr numerator over q (always
tau's denominator), ``_adj`` each cell's boundary as a tuple of positions
and ``_coadj``, the transpose of ``_adj``, each cell's coboundary.  A split
complex also stores ``_jpos``, the position of each cell's J-partner, and
``_fpos``, the position of its fixed cell.  A product stores its leaves
instead of these tables, and a complex derived by ``dual`` or ``double``
its form in place of ``_ids``, ``_dims`` and ``_nums`` (see below).  One
private step, ``_store``, assigns every stored field (these tables, the
leaves or the form, tau, the width, and where its caller has them,
``_coadj``, ``_index`` and the splitting fields ``_canon``, ``_prefixed``
and ``_named``), and every construction ends there.  The id-keyed tables
are views built on first read: ``bdry`` (each boundary as a frozenset of
ids), ``J`` (each id's partner), the ``Cell`` objects of ``cells``,
``fixed`` (the fixed cell's id) and ``_index`` (each id's position); so
are ``_mnum``, by position, and ``_coadj`` and the splitting fields where
they are not stored.  A complex that is only reduced, mapped or derived from
never builds the id tables: ``dual`` and ``double`` store no index, so
``representative`` builds none.  ``fu_bdry``, the suite and the JSON read
``bdry``, a given splitting or chain the index, all else the positions.

Complexes that enter from outside (the public constructors, the builders,
``complex_from_json``) are validated in full on positions: ids are mapped
to positions once, every check reads the positional tables, and ``_store``
keeps them with the index; the id tables and the coboundary stay views.
``_indexed`` is the one map from ids to positions: validation, ``tensor``
and the ``_index`` view build the index with it, and it names the first
repeated id.
``dual``, ``tensor`` and ``double`` derive new complexes from validated
ones and are valid by construction: each computes the positional tables
(``tensor`` the leaves), tau, the width, J and the fixed cell of its
result from its inputs, and ``_derived`` stores them without validating
again; tau is one ``Fraction`` made from its integer numerator and
denominator, with no ``Fraction`` arithmetic.  ``dual`` keeps every
position, so it shares ``_jpos``, carries the splitting fields unless its
input has a prefix pair, and swaps boundary and coboundary: its ``_adj`` is
its input's ``_coadj`` and its ``_coadj`` its input's ``_adj``; it builds
no list at all.  ``double`` copies its input's tables and edits the cells
next to eta in both (see ``doubling``).

The result of ``dual``, or of ``double`` of such a result, is a
``_Starred`` (``_SplitStarred`` when split), which stores its form
(``_form``): ``_stems``, each cell's id without the stars of later duals;
``_born``, the number of duals applied when each cell was made;
``_stars``, the number applied so far; the base lists ``_bdims`` and
``_bnums`` with one ``_sign`` and two offsets, ``_doff`` and ``_noff``;
and ``_lo`` and ``_hi``, the least and greatest dim (both 0 for no cell).
A cell's id is its stem plus ``_stars - born`` stars, and its dim and
numerator are ``_doff + _sign*d`` and ``_noff + _sign*k`` for its base
entries d and k.  ``_ids``, ``_dims`` and ``_nums`` are views of the class
pair built from the form on first read; as for a product, a view of the
same name on ``GeometricComplex`` would slow every read of another
complex's stored table.  ``max_dim`` reads ``_hi``, ``_min_dim`` ``_lo``
and ``len`` the length of ``_born``.  A dual maps d to n - d and k to -n*q - k for n = ``_hi``,
an affine map again: it shares its input's stems, birth counts and base
lists, adds one to ``_stars``, negates the sign, takes the offsets to n -
``_doff`` and -n*q - ``_noff`` and its dims span 0 to n - ``_lo``.
``double`` drops eta's stem and appends its three new names, born at
``_stars``, and their gradings to the base lists in stored coordinates.
Any other complex is its own stems at zero stars under the identity map,
so its dual and its double take the same path; its double, whose form is
then its own tables, stores them as a plain split complex.  ``decompose``
and ``double`` name the few cells they report through the stems (``_id``),
so no step of ``representative`` builds the ids.

A product keeps ``_factors``, the flat tuple of its leaves: a factor that
is not a product is one leaf, and so is a product once one of its tables
(``_PRODUCT_TABLES``) is read; an unread product is flattened into its
leaves.  It is a ``_Product`` (``_SplitProduct`` when split), whose views
build these tables, so every other complex reads its stored tables as
plain instance fields: a view of the same name on its class would slow
every such read.  Each table is folded once from the leaves (``_mixed``),
in mixed radix (Van Loan, "The ubiquitous Kronecker product"): with stride
s_m the product of the later leaves' sizes, cell (i_1, ..., i_k) sits at
i_1*s_1 + ... + i_k*s_k, u-major, as in any nesting of pairwise products.
Dims add; gr numerators add over the product of the leaf denominators and
are divided back to q once; J and the id ranks add the leaves' entries
times their strides.  ``_off`` holds each boundary as offsets from the
cell's own position: a boundary pair moves leaf m from i to t, so the cell
moves by (t - i)*s_m, and a row is the leaves' scaled offset rows joined.
``homology`` reduces a product on ``_off``; ``_adj`` (position plus
offset) serves the readers that want positions.  A complex that is not a
product reads ``_off`` off its ``_adj``.

Every complex has the first-read views ``_prefix_free`` (no id is a proper
prefix of another) and ``_idrank`` (the rank of each id in sorted order).
For prefix-free U and V, the ids ``u1⊗v1`` and ``u2⊗v2`` first differ
inside the u's, or inside the v's when u1 = u2; so they are distinct,
prefix-free again and sorted as (rank u, rank v).  A product of
prefix-free leaves stores ``_prefix_free`` and folds its ranks, and joins
its ids only when they are read.  Otherwise ``tensor`` joins the ids at
once and checks them for repeats (``"a⊗b" ⊗ "c"`` and ``"a" ⊗ "b⊗c"``),
raising the constructor's error.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import prod
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from .errors import InvalidComplex, NotSplit
from .towers import INFINITE, Grading, _Value, _view, grading_from_json, grading_to_str

#: An F2 chain in a skeleton: the set of cells with coefficient 1.
Chain = FrozenSet[str]

TENSOR_SEP = "⊗"  # the id of a product cell is "left⊗right"

# a name doubling gives a new cell, of the suffix k >= 1: "" for k = 1, str(k) from k = 2
_NEW_NAME = re.compile(r"(?:omega|J\.omega|theta)([2-9]|[1-9][0-9]+)?")


class _Flags(bytes):
    """A checked splitting of one split complex: 1 at each chosen position, else 0."""


class Cell(_Value):
    _fields = ("id", "dim", "gr")

    def __init__(self, id: str, dim: int, gr: Grading):
        if not isinstance(id, str) or not id:
            raise InvalidComplex(f"cell id must be a non-empty string, got {id!r}")
        if type(dim) is not int:
            raise InvalidComplex(f"cell {id!r} has non-integer dimension {dim!r}")
        if type(gr) is not Fraction:
            gr = Fraction(gr)
        self._set(id, dim, gr)

    @property
    def maslov(self) -> Grading:
        return self.gr + self.dim


def _indexed(ids: Tuple[str, ...]) -> Dict[str, int]:
    """Each id's position in ``ids``: the one map from ids to positions.

    InvalidComplex names the first id that repeats.
    """
    at = dict(zip(ids, range(len(ids))))
    if len(at) != len(ids):
        seen = set()
        for cid in ids:
            if cid in seen:
                raise InvalidComplex(f"duplicate cell id {cid!r}")
            seen.add(cid)
    return at


def _bdry_squared_error(ids: Tuple[str, ...], adj: List[Tuple[int, ...]]) -> Optional[str]:
    """A message naming the first cell where bdry o bdry (positions ``adj``) is nonzero, or None."""
    # acc is empty again after every cell passes
    acc = set()
    for cid, ts in zip(ids, adj):
        for t in ts:
            acc.symmetric_difference_update(adj[t])
        if acc:
            return f"bdry^2 is nonzero at cell {cid!r} (hits {sorted(map(ids.__getitem__, acc))})"
    return None


class GeometricComplex:
    """Skeleton plus grading function; see the module docstring."""

    def __init__(self, cells: Iterable[Cell], bdry: Mapping[str, Iterable[str]],
                 tau: Grading = None):
        """Map ids to positions once, check a new complex on them in ``bdry``'s order; store it."""
        cells, bdry = tuple(cells), dict(bdry)
        ids = tuple([c.id for c in cells])
        at = _indexed(ids)
        sources = list(map(at.get, bdry))
        if None in sources:
            raise InvalidComplex(f"bdry source {list(bdry)[sources.index(None)]!r} is not a cell")
        if tau is None:
            tau = cells[0].gr if cells else Fraction(0)
        tau = Fraction(tau) % 2
        # every gr shares tau's reduced denominator q (see the module
        # docstring), so the checks below compare integer numerators
        p, q = tau.numerator, tau.denominator
        two_q = 2 * q
        nums = []
        for c in cells:
            k, d = c.gr.as_integer_ratio()
            if d != q or (k - p) % two_q:
                raise InvalidComplex(f"cell {c.id!r} has gr {c.gr} outside the coset tau={tau} + 2Z")
            nums.append(k)
        dims = [c.dim for c in cells]
        adj = [()] * len(ids)
        min_gap = None
        for cid, s, targets in zip(bdry, sources, bdry.values()):
            if isinstance(targets, str):  # would be read as its characters
                raise InvalidComplex(
                    f"boundary of {cid!r} must be a collection of ids, got {targets!r}"
                )
            targets = tuple(targets)
            row = tuple(map(at.get, targets))
            e_dim, e_num = dims[s] - 1, nums[s]
            for tid, t in zip(targets, row):
                if t is None:
                    raise InvalidComplex(f"boundary of {cid!r} mentions unknown cell {tid!r}")
                if dims[t] != e_dim:
                    raise InvalidComplex(
                        f"boundary pair ({cid!r}, {tid!r}) is not of dimensional degree -1"
                    )
                gap = nums[t] - e_num
                if gap < 0:
                    raise InvalidComplex(f"grading decreases along boundary pair ({cid!r}, {tid!r})")
                if min_gap is None or gap < min_gap:
                    min_gap = gap
            if len(set(row)) < len(row):  # over F2 a pair listed twice would cancel
                tid = next(t for k, t in enumerate(targets) if t in targets[:k])
                raise InvalidComplex(f"boundary pair ({cid!r}, {tid!r}) appears more than once")
            adj[s] = row
        error = _bdry_squared_error(ids, adj)
        if error:
            raise InvalidComplex(error)
        _store(self, ids, dims, adj, tau, nums, INFINITE if min_gap is None else min_gap // q,
               index=at)

    @_view
    def cells(self) -> Dict[str, Cell]:
        """The cells by id, built from the grading tables on first read."""
        q = self._q
        return {cid: Cell(cid, d, Fraction(k, q))
                for cid, d, k in zip(self._ids, self._dims, self._nums)}

    @_view
    def bdry(self) -> Dict[str, Chain]:
        """Each cell's boundary as a set of ids, built from ``_adj`` on first read."""
        ids = self._ids
        return {cid: frozenset(map(ids.__getitem__, ts)) for cid, ts in zip(ids, self._adj)}

    @_view
    def _coadj(self) -> List[Tuple[int, ...]]:
        """Each cell's coboundary as positions: ``_adj`` transposed, sources in cell order."""
        sources = [[] for _ in self._adj]
        for src, ts in enumerate(self._adj):
            for t in ts:
                sources[t].append(src)
        return list(map(tuple, sources))

    @_view
    def _index(self) -> Dict[str, int]:
        """Each cell's position in ``ids()``, built by ``_indexed``."""
        return _indexed(self._ids)

    @_view
    def _born(self) -> List[int]:
        """Each cell's star count when it was made: 0, as no ``dual`` derived it."""
        return [0] * len(self)

    @_view
    def _off(self) -> List[Tuple[int, ...]]:
        """Each cell's boundary as offsets t - i from its own position i, read off ``_adj``."""
        return [tuple([t - i for t in ts]) for i, ts in enumerate(self._adj)]

    @_view
    def _prefix_free(self) -> bool:
        """Whether no id is a proper prefix of another.

        A prefix sorts before its extensions and every id between them
        extends it too, so neighbours in sorted order are enough to compare;
        the ids are placed in that order by ``_idrank``, not sorted again.
        """
        s = [None] * len(self._ids)
        for cid, r in zip(self._ids, self._idrank):
            s[r] = cid
        return not any(map(str.startswith, s[1:], s))

    @_view
    def _idrank(self) -> List[int]:
        """The rank of each position's id in sorted order, by which ``homology`` breaks ties."""
        ids = self._ids
        rank = [0] * len(ids)
        for r, i in enumerate(sorted(range(len(ids)), key=ids.__getitem__)):
            rank[i] = r
        return rank

    # -- basic accessors ------------------------------------------------

    def ids(self) -> Tuple[str, ...]:
        return self._ids

    def _id(self, p: int) -> str:
        """The id at position p, which a derived complex reads off its stems."""
        return self._ids[p]

    def __len__(self) -> int:
        return len(self._dims)

    def __contains__(self, cid: str) -> bool:
        return cid in self._index

    def maslov(self, cid: str) -> Grading:
        return Fraction(self._mnum[self._index[cid]], self._q)

    def max_dim(self) -> int:
        return max(self._dims, default=0)

    def _min_dim(self) -> int:
        return min(self._dims, default=0)

    def degree_of(self, cid: str, k: int) -> Grading:
        """Maslov degree M(cid) - 2k of the chain U^k cid."""
        return self.maslov(cid) - 2 * k

    def u_power(self, cid: str, degree: Grading) -> int:
        """The k >= 0 with ``degree_of(cid, k) == degree``; ValueError if none."""
        k = self._lift(self._index[cid], degree.numerator, degree.denominator)
        if k is None:
            raise ValueError(f"degree {degree} is not M({cid!r}) - 2k for an integer k >= 0")
        return k

    def fu_bdry(self, cid: str) -> Dict[str, int]:
        """Derived F2[U]-differential of a cell as {target: U-exponent}."""
        at, nums, two_q = self._index, self._nums, 2 * self._q
        k = nums[at[cid]]
        return {tid: (nums[at[tid]] - k) // two_q for tid in self.bdry[cid]}

    def width(self) -> Union[int, float]:
        """Twice the minimal U-exponent in the differential; INFINITE if d = 0."""
        return self._width

    # -- integer tables for the chain-map checks, built on first use --------

    @_view
    def _mnum(self) -> List[int]:
        """q * M(cell) for every position: the Maslov gradings over the shared q."""
        q = self._q
        return [k + q * d for k, d in zip(self._nums, self._dims)]

    def _lift(self, i: int, m: int, q: int) -> Optional[int]:
        """The k >= 0 with M - 2k == m / q (q > 0) for M the Maslov grading at position i, or None.

        This is the one lift rule.  Both sides are cross-multiplied by the
        two denominators, so ``m / q`` may come from another complex.
        """
        p = self._q
        k, rest = divmod(self._mnum[i] * q - m * p, 2 * p * q)
        return None if rest or k < 0 else k


class SplitComplex(GeometricComplex):
    """A geometric complex with an involution J having exactly one fixed cell.

    The boundary and grading tables are taken over from ``base``, which its
    own construction has already validated; only J is checked here, on
    positions, and ``base``'s index is kept.
    """

    #: the least suffix that ``doubling``'s name probe may find free here
    _fresh_from = 1

    def __init__(self, base: GeometricComplex, J: Mapping[str, str]):
        J = dict(J)
        ids, dims, nums, adj, at = base._ids, base._dims, base._nums, base._adj, base._index
        if J.keys() != at.keys():
            raise NotSplit("J must be defined on exactly the cells of the complex")
        jpos = [at.get(J[cid]) for cid in ids]
        fixed = []
        for cid, jid in J.items():
            p = at[cid]
            jp = jpos[p]
            if jp is None:
                raise NotSplit(f"J sends {cid!r} to unknown cell {jid!r}")
            if jpos[jp] != p:
                raise NotSplit(f"J is not an involution on the pair ({cid!r}, {jid!r})")
            # gradings of the validated base share one denominator
            if dims[p] != dims[jp] or nums[p] != nums[jp]:
                raise NotSplit(f"J does not preserve the gradings of ({cid!r}, {jid!r})")
            if jp == p:
                fixed.append(cid)
        if len(fixed) != 1:
            raise NotSplit(f"exactly one J-fixed cell required, found {sorted(fixed)}")
        # J(d(c)) = d(Jc): J carries the row of each cell onto its partner's
        for cid, ts, jp in zip(ids, adj, jpos):
            if {jpos[t] for t in ts} != set(adj[jp]):
                raise NotSplit(f"J does not commute with bdry at cell {cid!r}")
        _store(self, ids, dims, adj, base.tau, nums, base._width, jpos, at[fixed[0]], index=at)

    @_view
    def fixed(self) -> str:
        """The fixed cell's id, read from ``_fpos`` on first read."""
        return self._ids[self._fpos]

    @_view
    def J(self) -> Dict[str, str]:
        """Each cell's J-partner by id, built from ``_jpos`` on first read."""
        ids = self._ids
        return dict(zip(ids, map(ids.__getitem__, self._jpos)))

    @_view
    def _canon(self) -> _Flags:
        """The canonical splitting as flags, 1 at the smaller id of each J-pair: the one rule."""
        ids = self._ids
        return _Flags([cid < ids[jp] for cid, jp in zip(ids, self._jpos)])

    @_view
    def _prefixed(self) -> Tuple[int, ...]:
        """The positions whose id is a proper prefix of their J-partner's."""
        ids = self._ids
        return tuple([p for p, jp in enumerate(self._jpos) if p != jp and ids[jp].startswith(ids[p])])

    @_view
    def _named(self) -> FrozenSet[str]:
        """The ids that match ``_NEW_NAME``, against which ``doubling`` probes new names."""
        return frozenset(filter(_NEW_NAME.fullmatch, self._ids))

    def pairs(self) -> Iterator[Tuple[str, str]]:
        """The two-element J-orbits in ``ids()`` order, each once, its ``_canon`` cell first."""
        ids = self._ids
        for cid, jp, flag in zip(ids, self._jpos, self._canon):
            if flag:
                yield cid, ids[jp]


class _Product(GeometricComplex):
    """A tensor product stored as its leaves, ``_factors``; its tables are views (see ``tensor``)."""

    @_view
    def _ids(self) -> Tuple[str, ...]:
        return _joined_ids(self._factors)

    @_view
    def _strides(self) -> List[int]:
        """Each leaf's place value in the positions: the product of the later leaves' sizes."""
        out, s = [], 1
        for f in reversed(self._factors):
            out.append(s)
            s *= len(f)
        return out[::-1]

    @_view
    def _dims(self) -> List[int]:
        return _mixed([f._dims for f in self._factors])

    @_view
    def _nums(self) -> List[int]:
        """The leaves' numerators summed over the product of their denominators, then over q."""
        qs = [f._q for f in self._factors]
        big = prod(qs)
        sums = _mixed([f._nums if p == big else [k * (big // p) for k in f._nums]
                       for f, p in zip(self._factors, qs)])
        r = big // self._q
        return sums if r == 1 else [s // r for s in sums]

    @_view
    def _off(self) -> List[Tuple[int, ...]]:
        """The leaves' offset rows, each scaled by its leaf's stride, concatenated."""
        return _mixed([f._off if s == 1 else [tuple([o * s for o in row]) for row in f._off]
                       for f, s in zip(self._factors, self._strides)])

    @_view
    def _adj(self) -> List[Tuple[int, ...]]:
        """Each position plus its ``_off`` row."""
        return [tuple([i + o for o in row]) for i, row in enumerate(self._off)]

    @_view
    def _idrank(self) -> List[int]:
        """The leaves' ranks times their strides, summed, if ``tensor`` stored ``_prefix_free``.

        It stores it, before any rank is read, only when every leaf is
        prefix-free (see the module docstring); otherwise the ids are sorted.
        """
        if vars(self).get("_prefix_free"):
            return _mixed(_placed(self, "_idrank"))
        return GeometricComplex._idrank.build(self)


class _SplitProduct(_Product, SplitComplex):
    """A tensor product of split complexes, stored as its leaves."""

    @_view
    def _jpos(self) -> List[int]:
        return _mixed(_placed(self, "_jpos"))


class _Starred(GeometricComplex):
    """A complex derived by ``dual`` or ``double``, stored in its form (``_form``).

    Its ids, dims and gr numerators are views of that form: each id its
    stem plus one star for each dual since the cell was made, and the
    gradings the base lists under the one affine map.
    """

    @_view
    def _ids(self) -> Tuple[str, ...]:
        stars = self._stars
        return tuple([s + "*" * (stars - b) for s, b in zip(self._stems, self._born)])

    @_view
    def _dims(self) -> List[int]:
        return _affine(self._bdims, self._sign, self._doff)

    @_view
    def _nums(self) -> List[int]:
        return _affine(self._bnums, self._sign, self._noff)

    def _id(self, p: int) -> str:
        return self._stems[p] + "*" * (self._stars - self._born[p])

    def __len__(self) -> int:
        return len(self._born)

    def max_dim(self) -> int:
        return self._hi

    def _min_dim(self) -> int:
        return self._lo


class _SplitStarred(_Starred, SplitComplex):
    """A split complex derived by ``dual`` or ``double``, stored in its form."""


def _affine(base: List[int], sign: int, off: int) -> List[int]:
    """off + sign * v for each v of ``base``; ``base`` itself under the identity."""
    if sign < 0:
        return [off - v for v in base]
    return [off + v for v in base] if off else base


def _form(c: GeometricComplex) -> tuple:
    """The stored form of ``c`` (see the module docstring) but its birth counts and dim span.

    (stems, stars, base dims, base nums, sign, dim offset, num offset); a
    complex not derived by ``dual`` or ``double`` is its own stems at zero
    stars under the identity map.  ``_born``, ``_min_dim`` and ``max_dim``
    read the rest, which is built only for a ``_Starred`` result.
    """
    if isinstance(c, _Starred):
        return c._stems, c._stars, c._bdims, c._bnums, c._sign, c._doff, c._noff
    return c._ids, 0, c._dims, c._nums, 1, 0, 0


def _store(c: GeometricComplex, ids: Optional[Tuple[str, ...]], dims: Optional[List[int]],
           adj: Optional[List[Tuple[int, ...]]], tau: Grading, nums: Optional[List[int]],
           width: Union[int, float], jpos: Optional[List[int]] = None, fpos: Optional[int] = None,
           coadj: Optional[List[Tuple[int, ...]]] = None,
           index: Optional[Dict[str, int]] = None, canon: Optional[_Flags] = None,
           prefixed: Tuple[int, ...] = (), named: FrozenSet[str] = frozenset(),
           factors: Optional[tuple] = None, prefix_free: bool = False,
           form: Optional[tuple] = None) -> GeometricComplex:
    """Assign the stored fields of ``c``; nothing else assigns them, but for one.

    ``doubling.double`` sets ``_fresh_from`` on the double after ``_derived``
    returns.  The ``revalidate_derived`` fixture of ``tests/conftest.py``
    takes its snapshot of a derived complex before that assignment, so
    ``test_fresh_names_equal_the_probe_from_one`` checks that field instead.

    ``ids``, ``dims``, ``nums``, ``adj`` and, for a split complex, ``jpos``
    and ``canon`` are in one order, which is ``ids()``; ``adj``, ``jpos``
    and ``prefixed`` hold positions in it, as does ``fpos``, the fixed
    cell's.  ``tau`` is reduced mod 2, and ``nums`` holds the gr numerators
    over its denominator ``_q``.  ``coadj``, ``index`` and a split
    complex's splitting fields (``canon`` with ``prefixed`` and ``named``)
    are stored when the caller has them, and otherwise built on first
    read, as ``fixed`` always is.  A product passes its leaves as
    ``factors`` in place of the tables, which are then built on first read,
    and ``prefix_free`` when every leaf is prefix-free; otherwise it passes
    the ids and the index too (see ``tensor``).  A result of ``dual`` or
    ``double`` passes its ``form``: stems, birth counts, stars, base dims and
    numerators, sign, the two offsets and the least and greatest dim, in
    place of the ids, dims and numerators;
    its base lists are stored as ``_bdims`` and ``_bnums`` and its ids,
    dims and numerators are then built on first read.
    The fields are assigned in one fixed order, the ids or the form first.
    """
    if form is not None:
        (c._stems, c._born, c._stars, c._bdims, c._bnums, c._sign, c._doff, c._noff, c._lo,
         c._hi) = form
    elif ids is not None:
        c._ids = ids
    if factors is None:
        if form is None:
            c._dims, c._nums = dims, nums
        c._adj = adj
        if jpos is not None:
            c._jpos = jpos
    else:
        c._factors = factors
        if prefix_free:
            c._prefix_free = True
    c.tau, c._q, c._width = tau, tau.denominator, width
    if fpos is not None:
        c._fpos = fpos
    if coadj is not None:
        c._coadj = coadj
    if index is not None:
        c._index = index
    if canon is not None:
        c._canon, c._prefixed, c._named = canon, prefixed, named
    return c


def _derived(cls, ids, dims, adj, tau, nums, width, jpos=None, fpos=None, coadj=None,
             index=None, canon=None, prefixed=(), named=frozenset(), factors=None,
             prefix_free=False, form=None) -> GeometricComplex:
    """The result of ``dual``, ``tensor`` or ``double``, stored by ``_store`` unchecked.

    The caller names its class ``cls``: ``GeometricComplex`` or
    ``SplitComplex``, or for a product ``_Product`` or ``_SplitProduct``.
    """
    return _store(object.__new__(cls), ids, dims, adj, tau, nums, width, jpos, fpos, coadj, index,
                  canon, prefixed, named, factors, prefix_free, form)


# -- splittings ---------------------------------------------------------


def canonical_splitting(sc: SplitComplex) -> FrozenSet[str]:
    """Lexicographically smallest member of each J-orbit pair; NotSplit unless ``sc`` is split."""
    flags = _flags(sc, None)
    return frozenset(compress(sc._ids, flags))


def _flags(sc: SplitComplex, splitting) -> _Flags:
    """A splitting of ``sc`` as flags; NotSplit unless ``sc`` is split.

    This is the one check of a given splitting.  ``None`` stands for the
    canonical one, ``_canon``, and flags pass as they are; a collection of
    ids is checked in full, and the first cell that fails, in sorted order,
    is named.
    """
    if type(splitting) is _Flags:
        return splitting
    if not isinstance(sc, SplitComplex):
        raise NotSplit("a splitting requires a split complex")
    if splitting is None:
        return sc._canon
    if isinstance(splitting, str):  # would be read as its characters
        raise ValueError(f"a splitting must be a collection of cell ids, got {splitting!r}")
    chosen = tuple(splitting)
    if sc.fixed in chosen:
        raise ValueError("a splitting never contains the fixed cell")
    # ids are strings, and only strings can be hashed and ordered below
    odd = next((cid for cid in chosen if not isinstance(cid, str)), None)
    if odd is not None:
        raise ValueError(f"splitting mentions unknown cell {odd!r}")
    chosen = frozenset(chosen)
    ids, at, jpos = sc._ids, sc._index, sc._jpos
    for cid in sorted(chosen):
        p = at.get(cid)
        if p is None:
            raise ValueError(f"splitting mentions unknown cell {cid!r}")
        if ids[jpos[p]] in chosen:
            raise ValueError(f"splitting contains both members of the pair ({cid!r}, {ids[jpos[p]]!r})")
    if len(chosen) * 2 + 1 != len(sc):
        raise ValueError("splitting must pick exactly one cell from each J-pair")
    return _Flags(map(chosen.__contains__, ids))


def decompose(sc: SplitComplex, chain: Iterable[str], chosen: Iterable[str]):
    """Write a chain uniquely as a + (1+J)b + eps*eta with a, b in the splitting.

    Per pair {c, Jc} with c chosen: c alone contributes to a; Jc alone
    contributes c to both a and b (Jc = c + (1+J)c over F2); both contribute
    c to b.  Returns (a, b, eps).  ``chosen`` is checked as ``double``
    checks a splitting, and then the chain, whose first unknown cell is
    named.  ``double`` passes its checked flags, and the chain as positions.
    """
    if type(chosen) is _Flags:
        chain = set(chain)
    else:
        chosen, at, positions = _flags(sc, chosen), sc._index, set()
        for cid in chain:
            p = at.get(cid) if isinstance(cid, str) else None
            if p is None:
                raise ValueError(f"chain mentions unknown cell {cid!r}")
            positions.add(p)
        chain = positions
    jpos, name = sc._jpos, sc._id
    # c of a pair alone or Jc alone gives c to a, and Jc, alone or not, c to b
    a = {p if chosen[p] else jpos[p] for p in chain if jpos[p] not in chain}
    b = {jpos[p] for p in chain if not chosen[p] and jpos[p] != p}
    eps = 1 if sc._fpos in chain else 0
    return frozenset(map(name, a)), frozenset(map(name, b)), eps


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


#: the tables a product builds from its leaves; once one is read, the product is a leaf
_PRODUCT_TABLES = frozenset(("_ids", "_dims", "_nums", "_off", "_adj", "_jpos", "_idrank"))


def tensor(c1: GeometricComplex, c2: GeometricComplex) -> GeometricComplex:
    """Tensor product: cells are pairs, dim and gr add, Leibniz boundary.

    Cell (i, j), the pair of the i-th cell of c1 and the j-th of c2, sits at
    position i*n2 + j, n2 = len(c2): cells are listed u-major.  The product
    stores the leaves of both factors, a factor being flattened into its
    own while none of its tables is read, and folds each table from them in
    mixed radix on first read (see the module docstring); so an iterated
    tensor builds no intermediate product.  Its boundary d(u⊗v) = du⊗v +
    u⊗dv is ``_off``, the leaves' offset rows joined.  If both factors are
    split the product is split with J acting coordinatewise; its fixed cell
    is the pair of fixed cells.  A sum of gradings from the cosets of tau1
    and tau2 lies in the coset of their sum, whose reduced denominator is
    q.  Each boundary pair of the product moves one factor along a boundary
    pair of that factor, so the width is the least factor width, counting a
    factor only when the other has cells.  The id of cell (i, j) is "u⊗v".
    """
    leaves1, leaves2 = _leaves(c1), _leaves(c2)
    n1, n2 = prod(map(len, leaves1)), prod(map(len, leaves2))
    q1, q2 = c1._q, c2._q
    q12 = q1 * q2
    # tau1 + tau2 mod 2, over q1*q2; Fraction reduces it to the denominator q
    tau = Fraction((c1.tau.numerator * q2 + c2.tau.numerator * q1) % (2 * q12), q12)
    least = min(c1._width if n2 else INFINITE, c2._width if n1 else INFINITE)
    split = isinstance(c1, SplitComplex) and isinstance(c2, SplitComplex)
    # a product whose ids were joined here is a leaf of the next, so free
    # holds exactly when every leaf is prefix-free, as ``_idrank`` needs
    leaves, free, ids, at = leaves1 + leaves2, c1._prefix_free and c2._prefix_free, None, None
    if not free:
        ids = _joined_ids(leaves)
        at = _indexed(ids)
    cls, fpos = (_SplitProduct, c1._fpos * n2 + c2._fpos) if split else (_Product, None)
    return _derived(cls, ids, None, None, tau, None, least, None, fpos, index=at, factors=leaves,
                    prefix_free=free)


def _leaves(c: GeometricComplex) -> tuple:
    """The leaves ``c`` stands for in a product: its own while none of its tables is read."""
    leaves = vars(c).get("_factors")
    return leaves if leaves is not None and _PRODUCT_TABLES.isdisjoint(vars(c)) else (c,)


def _joined_ids(leaves: tuple) -> Tuple[str, ...]:
    """The ids "u⊗v⊗..." of the product of ``leaves``, in its order."""
    first, *rest = leaves
    return tuple(_mixed([first._ids] + [[TENSOR_SEP + v for v in f._ids] for f in rest]))


def _placed(product: _Product, table: str) -> List[List[int]]:
    """Each leaf's positional ``table`` times the leaf's stride."""
    return [getattr(f, table) if s == 1 else [p * s for p in getattr(f, table)]
            for f, s in zip(product._factors, product._strides)]


def _mixed(columns: list) -> list:
    """The sums a_1 + ... + a_k over the picks a_m of ``columns[m]``, u-major (the last fastest).

    One left fold; ``+`` adds ints, joins strings and concatenates tuples.
    """
    acc, *rest = columns
    for col in rest:
        acc = [a + b for a in acc for b in col]
    return acc


def dual(c: GeometricComplex) -> GeometricComplex:
    """Dual complex: reversed boundary, M(e*) = -M(e).

    With n the maximal dimension of the input, the dual cell e* has
    dim n - dim(e) and gr -gr(e) - n, which keeps dual dimensions of actual
    cell complexes non-negative; complementary shifts of (dim, gr) leave the
    F2[U]-complex unchanged.  Over the same denominator q, the numerator k
    of gr becomes -n*q - k, and every boundary pair keeps its gap, so the
    width is unchanged.  Each e* keeps e's position, so J keeps its
    positions and the boundary and coboundary trade places.  The result
    keeps its input's form with one more star and the affine map composed
    with d -> n - d and k -> -n*q - k (see the module docstring), so it
    builds no list and reads n off ``_hi``.  The canonical flags carry over
    unless the input has a prefix pair, whose order starring may flip; no
    starred id matches ``_NEW_NAME``.
    """
    stems, stars, dims, nums, sign, doff, noff = _form(c)
    n, q = c.max_dim(), c._q
    shift = -n * q
    # -n - tau mod 2 over q, which stays tau's reduced denominator
    tau = Fraction((shift - c.tau.numerator) % (2 * q), q)
    # one more star on every id; n - d and shift - k of the mapped d and k
    form = (stems, c._born, stars + 1, dims, nums, -sign, n - doff, shift - noff, 0,
            n - c._min_dim())
    if not isinstance(c, SplitComplex):
        return _derived(_Starred, None, None, c._coadj, tau, None, c._width, coadj=c._adj,
                        form=form)
    # starring keeps the order of every pair but a prefix pair
    return _derived(_SplitStarred, None, None, c._coadj, tau, None, c._width, c._jpos, c._fpos,
                    c._adj, None, None if c._prefixed else c._canon, form=form)


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


def _pairs_from_json(obj: dict, key: str) -> Iterator[list]:
    """The ``[id, id]`` pairs under ``key``, each checked as it is read."""
    pairs = obj.get(key, [])
    # a value that is not a list fails as its one malformed pair
    for pair in pairs if isinstance(pairs, list) else [None]:
        if not (isinstance(pair, list) and len(pair) == 2
                and isinstance(pair[0], str) and isinstance(pair[1], str)):
            raise InvalidComplex(f"{key!r} must be a list of [id, id] pairs")
        yield pair


def complex_from_json(obj: dict) -> GeometricComplex:
    if not isinstance(obj, dict) or not isinstance(obj.get("cells"), list):
        raise InvalidComplex("a complex must be a JSON object with a 'cells' list")
    cells = []
    for k, e in enumerate(obj["cells"]):
        if not isinstance(e, dict) or not {"id", "dim", "gr"} <= e.keys():
            raise InvalidComplex(f"cells[{k}] must be an object with 'id', 'dim' and 'gr'")
        gr = grading_from_json(e["gr"], f"cell {e['id']!r}", InvalidComplex)
        cells.append(Cell(e["id"], e["dim"], gr))
    bdry: Dict[str, list] = {}
    for src, tgt in _pairs_from_json(obj, "bdry"):
        bdry.setdefault(src, []).append(tgt)
    tau = grading_from_json(obj["tau"], "tau", InvalidComplex) if "tau" in obj else None
    g = GeometricComplex(cells, bdry, tau)
    if "J" not in obj and "fixed" not in obj:
        return g
    J = {}

    def pair(cid, jid):
        # each cell is in one two-cell pair or is the fixed one, never both
        if cid in J:
            raise NotSplit(f"cell {cid!r} appears more than once in 'J' and 'fixed'")
        J[cid] = jid
    for a, jb in _pairs_from_json(obj, "J"):
        pair(a, jb)
        pair(jb, a)
    fixed = obj.get("fixed")
    if fixed is not None:
        if not isinstance(fixed, str):
            raise InvalidComplex(f"'fixed' must be a cell id, got {fixed!r}")
        pair(fixed, fixed)
    return SplitComplex(g, J)
