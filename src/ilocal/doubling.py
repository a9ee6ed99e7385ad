"""Doubling and halving of split complexes, with the explicit local maps.

Doubling replaces the fixed cell eta of a split complex by a symmetric pair
omega, J.omega with the old boundary of eta, glued by a new fixed cell theta
one dimension up with gr(theta) = gr(eta) - 2*delta.  Writing d(x) =
a + (1+J)b (+ eta) against a chosen splitting, the doubled differential is

    d(x) = a + (1+J)b              if eta appears in neither d(x) nor d(b),
    d(x) = a + (1+J)b + theta      if eta appears in d(b),
    d(x) = a + (1+J)b + omega      if eta appears in d(x),

extended J-equivariantly, with d(omega) = d(eta) and d(theta) =
omega + J.omega.  "eta appears in d(b)" means the F2 coefficient of eta in
the boundary of the whole chain b is 1; that is the only reading under
which the doubled differential squares to zero.  When eta is not in d(x),
b is the set of partners J.t of the unchosen cells t of d(x), and eta is in
d(J.t) exactly when it is in d(t), as J commutes with d and fixes eta: the
flag is the parity of the number of unchosen t in d(x) with eta in d(t).  So
only the chosen cells with eta or the flag, and their partners, get a new
boundary; every other cell keeps its own.  As d(eta) is J-invariant,
d(J.omega) = d(omega) = d(eta).

On positions, ``double`` copies the tables of x and edits only the cells
next to eta, in the boundary ``_adj`` and the coboundary ``_coadj`` alike.
Every complex the library builds has eta last.  A complex from outside
that lists eta before another cell is rebuilt once on entry, through the
validating constructors, with its cells in their order but eta last and
its splitting flags moved alike; so there is one edit path, with eta at
position n - 1 of n cells.  Omega takes eta's position, and J.omega and
theta the two after it, so the new cells are the last three and nothing
is moved after the edit.  Ids and gradings are edited in x's stored
coordinates (``complexes._form``): omega takes eta's place among the
stems, J.omega and theta are appended, all three born at x's star count,
so their ids are their names; and the gradings go onto x's base lists
through the inverse of its map, theta's base dim being eta's plus the
sign.  A complex that ``dual`` and ``double`` did not derive, a rebuilt
one among them, is its own tables at zero stars under the identity map,
so it takes the same path, and its double stores the edited tables as
they are: a plain split complex, like its input, that builds no view
when ``homology`` or a local map reads it.  Eta's coboundary, read from
``_coadj`` rather than by scanning the rows, lists the chosen cells with
eta in their boundary, which keep it as omega, and their unchosen
partners, which switch it for J.omega; so eta's column splits into
omega's and J.omega's.  The theta flag is a parity over the coboundaries
of the switched cells; flagged pairs gain theta, and theta's column lists
them.  Each cell of d(eta) gains J.omega in its column, omega and J.omega
gain theta in theirs, and ``_jpos`` and the splitting fields are copied
and edited too; the double stores them all, its coboundary included.
``double`` also records on its result the least suffix the next name
probe may start from, so a run of doublings probes each name once.

``double`` reads its splitting as flags by position through
``complexes._flags``, the one check of a given splitting: ``None`` stands
for the input's canonical flags, and a given id splitting is checked and
turned into flags, so both take one path.  The flags decide which cells of
eta's coboundary keep eta and which pairs gain theta; ``decompose`` gets
them with the positions of d(eta), and the result's ``splitting`` is built
from them on first read.  Whatever the splitting, the double stores its
canonical flags, and with them its prefix pairs: x's pairs keep their ids,
and of the new pair, which is no prefix pair, J.omega is the smaller, as
"J.omega" < "omega", so they are the input's flags plus J.omega.  The new
names are probed against ``_named``, the input's ids that match
``_NEW_NAME``, and the double's set is the input's less eta plus the three
new names.  So ``double`` reads no index, and a double's index, like a
dual's, is built only on first read: no step of ``representative`` builds
an id table.  The local maps read the flags off the double they share.

The double is locally equivalent to the tensor product with the basis
complex of index delta; the maps realizing this are

    f(x) = x.alpha + (Jb).beta     f(omega) = eta.alpha + (Jzeta).beta
    f(theta) = eta.beta

one way, where Jb is read off d(x) as its unchosen cells other than eta (the
same b as above), and the other way g collapses x.alpha and x.(J.alpha) to
x (plus a theta correction when eta appears in d(x)), sends eta.alpha to
omega, eta.beta to theta, and everything else in the beta column to zero.
Both maps are given on one cell per J-orbit, with x a chosen cell, and
extended J-equivariantly; cells of the orbits left out map to zero.  Both
lift to grading-preserving F2[U]-maps by inserting U-powers, each found by
the one lift rule of ``complexes`` (``GeometricComplex._lift``), and g o f
is the identity on the nose.  Both are built on positions as F2 patterns
(``homology._derived_map``), with no id of the double or the tensor: in the
double, x's cell p sits at p - (p > e) for eta at e in x as given, and
omega, J.omega and theta at n - 1, n and n + 1; in the tensor,
(p, a), (p, Ja) and (p, b) sit at 3p, 3p + 1 and 3p + 2.  Both maps are
built from the same double and the same tensor: a one-slot cache keeps the
last pair, so f followed by g on the same arguments builds each once.  The
basis complex X_delta of that tensor depends on delta alone and is built
once per delta.

Halving is implemented algebraically as dual o double o dual.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import FrozenSet, Iterable, Optional

from .complexes import (
    _NEW_NAME,
    Chain,
    GeometricComplex,
    SplitComplex,
    _derived,
    _Flags,
    _flags,
    _form,
    _SplitStarred,
    _Starred,
    _xi_complex,
    decompose,
    dual,
    tensor,
)
from .errors import WidthExceeded
from .homology import (
    ChainMap,
    _derived_map,
    _is_left_inverse,
    _same_complex,
    compose,
    homology,
    is_u_localized_iso,
)
from .towers import _Value, _view


class DoubleResult(_Value):
    """A doubled complex together with the labels of its new cells; equal only to itself.

    ``eta`` is the replaced fixed cell of the input, ``zeta`` the chosen-side
    half of d(eta), ``splitting`` the chosen cells plus omega.  ``double``
    keeps the input and the flags of its splitting in place of
    ``splitting``, which is then built on first read from the input's ids.
    """

    _fields = ("complex", "omega", "j_omega", "theta", "eta", "zeta", "splitting")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, complex: SplitComplex, omega: str, j_omega: str, theta: str, eta: str,
                 zeta: Chain, splitting: FrozenSet[str]):
        self._set(complex, omega, j_omega, theta, eta, zeta, splitting)

    @_view
    def splitting(self) -> FrozenSet[str]:
        """The flagged ids of the input plus omega, for a result of ``double``."""
        return frozenset(compress(self._input._ids, self._chosen)) | {self.omega}

    def labels_json(self) -> dict:
        return {
            "omega": self.omega,
            "j_omega": self.j_omega,
            "theta": self.theta,
            "eta": self.eta,
            "zeta": sorted(self.zeta),
            "splitting": sorted(self.splitting),
        }


def _names(k: int):
    suffix = "" if k == 1 else str(k)
    return "omega" + suffix, "J.omega" + suffix, "theta" + suffix


def _fresh_names(taken: FrozenSet[str], k: int):
    """The least suffix k' >= k none of whose three names is in ``taken``, with those names."""
    while True:
        names = _names(k)
        if taken.isdisjoint(names):
            return k, names
        k += 1


def _next_probe(taken: FrozenSet[str], eta: str, k: int) -> int:
    """Where the name probe of the double may start.

    Every suffix below k is taken in the input and k's names now are, so
    only the suffix of eta's own name, if below k, can be free: when no
    other of its names is taken.
    """
    m = _NEW_NAME.fullmatch(eta)
    if m:
        j = int(m[1] or 1)
        if j < k and not any(n != eta and n in taken for n in _names(j)):
            return j
    return k + 1


def _check_delta(x: SplitComplex, delta: int) -> None:
    if type(delta) is not int or delta < 0:
        raise ValueError(f"doubling parameter must be a non-negative integer, got {delta!r}")
    w = x.width()
    if 2 * delta > w:
        raise WidthExceeded(f"2*delta = {2 * delta} exceeds the width {w} of the complex")


def double(x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None) -> DoubleResult:
    """Double a split complex with parameter delta (needs 2*delta <= width)."""
    _check_delta(x, delta)
    given = chosen = _flags(x, splitting)
    src, n, e = x, len(x), x._fpos
    if e != n - 1:
        # only a complex from outside lists eta before another cell: it is
        # rebuilt once with eta last, its flags moved alike
        cells = list(x.cells.values())
        x = SplitComplex(GeometricComplex(cells[:e] + cells[e + 1:] + [cells[e]], x.bdry, x.tau),
                         x.J)
        chosen, e = _Flags(chosen[:e] + chosen[e + 1:] + b"\0"), n - 1
    stems, stars, dims, nums, sign, doff, noff = _form(x)
    jpos, adj, coadj = x._jpos, x._adj, x._coadj
    eta, d_eta, cob = x._id(e), adj[e], coadj[e]
    _, zeta, _ = decompose(x, d_eta, chosen)
    named = x._named
    k, (omega, j_omega, theta) = _fresh_names(named, x._fresh_from)

    # tables edited in x's positions, where e = n - 1 is eta and stands for
    # omega, n is J.omega and n + 1 theta.  The coboundary of eta holds the
    # chosen cells with eta in their boundary and their unchosen partners,
    # which switch eta for J.omega
    keep = tuple([s for s in cob if chosen[s]])
    switch = tuple([s for s in cob if not chosen[s]])
    # a chosen cell gets theta when an odd number of the switched cells lie
    # in its boundary; it has eta's dimension plus two, so it is not in cob
    flagged = set()
    for t in switch:
        flagged.symmetric_difference_update([s for s in coadj[t] if chosen[s]])
    adj, coadj = list(adj), list(coadj)
    for s in switch:
        adj[s] = tuple([n if t == e else t for t in adj[s]])
    theta_col = []
    for c in flagged:
        for s in (c, jpos[c]):
            adj[s] += (n + 1,)
            theta_col.append(s)
    adj += [d_eta, (e, n)]
    for t in d_eta:
        coadj[t] += (n,)
    coadj[e] = keep + (n + 1,)
    coadj += [switch + (n + 1,), tuple(theta_col)]
    # in stored coordinates, through the sign: theta is one dim up and 2*delta down in gr
    dim_e, num_e = dims[e], nums[e]
    dims = dims + [dim_e, dim_e + sign]
    nums = nums + [num_e, num_e - sign * 2 * delta * x._q]
    new_jpos = jpos[:e] + [n, e, n + 1]
    stems = stems[:e] + (omega, j_omega, theta)
    # x's pairs keep their ids, and of the new pair J.omega is the smaller,
    # as "J.omega" < "omega"; omega takes eta's flag, 0
    canon = _Flags(x._canon + b"\1\0")
    # The width is exactly 2*delta, the theta -> omega gap.  Edges of x, and
    # c -> omega or omega -> t in place of c -> eta or eta -> t, keep their
    # gaps >= W >= 2*delta, W the width of x.  A c -> theta edge needs eta in
    # d(t) for some t in d(c); d(c) ∋ t and d(t) ∋ eta each have gap >= W,
    # so its gap is >= 2W - 2*delta >= W >= 2*delta.
    if isinstance(x, _Starred):
        # the new cells are born at x's star count, so their ids are their stems;
        # theta's dim, one above eta's, is the one dim the double adds
        form = (stems, x._born[:e] + [stars] * 3, stars, dims, nums, sign, doff, noff, x._lo,
                max(x._hi, doff + sign * dim_e + 1))
        cls, ids, dims, nums = _SplitStarred, None, None, None
    else:
        # x's form is its own tables at zero stars, so its double stores them
        cls, ids, form = SplitComplex, stems, None
    doubled = _derived(cls, ids, dims, adj, x.tau, nums, 2 * delta, new_jpos, n + 1, coadj, None,
                       canon, x._prefixed, (named - {eta}) | {omega, j_omega, theta}, None, False,
                       form)
    doubled._fresh_from = _next_probe(named, eta, k)
    dr = object.__new__(DoubleResult)
    vars(dr).update(complex=doubled, omega=omega, j_omega=j_omega, theta=theta, eta=eta, zeta=zeta,
                    _input=src, _chosen=given)
    return dr


def half(x: SplitComplex, delta: int) -> SplitComplex:
    """The operation dual to doubling; models adding the dual basis complex."""
    return dual(double(dual(x), delta).complex)


def _j_equivariant_map(src: SplitComplex, tgt: SplitComplex, images: dict) -> ChainMap:
    """The chain map sending each source position of ``images`` to its target positions.

    The J-partner goes to their J-partners; cells of orbits not listed map to zero.
    """
    s_j, t_j, pattern = src._jpos, tgt._jpos, [0] * len(src)
    for p, ts in images.items():
        # the partner first, so a fixed cell keeps its own image
        pattern[s_j[p]] = sum([1 << t_j[t] for t in ts])
        pattern[p] = sum([1 << t for t in ts])
    return _derived_map(src, tgt, pattern)


@lru_cache(maxsize=16)
def _basis_complex(delta: int) -> SplitComplex:
    """X_delta, shared by every local pair with this delta.

    Complexes are immutable, so sharing it is safe.  Per local pair, the
    sharing saves the two validating constructions of ``_xi_complex`` and
    the ``_prefix_free`` view that ``tensor`` reads and the ``_idrank`` and
    ``_off`` views from which the product folds its own; its boundary
    ``_adj`` is stored at construction either way.
    """
    return _xi_complex(delta)


@lru_cache(maxsize=1)
def _local_pair(x: SplitComplex, delta: int, splitting):
    """The double of x and its tensor with X_delta, shared by f and g.

    Callers build f and then g on the same arguments, so one slot suffices;
    the key is x's identity (complexes define no ``__eq__``), delta and the
    splitting as ``_pair`` passes it.
    """
    return double(x, delta, splitting), tensor(x, _basis_complex(delta))


def _pair(x: SplitComplex, delta: int, splitting):
    """``_local_pair`` of the arguments of a local map.

    ``None``, a frozenset or a set, as a frozenset, keys the cache and is
    checked once, in ``double``; any other splitting is checked here, in
    each map, and keys it as flags.
    """
    _check_delta(x, delta)  # a bad delta fails here, not as a cache key
    if isinstance(splitting, (set, frozenset)):
        splitting = frozenset(splitting)
    elif splitting is not None:
        splitting = _flags(x, splitting)
    return _local_pair(x, delta, splitting)


def local_map_f(
    x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None
) -> ChainMap:
    """The local map from the double to the tensor with the basis complex."""
    dr, tgt = _pair(x, delta, splitting)
    adj, e, n, inside = x._adj, x._fpos, len(x), dr._chosen

    def image(p):
        # (p, a) plus (t, b) for t in J.b (J.zeta for eta): d(p)'s unchosen cells but eta
        return [3 * p] + [3 * t + 2 for t in adj[p] if t != e and not inside[t]]

    images = {p - (p > e): image(p) for p in compress(range(n), inside)}
    images[n - 1] = image(e)  # omega
    images[n + 1] = [3 * e + 2]  # theta to (eta, b)
    return _j_equivariant_map(dr.complex, tgt, images)


def local_map_g(
    x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None
) -> ChainMap:
    """The local map from the tensor with the basis complex back to the double."""
    dr, src = _pair(x, delta, splitting)
    adj, e, n = x._adj, x._fpos, len(x)
    images = {3 * e: [n - 1], 3 * e + 2: [n + 1]}  # (eta, a) to omega, (eta, b) to theta
    for p in compress(range(n), dr._chosen):
        c = p - (p > e)
        images[3 * p] = [c]
        images[3 * p + 1] = [c, n + 1] if e in adj[p] else [c]
    return _j_equivariant_map(src, dr.complex, images)


class VerifyReport(_Value):
    """Outcome of the four local-equivalence checks for a pair of maps."""

    _fields = ("chain_map", "j_equivariant", "gf_identity", "u_localized_iso", "witness")

    def __init__(self, chain_map: bool, j_equivariant: bool, gf_identity: bool,
                 u_localized_iso: bool, witness: Optional[dict] = None):
        self._set(chain_map, j_equivariant, gf_identity, u_localized_iso, witness)

    @property
    def passed(self) -> bool:
        return self.chain_map and self.j_equivariant and self.gf_identity and self.u_localized_iso

    def to_json(self) -> dict:
        return dict(zip(self._fields, self._astuple()))


def verify_local_pair(f: ChainMap, g: ChainMap) -> VerifyReport:
    """Check that f: A -> B and g: B -> A exhibit a local equivalence.

    The checks, in order: both maps are grading-preserving chain maps; both
    are strictly J-equivariant; g o f is the identity on A; both induce
    isomorphisms after inverting U.  The first failure is reported with a
    witness and later checks are not attempted.  Raises ValueError unless
    f's target is g's source and g's target is f's source.
    """
    if not (_same_complex(f.target, g.source) and _same_complex(g.target, f.source)):
        raise ValueError("maps do not form a pair: f: A -> B needs g: B -> A")
    for name, m in (("f", f), ("g", g)):
        w = m.chain_witness()
        if w is not None:
            return VerifyReport(False, False, False, False, {"check": "chain_map", "map": name, **w})
    for name, m in (("f", f), ("g", g)):
        w = m.j_witness()
        if w is not None:
            return VerifyReport(True, False, False, False, {"check": "j_equivariant", "map": name, **w})
    # both maps passed the grading check, so g o f = id can be read on patterns
    w = None if _is_left_inverse(g, f) else compose(g, f).identity_witness()
    if w is not None:
        return VerifyReport(True, True, False, False, {"check": "gf_identity", **w})
    ha, hb = homology(f.source), homology(f.target)
    for name, m, hs, ht in (("f", f, ha, hb), ("g", g, hb, ha)):
        try:
            ok = is_u_localized_iso(m, hs, ht)
            reason = "free part maps to zero"
        except ValueError as exc:
            ok, reason = False, str(exc)
        if not ok:
            return VerifyReport(
                True, True, True, False,
                {"check": "u_localized_iso", "map": name, "reason": reason},
            )
    return VerifyReport(True, True, True, True, None)
