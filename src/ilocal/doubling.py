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
d(J.omega) = d(omega) = d(eta).  On positions, omega, J.omega and theta
take the last three and the other rows are renumbered past eta's slot, not
at all when eta is last, as in every complex the library builds.

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
is the identity on the nose.  Both maps are built from the same double
and the same tensor: a one-slot cache keeps the last pair, so f followed
by g on the same arguments builds each once.  The basis complex X_delta of
that tensor depends on delta alone and is built once per delta.

Halving is implemented algebraically as dual o double o dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Container, FrozenSet, Iterable, Optional

from .complexes import (
    Chain,
    SplitComplex,
    _derived,
    _pid,
    _xi_complex,
    decompose,
    dual,
    tensor,
    validate_splitting,
)
from .errors import WidthExceeded
from .homology import (
    ChainMap,
    _is_left_inverse,
    _same_complex,
    compose,
    homology,
    is_u_localized_iso,
)


@dataclass(frozen=True, eq=False)
class DoubleResult:
    """A doubled complex together with the labels of its new cells."""

    complex: SplitComplex
    omega: str
    j_omega: str
    theta: str
    eta: str  # id of the replaced fixed cell of the input
    zeta: Chain  # chosen-side half of d(eta)
    splitting: FrozenSet[str]  # inherited splitting (chosen cells plus omega)

    def labels_json(self) -> dict:
        return {
            "omega": self.omega,
            "j_omega": self.j_omega,
            "theta": self.theta,
            "eta": self.eta,
            "zeta": sorted(self.zeta),
            "splitting": sorted(self.splitting),
        }


def _fresh_names(taken: Container[str]):
    k = 1
    while True:
        suffix = "" if k == 1 else str(k)
        names = ("omega" + suffix, "J.omega" + suffix, "theta" + suffix)
        if not any(n in taken for n in names):
            return names
        k += 1


def _check_delta(x: SplitComplex, delta: int) -> None:
    if type(delta) is not int or delta < 0:
        raise ValueError(f"doubling parameter must be a non-negative integer, got {delta!r}")
    w = x.width()
    if 2 * delta > w:
        raise WidthExceeded(f"2*delta = {2 * delta} exceeds the width {w} of the complex")


def double(x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None) -> DoubleResult:
    """Double a split complex with parameter delta (needs 2*delta <= width)."""
    _check_delta(x, delta)
    chosen = validate_splitting(x, splitting)
    eta, ids, at, adj = x.fixed, x.ids(), x._index, list(x._adj)
    n, e = len(ids), at[eta]
    _, zeta, _ = decompose(x, map(ids.__getitem__, adj[e]), chosen)
    omega, j_omega, theta = _fresh_names(x._dim)

    dims = dict(x._dim)
    del dims[eta]
    dims[omega] = dims[j_omega] = x._dim[eta]
    dims[theta] = x._dim[eta] + 1

    J = dict(x.J)
    del J[eta]
    J[omega] = j_omega
    J[j_omega] = omega
    J[theta] = theta

    # rows edited in x's positions, where e is eta and stands for omega,
    # n for J.omega and n + 1 for theta
    cob = {s for s, ts in enumerate(adj) if e in ts}
    unchosen_cob = {s for s in cob if ids[s] not in chosen}
    for c in chosen:
        p, jp = at[c], at[x.J[c]]
        if p in cob:
            adj[jp] = tuple([n if t == e else t for t in adj[jp]])
        elif len(unchosen_cob.intersection(adj[p])) % 2:
            adj[p] += (n + 1,)
            adj[jp] += (n + 1,)
    if e != n - 1:
        # eta's slot is dropped and omega takes position n - 1
        moved = [*range(e), n - 1, *range(e, n - 1), n, n + 1].__getitem__
        adj = [tuple(map(moved, ts)) for ts in adj]
    d_omega = adj.pop(e)
    adj += [d_omega, d_omega, (n - 1, n)]

    num = dict(x._num)
    del num[eta]
    num[omega] = num[j_omega] = x._num[eta]
    num[theta] = x._num[eta] - 2 * delta * x._q
    # The width is exactly 2*delta, the theta -> omega gap.  Edges of x, and
    # c -> omega or omega -> t in place of c -> eta or eta -> t, keep their
    # gaps >= W >= 2*delta, W the width of x.  A c -> theta edge needs eta in
    # d(t) for some t in d(c); d(c) ∋ t and d(t) ∋ eta each have gap >= W,
    # so its gap is >= 2W - 2*delta >= W >= 2*delta.
    doubled = _derived(dims, adj, x.tau, num, 2 * delta, J, theta)
    return DoubleResult(doubled, omega, j_omega, theta, eta, zeta, chosen | {omega})


def half(x: SplitComplex, delta: int) -> SplitComplex:
    """The operation dual to doubling; models adding the dual basis complex."""
    return dual(double(dual(x), delta).complex)


def _lifted(src, tgt, src_id: str, target_ids) -> frozenset:
    """Attach the U-exponents making each target term Maslov-degree-correct."""
    m, q = src._mnum[src_id], src._q
    terms = []
    for tid in target_ids:
        k = tgt._lift(tid, m, q)
        if k is None:
            tgt.u_power(tid, src.maslov(src_id))  # raises the ValueError
        terms.append((tid, k))
    return frozenset(terms)


def _j_equivariant_map(src: SplitComplex, tgt: SplitComplex, images: dict) -> ChainMap:
    """The chain map given by the cellular images of one cell per J-orbit.

    ``images`` maps a source cell to the target cells of its image; the
    J-partner of that cell is sent to their J-partners.  Cells of orbits not
    listed map to zero.
    """
    assignment = {}
    for cid, target_ids in images.items():
        assignment[cid] = _lifted(src, tgt, cid, target_ids)
        jcid = src.J[cid]
        if jcid != cid:
            assignment[jcid] = _lifted(src, tgt, jcid, [tgt.J[tid] for tid in target_ids])
    return ChainMap(src, tgt, assignment)


@lru_cache(maxsize=16)
def _basis_complex(delta: int) -> SplitComplex:
    """X_delta, shared by every local pair with this delta.

    Complexes are immutable, so sharing it is safe, and ``tensor`` then
    reads its positional boundary without building it again.
    """
    return _xi_complex(delta)


@lru_cache(maxsize=1)
def _local_pair(x: SplitComplex, delta: int, chosen: FrozenSet[str]):
    """The double of x and its tensor with X_delta, shared by f and g.

    Callers build f and then g on the same arguments, so one slot suffices;
    the key is x's identity (complexes define no ``__eq__``), delta and the
    validated splitting.
    """
    return double(x, delta, chosen), tensor(x, _basis_complex(delta))


def local_map_f(
    x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None
) -> ChainMap:
    """The local map from the double to the tensor with the basis complex."""
    chosen = validate_splitting(x, splitting)
    _check_delta(x, delta)  # a bad delta fails here, not as a cache key
    dr, tgt = _local_pair(x, delta, chosen)
    images = {}
    for c in sorted(chosen):
        # J.b is the unchosen part of d(c) other than eta (module docstring)
        jb = sorted(t for t in x.bdry[c] if t not in chosen and t != dr.eta)
        images[c] = [_pid(c, "a")] + [_pid(t, "b") for t in jb]
    images[dr.omega] = [_pid(dr.eta, "a")] + [_pid(x.J[z], "b") for z in sorted(dr.zeta)]
    images[dr.theta] = [_pid(dr.eta, "b")]
    return _j_equivariant_map(dr.complex, tgt, images)


def local_map_g(
    x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None
) -> ChainMap:
    """The local map from the tensor with the basis complex back to the double."""
    chosen = validate_splitting(x, splitting)
    _check_delta(x, delta)  # a bad delta fails here, not as a cache key
    dr, src = _local_pair(x, delta, chosen)
    images = {}
    for c in sorted(chosen):
        theta_part = [dr.theta] if dr.eta in x.bdry[c] else []
        images[_pid(c, "a")] = [c]
        images[_pid(c, "Ja")] = [c] + theta_part
    images[_pid(dr.eta, "a")] = [dr.omega]
    images[_pid(dr.eta, "b")] = [dr.theta]
    return _j_equivariant_map(src, dr.complex, images)


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the four local-equivalence checks for a pair of maps."""

    chain_map: bool
    j_equivariant: bool
    gf_identity: bool
    u_localized_iso: bool
    witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.chain_map and self.j_equivariant and self.gf_identity and self.u_localized_iso

    def to_json(self) -> dict:
        return {
            "chain_map": self.chain_map,
            "j_equivariant": self.j_equivariant,
            "gf_identity": self.gf_identity,
            "u_localized_iso": self.u_localized_iso,
            "witness": self.witness,
        }


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
        w = m.grading_witness() or m.chain_witness()
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
