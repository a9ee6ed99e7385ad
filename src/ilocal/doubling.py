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
which the doubled differential squares to zero.

The double is locally equivalent to the tensor product with the basis
complex of index delta; the maps realizing this are

    f(x) = x.alpha + (Jb).beta     f(omega) = eta.alpha + (Jzeta).beta
    f(theta) = eta.beta

one way, and the other way g collapses x.alpha and x.(J.alpha) to x (plus a
theta correction when eta appears in d(x)), sends eta.alpha to omega,
eta.beta to theta, and everything else in the beta column to zero.  Both
lift to grading-preserving F2[U]-maps by inserting U-powers, and g o f is
the identity on the nose.

Halving is implemented algebraically as dual o double o dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Optional

from .complexes import (
    Cell,
    Chain,
    GeometricComplex,
    SplitComplex,
    TENSOR_SEP,
    _xi_complex,
    canonical_splitting,
    decompose,
    dual,
    tensor,
    validate_splitting,
)
from .errors import WidthExceeded
from .homology import ChainMap, compose, homology, is_u_localized_iso


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


def _fresh_names(existing: Iterable[str]):
    taken = set(existing)
    k = 1
    while True:
        suffix = "" if k == 1 else str(k)
        names = ("omega" + suffix, "J.omega" + suffix, "theta" + suffix)
        if not any(n in taken for n in names):
            return names
        k += 1


def _check_delta(x: SplitComplex, delta: int) -> None:
    if not isinstance(delta, int) or delta < 0:
        raise ValueError(f"doubling parameter must be a non-negative integer, got {delta!r}")
    w = x.width()
    if 2 * delta > w:
        raise WidthExceeded(f"2*delta = {2 * delta} exceeds the width {w} of the complex")


def _doubled_boundary(x: SplitComplex, chosen, eta: str, omega: str) -> dict:
    """Differential casework on the chosen cells: id -> (targets, add theta?)."""
    bdry = {}
    for c in chosen:
        dc = x.bdry[c]
        if eta in dc:
            bdry[c] = ((dc - {eta}) | {omega}, False)
        else:
            _, b, _ = decompose(x, dc, chosen)
            db: Chain = frozenset()
            for bi in b:
                db ^= x.bdry[bi]
            bdry[c] = (dc, eta in db)
    return bdry


def double(x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None) -> DoubleResult:
    """Double a split complex with parameter delta (needs 2*delta <= width)."""
    _check_delta(x, delta)
    chosen = (
        validate_splitting(x, splitting) if splitting is not None else canonical_splitting(x)
    )
    eta = x.fixed
    eta_cell = x.cell(eta)
    _, zeta, _ = decompose(x, x.bdry[eta], chosen)
    omega, j_omega, theta = _fresh_names(x.ids())

    cells = [c for cid, c in x.cells.items() if cid != eta]
    cells.append(Cell(omega, eta_cell.dim, eta_cell.gr))
    cells.append(Cell(j_omega, eta_cell.dim, eta_cell.gr))
    cells.append(Cell(theta, eta_cell.dim + 1, eta_cell.gr - 2 * delta))

    J = {cid: jid for cid, jid in x.J.items() if cid != eta}
    J[omega] = j_omega
    J[j_omega] = omega
    J[theta] = theta

    bdry = {}
    for c, (targets, add_theta) in _doubled_boundary(x, chosen, eta, omega).items():
        bdry[c] = targets | {theta} if add_theta else targets
    for c in chosen:
        bdry[x.J[c]] = frozenset(J[t] for t in bdry[c])
    bdry[omega] = x.bdry[eta]
    bdry[j_omega] = frozenset(J[t] for t in x.bdry[eta])
    bdry[theta] = frozenset({omega, j_omega})

    doubled = SplitComplex(GeometricComplex(cells, bdry, x.tau), J)
    return DoubleResult(doubled, omega, j_omega, theta, eta, zeta, chosen | {omega})


def half(x: SplitComplex, delta: int) -> SplitComplex:
    """The operation dual to doubling; models adding the dual basis complex."""
    return dual(double(dual(x), delta).complex)


def _pid(u: str, v: str) -> str:
    return f"{u}{TENSOR_SEP}{v}"


def _lifted(src, tgt, src_id: str, target_ids) -> frozenset:
    """Attach the U-exponents making each target term Maslov-degree-correct."""
    m = src.maslov(src_id)
    terms = set()
    for tid in target_ids:
        gap = tgt.maslov(tid) - m
        if gap < 0 or gap % 2 != 0:
            raise ValueError(f"cellular image of {src_id!r} cannot be lifted at {tid!r}")
        terms.add((tid, int(gap / 2)))
    return frozenset(terms)


def local_map_f(
    x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None
) -> ChainMap:
    """The local map from the double to the tensor with the basis complex."""
    chosen = (
        validate_splitting(x, splitting) if splitting is not None else canonical_splitting(x)
    )
    dr = double(x, delta, chosen)
    src = dr.complex
    tgt = tensor(x, _xi_complex(delta))
    assignment = {}

    def set_pair(cid: str, target_ids):
        assignment[cid] = _lifted(src, tgt, cid, target_ids)
        jcid = src.J[cid]
        if jcid != cid:
            assignment[jcid] = _lifted(
                src, tgt, jcid, [tgt.J[tid] for tid in target_ids]
            )

    for c in sorted(chosen):
        _, b, _ = decompose(x, x.bdry[c], chosen)
        set_pair(c, [_pid(c, "a")] + [_pid(x.J[bi], "b") for bi in sorted(b)])
    set_pair(dr.omega, [_pid(dr.eta, "a")] + [_pid(x.J[z], "b") for z in sorted(dr.zeta)])
    set_pair(dr.theta, [_pid(dr.eta, "b")])
    return ChainMap(src, tgt, assignment)


def local_map_g(
    x: SplitComplex, delta: int, splitting: Optional[Iterable[str]] = None
) -> ChainMap:
    """The local map from the tensor with the basis complex back to the double."""
    chosen = (
        validate_splitting(x, splitting) if splitting is not None else canonical_splitting(x)
    )
    dr = double(x, delta, chosen)
    tgt = dr.complex
    src = tensor(x, _xi_complex(delta))
    eta = dr.eta
    assignment = {}
    for c in sorted(chosen):
        jc = x.J[c]
        theta_part = [dr.theta] if eta in x.bdry[c] else []
        assignment[_pid(c, "a")] = _lifted(src, tgt, _pid(c, "a"), [c])
        assignment[_pid(c, "Ja")] = _lifted(src, tgt, _pid(c, "Ja"), [c] + theta_part)
        assignment[_pid(c, "b")] = frozenset()
        assignment[_pid(jc, "Ja")] = _lifted(src, tgt, _pid(jc, "Ja"), [jc])
        assignment[_pid(jc, "a")] = _lifted(src, tgt, _pid(jc, "a"), [jc] + theta_part)
        assignment[_pid(jc, "b")] = frozenset()
    assignment[_pid(eta, "a")] = _lifted(src, tgt, _pid(eta, "a"), [dr.omega])
    assignment[_pid(eta, "Ja")] = _lifted(src, tgt, _pid(eta, "Ja"), [dr.j_omega])
    assignment[_pid(eta, "b")] = _lifted(src, tgt, _pid(eta, "b"), [dr.theta])
    return ChainMap(src, tgt, assignment)


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
    witness and later checks are not attempted.
    """
    for name, m in (("f", f), ("g", g)):
        w = m.grading_witness() or m.chain_witness()
        if w is not None:
            return VerifyReport(False, False, False, False, {"check": "chain_map", "map": name, **w})
    for name, m in (("f", f), ("g", g)):
        w = m.j_witness()
        if w is not None:
            return VerifyReport(True, False, False, False, {"check": "j_equivariant", "map": name, **w})
    w = compose(g, f).identity_witness()
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
