"""The complex layer against plain reference formulas.

The library compares gradings and finds U-powers through integer
numerators, stores the width found while validating, transposes the
boundary in one pass over the edges, decomposes a chain over its own
cells, orders cells for the reduction and towers for a module by integer
keys, adds each pair of distinct gradings once in a tensor, and finds the
theta term of a double by a parity count instead of a decomposition, and
checks the gradings of a chain map and lifts the local maps' images by
cross-multiplying integer Maslov numerators.  The functions below are the
direct formulas in ``Fraction`` arithmetic and over all cells; the library
must agree with them on random split complexes, their duals, and their
tensors with a complex whose ``tau`` is fractional.  On the same complexes,
``express`` must read every U-shifted homology generator back as itself.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilocal import (
    DOWN,
    INFINITE,
    UP,
    Cell,
    ChainMap,
    FUModule,
    GeometricComplex,
    SplitComplex,
    Tower,
    canonical_splitting,
    complex_to_json,
    decompose,
    double,
    dual,
    homology,
    tensor,
)
from ilocal.doubling import _lifted
from ilocal.suite import admissible_deltas, random_split_complex, random_splitting


def ref_width(b):
    gaps = [b.cells[tid].gr - b.cells[cid].gr for cid in b.cells for tid in b.bdry[cid]]
    return int(min(gaps)) if gaps else INFINITE


def ref_dual(b):
    """(cells as {id: (dim, gr)}, bdry) of the dual, by the quadratic formula."""
    n = b.max_dim()
    cells = {cid + "*": (n - c.dim, -c.gr - n) for cid, c in b.cells.items()}
    bdry = {
        cid + "*": frozenset(src + "*" for src in b.ids() if cid in b.bdry[src])
        for cid in b.ids()
    }
    return cells, bdry


def ref_decompose(sc, chain, chosen):
    chain, chosen = frozenset(chain), frozenset(chosen)
    a, b = set(), set()
    for c in chosen:
        in_c, in_j = c in chain, sc.J[c] in chain
        if in_c and in_j:
            b.add(c)
        elif in_c:
            a.add(c)
        elif in_j:
            a.add(c)
            b.add(c)
    return frozenset(a), frozenset(b), 1 if sc.fixed in chain else 0


def ref_double(x, delta, chosen):
    """The double of ``x``, with one decomposition per chosen cell."""
    eta, taken = x.fixed, set(x.ids())
    k = 1
    while True:
        suffix = "" if k == 1 else str(k)
        omega, j_omega, theta = "omega" + suffix, "J.omega" + suffix, "theta" + suffix
        if not {omega, j_omega, theta} & taken:
            break
        k += 1
    e = x.cells[eta]
    cells = [c for cid, c in x.cells.items() if cid != eta]
    cells += [Cell(omega, e.dim, e.gr), Cell(j_omega, e.dim, e.gr), Cell(theta, e.dim + 1, e.gr - 2 * delta)]
    J = {cid: jid for cid, jid in x.J.items() if cid != eta}
    J.update({omega: j_omega, j_omega: omega, theta: theta})
    bdry = {omega: x.bdry[eta], j_omega: {J[t] for t in x.bdry[eta]}, theta: {omega, j_omega}}
    for c in chosen:
        dc = x.bdry[c]
        if eta in dc:
            bdry[c] = (dc - {eta}) | {omega}
        else:
            _, b, _ = ref_decompose(x, dc, chosen)
            db = frozenset()
            for bi in b:
                db ^= x.bdry[bi]
            bdry[c] = dc | {theta} if eta in db else dc
        bdry[x.J[c]] = {J[t] for t in bdry[c]}
    return SplitComplex(GeometricComplex(cells, bdry, x.tau), J)


def ref_u_exponent(b, src, tgt):
    gap = b.cells[tgt].gr - b.cells[src].gr
    assert gap >= 0 and gap % 2 == 0, (src, tgt, gap)
    return int(gap / 2)


def ref_tensor(c1, c2):
    """The product built cell by cell, one id and one grading sum per use."""

    def pid(u, v):
        return f"{u}⊗{v}"

    cells = [
        Cell(pid(u.id, v.id), u.dim + v.dim, u.gr + v.gr)
        for u in c1.cells.values()
        for v in c2.cells.values()
    ]
    bdry = {
        pid(u, v): {pid(du, v) for du in c1.bdry[u]} | {pid(u, dv) for dv in c2.bdry[v]}
        for u in c1.ids()
        for v in c2.ids()
    }
    g = GeometricComplex(cells, bdry, (c1.tau + c2.tau) % 2)
    if isinstance(c1, SplitComplex) and isinstance(c2, SplitComplex):
        return SplitComplex(g, {pid(u, v): pid(c1.J[u], c2.J[v]) for u in c1.ids() for v in c2.ids()})
    return g


def ref_sort_key(t):
    # descending top, then descending length, then down < up < unoriented
    return (-t.top, -t.length, {DOWN: 0, UP: 1, None: 2}[t.orientation])


def fractional_xi(i, offset):
    """The basis complex X_i with every grading raised by ``offset``."""
    cells = [Cell("a", 0, offset), Cell("Ja", 0, offset), Cell("b", 1, offset - 2 * i)]
    g = GeometricComplex(cells, {"b": {"a", "Ja"}})
    return SplitComplex(g, {"a": "Ja", "Ja": "a", "b": "b"})


def complexes_of(seed):
    rng = random.Random(seed)
    sc = random_split_complex(rng, max_cells=10)
    offset = rng.choice((F(1, 2), F(-3, 2), F(1, 3), F(5, 3), F(7, 4)))
    frac = fractional_xi(rng.randint(1, 3), offset)
    return rng, [sc, dual(sc), tensor(sc, frac), dual(tensor(frac, sc))]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_width_and_u_exponent_match_fraction_formulas(seed):
    _, cs = complexes_of(seed)
    for c in cs:
        assert c.width() == ref_width(c)
        for src in c.ids():
            assert c.fu_bdry(src) == {tgt: ref_u_exponent(c, src, tgt) for tgt in c.bdry[src]}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_dual_matches_quadratic_transpose(seed):
    _, cs = complexes_of(seed)
    for c in cs:
        d = dual(c)
        cells, bdry = ref_dual(c)
        assert {cid: (cell.dim, cell.gr) for cid, cell in d.cells.items()} == cells
        assert list(d.cells) == list(cells)
        assert d.bdry == bdry
        assert d.width() == ref_width(d)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_decompose_matches_walk_over_the_splitting(seed):
    rng, cs = complexes_of(seed)
    for c in cs:
        ids = c.ids()
        for chosen in (canonical_splitting(c), random_splitting(rng, c)):
            chains = [c.bdry[cid] for cid in ids]
            chains += [frozenset(rng.sample(ids, rng.randint(0, len(ids)))) for _ in range(5)]
            for chain in chains:
                assert decompose(c, chain, chosen) == ref_decompose(c, chain, chosen)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_double_matches_one_decomposition_per_cell(seed):
    rng = random.Random(seed)
    sc = random_split_complex(rng, max_cells=14)
    for x in (sc, dual(sc)):
        for chosen in (canonical_splitting(x), random_splitting(rng, x)):
            for delta in admissible_deltas(x, cap=4):
                got = double(x, delta, chosen).complex
                assert complex_to_json(got) == complex_to_json(ref_double(x, delta, chosen))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_degree_of_and_u_power_match_the_maslov_rule(seed):
    # U^k e has Maslov degree gr(e) + dim(e) - 2k; u_power inverts that and
    # rejects a degree above M(e), an odd gap and a non-integer gap
    _, cs = complexes_of(seed)
    for c in cs:
        for cid, cell in c.cells.items():
            m = cell.gr + cell.dim
            for k in range(4):
                assert c.degree_of(cid, k) == m - 2 * k
                assert c.u_power(cid, c.degree_of(cid, k)) == k
            for bad in (m + 2, m - 1, m - F(1, 2)):
                with pytest.raises(ValueError):
                    c.u_power(cid, bad)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_homology_order_is_the_fraction_order(seed):
    _, cs = complexes_of(seed)
    for c in cs:
        expected = sorted(c.ids(), key=lambda cid: (-c.cells[cid].gr, c.cells[cid].dim, cid))
        assert list(homology(c)._order) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_tensor_matches_cell_by_cell_product(seed):
    _, cs = complexes_of(seed)
    plain = GeometricComplex(cs[1].cells.values(), cs[1].bdry, cs[1].tau)
    for a in cs:
        for b in (cs[0], cs[1], plain):
            got, want = tensor(a, b), ref_tensor(a, b)
            assert isinstance(got, SplitComplex) == isinstance(want, SplitComplex)
            assert complex_to_json(got) == complex_to_json(want)
            assert complex_to_json(tensor(b, a)) == complex_to_json(ref_tensor(b, a))


def shifted(chain, k):
    """U^k times a homogeneous chain."""
    return {cid: exp + k for cid, exp in chain.items()}


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_express_reads_each_shifted_generator_back(seed):
    # U^k times the i-th free cycle is ("free", i, k); U^k times the i-th
    # torsion cycle of length L is ("torsion", i, k) below L and zero from L on
    _, cs = complexes_of(seed)
    for c in cs:
        h = homology(c)
        for i, (degree, chain) in enumerate(h.free_cycles):
            for k in range(3):
                assert h.express(shifted(chain, k), degree - 2 * k) == [("free", i, k)]
        for i, (_, z, length) in enumerate(h.torsion_pairs):
            degree = h.chain_degree(z)
            for k in range(length + 2):
                want = [("torsion", i, k)] if k < length else []
                assert h.express(shifted(z, k), degree - 2 * k) == want


def ref_maslov(c, cid):
    cell = c.cells[cid]
    return cell.gr + cell.dim


def ref_lifted(src, tgt, src_id, target_ids):
    """Each target cell with the k making M(tid) - 2k equal M(src_id)."""
    m = ref_maslov(src, src_id)
    terms = []
    for tid in target_ids:
        gap = ref_maslov(tgt, tid) - m
        if gap < 0 or gap % 2 != 0:
            raise ValueError(f"degree {m} is not M({tid!r}) - 2k for an integer k >= 0")
        terms.append((tid, int(gap / 2)))
    return frozenset(terms)


def ref_grading_witness(f):
    for cid in f.source.ids():
        for tid, exp in sorted(f.assignment[cid]):
            if ref_maslov(f.target, tid) - 2 * exp != ref_maslov(f.source, cid):
                return {
                    "cell": cid,
                    "term": [tid, exp],
                    "reason": "image term does not preserve the Maslov grading",
                }
    return None


def lift_outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
        return ("raised", str(exc))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_chain_map_gradings_match_fraction_formulas(seed):
    # every ordered pair of complexes, so the source and target denominators
    # agree in some pairs and differ in others
    rng, cs = complexes_of(seed)
    for src in cs:
        for tgt in cs:
            assignment = {}
            for cid in src.ids():
                tids = rng.sample(tgt.ids(), min(len(tgt), rng.randint(0, 3)))
                assert lift_outcome(_lifted, src, tgt, cid, tids) == lift_outcome(
                    ref_lifted, src, tgt, cid, tids
                )
                # a grading-preserving image from the cells a lift exists for
                gaps = {t: ref_maslov(tgt, t) - ref_maslov(src, cid) for t in tgt.ids()}
                fits = [t for t, gap in gaps.items() if gap >= 0 and gap % 2 == 0]
                tids = rng.sample(fits, min(len(fits), rng.randint(0, 3)))
                assignment[cid] = lifted = _lifted(src, tgt, cid, tids)
                assert lifted == ref_lifted(src, tgt, cid, tids)
            f = ChainMap(src, tgt, assignment)
            assert f.grading_witness() is None
            assert ref_grading_witness(f) is None
            # one exponent moved up or down by one
            victims = [cid for cid in src.ids() if assignment[cid]]
            if not victims:
                continue
            cid = rng.choice(victims)
            tid, exp = rng.choice(sorted(assignment[cid]))
            moved = exp + 1 if exp == 0 or rng.random() < 0.5 else exp - 1
            assignment[cid] = (assignment[cid] - {(tid, exp)}) | {(tid, moved)}
            bad = ChainMap(src, tgt, assignment)
            assert bad.grading_witness() is not None
            assert bad.grading_witness() == ref_grading_witness(bad)


def random_module(rng):
    towers = []
    for _ in range(rng.randint(0, 12)):
        top = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
        if rng.random() < 0.2:
            towers.append(Tower(top, INFINITE))
        else:
            towers.append(Tower(top, rng.randint(1, 3), rng.choice((DOWN, UP, None))))
    return FUModule(tuple(towers))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6))
def test_module_order_matches_fraction_sort_key(seed):
    rng = random.Random(seed)
    m = random_module(rng)
    assert m.canonical().towers == tuple(sorted(m.towers, key=ref_sort_key))
    pairs = sorted(((t.top, t.length) for t in m.towers), key=lambda p: (-p[0], -p[1]))
    assert tuple((t.top, t.length) for t in m.canonical().towers) == tuple(pairs)
