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

Once a map passes the grading check, the library reads its chain, J and
g o f = id checks, and their witnesses, on F2 patterns of cell positions.
Sums of U-shifted images are the references for those checks: on local
maps and their one-term mutants that keep the gradings, verdicts and
witnesses must equal theirs.  The local maps themselves must equal, term by
term, the maps read off the formulas of the ``doubling`` docstring.  The
U-localized check is decided at U = 1 on the two reductions; its reference
expresses the image of the free cycle over the target's towers
(``induced_map``) and looks for a free entry.
"""

import importlib
import random
import re
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
    LinearCombination,
    SplitComplex,
    Tower,
    build_trivial,
    canonical_splitting,
    complex_from_json,
    complex_to_json,
    decompose,
    double,
    dual,
    half,
    homology,
    induced_map,
    is_u_localized_iso,
    local_map_f,
    local_map_g,
    representative,
    tensor,
    verify_local_pair,
)
from ilocal.homology import _derived_map, _is_left_inverse
from ilocal.suite import admissible_deltas, random_split_complex, random_splitting

# the package exports the function homology under the module's name
homology_module = importlib.import_module("ilocal.homology")


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


def ref_fresh_names(x):
    """omega, J.omega and theta, suffixed by the first k >= 2 that is free if taken."""
    taken = set(x.ids())
    k = 1
    while True:
        suffix = "" if k == 1 else str(k)
        names = ("omega" + suffix, "J.omega" + suffix, "theta" + suffix)
        if not set(names) & taken:
            return names
        k += 1


def ref_double(x, delta, chosen):
    """The double of ``x``, with one decomposition per chosen cell."""
    eta = x.fixed
    omega, j_omega, theta = ref_fresh_names(x)
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


def frozenset_double(x, delta, chosen):
    """``double`` as it was stated on id boundaries: (complex, labels JSON).

    Only the cells next to eta get a new boundary, with the theta flag read
    as a parity; the cells keep x's order, with omega, J.omega and theta
    appended.
    """
    eta, xb = x.fixed, x.bdry
    _, zeta, _ = ref_decompose(x, xb[eta], chosen)
    omega, j_omega, theta = ref_fresh_names(x)
    e = x.cells[eta]
    cells = [c for cid, c in x.cells.items() if cid != eta]
    cells += [Cell(omega, e.dim, e.gr), Cell(j_omega, e.dim, e.gr), Cell(theta, e.dim + 1, e.gr - 2 * delta)]
    J = {cid: jid for cid, jid in x.J.items() if cid != eta}
    J.update({omega: j_omega, j_omega: omega, theta: theta})
    cob = {s for s, ds in xb.items() if eta in ds}
    unchosen_cob = cob - chosen
    bdry = {cid: ds for cid, ds in xb.items() if cid != eta}
    for c in chosen:
        dc, jc = xb[c], x.J[c]
        if c in cob:
            bdry[c] = (dc - {eta}) | {omega}
            bdry[jc] = (xb[jc] - {eta}) | {j_omega}
        elif len(dc & unchosen_cob) % 2:
            bdry[c] = dc | {theta}
            bdry[jc] = xb[jc] | {theta}
    bdry[omega] = bdry[j_omega] = xb[eta]
    bdry[theta] = {omega, j_omega}
    labels = {"omega": omega, "j_omega": j_omega, "theta": theta, "eta": eta,
              "zeta": sorted(zeta), "splitting": sorted(chosen | {omega})}
    return SplitComplex(GeometricComplex(cells, bdry, x.tau), J), labels


def frozenset_dual(c):
    """``dual`` as it was stated on id boundaries: one pass over the edges."""
    n = c.max_dim()
    star = {cid: cid + "*" for cid in c.ids()}
    cells = [Cell(star[cid], n - cell.dim, -cell.gr - n) for cid, cell in c.cells.items()]
    sources = {cid: [] for cid in c.ids()}
    for src in c.ids():
        for tid in c.bdry[src]:
            sources[tid].append(star[src])
    g = GeometricComplex(cells, {star[cid]: srcs for cid, srcs in sources.items()}, -n - c.tau)
    return SplitComplex(g, {star[cid]: star[c.J[cid]] for cid in c.ids()})


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


def shuffled(rng, c):
    """``c`` read back from its JSON with the cells in a random order."""
    obj = complex_to_json(c)
    rng.shuffle(obj["cells"])
    return complex_from_json(obj)


def test_double_and_half_match_id_boundaries_in_any_cell_order(split_corpus):
    # every complex the library builds has its fixed cell last; a shuffled
    # order moves eta, so double renumbers the positions after it and
    # leaves the coboundary to be built on first read
    rng = random.Random("shuffled cell order")
    moved = cases = 0
    for sc in split_corpus:
        for _ in range(2):
            x = shuffled(rng, sc)
            moved += x.ids()[-1] != x.fixed
            dx = frozenset_dual(x)
            for delta in admissible_deltas(x, cap=4):
                chosen = random_splitting(rng, x)
                dr = double(x, delta, chosen)
                ref, labels = frozenset_double(x, delta, chosen)
                assert complex_to_json(dr.complex) == complex_to_json(ref)
                assert dr.labels_json() == labels
                # the edited coboundary (a view where eta moved) and partners
                c = dr.complex
                assert [set(row) for row in c._coadj] == [set(row) for row in ref._coadj]
                assert (list(c._jpos), c._fpos) == (ref._jpos, ref._fpos)
                ref_half = frozenset_dual(frozenset_double(dx, delta, canonical_splitting(dx))[0])
                assert complex_to_json(half(x, delta)) == complex_to_json(ref_half)
                f, g = local_map_f(x, delta, chosen), local_map_g(x, delta, chosen)
                assert verify_local_pair(f, g).passed
                cases += 1
    assert moved > 250 and cases > 1000, (moved, cases)


# names a double may take, and names of no suffix ("omega1", "theta02")
NAME_POOL = ("omega", "J.omega", "theta", "omega2", "J.omega2", "theta2", "omega3",
             "theta3", "J.omega4", "omega1", "theta02")


def renamed(rng, c):
    """``c`` read back from its JSON with its fixed cell and a few others renamed from NAME_POOL."""
    obj = complex_to_json(c)
    ids = [cell["id"] for cell in obj["cells"]]
    free = [name for name in NAME_POOL if name not in ids]
    others = [cid for cid in ids if cid != obj["fixed"]]
    k = rng.randint(1, min(len(free), len(others) + 1, 5))
    new = dict(zip([obj["fixed"]] + rng.sample(others, k - 1), rng.sample(free, k)))
    for cell in obj["cells"]:
        cell["id"] = new.get(cell["id"], cell["id"])
    for key in ("bdry", "J"):
        obj[key] = [[new.get(u, u), new.get(v, v)] for u, v in obj[key]]
    obj["fixed"] = new[obj["fixed"]]
    return complex_from_json(obj)


def doubled_checking_names(x, delta, splitting=None):
    """The double of ``x``, whose names must be the probe's from suffix 1."""
    dr = double(x, delta, splitting)
    assert (dr.omega, dr.j_omega, dr.theta) == ref_fresh_names(x)
    return dr.complex


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_fresh_names_equal_the_probe_from_one(seed):
    # double records where the next probe may start; along chains of
    # doubles and duals the names must be those of the probe from suffix 1,
    # also when eta's own name is one of them
    rng = random.Random(seed)
    starts = [random_split_complex(rng, max_cells=10)]
    starts.append(renamed(rng, starts[0]))
    for s in starts:
        for _ in range(rng.randint(2, 7)):
            if rng.random() < 0.3:
                s = dual(s)
            else:
                delta = rng.choice(admissible_deltas(s, cap=3))
                s = doubled_checking_names(s, delta, random_splitting(rng, s))
    # the steps of representative, one by one
    lc = LinearCombination(tuple((rng.choice((1, -1)), rng.randint(1, 6)) for _ in range(12)))
    s = build_trivial()
    for sign, index in lc:
        s = doubled_checking_names(s, index) if sign > 0 else dual(doubled_checking_names(dual(s), index))
    assert complex_to_json(s) == complex_to_json(representative(lc))


#: short ids over these letters make prefix pairs that starring flips ("!"
#: and "(" sort below "*"), keeps (a "*" next) or ends ("a" and "b")
PREFIX_ALPHABET = ("a", "b", "!", "(", "*")


def prefix_relabelled(rng, sc):
    """``sc`` with distinct short ids over ``PREFIX_ALPHABET``, its cells in a random order."""
    words = set()
    while len(words) < len(sc):
        words.add("".join(rng.choice(PREFIX_ALPHABET) for _ in range(rng.randint(1, 2))))
    new = dict(zip(sc.ids(), rng.sample(sorted(words), len(words))))
    cells = [Cell(new[cid], c.dim, c.gr) for cid, c in sc.cells.items()]
    rng.shuffle(cells)
    g = GeometricComplex(cells, {new[s]: {new[t] for t in ts} for s, ts in sc.bdry.items()}, sc.tau)
    return SplitComplex(g, {new[a]: new[b] for a, b in sc.J.items()})


def test_splitting_fields_follow_the_ids_through_duals_and_doubles(split_corpus):
    # dual and double carry the canonical flags, the prefix pairs and the
    # new-name set; each must equal what the ids of the result give, by the
    # plain formulas here, through flips, kept and ended prefix pairs and
    # double's renumbering (a shuffled cell order moves eta)
    rng = random.Random("splitting fields")
    seen = dict.fromkeys(("flipped", "kept", "ended", "renumbered", "given"), 0)
    for sc in split_corpus * 2:
        c = prefix_relabelled(rng, sc)
        for _ in range(4):
            before = c
            if rng.random() < 0.5:
                c = dual(c)
                prefixed = set(before._prefixed)
                seen["flipped"] += any(c._canon[p] != before._canon[p] for p in range(len(c)))
                seen["kept"] += bool(prefixed & set(c._prefixed))
                seen["ended"] += bool(prefixed - set(c._prefixed))
            else:
                seen["renumbered"] += c.ids()[-1] != c.fixed
                splitting = random_splitting(rng, c) if rng.random() < 0.5 else None
                seen["given"] += splitting is not None
                c = double(c, rng.choice(admissible_deltas(c, cap=2)), splitting).complex
            ids, J = c.ids(), c.J
            assert c._canon == bytes([cid < J[cid] for cid in ids])
            assert canonical_splitting(c) == {cid for cid in ids if cid < J[cid]}
            assert c._prefixed == tuple(
                p for p, cid in enumerate(ids) if J[cid] != cid and J[cid].startswith(cid))
            assert c._named == {cid for cid in ids
                                if re.fullmatch(r"(omega|J\.omega|theta)([2-9]|[1-9][0-9]+)?", cid)}
    assert min(seen.values()) >= 15, seen


def test_pairs_follow_the_id_rule(split_corpus):
    # pairs(), and with it the JSON's J list, reads the canonical flags that
    # dual and double carry; each pair must still be (u, J(u)) with
    # u < J(u), in ids() order, also where starring flips a prefix pair
    rng = random.Random("pairs by ids")
    for sc in split_corpus:
        for c in (sc, prefix_relabelled(rng, sc)):
            for x in (c, dual(c)):
                doubled = double(x, rng.choice(admissible_deltas(x, cap=2)),
                                 random_splitting(rng, x)).complex
                for y in (x, doubled, dual(doubled)):
                    ids, J = y.ids(), y.J
                    assert list(y.pairs()) == [(u, J[u]) for u in ids if u < J[u]]


def test_fresh_names_after_doubling_a_fixed_omega():
    # eta is "omega", so the first double takes suffix 2; without eta,
    # suffix 1 is free again and the next double takes it
    x = complex_from_json({
        "tau": "0/1",
        "cells": [{"id": "a", "dim": 0, "gr": "0"}, {"id": "Ja", "dim": 0, "gr": "0"},
                  {"id": "omega", "dim": 1, "gr": "-4"}],
        "bdry": [["omega", "a"], ["omega", "Ja"]],
        "J": [["Ja", "a"]],
        "fixed": "omega",
    })
    names = []
    for _ in range(3):
        dr = double(x, 1)
        names.append((dr.omega, dr.j_omega, dr.theta))
        assert names[-1] == ref_fresh_names(x)
        x = dr.complex
    assert names == [("omega2", "J.omega2", "theta2"), ("omega", "J.omega", "theta"),
                     ("omega3", "J.omega3", "theta3")]


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


def global_order(result):
    """The cell ids of a ``ReductionResult`` sorted on its ``_key``: its global order."""
    ids = result.complex.ids()
    return tuple(ids[i] for i in sorted(range(len(ids)), key=result._key))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_homology_order_is_the_fraction_order(seed):
    _, cs = complexes_of(seed)
    for c in cs:
        expected = sorted(c.ids(), key=lambda cid: (-c.cells[cid].gr, c.cells[cid].dim, cid))
        assert list(global_order(homology(c))) == expected


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


def derived_lifted(src, tgt, src_id, target_ids):
    """The image of ``src_id`` under the library-built map whose only image it is."""
    pattern = [0] * len(src)
    pattern[src._index[src_id]] = sum(1 << tgt._index[tid] for tid in target_ids)
    return _derived_map(src, tgt, pattern).assignment[src_id]


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
                # in target positions, the order in which the lift pass
                # names the first term that has no lift
                tids = sorted(rng.sample(tgt.ids(), min(len(tgt), rng.randint(0, 3))),
                              key=tgt._index.__getitem__)
                assert lift_outcome(derived_lifted, src, tgt, cid, tids) == lift_outcome(
                    ref_lifted, src, tgt, cid, tids
                )
                # a grading-preserving image from the cells a lift exists for
                gaps = {t: ref_maslov(tgt, t) - ref_maslov(src, cid) for t in tgt.ids()}
                fits = [t for t, gap in gaps.items() if gap >= 0 and gap % 2 == 0]
                tids = rng.sample(fits, min(len(fits), rng.randint(0, 3)))
                assignment[cid] = lifted = derived_lifted(src, tgt, cid, tids)
                assert lifted == ref_lifted(src, tgt, cid, tids)
            f = ChainMap(src, tgt, assignment)
            assert f._grading is None
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
            assert bad._grading is not None
            assert bad._grading == ref_grading_witness(bad)


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


# -- the chain-map checks against sums of U-shifted images ---------------------


def ref_image_sum(images, terms):
    """The F2 sum of U^e images[cid] over the terms (cid, e)."""
    acc = set()
    for cid, e in terms:
        acc.symmetric_difference_update((tid, e + k) for tid, k in images[cid])
    return frozenset(acc)


def ref_chain_witness(f):
    d_tgt = {tid: f.target.fu_bdry(tid).items() for tid in f.target.ids()}
    for cid in f.source.ids():
        lhs = ref_image_sum(f.assignment, f.source.fu_bdry(cid).items())
        rhs = ref_image_sum(d_tgt, f.assignment[cid])
        if lhs != rhs:
            return {
                "cell": cid,
                "difference": [list(t) for t in sorted(lhs ^ rhs)],
                "reason": "d(f(x)) differs from f(d(x))",
            }
    return None


def ref_j_witness(f):
    for cid in f.source.ids():
        lhs = f.assignment[f.source.J[cid]]
        rhs = frozenset((f.target.J[tid], e) for tid, e in f.assignment[cid])
        if lhs != rhs:
            return {
                "cell": cid,
                "difference": [list(t) for t in sorted(lhs ^ rhs)],
                "reason": "f(Jx) differs from J(f(x))",
            }
    return None


def ref_identity_witness(g, f):
    """The witness that g o f is not the identity, or None."""
    for cid in f.source.ids():
        image = ref_image_sum(g.assignment, f.assignment[cid])
        if image != {(cid, 0)}:
            return {
                "cell": cid,
                "image": [list(t) for t in sorted(image)],
                "reason": "composite is not the identity here",
            }
    return None


def ref_report_witness(f, g):
    """The witness of the first of ``verify_local_pair``'s checks to fail, up to g o f = id."""
    for name, m in (("f", f), ("g", g)):
        w = ref_grading_witness(m) or ref_chain_witness(m)
        if w is not None:
            return {"check": "chain_map", "map": name, **w}
    for name, m in (("f", f), ("g", g)):
        w = ref_j_witness(m)
        if w is not None:
            return {"check": "j_equivariant", "map": name, **w}
    w = ref_identity_witness(g, f)
    return None if w is None else {"check": "gf_identity", **w}


def one_term_mutant(rng, m, kind):
    """``m`` with one term dropped, added or moved to its J-partner; None if it has no term."""
    assignment = {cid: set(terms) for cid, terms in m.assignment.items()}
    full = [cid for cid, terms in assignment.items() if terms]
    if kind == "add":
        cid, tid = rng.choice(m.source.ids()), rng.choice(m.target.ids())
        # the grading-preserving exponent if there is one, else (or now and then
        # on purpose) one that fails the grading check
        k = m.target._lift(m.target._index[tid], m.source._mnum[m.source._index[cid]], m.source._q)
        assignment[cid].add((tid, k + rng.choice((0, 0, 1)) if k is not None else rng.randint(0, 2)))
    elif not full:
        return None
    else:
        cid = rng.choice(full)
        tid, e = rng.choice(sorted(assignment[cid]))
        assignment[cid].discard((tid, e))
        if kind == "move":
            assignment[cid].add((m.target.J[tid], e))
    return ChainMap(m.source, m.target, assignment)


def local_pairs(corpus):
    """The local maps of one seeded delta and splitting per complex."""
    rng = random.Random("local pairs")
    for sc in corpus:
        delta = rng.choice(admissible_deltas(sc, cap=3))
        splitting = random_splitting(rng, sc)
        yield local_map_f(sc, delta, splitting), local_map_g(sc, delta, splitting)


def test_chain_map_checks_match_image_sums_on_local_maps_and_mutants(split_corpus, monkeypatch):
    # the checks and their witnesses read patterns and never sum U-shifted
    # images; a map that fails the grading check has no pattern, so its chain
    # and J checks report the grading witness
    sums = []
    image_sum = homology_module._image_sum

    def counted(*args):
        sums.append(args)
        return image_sum(*args)

    monkeypatch.setattr(homology_module, "_image_sum", counted)
    rng = random.Random("mutants")
    seen = {"grading fails": 0, "chain fails": 0, "j fails": 0, "gf fails": 0}
    for f, g in local_pairs(split_corpus):
        pairs = [(f, g)]
        for kind in ("drop", "add", "move"):
            for side in ("f", "g"):
                m = one_term_mutant(rng, f if side == "f" else g, kind)
                if m is not None:
                    pairs.append((m, g) if side == "f" else (f, m))
        for m in [f, g] + [m for pair in pairs[1:] for m in pair if m is not f and m is not g]:
            grading, chain, j = ref_grading_witness(m), ref_chain_witness(m), ref_j_witness(m)
            sums.clear()
            assert m._grading == grading
            if grading is None:
                assert m.chain_witness() == chain
                assert m.j_witness() == j
                seen["chain fails"] += chain is not None
                seen["j fails"] += j is not None
            else:
                assert m.chain_witness() == m.j_witness() == grading
                seen["grading fails"] += 1
            assert not sums
        for f_side, g_side in pairs:
            gf = ref_identity_witness(g_side, f_side)
            seen["gf fails"] += gf is not None
            if f_side._grading is None and g_side._grading is None:
                assert _is_left_inverse(g_side, f_side) == (gf is None)
            want = ref_report_witness(f_side, g_side)
            report = verify_local_pair(f_side, g_side)
            if want is None:
                assert report.gf_identity
            else:
                assert report.witness == want
    # every branch is driven many times
    assert min(seen.values()) >= 100, seen


# -- the local maps against their definition ----------------------------------


def ref_cell_tables(x, delta):
    """The double of x and its tensor with X_delta, each as (J, Maslov degree) by id.

    Neither depends on the splitting.  The double replaces eta by omega and
    J.omega of eta's degree and adds theta one dimension up and 2*delta
    down; a product cell u⊗v has J(u)⊗J(v) and the degrees' sum.
    """
    eta, J = x.fixed, x.J
    omega, j_omega, theta = ref_fresh_names(x)
    m = {cid: ref_maslov(x, cid) for cid in x.ids()}
    d_j = {**J, omega: j_omega, j_omega: omega, theta: theta}
    d_m = {**m, omega: m[eta], j_omega: m[eta], theta: m[eta] + 1 - 2 * delta}
    del d_j[eta], d_m[eta]
    xi_j, xi_m = {"a": "Ja", "Ja": "a", "b": "b"}, {"a": 0, "Ja": 0, "b": 1 - 2 * delta}
    t_j = {f"{u}⊗{v}": f"{J[u]}⊗{xi_j[v]}" for u in m for v in xi_m}
    t_m = {f"{u}⊗{v}": m[u] + xi_m[v] for u in m for v in xi_m}
    return (d_j, d_m), (t_j, t_m)


def j_extended(src, tgt, images):
    """The term sets of the map given by ``images`` on some source cells.

    ``src`` and ``tgt`` are (J, Maslov degree) tables.  The map is extended
    J-equivariantly, cells of the orbits left out map to zero, and each
    exponent is the Maslov lift.
    """
    (s_j, s_m), (t_j, t_m) = src, tgt
    full = dict(images)
    for cid, tids in images.items():
        full[s_j[cid]] = {t_j[t] for t in tids}
    terms = dict.fromkeys(s_m, frozenset())
    for cid, tids in full.items():
        ks = {tid: (t_m[tid] - s_m[cid]) / 2 for tid in tids}
        assert all(k >= 0 and k.denominator == 1 for k in ks.values()), (cid, ks)
        terms[cid] = frozenset((tid, int(k)) for tid, k in ks.items())
    return terms


def ref_local_maps(x, chosen, double_cells, tensor_cells):
    """f and g as term sets, from the formulas of the ``doubling`` module docstring.

    With d(x) = a + (1+J)b (+ eta) for a chosen cell x, f(x) = x.alpha +
    (Jb).beta, f(omega) = eta.alpha + (J zeta).beta and f(theta) = eta.beta;
    g sends x.alpha to x, x.(J alpha) to x plus theta when eta is in d(x),
    eta.alpha to omega and eta.beta to theta.
    """
    eta, J, bdry = x.fixed, x.J, x.bdry
    omega, _, theta = ref_fresh_names(x)

    def beta_terms(chain):
        _, b, _ = ref_decompose(x, chain, chosen)
        return {f"{J[c]}⊗b" for c in b}

    f = {c: {f"{c}⊗a"} | beta_terms(bdry[c]) for c in chosen}
    f[omega] = {f"{eta}⊗a"} | beta_terms(bdry[eta])
    f[theta] = {f"{eta}⊗b"}
    g = {f"{eta}⊗a": {omega}, f"{eta}⊗b": {theta}}
    for c in chosen:
        g[f"{c}⊗a"] = {c}
        g[f"{c}⊗Ja"] = {c, theta} if eta in bdry[c] else {c}
    return j_extended(double_cells, tensor_cells, f), j_extended(tensor_cells, double_cells, g)


def test_local_maps_match_their_definition(split_corpus):
    # the conftest fixture rebuilds a derived map from its own pattern, and
    # verify_local_pair checks properties of the pair; this pins every term
    rng = random.Random("local maps by definition")
    cases = 0
    for x in split_corpus:
        splittings = (None, random_splitting(rng, x))
        for delta in admissible_deltas(x):
            tables = ref_cell_tables(x, delta)
            for chosen in splittings:
                want_f, want_g = ref_local_maps(x, chosen or canonical_splitting(x), *tables)
                assert local_map_f(x, delta, chosen).assignment == want_f
                assert local_map_g(x, delta, chosen).assignment == want_g
                cases += 1
    assert cases > 1000, cases


# -- the U-localized check against the induced map ----------------------------


def ref_u_localized_iso(f, src_result, tgt_result):
    """Whether the free cycle's image has a free entry over the target's towers."""
    return any(kind == "free" for kind, _, _ in induced_map(f, src_result, tgt_result)[0])


def j_maps(c):
    """J and 1 + J on a split complex c.

    Both are chain maps, since J commutes with d and keeps gradings.  J is
    an isomorphism after inverting U and 1 + J is zero there, yet 1 + J
    sends the free cycle to a cycle that is often not zero in homology.
    """
    one_plus_j = {x: {(x, 0), (c.J[x], 0)} if c.J[x] != x else set() for x in c.ids()}
    return ChainMap(c, c, {x: {(c.J[x], 0)} for x in c.ids()}), ChainMap(c, c, one_plus_j)


def test_u_localized_iso_matches_the_induced_map(split_corpus):
    rng = random.Random("u-localized")
    verdicts = []
    for sc in split_corpus:
        splitting = random_splitting(rng, sc)
        for delta in admissible_deltas(sc):
            f, g = local_map_f(sc, delta, splitting), local_map_g(sc, delta, splitting)
            ha, hb = homology(f.source), homology(f.target)
            maps = [(f, ha, hb), (g, hb, ha)]
            maps += [(ChainMap(f.source, f.target, {}), ha, hb), (ChainMap(g.source, g.target, {}), hb, ha)]
            maps += [(m, ha, ha) for m in j_maps(f.source)] + [(m, hb, hb) for m in j_maps(f.target)]
            for m, hs, ht in maps:
                got = is_u_localized_iso(m, hs, ht)
                assert got == ref_u_localized_iso(m, hs, ht)
                verdicts.append(got)
    assert True in verdicts and False in verdicts
