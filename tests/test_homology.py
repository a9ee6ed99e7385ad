import importlib
import itertools
import json
import math
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ilocal import (
    Cell,
    ChainMap,
    GeometricComplex,
    INFINITE,
    InvalidComplex,
    NotAChainMap,
    NotSplit,
    SplitComplex,
    Tower,
    FUModule,
    build_misordered,
    build_trivial,
    build_xi,
    compose,
    dual,
    homology,
    induced_map,
    is_u_localized_iso,
    kunneth,
    representative,
    tensor,
)
from ilocal.complexes import _PRODUCT_TABLES, complex_to_json
from ilocal.homology import ReductionResult
from ilocal.suite import (
    check_duality,
    check_kunneth,
    random_combination,
    random_geometric_complex,
    random_split_complex,
)
from conftest import mod
from test_complexes_reference import fractional_xi, global_order, ref_tensor

# the package exports the function homology under the module's name
homology_module = importlib.import_module("ilocal.homology")

T = Tower


class TestHomology:
    def test_basis_complexes(self):
        for i in range(1, 8):
            assert homology(build_xi(i)).module == mod(T(F(0), INFINITE), T(F(0), i))

    def test_trivial(self):
        assert homology(build_trivial()).module == mod(T(F(0), INFINITE))

    def test_dual_xi(self):
        for i in (1, 2, 5):
            assert homology(dual(build_xi(i))).module == mod(
                T(F(0), INFINITE), T(F(2 * i - 1), i)
            )

    def test_misordered(self):
        assert homology(build_misordered(1, 2)).module == mod(
            T(F(0), INFINITE), T(F(0), 1), T(F(-1), 2)
        )

    def test_free_rank_one_for_iota_complexes(self):
        for c in (build_trivial(), build_xi(4), build_misordered(2, 3)):
            assert homology(c).module.free_rank == 1

    def test_torsion_pair_witnesses(self):
        result = homology(build_xi(3))
        ((killer, cycle, k),) = result.torsion_pairs
        assert k == 3
        assert cycle in ({"a": 0, "Ja": 0},)
        assert killer == {"b": 0}

    def test_relabel_invariance(self):
        rng = random.Random("relabel")
        for _ in range(25):
            c = random_geometric_complex(rng, max_cells=10)
            ids = list(c.ids())
            shuffled = ids[:]
            rng.shuffle(shuffled)
            mapping = dict(zip(ids, (f"z{i}" for i in range(len(ids)))))
            mapping = {k: mapping[v] for k, v in zip(ids, shuffled)}
            relabeled = GeometricComplex(
                [Cell(mapping[cell.id], cell.dim, cell.gr) for cell in c.cells.values()],
                {mapping[cid]: {mapping[t] for t in ts} for cid, ts in c.bdry.items()},
                c.tau,
            )
            assert homology(relabeled).module == homology(c).module

    def test_kunneth_cross_check(self):
        assert check_kunneth(build_xi(2), build_xi(3)) is None

    def test_nine_generator_square_reduces_directly(self):
        # independent check of the tensor-product oracle on the 9-cell square
        got = homology(tensor(build_xi(1), build_xi(1))).module
        assert got == mod(
            T(F(0), INFINITE), T(F(0), 1), T(F(0), 1), T(F(0), 1), T(F(-1), 1)
        )

    def test_duality_reflection(self):
        rng = random.Random("dual")
        for _ in range(25):
            w = check_duality(random_geometric_complex(rng, max_cells=10))
            assert w is None, w


class TestExpress:
    def test_free_class_round_trip(self):
        result = homology(build_xi(2))
        degree, chain = result.free_cycles[0]
        assert result.express(chain, degree) == [("free", 0, 0)]

    def test_torsion_class(self):
        result = homology(build_xi(2))
        _, cycle, _ = result.torsion_pairs[0]
        degree = result.chain_degree(cycle)
        assert result.express(cycle, degree) == [("torsion", 0, 0)]

    def test_u_multiple_past_length_vanishes(self):
        result = homology(build_xi(2))
        _, cycle, _ = result.torsion_pairs[0]
        degree = result.chain_degree(cycle)
        deep = {cid: e + 2 for cid, e in cycle.items()}
        assert result.express(deep, degree - 4) == []

    def test_empty_chain_has_no_degree(self):
        result = homology(build_xi(2))
        with pytest.raises(ValueError, match="an empty chain has no degree"):
            result.chain_degree({})

    def test_non_cycle_rejected(self):
        result = homology(build_xi(2))
        with pytest.raises(ValueError):
            result.express({"b": 0}, result.complex.maslov("b"))

    def test_unknown_cell_rejected(self):
        result = homology(build_xi(2))
        with pytest.raises(ValueError, match="chain mentions unknown cell 'z'"):
            result.express({"a": 0, "z": 0}, 0)

    @pytest.mark.parametrize("exp", [0.5, 1.0, "1", True])
    def test_non_integer_exponent_rejected(self, exp):
        result = homology(build_xi(2))
        with pytest.raises(ValueError, match="invalid U-exponent"):
            result.express({"a": exp}, -2)

    def test_negative_exponent_rejected(self):
        # M(a) - 2(-1) = 2, so the homogeneity check alone would pass it
        result = homology(build_xi(2))
        assert result.complex.degree_of("a", -1) == 2
        with pytest.raises(ValueError, match="invalid U-exponent -1 at 'a'"):
            result.express({"a": -1}, 2)

    def test_inhomogeneous_chain_rejected(self):
        # M(a) = 0 and M(b) = -4 + 1, so a + b has no one degree
        result = homology(build_xi(2))
        with pytest.raises(ValueError, match=r"^chain is not homogeneous of degree 0 at 'b'$"):
            result.express({"a": 0, "b": 0}, 0)

    @pytest.mark.parametrize("chain, message", [
        ({"z": 0}, "chain mentions unknown cell 'z'"),
        ({"a": 0, "z": 0}, "chain mentions unknown cell 'z'"),
        # degree_of would read these as degree 2 and the float -1.0
        ({"a": -1}, "chain carries invalid U-exponent -1 at 'a'"),
        ({"a": 0.5}, "chain carries invalid U-exponent 0.5 at 'a'"),
    ])
    def test_chain_degree_rejects_terms_as_express_does(self, chain, message):
        result = homology(build_xi(2))
        for read in (result.chain_degree, lambda ch: result.express(ch, 0)):
            with pytest.raises(ValueError) as info:
                read(chain)
            assert str(info.value) == message


class TestLazyRepresentatives:
    @pytest.mark.parametrize("read", ["module", "free_cycles", "torsion_pairs", "witnesses_json"])
    def test_built_on_first_read(self, monkeypatch, read):
        c = build_xi(1)
        for i, dualised in ((2, True), (3, False), (1, True), (4, False), (2, False)):
            c = tensor(c, dual(build_xi(i)) if dualised else build_xi(i))
        assert len(c) == 3**6
        # the representatives lift cells by u_power; the module is built from counts
        calls = []
        u_power = GeometricComplex.u_power
        monkeypatch.setattr(
            GeometricComplex, "u_power", lambda *args: calls.append(args) or u_power(*args)
        )
        from_counts = homology_module._module_from_counts
        monkeypatch.setattr(
            homology_module, "_module_from_counts", lambda *args: calls.append(args) or from_counts(*args)
        )
        result = homology(c)
        assert calls == []
        assert not {"module", "free_cycles", "torsion_pairs"} & vars(result).keys()
        value = getattr(result, read)
        if read == "witnesses_json":
            value = value()
        assert calls
        built = len(calls)
        # a second read builds nothing; a cached attribute is the same object
        again = getattr(result, read)
        if read == "witnesses_json":
            assert again() == value
        else:
            assert again is value
        assert len(calls) == built
        assert result.module.free_rank == 1 and len(result.module) > 1

    def test_verify_local_pair_builds_no_module(self, monkeypatch):
        from ilocal import doubling, local_map_f, local_map_g, verify_local_pair

        results = []
        monkeypatch.setattr(doubling, "homology", lambda c: results.append(homology(c)) or results[-1])
        x = build_xi(4)
        report = verify_local_pair(local_map_f(x, 3), local_map_g(x, 3))
        assert report.passed and len(results) == 2
        assert all("module" not in vars(r) for r in results)
        # the precondition read the free towers off the reductions
        assert [r.module.free_rank for r in results] == [1, 1]


class TestChainMap:
    def test_identity_induces_identity(self):
        c = build_xi(2)
        entries = induced_map(ChainMap(c, c, {cid: {(cid, 0)} for cid in c.ids()}))
        assert entries == [[("free", 0, 0)]]

    def test_zero_map_induces_zero(self):
        c = build_xi(1)
        zero = ChainMap(c, c, {})
        assert induced_map(zero) == [[]]
        assert is_u_localized_iso(zero) is False

    def test_identity_is_u_localized_iso(self):
        c = build_xi(3)
        assert is_u_localized_iso(ChainMap(c, c, {cid: {(cid, 0)} for cid in c.ids()})) is True

    def test_local_map_hits_free_generator_with_unit_coefficient(self):
        from ilocal import local_map_f, local_map_g

        for m in (local_map_f(build_xi(4), 3), local_map_g(build_xi(4), 3)):
            (entries,) = induced_map(m)
            assert ("free", 0, 0) in entries
            assert is_u_localized_iso(m) is True

    def test_u_multiplication_is_still_an_iso(self):
        # a valid degree-shifted inclusion: multiply the free generator by U
        c = build_trivial()
        m = ChainMap(c, c, {"eta": {("eta", 1)}})
        # not grading-preserving, so the checker must reject it
        with pytest.raises(NotAChainMap):
            induced_map(m)

    @pytest.mark.parametrize("exp", [-1, 1.0, True], ids=["negative", "float", "bool"])
    def test_invalid_u_exponent_rejected(self, exp):
        c = build_xi(1)
        with pytest.raises(ValueError, match=f"'a' carries invalid U-exponent {exp!r}"):
            ChainMap(c, c, {"a": {("a", exp)}})

    @pytest.mark.parametrize("assignment, message", [
        ({"z": set()}, "assignment mentions unknown source cell 'z'"),
        ({"a": {("z", 0)}}, "image of 'a' mentions unknown target cell 'z'"),
    ], ids=["source", "target"])
    def test_unknown_cell_rejected(self, assignment, message):
        c = build_xi(1)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            ChainMap(c, c, assignment)

    def test_non_chain_map_rejected(self):
        c = build_xi(1)
        bad = ChainMap(c, c, {"a": {("a", 0)}, "Ja": {("Ja", 0)}, "b": set()})
        with pytest.raises(NotAChainMap):
            induced_map(bad)

    @pytest.mark.parametrize("other", [build_xi(2), build_misordered(1, 2)], ids=["xi2", "misordered"])
    def test_results_of_another_complex_rejected(self, other):
        # results of another complex are refused, not read as f's own (X_2's
        # would pass, and the misordered complex's raise a bare KeyError)
        c = build_xi(1)
        f = ChainMap(c, c, {cid: {(cid, 0)} for cid in c.ids()})
        own, wrong = homology(c), homology(other)
        for fn in (induced_map, is_u_localized_iso):
            with pytest.raises(ValueError, match="^the source reduction result is not of the map's source$"):
                fn(f, wrong, wrong)
            with pytest.raises(ValueError, match="^the target reduction result is not of the map's target$"):
                fn(f, own, wrong)
        # an equal complex built afresh is the same complex
        assert is_u_localized_iso(f, homology(build_xi(1)), own) is True

    def test_u_localized_iso_rejects_maps_that_fail_a_check(self):
        # the U = 1 verdict holds only for grading-preserving chain maps
        c = build_xi(1)
        off_grading = ChainMap(c, c, {cid: {(cid, 1)} for cid in c.ids()})
        not_chain = ChainMap(c, c, {"a": {("a", 0)}, "Ja": {("Ja", 0)}, "b": set()})
        assert off_grading._grading is not None
        assert not_chain._grading is None and not_chain.chain_witness() is not None
        for m in (off_grading, not_chain):
            with pytest.raises(NotAChainMap):
                is_u_localized_iso(m)
            with pytest.raises(NotAChainMap):
                is_u_localized_iso(m, homology(c), homology(c))

    def test_free_rank_is_checked_before_the_chain_map(self):
        # two free towers and a map that is no chain map: the precondition
        # fails first, with its message
        g = GeometricComplex([Cell("x", 0, F(0)), Cell("y", 0, F(0))], {})
        bad = ChainMap(g, g, {"x": {("x", 1)}})
        assert bad._grading is not None
        with pytest.raises(ValueError, match="^U-localized iso test requires free rank one on both sides$"):
            is_u_localized_iso(bad)

    def test_free_cycle_onto_a_torsion_class_is_not_an_iso(self):
        # a, Ja -> a + Ja and b -> 0 is a chain map of X_i, since
        # d(b) = U^i (a + Ja); it sends the free cycle to the torsion
        # generator, a nonzero class that dies once U is inverted
        for i in (1, 3):
            c = build_xi(i)
            m = ChainMap(c, c, {"a": {("a", 0), ("Ja", 0)}, "Ja": {("a", 0), ("Ja", 0)}})
            assert m.chain_witness() is None
            assert induced_map(m) == [[("torsion", 0, 0)]]
            assert is_u_localized_iso(m) is False

    def test_free_rank_precondition(self):
        two_free = tensor(build_xi(1), build_xi(1))
        # rank-one check needs rank one; fabricate a rank-2 complex
        from ilocal import Cell, GeometricComplex

        g = GeometricComplex([Cell("x", 0, F(0)), Cell("y", 0, F(0))], {})
        with pytest.raises(ValueError):
            is_u_localized_iso(ChainMap(g, g, {"x": {("x", 0)}, "y": {("y", 0)}}))
        assert homology(two_free).module.free_rank == 1  # sanity: tensor stays rank one


GRADING = "image term does not preserve the Maslov grading"


class TestWitnessDicts:
    """The exact witness of each check: the first failure in cell order, and
    within a cell's image the first failing term in sorted order."""

    def test_grading_reports_first_bad_term_in_sorted_order(self):
        a = fractional_xi(2, F(1, 2))  # tau = 1/2
        # ("Ja", 0) keeps the grading; ("a", 1) and ("b", 0) do not
        image = {("b", 0), ("a", 1), ("Ja", 0)}
        m = ChainMap(a, a, {"a": {("a", 0)}, "Ja": image, "b": {("b", 0)}})
        assert m._grading == {"cell": "Ja", "term": ["a", 1], "reason": GRADING}
        m = ChainMap(a, a, {"a": {("b", 0)}, "Ja": {("a", 1)}})
        assert m._grading == {"cell": "a", "term": ["b", 0], "reason": GRADING}

    def test_checks_on_a_half_integer_tensor(self):
        c = tensor(fractional_xi(2, F(1, 2)), build_xi(1))
        assert c.tau == F(1, 2)
        assignment = {cid: {(cid, 0)} for cid in c.ids()}
        assignment["a⊗a"] = {("Ja⊗a", 0)}
        m = ChainMap(c, c, assignment)
        assert m._grading is None
        # a⊗b and b⊗a both fail; a⊗b comes first in cell order
        assert m.chain_witness() == {
            "cell": "a⊗b",
            "difference": [["Ja⊗a", 1], ["a⊗a", 1]],
            "reason": "d(f(x)) differs from f(d(x))",
        }
        assert m.j_witness() == {
            "cell": "a⊗a",
            "difference": [["Ja⊗Ja", 0], ["a⊗Ja", 0]],
            "reason": "f(Jx) differs from J(f(x))",
        }
        assert m.identity_witness() == {
            "cell": "a⊗a",
            "image": [["Ja⊗a", 0]],
            "reason": "composite is not the identity here",
        }

    def test_source_and_target_with_different_denominators(self):
        src, tgt = fractional_xi(1, F(1, 2)), fractional_xi(1, F(1, 3))
        # no degree of the source (denominator 2) is a degree of the target
        m = ChainMap(src, tgt, {"Ja": {("b", 0), ("a", 0)}})
        # a map that fails the grading check has no pattern to check, so the
        # chain and J checks report the grading witness
        witness = {"cell": "Ja", "term": ["a", 0], "reason": GRADING}
        assert m._grading == m.chain_witness() == m.j_witness() == witness
        zero = ChainMap(src, tgt, {})
        assert zero._grading is None
        assert zero.chain_witness() is None
        assert zero.j_witness() is None
        assert zero.identity_witness() == {
            "cell": "a",
            "image": [],
            "reason": "composite is not the identity here",
        }
        assert ChainMap(src, build_trivial(), {}).identity_witness() == {
            "reason": "source and target cells differ"
        }

    def test_j_check_needs_split_source_and_target(self):
        g = GeometricComplex([Cell("x", 0, F(0))], {})
        x = build_xi(1)
        for m in (
            ChainMap(g, g, {"x": {("x", 0)}}),
            ChainMap(x, g, {"a": {("x", 0)}, "Ja": {("x", 0)}}),
            ChainMap(g, x, {"x": {("a", 0)}}),
        ):
            assert m._grading is None and m.chain_witness() is None
            with pytest.raises(NotSplit, match="J-equivariance requires split source and target"):
                m.j_witness()

    def test_compose_rejects_maps_that_do_not_compose(self):
        x, t = build_xi(1), build_trivial()
        f = ChainMap(x, x, {cid: {(cid, 0)} for cid in x.ids()})
        g = ChainMap(t, t, {"eta": {("eta", 0)}})
        for outer, inner in ((g, f), (f, g)):
            with pytest.raises(ValueError, match="maps are not composable: middle complexes disagree"):
                compose(outer, inner)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_kunneth_matches_tensor_on_random_pairs(seed):
    rng = random.Random(seed)
    c1 = random_geometric_complex(rng, max_cells=9)
    c2 = random_geometric_complex(rng, max_cells=9)
    w = check_kunneth(c1, c2)
    assert w is None, w


# -- homology against the one-tower-per-generator reference ----------------


def global_reduction(c):
    """The reduction of ``homology`` as one pass over the whole order, without clearing.

    Returns the order, the positions and R, V and the pivot owners, with
    R[j] the sum of the boundary columns of the cells in V[j].
    """
    cells = c.cells
    order = tuple(sorted(c.ids(), key=lambda cid: (-cells[cid].gr, cells[cid].dim, cid)))
    pos = {cid: i for i, cid in enumerate(order)}
    R, V, owner = [], [], {}
    for j, cid in enumerate(order):
        col, v = sum(1 << pos[t] for t in c.bdry[cid]), 1 << j
        while col and col.bit_length() - 1 in owner:
            k = owner[col.bit_length() - 1]
            col, v = col ^ R[k], v ^ V[k]
        R.append(col)
        V.append(v)
        if col:
            owner[col.bit_length() - 1] = j
    return order, pos, R, V, owner


def torsion_length(c, src, top):
    """(gr(top) - gr(src)) / 2 on the ``Fraction`` gradings: the U-power of ``top`` in d(src)."""
    k = (c.cells[top].gr - c.cells[src].gr) / 2
    assert k.denominator == 1 and k >= 0, (src, top, k)
    return int(k)


def ref_homology(c):
    """Towers, free cycles and torsion pairs, one ``Tower`` per generator."""
    order, _, R, V, owner = global_reduction(c)

    def chain(vec):
        degree = c.maslov(order[vec.bit_length() - 1])
        cells = [order[b] for b in range(vec.bit_length()) if vec >> b & 1]
        return degree, {cid: c.u_power(cid, degree) for cid in cells}

    towers, free, torsion = [], [], []
    for j in range(len(order)):
        if R[j]:
            i = R[j].bit_length() - 1
            length = torsion_length(c, order[j], order[i])
            if length:
                towers.append(Tower(c.maslov(order[i]), length))
                torsion.append((chain(V[j])[1], chain(R[j])[1], length))
        elif j not in owner:
            towers.append(Tower(c.maslov(order[j]), INFINITE))
            free.append(chain(V[j]))
    return FUModule(tuple(towers)).canonical().towers, tuple(free), tuple(torsion)


def random_basis_tensor(rng):
    factors = []
    for _ in range(rng.randint(2, 4)):
        x = build_xi(rng.randint(1, 4))
        if rng.random() < 0.2:
            x = fractional_xi(rng.randint(1, 3), rng.choice((F(1, 2), F(-1, 3))))
        factors.append(dual(x) if rng.random() < 0.5 else x)
    c = factors[0]
    for f in factors[1:]:
        c = tensor(c, f)
    return c


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_homology_matches_per_generator_reference(seed):
    rng = random.Random(seed)
    for c in (random_geometric_complex(rng, max_cells=12), random_basis_tensor(rng)):
        towers, free, torsion = ref_homology(c)
        result = homology(c)
        assert result.module.towers == towers
        assert result.module.to_json() == FUModule(towers).to_json()
        assert result.free_cycles == free
        assert result.torsion_pairs == torsion
        assert [x["cycle"] for x in result.witnesses_json()["free"]] == [
            sorted([cid, e] for cid, e in ch.items()) for _, ch in free
        ]


# -- the reduction against one global pass without clearing ----------------


def bits(vec):
    return [b for b in range(vec.bit_length()) if vec >> b & 1]


def reduction_cases(rng):
    lc = random_combination(rng, 6, 8, allow_cancelling=rng.random() < 0.3)
    return [random_geometric_complex(rng, max_cells=12), random_basis_tensor(rng), representative(lc)]


def per_dimension(c, order, R, V, owner, towers):
    """The global pass's tables on ``homology``'s per-dimension index.

    Each cell's rank is its place among the cells of its dimension in
    ``order``; R[j] must name cells one dimension below column j, and V[j]
    cells of its own dimension.  Returns the fields of a ``ReductionResult``
    from ``_perm`` on.
    """
    n, dims = len(order), c._dims
    pos = [c._index[cid] for cid in order]
    perm, rank = {}, [0] * n
    for i in pos:
        row = perm.setdefault(dims[i], [])
        rank[i] = len(row)
        row.append(i)

    def local(vec, d):
        out = 0
        for b in bits(vec):
            assert dims[pos[b]] == d
            out |= 1 << rank[pos[b]]
        return out

    by_dim = {d: [g for g in range(n) if dims[pos[g]] == d] for d in perm}
    owners = {d: {} for d in perm}
    for p, j in owner.items():
        owners[dims[pos[p]]][rank[pos[p]]] = rank[pos[j]]
    return (perm, rank, {d: [local(R[g], d - 1) for g in gs] for d, gs in by_dim.items()},
            {d: [local(V[g], d) for g in gs] for d, gs in by_dim.items()}, owners,
            tuple((pos[j], length) for j, length in towers))


def named(result):
    """Each column's R and V, and each pivot's owner, as the cell ids they name.

    Read off the result's per-dimension table, so that reductions compare
    whatever ranks they use.
    """
    ids, perm = result.complex.ids(), result._perm

    def cells(d, vec):
        return frozenset(ids[perm[d][b]] for b in bits(vec))

    columns = {ids[i]: (cells(d - 1, result._R[d][j]), cells(d, result._V[d][j]))
               for d, row in perm.items() for j, i in enumerate(row)}
    owners = {ids[perm[d][p]]: ids[perm[d + 1][j]]
              for d, own in result._owner.items() for p, j in own.items()}
    return columns, owners


def check_against_global_reduction(c):
    order, pos, R, V, owner = global_reduction(c)
    towers = []
    for j, col in enumerate(R):
        if col:
            length = torsion_length(c, order[j], order[col.bit_length() - 1])
            if length:
                towers.append((j, length))
        elif j not in owner:
            towers.append((j, INFINITE))
    result = homology(c)
    perm, rank, *reduction = per_dimension(c, order, R, V, owner, towers)
    # towers per (q * Maslov grading of the top cell, length), computed on
    # Fractions; each q * M is an integer, which the module's counts take
    tops = [c._q * c.maslov(order[j if length == INFINITE else R[j].bit_length() - 1])
            for j, length in towers]
    assert all(top.denominator == 1 for top in tops)
    counts = Counter((top.numerator, length) for top, (_, length) in zip(tops, towers))
    ref = ReductionResult(c, dict(counts), perm, rank, *reduction)
    assert (result._perm, result._rank) == (perm, rank)
    assert global_order(result) == global_order(ref) == order
    # each column's R and each pivot's owner name the cells of the global
    # pass, and so does V, except where clearing skipped the column: its V
    # is the R of the column that owns its cell
    columns, owners = named(result)
    assert owners == {order[p]: order[j] for p, j in owner.items()}
    for j, cid in enumerate(order):
        r, v = columns[cid]
        assert r == {order[b] for b in bits(R[j])}, cid
        assert v == (columns[owners[cid]][0] if cid in owners else {order[b] for b in bits(V[j])}), cid
    assert set(result._towers) == set(ref._towers)
    assert result._generators == ref._generators
    assert ref.module == result.module
    assert result.free_cycles == ref.free_cycles
    assert result.torsion_pairs == ref.torsion_pairs
    assert result._basis == ref._basis
    assert result.witnesses_json() == ref.witnesses_json()
    # R[j] is the sum of the boundary columns of the cells in V[j], for every
    # column, including those whose index is a pivot; V[j] tops at cell j,
    # so the V[j] with R[j] == 0 stay a basis of the cycles
    for cid, (r, v) in columns.items():
        total = set()
        for k in v:
            total ^= c.bdry[k]
        assert total == r, cid
        assert max(v, key=pos.__getitem__) == cid
    # every cycle of the global reduction expresses alike, and each tower's
    # own cycle reads back as its generator
    for d, row in ref._perm.items():
        for j in range(len(row)):
            if not ref._R[d][j]:
                degree, chain = ref._chain(d, ref._V[d][j])
                assert result.express(chain, degree) == ref.express(chain, degree)
    check_generators_express_as_themselves(result)


def check_generators_express_as_themselves(result):
    for i, (degree, chain) in enumerate(result.free_cycles):
        assert result.express(chain, degree) == [("free", i, 0)]
    for i, (_, z, _) in enumerate(result.torsion_pairs):
        assert result.express(z, result.chain_degree(z)) == [("torsion", i, 0)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_reduction_matches_global_order_reduction(seed):
    for c in reduction_cases(random.Random(seed)):
        check_against_global_reduction(c)


# -- express across dimensions, against one global pass ---------------------


def ref_express(c):
    """``express`` on one global pass: one pivot basis over all cells, read from the top rank down."""
    order, pos, R, V, owner = global_reduction(c)
    basis, count = {p: (R[j], None) for p, j in owner.items()}, {"free": 0, "torsion": 0}
    for j, col in enumerate(R):
        if col:
            kind, vec, length = "torsion", col, torsion_length(c, order[j], order[col.bit_length() - 1])
            if not length:
                continue
        elif j in owner:
            continue
        else:
            kind, vec, length = "free", V[j], INFINITE
        basis[vec.bit_length() - 1] = (vec, (kind, count[kind], length))
        count[kind] += 1

    def express(chain, degree):
        vec, out = sum(1 << pos[cid] for cid in chain), []
        while vec:
            top = order[vec.bit_length() - 1]
            cycle, tower = basis[vec.bit_length() - 1]
            if tower is not None and c.u_power(top, degree) < tower[2]:
                out.append((tower[0], tower[1], c.u_power(top, degree)))
            vec ^= cycle
        return out

    return express


def stacked(base):
    """Two copies of ``base``, the second two dimensions up at the same Maslov gradings."""
    cells = [Cell(p + x.id, x.dim + 2 * up, x.gr - 2 * up)
             for up, p in enumerate("LU") for x in base.cells.values()]
    bdry = {p + cid: {p + t for t in ts} for p in "LU" for cid, ts in base.bdry.items()}
    return GeometricComplex(cells, bdry, base.tau)


def sums_of_generators(rng, result, draws):
    """Homogeneous cycles: random sums of tower generators, each U-shifted down to the lowest degree."""
    gens = list(result.free_cycles) + [(result.chain_degree(z), z) for _, z, _ in result.torsion_pairs]
    for _ in range(draws):
        picked = [g for g in gens if rng.random() < 0.5]
        if not picked:
            continue
        low, chain = min(d for d, _ in picked), {}
        for d, ch in picked:
            k = (d - low) / 2
            if k.denominator == 1:
                for cid, e in ch.items():
                    if chain.pop(cid, None) is None:
                        chain[cid] = e + int(k)
        if chain:
            yield chain, low


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_express_across_dimensions_matches_one_global_pass(seed):
    # a cycle of the stacked complex holds cells of two dimensions, which
    # express eliminates apart and orders back into the global order
    rng = random.Random(seed)
    for c in (stacked(random_geometric_complex(rng, max_cells=8)), stacked(random_basis_tensor(rng))):
        result, ref = homology(c), ref_express(c)
        for chain, degree in sums_of_generators(rng, result, 8):
            assert result.express(chain, degree) == ref(chain, degree)


def test_express_of_a_cycle_in_two_dimensions():
    c = stacked(tensor(build_xi(2), dual(build_xi(1))))
    result, ref = homology(c), ref_express(c)
    (d0, z0), (d1, z1) = result.free_cycles
    assert d0 == d1 and {c.cells[cid].dim for cid in z0} != {c.cells[cid].dim for cid in z1}
    # the terms come from the top of the global order down, so the later generator first
    both = {**z0, **z1}
    assert result.express(both, d0) == ref(both, d0) == [("free", 1, 0), ("free", 0, 0)]
    # U times a torsion generator of each copy, at one degree
    mixed = [(z, result.chain_degree(z)) for _, z, _ in result.torsion_pairs]
    for (z, d), (w, e) in itertools.combinations(mixed, 2):
        if d == e and {c.cells[cid].dim for cid in z} != {c.cells[cid].dim for cid in w}:
            chain = {cid: k + 1 for cid, k in {**z, **w}.items()}
            assert result.express(chain, d - 2) == ref(chain, d - 2)


def test_reduction_of_the_empty_complex():
    c = GeometricComplex([], {})
    check_against_global_reduction(c)
    result = homology(c)
    assert result.module == FUModule() and named(result) == ({}, {})
    assert result.witnesses_json() == {"free": [], "torsion": []}


def check_columns_within_dimension(c, result):
    """Every stored R[j] and V[j] is no wider than its slice: the cells of dim(j) - 1 and dim(j)."""
    size = Counter(cell.dim for cell in c.cells.values())
    for d in result._R:
        assert all(col.bit_length() <= size[d - 1] for col in result._R[d]), d
        assert all(v.bit_length() <= size[d] for v in result._V[d]), d
        assert len(result._R[d]) == len(result._V[d]) == size[d]
    # the slices part the cells
    assert sorted(i for row in result._perm.values() for i in row) == list(range(len(c)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_columns_are_no_wider_than_their_dimension(seed):
    rng = random.Random(seed)
    lc = random_combination(rng, 10, 8, allow_cancelling=rng.random() < 0.3)
    for c in (random_basis_tensor(rng), representative(lc), random_geometric_complex(rng, 12)):
        check_columns_within_dimension(c, homology(c))


# -- iterated tensors, reduced from positions alone -------------------------

PLAIN = GeometricComplex([Cell("p", 1, F(-4)), Cell("q", 0, F(0))], {"p": {"q"}})


def iterated_tensor_cases(rng):
    """Chains of 2 to 4 factors: X_i, their duals, fractional X_i and a plain complex."""
    pool = [
        lambda: build_xi(rng.randint(1, 4)),
        lambda: dual(build_xi(rng.randint(1, 4))),
        lambda: fractional_xi(rng.randint(1, 3), rng.choice((F(1, 2), F(-1, 3), F(5, 3)))),
        lambda: PLAIN,
        lambda: dual(PLAIN),
    ]
    return [[rng.choice(pool)() for _ in range(rng.randint(2, 4))] for _ in range(3)]


def rebuilt(c):
    """``c`` rebuilt through the validating constructors."""
    ref = GeometricComplex(c.cells.values(), c.bdry, c.tau)
    return SplitComplex(ref, c.J) if isinstance(c, SplitComplex) else ref


def check_iterated_tensor(factors):
    product = factors[0]
    for f in factors[1:]:
        product = tensor(product, f)
    result = homology(product)
    check_generators_express_as_themselves(result)
    # neither the products, their homology nor express built an id boundary
    assert "bdry" not in vars(product)
    expected = homology(factors[0]).module
    for f in factors[1:]:
        expected = kunneth(expected, homology(f).module)
    assert result.module == expected
    ref = homology(rebuilt(product))
    assert (global_order(result), named(result)) == (global_order(ref), named(ref))
    assert result.witnesses_json() == ref.witnesses_json()


@pytest.mark.trusted_derived
@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_iterated_tensors_reduce_from_positions(seed):
    for factors in iterated_tensor_cases(random.Random(seed)):
        check_iterated_tensor(factors)


@pytest.mark.trusted_derived
def test_iterated_tensors_with_an_empty_factor_or_repeated_ids():
    empty = GeometricComplex([], {})
    for factors in ([build_xi(2), empty, dual(build_xi(1))], [empty, PLAIN], [PLAIN, build_xi(1), empty]):
        check_iterated_tensor(factors)
    # "a⊗b⊗b" ⊗ "c" and "a⊗b" ⊗ "b⊗c" get the same id, as in the constructor
    left = tensor(GeometricComplex([Cell("a", 0, F(0)), Cell("a⊗b", 0, F(0))], {}),
                  GeometricComplex([Cell("b", 0, F(0))], {}))
    right = GeometricComplex([Cell("c", 0, F(0)), Cell("b⊗c", 0, F(0))], {})
    with pytest.raises(InvalidComplex) as info:
        tensor(left, right)
    assert str(info.value) == "duplicate cell id 'a⊗b⊗b⊗c'"
    with pytest.raises(InvalidComplex) as ref:
        GeometricComplex([Cell(u + "⊗" + v, 0, F(0)) for u in left.ids() for v in right.ids()], {})
    assert str(ref.value) == str(info.value)


# -- products whose ids are built on first read -----------------------------

#: short words over these make prefix pairs ("a", "a!"), pairs that ``dual``
#: flips ("a" < "a!" but "a!*" < "a*") and ids that hold the tensor separator
ID_ALPHABET = ("a", "*", "!", "⊗")


def relabelled(rng, c):
    """``c`` with distinct random ids over ``ID_ALPHABET``, built through the constructors."""
    words = set()
    while len(words) < len(c):
        words.add("".join(rng.choice(ID_ALPHABET) for _ in range(rng.randint(1, 3))))
    new = dict(zip(c.ids(), rng.sample(sorted(words), len(words))))
    g = GeometricComplex([Cell(new[cid], cell.dim, cell.gr) for cid, cell in c.cells.items()],
                         {new[src]: {new[t] for t in ts} for src, ts in c.bdry.items()}, c.tau)
    return SplitComplex(g, {new[a]: new[b] for a, b in c.J.items()}) if isinstance(c, SplitComplex) else g


def id_chain_cases(rng):
    """Chains of 2 to 4 factors, prefix-free or not, split or not."""
    pool = [
        lambda: build_xi(rng.randint(1, 3)),
        lambda: dual(build_xi(rng.randint(1, 3))),
        lambda: fractional_xi(rng.randint(1, 2), rng.choice((F(1, 2), F(-1, 3)))),
        lambda: PLAIN,
        lambda: relabelled(rng, random_split_complex(rng, max_cells=5)),
        lambda: dual(relabelled(rng, random_split_complex(rng, max_cells=5))),
        lambda: relabelled(rng, random_geometric_complex(rng, max_cells=4)),
    ]
    return [[rng.choice(pool)() for _ in range(rng.randint(2, 4))] for _ in range(3)]


def check_id_chain(factors):
    """The product of ``factors`` against the one built cell by cell through the constructors."""
    product = ref = factors[0]
    for f in factors[1:]:
        try:
            ref = ref_tensor(ref, f)
        except InvalidComplex as error:  # repeated ids raise as in the constructor
            with pytest.raises(InvalidComplex) as info:
                tensor(product, f)
            assert str(info.value) == str(error)
            return
        product = tensor(product, f)
    # a product of prefix-free leaves stores them, and no ids, until its ids are read
    deferred = "_factors" in vars(product) and "_ids" not in vars(product)
    result, want = homology(product), homology(ref)
    assert (global_order(result), named(result)) == (global_order(want), named(want))
    # the integer keys order the cells as the (-gr, dim, id) triples do
    assert global_order(result) == global_reduction(ref)[0]
    assert result.witnesses_json() == want.witnesses_json()
    ids = product.ids()
    assert ids == ref.ids()
    # the ranks a product stores or homology built, against sorted ids
    stored = product._idrank
    by_id = sorted(range(len(ids)), key=ids.__getitem__)
    assert sorted(range(len(ids)), key=stored.__getitem__) == by_id
    assert stored == ref._idrank
    assert product._prefix_free == ref._prefix_free
    assert product._prefix_free or not deferred
    if isinstance(product, SplitComplex):
        assert product.fixed == ref.fixed


@pytest.mark.trusted_derived
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_products_with_ids_on_first_read_match_the_constructors(seed):
    for factors in id_chain_cases(random.Random(seed)):
        check_id_chain(factors)


@pytest.mark.trusted_derived
def test_a_prefix_free_chain_reduces_and_compares_without_ids_or_towers():
    for factors in ([build_xi(3), dual(build_xi(2)), fractional_xi(1, F(1, 2)), dual(build_xi(1))],
                    [dual(build_xi(2)), PLAIN, build_xi(1)]):
        product = factors[0]
        for f in factors[1:]:
            product = tensor(product, f)
        result = homology(product)
        expected = homology(factors[0]).module
        for f in factors[1:]:
            expected = kunneth(expected, homology(f).module)
        assert result.module == expected
        assert len(result.module) == len(expected)
        assert result.module.free_rank == expected.free_rank
        assert result.module.torsion() == expected.torsion()
        assert not {"_ids", "_index", "fixed"} & vars(product).keys()
        assert "towers" not in vars(result.module) and "towers" not in vars(expected)
        # the towers built on first read are the reference's, in its order
        towers = ref_homology(rebuilt(product))[0]
        assert result.module.canonical().to_json() == FUModule(towers).to_json()
        assert result.module.to_json() == expected.to_json() == FUModule(towers).to_json()


@pytest.mark.trusted_derived
def test_deferred_ids_join_alike_in_any_nesting_and_depth():
    # any nesting joins to the same ids and ranks, and a long chain needs no recursion
    x, y, z = build_xi(1), dual(build_xi(2)), fractional_xi(1, F(1, 2))
    left, right = tensor(tensor(x, y), z), tensor(x, tensor(y, z))
    assert (left.ids(), left._idrank) == (right.ids(), right._idrank)
    assert global_order(homology(left)) == global_order(homology(right))
    long = build_trivial()
    for _ in range(2000):
        long = tensor(long, build_trivial())
    assert long.ids() == ("⊗".join(["eta"] * 2001),) and long.fixed == long.ids()[0]
    # a factor with a prefix pair gets its ids at once
    prefixed = GeometricComplex([Cell("p", 1, F(-4)), Cell("p!", 0, F(0))], {"p": {"p!"}})
    product = tensor(build_xi(1), prefixed)
    assert "_ids" in vars(product)
    assert not all(f._prefix_free for f in product._factors)


# -- products folded from their leaves -------------------------------------

#: a complex with a prefix pair ("p" is a prefix of "p!"), whose products join their ids at once
PREFIXED = GeometricComplex([Cell("p", 1, F(-4)), Cell("p!", 0, F(0))], {"p": {"p!"}})

#: a bound on the cells of one product, so the cell-by-cell reference stays cheap
MAX_PRODUCT_CELLS = 400


def leaf_pool(rng):
    """Makers of the factors of the folded products, each a fresh draw."""
    return [
        lambda: build_xi(rng.randint(1, 3)),
        lambda: dual(build_xi(rng.randint(1, 3))),
        lambda: PLAIN,
        lambda: random_geometric_complex(rng, max_cells=4),
        lambda: random_split_complex(rng, max_cells=5),
        lambda: dual(random_split_complex(rng, max_cells=5)),
        lambda: PREFIXED,
    ]


def product_factor_lists(rng):
    """Lists of 2 to 5 factors.

    The first holds the empty complex in one draw of four, and the last two
    complexes with tau = 1/2, whose product has q = 1.
    """
    pool = leaf_pool(rng)
    lists = [[rng.choice(pool)() for _ in range(rng.randint(2, 5))] for _ in range(3)]
    if rng.random() < 0.25:
        lists[0][rng.randrange(len(lists[0]))] = GeometricComplex([], {})
    halves = [fractional_xi(rng.randint(1, 2), F(1, 2)), dual(fractional_xi(1, F(-3, 2)))]
    assert (halves[0].tau, halves[1].tau) == (F(1, 2), F(1, 2))
    rest = [rng.choice(pool)() for _ in range(rng.randint(0, 3))]
    lists.append(rng.sample(halves + rest, len(halves) + len(rest)))
    for factors in lists:
        while len(factors) > 2 and math.prod(map(len, factors)) > MAX_PRODUCT_CELLS:
            factors.pop(rng.randrange(len(factors)))
    return lists


def nested_product(rng, factors, read):
    """The product of ``factors`` in a random nesting, and the leaves it must store.

    A product whose factors are not both prefix-free joins its ids at once.
    With ``read``, one intermediate product has one of its tables read as
    soon as it is built.  Either makes the intermediate a leaf of the next
    product; any other intermediate is flattened into its own leaves.
    """
    # products are numbered as they are built; the last is the whole product
    chosen = rng.randrange(len(factors) - 2) if read and len(factors) > 2 else None
    built = itertools.count()

    def build(fs):
        """The product of ``fs``, the leaves it stores and those it stands for in a product."""
        if len(fs) == 1:
            return fs[0], None, (fs[0],)
        k = rng.randint(1, len(fs) - 1)
        (a, _, la), (b, _, lb) = build(fs[:k]), build(fs[k:])
        p = tensor(a, b)
        joined = not (a._prefix_free and b._prefix_free)
        assert ("_ids" in vars(p)) == joined
        if next(built) == chosen:
            tables = sorted(_PRODUCT_TABLES - (set() if isinstance(p, SplitComplex) else {"_jpos"}))
            getattr(p, rng.choice(tables))
            return p, la + lb, (p,)
        return p, la + lb, (p,) if joined else la + lb

    return build(factors)[:2]


def check_folded_product(product, ref):
    """Every table of ``product`` against ``ref``, the same product built cell by cell."""
    # the reduction reads the offsets alone, and matches the global one
    result = homology(product)
    assert not {"_adj", "_coadj", "_jpos"} & vars(product).keys()
    check_against_global_reduction(product)
    # a product's class is the product class of the reference's
    assert isinstance(product, type(ref))
    assert isinstance(product, SplitComplex) == isinstance(ref, SplitComplex)
    assert (product.tau, product._q, product._width) == (ref.tau, ref._q, ref._width)
    assert product.ids() == ref.ids()
    for name in ("_dims", "_nums", "_idrank") + (("_jpos",) if isinstance(ref, SplitComplex) else ()):
        assert list(getattr(product, name)) == list(getattr(ref, name)), name
    for name in ("_adj", "_coadj"):
        assert list(map(set, getattr(product, name))) == list(map(set, getattr(ref, name))), name
    if isinstance(ref, SplitComplex):
        assert product._fpos == ref._fpos
    assert json.dumps(complex_to_json(product)) == json.dumps(complex_to_json(ref))
    assert global_order(result) == global_order(homology(ref))


@pytest.mark.trusted_derived
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_products_fold_their_leaves_as_the_constructors_build_them(seed):
    rng = random.Random(seed)
    for factors in product_factor_lists(rng):
        ref = factors[0]
        for f in factors[1:]:
            ref = ref_tensor(ref, f)
        for read in (False, True):
            product, leaves = nested_product(rng, factors, read)
            assert product._factors == leaves
            check_folded_product(product, ref)
