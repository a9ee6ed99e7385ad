"""Acceptance criteria, one test per criterion, with stated runtime budgets.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  Every check is exact (no numeric tolerance); runtime budgets are
asserted with ``time.perf_counter``.
"""

import itertools
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from ilocal import (
    INFINITE,
    LinearCombination,
    NotInXForm,
    Tower,
    FUModule,
    build_trivial,
    build_xi,
    connect_sum,
    connected_homology,
    decode,
    dual,
    hf_conn,
    homology,
    predict_mu_bar,
    predict_rokhlin_parity,
    tensor,
)
from ilocal.suite import (
    admissible_deltas,
    check_decode_roundtrip,
    check_doubling_homology,
    check_duality,
    check_kunneth,
    check_local_pair,
    check_representative,
    random_combination,
    random_even_d,
    random_splitting,
)

from conftest import ACCEPTANCE_SEED

T = Tower


def mod(*towers):
    return FUModule(tuple(towers))


def report(number, name, elapsed, budget, detail):
    timing = f"{elapsed:.2f}s" + (f" < {budget:g}s" if budget != float("inf") else "")
    print(f"PASS criterion {number:2d} ({name}): {detail} [{timing}]")


def test_c01_basis_homology():
    t0 = time.perf_counter()
    for i in range(1, 13):
        assert homology(build_xi(i)).module == mod(T(F(0), INFINITE), T(F(0), i)), i
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, "basis homology", elapsed, 1, "i in [1,12] exact")


def test_c02_doubling_homology(split_corpus):
    t0 = time.perf_counter()
    cases = 0
    for sc in split_corpus:
        for delta in admissible_deltas(sc, cap=6):
            cases += 1
            w = check_doubling_homology(sc, delta)
            assert w is None, (sc.ids(), delta, w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(2, "doubling homology", elapsed, 10, f"{cases} doublings over 200 complexes")


def test_c03_local_equivalence(split_corpus):
    rng = random.Random(f"{ACCEPTANCE_SEED}:c3")
    t0 = time.perf_counter()
    cases = 0
    for sc in split_corpus:
        for delta in admissible_deltas(sc, cap=6):
            cases += 1
            w = check_local_pair(sc, delta, random_splitting(rng, sc))
            assert w is None, w
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(3, "local equivalence", elapsed, 30, f"{cases} verified doublings, 4 checks each")


def _index_tuples(rng, count=500, max_terms=5, max_index=8):
    seen = set()
    while len(seen) < count:
        n = rng.randint(1, max_terms)
        seen.add(tuple(sorted((rng.randint(1, max_index) for _ in range(n)), reverse=True)))
    return sorted(seen)


def test_c04_representative_cross_check():
    rng = random.Random(f"{ACCEPTANCE_SEED}:c4")
    tuples = _index_tuples(rng)
    t0 = time.perf_counter()
    cases = 0
    for indices in tuples:
        distinct = sorted(set(indices), reverse=True)
        for signs in itertools.product((1, -1), repeat=len(distinct)):
            sign_of = dict(zip(distinct, signs))
            lc = LinearCombination(tuple((sign_of[i], i) for i in indices))
            cases += 1
            w = check_representative(lc)
            assert w is None, (lc.to_json(), w)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(4, "representative cross-check", elapsed, 60, f"{cases} combinations, 500 tuples")


def test_c05_tensor_summand_check():
    t0 = time.perf_counter()
    cases = 0
    max_index = 6  # keeps the naive tensor at <= 27 generators either way
    for n in range(0, 4):
        for indices in itertools.combinations_with_replacement(range(max_index, 0, -1), n):
            distinct = sorted(set(indices), reverse=True)
            for signs in itertools.product((1, -1), repeat=len(distinct)):
                sign_of = dict(zip(distinct, signs))
                lc = LinearCombination(tuple((sign_of[i], i) for i in indices))
                cases += 1
                naive = build_trivial()
                for sign, i in lc:
                    factor = build_xi(i) if sign > 0 else dual(build_xi(i))
                    naive = tensor(naive, factor)
                assert len(naive) <= 27
                torsion = Counter(
                    (t.top, t.length) for t in homology(naive).module.torsion()
                )
                wanted = Counter((t.top, t.length) for t in connected_homology(lc))
                assert all(torsion[k] >= v for k, v in wanted.items()), lc.to_json()
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(5, "tensor summand check", elapsed, 10, f"{cases} combinations with n <= 3")


def test_c06_decode_round_trip():
    rng = random.Random(f"{ACCEPTANCE_SEED}:c6")
    t0 = time.perf_counter()
    for _ in range(1000):
        lc = random_combination(rng, 6, 9)
        w = check_decode_roundtrip(lc, random_even_d(rng))
        assert w is None, w
    with pytest.raises(NotInXForm):
        decode(mod(T(F(-1), 1), T(F(-2), 2)), F(0))
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(6, "decode round trip", elapsed, 5, "1000 pairs plus the misordered rejection")


def test_c07_kunneth_oracle(pair_corpus):
    t0 = time.perf_counter()
    for c1, c2 in pair_corpus:
        w = check_kunneth(c1, c2)
        assert w is None, w
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    report(7, "kunneth oracle", elapsed, 30, "200 seeded pairs, <= 12 cells each")


def test_c08_duality(split_corpus, pair_corpus):
    t0 = time.perf_counter()
    corpus = list(split_corpus) + [c for pair in pair_corpus for c in pair]
    for c in corpus:
        w = check_duality(c)
        assert w is None, w
    elapsed = time.perf_counter() - t0
    report(8, "duality", elapsed, float("inf"), f"{len(corpus)} complexes reflected")


def test_c09_invariant_identities():
    rng = random.Random(f"{ACCEPTANCE_SEED}:c9")
    t0 = time.perf_counter()
    for _ in range(100):
        lc1, lc2 = random_combination(rng, 4, 7), random_combination(rng, 4, 7)
        d1, d2 = random_even_d(rng), random_even_d(rng)
        module, d = connect_sum((hf_conn(lc1, d1), d1), (hf_conn(lc2, d2), d2))
        total = decode(module, d)
        assert predict_mu_bar(total, d) == predict_mu_bar(lc1, d1) + predict_mu_bar(lc2, d2)
        for lc, dd in ((lc1, d1), (lc2, d2), (total, d)):
            recomputed = (sum(i for _, i in lc) + int(F(dd) / 2)) % 2
            module_rank = (hf_conn(lc, dd).rank + int(F(dd) / 2)) % 2
            assert recomputed == module_rank == predict_rokhlin_parity(lc, dd)
    elapsed = time.perf_counter() - t0
    report(9, "invariant identities", elapsed, float("inf"), "100 connected sums, exact")


def test_c10_golden_renders(tmp_path):
    from pathlib import Path

    from ilocal import parse_expression, render

    fixtures = Path(__file__).parent / "fixtures"
    t0 = time.perf_counter()
    for expr, name, fmt in (
        ("X5 - X4 + X2", "render_x5_m4_p2.txt", "ascii"),
        ("X4 + X3 + X2", "render_x4_x3_x2.txt", "ascii"),
        ("X5 - X4 + X2", "render_x5_m4_p2.svg", "svg"),
    ):
        got = render(hf_conn(parse_expression(expr), F(0)), fmt) + "\n"
        expected = (fixtures / name).read_text()
        assert got == expected, f"{fmt} render of {expr} deviates from fixture {name}"
    elapsed = time.perf_counter() - t0
    report(10, "golden renders", elapsed, float("inf"), "3 fixtures byte-for-byte")
