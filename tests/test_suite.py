import hashlib
import json
import random

import pytest

import ilocal.connected
import ilocal.doubling
import ilocal.towers
from ilocal import LinearCombination, build_xi, complex_to_json, dual, homology, shift, tensor
from ilocal.cli import main
from ilocal.suite import (
    SuiteConfig,
    SuiteResult,
    _guarded,
    _module_str,
    admissible_deltas,
    check_doubling_homology,
    check_duality,
    check_kunneth,
    check_representative,
    random_combination,
    random_geometric_complex,
    random_split_complex,
    run_suite,
)

SMALL = SuiteConfig(
    kunneth_cases=6,
    doubling_cases=6,
    local_cases=4,
    representative_cases=10,
    roundtrip_cases=30,
    duality_cases=6,
)


def test_suite_passes_and_is_deterministic():
    r1 = run_suite(11, SMALL)
    r2 = run_suite(11, SMALL)
    assert r1.passed
    assert r1.to_json() == r2.to_json()


def test_zero_cases_vacuous_pass():
    cfg = SuiteConfig(
        kunneth_cases=0,
        doubling_cases=0,
        local_cases=0,
        representative_cases=0,
        roundtrip_cases=0,
        duality_cases=0,
    )
    report = run_suite(1, cfg)
    assert report.passed and all(r.cases == 0 for r in report.results)


@pytest.mark.trusted_derived
def test_mutated_doubling_rule_fails_with_witness(monkeypatch):
    """Drop theta from every boundary of each double: the suite's own checks catch it.

    Marked ``trusted_derived`` so the conftest rebuild of derived complexes,
    which would reject the mutant as ``bdry^2 is nonzero`` before any check
    ran, stays out of the way.
    """
    derived = ilocal.doubling._derived

    def mutated(cls, ids, dims, adj, tau, nums, width, jpos=None, fpos=None, *rest):
        # theta is the fixed cell, at position fpos
        adj = [tuple(t for t in ts if t != fpos) for ts in adj]
        return derived(cls, ids, dims, adj, tau, nums, width, jpos, fpos, *rest)

    monkeypatch.setattr(ilocal.doubling, "_derived", mutated)
    report = run_suite(11, SMALL)
    assert not report.passed
    failing = {r.name: r.failures for r in report.results if r.failures}
    assert {"doubling_homology", "local_equivalence"} <= failing.keys()
    for name in ("doubling_homology", "local_equivalence"):
        for witness in failing[name]:
            assert isinstance(witness, dict) and "error" not in witness


class TestCheckWitnesses:
    """Each check's failure return, driven by planting a wrong rule.

    Every check passes on its input before the rule is planted, and then
    returns a witness dict of fixed keys, with no ``"error"`` entry.
    """

    def test_kunneth_rule(self, monkeypatch):
        c1, c2 = build_xi(1), build_xi(2)
        assert check_kunneth(c1, c2) is None
        kunneth = ilocal.towers.kunneth
        monkeypatch.setattr(ilocal.towers, "kunneth", lambda a, b: kunneth(a, b).torsion())
        w = check_kunneth(c1, c2)
        assert w.keys() == {"tensor_homology", "kunneth"} and "error" not in w
        assert w["tensor_homology"] == _module_str(homology(tensor(c1, c2)).module)
        assert w["kunneth"] == _module_str(kunneth(homology(c1).module, homology(c2).module).torsion())

    def test_doubling_rule(self, monkeypatch):
        # the double of delta + 1 carries the tower T(delta + 1), not T(delta)
        x = build_xi(4)
        assert check_doubling_homology(x, 1) is None
        double = ilocal.doubling.double
        monkeypatch.setattr(ilocal.doubling, "double", lambda sc, delta, s=None: double(sc, delta + 1, s))
        w = check_doubling_homology(x, 1)
        assert w.keys() == {"expected", "got"} and "error" not in w
        assert w["got"] == _module_str(homology(double(x, 2).complex).module)

    @pytest.mark.trusted_derived
    def test_doubling_rule_that_breaks_the_complex(self, monkeypatch):
        # d(theta) = omega + J.omega loses J.omega, so bdry o bdry != 0; it is
        # reported before any homology is taken (the conftest rebuild would
        # reject the mutant first, hence trusted_derived)
        x = build_xi(4)
        assert check_doubling_homology(x, 1) is None
        derived = ilocal.doubling._derived

        def mutated(cls, ids, dims, adj, tau, nums, width, jpos=None, fpos=None, *rest):
            # drop J.omega, the cell just before theta (at position fpos), from d(theta)
            adj = list(adj)
            adj[fpos] = tuple(t for t in adj[fpos] if t != fpos - 1)
            return derived(cls, ids, dims, adj, tau, nums, width, jpos, fpos, *rest)

        monkeypatch.setattr(ilocal.doubling, "_derived", mutated)
        w = check_doubling_homology(x, 1)
        assert w.keys() == {"reason"} and "error" not in w
        assert w["reason"] == "bdry^2 is nonzero at cell 'theta' (hits ['Ja', 'a'])"

    def test_placement_rule(self, monkeypatch):
        lc = LinearCombination(((1, 3), (-1, 2), (1, 1)))
        assert check_representative(lc) is None
        place_towers = ilocal.connected.place_towers
        monkeypatch.setattr(ilocal.connected, "place_towers", lambda lc: shift(place_towers(lc), 2))
        w = check_representative(lc)
        assert w.keys() == {"expected", "got"} and "error" not in w
        assert w["expected"] == _module_str(shift(place_towers(lc), 2))
        assert w["got"] == _module_str(place_towers(lc))

    def test_reflection_rule(self, monkeypatch):
        c = build_xi(2)
        assert check_duality(c) is None
        reflect = ilocal.towers.reflect
        monkeypatch.setattr(ilocal.towers, "reflect", lambda m: shift(reflect(m), 2))
        w = check_duality(c)
        assert w.keys() == {"homology", "dual_homology"} and "error" not in w
        assert w["homology"] == _module_str(homology(c).module)
        assert w["dual_homology"] == _module_str(homology(dual(c)).module)


def test_guarded_reports_a_raising_check_and_runs_on():
    result = SuiteResult("demo")

    def check(x):
        if x == 1:
            raise ValueError("boom")
        return {"bad": x} if x == 2 else None

    for x in range(4):
        _guarded(result, {"x": x}, check, (x,))
    assert result.cases == 4
    assert result.failures == [{"x": 1, "error": "ValueError: boom"}, {"x": 2, "bad": 2}]


def test_generators_are_deterministic():
    a = random_geometric_complex(random.Random("g"), 12)
    b = random_geometric_complex(random.Random("g"), 12)
    assert a.ids() == b.ids() and a.bdry == b.bdry

    sa = random_split_complex(random.Random("s"), 10)
    sb = random_split_complex(random.Random("s"), 10)
    assert sa.ids() == sb.ids() and sa.J == sb.J

    ca = random_combination(random.Random("c"), 6, 9)
    cb = random_combination(random.Random("c"), 6, 9)
    assert ca == cb


def test_split_generator_respects_budget_and_rank():
    from ilocal import homology

    rng = random.Random(5)
    for _ in range(40):
        sc = random_split_complex(rng, max_cells=10)
        assert len(sc) <= 10
        assert homology(sc).module.free_rank == 1


def test_admissible_deltas_capped_for_infinite_width():
    from ilocal import build_trivial, build_xi

    assert list(admissible_deltas(build_trivial(), cap=6)) == [0, 1, 2, 3, 4, 5, 6]
    assert list(admissible_deltas(build_xi(2), cap=6)) == [0, 1, 2]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _json_sha256(obj) -> str:
    return _sha256(json.dumps(obj, sort_keys=True))


# digests of the reports, corpora and CLI output as the suite first wrote
# them; a refactor of the checks or generators must leave every byte alone
@pytest.mark.parametrize(
    "seed, config, digest",
    [
        (1, None, "2154a9869d92b13093bdb964b62281fd8b510ec51f7bf790018a212c78b529ec"),
        (1, SMALL, "657375882c2c7f0ccbb6b032bf906a26d745d32e578a6f3407534563703acfb8"),
        (3, None, "3ef7b77fc4b366b8ddcc5f1ed9db0f0647936551b20a42fa98ee71f0e4fca05a"),
        (3, SMALL, "eb481974be2b73ed943ca6fb628cc2719fecc63a10d52d55245c689789482af9"),
    ],
    ids=["seed1-default", "seed1-small", "seed3-default", "seed3-small"],
)
def test_report_matches_golden_digest(seed, config, digest):
    assert _json_sha256(run_suite(seed, config).to_json()) == digest


def test_corpora_match_golden_digest(split_corpus, pair_corpus):
    split = [complex_to_json(sc) for sc in split_corpus]
    pairs = [[complex_to_json(c1), complex_to_json(c2)] for c1, c2 in pair_corpus]
    assert _json_sha256(split) == "3b566a6492d536d2f365811fbe413f3d1bc0ed8f2a20213d0ff7b4f31e18f6a5"
    assert _json_sha256(pairs) == "178fbec2cdd033bcf5b31529907657885cde39278d9d74a8bbadbc75270947fc"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--seed", "1"], "da7cfec38fa662695fed4f6018a6e4bb74a5c878016a9d62b20af1911db4b71f"),
        (
            ["--seed", "3", "--cases", "4"],
            "492e075aa8e2f19e904ad499a50b6f108e8f72f4022eaea1c6150cf482c94e5a",
        ),
    ],
    ids=["seed1", "seed3-cases4"],
)
def test_cli_stdout_matches_golden_digest(capsys, monkeypatch, argv, digest):
    monkeypatch.delenv("ILOCAL_SEED", raising=False)
    assert main(["suite", *argv]) == 0
    assert _sha256(capsys.readouterr().out) == digest


def test_cli_exits_1_when_a_planted_rule_fails(capsys, monkeypatch):
    # the wrong Kunneth rule of TestCheckWitnesses::test_kunneth_rule
    monkeypatch.delenv("ILOCAL_SEED", raising=False)
    kunneth = ilocal.towers.kunneth
    monkeypatch.setattr(ilocal.towers, "kunneth", lambda a, b: kunneth(a, b).torsion())
    assert main(["suite", "--seed", "3", "--cases", "2"]) == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["passed"] is False
    assert [s["name"] for s in report["suites"] if s["failures"]] == ["kunneth"]
    assert captured.err == "suite failed; see counterexamples above\n"
