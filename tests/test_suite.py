import hashlib
import json
import random

import pytest

import ilocal.doubling
from ilocal import complex_to_json
from ilocal.cli import main
from ilocal.suite import (
    SuiteConfig,
    admissible_deltas,
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

    def mutated(dims, bdry, tau, num, width, J=None, fixed=None):
        bdry = {cid: targets - {fixed} for cid, targets in bdry.items()}
        return derived(dims, bdry, tau, num, width, J, fixed)

    monkeypatch.setattr(ilocal.doubling, "_derived", mutated)
    report = run_suite(11, SMALL)
    assert not report.passed
    failing = {r.name: r.failures for r in report.results if r.failures}
    assert {"doubling_homology", "local_equivalence"} <= failing.keys()
    for name in ("doubling_homology", "local_equivalence"):
        for witness in failing[name]:
            assert isinstance(witness, dict) and "error" not in witness


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
