import json
import os
import resource
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import ilocal
from ilocal import FUModule, build_xi, complex_to_json, hf_conn, parse_expression
from ilocal.cli import MAX_TENSOR_CELLS, main

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_child(*argv):
    """The CLI in a child process capped at 512 MB and 20 s, so a blow-up fails fast."""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    src = os.path.dirname(os.path.dirname(ilocal.__file__))
    return subprocess.run(
        [sys.executable, "-m", "ilocal.cli", *argv],
        capture_output=True,
        text=True,
        timeout=20,
        preexec_fn=cap_memory,
        env=dict(os.environ, PYTHONPATH=src),
    )


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


class TestBuildAndHomology:
    def test_build(self, capsys):
        obj = run_json(capsys, "build", "--expr", "X4 + X3 + X2")
        assert len(obj["cells"]) == 7
        assert obj["fixed"].startswith("theta")

    def test_homology_of_expression(self, capsys):
        obj = run_json(capsys, "homology", "--expr", "X3")
        assert {t["length"] for t in obj["towers"]} == {3, "inf"}

    def test_homology_of_file(self, capsys, tmp_path):
        path = tmp_path / "x2.json"
        path.write_text(json.dumps(complex_to_json(build_xi(2))))
        obj = run_json(capsys, "homology", "--file", str(path))
        assert {t["length"] for t in obj["towers"]} == {2, "inf"}

    def test_witnesses(self, capsys):
        obj = run_json(capsys, "homology", "--expr", "X2", "--witnesses")
        assert obj["witnesses"]["torsion"][0]["length"] == 2

    def test_witnesses_match_golden_stdout(self, capsys, tmp_path):
        # the fixture holds the stdout as first written, byte for byte; its
        # file complex has tau = 1/2, a torsion tower, a cancelling pair and
        # cycles with nonzero U-exponents
        golden = json.loads((FIXTURES / "homology_witnesses_golden.json").read_text())
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(golden["complex"]))
        sources = {
            "X2": ("--expr", "X2"),
            "X5 - X4 + X2": ("--expr", "X5 - X4 + X2"),
            "file": ("--file", str(path)),
        }
        assert sources.keys() == golden["stdout"].keys()
        for name, source in sources.items():
            code, out, err = run(capsys, "homology", *source, "--witnesses")
            assert code == 0, err
            assert out == golden["stdout"][name], name

    def test_expr_and_file_conflict(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as e:
            main(["homology", "--expr", "X1", "--file", "x.json"])
        assert e.value.code == 2


class TestConnectedDecodeSum:
    def test_connected_unshifted(self, capsys):
        obj = run_json(capsys, "connected", "--expr", "X5 - X4 + X2")
        assert obj["towers"][0] == {"top": "0/1", "length": 5, "orientation": "down"}

    def test_connected_shifted_and_simplified(self, capsys):
        obj = run_json(capsys, "connected", "--expr", "X1 - X1 + X1", "--d", "0")
        assert obj["towers"] == [{"top": "-1/1", "length": 1, "orientation": "down"}]

    def test_connected_from_class_file(self, capsys, tmp_path):
        from ilocal import LinearCombination, LocalClass

        cls = LocalClass(LinearCombination(((1, 3),)), F(2))
        path = tmp_path / "cls.json"
        path.write_text(json.dumps(cls.to_json()))
        obj = run_json(capsys, "connected", "--file", str(path))
        assert obj["towers"] == [{"top": "1/1", "length": 3, "orientation": "down"}]

    @pytest.mark.parametrize("command", ["connected", "render"])
    def test_expr_and_file_together_are_usage_error(self, capsys, tmp_path, command):
        from ilocal import LinearCombination, LocalClass

        cls = LocalClass(LinearCombination(((1, 3),)), F(2))
        obj = cls.to_json() if command == "connected" else hf_conn(cls.combo, cls.d).to_json()
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        with pytest.raises(SystemExit) as e:
            main([command, "--expr", "X2", "--file", str(path)])
        assert e.value.code == 2
        assert "provide exactly one of --expr or --file" in capsys.readouterr().err

    def test_decode(self, capsys, tmp_path):
        module = hf_conn(parse_expression("X5 - X4 + X2"), F(0))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(module.to_json()))
        obj = run_json(capsys, "decode", "--file", str(path), "--d", "0")
        assert obj["expr"] == "X5 - X4 + X2"

    def test_decode_rejects_bad_module(self, capsys, tmp_path):
        module = FUModule.from_json(
            {"towers": [
                {"top": "-1/1", "length": 1, "orientation": None},
                {"top": "-2/1", "length": 2, "orientation": None},
            ]}
        )
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(module.to_json()))
        code, out, err = run(capsys, "decode", "--file", str(path), "--d", "0")
        assert code == 1
        assert "head" in err or "chain" in err

    @pytest.mark.parametrize("length", ["1e400", "Infinity"])
    def test_decode_rejects_a_json_number_as_a_free_tower(self, capsys, tmp_path, length):
        path = tmp_path / "m.json"
        path.write_text('{"towers": [{"top": "0", "length": %s}]}' % length)
        code, out, err = run(capsys, "decode", "--file", str(path), "--d", "0")
        assert code == 1 and out == ""
        assert err == "error: tower length must be a positive integer or INFINITE, got inf\n"

    @pytest.mark.parametrize("command, obj, want", [
        ("render", {"towers": [{"top": 0.1, "length": 1}]}, "1/10 |  o\n"),
        ("homology", {"tau": 0.1, "cells": [{"id": "a", "dim": 0, "gr": 0.1}]},
         [{"top": "1/10", "length": "inf", "orientation": None}]),
        ("connected", {"terms": [{"sign": "+", "index": 2}], "d": 0.1},
         [{"top": "-9/10", "length": 2, "orientation": "down"}]),
    ], ids=["module", "complex", "class"])
    def test_a_json_float_grading_reads_as_its_decimal(self, capsys, tmp_path, command, obj, want):
        # 0.1 is 1/10, not the binary expansion 3602879701896397/36028797018963968
        path = tmp_path / "in.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, command, "--file", str(path))
        assert code == 0, err
        assert (out if command == "render" else json.loads(out)["towers"]) == want

    def test_sum(self, capsys, tmp_path):
        for name, expr, d in (("a", "X4", "2"), ("b", "X3", "-2")):
            module = hf_conn(parse_expression(expr), F(d))
            (tmp_path / f"{name}.json").write_text(
                json.dumps({"module": module.to_json(), "d": f"{d}/1"})
            )
        obj = run_json(
            capsys, "sum", "--file", str(tmp_path / "a.json"), "--file", str(tmp_path / "b.json")
        )
        assert obj["d"] == "0/1"
        assert {(t["top"], t["length"]) for t in obj["module"]["towers"]} == {
            ("-1/1", 4),
            ("-8/1", 3),
        }

    @pytest.mark.parametrize(
        "command, obj, message",
        [
            ("decode", {"towers": 5}, "'towers' list"),
            ("render", [], "'towers' list"),
            ("sum", {"module": {"towers": 5}, "d": "0"}, "'towers' list"),
            ("sum", [], "'module' and 'd'"),
            ("connected", {"towers": 5}, "'terms' and 'd'"),
            ("connected", [], "'terms' and 'd'"),
            ("decode", {"towers": [{"top": "1/0", "length": 1}]}, "invalid grading '1/0'"),
            ("sum", {"module": {"towers": []}, "d": "1/0"}, "invalid grading '1/0'"),
            ("connected", {"terms": [], "d": "1/0"}, "invalid grading '1/0'"),
            ("decode", {"towers": [{"top": "0", "length": 1.5}]}, "got 1.5"),
            ("render", {"towers": [{"top": "0", "length": True}]}, "got True"),
            ("decode", {"towers": [{"top": False, "length": 1}]}, "top has invalid grading False"),
            ("homology", {"cells": [{"id": "a", "dim": 0, "gr": True}]},
             "cell 'a' has invalid grading True"),
            ("homology", {"tau": True, "cells": [{"id": "a", "dim": 0, "gr": "1"}]},
             "tau has invalid grading True"),
            ("sum", {"module": {"towers": []}, "d": True}, "'d' has invalid grading True"),
            ("connected", {"terms": [], "d": False}, "'d' has invalid grading False"),
            ("connected", {"terms": [{"sign": "+", "index": 2.5}], "d": "0"}, "got 2.5"),
        ],
        ids=[
            "decode-towers-not-a-list",
            "render-top-level-list",
            "sum-towers-not-a-list",
            "sum-top-level-list",
            "connected-towers-object",
            "connected-top-level-list",
            "decode-zero-denominator-top",
            "sum-zero-denominator-d",
            "connected-zero-denominator-d",
            "decode-fractional-length",
            "render-boolean-length",
            "decode-boolean-top",
            "homology-boolean-gr",
            "homology-boolean-tau",
            "sum-boolean-d",
            "connected-boolean-d",
            "connected-fractional-index",
        ],
    )
    def test_malformed_class_file_is_domain_error(self, capsys, tmp_path, command, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        argv = [command, "--file", str(path)]
        if command == "sum":
            ok = tmp_path / "ok.json"
            ok.write_text(json.dumps({"module": {"towers": []}, "d": "0"}))
            argv += ["--file", str(ok)]
        elif command == "decode":
            argv += ["--d", "0"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and message in err


    @pytest.mark.parametrize("kind", ["flag", "module-top"])
    def test_huge_exponent_grading_is_domain_error(self, tmp_path, kind):
        # Fraction("1e999999999") would expand 10**999999999 without a bound
        if kind == "flag":
            argv = ["connected", "--expr", "X2", "--d", "1e999999999"]
        else:
            path = tmp_path / "m.json"
            path.write_text(json.dumps({"towers": [{"top": "1e999999999", "length": 1}]}))
            argv = ["decode", "--file", str(path), "--d", "0"]
        proc = run_child(*argv)
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "invalid grading '1e999999999'" in proc.stderr

    def test_huge_multiplicity_is_domain_error(self):
        # the expansion of 99999999999*X1 used to end in a MemoryError
        proc = run_child("connected", "--expr", "99999999999*X1")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert "more than 100000 terms" in proc.stderr

    def test_moderate_exponent_grading_still_parses(self, capsys):
        shifted = run_json(capsys, "connected", "--expr", "X1", "--d", "2e2")
        assert shifted == run_json(capsys, "connected", "--expr", "X1", "--d", "200")


class TestComplexOps:
    def test_double_half_dual(self, capsys, tmp_path):
        # --expr builds the 3-cell representative of X3, so its double has 5 cells
        obj = run_json(capsys, "double", "--expr", "X3", "--delta", "2")
        assert obj["labels"]["theta"].startswith("theta")
        assert len(obj["complex"]["cells"]) == 5

        path = tmp_path / "x3.json"
        path.write_text(json.dumps(complex_to_json(build_xi(3))))
        obj = run_json(capsys, "half", "--file", str(path), "--delta", "1")
        assert len(obj["cells"]) == 5

        obj = run_json(capsys, "dual", "--file", str(path))
        assert {c["id"] for c in obj["cells"]} == {"a*", "Ja*", "b*"}

    def test_tensor(self, capsys, tmp_path):
        path = tmp_path / "x1.json"
        path.write_text(json.dumps(complex_to_json(build_xi(1))))
        obj = run_json(capsys, "tensor", "--file", str(path), "--file", str(path))
        assert len(obj["cells"]) == 9

    def test_tensor_at_the_cap_is_built_and_above_it_refused(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "x1.json"
        path.write_text(json.dumps(complex_to_json(build_xi(1))))
        monkeypatch.setattr("ilocal.cli.MAX_TENSOR_CELLS", 9)
        assert len(run_json(capsys, "tensor", "--file", str(path), "--file", str(path))["cells"]) == 9
        monkeypatch.setattr("ilocal.cli.MAX_TENSOR_CELLS", 8)
        code, out, err = run(capsys, "tensor", "--file", str(path), "--file", str(path))
        assert code == 1 and out == ""
        assert err == "error: the tensor of 3 and 3 cells would have 9 cells, more than 8\n"

    def test_tensor_above_the_cap_is_refused_before_building(self, capsys, tmp_path):
        # 317 * 317 = 100,489 cells, just above the cap
        assert MAX_TENSOR_CELLS == 100_000
        path = tmp_path / "points.json"
        cells = [{"id": f"p{k}", "dim": 0, "gr": "0"} for k in range(317)]
        path.write_text(json.dumps({"cells": cells}))
        code, out, err = run(capsys, "tensor", "--file", str(path), "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "317 and 317 cells would have 100489 cells, more than 100000" in err

    def test_width_exceeded_is_domain_error(self, capsys):
        code, out, err = run(capsys, "double", "--expr", "X2", "--delta", "9")
        assert code == 1 and "width" in err

    def test_verify(self, capsys):
        obj = run_json(capsys, "verify", "--expr", "X4", "--delta", "3")
        assert obj == {
            "chain_map": True,
            "j_equivariant": True,
            "gf_identity": True,
            "u_localized_iso": True,
            "witness": None,
        }


class TestRenderAndSuite:
    def test_render_matches_library(self, capsys):
        code, out, err = run(capsys, "render", "--expr", "X5 - X4 + X2", "--d", "0")
        assert code == 0
        assert out.splitlines()[0] == "-1 |  *"

    def test_render_svg(self, capsys):
        code, out, err = run(capsys, "render", "--expr", "X2", "--format", "svg")
        assert code == 0 and out.startswith("<svg ")

    def test_suite_passes(self, capsys):
        code, out, err = run(capsys, "suite", "--seed", "3", "--cases", "4")
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True and report["seed"] == 3

    def test_suite_env_seed_override(self, capsys, monkeypatch):
        monkeypatch.setenv("ILOCAL_SEED", "99")
        report = run_json(capsys, "suite", "--seed", "3", "--cases", "2")
        assert report["seed"] == 99

    @pytest.mark.parametrize(
        "flag, minimum", [("--cases", 0), ("--max-terms", 0), ("--max-index", 1), ("--max-cells", 3)]
    )
    def test_suite_option_below_minimum_is_usage_error(self, capsys, flag, minimum):
        with pytest.raises(SystemExit) as e:
            main(["suite", "--seed", "3", flag, str(minimum - 1)])
        err = capsys.readouterr().err
        assert e.value.code == 2
        assert f"argument {flag}: must be at least {minimum}" in err.splitlines()[-1]

    def test_render_file_with_d_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"towers": [{"top": "0", "length": 1, "orientation": "down"}]}))
        with pytest.raises(SystemExit) as e:
            main(["render", "--file", str(path), "--d", "4"])
        captured = capsys.readouterr()
        assert e.value.code == 2 and captured.out == ""
        assert "--d applies to --expr only" in captured.err.splitlines()[-1]

    def test_render_of_far_apart_towers_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "far.json"
        path.write_text(json.dumps({"towers": [
            {"top": "0", "length": 1, "orientation": "down"},
            {"top": "-4000000", "length": 1, "orientation": "down"},
        ]}))
        code, out, err = run(capsys, "render", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "2000001 rows x 2 towers" in err

    def test_suite_max_terms_is_capped_at_max_terms(self, capsys):
        from ilocal.expr import MAX_TERMS

        # --cases 0 runs no case, so neither run draws a combination
        assert run_json(capsys, "suite", "--cases", "0", "--max-terms", str(MAX_TERMS))["passed"]
        with pytest.raises(SystemExit) as e:
            main(["suite", "--cases", "0", "--max-terms", str(MAX_TERMS + 1)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-terms: must be at most {MAX_TERMS}" in err.splitlines()[-1]

    def test_suite_max_cells_is_capped_at_max_cells(self, capsys):
        from ilocal.suite import MAX_CELLS

        # a kunneth case tensors two complexes of up to --max-cells cells
        assert run_json(capsys, "suite", "--cases", "0", "--max-cells", str(MAX_CELLS))["passed"]
        with pytest.raises(SystemExit) as e:
            main(["suite", "--cases", "0", "--max-cells", str(MAX_CELLS + 1)])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --max-cells: must be at most {MAX_CELLS}, got {MAX_CELLS + 1}" in (
            err.splitlines()[-1]
        )

    def test_suite_option_minimums_run_clean(self, capsys):
        report = run_json(
            capsys, "suite", "--seed", "3", "--cases", "0",
            "--max-terms", "0", "--max-index", "1", "--max-cells", "3",
        )
        assert report["passed"] is True
        assert [s["cases"] for s in report["suites"]] == [0] * 6

    def test_suite_env_seed_must_be_an_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("ILOCAL_SEED", "abc")
        code, out, err = run(capsys, "suite", "--cases", "0")
        assert (code, out) == (1, "")
        assert err == "error: ILOCAL_SEED must be an integer, got 'abc'\n"

    def test_expression_error_exit_code(self, capsys):
        code, out, err = run(capsys, "connected", "--expr", "X0")
        assert code == 1 and "offset" in err

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                        reason="this interpreter reads integers of any length")
    def test_over_long_literal_is_an_expression_error(self, capsys):
        digits = sys.get_int_max_str_digits() + 1
        code, out, err = run(capsys, "build", "--expr", "X" + "1" * digits)
        assert (code, out) == (1, "")
        assert err == f"expression error: number too long ({digits} digits) (at offset 1)\n"

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"cells": [{"id": "x", "dim": 0.5, "gr": "0"}]}, "non-integer dimension 0.5"),
            ({"cells": [{"id": "x", "dim": True, "gr": "0"}]}, "non-integer dimension True"),
            ({"cells": [{"id": "x", "dim": 0, "gr": "1/0"}]}, "invalid grading '1/0'"),
            ({"cells": 5}, "'cells' list"),
            ([], "'cells' list"),
            (
                {
                    "cells": [{"id": cid, "dim": 0, "gr": "0"} for cid in "xyz"],
                    "J": [["x", "y"], ["y", "z"]],
                    "fixed": "x",
                },
                "cell 'y' appears more than once in 'J' and 'fixed'",
            ),
            (
                {
                    "cells": [{"id": "x", "dim": 1, "gr": "-2"}, {"id": "y", "dim": 0, "gr": "0"}],
                    "bdry": [["x", "y"], ["x", "y"]],
                },
                "boundary pair ('x', 'y') appears more than once",
            ),
        ],
        ids=[
            "fractional-dim",
            "boolean-dim",
            "zero-denominator-gr",
            "cells-not-a-list",
            "top-level-list",
            "contradictory-J",
            "repeated-bdry-pair",
        ],
    )
    def test_malformed_complex_file_is_domain_error(self, capsys, tmp_path, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "homology", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", [["homology"], ["decode", "--d", "0"]])
    def test_deeply_nested_file_is_domain_error(self, capsys, tmp_path, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        code, out, err = run(capsys, *command, "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "recursion" in err

    def test_missing_file_is_domain_error(self, capsys):
        code, out, err = run(capsys, "homology", "--file", "/nonexistent.json")
        assert code == 1


def run_worked_example(*argv):
    """Run ``scripts/worked_examples.py`` with ``argv`` in a child process."""
    script = Path(__file__).parents[1] / "scripts" / "worked_examples.py"
    src = os.path.dirname(os.path.dirname(ilocal.__file__))
    return subprocess.run(
        [sys.executable, str(script), *argv],
        capture_output=True,
        text=True,
        timeout=20,
        env=dict(os.environ, PYTHONPATH=src),
    )


@pytest.mark.parametrize("argv", [["--d", "abc"], ["--expr", "X0"]], ids=["d", "expr"])
def test_worked_example_bad_input_is_usage_error(argv):
    """Exit 1 of the walk script means a failed check, so bad input exits 2 in one line."""
    proc = run_worked_example(*argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.splitlines()[-1].startswith("worked_examples.py: error: ")
    assert "Traceback" not in proc.stderr


def test_worked_example_with_a_cancelling_pair_agrees():
    """The representative keeps a cancelling pair, so the walk compares it with its placement."""
    proc = run_worked_example("--expr", "X2 + X1 - X1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "agree: True" in proc.stdout.splitlines()


def test_output_is_byte_identical_across_hash_seeds(tmp_path):
    """String hashing is randomized per process; no output may depend on it."""
    lc = parse_expression("X5 - X4 - X4 + X2 + X1")
    module = hf_conn(lc, F(2)).to_json()
    (tmp_path / "module.json").write_text(json.dumps(module))
    for name, d in (("a", 2), ("b", -2)):
        placed = hf_conn(lc, F(d)).to_json()
        (tmp_path / f"{name}.json").write_text(json.dumps({"module": placed, "d": str(d)}))
    for i in (2, 3):
        (tmp_path / f"x{i}.json").write_text(json.dumps(complex_to_json(build_xi(i))))
    commands = [
        ["connected", "--expr", "X5 - X4 + X3 + X2", "--d", "3/2"],
        ["decode", "--file", str(tmp_path / "module.json"), "--d", "2"],
        ["sum", "--file", str(tmp_path / "a.json"), "--file", str(tmp_path / "b.json")],
        ["render", "--expr", "X5 - X4 + X2", "--format", "svg"],
        ["homology", "--expr", "X3 - X2 + X1", "--witnesses"],
        ["build", "--expr", "X5 - X4 + X3 + X2"],
        ["dual", "--expr", "X4 - X2"],
        ["double", "--expr", "X3 - X2", "--delta", "2"],
        ["half", "--expr", "X4 + X2", "--delta", "1"],
        ["verify", "--expr", "X4 - X3", "--delta", "3"],
        ["tensor", "--file", str(tmp_path / "x2.json"), "--file", str(tmp_path / "x3.json")],
    ]
    src = os.path.dirname(os.path.dirname(ilocal.__file__))
    # the children run at once, which keeps this test near the cost of a few
    children = {
        (k, seed): subprocess.Popen(
            [sys.executable, "-m", "ilocal.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
        )
        for k, argv in enumerate(commands)
        for seed in ("0", "1")
    }
    outputs = {}
    for key, proc in children.items():
        out, err = proc.communicate(timeout=20)
        assert proc.returncode == 0, err.decode()
        outputs[key] = out
    for k, argv in enumerate(commands):
        assert outputs[k, "0"] and outputs[k, "0"] == outputs[k, "1"], argv
