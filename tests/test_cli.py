import json
from fractions import Fraction as F

import pytest

from ilocal import FUModule, build_xi, complex_to_json, hf_conn, parse_expression
from ilocal.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        elif command in ("decode", "render"):
            argv += ["--d", "0"]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err and message in err


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

    def test_expression_error_exit_code(self, capsys):
        code, out, err = run(capsys, "connected", "--expr", "X0")
        assert code == 1 and "offset" in err

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"cells": [{"id": "x", "dim": 0.5, "gr": "0"}]}, "non-integer dimension 0.5"),
            ({"cells": [{"id": "x", "dim": 0, "gr": "1/0"}]}, "invalid grading '1/0'"),
            ({"cells": 5}, "'cells' list"),
            ([], "'cells' list"),
        ],
        ids=["fractional-dim", "zero-denominator-gr", "cells-not-a-list", "top-level-list"],
    )
    def test_malformed_complex_file_is_domain_error(self, capsys, tmp_path, obj, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "homology", "--file", str(path))
        assert code == 1 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_missing_file_is_domain_error(self, capsys):
        code, out, err = run(capsys, "homology", "--file", "/nonexistent.json")
        assert code == 1
