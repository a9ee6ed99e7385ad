"""Seeded fuzzing of the CLI's file readers, in process.

Each case takes a valid complex, module, combination-class or module-class
document, makes one random edit somewhere inside it (delete a key, swap a
value for one of ``WRONG``, duplicate or drop a list entry, or recurse into
a value) and runs every subcommand that reads that kind of file through
``cli.main``.  Whatever the input, the CLI exits 0, 1 or 2 and lets no
other exception escape; a domain error (exit 1) prints one line to stderr,
and a JSON subcommand that exits 0 prints JSON.  The number of cases was
fixed beforehand by a budget of 2 s for the whole run.
"""

import contextlib
import io
import json
import random

import pytest

from ilocal import LocalClass, complex_to_json, hf_conn, parse_expression, representative
from ilocal.cli import main

#: edits per run, fixed beforehand by the time budget (see the module docstring)
CASES = 300

#: values of the wrong type or out of range that an edit puts in place of a value
WRONG = (None, True, 0, -1, 2**70, 1.5, float("nan"), "", "x", "1/0", "1e5000", "inf",
         [], [[]], ["a", "a"], {}, {"id": "a"})


def _documents():
    """The valid documents of each kind, and the subcommands that read them."""
    lc = parse_expression("X3 - X2 + X1")
    module = hf_conn(lc, 0).to_json()
    complexes = [complex_to_json(representative(parse_expression(e))) for e in ("X2 - X1", "X3 + X1")]
    return {
        "complex": (complexes, [["homology", "--witnesses"], ["dual"], ["double", "--delta", "1"],
                                ["half", "--delta", "1"], ["verify", "--delta", "1"]]),
        "module": ([module], [["decode", "--d", "0"], ["render", "--format", "ascii"],
                              ["render", "--format", "svg"]]),
        "combination class": ([LocalClass(lc, 0).to_json()], [["connected"]]),
        "module class": ([{"module": module, "d": "0/1"}], [["sum"]]),
    }


def mutate(rng, value):
    """A copy of ``value`` with one random edit somewhere inside it."""
    if isinstance(value, dict) and value:
        out, key = dict(value), rng.choice(sorted(value))
        op = rng.randrange(3)
        if op == 0:
            del out[key]
        else:
            out[key] = rng.choice(WRONG) if op == 1 else mutate(rng, value[key])
        return out
    if isinstance(value, list) and value:
        out, k = list(value), rng.randrange(len(value))
        op = rng.randrange(4)
        if op == 0:
            out.insert(k, value[k])
        elif op == 1:
            del out[k]
        else:
            out[k] = rng.choice(WRONG) if op == 2 else mutate(rng, value[k])
        return out
    return rng.choice(WRONG)


def run_cli(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("seed", [1, 2])
def test_mutated_files_exit_cleanly(tmp_path, seed):
    rng = random.Random(seed)
    kinds = _documents()
    valid = tmp_path / "valid.json"
    valid.write_text(json.dumps(kinds["module class"][0][0]))
    path = tmp_path / "case.json"
    names = sorted(kinds)
    for case in range(CASES // 2):
        kind = names[case % len(names)]
        docs, commands = kinds[kind]
        doc = mutate(rng, rng.choice(docs))
        path.write_text(json.dumps(doc))
        for command in commands:
            argv = command + ["--file", str(path)]
            if command == ["sum"]:
                argv += ["--file", str(valid)]
            where = f"{argv[0]} on {json.dumps(doc)}"
            try:
                code, out, err = run_cli(argv)
            except Exception as exc:
                pytest.fail(f"{where} raised {exc!r}")
            assert code in (0, 1, 2), where
            if code == 1:
                assert err.count("\n") == 1 and err.endswith("\n"), where
            if code == 0 and command[0] != "render":
                json.loads(out)
