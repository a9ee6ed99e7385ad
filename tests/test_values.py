"""The contract of the value classes: construction, equality, hash, repr and immutability.

Each class is built positionally and by keyword (with its defaults), its
``repr`` is pinned, and its equality is one of three kinds: by value over
the field tuple (hashed as that tuple), by identity, or by value and
unhashable (the mutable suite records).
"""

import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

import ilocal
from ilocal.complexes import Cell
from ilocal.connected import LinearCombination, LocalClass
from ilocal.doubling import DoubleResult, VerifyReport
from ilocal.homology import ReductionResult
from ilocal.suite import SuiteConfig, SuiteReport, SuiteResult
from ilocal.towers import DOWN, INFINITE, Tower

CONFIG_DEFAULTS = dict(kunneth_cases=25, doubling_cases=25, local_cases=10,
                       representative_cases=40, roundtrip_cases=150, duality_cases=25,
                       max_terms=4, max_index=6, max_cells=10)
REDUCTION_FIELDS = ("c", {(0, 1): 1}, [0], [0], [0], [0], {}, ((0, 1),))
DOUBLE_FIELDS = ("c", "omega", "J.omega", "theta", "eta", frozenset({"a"}), frozenset({"a"}))

# (positional build, keyword build, the fields as a tuple, the pinned repr)
VALUE_CASES = {
    "Tower": (
        lambda: Tower(1, 2, DOWN),
        lambda: Tower(orientation=DOWN, length=2, top=F(1)),
        (F(1), 2, DOWN),
        "Tower(top=Fraction(1, 1), length=2, orientation=<Orientation.DOWN: 'down'>)",
    ),
    "Tower-free": (
        lambda: Tower(F(1, 2), INFINITE),
        lambda: Tower(top=F(1, 2), length=INFINITE),
        (F(1, 2), INFINITE, None),
        "Tower(top=Fraction(1, 2), length=inf, orientation=None)",
    ),
    "Cell": (
        lambda: Cell("a", 1, 2),
        lambda: Cell(gr=F(2), dim=1, id="a"),
        ("a", 1, F(2)),
        "Cell(id='a', dim=1, gr=Fraction(2, 1))",
    ),
    "LinearCombination": (
        lambda: LinearCombination(((1, 2), (-1, 3))),
        lambda: LinearCombination(terms=[(-1, 3), (1, 2)]),
        (((-1, 3), (1, 2)),),
        "LinearCombination(terms=((-1, 3), (1, 2)))",
    ),
    "LinearCombination-empty": (
        lambda: LinearCombination(),
        lambda: LinearCombination(terms=()),
        ((),),
        "LinearCombination(terms=())",
    ),
    "LocalClass": (
        lambda: LocalClass(LinearCombination(), 2),
        lambda: LocalClass(d=F(2), combo=LinearCombination()),
        (LinearCombination(), F(2)),
        "LocalClass(combo=LinearCombination(terms=()), d=Fraction(2, 1))",
    ),
    "VerifyReport": (
        lambda: VerifyReport(True, False, False, False, {"check": "x"}),
        lambda: VerifyReport(witness={"check": "x"}, u_localized_iso=False, gf_identity=False,
                             j_equivariant=False, chain_map=True),
        (True, False, False, False, {"check": "x"}),
        "VerifyReport(chain_map=True, j_equivariant=False, gf_identity=False, "
        "u_localized_iso=False, witness={'check': 'x'})",
    ),
    "VerifyReport-default": (
        lambda: VerifyReport(True, True, True, True),
        lambda: VerifyReport(chain_map=True, j_equivariant=True, gf_identity=True,
                             u_localized_iso=True, witness=None),
        (True, True, True, True, None),
        "VerifyReport(chain_map=True, j_equivariant=True, gf_identity=True, "
        "u_localized_iso=True, witness=None)",
    ),
    "SuiteConfig": (
        lambda: SuiteConfig(),
        lambda: SuiteConfig(**CONFIG_DEFAULTS),
        tuple(CONFIG_DEFAULTS.values()),
        "SuiteConfig(kunneth_cases=25, doubling_cases=25, local_cases=10, "
        "representative_cases=40, roundtrip_cases=150, duality_cases=25, max_terms=4, "
        "max_index=6, max_cells=10)",
    ),
    "SuiteConfig-positional": (
        lambda: SuiteConfig(1, 2, 3, 4, 5, 6, 7, 8, 9),
        lambda: SuiteConfig(**dict(zip(CONFIG_DEFAULTS, range(1, 10)))),
        tuple(range(1, 10)),
        "SuiteConfig(kunneth_cases=1, doubling_cases=2, local_cases=3, representative_cases=4, "
        "roundtrip_cases=5, duality_cases=6, max_terms=7, max_index=8, max_cells=9)",
    ),
}
HASHABLE = {name for name in VALUE_CASES if name != "VerifyReport"}  # a dict field


def fields(obj, names):
    return tuple(getattr(obj, name) for name in names)


def field_names(obj):
    return list(vars(obj))


@pytest.mark.parametrize("name", VALUE_CASES)
def test_value_classes_compare_hash_and_print_their_fields(name):
    positional, keyword, values, text = VALUE_CASES[name]
    a, b = positional(), keyword()
    assert a is not b
    assert tuple(vars(a)) == tuple(vars(b)) == type(a)._fields
    assert fields(a, field_names(a)) == values and fields(b, field_names(b)) == values
    assert a == b and not a != b
    assert a != values and not a == values
    assert repr(a) == repr(b) == text
    if name in HASHABLE:
        assert hash(a) == hash(b) == hash(values)
    else:
        with pytest.raises(TypeError):
            hash(a)


def test_value_classes_differ_when_one_field_differs():
    assert Tower(1, 2, DOWN) != Tower(1, 2) and Tower(1, 2) != Tower(1, 3)
    assert Cell("a", 1, 2) != Cell("b", 1, 2) and Cell("a", 0, 2) != Cell("a", 1, 2)
    assert LinearCombination(((1, 2),)) != LinearCombination(((-1, 2),))
    assert LocalClass(LinearCombination(), 0) != LocalClass(LinearCombination(), 2)
    assert VerifyReport(True, True, True, True) != VerifyReport(True, True, True, False)
    assert SuiteConfig() != SuiteConfig(max_cells=11)
    assert len({Tower(1, 2), Tower(F(1), 2), Tower(1, 2, DOWN)}) == 2


@pytest.mark.parametrize("name", VALUE_CASES)
def test_frozen_value_classes_refuse_assignment_and_deletion(name):
    obj = VALUE_CASES[name][0]()
    before = repr(obj)
    for field in field_names(obj) + ["other"]:
        with pytest.raises(AttributeError):
            setattr(obj, field, 0)
    for field in field_names(obj):
        with pytest.raises(AttributeError):
            delattr(obj, field)
    assert repr(obj) == before


def test_double_results_compare_by_identity_and_refuse_assignment():
    a, b = DoubleResult(*DOUBLE_FIELDS), DoubleResult(*DOUBLE_FIELDS)
    names = ("complex", "omega", "j_omega", "theta", "eta", "zeta", "splitting")
    k = DoubleResult(**dict(zip(names, DOUBLE_FIELDS)))
    assert fields(a, names) == fields(k, names) == DOUBLE_FIELDS
    assert tuple(vars(a)) == tuple(vars(k)) == names
    assert a == a and a != b and a != k
    assert hash(a) == object.__hash__(a) and len({a, b, k}) == 3
    assert repr(a) == repr(k) == (
        "DoubleResult(complex='c', omega='omega', j_omega='J.omega', theta='theta', "
        "eta='eta', zeta=frozenset({'a'}), splitting=frozenset({'a'}))"
    )
    for field in names + ("other",):
        with pytest.raises(AttributeError):
            setattr(a, field, 0)
    with pytest.raises(AttributeError):
        del a.omega
    assert a.omega == "omega"


def test_reduction_results_compare_by_identity_and_stay_mutable():
    a, b = ReductionResult(*REDUCTION_FIELDS), ReductionResult(*REDUCTION_FIELDS)
    names = ("complex", "_counts", "_perm", "_rank", "_R", "_V", "_owner", "_towers")
    k = ReductionResult(**dict(zip(names, REDUCTION_FIELDS)))
    assert fields(a, names) == fields(k, names) == REDUCTION_FIELDS
    assert a == a and a != b and a != k
    assert hash(a) == object.__hash__(a) and len({a, b, k}) == 3
    assert repr(a) == repr(k) == (
        "ReductionResult(complex='c', _counts={(0, 1): 1}, _perm=[0], _rank=[0], _R=[0], "
        "_V=[0], _owner={}, _towers=((0, 1),))"
    )
    a._perm = [1]
    assert a._perm == [1]


def test_suite_results_compare_by_value_stay_mutable_and_are_unhashable():
    a, b = SuiteResult("x"), SuiteResult(name="x", cases=0, failures=[])
    assert (a.name, a.cases, a.failures) == ("x", 0, [])
    assert tuple(vars(a)) == tuple(vars(b)) == ("name", "cases", "failures")
    assert tuple(vars(SuiteReport(1, []))) == ("seed", "results")
    assert a == b and not a != b and a != SuiteResult("x", 1) and a != ("x", 0, [])
    assert repr(a) == "SuiteResult(name='x', cases=0, failures=[])"
    a.failures.append({"case": 1})
    assert b.failures == [] and SuiteResult("x").failures == [] and a != b
    a.cases = 3
    assert repr(a) == "SuiteResult(name='x', cases=3, failures=[{'case': 1}])"
    assert repr(SuiteResult("y", 2, [{"a": 1}])) == "SuiteResult(name='y', cases=2, failures=[{'a': 1}])"
    r, s = SuiteReport(1, [a]), SuiteReport(seed=1, results=[SuiteResult("x", 3, [{"case": 1}])])
    assert r == s and not r != s and r != SuiteReport(2, [a])
    assert repr(r) == "SuiteReport(seed=1, results=[SuiteResult(name='x', cases=3, failures=[{'case': 1}])])"
    r.seed = 2
    assert r.seed == 2 and r != s
    for obj in (a, r):
        with pytest.raises(TypeError):
            hash(obj)


def test_importing_the_cli_loads_no_dataclasses():
    """A cold ``ilocal`` child pays for neither ``dataclasses`` nor the ``inspect`` it pulls in."""
    src = os.path.dirname(os.path.dirname(ilocal.__file__))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import ilocal.cli, sys; print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))"],
        capture_output=True, text=True, timeout=20, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
