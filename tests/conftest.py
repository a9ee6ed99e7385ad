import copy
import pickle
import random
import sys

import pytest

from ilocal.complexes import (GeometricComplex, SplitComplex, _derived, _leaves, _Product,
                              _SplitProduct, _SplitStarred, _Starred)
from ilocal.homology import ChainMap, _derived_map
from ilocal.suite import random_geometric_complex, random_split_complex
from ilocal.towers import FUModule, _view

ACCEPTANCE_SEED = 1


def mod(*towers):
    """The module of ``towers``, in the order given."""
    return FUModule(tuple(towers))


def oriented_equal(a, b) -> bool:
    """Multiset equality of two modules, orientations included.

    ``canonical`` breaks the remaining ties by orientation, so equal
    multisets give equal lists.
    """
    return a.canonical().to_json() == b.canonical().to_json()


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "trusted_derived: run without rebuilding derived complexes in full"
    )


COMPLEX_TABLES = ("_ids", "_dims", "_nums", "_adj", "tau", "_q", "_width")
SPLIT_TABLES = COMPLEX_TABLES + ("_jpos", "_fpos")

#: the tables a product builds from its leaves besides the stored ones of
#: other complexes, compared by name with the reference's views
PRODUCT_TABLES = ("_off", "_idrank")

#: the form a complex derived by ``dual`` or ``double`` stores in place of
#: its ids, dims and numerators, compared through the views built from it
FORM = ("_stems", "_born", "_stars", "_bdims", "_bnums", "_sign", "_doff", "_noff")

#: its stored least and greatest dim, and how each is read off the reference
SPAN = {"_lo": min, "_hi": max}

#: The stored fields of each kind of derived object that are not views,
#: compared by name with the rebuilt reference's; a map's source and target
#: are the reference's own, a product's are the tables it builds from its
#: leaves, and a derived complex's ids, dims and numerators are those its
#: views build from ``FORM``.  Every other stored field must be a
#: ``towers._view``, compared with its builder run on the reference.
TABLES = {
    GeometricComplex: COMPLEX_TABLES,
    SplitComplex: SPLIT_TABLES,
    _Product: COMPLEX_TABLES + PRODUCT_TABLES,
    _SplitProduct: SPLIT_TABLES + PRODUCT_TABLES,
    _Starred: COMPLEX_TABLES,
    _SplitStarred: SPLIT_TABLES,
    ChainMap: ("source", "target", "_pattern", "_grading"),
}

#: position rows whose order is free, compared row by row as sets
FREE_ROWS = {"_adj", "_coadj", "_off"}


def same(name, stored, built):
    """Whether a stored field equals the reference's: sequences as lists, free rows as sets."""
    if stored == built:
        return True
    if name in FREE_ROWS:
        return list(map(set, stored)) == list(map(set, built))
    seq = (list, tuple)
    return isinstance(stored, seq) and isinstance(built, seq) and list(stored) == list(built)


def state(obj, stored):
    """A frozen copy of the class of ``obj`` and of ``stored``, its stored fields.

    ``pickle`` writes them exactly, a map's source and target with every
    field they hold, so equal copies are equal states; and equal states
    give the same rebuild and the same comparisons, so each is checked once.
    """
    return pickle.dumps((type(obj), stored), pickle.HIGHEST_PROTOCOL)


def read(obj, stored, name):
    """The table ``name`` of ``obj``; a derived complex's view is built without keeping it."""
    view = getattr(type(obj), name, None)
    if isinstance(obj, _Starred) and name not in stored and isinstance(view, _view):
        return view.build(obj)
    return getattr(obj, name)


def compare_stored(obj, stored, ref):
    """Every field in ``stored`` (``vars(obj)`` as derived) against the reference ``ref``.

    A product stores ``_factors``, its leaves, in place of its tables: two
    or more complexes, none of them a product whose tables are all unread
    (``tensor`` flattens those).  It is compared through every table it
    builds from them (``TABLES``).  A complex derived by ``dual`` or
    ``double`` stores its ``FORM`` in place of its ids, dims and numerators;
    it is compared through the views built from it, which it does not keep,
    and its ``SPAN`` against the reference's dims.
    """
    tables = TABLES[type(obj)]
    if "_factors" in stored:
        leaves = stored["_factors"]
        assert len(leaves) >= 2
        assert all(_leaves(f) == (f,) for f in leaves), "a leaf is a product with unread tables"
    for name in tables:
        assert same(name, read(obj, stored, name), getattr(ref, name)), name
    if isinstance(obj, _Starred):
        for name, pick in SPAN.items():
            assert stored[name] == pick(ref._dims, default=0), name
    for name, value in stored.items():
        if name in tables or name == "_factors" or name in FORM or name in SPAN:
            continue
        view = getattr(type(obj), name, None)
        assert isinstance(view, _view), f"stored field {name!r} is neither a compared table nor a view"
        assert same(name, value, view.build(ref)), name


def patch_derived(request, monkeypatch, checked_states, factory, rebuild):
    """Check each object that ``factory`` returns, in every ``ilocal`` module binding it.

    ``rebuild`` builds the reference through the public validating
    constructors; ``compare_stored`` then compares every stored field.  A
    state in ``checked_states`` (see ``state``) is not rebuilt again.
    """
    if request.node.get_closest_marker("trusted_derived"):
        return
    name = factory.__name__

    def checked(*args, **kwargs):
        obj = factory(*args, **kwargs)
        stored = dict(vars(obj))
        key = state(obj, stored)
        if key not in checked_states:
            compare_stored(obj, stored, rebuild(obj))
            checked_states.add(key)
        return obj

    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("ilocal.") and getattr(mod, name, None) is factory:
            monkeypatch.setattr(mod, name, checked)


def rebuilt_complex(c):
    """``c`` rebuilt from its cells, boundary, tau and J through the validating constructors.

    They are read off a shallow copy, so that ``c`` keeps none of the views
    they build.
    """
    c = copy.copy(c)
    ref = GeometricComplex(c.cells.values(), c.bdry, c.tau)
    return SplitComplex(ref, c.J) if isinstance(c, SplitComplex) else ref


def rebuilt_map(m):
    """``m`` rebuilt through ``ChainMap`` from its ``assignment`` view, read without keeping it."""
    view = ChainMap.assignment.build(m)
    ref = ChainMap(m.source, m.target, view)
    assert list(ref.assignment.items()) == list(view.items())
    return ref


@pytest.fixture(scope="session")
def checked_states():
    """The states of derived objects rebuilt and compared so far in this session."""
    return set()


@pytest.fixture(autouse=True)
def revalidate_derived(request, monkeypatch, checked_states):
    """Check every complex that ``dual``, ``tensor`` and ``double`` derive.

    They skip validation and store the grading tables they computed; here
    each result is rebuilt through the validating constructors from its
    cells, boundary, tau and J, and every field it stored must be what the
    rebuilt complex records.  The cells are read back from the stored
    tables, so this checks the boundary, width, J and fixed cell against
    them; the tables themselves are compared with the Fraction formulas by
    ``TestDerivedGradings`` and ``TestDouble::test_cells_on_random_complexes``.
    The stored tables (``TABLES``) are compared by name, the positions row
    by row, each as a set; J is rebuilt from ``_jpos``, so the constructor
    checks the stored partners, and their positions and the fixed cell's
    must be the ones it finds.  Every other stored field must be a
    ``towers._view`` (a stored coboundary, index, canonical flags, id ranks
    and the like) and equal its builder run on the rebuilt complex; one
    that is neither fails the test, naming it.  A product builds every
    table from its leaves here, so a product it checks is a leaf of the
    next.
    """
    patch_derived(request, monkeypatch, checked_states, _derived, rebuilt_complex)


@pytest.fixture(autouse=True)
def recheck_derived_maps(request, monkeypatch, checked_states):
    """Check every chain map that ``homology._derived_map`` builds.

    Such a map stores its F2 pattern alone, and each term was lifted once
    when it was built.  Here each map is rebuilt through the public
    ``ChainMap`` from its ``assignment`` view, read without keeping it in
    the map, and the pattern and the grading verdict the constructor finds
    must be the stored ones; its normalised dict must be the view, in the
    same order.  Its state includes its source's and target's.
    """
    patch_derived(request, monkeypatch, checked_states, _derived_map, rebuilt_map)


@pytest.fixture(scope="session")
def split_corpus():
    """200 seeded random split complexes with at most 10 cells."""
    rng = random.Random(f"{ACCEPTANCE_SEED}:corpus:split")
    return [random_split_complex(rng, max_cells=10) for _ in range(200)]


@pytest.fixture(scope="session")
def pair_corpus():
    """200 seeded pairs of valid complexes with at most 12 cells each."""
    rng = random.Random(f"{ACCEPTANCE_SEED}:corpus:pairs")
    return [
        (random_geometric_complex(rng, max_cells=12), random_geometric_complex(rng, max_cells=12))
        for _ in range(200)
    ]
