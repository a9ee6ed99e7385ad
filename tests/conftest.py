import random
import sys

import pytest

from ilocal import complexes
from ilocal.complexes import GeometricComplex, SplitComplex
from ilocal.homology import ChainMap
from ilocal.suite import random_geometric_complex, random_split_complex

ACCEPTANCE_SEED = 1


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


@pytest.fixture(autouse=True)
def revalidate_derived(request, monkeypatch):
    """Check every complex that ``dual``, ``tensor`` and ``double`` derive.

    They skip validation and store the grading tables they computed; here
    each result is rebuilt through the validating constructors from its
    cells, boundary and tau, and what they record must be what was stored.
    The cells are read back from the stored tables, so this checks the
    boundary, width, J and fixed cell against them; the tables themselves
    are compared with the Fraction formulas by ``TestDerivedGradings`` and
    ``TestDouble::test_cells_on_random_complexes``.  The stored positions
    are compared row by row, each as a set, and the id boundary built from
    them with the one the constructor checked; a stored coboundary must be
    the transpose of the boundary, row by row as sets, a stored index the
    constructor's, and stored canonical flags ``_canon``, prefix pairs
    ``_prefixed``, new-name set ``_named``, id ranks and prefix-free flag
    the ones the rebuilt complex computes (a product whose ids are deferred
    builds them here).  J is rebuilt from
    ``_jpos``, so the constructor checks the stored partners, and their
    positions and the fixed cell's must be the ones it finds.
    """
    if request.node.get_closest_marker("trusted_derived"):
        return
    derived = complexes._derived

    def checked(*args, **kwargs):
        c = derived(*args, **kwargs)
        stored = vars(c).copy()
        ref = GeometricComplex(c.cells.values(), c.bdry, c.tau)
        if isinstance(c, SplitComplex):
            ref = SplitComplex(ref, c.J)
            assert (c.fixed, c._fpos, list(c._jpos)) == (ref.fixed, ref._fpos, ref._jpos)
        assert (c.bdry, c._q, c._width, c.tau) == (ref.bdry, ref._q, ref._width, ref.tau)
        assert (c._ids, list(c._dims), list(c._nums)) == (ref._ids, ref._dims, ref._nums)
        assert [set(row) for row in c._adj] == [set(row) for row in ref._adj]
        if "_coadj" in stored:
            assert [set(row) for row in stored["_coadj"]] == [set(row) for row in ref._coadj]
        if "_index" in stored:
            assert stored["_index"] == ref._index
        for name in ("_canon", "_prefixed", "_named"):
            if name in stored:
                assert stored[name] == getattr(ref, name), name
        if "_idrank" in stored:
            assert list(stored["_idrank"]) == ref._idrank
        if "_prefix_free" in stored:
            assert stored["_prefix_free"] == ref._prefix_free
        return c

    for name, mod in list(sys.modules.items()):
        if name.startswith("ilocal.") and getattr(mod, "_derived", None) is derived:
            monkeypatch.setattr(mod, "_derived", checked)


@pytest.fixture(autouse=True)
def recheck_derived_maps(request, monkeypatch):
    """Check every chain map that ``homology._derived_map`` builds.

    Such a map stores its F2 pattern alone, and each term was lifted once
    when it was built.  Here each map is rebuilt through the public
    ``ChainMap`` from its ``assignment`` view, read without keeping it in
    the map, and the pattern and the grading verdict the constructor finds
    must be the stored ones; its normalised dict must be the view, in the
    same order.
    """
    if request.node.get_closest_marker("trusted_derived"):
        return
    derived = sys.modules["ilocal.homology"]._derived_map

    def checked(*args):
        m = derived(*args)
        view = ChainMap.assignment.build(m)
        ref = ChainMap(m.source, m.target, view)
        assert (m._pattern, m.grading_witness()) == (ref._pattern, ref.grading_witness())
        assert list(ref.assignment.items()) == list(view.items())
        return m

    for name, mod in list(sys.modules.items()):
        if name.startswith("ilocal.") and getattr(mod, "_derived_map", None) is derived:
            monkeypatch.setattr(mod, "_derived_map", checked)


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
