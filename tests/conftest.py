import random
import sys

import pytest

from ilocal import complexes
from ilocal.complexes import GeometricComplex, SplitComplex
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
    ``TestDouble::test_cells_on_random_complexes``.
    """
    if request.node.get_closest_marker("trusted_derived"):
        return
    derived = complexes._derived

    def checked(*args, **kwargs):
        c = derived(*args, **kwargs)
        ref = GeometricComplex(c.cells.values(), c.bdry, c.tau)
        if isinstance(c, SplitComplex):
            ref = SplitComplex(ref, c.J)
            assert c.fixed == ref.fixed
        assert (c.bdry, c._dim, c._num, c._q, c._width, c.tau) == (
            ref.bdry, ref._dim, ref._num, ref._q, ref._width, ref.tau
        )
        return c

    for name, mod in list(sys.modules.items()):
        if name.startswith("ilocal.") and getattr(mod, "_derived", None) is derived:
            monkeypatch.setattr(mod, "_derived", checked)


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
