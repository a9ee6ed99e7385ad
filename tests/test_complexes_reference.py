"""The complex layer against plain reference formulas.

The library compares gradings through integer numerators, stores the width
found while validating, transposes the boundary in one pass over the edges
and decomposes a chain over its own cells.  The functions below are the
direct formulas in ``Fraction`` arithmetic and over all cells; the library
must agree with them on random split complexes, their duals, and their
tensors with a complex whose ``tau`` is fractional.
"""

import random
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from ilocal import (
    INFINITE,
    Cell,
    GeometricComplex,
    InvalidComplex,
    SplitComplex,
    canonical_splitting,
    decompose,
    dual,
    tensor,
)
from ilocal.suite import random_split_complex, random_splitting


def ref_width(b):
    gaps = [b.cells[tid].gr - b.cells[cid].gr for cid in b.cells for tid in b.bdry[cid]]
    return int(min(gaps)) if gaps else INFINITE


def ref_dual(b):
    """(cells as {id: (dim, gr)}, bdry) of the dual, by the quadratic formula."""
    n = b.max_dim()
    cells = {cid + "*": (n - c.dim, -c.gr - n) for cid, c in b.cells.items()}
    bdry = {
        cid + "*": frozenset(src + "*" for src in b.ids() if cid in b.bdry[src])
        for cid in b.ids()
    }
    return cells, bdry


def ref_decompose(sc, chain, chosen):
    chain, chosen = frozenset(chain), frozenset(chosen)
    a, b = set(), set()
    for c in chosen:
        in_c, in_j = c in chain, sc.J[c] in chain
        if in_c and in_j:
            b.add(c)
        elif in_c:
            a.add(c)
        elif in_j:
            a.add(c)
            b.add(c)
    return frozenset(a), frozenset(b), 1 if sc.fixed in chain else 0


def ref_u_exponent(b, src, tgt):
    gap = b.cells[tgt].gr - b.cells[src].gr
    if gap < 0 or gap % 2 != 0:
        raise InvalidComplex(f"invalid grading gap on boundary pair ({src!r}, {tgt!r})")
    return int(gap / 2)


def fractional_xi(i, offset):
    """The basis complex X_i with every grading raised by ``offset``."""
    cells = [Cell("a", 0, offset), Cell("Ja", 0, offset), Cell("b", 1, offset - 2 * i)]
    g = GeometricComplex(cells, {"b": {"a", "Ja"}})
    return SplitComplex(g, {"a": "Ja", "Ja": "a", "b": "b"})


def complexes_of(seed):
    rng = random.Random(seed)
    sc = random_split_complex(rng, max_cells=10)
    offset = rng.choice((F(1, 2), F(-3, 2), F(1, 3), F(5, 3), F(7, 4)))
    frac = fractional_xi(rng.randint(1, 3), offset)
    return rng, [sc, dual(sc), tensor(sc, frac), dual(tensor(frac, sc))]


def outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidComplex as exc:
        return ("raised", str(exc))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_width_and_u_exponent_match_fraction_formulas(seed):
    _, cs = complexes_of(seed)
    for c in cs:
        assert c.width() == ref_width(c)
        for src in c.ids():  # every ordered pair, so negative and odd gaps occur
            for tgt in c.ids():
                assert outcome(c.u_exponent, src, tgt) == outcome(ref_u_exponent, c, src, tgt)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_dual_matches_quadratic_transpose(seed):
    _, cs = complexes_of(seed)
    for c in cs:
        d = dual(c)
        cells, bdry = ref_dual(c)
        assert {cid: (cell.dim, cell.gr) for cid, cell in d.cells.items()} == cells
        assert list(d.cells) == list(cells)
        assert d.bdry == bdry
        assert d.width() == ref_width(d)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_decompose_matches_walk_over_the_splitting(seed):
    rng, cs = complexes_of(seed)
    for c in cs:
        ids = c.ids()
        for chosen in (canonical_splitting(c), random_splitting(rng, c)):
            chains = [c.bdry[cid] for cid in ids]
            chains += [frozenset(rng.sample(ids, rng.randint(0, len(ids)))) for _ in range(5)]
            for chain in chains:
                assert decompose(c, chain, chosen) == ref_decompose(c, chain, chosen)
