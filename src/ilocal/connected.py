"""Connected homology of combinations of basis complexes, and its inverse.

A local class is written as a signed combination of the basis complexes
X_i, indices sorted descending.  The placement algorithm draws one torsion
tower per term: length i, pointing down for + and up for -; the first tower
has its head in grading 0 (down) or 1 (up), and each later tower is placed
against the tail of the previous one -- level with it on a sign change, one
lower after ++, one higher after --.  The result is the connected module in
the unshifted frame; the invariant of a class with correction term d is the
same module with all gradings raised by d - 1.

The decoder runs the placement rule backwards: it shifts the module back
into the unshifted frame, towers of equal length must concatenate into a
chain (each top one below the previous bottom), chains are ordered by
length, and each chain takes the sign whose head, placed after the previous
chain's tail, is the chain's top (down) or bottom (up).  Anything else is
rejected as not of the required form.

``representative`` builds the small model complex for a combination by
iterated doubling, dualizing around each negative term; its torsion
homology reproduces the placement algorithm, which is the main cross-check
of the whole package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .complexes import SplitComplex, build_trivial, dual
from .doubling import double
from .errors import NotInXForm, NotSimplified
from .towers import (
    DOWN,
    UP,
    FUModule,
    Grading,
    _from_rows,
    _Value,
    grading_from_json,
    grading_to_str,
    shift,
    signed_rank,
)


class LinearCombination(_Value):
    """A signed multiset of basis indices, sorted by descending index.

    Terms are (sign, index) with sign +1 or -1; at equal indices positive
    terms sort first.  ``simplified`` reports the absence of cancelling
    pairs; cancelling pairs are allowed in general (the representative
    builder accepts them) but the placement algorithm insists they be gone.
    """

    _fields = ("terms",)

    def __init__(self, terms: Tuple[Tuple[int, int], ...] = ()):
        terms = tuple(terms)
        for sign, index in terms:
            if type(sign) is not int or sign not in (1, -1):
                raise ValueError(f"term sign must be +1 or -1, got {sign!r}")
            if type(index) is not int or index < 1:
                raise ValueError(f"term index must be a positive integer, got {index!r}")
        self._set(tuple(sorted(terms, key=lambda t: (-t[1], -t[0]))))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def simplified(self) -> bool:
        return simplify(self) == self

    def to_json(self) -> list:
        return [{"sign": "+" if s > 0 else "-", "index": i} for s, i in self.terms]

    @staticmethod
    def from_json(obj: list) -> "LinearCombination":
        if not isinstance(obj, list):
            raise ValueError("terms must be a JSON list")
        terms = []
        for k, entry in enumerate(obj):
            if not isinstance(entry, dict) or not {"sign", "index"} <= entry.keys():
                raise ValueError(f"terms[{k}] must be an object with 'sign' and 'index'")
            sign = entry["sign"]
            if sign not in ("+", "-"):
                raise ValueError(f"term sign must be '+' or '-', got {sign!r}")
            terms.append((1 if sign == "+" else -1, entry["index"]))
        return LinearCombination(tuple(terms))


class LocalClass(_Value):
    """A combination together with the correction term fixing its frame."""

    _fields = ("combo", "d")

    def __init__(self, combo: LinearCombination, d: Grading):
        self._set(combo, Fraction(d))

    def to_json(self) -> dict:
        return {"terms": self.combo.to_json(), "d": grading_to_str(self.d)}

    @staticmethod
    def from_json(obj: dict) -> "LocalClass":
        if not isinstance(obj, dict) or not {"terms", "d"} <= obj.keys():
            raise ValueError("a local class must be a JSON object with 'terms' and 'd'")
        d = grading_from_json(obj["d"], "'d'")
        return LocalClass(LinearCombination.from_json(obj["terms"]), d)


def simplify(lc: LinearCombination) -> LinearCombination:
    """Remove cancelling +/- pairs at each index."""
    net = {}
    for sign, index in lc:
        net[index] = net.get(index, 0) + sign
    terms = []
    for index, count in net.items():
        sign = 1 if count > 0 else -1
        terms.extend((sign, index) for _ in range(abs(count)))
    return LinearCombination(tuple(terms))


def _head(prev, sign: int):
    """Grading of the next tower's head, given the previous term's (sign, tail).

    The first head is the integer 0 or 1, and a later one the previous tail
    plus -1, 0 or 1, so ``place_towers`` runs on integers and ``decode``,
    whose tails are gradings, on gradings.
    """
    if prev is None:
        return 0 if sign > 0 else 1
    prev_sign, prev_tail = prev
    if sign != prev_sign:
        return prev_tail
    return prev_tail - 1 if sign > 0 else prev_tail + 1


def place_towers(lc: LinearCombination) -> FUModule:
    """Run the placement algorithm, cancelling pairs permitted: one integer row per term, over 1."""
    rows, prev = [], None
    for sign, index in lc:
        head = _head(prev, sign)
        # a down tower's tail is its bottom, an up tower's its top
        tail = head - 2 * sign * (index - 1)
        rows.append(((max(head, tail), index, DOWN if sign > 0 else UP), 1))
        prev = (sign, tail)
    return _from_rows(rows, 1)


def connected_homology(lc: LinearCombination) -> FUModule:
    """Connected module of a maximally simplified combination (unshifted frame)."""
    if not lc.simplified:
        raise NotSimplified("combination still contains a cancelling pair")
    return place_towers(lc)


def hf_conn(lc: LinearCombination, d: Grading) -> FUModule:
    """Connected module in the invariant frame: gradings raised by d - 1."""
    return shift(connected_homology(lc), Fraction(1) - Fraction(d))


def representative(lc: LinearCombination) -> SplitComplex:
    """Small model complex for a combination: iterated doubling and halving.

    Starting from the trivial complex, a positive term doubles with its
    index; a negative term dualizes, doubles, and dualizes back.  Sorted
    input keeps every step inside the width bound, so the result has
    2n + 1 cells for n terms.
    """
    s = build_trivial()
    for sign, index in lc:
        if sign > 0:
            s = double(s, index).complex
        else:
            s = dual(double(dual(s), index).complex)
    return s


def _chains(m: FUModule):
    """(length, count, hi, lo) of each chain, longest first; hi and lo are its extreme gradings."""
    by_length = {}
    for t in m:
        by_length.setdefault(t.length, []).append(t)
    chains = []
    for length in sorted(by_length, reverse=True):
        tops = sorted((t.top for t in by_length[length]), reverse=True)
        for upper, lower in zip(tops, tops[1:]):
            if upper - lower != 2 * length - 1:
                raise NotInXForm(
                    f"towers of length {length} do not concatenate into a chain"
                )
        chains.append((length, len(tops), tops[0], tops[-1] - 2 * (length - 1)))
    return chains


def decode(m: FUModule, d: Grading) -> LinearCombination:
    """Recover the combination whose shifted connected module is ``m``.

    Raises NotInXForm when the module cannot arise from the placement
    algorithm at correction term ``d``.
    """
    d = Fraction(d)
    if m.free_rank:
        raise ValueError("decode expects a torsion-only module")
    terms = []
    prev = None
    for length, count, hi, lo in _chains(shift(m, d - 1)):
        # both rules together would need hi - lo = -1, but hi - lo is even,
        # so at most one sign matches
        if _head(prev, 1) == hi:
            sign, tail = 1, lo
        elif _head(prev, -1) == lo:
            sign, tail = -1, hi
        else:
            raise NotInXForm(f"no placement rule matches the chain of length {length}")
        terms.extend([(sign, length)] * count)
        prev = (sign, tail)
    # each chain is spaced as a run of one sign and headed by the sign's
    # rule, so hf_conn(result, d) == m: the towers of m reassemble
    return LinearCombination(tuple(terms))


def connect_sum(a, b):
    """Sum two (module, d) classes by decoding, adding, and re-encoding."""
    ma, da = a
    mb, db = b
    da, db = Fraction(da), Fraction(db)
    lc = simplify(LinearCombination(decode(ma, da).terms + decode(mb, db).terms))
    d = da + db
    return hf_conn(lc, d), d


def predict_mu_bar(lc: LinearCombination, d: Grading) -> Grading:
    """Signed rank of the connected module minus d/2."""
    return signed_rank(connected_homology(lc)) - Fraction(d) / 2


def predict_rokhlin_parity(lc: LinearCombination, d: Grading) -> int:
    """(total rank + d/2) mod 2; requires d/2 to be an integer."""
    half_d = Fraction(d) / 2
    if half_d.denominator != 1:
        raise ValueError("parity prediction requires d/2 to be an integer")
    return (connected_homology(lc).rank + int(half_d)) % 2
