"""Connected homology of combinations of basis complexes, and its inverse.

A local class is written as a signed combination of the basis complexes
X_i, indices sorted descending.  The placement algorithm draws one torsion
tower per term: length i, pointing down for + and up for -; the first tower
has its head in grading 0 (down) or 1 (up), and each later tower is placed
against the tail of the previous one -- level with it on a sign change, one
lower after ++, one higher after --.  The result is the connected module in
the unshifted frame; the invariant of a class with correction term d is the
same module with all gradings raised by d - 1.

The decoder inverts this: towers of equal length must concatenate into a
chain (each top one below the previous bottom), chains are ordered by
length, the leading chain is oriented by whether its top sits at d - 1
(down) or its bottom at d (up), and every transition must match exactly one
placement rule.  Anything else is rejected as not of the required form.

``representative`` builds the small model complex for a combination by
iterated doubling, dualizing around each negative term; its torsion
homology reproduces the placement algorithm, which is the main cross-check
of the whole package.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    Tower,
    grading_from_json,
    grading_to_str,
    shift,
    signed_rank,
)


@dataclass(frozen=True)
class LinearCombination:
    """A signed multiset of basis indices, sorted by descending index.

    Terms are (sign, index) with sign +1 or -1; at equal indices positive
    terms sort first.  ``simplified`` reports the absence of cancelling
    pairs; cancelling pairs are allowed in general (the representative
    builder accepts them) but the placement algorithm insists they be gone.
    """

    terms: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        terms = tuple(self.terms)
        for sign, index in terms:
            if sign not in (1, -1):
                raise ValueError(f"term sign must be +1 or -1, got {sign!r}")
            if type(index) is not int or index < 1:
                raise ValueError(f"term index must be a positive integer, got {index!r}")
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda t: (-t[1], -t[0]))))

    def __iter__(self):
        return iter(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def simplified(self) -> bool:
        signs = {}
        for sign, index in self.terms:
            if signs.get(index, sign) != sign:
                return False
            signs[index] = sign
        return True

    def negated(self) -> "LinearCombination":
        return LinearCombination(tuple((-s, i) for s, i in self.terms))

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


@dataclass(frozen=True)
class LocalClass:
    """A combination together with the correction term fixing its frame."""

    combo: LinearCombination
    d: Grading

    def __post_init__(self):
        object.__setattr__(self, "d", Fraction(self.d))

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


def place_towers(lc: LinearCombination) -> FUModule:
    """Run the placement algorithm, cancelling pairs permitted."""
    towers = []
    prev_sign = None
    prev_tail = None
    for sign, index in lc:
        orient = DOWN if sign > 0 else UP
        if prev_sign is None:
            head = Fraction(0) if sign > 0 else Fraction(1)
        elif sign != prev_sign:
            head = prev_tail
        elif sign > 0:
            head = prev_tail - 1
        else:
            head = prev_tail + 1
        top = head if orient is DOWN else head + 2 * (index - 1)
        tower = Tower(top, index, orient)
        towers.append(tower)
        prev_sign = sign
        prev_tail = tower.tail
    return FUModule(tuple(towers))


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


@dataclass(frozen=True)
class _ChainOfTowers:
    length: int
    count: int
    hi: Grading  # maximal occupied grading
    lo: Grading  # minimal occupied grading


def _chains(m: FUModule):
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
        chains.append(
            _ChainOfTowers(length, len(tops), tops[0], tops[-1] - 2 * (length - 1))
        )
    return chains


def decode(m: FUModule, d: Grading) -> LinearCombination:
    """Recover the combination whose shifted connected module is ``m``.

    Raises NotInXForm when the module cannot arise from the placement
    algorithm at correction term ``d``.
    """
    d = Fraction(d)
    if m.free_rank:
        raise ValueError("decode expects a torsion-only module")
    if not len(m):
        return LinearCombination()
    chains = _chains(m)
    first = chains[0]
    if first.hi == d - 1:
        orient = DOWN
    elif first.lo == d:
        orient = UP
    else:
        raise NotInXForm(
            "leading chain has neither a down head at d - 1 nor an up head at d"
        )
    terms = [(1 if orient is DOWN else -1, first.length)] * first.count
    prev_tail = first.lo if orient is DOWN else first.hi
    prev_orient = orient
    for chain in chains[1:]:
        if prev_orient is DOWN:
            if chain.hi == prev_tail - 1:
                orient = DOWN
            elif chain.lo == prev_tail:
                orient = UP
            else:
                raise NotInXForm(
                    f"no placement rule matches the chain of length {chain.length}"
                )
        else:
            if chain.lo == prev_tail + 1:
                orient = UP
            elif chain.hi == prev_tail:
                orient = DOWN
            else:
                raise NotInXForm(
                    f"no placement rule matches the chain of length {chain.length}"
                )
        terms.extend([(1 if orient is DOWN else -1, chain.length)] * chain.count)
        prev_tail = chain.lo if orient is DOWN else chain.hi
        prev_orient = orient
    lc = LinearCombination(tuple(terms))
    if hf_conn(lc, d) != m:
        raise NotInXForm("module does not reassemble from the decoded combination")
    return lc


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
