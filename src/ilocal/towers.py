"""Graded F2[U]-modules presented as finite direct sums of towers.

A torsion tower of length l topped at grading d occupies the gradings
d, d-2, ..., d-2(l-1); multiplication by U drops the grading by two and the
top element dies after l steps.  A free tower (length ``INFINITE``) extends
downward without bound.  Gradings are exact rationals throughout.

Down/up orientations are presentation metadata consumed by the placement
algorithm, the signed rank, and the renderer.  Isomorphism of modules is
multiset equality of (top, length) pairs; orientations and presentation
order never participate in comparison.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Union

Grading = Fraction

#: Length marker for free towers.
INFINITE = float("inf")

Length = Union[int, float]


def grading_to_str(g: Grading) -> str:
    g = Fraction(g)
    return f"{g.numerator}/{g.denominator}"


def grading_from_json(value, what: str, error=ValueError) -> Grading:
    """Parse a JSON grading (int, float or string like ``-3/2``) or raise ``error``."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise error(f"{what} has invalid grading {value!r}") from None


class Orientation(enum.Enum):
    DOWN = "down"
    UP = "up"

    def flipped(self) -> "Orientation":
        return Orientation.UP if self is Orientation.DOWN else Orientation.DOWN


DOWN = Orientation.DOWN
UP = Orientation.UP


@dataclass(frozen=True)
class Tower:
    """One tower F2[U]/U^l (or F2[U] itself, l = INFINITE) topped at ``top``."""

    top: Grading
    length: Length
    orientation: Optional[Orientation] = None

    def __post_init__(self):
        object.__setattr__(self, "top", Fraction(self.top))
        if self.is_free:
            if self.orientation is not None:
                raise ValueError("free towers are always unoriented")
        elif not (type(self.length) is int and self.length > 0):
            raise ValueError(
                f"tower length must be a positive integer or INFINITE, got {self.length!r}"
            )

    @property
    def is_free(self) -> bool:
        return self.length == INFINITE

    @property
    def bottom(self) -> Grading:
        if self.is_free:
            raise ValueError("a free tower has no bottom element")
        return self.top - 2 * (self.length - 1)

    def gradings(self) -> Iterator[Grading]:
        """Gradings occupied by the tower, from top to bottom."""
        if self.is_free:
            raise ValueError("a free tower occupies infinitely many gradings")
        for k in range(self.length):
            yield self.top - 2 * k

    @property
    def head(self) -> Grading:
        """Head grading: maximal for a down tower, minimal for an up tower."""
        if self.orientation is DOWN:
            return self.top
        if self.orientation is UP:
            return self.bottom
        raise ValueError("an unoriented tower has no head")

    @property
    def tail(self) -> Grading:
        if self.orientation is DOWN:
            return self.bottom
        if self.orientation is UP:
            return self.top
        raise ValueError("an unoriented tower has no tail")

    def shifted(self, sigma: Grading) -> "Tower":
        return Tower(self.top - Fraction(sigma), self.length, self.orientation)

    def reflected(self) -> "Tower":
        """Reflect the occupied gradings through the line 1/2; flips orientation."""
        if self.is_free:
            raise ValueError("cannot reflect a free tower")
        flip = self.orientation.flipped() if self.orientation is not None else None
        return Tower(2 * self.length - 1 - self.top, self.length, flip)

    def to_json(self) -> dict:
        return {
            "top": grading_to_str(self.top),
            "length": "inf" if self.is_free else self.length,
            "orientation": self.orientation.value if self.orientation else None,
        }

    @staticmethod
    def from_json(obj: dict) -> "Tower":
        if not isinstance(obj, dict) or not {"top", "length"} <= obj.keys():
            raise ValueError("a tower must be a JSON object with 'top' and 'length'")
        length = obj["length"]
        if length == "inf":
            length = INFINITE
        orient = obj.get("orientation")
        top = grading_from_json(obj["top"], "tower top")
        return Tower(top, length, Orientation(orient) if orient else None)


def _sort_key(t: Tower):
    # descending top, then descending length; orientation only as a final
    # deterministic tiebreak (down < up < unoriented)
    rank = {DOWN: 0, UP: 1, None: 2}[t.orientation]
    return (-t.top, -t.length, rank)


@dataclass(frozen=True, eq=False)
class FUModule:
    """Finite direct sum of towers, kept in presentation order.

    ``==`` and ``hash`` compare isomorphism classes: the multiset of
    (top, length) pairs.  ``canonical()`` returns a copy sorted by
    descending top, then descending length.
    """

    towers: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "towers", tuple(self.towers))

    def __iter__(self) -> Iterator[Tower]:
        return iter(self.towers)

    def __len__(self) -> int:
        return len(self.towers)

    def _key(self):
        return tuple(sorted(((t.top, t.length) for t in self.towers), key=lambda p: (-p[0], -p[1])))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FUModule):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FUModule({list(self.towers)!r})"

    def oriented_equal(self, other: "FUModule") -> bool:
        """Multiset equality including orientations."""

        def key(m):
            return sorted((t.top, t.length, t.orientation.value if t.orientation else "") for t in m)

        return key(self) == key(other)

    def canonical(self) -> "FUModule":
        return FUModule(tuple(sorted(self.towers, key=_sort_key)))

    def torsion(self) -> "FUModule":
        return FUModule(tuple(t for t in self.towers if not t.is_free))

    @property
    def free_towers(self) -> tuple:
        return tuple(t for t in self.towers if t.is_free)

    @property
    def free_rank(self) -> int:
        return len(self.free_towers)

    @property
    def rank(self) -> int:
        """Total F2-dimension of the torsion part (sum of finite lengths)."""
        return sum(t.length for t in self.towers if not t.is_free)

    def to_json(self) -> dict:
        return {"towers": [t.to_json() for t in self.towers]}

    @staticmethod
    def from_json(obj: dict) -> "FUModule":
        if not isinstance(obj, dict) or not isinstance(obj.get("towers"), list):
            raise ValueError("a module must be a JSON object with a 'towers' list")
        return FUModule(tuple(Tower.from_json(t) for t in obj["towers"]))


def shift(m: FUModule, sigma: Grading) -> FUModule:
    """Apply the grading shift bracket [sigma], which lowers every top by sigma."""
    sigma = Fraction(sigma)
    return FUModule(tuple(t.shifted(sigma) for t in m))


def reflect(m: FUModule) -> FUModule:
    """Reflect every occupied grading g to 1 - g; orientations flip.

    Only defined for torsion modules; the free part of a dual is handled by
    its callers.
    """
    if m.free_rank:
        raise ValueError("reflect is only defined for torsion-only modules")
    return FUModule(tuple(t.reflected() for t in m))


def signed_rank(m: FUModule) -> int:
    """Count elements of down towers positively and of up towers negatively."""
    total = 0
    for t in m:
        if t.is_free:
            continue
        if t.orientation is DOWN:
            total += t.length
        elif t.orientation is UP:
            total -= t.length
        else:
            raise ValueError("signed rank requires every finite tower to be oriented")
    return total


def kunneth(a: FUModule, b: FUModule) -> FUModule:
    """Homology of a tensor product from the homologies of the factors.

    Over the PID F2[U] the tensor of two towers is a tower of the minimum
    length topped at the sum of tops, and each pair of finite towers adds a
    Tor term of the same length topped at d + e - 2*max(l, m) + 1 (the Tor
    summand sits one homological degree higher).  Output is unoriented and
    canonically sorted.
    """
    out = []
    for s in a:
        for t in b:
            out.append(Tower(s.top + t.top, min(s.length, t.length)))
    for s in a:
        if s.is_free:
            continue
        for t in b:
            if t.is_free:
                continue
            top = s.top + t.top - 2 * max(s.length, t.length) + 1
            out.append(Tower(top, min(s.length, t.length)))
    return FUModule(tuple(out)).canonical()
