"""Graded F2[U]-modules presented as finite direct sums of towers.

A torsion tower of length l topped at grading d occupies the gradings
d, d-2, ..., d-2(l-1); multiplication by U drops the grading by two and the
top element dies after l steps.  A free tower (length ``INFINITE``) extends
downward without bound.  Gradings are exact rationals throughout.

Down/up orientations are presentation metadata consumed by the placement
algorithm, the signed rank, and the renderer.  Isomorphism of modules is
multiset equality of (top, length) pairs, so equality reads each module's
table of multiplicities, ``_counts``; orientations and presentation order
never participate in comparison.  ``_counts`` is keyed by integers, the
reduced numerator and denominator of each top and the length, so building,
hashing and comparing it does no ``Fraction`` arithmetic.  The modules of
``homology`` and ``kunneth`` are built from integer multiplicities over one
denominator (``_module_from_counts``): the module stores them as rows
sorted on integers, ``_rows``, and its ``_counts``, each top reduced by a
gcd.  Its ``towers`` are a view, built on first read from the rows with one
``Fraction`` and one ``Tower`` per row, so a module that is only compared,
counted (``len``, ``free_rank``) or cut to its torsion builds none.
``torsion()`` keeps the finite rows of such a module, and for any other
the finite rows of its parent's table when that is built.

Towers, modules and the package's other records derive from ``_Value``,
which reads equality, hash and repr off the fields named by ``_fields``
(written by each ``__init__``) and refuses assignment and deletion; unlike
``dataclasses``, it generates no code when a class is made.
"""

from __future__ import annotations

import enum
import math
import re
from collections import Counter
from fractions import Fraction
from typing import Iterator, Optional, Union

Grading = Fraction

#: Length marker for free towers.
INFINITE = float("inf")

Length = Union[int, float]


def grading_to_str(g: Grading) -> str:
    g = Fraction(g)
    return f"{g.numerator}/{g.denominator}"


#: Largest decimal exponent accepted in a grading string such as ``"1e3"``;
#: ``Fraction`` would expand ``10**exponent`` eagerly, without a bound.
MAX_GRADING_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)")


def grading_from_json(value, what: str, error=ValueError) -> Grading:
    """Parse a JSON grading (int, float or string like ``-3/2``) or raise ``error``."""
    exponent = _EXPONENT.search(value) if isinstance(value, str) else None
    try:
        if isinstance(value, bool):  # JSON true/false are not the gradings 1 and 0
            raise TypeError("boolean grading")
        if exponent and abs(int(exponent[1])) > MAX_GRADING_EXPONENT:
            raise ValueError("exponent out of range")
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise error(f"{what} has invalid grading {value!r}") from None


class _view:
    """A field built from the stored ones on first read, then kept in the instance.

    This is ``functools.cached_property`` without the lock that CPython 3.11
    takes on every first read, which costs more than building a small view.
    The instances it serves (modules, complexes, reduction results) never
    change, so two threads that race on a first read build equal values.
    """

    def __init__(self, build):
        self.build, self.name, self.__doc__ = build, build.__name__, build.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.build(obj)
        return value


class _Value:
    """An immutable record compared, hashed and printed by its tuple of ``_fields``."""

    def _astuple(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self):
        return hash(self._astuple())

    def __repr__(self):
        # getattr, so a field that is a first-read view is built
        fields = [f"{n}={getattr(self, n)!r}" for n in self._fields]
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable {type(self).__name__}")


class Orientation(enum.Enum):
    DOWN = "down"
    UP = "up"

    def flipped(self) -> "Orientation":
        return Orientation.UP if self is Orientation.DOWN else Orientation.DOWN


DOWN = Orientation.DOWN
UP = Orientation.UP


class Tower(_Value):
    """One tower F2[U]/U^l (or F2[U] itself, l = INFINITE) topped at ``top``."""

    _fields = ("top", "length", "orientation")
    _BAD_LENGTH = "tower length must be a positive integer or INFINITE, got {!r}"

    def __init__(self, top: Grading, length: Length, orientation: Optional[Orientation] = None):
        if type(top) is not Fraction:
            top = Fraction(top)
        if length == INFINITE:
            if orientation is not None:
                raise ValueError("free towers are always unoriented")
        elif not (type(length) is int and length > 0):
            raise ValueError(self._BAD_LENGTH.format(length))
        d = self.__dict__
        d["top"], d["length"], d["orientation"] = top, length, orientation

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
        elif length == INFINITE:  # json reads 1e400 and Infinity as a float, not the marker
            raise ValueError(Tower._BAD_LENGTH.format(length))
        orient = obj.get("orientation")
        top = grading_from_json(obj["top"], "tower top")
        return Tower(top, length, Orientation(orient) if orient else None)


_RANK = {DOWN: 0, UP: 1, None: 2}


def _canonical_order(towers) -> list:
    """``towers`` by descending top, then descending length.

    Orientation only breaks the remaining ties (down < up < unoriented).
    Each top is compared as the integer ``top * L``, with L the lcm of the
    tops' denominators: the same order as the gradings', in integers.
    """
    lcm = math.lcm(*(t.top.denominator for t in towers))

    def key(t):
        return -t.top.numerator * (lcm // t.top.denominator), -t.length, _RANK[t.orientation]

    return sorted(towers, key=key)


class FUModule(_Value):
    """Finite direct sum of towers, kept in presentation order.

    ``==`` and ``hash`` compare isomorphism classes: the multiset of
    (top, length) pairs, read from the multiplicity table ``_counts``
    (keyed by top numerator, top denominator and length).
    ``canonical()`` returns a copy sorted by descending top, then
    descending length.  A module built from counts (``_module_from_counts``)
    stores them and builds ``towers`` on first read.  Instances are
    immutable: assigning or deleting an attribute raises ``AttributeError``.
    """

    def __init__(self, towers=()):
        self.__dict__["towers"] = tuple(towers)

    @_view
    def towers(self) -> tuple:
        """The ``Tower`` of each distinct row of ``_rows``, repeated by its count, in row order."""
        q, out = self._q, []
        for (num, length), k in self._rows:
            out += [Tower(Fraction(num, q), length)] * k
        return tuple(out)

    def __iter__(self) -> Iterator[Tower]:
        return iter(self.towers)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FUModule):
            return NotImplemented
        return self._counts == other._counts

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FUModule({list(self.towers)!r})"

    @_view
    def _counts(self) -> dict:
        """Multiplicity of each (top numerator, top denominator, length), orientations ignored."""
        return dict(Counter([(t.top.numerator, t.top.denominator, t.length) for t in self.towers]))

    def canonical(self) -> "FUModule":
        """A copy sorted by descending top, then descending length.

        The tops are compared as one exact integer key each, never as
        ``Fraction``s.
        """
        return FUModule(tuple(_canonical_order(self.towers)))

    def torsion(self) -> "FUModule":
        rows = vars(self).get("_rows")
        if rows is not None:
            return _from_rows([row for row in rows if row[0][1] != INFINITE], self._q)
        m = FUModule(tuple(t for t in self.towers if not t.is_free))
        counts = vars(self).get("_counts")
        if counts is not None:
            m.__dict__["_counts"] = {key: k for key, k in counts.items() if key[2] != INFINITE}
        return m

    @property
    def free_towers(self) -> tuple:
        return tuple(t for t in self.towers if t.is_free)

    @property
    def free_rank(self) -> int:
        return sum([k for key, k in self._counts.items() if key[2] == INFINITE])

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


def _module_from_counts(counts: dict, q: int) -> FUModule:
    """Canonical module of ``counts[num, length]`` shared unoriented towers topped at num / q.

    The keys are sorted as integers, by descending num and then length,
    into the module's ``_rows``; its ``towers`` are built from them on
    first read, one ``Tower`` per row.
    """
    return _from_rows(sorted(counts.items(), key=lambda item: (-item[0][0], -item[0][1])), q)


def _from_rows(rows: list, q: int) -> FUModule:
    """The module of ``rows``, ((num, length), count) pairs in presentation order over q.

    Its ``_counts`` are keyed by each top num / q in lowest terms.
    """
    m, counts = object.__new__(FUModule), {}
    for (num, length), k in rows:
        g = math.gcd(num, q)
        counts[num // g, q // g, length] = k
    m.__dict__.update(_rows=rows, _q=q, _counts=counts)
    return m


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
    summand sits one homological degree higher).  It works on multiplicities,
    once per pair of distinct towers, with every top as an integer over the
    lcm L of the tops' denominators; each distinct output top becomes one
    ``Fraction``.  Output is unoriented and canonically sorted.
    """
    lcm = math.lcm(*(den for m in (a, b) for _, den, _ in m._counts))

    def scaled(m):
        return [(num * (lcm // den), ln, k) for (num, den, ln), k in m._counts.items()]

    out, right = {}, scaled(b)
    for s, ls, m in scaled(a):
        for t, lt, n in right:
            short, long = min(ls, lt), max(ls, lt)
            key = (s + t, short)
            out[key] = out.get(key, 0) + m * n
            if long != INFINITE:
                key = (s + t - (2 * long - 1) * lcm, short)
                out[key] = out.get(key, 0) + m * n
    return _module_from_counts(out, lcm)
