"""Graded F2[U]-modules presented as finite direct sums of towers.

A torsion tower of length l topped at grading d occupies the gradings
d, d-2, ..., d-2(l-1); multiplication by U drops the grading by two and the
top element dies after l steps.  A free tower (length ``INFINITE``) extends
downward without bound.  Gradings are exact rationals throughout.

Down/up orientations are presentation metadata consumed by the placement
algorithm, the signed rank, and the renderer.  Isomorphism of modules is
multiset equality of (top, length) pairs; orientations and presentation
order never participate in comparison.

Every module stores one integer table and nothing else: ``_rows``, a list
of ((num, length, orientation), count) pairs in presentation order, each
top num / ``_q`` over the module's one denominator.  ``_counts``, the
multiplicity of each (top numerator, top denominator, length) with the top
in lowest terms, which equality, hash, ``len`` and ``free_rank`` read, is a
view built from the rows on first read.  ``FUModule(towers)`` writes one
row per tower over the lcm of their denominators, ``homology`` and
``kunneth`` one row per distinct tower (``_module_from_counts``), and
``place_towers`` one row per term over 1.
``towers`` is a view, built on first read with one ``Fraction`` and one
``Tower`` per row (the constructor keeps the tuple it was given as that
view), so a module that is only compared, counted, ranked or cut to its
torsion builds none.  ``canonical()`` and ``_module_from_counts`` sort rows
by one integer key, ``_row_key``.

Towers, modules and the package's other records derive from ``_Value``,
which reads equality, hash and repr off the fields named by ``_fields``
(written by each ``__init__``) and refuses assignment and deletion; unlike
``dataclasses``, it generates no code when a class is made.
"""

from __future__ import annotations

import enum
import math
import re
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
        # a float reads as its shortest decimal, so 0.1 is 1/10, not its binary expansion
        return Fraction(repr(value) if type(value) is float else value)
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
        if orientation not in (DOWN, UP, None):
            raise ValueError(f"tower orientation must be DOWN, UP or None, got {orientation!r}")
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


def _row_key(row) -> tuple:
    """Sort key of a row: descending top, then descending length, then down < up < unoriented."""
    (num, length, orientation), _ = row
    return -num, -length, _RANK[orientation]


class FUModule(_Value):
    """Finite direct sum of towers, kept in presentation order.

    The module stores its integer rows ``_rows`` over the denominator
    ``_q`` and nothing else.  Their multiplicities ``_counts`` are a view
    built from the rows on first read; ``towers`` is too, or is kept as
    given to the constructor.  ``==`` and ``hash`` compare isomorphism
    classes: the multiset of (top, length) pairs, read from ``_counts``.
    ``canonical()`` returns a copy sorted by descending top, then
    descending length.  Instances are immutable: assigning or deleting an
    attribute raises ``AttributeError``.
    """

    def __init__(self, towers=()):
        towers = tuple(towers)
        for t in towers:
            if not isinstance(t, Tower):
                raise ValueError(f"a module is a sequence of Towers, got {t!r}")
        q = math.lcm(*(t.top.denominator for t in towers))
        rows = [((t.top.numerator * (q // t.top.denominator), t.length, t.orientation), 1) for t in towers]
        self._store(rows, q)
        self.__dict__["towers"] = towers

    def _store(self, rows: list, q: int) -> "FUModule":
        """Store ``rows`` over q; return the module."""
        self.__dict__.update(_rows=rows, _q=q)
        return self

    @_view
    def _counts(self) -> dict:
        """The multiplicity of each (top numerator, top denominator, length), the top in lowest terms."""
        q, counts = self._q, {}
        for (num, length, _), k in self._rows:
            g = math.gcd(num, q)
            key = num // g, q // g, length
            counts[key] = counts.get(key, 0) + k
        return counts

    @_view
    def towers(self) -> tuple:
        """The ``Tower`` of each row of ``_rows``, repeated by its count, in row order."""
        q, out = self._q, []
        for (num, length, orientation), k in self._rows:
            out += [Tower(Fraction(num, q), length, orientation)] * k
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

    def canonical(self) -> "FUModule":
        """A copy sorted by descending top, then descending length, on the integer ``_row_key``."""
        return _from_rows(sorted(self._rows, key=_row_key), self._q)

    def torsion(self) -> "FUModule":
        return _from_rows([row for row in self._rows if row[0][1] != INFINITE], self._q)

    @property
    def free_towers(self) -> tuple:
        return tuple(t for t in self.towers if t.is_free)

    @property
    def free_rank(self) -> int:
        return sum([k for key, k in self._counts.items() if key[2] == INFINITE])

    @property
    def rank(self) -> int:
        """Total F2-dimension of the torsion part (sum of finite lengths)."""
        return sum([length * k for (_, length, _), k in self._rows if length != INFINITE])

    def to_json(self) -> dict:
        return {"towers": [t.to_json() for t in self.towers]}

    @staticmethod
    def from_json(obj: dict) -> "FUModule":
        if not isinstance(obj, dict) or not isinstance(obj.get("towers"), list):
            raise ValueError("a module must be a JSON object with a 'towers' list")
        return FUModule(tuple(Tower.from_json(t) for t in obj["towers"]))


def _from_rows(rows: list, q: int) -> FUModule:
    """The module of ``rows``: ((num, length, orientation), count) pairs, tops over q."""
    return object.__new__(FUModule)._store(rows, q)


def _module_from_counts(counts: dict, q: int) -> FUModule:
    """Canonical module of ``counts[num, length]`` unoriented towers topped at num / q."""
    rows = [((num, length, None), k) for (num, length), k in counts.items()]
    return _from_rows(sorted(rows, key=_row_key), q)


def shift(m: FUModule, sigma: Grading) -> FUModule:
    """Apply the grading shift bracket [sigma], which lowers every top by sigma."""
    sigma = Fraction(sigma)
    return FUModule(tuple(t.shifted(sigma) for t in m))


def reflect(m: FUModule) -> FUModule:
    """Reflect every occupied grading g to 1 - g; orientations flip.

    Only defined for torsion modules (``Tower.reflected`` refuses a free
    tower); the free part of a dual is handled by its callers.
    """
    return FUModule(tuple(t.reflected() for t in m))


def signed_rank(m: FUModule) -> int:
    """Count elements of down towers positively and of up towers negatively."""
    total = 0
    for (_, length, orientation), k in m._rows:
        if length == INFINITE:
            continue
        if orientation is None:
            raise ValueError("signed rank requires every finite tower to be oriented")
        total += length * k if orientation is DOWN else -length * k
    return total


def kunneth(a: FUModule, b: FUModule) -> FUModule:
    """Homology of a tensor product from the homologies of the factors.

    Over the PID F2[U] the tensor of two towers is a tower of the minimum
    length topped at the sum of tops, and each pair of finite towers adds a
    Tor term of the same length topped at d + e - 2*max(l, m) + 1 (the Tor
    summand sits one homological degree higher).  It works on the rows,
    once per pair of rows, with every top as an integer over the lcm L of
    the two denominators.  Output is unoriented and canonically sorted.
    """
    lcm = math.lcm(a._q, b._q)

    def scaled(m):
        return [(num * (lcm // m._q), ln, k) for (num, ln, _), k in m._rows]

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
