"""Knot records, Alexander polynomials, and the knot table.

An Alexander polynomial is kept as its symmetric Laurent representative,
normalized so that its value at t = 1 is exactly +1: coefficients are listed
for exponents -d..+d and must read the same in both directions.  That pins a
unique polynomial per knot and makes every resultant downstream a canonical
integer.
"""

from __future__ import annotations

import json
import os
from collections.abc import Sequence
from functools import cached_property

from ._value import _is_int, _Value
from .polynomials import IntPoly, _format_terms, _seifert_det

__all__ = [
    "AlexanderPoly",
    "Knot",
    "KnotTable",
    "KnotTableError",
    "alexander_from_seifert",
    "tilde",
    "alexander_mul",
    "load_table",
    "load_table_file",
    "bundled_table",
]


class KnotTableError(ValueError):
    """Raised for malformed or inconsistent knot-table data."""


class AlexanderPoly(_Value):
    """Symmetric Laurent polynomial with value 1 at t = 1.

    ``coeffs[i]`` is the coefficient of t**(i - d) where d is the
    half-degree; the sequence has odd length 2d + 1 and is palindromic.
    """

    _fields = ("coeffs",)

    def __init__(self, coeffs: tuple[int, ...]):
        object.__setattr__(self, "coeffs", coeffs)
        c = coeffs
        if len(c) % 2 == 0 or not c:
            raise KnotTableError(f"coefficient list must have odd length, got {len(c)}")
        if c != c[::-1]:
            raise KnotTableError(f"coefficients are not palindromic: {list(c)}")
        if len(c) > 1 and c[-1] == 0:
            raise KnotTableError("leading coefficient is zero; strip the padding")
        if sum(c) != 1:
            raise KnotTableError(f"value at t=1 is {sum(c)}, must be 1")

    @classmethod
    def normalized(cls, coeffs) -> "AlexanderPoly":
        """Build from raw coefficients, fixing the overall sign and stripping
        symmetric zero padding; anything else wrong raises."""
        c = list(coeffs)
        if len(c) % 2 == 0 or not c:
            raise KnotTableError(f"coefficient list must have odd length, got {len(c)}")
        while len(c) > 1 and c[0] == 0 and c[-1] == 0:
            c = c[1:-1]
        if sum(c) == -1:
            c = [-x for x in c]
        return cls(tuple(c))

    @property
    def half_degree(self) -> int:
        return len(self.coeffs) // 2

    def __mul__(self, other: "AlexanderPoly") -> "AlexanderPoly":
        return alexander_mul(self, other)

    def __str__(self) -> str:
        return _format_terms(self.coeffs, -self.half_degree)


def tilde(a: AlexanderPoly) -> IntPoly:
    """The ordinary polynomial t**d * a(t) in Z[t], of degree 2d."""
    return IntPoly(a.coeffs)


def alexander_mul(a: AlexanderPoly, b: AlexanderPoly) -> AlexanderPoly:
    """Product of symmetric representatives (connected sums multiply)."""
    # the leading coefficients are nonzero, so the product keeps every term
    return AlexanderPoly((tilde(a) * tilde(b)).coeffs)


def alexander_from_seifert(v: Sequence[Sequence[int]]) -> AlexanderPoly:
    """Normalize det(V - t*V^T) for a square integer Seifert matrix V.

    The determinant is palindromic, det(V - tV^T) = det(V^T - tV), and of
    even degree after the shared t-power is stripped.  Its value at 1,
    det(V - V^T), is a Pfaffian square (V - V^T is skew of even size), so
    +1 for a Seifert matrix.  An empty matrix yields the unknot polynomial.
    The determinant costs g + 1 Bareiss eliminations, at t = 0..g, which fix
    it: a palindromic polynomial of degree <= 2g vanishing there is zero.
    """
    n = len(v)
    if any(len(row) != n for row in v):
        raise KnotTableError("Seifert matrix must be square")
    if n % 2:
        raise KnotTableError("Seifert matrix must have even size 2g")
    det = _seifert_det(v)
    if det.is_zero:
        raise KnotTableError("det(V - tV^T) vanishes; not a Seifert matrix")
    s = sum(det.coeffs)
    if s != 1:
        raise KnotTableError(f"det(V - V^T) = {s}, must be +-1; not a Seifert matrix")
    # stripped of its top zeros, det has as many at the bottom: pad them back
    return AlexanderPoly.normalized(det.coeffs + (0,) * (n + 1 - len(det.coeffs)))


def _nonempty(name: str) -> str:
    if not name:
        raise KnotTableError("knot name must be nonempty")
    return name


def _list_of(test):
    return lambda v: isinstance(v, list) and all(map(test, v))


# The facts of a table record, in Knot's field order: whether a record must
# have the fact, the test of its JSON value, what the error says the value
# must be, and the conversion to Knot's value (None: the JSON value itself).
_FACTS = {
    "name": (True, lambda v: isinstance(v, str), "a string", _nonempty),
    "alexander": (True, _list_of(_is_int), "an integer array", AlexanderPoly.normalized),
    "genus": (False, _is_int, "an integer", None),
    "arc_index": (False, _is_int, "an integer", None),
    "fibered": (True, lambda v: isinstance(v, bool), "a boolean", None),
    "seifert": (False, _list_of(_list_of(_is_int)), "an array of integer arrays",
                lambda v: tuple(map(tuple, v))),
}


class Knot(_Value):
    """A named knot with its Alexander polynomial and optional extra data.

    genus and arc_index are user-supplied facts, never computed; operations
    that need them fail loudly when they are absent.
    """

    _fields = tuple(_FACTS)

    def __init__(
        self,
        name: str,
        alexander: AlexanderPoly,
        genus: int | None = None,
        arc_index: int | None = None,
        fibered: bool = False,
        seifert: tuple[tuple[int, ...], ...] | None = None,
    ):
        object.__setattr__(self, "name", _nonempty(name))
        object.__setattr__(self, "alexander", alexander)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "arc_index", arc_index)
        object.__setattr__(self, "fibered", fibered)
        object.__setattr__(self, "seifert", seifert)
        if self.genus is not None and self.genus < 0:
            raise KnotTableError(f"{self.name}: genus must be >= 0")
        if self.arc_index is not None and self.arc_index < 2:
            raise KnotTableError(f"{self.name}: arc index must be >= 2")
        d = self.alexander.half_degree
        if self.genus is not None and d > self.genus:
            raise KnotTableError(
                f"{self.name}: Alexander half-degree {d} exceeds genus {self.genus}"
            )
        if self.fibered and self.genus is not None and self.genus != d:
            raise KnotTableError(
                f"{self.name}: fibered knot needs genus == Alexander half-degree "
                f"({self.genus} != {d})"
            )
        if self.seifert is not None:
            try:
                derived = alexander_from_seifert(self.seifert)
            except KnotTableError as exc:
                raise KnotTableError(f"{self.name}: {exc}") from None
            if derived != self.alexander:
                raise KnotTableError(
                    f"{self.name}: Seifert matrix gives {list(derived.coeffs)}, "
                    f"table says {list(self.alexander.coeffs)}"
                )

    @cached_property
    def tilde(self) -> IntPoly:
        # cached_property writes to the instance dict past the frozen
        # __setattr__, so Knot has no __slots__
        return tilde(self.alexander)


class KnotTable:
    """Ordered collection of knots with unique names; immutable after load."""

    def __init__(self, entries):
        self.entries: tuple[Knot, ...] = tuple(entries)
        self._by_name: dict[str, Knot] = {}
        for k in self.entries:
            if k.name in self._by_name:
                raise KnotTableError(f"duplicate knot name {k.name!r}")
            self._by_name[k.name] = k

    def __iter__(self):
        return iter(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self) -> list[str]:
        return [k.name for k in self.entries]

    def get(self, name: str) -> Knot:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"unknown knot {name!r}") from None


def _knot_from_record(rec, i: int) -> Knot:
    # an error in reading record i begins with its name, or with "entry i"
    # when it has no usable one; Knot's own checks, which run once the name
    # is known to be nonempty, begin their errors with it themselves
    try:
        if not isinstance(rec, dict):
            raise KnotTableError(f"table entry must be an object, got {type(rec).__name__}")
        unknown = rec.keys() - _FACTS
        if unknown:
            raise KnotTableError(f"unknown fields {sorted(unknown)}")
        values = {}
        for key, (required, test, phrase, convert) in _FACTS.items():
            if key in rec:
                if not test(rec[key]):
                    raise KnotTableError(f"{key} must be {phrase}")
                values[key] = rec[key] if convert is None else convert(rec[key])
            elif required:
                raise KnotTableError(f"missing field {key!r}")
    except KnotTableError as exc:
        name = rec.get("name") if isinstance(rec, dict) else None
        label = name if isinstance(name, str) and name else f"entry {i}"
        raise KnotTableError(f"{label}: {exc}") from None
    return Knot(**values)


def load_table(document) -> KnotTable:
    """Parse and validate a knot-table document (JSON text or parsed array).

    An error in a record begins with the record's name, or with ``entry i``
    (counted from 1) when it has no usable one.
    """
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise KnotTableError(f"invalid JSON: {exc}") from None
    if not isinstance(document, list):
        raise KnotTableError("knot table must be a JSON array of objects")
    return KnotTable(_knot_from_record(rec, i) for i, rec in enumerate(document, 1))


def load_table_file(path) -> KnotTable:
    # the file is opened under the name pathlib would give it ('./a//b' is
    # 'a/b', '' is '.'), which is the name that error messages have shown
    name = os.fspath(path)
    root = "//" if name[:2] == "//" and name[2:3] != "/" else "/" * name.startswith("/")
    name = root + "/".join(p for p in name.split("/") if p not in ("", ".")) or "."
    try:
        with open(name, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise KnotTableError(f"cannot read table {path}: {exc}") from None
    return load_table(text)


def bundled_table() -> KnotTable:
    """The table shipped with the package (unknot through the 6-crossing
    knots plus two connected sums)."""
    # read beside this module, not through importlib.resources, which imports
    # inspect and tempfile (about 30 ms of every CLI process on Python 3.12+)
    with open(os.path.join(os.path.dirname(__file__), "data", "knots.json"), encoding="utf-8") as fh:
        return load_table(fh.read())
