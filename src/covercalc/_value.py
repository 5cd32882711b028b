"""The base of the package's immutable value types.

The value types are plain classes rather than dataclasses: importing
``dataclasses`` (which pulls in ``inspect``, ``ast``, ``dis`` and
``tokenize``) and running its decorators cost about 25 ms per ``covercalc``
process, several times the work of a typical command.
"""

from __future__ import annotations

from operator import attrgetter


def _is_int(x) -> bool:
    # JSON true/false load as bool, which Python counts as an int
    return isinstance(x, int) and not isinstance(x, bool)


class _Value:
    """An immutable record of the attributes named in ``_fields``.

    A subclass's ``__init__`` validates its arguments and sets each field
    with ``object.__setattr__``.  Instances equal only instances of the same
    class with equal fields, hash as the tuple of their fields, and print as
    ``Name(field=value, ...)``.  ``IntPoly`` and ``PrimeSet`` override
    ``__eq__`` and ``__hash__`` with direct field comparisons, as the memo
    caches look them up most: one filter pass over the perfbench seed-1
    filter table makes about 176k lookups keyed by ``IntPoly`` and 38k by
    ``PrimeSet``, but only 3.3k by ``CoverOrder`` and 450 by ``ModPoly``,
    which keep these versions (the same answers and hash values).
    """

    __slots__ = ()
    _fields: tuple[str, ...]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # the tuple of field values: attrgetter reads them in C, several times
        # faster than a getattr loop; for a single name it returns the value
        get = attrgetter(*cls._fields)
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda obj: (get(obj),))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
