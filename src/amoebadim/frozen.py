"""Immutable value classes without `dataclasses`, and `parse_rational`:
both here because every command loads this module, which needs no other.

`Frozen` gives a subclass what `@dataclass(frozen=True)` gives: equality
(same class only) and a hash over the fields named in `_compare` (all of
`_fields` by default), a repr over `_fields`, pickling through the
constructor, and an AttributeError on assignment or deletion.  Each
subclass names its constructor's arguments in `_fields`, and its
`__init__` stores their checked values with `_store`.  The decorator takes about 0.5 ms per class
at import, and `dataclasses` pulls in `inspect`, which an estimate
never needs.
"""

import sys
from operator import attrgetter


def parse_rational(text):
    """Parse "p", "p/q" or a decimal such as "1.5", as `Fraction` reads
    them; ints and Fractions pass, booleans do not.  Integers come back
    as int, so `fractions` loads only for a "p/q" or decimal string."""
    if isinstance(text, int) and not isinstance(text, bool):
        return text
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(text, fractions.Fraction):
        return text
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    stripped = text.strip()
    try:
        # int() reads exactly the integer strings that Fraction reads
        # (digit-group underscores too, since Python 3.11)
        return int(stripped)
    except ValueError:
        pass
    from fractions import Fraction

    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


class Frozen:
    __slots__ = ()
    _fields = ()
    _compare = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._args = attrgetter(*cls._fields)
        cls._key = attrgetter(*(cls._compare or cls._fields))

    def _store(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value
                          in zip(self._fields, self._args(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __reduce__(self):
        return self.__class__, self._args(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
