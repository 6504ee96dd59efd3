"""Immutable value classes without `dataclasses`.

`Frozen` gives a subclass what `@dataclass(frozen=True)` gives: equality
(same class only) and a hash over the fields named in `_compare` (all of
`_fields` by default), a repr over `_fields`, pickling through the
constructor, and an AttributeError on assignment or deletion.  Each
subclass names its constructor's arguments in `_fields`, and its
`__init__` stores their checked values with `_store`.  The decorator takes about 0.5 ms per class
at import, and `dataclasses` pulls in `inspect`, which an estimate
never needs.
"""

from operator import attrgetter


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
