"""The base of the package's small immutable values: the result records and
the tests' polynomial oracle.

A record lists its fields in ``__slots__``: keyword or positional
construction, a ``Name(field=value, ...)`` repr, equality by type and
fields, a hash of the fields, and ``AttributeError`` on assignment and
deletion.  The standard library's frozen data classes would give the same,
but ``import dataclasses``, with ``inspect`` behind it, takes about 9 ms
under ``python -X importtime`` (Python 3.11.7, 2 vCPUs), more than the 7 ms
of ``_primes``, ``padic`` and ``formulas`` together.  Records load in the
``poly``, ``verify``, ``witness``, ``bench``, brute ``seq`` and
``seq --seq Dclausen`` runs; a ``seq`` window by formula near 10^4 loads
none.
"""

from __future__ import annotations


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if kwargs or len(args) != len(names):
            values = dict(zip(names, args))
            given = values.keys() | kwargs
            if len(args) > len(names) or values.keys() & kwargs or given != set(names):
                fields = ", ".join(names)
                raise TypeError(f"{type(self).__name__} takes exactly the fields {fields}")
            values.update(kwargs)
            args = [values[name] for name in names]
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({body})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen record")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of a frozen record")

    def __reduce__(self):
        # Rebuild through __init__: the default slot-state restore would
        # assign each field and so hit the frozen __setattr__.
        return type(self), self._fields()
