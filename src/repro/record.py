"""The one record base of the hot layers, stdlib only.

It lives apart from :mod:`repro.types` because that module imports
``dataclasses`` (which pulls in ``inspect`` and ``ast``), and the
engine, the machine and PAMI build these records without it.
"""


class SlotRecord:
    """Base of the records built once or more per operation (simulator
    commands, wire timings, op handles): the subclass declares
    ``__slots__`` and writes its own ``__init__`` — a frozen dataclass
    pays one ``object.__setattr__`` call per field per instance — and
    inherits value equality, hashing and ``repr`` over its slots.
    Immutable by convention: nothing assigns to a field after ``__init__``.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"
