"""Immutable value types written as plain classes.

Every value type of the package (a box, a camera frame, a QA record, ...)
is a ``__slots__`` class that derives from ``Frozen`` and writes out its
``__init__``, which checks its arguments and sets each field once with
``set_field``. ``Frozen`` gives the rest, as a frozen dataclass would:
setting or deleting an attribute raises ``AttributeError``, and ``repr``,
``==``, ``hash`` and pickling go over the constructor fields that the class
lists in ``_fields``, in constructor order.

They are not ``@dataclass`` classes because the decorator builds each
class's methods as source text and runs it through ``exec`` every time the
module is imported, which no ``.pyc`` can cache: for the value types on
the CLI's import path that was about 90 compiles, some 9 ms of every
``sceneqa`` start. Written here and in their modules, the methods are
compiled once, with the module. (``qa_records.GenConfig`` stays a
dataclass: the records header is its ``dataclasses.asdict``.)
"""

# Sets a field past the guard below; only an ``__init__`` calls it.
set_field = object.__setattr__


class Frozen:
    __slots__ = ()
    _fields = ()  # the constructor's parameters, in order

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        # rebuilt through __init__, which checks the fields and derives the rest
        return type(self), self._values()
