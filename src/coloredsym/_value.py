"""Bases of the package's value classes.

A value class's ``__init__`` stores its fields as instance attributes and
then calls ``self.__post_init__()``, which checks them (``SkewShape`` also
stores its normalized rows there).  The fields are the parameters of the
class's own ``__init__``, in order: ``__init_subclass__`` reads them from
its code object.  Equality compares the field tuples of two objects of one
class, a frozen value hashes its field tuple, and ``repr`` shows the fields
as ``Name(field=value, ...)``.  The tuple is read attribute by attribute,
never through ``__dict__``: reading ``__dict__`` turns an instance's compact
attribute storage into a dict, after which every attribute read and hash of
it is slower.
"""


#: Stores a field of a frozen value, past its ``__setattr__``.
set_field = object.__setattr__


class Value:
    """Value with equality by fields and a field repr; unhashable unless a
    subclass defines ``__hash__``."""

    __hash__ = None

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        init = vars(cls).get("__init__")
        if init is not None:
            code = init.__code__
            cls._fields = code.co_varnames[1 : code.co_argcount]

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._field_values() == other._field_values()
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._field_values())
        )
        return f"{self.__class__.__qualname__}({fields})"


class FrozenValue(Value):
    """Value whose fields can be neither assigned nor deleted once built;
    constructors store them with ``set_field``.  Hashes its field tuple."""

    def __hash__(self) -> int:
        return hash(self._field_values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
