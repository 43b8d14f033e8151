"""Bases of the package's value classes.

A value class's ``__init__`` stores its fields as instance attributes, in
field order, and then calls ``self.__post_init__()``, which checks them
(``SkewShape`` also stores its normalized rows there).  ``repr`` shows the
fields as ``Name(field=value, ...)``.  The base equality compares the
instance dicts of two objects of one class.  A hashable class writes its
own ``__eq__`` and ``__hash__`` over its field tuple instead: reading
``__dict__`` turns an instance's compact attribute storage into a dict,
after which every attribute read and hash of it is slower.
"""


#: Stores a field of a frozen value, past its ``__setattr__``.
set_field = object.__setattr__


class Value:
    """Value with equality by fields and a field repr; unhashable unless a
    subclass defines ``__hash__``."""

    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"


class FrozenValue(Value):
    """Value whose fields can be neither assigned nor deleted once built;
    constructors store them with ``set_field``."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
