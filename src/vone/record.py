"""Frozen records: the part of a frozen dataclass that vone uses, built
from a handful of shared closures instead of generated source.

``dataclasses.dataclass`` writes the text of ``__init__``, ``__eq__``,
``__hash__``, ``__repr__``, ``__setattr__`` and ``__delattr__`` for every
class and compiles it with ``exec``; importing it also loads ``inspect``,
``ast`` and ``dis``. A ``vone`` command is a fresh process that defines
thirty record classes before it computes anything, so that code
generation and those imports were most of a cold start. Here every
method is a closure over the class's field names, made without
``exec``, ``compile`` or ``namedtuple`` (a tuple subclass would compare
equal to a plain tuple).

What a record keeps of a ``@dataclass(frozen=True)``:

- fields are the class's annotations, after those of record bases; a
  class attribute of the same name is the field's default, and a field
  without one may not follow a field with one;
- ``__init__`` takes the fields positionally or by keyword, raises
  TypeError on a missing, repeated or unknown argument, and then calls
  ``__post_init__`` when the class has one (which may still assign with
  ``object.__setattr__``);
- with ``eq`` (the default), ``__eq__`` compares the field tuples of two
  instances of the same class and ``__hash__`` hashes that tuple; with
  ``eq=False`` both stay the identity ones of ``object``;
- assigning or deleting an attribute raises AttributeError;
- ``__repr__`` reads ``Name(field=value, ...)``;
- a method the class body defines itself is never replaced.

``dataclasses.fields``, ``asdict``, ``replace`` and ``is_dataclass`` do
not apply; the field names are in ``__record_fields__``.
"""

from __future__ import annotations

from operator import attrgetter

__all__ = ["record"]

_MISSING = object()


def record(cls=None, /, *, eq: bool = True):
    """Make cls a frozen record; use as ``@record`` or ``@record(eq=False)``."""
    if cls is None:
        return lambda c: _make(c, eq)
    return _make(cls, eq)


def _make(cls, eq: bool):
    fields = {}
    for base in reversed(cls.__mro__[1:]):
        for name in base.__dict__.get("__record_fields__", ()):
            fields[name] = getattr(base, name, _MISSING)
    for name in cls.__dict__.get("__annotations__", {}):
        fields[name] = cls.__dict__.get(name, _MISSING)
    names = tuple(fields)
    defaults = {name: value for name, value in fields.items() if value is not _MISSING}
    required = len(names) - len(defaults)
    if any(name in defaults for name in names[:required]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    tail = tuple(defaults.values())
    post_init = hasattr(cls, "__post_init__")
    n = len(names)

    def __init__(self, *args, **kwargs):
        if not kwargs and required <= len(args) <= n:
            self.__dict__.update(zip(names, args + tail[len(args) - required :]))
        else:
            self.__dict__.update(_bind(cls.__name__, names, defaults, args, kwargs))
        if post_init:
            self.__post_init__()

    # attrgetter returns a tuple only for two or more names
    if n > 1:
        _values = attrgetter(*names)
    else:
        def _values(self):
            return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return _values(self) == _values(other)
        return NotImplemented

    def __hash__(self):
        return hash(_values(self))

    def __repr__(self):
        parts = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({parts})"

    methods = {"__init__": __init__, "__repr__": __repr__}
    if eq:
        methods["__eq__"] = __eq__
    for attr, fn in methods.items():
        if attr not in cls.__dict__:
            setattr(cls, attr, fn)
    # Python sets __hash__ = None in a body that defines __eq__ alone
    if eq and cls.__dict__.get("__hash__") is None:
        cls.__hash__ = __hash__
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    cls.__record_fields__ = names
    return cls


def _bind(clsname: str, names: tuple, defaults: dict, args: tuple, kwargs: dict) -> dict:
    """Field values from a call's arguments, or TypeError as a def would raise it."""
    if len(args) > len(names):
        raise TypeError(
            f"{clsname}() takes {len(names)} positional arguments but {len(args)} were given"
        )
    values = dict(zip(names, args))
    for key in kwargs:
        if key in values:
            raise TypeError(f"{clsname}() got multiple values for argument {key!r}")
        if key not in names:
            raise TypeError(f"{clsname}() got an unexpected keyword argument {key!r}")
    values.update(kwargs)
    missing = [name for name in names if name not in values and name not in defaults]
    if missing:
        raise TypeError(f"{clsname}() missing required arguments: {', '.join(missing)}")
    return {**defaults, **values}


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r} of a frozen record")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r} of a frozen record")
