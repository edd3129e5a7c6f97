"""Frozen records and one JSON rule for every report.

`Record` is the base of the package's value classes.  A report record that
mixes in `JsonFields` serialises as its fields in declaration order, each
converted by `json_value`.  Reports whose JSON reshapes their data keep
their own `to_json_dict` and may call `json_value` for nested values.
"""

from __future__ import annotations

from fractions import Fraction

from .perms import Perm


def json_value(value):
    """The JSON form of a report value.

    JSON scalars pass through, a `Perm` becomes its image array, a tuple
    or list a list, a dict is converted value by value, a `Fraction`
    becomes the string "p/q" and a nested report its own `to_json_dict()`.
    Anything else raises `TypeError`, so this also serves as `json.dumps`'
    default.  The cheap checks come first: reports hold many scalars and
    permutations.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Perm):
        return list(value.images)
    if isinstance(value, (tuple, list)):
        return [json_value(v) for v in value]
    if isinstance(value, dict):
        return {k: json_value(v) for k, v in value.items()}
    if isinstance(value, Fraction):
        return str(value)
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    raise TypeError(f"no JSON form for {type(value).__name__}")


class Record:
    """A frozen value: its fields are the class's own annotated names.

    The annotations are read as names only (never evaluated), in
    declaration order, and a class attribute of the same name is the
    field's default.  The constructor binds positional and keyword
    arguments to the fields and then calls `__post_init__`, if the class
    has one, which may normalise a field with `object.__setattr__`.  Two
    records are equal when they have the same class and equal field
    tuples; the hash is the field tuple's.  Unlike `dataclasses`, which
    execs generated methods for every class, a subclass only records its
    field names and defaults.
    """

    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(vars(cls).get("__annotations__", ()))
        cls._defaults = {name: vars(cls)[name] for name in cls._fields if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        post_init = getattr(self, "__post_init__", None)
        if post_init is not None:
            post_init()

    def _bind(self, args, kwargs):
        """The field values in order, from arguments that are not exactly
        one positional value per field; a missing, extra or repeated
        field raises `TypeError`, as a function call would."""
        name = type(self).__name__
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for field, value in kwargs.items():
            if field not in fields:
                raise TypeError(f"{name}() got an unexpected field {field!r}")
            if field in values:
                raise TypeError(f"{name}() got multiple values for field {field!r}")
            values[field] = value
        values = {**self._defaults, **values}
        missing = [f for f in fields if f not in values]
        if missing:
            raise TypeError(f"{name}() missing fields {missing}")
        return [values[f] for f in fields]

    def _values(self):
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r}: {type(self).__name__} is frozen")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete {name!r}: {type(self).__name__} is frozen")


class JsonFields(Record):
    """Base for report records: JSON of every field, in declaration order."""

    def to_json_dict(self):
        return {f: json_value(getattr(self, f)) for f in self._fields}
