"""One JSON rule for every report.

A report dataclass that mixes in `JsonFields` serialises as its fields in
declaration order, each converted by `json_value`.  Reports whose JSON
reshapes their data keep their own `to_json_dict` and may call `json_value`
for nested values.
"""

from __future__ import annotations

from dataclasses import fields
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


class JsonFields:
    """Mixin for report dataclasses: every field, in declaration order."""

    def to_json_dict(self):
        return {f.name: json_value(getattr(self, f.name)) for f in fields(self)}
