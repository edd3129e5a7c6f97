"""Permutations of {0, ..., n-1} in image-array form.

``Perm`` is immutable.  Composition follows the functional convention:
``(a * b)(s) == a(b(s))``, i.e. ``b`` acts first.
"""

from __future__ import annotations

import json


class Perm:
    """A bijection of {0, ..., degree-1} stored as a tuple of images."""

    __slots__ = ("images",)

    def __init__(self, images, validate=True):
        images = tuple(images)
        if validate:
            n = len(images)
            seen = [False] * n
            for i in images:
                if type(i) is not int or not 0 <= i < n or seen[i]:  # `True` is no image
                    raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
                seen[i] = True
        object.__setattr__(self, "images", images)

    @classmethod
    def identity(cls, degree):
        return cls(range(degree), validate=False)

    @property
    def degree(self):
        return len(self.images)

    def __call__(self, s):
        return self.images[s]

    def __mul__(self, other):
        """Compose: (self * other)(s) = self(other(s))."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        a = self.images
        return Perm((a[i] for i in other.images), validate=False)

    def inverse(self):
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm(inv, validate=False)

    def is_identity(self):
        return all(i == j for i, j in enumerate(self.images))

    def support(self):
        """The points moved by this permutation, as a sorted tuple."""
        return tuple(s for s, t in enumerate(self.images) if s != t)

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"Perm({list(self.images)})"

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        if not isinstance(data, list):
            raise ValueError("expected a JSON array of images")
        return cls(data)
