"""Permutations on {0, ..., n-1} as numpy image arrays.

Composition is left-to-right: ``compose(a, b)`` applies ``a`` first, so
``compose(a, b)[x] == b[a[x]]``.  All group code in this package follows
that convention, including matrix-backed groups (where "a then b" is the
matrix product b @ a on column vectors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DTYPE = np.uint16
# the identity of every degree that DTYPE images can have is a prefix of this
_IDENTITY = np.arange(1 << 16, dtype=DTYPE)


class ConfigurationError(ValueError):
    """Raised when inputs are structurally inconsistent (e.g. degree mismatch)."""


class ResourceError(RuntimeError):
    """Raised when a computation exceeds its configured budget."""

    def __init__(self, message, partial=None, stats=None):
        super().__init__(message)
        self.partial = partial
        self.stats = stats or {}


def as_images(p) -> np.ndarray:
    """Coerce a permutation-like object to a validated image array."""
    if isinstance(p, Permutation):
        return p.images
    arr = np.asarray(p, dtype=DTYPE)
    check_images(arr)
    return arr


def check_images(images: np.ndarray) -> None:
    n = images.shape[0]
    seen = np.zeros(n, dtype=bool)
    seen[images] = True
    if not seen.all():
        raise ConfigurationError("image array is not a bijection")


def identity_images(degree: int) -> np.ndarray:
    return np.arange(degree, dtype=DTYPE)


def compose(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a then b: x -> b[a[x]].

    `take` gathers with the uint16 index as it is; `b[a]` would first
    convert the index array.
    """
    if a.shape[0] != b.shape[0]:
        raise ConfigurationError("degree mismatch in composition")
    return b.take(a)


def inverse(a: np.ndarray) -> np.ndarray:
    inv = np.empty_like(a)
    inv[a] = np.arange(a.shape[0], dtype=a.dtype)
    return inv


def is_identity(a: np.ndarray) -> bool:
    return bool((a == _IDENTITY[:a.shape[0]]).all())


def perm_order(a: np.ndarray) -> int:
    """Order via cycle lengths (lcm)."""
    images = a.tolist()
    seen = [False] * len(images)
    out = 1
    for i in range(len(images)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        out = _lcm(out, length)
    return out


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a // gcd(a, b) * b


def cycles_of(a: np.ndarray) -> list:
    """Nontrivial cycles, each rotated to start at its minimum."""
    images = a.tolist()
    seen = [False] * len(images)
    out = []
    for i in range(len(images)):
        if seen[i] or images[i] == i:
            seen[i] = True
            continue
        cyc = [i]
        seen[i] = True
        j = images[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = images[j]
        out.append(tuple(cyc))
    return out


def perm_from_cycles(degree: int, cycles) -> np.ndarray:
    images = identity_images(degree)
    for cyc in cycles:
        for x, y in zip(cyc, cyc[1:]):
            images[x] = y
        images[cyc[-1]] = cyc[0]
    check_images(images)
    return images


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., degree-1}, wrapping an image array."""

    images: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "images", np.asarray(self.images, dtype=DTYPE))
        check_images(self.images)

    @property
    def degree(self) -> int:
        return self.images.shape[0]

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(identity_images(degree))

    @classmethod
    def from_cycles(cls, degree: int, *cycles) -> "Permutation":
        return cls(perm_from_cycles(degree, cycles))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return Permutation(compose(self.images, other.images))

    def __invert__(self) -> "Permutation":
        return Permutation(inverse(self.images))

    def __call__(self, point: int) -> int:
        return int(self.images[point])

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and np.array_equal(self.images, other.images)

    def __hash__(self) -> int:
        return hash(self.images.tobytes())

    def is_identity(self) -> bool:
        return is_identity(self.images)

    def order(self) -> int:
        return perm_order(self.images)

    def __repr__(self) -> str:
        cyc = cycles_of(self.images)
        if not cyc:
            return "Permutation(id, degree=%d)" % self.degree
        return "Permutation(%s)" % "".join(str(c) for c in cyc)


def identity_perm(degree: int) -> Permutation:
    return Permutation.identity(degree)
