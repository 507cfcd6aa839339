"""Permutations on {0, ..., n-1} as numpy image arrays.

Composition is left-to-right: ``compose(a, b)`` applies ``a`` first, so
``compose(a, b)[x] == b[a[x]]``.  All group code in this package follows
that convention, including matrix-backed groups (where "a then b" is the
matrix product b @ a on column vectors).
"""

from __future__ import annotations

from math import lcm

import numpy as np

DTYPE = np.uint16
# the identity of every degree that DTYPE images can have is a prefix of this
_IDENTITY = np.arange(1 << 16, dtype=DTYPE)


class ConfigurationError(ValueError):
    """Raised when inputs are structurally inconsistent (e.g. degree mismatch)."""


class ResourceError(RuntimeError):
    """Raised when a computation exceeds its configured budget."""

    def __init__(self, message, stats=None):
        super().__init__(message)
        self.stats = stats or {}


def as_images(p) -> np.ndarray:
    """Coerce a sequence of images to a validated image array."""
    try:
        arr = np.asarray(p, dtype=DTYPE)
    except OverflowError as exc:  # a negative image, or one past DTYPE
        raise ConfigurationError("image outside the range of %s" % DTYPE.__name__) from exc
    check_images(arr)
    return arr


def check_images(images: np.ndarray) -> None:
    """Raise unless `images` is a one-dimensional bijection of 0..n-1, in O(n)."""
    if images.ndim != 1:
        raise ConfigurationError("an image array is one-dimensional, not of shape %r"
                                 % (images.shape,))
    n = images.shape[0]
    if n and int(images.max()) >= n:
        raise ConfigurationError("image %d outside 0..%d" % (int(images.max()), n - 1))
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
        out = lcm(out, length)
    return out


def perm_from_cycles(degree: int, cycles) -> np.ndarray:
    """The image array of a product of disjoint cycles, each a tuple of points."""
    images = identity_images(degree)
    for cyc in cycles:
        if not all(0 <= x < degree for x in cyc):
            raise ConfigurationError("cycle %r has a point outside 0..%d"
                                     % (tuple(cyc), degree - 1))
        for x, y in zip(cyc, cyc[1:]):
            images[x] = y
        images[cyc[-1]] = cyc[0]
    check_images(images)
    return images
