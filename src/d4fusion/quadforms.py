"""Dimension-8 quadratic spaces over GF(2) and GF(3) and their isometries.

Two fixed spaces are shipped:

* GF(2), plus type: Q(x) = x1 x2 + x3 x4 + x5 x6 + x7 x8 on hyperbolic
  coordinate pairs (135 nonzero singular vectors).
* GF(3): Q(x) = x1^2 + ... + x8^2 (1120 singular projective points).

GF(2) vectors are packed as 8-bit codes (bit i = coordinate i); GF(3)
vectors are residue arrays with base-3 codes.  Matrices act on column
vectors; "apply M then N" is the product N @ M.

The GF(2) nullspace and the solver for quadratic forms on F_2^6 invariant
under a set of vector permutations also live here, for the structure
battery and the fusion fingerprints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .perms import ConfigurationError

DIM = 8


class PreconditionError(ValueError):
    """An argument violates a documented precondition."""


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class QuadraticSpace:
    field_order: int
    dim: int = DIM
    name: str = ""

    def eval_q(self, v):
        raise NotImplementedError

    def polar(self, u, v):
        """B(u, v) = Q(u+v) - Q(u) - Q(v)."""
        raise NotImplementedError


class Gf2PlusSpace(QuadraticSpace):
    """The plus-type GF(2)^8 space on codes 0..255."""

    def __init__(self):
        super().__init__(field_order=2, name="gf2-plus")
        q = np.zeros(256, dtype=np.uint8)
        for c in range(256):
            val = 0
            for k in range(4):
                val ^= (c >> (2 * k)) & (c >> (2 * k + 1)) & 1
            q[c] = val
        object.__setattr__(self, "q_table", q)

    def eval_q(self, v):
        return int(self.q_table[int(v)])

    def polar(self, u, v):
        u, v = int(u), int(v)
        return int(self.q_table[u ^ v] ^ self.q_table[u] ^ self.q_table[v])

    def vector(self, code):
        return np.array([(int(code) >> i) & 1 for i in range(DIM)], dtype=np.uint8)

    def code(self, vec):
        return int(np.dot(np.asarray(vec, dtype=np.int64) & 1, 1 << np.arange(DIM)))

    def singular_codes(self):
        codes = np.nonzero(self.q_table == 0)[0]
        return codes[codes != 0]

    def nonsingular_codes(self):
        return np.nonzero(self.q_table == 1)[0]


class Gf3SumSquaresSpace(QuadraticSpace):
    """GF(3)^8 with the sum-of-squares form."""

    def __init__(self):
        super().__init__(field_order=3, name="gf3-sum-of-squares")

    def eval_q(self, v):
        v = np.asarray(v, dtype=np.int64) % 3
        return int((v * v).sum() % 3)

    def polar(self, u, v):
        u = np.asarray(u, dtype=np.int64) % 3
        v = np.asarray(v, dtype=np.int64) % 3
        return int((2 * (u * v).sum()) % 3)

    def code(self, vec):
        vec = np.asarray(vec, dtype=np.int64) % 3
        return int(np.dot(vec, 3 ** np.arange(DIM)))

    def vector(self, code):
        out = np.zeros(DIM, dtype=np.uint8)
        c = int(code)
        for i in range(DIM):
            out[i] = c % 3
            c //= 3
        return out


GF2_SPACE = Gf2PlusSpace()
GF3_SPACE = Gf3SumSquaresSpace()


# ---------------------------------------------------------------------------
# GF(2) linear algebra on packed rows


def gf2_rank(mat) -> int:
    rows = [int(np.dot(np.asarray(r, dtype=np.int64) & 1, 1 << np.arange(len(r))))
            for r in np.asarray(mat) % 2]
    rank = 0
    for bit in range(DIM):
        pivot = None
        for i, r in enumerate(rows):
            if (r >> bit) & 1:
                pivot = i
                break
        if pivot is None:
            continue
        pr = rows.pop(pivot)
        rows = [r ^ pr if (r >> bit) & 1 else r for r in rows]
        rank += 1
    return rank


def gf2_nullspace(rows, ncols):
    """Nullspace basis of a GF(2) system whose rows are int bitmasks."""
    pivots = {}  # pivot column -> fully reduced row
    for row in rows:
        r = row
        for c, pr in pivots.items():
            if (r >> c) & 1:
                r ^= pr
        if r:
            c = r.bit_length() - 1
            for c2 in list(pivots):
                if (pivots[c2] >> c) & 1:
                    pivots[c2] ^= r
            pivots[c] = r
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = 1 << free
        for c, pr in pivots.items():
            if (pr >> free) & 1:
                v |= 1 << c
        if any(bin(pr & v).count("1") % 2 for pr in pivots.values()):
            raise ConfigurationError("nullspace back-substitution failed")
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# invariant quadratic forms on F_2^6 (vectors packed as 6-bit ints)

_PAIRS6 = [(i, j) for i in range(6) for j in range(i + 1, 6)]


def monomials(v: int) -> int:
    """The 21 monomials of v as a bitmask: x_i at bit i, then x_i x_j
    (i < j, lexicographic) at bits 6..20."""
    bits = v & 0x3F
    for pos, (i, j) in enumerate(_PAIRS6, start=6):
        if (v >> i) & (v >> j) & 1:
            bits |= 1 << pos
    return bits


def invariant_quadratic_forms(perms):
    """Basis of the quadratic forms invariant under each permutation of the
    64 vectors: the solutions of Q(v) = Q(g v) in the 21 coefficients."""
    mono = [monomials(v) for v in range(64)]
    rows = [mono[v] ^ mono[int(g[v])] for g in perms for v in range(64)]
    return gf2_nullspace(rows, 21)


def q(sol: int, v: int) -> int:
    """Value at v of the quadratic form with coefficient bitmask sol."""
    return bin(monomials(v) & sol).count("1") % 2


def gf3_rref(mat):
    """Reduced row echelon form mod 3; returns (rref, pivot_columns)."""
    m = (np.asarray(mat, dtype=np.int64) % 3).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if m[i, c] % 3:
                pivot = i
                break
        if pivot is None:
            continue
        m[[r, pivot]] = m[[pivot, r]]
        m[r] = (m[r] * (m[r, c] % 3)) % 3  # 1 and 2 are self-inverse mod 3
        for i in range(rows):
            if i != r and m[i, c]:
                m[i] = (m[i] - m[i, c] * m[r]) % 3
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def gf3_nullspace(mat) -> np.ndarray:
    """Basis of the right nullspace mod 3, rows of the returned array."""
    mat = np.asarray(mat, dtype=np.int64) % 3
    rref, pivots = gf3_rref(mat)
    cols = mat.shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-rref[r, f]) % 3
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), cols)


def gf3_inverse(mat) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.int64) % 3
    n = mat.shape[0]
    aug = np.concatenate([mat, np.eye(n, dtype=np.int64)], axis=1)
    rref, pivots = gf3_rref(aug)
    if pivots[:n] != list(range(n)):
        raise PreconditionError("matrix is singular mod 3")
    return rref[:, n:] % 3


def gf3_det(mat) -> int:
    m = (np.asarray(mat, dtype=np.int64) % 3).copy()
    n = m.shape[0]
    det = 1
    for col in range(n):
        pivot = None
        for row in range(col, n):
            if m[row, col] % 3:
                pivot = row
                break
        if pivot is None:
            return 0
        if pivot != col:
            m[[col, pivot]] = m[[pivot, col]]
            det = (-det) % 3
        det = (det * m[col, col]) % 3
        inv = m[col, col] % 3  # 1 or 2; both are their own inverse mod 3
        m[col] = (m[col] * inv) % 3
        for row in range(col + 1, n):
            m[row] = (m[row] - m[row, col] * m[col]) % 3
    return det % 3


# ---------------------------------------------------------------------------
# isometries


@dataclass
class IsometryMatrix:
    """An 8x8 matrix preserving the ambient quadratic form."""

    space: QuadraticSpace
    entries: np.ndarray
    _dickson: int | None = field(default=None, repr=False)

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=np.uint8) % self.space.field_order
        if self.entries.shape != (DIM, DIM):
            raise ConfigurationError("isometry matrices are 8x8")
        check_isometry(self.space, self.entries)

    @property
    def dickson_bit(self) -> int:
        if self._dickson is None:
            self._dickson = dickson(self.space, self.entries)
        return self._dickson


def check_isometry(space, mat) -> None:
    """Exact check: Q on the 8 basis vectors and B on the 28 basis pairs.

    In every characteristic Q(sum a_i e_i) = sum a_i^2 Q(e_i) +
    sum_{i<j} a_i a_j B(e_i, e_j), and the same holds for Q(M .) with the
    images M e_i, so these 36 values decide Q(M v) = Q(v) for every v.
    """
    p = space.field_order
    mat = np.asarray(mat, dtype=np.int64) % p
    basis, images = list(np.eye(DIM, dtype=np.int64)), list(mat.T)
    if p == 2:
        basis = [GF2_SPACE.code(v) for v in basis]
        images = [GF2_SPACE.code(v) for v in images]
    for i in range(DIM):
        if space.eval_q(images[i]) != space.eval_q(basis[i]):
            raise PreconditionError("matrix does not preserve the form on e_%d" % i)
        for j in range(i + 1, DIM):
            if space.polar(images[i], images[j]) != space.polar(basis[i], basis[j]):
                raise PreconditionError("matrix does not preserve the polar form on "
                                        "(e_%d, e_%d)" % (i, j))


def is_isometry_exhaustive(space, mat) -> bool:
    """Full loop over every vector of the space: the tests' reference for
    `check_isometry`."""
    p = space.field_order
    mat = np.asarray(mat, dtype=np.int64) % p
    if p == 2:
        for c in range(256):
            v = GF2_SPACE.vector(c)
            if space.eval_q(GF2_SPACE.code((mat @ v) % 2)) != space.eval_q(c):
                return False
        return True
    for c in range(3 ** DIM):
        v = GF3_SPACE.vector(c)
        if space.eval_q((mat @ v.astype(np.int64)) % 3) != space.eval_q(v):
            return False
    return True


def transvection(space: QuadraticSpace, v) -> IsometryMatrix:
    """x -> x + B(x, v) v for a nonsingular v, GF(2) only."""
    if space.field_order != 2:
        raise PreconditionError("transvections live in the GF(2) space")
    if isinstance(v, (int, np.integer)):
        v = GF2_SPACE.vector(v)
    v = np.asarray(v, dtype=np.uint8) % 2
    if space.eval_q(GF2_SPACE.code(v)) == 0:
        raise PreconditionError("transvection vector must be nonsingular")
    bv = np.array([space.polar(GF2_SPACE.code(np.eye(DIM, dtype=np.uint8)[i]),
                               GF2_SPACE.code(v)) for i in range(DIM)], dtype=np.uint8)
    mat = (np.eye(DIM, dtype=np.uint8) + np.outer(v, bv)) % 2
    return IsometryMatrix(space, mat)


def dickson(space: QuadraticSpace, mat) -> int:
    """rank(M + I) mod 2; the homomorphism cutting Omega out of O."""
    if space.field_order != 2:
        raise PreconditionError("the Dickson invariant is the GF(2) discriminator")
    mat = np.asarray(mat, dtype=np.uint8) % 2
    check_isometry(space, mat)
    return gf2_rank((mat + np.eye(DIM, dtype=np.uint8)) % 2) % 2


def reflection(space: QuadraticSpace, v) -> IsometryMatrix:
    """x -> x - B(x, v)/Q(v) v for a nonsingular v, GF(3) only."""
    if space.field_order != 3:
        raise PreconditionError("reflections live in the GF(3) space")
    v = np.asarray(v, dtype=np.int64) % 3
    qv = space.eval_q(v)
    if qv == 0:
        raise PreconditionError("reflection vector must be nonsingular")
    inv_qv = qv  # 1 and 2 are self-inverse mod 3
    cols = []
    for i in range(DIM):
        e = np.zeros(DIM, dtype=np.int64)
        e[i] = 1
        cols.append((e - space.polar(e, v) * inv_qv * v) % 3)
    mat = np.stack(cols, axis=1) % 3
    return IsometryMatrix(space, mat)


def reflection_decomposition(space: QuadraticSpace, mat):
    """Greedy decomposition of a GF(3) isometry into reflections.

    Works basis vector by basis vector; when the difference vector is
    singular, two reflections move the image through the antipode.
    Returns the reflection vectors in application order.
    """
    if space.field_order != 3:
        raise PreconditionError("reflection decompositions live in the GF(3) space")
    work = np.asarray(mat, dtype=np.int64) % 3
    check_isometry(space, work)
    vectors = []
    for i in range(DIM):
        e = np.zeros(DIM, dtype=np.int64)
        e[i] = 1
        img = work[:, i] % 3
        if np.array_equal(img, e):
            continue
        w = (img - e) % 3
        if space.eval_q(w) != 0:
            r = reflection(space, w)
            work = (r.entries.astype(np.int64) @ work) % 3
            vectors.append(w)
        else:
            z = (img + e) % 3
            if space.eval_q(z) == 0:
                raise PreconditionError("decomposition failed; input is not an isometry")
            r1 = reflection(space, z)
            work = (r1.entries.astype(np.int64) @ work) % 3
            r2 = reflection(space, e)
            work = (r2.entries.astype(np.int64) @ work) % 3
            vectors.extend([z, e])
        if not np.array_equal(work[:, i] % 3, e):
            raise PreconditionError("decomposition failed to fix a basis vector")
    if not np.array_equal(work % 3, np.eye(DIM, dtype=np.int64)):
        raise PreconditionError("decomposition did not terminate at the identity")
    return vectors


def spinor_norm(space: QuadraticSpace, mat) -> str:
    """Square class of the product of Q-values over a reflection decomposition."""
    vectors = reflection_decomposition(space, mat)
    nonsquares = sum(1 for v in vectors if space.eval_q(v) == 2)
    return "square" if nonsquares % 2 == 0 else "nonsquare"


def in_omega_gf3(space: QuadraticSpace, mat) -> bool:
    """det 1 and square spinor norm.  Kept as the tests' membership
    reference, and `benchmarks/tracing.py` counts it."""
    return gf3_det(mat) == 1 and spinor_norm(space, mat) == "square"
