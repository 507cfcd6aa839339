"""Indexed geometric domains (singular points, lines, solids) and induced actions.

Each domain enumerates its objects deterministically (sorted by packed
vector codes), assigns dense 0-based indices, and can convert an isometry
matrix into the induced permutation of those indices.  The permutation
engine never sees geometry, only indices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cayley import span_search
from .perms import DTYPE
from .quadforms import (
    DIM,
    GF2_SPACE,
    GF3_SPACE,
    PreconditionError,
    QuadraticSpace,
)

_POW2 = (1 << np.arange(DIM)).astype(np.int64)
_POW3 = (3 ** np.arange(DIM)).astype(np.int64)

# all 256 GF(2) vectors as rows, indexed by code
_BITS = ((np.arange(256)[:, None] >> np.arange(DIM)[None, :]) & 1).astype(np.uint8)


def gf2_code_map(mat) -> np.ndarray:
    """code -> code table for one GF(2) matrix acting on column vectors."""
    imgs = (_BITS @ (np.asarray(mat, dtype=np.int64).T % 2)) % 2
    return (imgs @ _POW2).astype(np.int64)


def span_codes_gf2(basis_codes) -> frozenset:
    """All nonzero codes in the GF(2) span of the given codes."""
    out = {0}
    for b in basis_codes:
        out |= {x ^ int(b) for x in out}
    out.discard(0)
    return frozenset(out)


class IndexedDomain:
    """Base: an ordered list of geometric objects with index lookup."""

    kind = ""

    def __len__(self):
        return self.size

    def perm_of_matrix(self, mat) -> np.ndarray:
        raise NotImplementedError


class Gf2PointsDomain(IndexedDomain):
    kind = "points"

    def __init__(self):
        self.space = GF2_SPACE
        codes = np.sort(GF2_SPACE.singular_codes())
        self.codes = codes.astype(np.int64)
        self.size = len(codes)
        self.index_of_code = np.full(256, -1, dtype=np.int64)
        self.index_of_code[self.codes] = np.arange(self.size)

    def perm_of_matrix(self, mat) -> np.ndarray:
        cmap = gf2_code_map(mat)
        imgs = self.index_of_code[cmap[self.codes]]
        if (imgs < 0).any():
            bad = self.codes[int(np.nonzero(imgs < 0)[0][0])]
            raise PreconditionError("matrix does not preserve the singular points; "
                                    "witness code %d" % bad)
        return imgs.astype(DTYPE)


class Gf2SubspaceDomain(IndexedDomain):
    """Totally singular subspaces of a fixed dimension, keyed by member codes."""

    def __init__(self, kind, keys):
        self.space = GF2_SPACE
        self.kind = kind
        self.keys = sorted(keys)  # each key: sorted tuple of nonzero member codes
        self.size = len(self.keys)
        self.index = {k: i for i, k in enumerate(self.keys)}

    def perm_of_matrix(self, mat) -> np.ndarray:
        cmap = gf2_code_map(mat)
        out = np.empty(self.size, dtype=DTYPE)
        for i, key in enumerate(self.keys):
            img = tuple(sorted(int(cmap[c]) for c in key))
            j = self.index.get(img)
            if j is None:
                raise PreconditionError("matrix does not preserve the %s domain; "
                                        "witness object %r" % (self.kind, key))
            out[i] = j
        return out


class Gf3ProjectivePointsDomain(IndexedDomain):
    """Singular projective points of the GF(3) space (1120 of them)."""

    kind = "points"

    def __init__(self):
        self.space = GF3_SPACE
        reps = []
        for code in range(3 ** DIM):
            v = GF3_SPACE.vector(code)
            nz = np.nonzero(v)[0]
            if len(nz) == 0 or v[nz[0]] != 1:
                continue  # not the normalized representative
            if GF3_SPACE.eval_q(v) == 0:
                reps.append(v)
        self.vectors = np.array(reps, dtype=np.int64)
        codes = self.vectors @ _POW3
        order = np.argsort(codes)
        self.vectors = self.vectors[order]
        self.codes = codes[order]
        self.size = len(self.codes)
        self.index_of_code = np.full(3 ** DIM, -1, dtype=np.int64)
        self.index_of_code[self.codes] = np.arange(self.size)

    @staticmethod
    def normalize_rows(rows) -> np.ndarray:
        """Each row scaled to leading coefficient 1; zero rows unchanged."""
        rows = rows % 3
        lead = rows[np.arange(len(rows)), np.argmax(rows != 0, axis=1)]
        return np.where(lead[:, None] == 2, (rows * 2) % 3, rows)

    def perm_of_matrix(self, mat) -> np.ndarray:
        mat = np.asarray(mat, dtype=np.int64) % 3
        imgs = (self.vectors @ mat.T) % 3
        imgs = self.normalize_rows(imgs)
        idx = self.index_of_code[imgs @ _POW3]
        if (idx < 0).any():
            bad = int(np.nonzero(idx < 0)[0][0])
            raise PreconditionError("matrix does not preserve the projective singular "
                                    "points; witness index %d" % bad)
        return idx.astype(DTYPE)


def enumerate_ts_subspaces(dim: int):
    """Totally singular GF(2) subspaces of dimension `dim`, each as the sorted
    tuple of its nonzero codes, in sorted order.

    The nonzero vectors of a totally singular subspace are pairwise
    orthogonal singular vectors.  Conversely, if a and b are singular and
    orthogonal, Q(a + b) = Q(a) + Q(b) + B(a, b) = 0, so their span is
    totally singular.  The subspaces are therefore exactly the spans of
    2^dim - 1 vertices in the orthogonality graph of the 135 singular
    vectors, with XOR as the product: one `span_search`.  For singular a
    and b, B(a, b) = Q(a + b), which gives the adjacency.
    """
    codes = GF2_SPACE.singular_codes()  # ascending
    local = np.full(256, -1)
    local[codes] = np.arange(len(codes))
    xor = codes[:, None] ^ codes[None, :]
    rows, _ = span_search(GF2_SPACE.q_table[xor] == 0, local[xor], dim)
    return sorted(tuple(sorted(codes[row].tolist())) for row in rows)


def split_solid_families(solids):
    """Partition solids by intersection-dimension parity with a reference solid."""
    ref = set(solids[0])
    fam1, fam2 = [], []
    for key in solids:
        inter = len(ref & set(key))  # 2^d - 1 common nonzero vectors
        d = {0: 0, 1: 1, 3: 2, 7: 3, 15: 4}[inter]
        (fam1 if d % 2 == 0 else fam2).append(key)
    return fam1, fam2


_CACHE = {}


def singular_objects(space: QuadraticSpace, kind: str) -> IndexedDomain:
    """Deterministic indexed enumeration of one kind of singular object."""
    key = (space.name, kind)
    if key in _CACHE:
        return _CACHE[key]
    if space.field_order == 2:
        if kind == "points":
            dom = Gf2PointsDomain()
        elif kind == "lines":
            dom = Gf2SubspaceDomain("lines", enumerate_ts_subspaces(2))
        elif kind in ("solids-family-1", "solids-family-2"):
            fam1, fam2 = split_solid_families(enumerate_ts_subspaces(4))
            _CACHE[(space.name, "solids-family-1")] = Gf2SubspaceDomain(
                "solids-family-1", fam1)
            _CACHE[(space.name, "solids-family-2")] = Gf2SubspaceDomain(
                "solids-family-2", fam2)
            return _CACHE[key]
        else:
            raise PreconditionError("unsupported GF(2) domain kind %r" % kind)
    elif space.field_order == 3:
        if kind != "points":
            raise PreconditionError("only projective points are enumerated over GF(3)")
        dom = Gf3ProjectivePointsDomain()
    else:
        raise PreconditionError("unsupported space")
    _CACHE[key] = dom
    return dom


class ConcatenatedDomain(IndexedDomain):
    """Disjoint union of domains with offset bookkeeping."""

    kind = "concat"

    def __init__(self, parts):
        self.parts = list(parts)
        self.offsets = []
        total = 0
        for p in self.parts:
            self.offsets.append(total)
            total += p.size
        self.size = total

    def perm_of_matrix(self, mat) -> np.ndarray:
        blocks = []
        for p, off in zip(self.parts, self.offsets):
            blocks.append(p.perm_of_matrix(mat).astype(np.int64) + off)
        return np.concatenate(blocks).astype(DTYPE)


def induced_action(group_gens, domain: IndexedDomain):
    """Permutations induced by matrix generators on an indexed domain."""
    return [domain.perm_of_matrix(g) for g in group_gens]


@dataclass
class SingularFlag:
    """An incident chain of totally singular subspaces, oriflamme style.

    ``subspaces`` maps kinds to member-code keys: a point code, a line
    triple, and one solid 15-tuple from each family; the two solids must
    meet in dimension 3 and both contain the line.
    """

    point: int
    line: tuple
    solid1: tuple
    solid2: tuple

    def validate(self):
        if GF2_SPACE.eval_q(self.point) != 0:
            raise PreconditionError("flag point is not singular")
        line = set(self.line)
        s1, s2 = set(self.solid1), set(self.solid2)
        if self.point not in line or not line <= s1 or not line <= s2:
            raise PreconditionError("flag members are not incident")
        if len(s1 & s2) != 7:  # 2^3 - 1 shared nonzero vectors
            raise PreconditionError("solids do not meet in dimension 3")
        for key in (line, s1, s2):
            for c in key:
                if GF2_SPACE.eval_q(c) != 0:
                    raise PreconditionError("flag subspace is not totally singular")
        return True
