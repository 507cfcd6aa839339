"""Builders for the concrete groups: the flag model of O8+(2), the affine
64:A8 model, and the orthonormal-frame model inside POmega8+(3).

Each builder delivers a ModelBundle: the ambient permutation group with a
certified chain, the fully enumerated Sylow 2-subgroup of order 4096 as a
CayleyGroup, and an injective embedding (element index -> ambient
permutation) that is a homomorphism by construction: the table is keyed
on a verified chain's base (`CayleyGroup.from_generators`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .cayley import CayleyGroup, SubgroupBits, closure_levels, invariant_core
from .domains import (
    ConcatenatedDomain,
    SingularFlag,
    induced_action,
    singular_objects,
    span_codes_gf2,
)
from .perms import ConfigurationError, inverse, perm_from_cycles
from .quadforms import (
    DIM,
    GF2_SPACE,
    GF3_SPACE,
    PreconditionError,
    gf3_det,
    gf3_nullspace,
    spinor_norm,
    transvection,
)
from .stabchain import GroupHandle, build_stab_chain, stabilizer_of_prefix

OMEGA8P2_ORDER = 174_182_400
FRAME_ORDER = 1_290_240
SYLOW_ORDER = 4096

# Sylow-2 generators of the alternating group on 8 letters, 0-indexed:
# a fours-group pair for each tetrad, the tetrad swap, and the deep swap
# mixing the two tetrads
T_PART_CYCLES = [
    ((0, 1), (2, 3)),
    ((0, 2), (1, 3)),
    ((4, 5), (6, 7)),
    ((4, 6), (5, 7)),
    ((0, 1), (4, 5)),
    ((0, 4), (1, 5), (2, 6), (3, 7)),
]

# translation part of the distinguished extraspecial subgroup: the classes
# of v1+v2, v1+v3, v5+v6, v5+v7 and v1+v2+v3+v4
Q_TRANSLATION_SETS = [(0, 1), (0, 2), (4, 5), (4, 6), (0, 1, 2, 3)]
Q_PERM_CYCLES = T_PART_CYCLES[:4]


def _sig_keys(sigs) -> np.ndarray:
    """One opaque sortable key per signature row."""
    sigs = np.ascontiguousarray(sigs)
    return sigs.view(np.dtype((np.void, sigs.shape[1] * sigs.itemsize))).ravel()


@dataclass
class ModelBundle:
    """A Sylow-2 realization: ambient group, Cayley table, verified embedding."""

    provenance: str
    ambient: GroupHandle
    sylow: CayleyGroup
    embedding: np.ndarray           # (4096, degree) ambient images per element
    sig_cols: np.ndarray            # columns whose values identify an element
    matrices: list | None = None    # one 8x8 matrix lift per element, when meaningful
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        # the signature index: element signatures sorted by key
        keys = _sig_keys(self.embedding[:, self.sig_cols])
        self._sig_order = np.argsort(keys)
        self._sig_sorted = keys[self._sig_order]
        if (self._sig_sorted[1:] == self._sig_sorted[:-1]).any():
            raise ConfigurationError("signature columns do not separate the elements")

    @property
    def degree(self) -> int:
        return self.embedding.shape[1]

    def lookup(self, sigs, rows=None) -> np.ndarray:
        """Element indices of a batch of ambient permutations, -1 where absent.

        `sigs` holds the signature columns of each permutation, one row
        each; a signature names at most one element.  With the full `rows`
        given, a hit must also equal its element's embedding row.
        """
        keys = _sig_keys(np.asarray(sigs, dtype=self.embedding.dtype))
        # a key past the last one wraps to position 0 and fails the comparison
        pos = np.searchsorted(self._sig_sorted, keys) % len(self._sig_sorted)
        idx = np.where(self._sig_sorted[pos] == keys, self._sig_order[pos], -1)
        if rows is not None:
            hits = np.flatnonzero(idx >= 0)
            same = (self.embedding[idx[hits]] == rows[hits]).all(axis=1)
            idx[hits[~same]] = -1
        return idx

    def index_of_perm(self, arr):
        """Element index of an ambient permutation, or None when outside."""
        rows = np.asarray(arr, dtype=self.embedding.dtype)[None, :]
        idx = int(self.lookup(rows[:, self.sig_cols], rows)[0])
        return None if idx < 0 else idx

    def conjugate_indices(self, g, members, verify=True) -> np.ndarray:
        """Indices of the conjugates g^-1 E[x] g for x in `members`, -1 where
        a conjugate lies outside the Sylow.

        Without `verify` only the signature columns of the conjugates are
        computed and looked up: a true member always hits its own element,
        but a conjugate outside the Sylow may hit one too.  With it, the
        conjugates are built at full degree and every hit is compared with
        its embedding row.
        """
        g = np.asarray(g, dtype=self.embedding.dtype)
        g_inv = inverse(g)
        members = np.asarray(members, dtype=np.int64)
        if not verify:
            return self.lookup(g[self.embedding[np.ix_(members, g_inv[self.sig_cols])]])
        rows = g[self.embedding[members][:, g_inv]]
        return self.lookup(rows[:, self.sig_cols], rows)

    def subgroup_from_perms(self, perms) -> SubgroupBits:
        idxs = []
        for p in perms:
            i = self.index_of_perm(p)
            if i is None:
                raise ConfigurationError("permutation is not an element of this Sylow")
            idxs.append(i)
        return self.sylow.closure(idxs)


def distinguishing_columns(matrix, prefer=None):
    """Greedy column set making the rows of `matrix` pairwise distinct."""
    n = matrix.shape[0]
    ids = np.zeros(n, dtype=np.int64)
    ngroups = 1
    cols = []
    candidates = list(prefer or []) + [c for c in range(matrix.shape[1])
                                       if prefer is None or c not in set(prefer)]
    for c in candidates:
        if ngroups == n:
            break
        stacked = ids * np.int64(matrix.shape[1] + 1) + matrix[:, c]
        _, new_ids = np.unique(stacked, return_inverse=True)
        new_count = int(new_ids.max()) + 1
        if new_count > ngroups:
            cols.append(c)
            ids = new_ids.astype(np.int64)
            ngroups = new_count
    if ngroups != n:
        raise ConfigurationError("no column set separates the rows; action not faithful")
    return np.asarray(cols, dtype=np.int64)


def matrices_from_parents(group: CayleyGroup, gen_mats, modulus: int):
    """Representative matrix lifts for each element, via BFS decomposition."""
    mats = [None] * group.n
    mats[0] = np.eye(DIM, dtype=np.int64)
    for b in range(1, group.n):
        f, j = group.parents[b]
        mats[b] = (np.asarray(gen_mats[j], dtype=np.int64) @ mats[f]) % modulus
    return mats


def verify_embedding(bundle: ModelBundle) -> None:
    """Exhaustive homomorphism check of the embedding, at O(4096 * k).

    `CayleyGroup.check_embedding` owns the argument.  No builder runs it:
    `from_generators` proves the embedding by construction, and tier-1
    runs this check on every bundle as that argument's oracle.
    Injectivity is the signature check of `ModelBundle`.
    `benchmarks/tracing.py` times it.
    """
    bundle.sylow.check_embedding(bundle.embedding, error=ConfigurationError)


# ---------------------------------------------------------------------------
# O8+(2) flag model


def omega_transvection_pairs():
    """The five transvection-product generators of O8+(2), chain-certified.

    The pairs are the first five of a seeded deterministic stream of
    distinct nonsingular vectors.  The chain of the group they induce on
    the 135 singular points must have order OMEGA8P2_ORDER, so the recipe
    is self-checking.
    """
    ns = [int(c) for c in GF2_SPACE.nonsingular_codes()]
    rng = np.random.default_rng(2024)
    pairs = []
    while len(pairs) < 5:
        a = ns[int(rng.integers(len(ns)))]
        b = ns[int(rng.integers(len(ns)))]
        if a != b:
            pairs.append((a, b))
    mats = [pair_transvection_matrix(a, b) for a, b in pairs]
    perms = induced_action(mats, singular_objects(GF2_SPACE, "points"))
    order = build_stab_chain(GroupHandle("probe", perms)).order()
    if order != OMEGA8P2_ORDER:
        raise ConfigurationError("the transvection pairs generate order %d, not %d"
                                 % (order, OMEGA8P2_ORDER))
    return pairs


def pair_transvection_matrix(a, b):
    ta = transvection(GF2_SPACE, a)
    tb = transvection(GF2_SPACE, b)
    return (tb.astype(np.int64) @ ta) % 2


def standard_chamber():
    """The fixed flag: point e1, line <e1,e2>, and one solid per family."""
    e1, e2, e3, e4, f4 = 1, 4, 16, 64, 128
    line = tuple(sorted(span_codes_gf2([e1, e2])))
    sA = tuple(sorted(span_codes_gf2([e1, e2, e3, e4])))
    sB = tuple(sorted(span_codes_gf2([e1, e2, e3, f4])))
    flag = SingularFlag(point=e1, line=line, solid1=sA, solid2=sB)
    flag.validate()
    return flag


def concat_gf2_domain():
    pts = singular_objects(GF2_SPACE, "points")
    lines = singular_objects(GF2_SPACE, "lines")
    fam1 = singular_objects(GF2_SPACE, "solids-family-1")
    fam2 = singular_objects(GF2_SPACE, "solids-family-2")
    return ConcatenatedDomain([pts, lines, fam1, fam2])


def flag_indices(domain: ConcatenatedDomain, flag: SingularFlag):
    pts, lines, fam1, fam2 = domain.parts
    out = [int(pts.index_of_code[flag.point]),
           lines.index[flag.line] + domain.offsets[1]]
    for solid in (flag.solid1, flag.solid2):
        if solid in fam1.index:
            out.append(fam1.index[solid] + domain.offsets[2])
        elif solid in fam2.index:
            out.append(fam2.index[solid] + domain.offsets[3])
        else:
            raise ConfigurationError("flag solid missing from both families")
    return out


def build_omega8plus2() -> GroupHandle:
    """O8+(2) acting on the 1980-object concatenated domain, chain-certified.

    The chain build stops at the proved order OMEGA8P2_ORDER
    (`build_stab_chain`).  Both the 135-point action of
    `omega_transvection_pairs` and this one are images of M = <mats> under
    `induced_action`.  The singular points include the basis points, so M
    acts faithfully on them, and |G_1980| <= |M| = |G_135| = OMEGA8P2_ORDER,
    which that probe's full chain proved for the same matrices.
    """
    domain = concat_gf2_domain()
    pairs = omega_transvection_pairs()
    mats = [pair_transvection_matrix(a, b) for a, b in pairs]
    perms = induced_action(mats, domain)
    handle = GroupHandle("omega8plus2", perms)
    handle.gen_matrices = mats
    handle.geometry = domain
    base = flag_indices(domain, standard_chamber())
    build_stab_chain(handle, base_hint=base, order=OMEGA8P2_ORDER)
    handle.flag_base = base
    return handle


def matrix_from_point_perm(perm, domain: ConcatenatedDomain) -> np.ndarray:
    """Recover the 8x8 GF(2) matrix from the induced permutation.

    Basis vectors are singular for the hyperbolic form, so the matrix
    columns are literally the images of the basis points.
    """
    pts = domain.parts[0]
    cols = []
    for k in range(DIM):
        idx = int(pts.index_of_code[1 << k])
        img_code = int(pts.codes[int(perm[idx])])
        cols.append([(img_code >> i) & 1 for i in range(DIM)])
    return np.array(cols, dtype=np.int64).T


def matrices_from_point_perms(perms, domain: ConcatenatedDomain) -> np.ndarray:
    """`matrix_from_point_perm` for a stack of permutations, in one gather.

    Returns an (n, 8, 8) int64 array: the basis-point columns of `perms`
    mapped to codes, whose bits give the matrix columns.
    """
    pts = domain.parts[0]
    basis = pts.index_of_code[1 << np.arange(DIM)]
    codes = pts.codes[perms[:, basis]].astype(np.uint8)
    bits = np.unpackbits(codes[:, :, None], axis=2, bitorder="little")
    return bits.transpose(0, 2, 1).astype(np.int64)


def sylow_via_chamber(g: GroupHandle) -> ModelBundle:
    """The chamber stabilizer: order exactly 2^12, fully enumerated."""
    base = g.flag_base
    stab = stabilizer_of_prefix(g, base)
    order = stab.chain.order()
    if order != SYLOW_ORDER:
        raise ConfigurationError(
            "chamber stabilizer has order %d, not 4096; broken flag" % order)
    group = CayleyGroup.from_generators(stab.generators, chain=stab.chain,
                                        name="sylow-omega8plus2")
    emb = group.elements
    if group.n != SYLOW_ORDER:
        raise ConfigurationError("stabilizer enumeration did not reach 4096 elements")
    prefer = [b for b in stab.chain.base]
    sig_cols = distinguishing_columns(emb, prefer=prefer)
    mats = list(matrices_from_point_perms(emb, g.geometry))
    bundle = ModelBundle(
        provenance="omega8plus2-flag",
        ambient=g,
        sylow=group,
        embedding=emb,
        sig_cols=sig_cols,
        matrices=mats,
        extras={"flag_base": base},
    )
    return bundle


# ---------------------------------------------------------------------------
# the affine 64:A8 model


class AffineModule:
    """The 6-dimensional GF(2) module: even subsets of 8 letters mod complement."""

    def __init__(self):
        reps = []
        for c in range(256):
            if bin(c).count("1") % 2 == 0 and not c & 1:
                reps.append(c)
        self.reps = np.array(sorted(reps), dtype=np.int64)
        assert len(self.reps) == 64
        self.index_of_code = np.full(256, -1, dtype=np.int64)
        for i, c in enumerate(self.reps):
            self.index_of_code[c] = i

    def normalize(self, code: int) -> int:
        return code ^ 0xFF if code & 1 else code

    def index(self, code: int) -> int:
        return int(self.index_of_code[self.normalize(code)])

    def subset(self, letters) -> int:
        code = 0
        for i in letters:
            code |= 1 << i
        return self.index(code)

    def add(self, i: int, j: int) -> int:
        return self.index(int(self.reps[i]) ^ int(self.reps[j]))

    def act(self, perm8, i: int) -> int:
        code = int(self.reps[i])
        out = 0
        for k in range(DIM):
            if (code >> k) & 1:
                out |= 1 << int(perm8[k])
        return self.index(out)

    def translation_perm(self, i: int) -> np.ndarray:
        return np.array([self.add(x, i) for x in range(64)], dtype=np.uint16)

    def linear_perm(self, perm8) -> np.ndarray:
        return np.array([self.act(perm8, x) for x in range(64)], dtype=np.uint16)

    def weight_form(self, i: int) -> int:
        """Invariant quadratic form: half the subset size, mod 2."""
        return (bin(int(self.reps[i])).count("1") // 2) % 2


def a8_generators():
    """Three-cycles (0,1,k): a generating set of the alternating group."""
    return [perm_from_cycles(8, [(0, 1, k)]) for k in range(2, 8)]


def a8_elements() -> np.ndarray:
    """The alternating group on 8 letters, as rows: the identity, then each
    level that `closure_levels` reaches over `a8_generators`, keyed on all
    8 letters, so the row count is the group order."""
    ident = np.arange(8, dtype=np.uint16)[None, :]
    return np.concatenate([ident] + [rows for rows, *_ in closure_levels(
        ident, np.stack(a8_generators()), np.arange(8))])


def t_part_perms():
    return [perm_from_cycles(8, cycles) for cycles in T_PART_CYCLES]


def build_affine_model() -> ModelBundle:
    """The split extension 64:A8 on the 64 module points, with its Sylow."""
    module = AffineModule()
    basis = [module.subset((0, i)) for i in range(1, 7)]
    translations = [module.translation_perm(i) for i in basis]
    linear_a8 = [module.linear_perm(p) for p in a8_generators()]
    ambient = GroupHandle("affine64A8", translations + linear_a8)
    chain = build_stab_chain(ambient)
    if chain.order() != FRAME_ORDER:
        raise ConfigurationError("affine ambient order %d unexpected" % chain.order())
    t_mats = t_part_perms()
    sylow_gens = translations + [module.linear_perm(p) for p in t_mats]
    group = CayleyGroup.from_generators(sylow_gens, chain=chain, name="sylow-affine")
    emb = group.elements
    if group.n != SYLOW_ORDER:
        raise ConfigurationError("affine Sylow enumeration did not reach 4096")
    sig_cols = distinguishing_columns(emb)
    q_translations = [module.subset(s) for s in Q_TRANSLATION_SETS]
    q_perm_part = [module.linear_perm(perm_from_cycles(8, c)) for c in Q_PERM_CYCLES]
    bundle = ModelBundle(
        provenance="affine-A8",
        ambient=ambient,
        sylow=group,
        embedding=emb,
        sig_cols=sig_cols,
        matrices=None,
        extras={"module": module},
    )
    q_members = [module.translation_perm(i) for i in q_translations] + q_perm_part
    bundle.extras["Q"] = bundle.subgroup_from_perms(q_members)
    if bundle.extras["Q"].order != 512:
        raise ConfigurationError("the recorded extraspecial subgroup has wrong order")
    return bundle


# ---------------------------------------------------------------------------
# the GF(3) frame model


def sign_change_matrix(positions) -> np.ndarray:
    m = np.eye(DIM, dtype=np.int64)
    for i in positions:
        m[i, i] = 2
    return m


def perm_matrix(perm8) -> np.ndarray:
    m = np.zeros((DIM, DIM), dtype=np.int64)
    for i in range(DIM):
        m[int(perm8[i]), i] = 1
    return m


def frame_sign_gens():
    return [sign_change_matrix((i, i + 1)) for i in range(DIM - 1)]


def check_in_omega(mat) -> None:
    """Raise `ConfigurationError` unless mat is an isometry in Omega."""
    if gf3_det(mat) != 1:
        raise ConfigurationError("generator has determinant -1; construction bug")
    try:
        norm = spinor_norm(GF3_SPACE, mat)  # runs `check_isometry` first
    except PreconditionError as exc:
        raise ConfigurationError("generator is not an isometry: %s" % exc) from exc
    if norm != "square":
        raise ConfigurationError("generator has nonsquare spinor norm; construction bug")


def build_frame_model_gf3() -> ModelBundle:
    """The frame group (even sign changes):A8 inside POmega8+(3).

    The ambient chain is built at a proved order (`build_stab_chain`).
    Let M be the matrix group the generators span and G its image on the
    1120 singular points.  Every generator is frame-monomial
    (`frame_line_action` raises otherwise), so M permutes the 8 frame
    lines, and the kernel of that letter action is M meet D, D the 2^7
    diagonal +-1 matrices of det 1 (the frame is the standard one, and
    `check_in_omega` puts every generator in SL).  -I lies in D and acts trivially on the points.  If
    -I lies in M, then |G| <= |M| / 2 <= 2^6 |L|, L the letter image;
    if not, M meet D avoids -I, so has order at most 2^6, and
    |G| <= |M| <= 2^6 |L|.  An 8-point chain of the generators' letter
    permutations gives |L|, and the bound must equal FRAME_ORDER.
    """
    domain = singular_objects(GF3_SPACE, "points")
    frame = standard_frame()
    signs = frame_sign_gens()
    ambient_mats = signs + [perm_matrix(p) for p in a8_generators()]
    letters = [frame_line_action(frame, m) for m in ambient_mats]
    for m in ambient_mats:
        check_in_omega(m)
    bound = 2 ** 6 * build_stab_chain(GroupHandle("frame-letters", letters)).order()
    if bound != FRAME_ORDER:
        raise ConfigurationError("frame ambient order is bounded by %d, not %d"
                                 % (bound, FRAME_ORDER))
    perms = induced_action(ambient_mats, domain)
    ambient = GroupHandle("frame2e6A8", perms)
    ambient.gen_matrices = ambient_mats
    chain = build_stab_chain(ambient, order=bound)
    t_mats = [perm_matrix(p) for p in t_part_perms()]
    for m in t_mats:
        check_in_omega(m)
    sylow_mats = signs + t_mats
    sylow_perms = induced_action(sylow_mats, domain)
    group = CayleyGroup.from_generators(sylow_perms, chain=chain, name="sylow-frame")
    emb = group.elements
    if group.n != SYLOW_ORDER:
        raise ConfigurationError("frame Sylow enumeration did not reach 4096")
    sig_cols = distinguishing_columns(emb)
    mats = matrices_from_parents(group, sylow_mats, 3)
    bundle = ModelBundle(
        provenance="frame-gf3",
        ambient=ambient,
        sylow=group,
        embedding=emb,
        sig_cols=sig_cols,
        matrices=mats,
        extras={"frame": frame, "sign_perms": perms[: len(signs)]},
    )
    bundle.extras["O2"] = verify_frame_o2(bundle)
    return bundle


def verify_frame_o2(bundle: ModelBundle) -> SubgroupBits:
    """Certify that the sign-change image D is the 2-radical of the ambient G.

    Downward: the largest subset of the Sylow S that conjugation by every
    ambient generator maps into itself (`invariant_core`).  A subset X of
    S with X^g <= X for every generator g is normal in G, so X lies in
    the core of S in G, which is O_2(G) as S is a Sylow 2-subgroup.  The
    conjugates are looked up by signature alone: the members of O_2(G)
    hit their true conjugates, so the fixpoint keeps all of O_2(G), and
    it must equal D.  Upward: D is checked, at full degree, to be a normal
    2-subgroup, hence inside O_2(G).
    """
    g = bundle.ambient
    d_bits = bundle.subgroup_from_perms(bundle.extras["sign_perms"])
    if d_bits.order != 64 or not bundle.sylow.is_elementary_abelian(d_bits):
        raise ConfigurationError("sign-change image is not elementary abelian of order 64")
    everything = np.arange(bundle.sylow.n)
    core = invariant_core(np.ones(bundle.sylow.n, dtype=bool), [
        bundle.conjugate_indices(gen, everything, verify=False) for gen in g.generators])
    if not np.array_equal(core, d_bits.bits):
        raise ConfigurationError("the generator-invariant core of the Sylow did not "
                                 "stabilize at the sign-change subgroup")
    # upward: normality under the ambient generators
    for gen in g.generators:
        j = bundle.conjugate_indices(inverse(gen), d_bits.members)
        if (j < 0).any() or not d_bits.bits[j].all():
            raise ConfigurationError("candidate radical is not normal")
    return d_bits


# ---------------------------------------------------------------------------
# frames from involution lifts


@dataclass
class Frame:
    """Eight pairwise orthogonal nonsingular projective points over GF(3)."""

    vectors: np.ndarray  # (8, 8) rows, normalized to leading coefficient 1

    def __post_init__(self):
        self.vectors = np.asarray(self.vectors, dtype=np.int64) % 3
        if self.vectors.shape != (DIM, DIM):
            raise ConfigurationError("a frame has exactly 8 lines")
        if any(GF3_SPACE.eval_q(v) == 0 for v in self.vectors):
            raise PreconditionError("frame lines must be nonsingular")
        for i in range(DIM):
            for j in range(i + 1, DIM):
                if GF3_SPACE.polar(self.vectors[i], self.vectors[j]) != 0:
                    raise PreconditionError("frame lines must be pairwise orthogonal")

    def basis_matrix(self) -> np.ndarray:
        return self.vectors.T % 3


def frame_line_action(frame: Frame, mat) -> np.ndarray:
    """Permutation of the 8 frame lines induced by a frame-monomial matrix;
    raises `ConfigurationError` if the matrix is not frame-monomial."""
    vecs = frame.vectors
    out = np.empty(DIM, dtype=np.uint16)
    for i in range(DIM):
        img = (np.asarray(mat, dtype=np.int64) @ vecs[i]) % 3
        hit = None
        for j in range(DIM):
            if np.array_equal(img, vecs[j]) or np.array_equal(img, (2 * vecs[j]) % 3):
                hit = j
                break
        if hit is None:
            raise ConfigurationError("matrix does not permute the frame lines")
        out[i] = hit
    return out


def standard_frame() -> Frame:
    return Frame(np.eye(DIM, dtype=np.int64))


def frame_from_involutions(lifts) -> Frame:
    """Common eigenlines of a commuting family of GF(3) involution matrices.

    The input group must split the space into 8 one-dimensional common
    eigenspaces; anything else signals a non-frame-type subgroup or a bad
    lift choice.
    """
    mats = [np.asarray(m, dtype=np.int64) % 3 for m in lifts]
    for m in mats:
        if not np.array_equal((m @ m) % 3, np.eye(DIM, dtype=np.int64)):
            raise PreconditionError("lift is not an involution")
    for a in mats:
        for b in mats:
            if not np.array_equal((a @ b) % 3, (b @ a) % 3):
                raise PreconditionError("lifts do not commute")
    spaces = [np.eye(DIM, dtype=np.int64)]  # column bases
    for m in mats:
        nxt = []
        for basis in spaces:
            if basis.shape[1] == 1:
                refined = [basis]
            else:
                refined = []
                for eig in (1, 2):
                    rel = ((m - eig * np.eye(DIM, dtype=np.int64)) @ basis) % 3
                    null = gf3_nullspace(rel)
                    if null.shape[0]:
                        refined.append((basis @ null.T) % 3)
            nxt.extend(refined)
        spaces = nxt
    if len(spaces) != DIM or any(s.shape[1] != 1 for s in spaces):
        raise PreconditionError(
            "lifts have %d common eigenlines, not 8; not a frame-type subgroup"
            % sum(s.shape[1] for s in spaces))
    vecs = []
    for s in spaces:
        v = s[:, 0] % 3
        nz = np.nonzero(v)[0][0]
        if v[nz] == 2:
            v = (2 * v) % 3
        vecs.append(v)
    vecs = sorted(vecs, key=lambda v: int(v @ (3 ** np.arange(DIM))))
    return Frame(np.array(vecs))
