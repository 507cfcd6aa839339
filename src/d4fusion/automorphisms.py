"""Automorphism and isomorphism searches over fully enumerated groups.

Both searches share one engine: pick four anchor generators whose images
determine everything, then extend candidate image tuples by evaluating
the whole subgroup they generate in parallel in both groups.  A surviving
leaf satisfies the generator-column identity img[T1[x, a]] = T2[img[x],
img[a]] for every x, which forces full multiplicativity, so leaves are
exactly the structure-preserving maps.  Candidate lists are cut down by
canonical element colors (Weisfeiler-Leman style refinement of
isomorphism-invariant attributes), and order-3 automorphism search
additionally enumerates the induced action on the Frattini quotient
first.  The kernel of Aut(S) -> Aut(S/Phi(S)) is a 2-group for a 2-group
S (Burnside), so an order-3 automorphism must induce an order-3 action
there; that theorem is the only pruning fact not re-verified on the
table.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .cayley import AutoMap, CayleyGroup, check_isomorphism, closure_levels
from .perms import ConfigurationError, ResourceError
from .structure import StructureContext

_MIX1 = np.int64(0x9E3779B1)
_MIX2 = np.int64(0x85EBCA77)
_PRIME = np.int64((1 << 61) - 1)
_BLOCK = 16  # rows per step of _round_features


def _attribute_matrix(ctx: StructureContext) -> np.ndarray:
    """Raw isomorphism-invariant attributes, one row per element."""
    S = ctx.S
    n = S.n
    # |C_S(x)| = n / |x^S|, by the orbit-stabiliser theorem
    _, label_ids, class_size = np.unique(S.conjugacy_classes(), return_inverse=True,
                                         return_counts=True)
    cent_order = n // class_size[label_ids]
    e_membership = np.zeros(n, dtype=np.int64)
    for e in ctx.six_E:
        e_membership += e.bits
    i0 = (ctx.coset_rep == ctx.i0_coset).astype(np.int64)
    f1 = S.centralizer(ctx.Z2.members)
    cols = [
        S.order_of.astype(np.int64),
        cent_order,
        ctx.Q.bits.astype(np.int64),
        ctx.phi.bits.astype(np.int64),
        ctx.Z2.bits.astype(np.int64),
        ctx.Z3.bits.astype(np.int64),
        e_membership,
        i0,
        f1.bits.astype(np.int64),
    ]
    return np.stack(cols, axis=1)


def _mod_prime(v: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """v mod P in place, for int64 v of any sign, without integer division.

    Let u = v mod 2^64.  As 2^61 = 1 (mod P), u = (u >> 61) + (u & P)
    (mod P), and as 2^64 = 8 (mod P), v = u - 8 [v < 0] (mod P).  The
    arithmetic shift v >> 61 is (u >> 61) - 8 [v < 0], so
    r = (v >> 61) + (v & P) = v (mod P) with -4 <= r <= P + 2.  Two
    conditional steps finish: subtracting P where r >= P gives [-4, P),
    and adding P where that is negative gives [0, P).  The result equals
    np.remainder(v, P) bit for bit.  `tmp` is int64 scratch of v's shape.
    """
    np.right_shift(v, 61, out=tmp)
    v &= _PRIME
    v += tmp
    np.subtract(v, _PRIME, out=v, where=v >= _PRIME)
    np.add(v, _PRIME, out=v, where=v < 0)
    return v


def _round_features(S: CayleyGroup, colors: np.ndarray) -> np.ndarray:
    """Order-independent hash of {(color(y), color(xy)) : y} and color(x^2).

    With c the colours, P = 2^61 - 1, m(x, y) = c(y)*MIX1 + c(xy)*MIX2 and
    h(x, y) = (m(x, y)^2 + c(y)) mod P, row x hashes to

        ((sum_y h(x, y)) mod P + c(x^2)) mod P.

    The square, the `+ c(y)` and the row sum are int64 arithmetic that
    wraps around modulo 2^64; that wraparound is part of the hash.
    Colours are below 2^13, so m(x, y) < 2^46 needs no reduction.  Every
    mod P is `_mod_prime`.  Rows are hashed _BLOCK at a time in two reused
    (_BLOCK, n) int64 buffers, so no n x n temporary is ever built.
    """
    n = S.n
    assert 0 <= colors.min() and colors.max() < 1 << 13, "colour ids exceed 2^13"
    c_mix1 = colors * _MIX1
    mix = np.empty((min(_BLOCK, n), n), dtype=np.int64)
    tmp = np.empty_like(mix)
    feat = np.empty(n, dtype=np.int64)
    for lo in range(0, n, _BLOCK):
        hi = min(lo + _BLOCK, n)
        m = mix[:hi - lo]
        # table entries are < n by construction; mode="raise" would copy via a buffer
        np.take(colors, S.T[lo:hi], out=m, mode="clip")
        m *= _MIX2
        m += c_mix1
        m *= m
        m += colors
        _mod_prime(m, tmp[:hi - lo])
        m.sum(axis=1, out=feat[lo:hi])
    _mod_prime(feat, tmp[0])
    feat += colors[S.T[np.arange(n), np.arange(n)]]
    return _mod_prime(feat, tmp[0])


def element_colors(ctx: StructureContext) -> np.ndarray:
    """Stable element colours of S, refined once per context.

    Start from the ranks of the attribute rows; each round ranks the
    pairs (colour, `_round_features`), until the partition is stable or
    six rounds have passed.
    """
    def refine():
        _, colors = np.unique(_attribute_matrix(ctx), axis=0, return_inverse=True)
        colors = colors.astype(np.int64)
        for _ in range(6):
            feat = _round_features(ctx.S, colors)
            _, new = np.unique(np.stack([colors, feat], axis=1), axis=0,
                               return_inverse=True)
            new = new.astype(np.int64)
            if np.array_equal(new, colors):
                break
            colors = new
        return colors

    return ctx.once("colors", refine)


def joint_colors(ctx1: StructureContext, ctx2: StructureContext):
    """Element colours of both groups, with ids that agree across them.

    Each group is refined on its own (`element_colors`).  Colours are
    ranks of isomorphism-invariant values.  If S1 and S2 are isomorphic,
    an isomorphism carries the attribute rows of S1 onto those of S2 and,
    round by round, the multiset of (colour, feature) pairs of S1 onto
    that of S2.  Equal multisets have the same distinct values, so the
    ranks taken per group equal the ranks taken over both groups at once,
    and both groups stop in the same round.  If S1 and S2 are not
    isomorphic, the ids may still happen to line up, but no false map
    can come of it: every leaf of the search is verified exhaustively.
    """
    return element_colors(ctx1), element_colors(ctx2)


# ---------------------------------------------------------------------------
# anchors and prefix closures


@dataclass
class _Prefix:
    """BFS data for the subgroup generated by the first i anchors of g1."""

    elements: np.ndarray        # global indices, BFS order, [0] = identity
    layer_parent: np.ndarray    # local parent index per element (BFS order)
    layer_gen: np.ndarray       # anchor position used to reach it
    products: np.ndarray        # products[x_local, j] = local index of x * a_j


def _anchor_prefixes(S: CayleyGroup, anchors):
    """One `closure_levels` run per prefix of the anchors, on 1-wide rows.

    A row holds one element index and anchor j sends it to T[x, a_j], so
    the closure's first-occurrence order, parents and product indices are
    the prefix subgroup's BFS data in local indices.
    """
    out = []
    for i in range(1, len(anchors) + 1):
        start = np.zeros((1, 1), dtype=S.T.dtype)
        rows, parent, gen, prods = [start], [[0]], [[0]], []
        for new, f, j, prod in closure_levels(start, S.T[:, anchors[:i]].T, [0]):
            rows.append(new)
            parent.append(f)
            gen.append(j)
            prods.append(prod)
        out.append(_Prefix(
            elements=np.concatenate(rows)[:, 0].astype(np.int64),
            layer_parent=np.concatenate(parent),
            layer_gen=np.concatenate(gen),
            products=np.concatenate(prods),
        ))
    return out


def _evaluate_prefix(prefix: _Prefix, T2: np.ndarray, images):
    """Candidate images of the whole prefix subgroup, or None on conflict.

    The map is determined by the anchor images; it survives iff the
    generator-column identity holds across the prefix, which is checked
    exhaustively (vectorized).
    """
    m = len(prefix.elements)
    img = np.zeros(m, dtype=np.int64)
    b = np.asarray(images, dtype=np.int64)
    for x in range(1, m):
        img[x] = T2[img[prefix.layer_parent[x]], b[prefix.layer_gen[x]]]
    if len(np.unique(img)) != m:
        return None
    lhs = T2[img[:, None], b[None, :]]
    rhs = img[prefix.products]
    if not np.array_equal(lhs, rhs):
        return None
    return img


def _pair_filter(S1, S2, c1, c2, anchors, chosen, a_new, cands):
    """Vectorized compatibility filter against already-chosen anchor images.

    Products and commutators with earlier anchors must land in matching
    color classes; this removes almost all spurious candidates before the
    subgroup evaluation runs.
    """
    keep = cands
    for a_prev, b_prev in zip(anchors, chosen):
        if len(keep) == 0:
            return keep
        want = c1[S1.T[a_prev, a_new]]
        keep = keep[c2[S2.T[b_prev, keep]] == want]
        if len(keep) == 0:
            return keep
        want = c1[S1.T[a_new, a_prev]]
        keep = keep[c2[S2.T[keep, b_prev]] == want]
        if len(keep) == 0:
            return keep
        want = c1[S1._commutators([a_prev], [a_new])[0, 0]]
        keep = keep[c2[S2._commutators([b_prev], keep)[0]] == want]
    return keep


def _anchors_for(ctx: StructureContext, colors: np.ndarray):
    """Four generators whose Frattini-quotient images are independent,
    preferring rare colors so candidate lists stay small."""
    S = ctx.S
    coords, basis = S.elementary_quotient_coords(ctx.phi)
    _, counts = np.unique(colors, return_counts=True)
    size_of = dict(zip(np.unique(colors).tolist(), counts.tolist()))
    order = sorted(range(S.n), key=lambda x: (size_of[int(colors[x])], int(colors[x]), x))
    anchors = []
    span = {0}
    for x in order:
        v = int(coords[x])
        if v in span:
            continue
        anchors.append(x)
        span |= {s ^ v for s in span}
        if len(anchors) == 4:
            break
    if len(anchors) != 4:
        raise ConfigurationError("could not find four independent anchors")
    if ctx.S.closure(anchors).order != S.n:
        raise ConfigurationError("anchors do not generate the group")
    return anchors, coords


# ---------------------------------------------------------------------------
# the backtrack engine and the isomorphism search


@dataclass
class SearchOutcome:
    found: list
    nodes: int

    @property
    def ok(self):
        return bool(self.found)


def _backtrack(S1, S2, c1, c2, anchors, prefixes, cand_lists, deadline, stats,
               name):
    """Yield the full image array of every surviving leaf, depth first.

    Level d tries the colour- and pair-filtered candidates for anchor d and
    keeps those whose images extend to the subgroup generated by the first
    d + 1 anchors; each candidate tried is one node, counted in
    stats["nodes"].  The last prefix is the whole of S1, so a leaf's
    evaluation is already the full map.  Past `deadline` (time.monotonic())
    the search `name` raises ResourceError carrying `stats`.
    """
    def rec(depth, chosen, img_local):
        if time.monotonic() > deadline:
            raise ResourceError("%s exceeded its budget" % name, stats=dict(stats))
        if depth == len(anchors):
            full = np.zeros(S1.n, dtype=np.uint16)
            full[prefixes[-1].elements] = img_local.astype(np.uint16)
            yield full
            return
        cands = _pair_filter(S1, S2, c1, c2, anchors[:depth], chosen,
                             anchors[depth], cand_lists[depth])
        for b in cands:
            stats["nodes"] += 1
            trial = chosen + [int(b)]
            img = _evaluate_prefix(prefixes[depth], S2.T, trial)
            if img is not None:
                yield from rec(depth + 1, trial, img)

    yield from rec(0, [], None)


def find_isomorphism(ctx1: StructureContext, ctx2: StructureContext,
                     budget_secs: float = 7200.0) -> SearchOutcome:
    """Backtrack for a multiplicative bijection g1 -> g2.

    Anchor images run over color-matched candidates; each extension is
    validated by evaluating the generated subgroup in both groups in
    parallel.  The first leaf is returned, exhaustively verified.
    """
    S1, S2 = ctx1.S, ctx2.S
    deadline = time.monotonic() + budget_secs
    if S1.n != S2.n:
        return SearchOutcome([], 0)
    c1, c2 = joint_colors(ctx1, ctx2)
    if sorted(c1.tolist()) != sorted(c2.tolist()):
        return SearchOutcome([], 0)
    anchors, _ = _anchors_for(ctx1, c1)
    prefixes = _anchor_prefixes(S1, anchors)
    cand_lists = [np.flatnonzero(c2 == c1[a]) for a in anchors]
    stats = {"nodes": 0}
    full = next(_backtrack(S1, S2, c1, c2, anchors, prefixes, cand_lists, deadline,
                           stats, "isomorphism search"), None)
    found = [] if full is None else [AutoMapPair(S1, S2, full)]
    return SearchOutcome(found, stats["nodes"])


class AutoMapPair:
    """A verified isomorphism between two enumerated groups."""

    def __init__(self, g1: CayleyGroup, g2: CayleyGroup, images: np.ndarray):
        self.g1 = g1
        self.g2 = g2
        self.images = np.asarray(images, dtype=np.uint16)
        check_isomorphism(self.images, g1, g2, error=ConfigurationError)

    def transport_automap(self, auto: AutoMap) -> AutoMap:
        """Conjugate an automorphism of g1 into one of g2."""
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(self.g1.n, dtype=np.uint16)
        images2 = self.images[auto.images[inv]]
        return AutoMap(self.g2, images2)


# ---------------------------------------------------------------------------
# order-3 automorphisms


def _frattini_action_candidates(ctx: StructureContext, coords):
    """Order-3 linear actions on S/Phi(S) compatible with the characteristic
    structure: they fix the Q-coset vector and the i0 class upstairs."""
    S = ctx.S
    n_bits = 4
    vq_set = sorted({int(coords[x]) for x in ctx.Q.members} - {0})
    if len(vq_set) != 1:
        raise ConfigurationError("Q does not sit over a single Frattini coset")
    vq = vq_set[0]
    # member cosets of F1 = C_S(Z2) and of the i0 class, as coordinate sets
    f1 = S.centralizer(ctx.Z2.members)
    f1_coords = frozenset(int(c) for c in np.unique(coords[f1.members]))
    i0_coords = frozenset(int(c) for c in np.unique(
        coords[ctx.coset_rep == ctx.i0_coset]))
    e_patterns = frozenset(
        frozenset(int(c) for c in np.unique(coords[e.members])) for e in ctx.six_E)

    # all 16^4 column 4-tuples in itertools.product order, and the images of
    # the 16 vectors under each: imgs[:, v] = XOR of the columns of v's bits
    cols = np.indices((16,) * n_bits, dtype=np.uint8).reshape(n_bits, -1).T
    imgs = np.zeros((len(cols), 16), dtype=np.uint8)
    for v in range(1, 16):
        imgs[:, v] = imgs[:, v & (v - 1)] ^ cols[:, (v & -v).bit_length() - 1]
    # order exactly 3 (so also bijective), and the Q-coset vector fixed
    ident = np.arange(16, dtype=np.uint8)
    square = np.take_along_axis(imgs, imgs, axis=1)
    cube = np.take_along_axis(imgs, square, axis=1)
    keep = ((cube == ident).all(axis=1) & (imgs != ident).any(axis=1)
            & (imgs[:, vq] == vq))
    out = []
    for row in imgs[keep].astype(np.int64):
        imgs_of = row.tolist()
        if frozenset(imgs_of[c] for c in f1_coords) != f1_coords:
            continue
        if frozenset(imgs_of[c] for c in i0_coords) != i0_coords:
            continue
        pats = frozenset(frozenset(imgs_of[c] for c in p) for p in e_patterns)
        if pats != e_patterns:
            continue
        out.append(row)
    return out


def order3_automorphisms(ctx: StructureContext, budget_secs: float = 7200.0,
                         limit: int | None = None) -> SearchOutcome:
    """Order-3 automorphisms of S, by pruned backtrack over anchor images.

    Soundness of the pruning: Q, Phi(S), the central series, F1 and the
    set of six elementary abelian subgroups are characteristic (verified
    facts), and an order-3 automorphism induces an order-3 action on
    S/Phi(S) because the kernel of that restriction is a 2-group.  Every
    returned map passes the exhaustive multiplicativity check and has
    order exactly 3.  `limit` caps the number of maps returned.

    No map is returned twice.  The anchors generate S (`_anchors_for`
    checks this), so a map is fixed by the anchor images, and within one
    action the backtrack visits each anchor tuple once.  The anchors also
    span S/Phi(S) and every candidate lies over its anchor's image under
    the action, so maps from different actions differ on S/Phi(S).
    """
    S = ctx.S
    deadline = time.monotonic() + budget_secs
    colors = element_colors(ctx)
    anchors, coords = _anchors_for(ctx, colors)
    prefixes = _anchor_prefixes(S, anchors)
    identity = np.arange(S.n, dtype=np.uint16)
    found = []
    stats = {"nodes": 0, "found": 0}
    for ti, tau in enumerate(_frattini_action_candidates(ctx, coords)):
        if limit is not None and len(found) >= limit:
            break
        stats["tau"] = ti
        cand_lists = []
        for a in anchors:
            pool = np.flatnonzero(coords == tau[int(coords[a])])
            cand_lists.append(pool[colors[pool] == colors[a]])
        for full in _backtrack(S, S, colors, colors, anchors, prefixes, cand_lists,
                               deadline, stats, "order-3 automorphism search"):
            if (np.array_equal(full[full[full]], identity)
                    and not np.array_equal(full, identity)):
                found.append(AutoMap(S, full))
                stats["found"] = len(found)
                if limit is not None and len(found) >= limit:
                    break
    return SearchOutcome(found, stats["nodes"])


# ---------------------------------------------------------------------------
# behavior of an order-3 map, in the shape the downstream checks expect


def order3_behavior(ctx: StructureContext, auto: AutoMap) -> dict:
    """Verify the expected action: trivial on Q/Phi(S), a single fixed
    nontrivial coset downstairs (the distinguished one), commutator image
    of order 4, and the six E's permuted in two 3-cycles.  The tests and
    the `search` benchmark gate call it."""
    S = ctx.S
    out = {}
    out["fixes_Q"] = auto.stabilizes(ctx.Q)
    out["fixes_phi"] = auto.stabilizes(ctx.phi)
    phi_rep = S.coset_reps(ctx.phi)
    qm = ctx.Q.members
    out["trivial_on_Q_mod_phi"] = bool(
        (phi_rep[auto.images[qm]] == phi_rep[qm]).all())
    # induced permutation of the 8 Q-cosets
    rep = ctx.coset_rep
    cosets = [0] + ctx.nontrivial_cosets
    induced = {}
    for r in cosets:
        x = int(np.flatnonzero(rep == r)[0])
        induced[r] = int(rep[auto.images[x]])
        members = np.flatnonzero(rep == r)
        if not (rep[auto.images[members]] == induced[r]).all():
            raise ConfigurationError("automorphism does not permute Q-cosets")
    fixed = sorted(r for r in cosets if induced[r] == r)
    out["fixed_cosets"] = fixed
    out["fixed_is_i0_only"] = fixed == sorted({0, ctx.i0_coset})
    # [rho, Sbar]: subgroup generated downstairs by x^-1 * rho(x)
    quot, rep_of, new_index = S.quotient_group(ctx.Q)
    gens = set()
    for x in range(S.n):
        g = S.T[S.inv[x], auto.images[x]]
        gens.add(int(new_index[rep_of[g]]))
    sub = quot.closure(sorted(gens))
    out["commutator_image_order"] = sub.order
    perm = {}
    e_keys = {e.key(): i for i, e in enumerate(ctx.six_E)}
    for i, e in enumerate(ctx.six_E):
        bits = np.zeros(S.n, dtype=bool)
        bits[auto.images[e.members]] = True
        j = e_keys.get(np.packbits(bits).tobytes())
        if j is None:
            raise ConfigurationError("automorphism does not permute the six E's")
        perm[i] = j
    cycle_lengths = _cycle_lengths(perm)
    out["E_permutation_cycles"] = cycle_lengths
    out["E_cycles_two_3cycles"] = cycle_lengths == [3, 3]
    out["ok"] = (out["fixes_Q"] and out["fixes_phi"] and out["trivial_on_Q_mod_phi"]
                 and out["fixed_is_i0_only"] and out["commutator_image_order"] == 4
                 and out["E_cycles_two_3cycles"])
    return out


def _cycle_lengths(perm: dict):
    seen = set()
    out = []
    for start in perm:
        if start in seen:
            continue
        ln = 0
        x = start
        while x not in seen:
            seen.add(x)
            x = perm[x]
            ln += 1
        out.append(ln)
    return sorted(out)
