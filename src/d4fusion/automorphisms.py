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

import itertools
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .cayley import AutoMap, CayleyGroup, check_isomorphism
from .perms import ConfigurationError, ResourceError
from .reports import write_json_atomic
from .structure import StructureContext

log = logging.getLogger(__name__)

_MIX1 = np.int64(0x9E3779B1)
_MIX2 = np.int64(0x85EBCA77)
_PRIME = np.int64((1 << 61) - 1)


def _attribute_matrix(ctx: StructureContext) -> np.ndarray:
    """Raw isomorphism-invariant attributes, one row per element."""
    S = ctx.S
    n = S.n
    cent = (S.comm == 0).sum(axis=1).astype(np.int64)
    labels = S.conjugacy_classes()
    _, counts = np.unique(labels, return_counts=True)
    size_of = dict(zip(np.unique(labels).tolist(), counts.tolist()))
    class_size = np.array([size_of[int(l)] for l in labels], dtype=np.int64)
    e_membership = np.zeros(n, dtype=np.int64)
    for e in ctx.six_E:
        e_membership += e.bits
    i0 = (ctx.coset_rep == ctx.i0_coset).astype(np.int64)
    f1 = S.centralizer(ctx.Z2.members)
    cols = [
        S.order_of.astype(np.int64),
        cent,
        class_size,
        ctx.Q.bits.astype(np.int64),
        ctx.phi.bits.astype(np.int64),
        ctx.Z2.bits.astype(np.int64),
        ctx.Z3.bits.astype(np.int64),
        e_membership,
        i0,
        f1.bits.astype(np.int64),
    ]
    return np.stack(cols, axis=1)


def _refine(colors: np.ndarray, features: np.ndarray) -> np.ndarray:
    stacked = colors.astype(np.int64) * np.int64(1 << 32) + features % np.int64(1 << 32)
    _, new = np.unique(stacked, return_inverse=True)
    return new.astype(np.int64)


def _round_features(S: CayleyGroup, colors: np.ndarray) -> np.ndarray:
    """Order-independent hash of {(color(y), color(xy), color([x,y])) : y}."""
    cy = colors[None, :]
    cxy = colors[S.T]
    ccm = colors[S.comm]
    mix = (cy * _MIX1 + cxy * _MIX2 + ccm * (_MIX1 ^ _MIX2)) % _PRIME
    mix = (mix * mix + cy) % _PRIME
    feat = mix.sum(axis=1) % _PRIME
    feat = (feat + colors[S.T[np.arange(S.n), np.arange(S.n)]]) % _PRIME
    return feat


def joint_colors(ctx1: StructureContext, ctx2: StructureContext):
    """Stable element colors computed jointly so ids agree across groups."""
    a1 = _attribute_matrix(ctx1)
    a2 = _attribute_matrix(ctx2)
    both = np.concatenate([a1, a2], axis=0)
    _, colors = np.unique(both, axis=0, return_inverse=True)
    colors = colors.astype(np.int64)
    n1 = ctx1.S.n
    c1, c2 = colors[:n1], colors[n1:]
    for _ in range(6):
        f1 = _round_features(ctx1.S, c1)
        f2 = _round_features(ctx2.S, c2)
        stacked = np.concatenate([
            np.stack([c1, f1], axis=1), np.stack([c2, f2], axis=1)], axis=0)
        _, new = np.unique(stacked, axis=0, return_inverse=True)
        new = new.astype(np.int64)
        if np.array_equal(new[:n1], c1) and np.array_equal(new[n1:], c2):
            break
        c1, c2 = new[:n1], new[n1:]
    return c1, c2


def element_colors(ctx: StructureContext) -> np.ndarray:
    c1, _ = joint_colors(ctx, ctx)
    return c1


# ---------------------------------------------------------------------------
# anchors and prefix closures


@dataclass
class _Prefix:
    """BFS data for the subgroup generated by the first i anchors of g1."""

    elements: np.ndarray        # global indices, BFS order, [0] = identity
    local_of: dict
    layer_parent: np.ndarray    # local parent index per element (BFS order)
    layer_gen: np.ndarray       # anchor position used to reach it
    products: np.ndarray        # products[x_local, j] = local index of x * a_j


def _anchor_prefixes(S: CayleyGroup, anchors):
    out = []
    for i in range(1, len(anchors) + 1):
        gens = anchors[:i]
        elements = [0]
        local = {0: 0}
        parent = [0]
        genpos = [0]
        frontier = [0]
        while frontier:
            nxt = []
            for x in frontier:
                for j, a in enumerate(gens):
                    z = int(S.T[elements[x], a])
                    if z not in local:
                        local[z] = len(elements)
                        elements.append(z)
                        parent.append(x)
                        genpos.append(j)
                        nxt.append(local[z])
            frontier = nxt
        elements = np.array(elements, dtype=np.int64)
        products = np.empty((len(elements), i), dtype=np.int64)
        for j, a in enumerate(gens):
            prods = S.T[elements, a]
            products[:, j] = [local[int(p)] for p in prods]
        out.append(_Prefix(
            elements=elements,
            local_of=local,
            layer_parent=np.array(parent, dtype=np.int64),
            layer_gen=np.array(genpos, dtype=np.int64),
            products=products,
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
        want = c1[S1.comm[a_prev, a_new]]
        keep = keep[c2[S2.comm[b_prev, keep]] == want]
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
# isomorphism search


@dataclass
class SearchOutcome:
    found: list
    nodes: int
    elapsed_s: float
    exhausted: bool

    @property
    def ok(self):
        return bool(self.found)


def find_isomorphism(ctx1: StructureContext, ctx2: StructureContext,
                     budget_secs: float = 7200.0, limit: int = 1) -> SearchOutcome:
    """Backtrack for a multiplicative bijection g1 -> g2.

    Anchor images run over color-matched candidates; each extension is
    validated by evaluating the generated subgroup in both groups in
    parallel.  A returned map is exhaustively verified.
    """
    S1, S2 = ctx1.S, ctx2.S
    t0 = time.monotonic()
    if S1.n != S2.n:
        return SearchOutcome([], 0, 0.0, True)
    c1, c2 = joint_colors(ctx1, ctx2)
    if sorted(c1.tolist()) != sorted(c2.tolist()):
        return SearchOutcome([], 0, time.monotonic() - t0, True)
    anchors, _ = _anchors_for(ctx1, c1)
    prefixes = _anchor_prefixes(S1, anchors)
    cand_lists = [np.flatnonzero(c2 == c1[a]) for a in anchors]
    found = []
    nodes = 0
    exhausted = True

    def rec(depth, chosen):
        nonlocal nodes, exhausted
        if found and len(found) >= limit:
            return True
        if time.monotonic() - t0 > budget_secs:
            raise ResourceError("isomorphism search exceeded its budget",
                                stats={"nodes": nodes, "found": len(found)})
        if depth == 4:
            img_local = _evaluate_prefix(prefixes[3], S2.T, chosen)
            if img_local is None:
                return False
            full = np.zeros(S1.n, dtype=np.uint16)
            full[prefixes[3].elements] = img_local.astype(np.uint16)
            candidate = AutoMapPair(S1, S2, full)
            found.append(candidate)
            return len(found) >= limit
        cands = _pair_filter(S1, S2, c1, c2, anchors[:depth], chosen,
                             anchors[depth], cand_lists[depth])
        for b in cands:
            nodes += 1
            trial = chosen + [int(b)]
            if _evaluate_prefix(prefixes[depth], S2.T, trial) is None:
                continue
            if rec(depth + 1, trial):
                return True
        return False

    try:
        rec(0, [])
    except ResourceError:
        exhausted = False
        raise
    return SearchOutcome(found, nodes, time.monotonic() - t0, exhausted)


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

    def apply(mat_cols, v):
        out = 0
        for bit in range(n_bits):
            if (v >> bit) & 1:
                out ^= mat_cols[bit]
        return out

    out = []
    for cols in itertools.product(range(16), repeat=4):
        imgs = [apply(cols, v) for v in range(16)]
        if len(set(imgs)) != 16:
            continue
        order3 = [imgs[imgs[imgs[v]]] for v in range(16)]
        if order3 != list(range(16)) or imgs == list(range(16)):
            continue
        if imgs[vq] != vq:
            continue
        if frozenset(imgs[c] for c in f1_coords) != f1_coords:
            continue
        if frozenset(imgs[c] for c in i0_coords) != i0_coords:
            continue
        pats = frozenset(frozenset(imgs[c] for c in p) for p in e_patterns)
        if pats != e_patterns:
            continue
        out.append(np.array(imgs, dtype=np.int64))
    return out


class _ActionDone(Exception):
    pass


def order3_automorphisms(ctx: StructureContext, budget_secs: float = 7200.0,
                         limit: int | None = None,
                         limit_per_tau: int | None = None,
                         checkpoint_path=None) -> SearchOutcome:
    """All order-3 automorphisms of S, by pruned backtrack over anchor images.

    Soundness of the pruning: Q, Phi(S), the central series, F1 and the
    set of six elementary abelian subgroups are characteristic (verified
    facts), and an order-3 automorphism induces an order-3 action on
    S/Phi(S) because the kernel of that restriction is a 2-group.  Every
    returned map passes the exhaustive multiplicativity check and has
    order exactly 3.

    `limit` caps the total number of maps returned; `limit_per_tau` caps
    the number per induced Frattini-quotient action, which is how callers
    sample maps with different actions on the characteristic structure.
    """
    S = ctx.S
    t0 = time.monotonic()
    colors = element_colors(ctx)
    anchors, coords = _anchors_for(ctx, colors)
    prefixes = _anchor_prefixes(S, anchors)
    taus = _frattini_action_candidates(ctx, coords)
    found = []
    seen = set()
    nodes = 0
    done_taus = set()
    if checkpoint_path is not None:
        try:
            with open(checkpoint_path) as fh:
                done_taus = set(json.load(fh)["done_taus"])
        except (OSError, ValueError, KeyError):
            done_taus = set()

    coset_members = {}
    for v in range(16):
        coset_members[v] = np.flatnonzero(coords == v)

    def candidates(anchor, tau):
        target = int(tau[int(coords[anchor])])
        pool = coset_members[target]
        return pool[colors[pool] == colors[anchor]]

    exhausted = True
    for ti, tau in enumerate(taus):
        if str(ti) in done_taus or ti in done_taus:
            continue
        cand_lists = [candidates(a, tau) for a in anchors]
        tau_found = 0

        def rec(depth, chosen):
            nonlocal nodes, tau_found
            if limit is not None and len(found) >= limit:
                return True
            if time.monotonic() - t0 > budget_secs:
                raise ResourceError(
                    "order-3 automorphism search exceeded its budget",
                    stats={"nodes": nodes, "found": len(found), "tau": ti})
            if depth == 4:
                img_local = _evaluate_prefix(prefixes[3], S.T, chosen)
                if img_local is None:
                    return False
                full = np.zeros(S.n, dtype=np.uint16)
                full[prefixes[3].elements] = img_local.astype(np.uint16)
                cube = full[full[full]]
                if not np.array_equal(cube, np.arange(S.n, dtype=np.uint16)):
                    return False
                if np.array_equal(full, np.arange(S.n, dtype=np.uint16)):
                    return False
                key = full.tobytes()
                if key not in seen:
                    seen.add(key)
                    found.append(AutoMap(S, full))
                    tau_found += 1
                if limit is not None and len(found) >= limit:
                    return True
                if limit_per_tau is not None and tau_found >= limit_per_tau:
                    raise _ActionDone()
                return False
            cands = _pair_filter(S, S, colors, colors, anchors[:depth], chosen,
                                 anchors[depth], cand_lists[depth])
            for b in cands:
                nodes += 1
                trial = chosen + [int(b)]
                if _evaluate_prefix(prefixes[depth], S.T, trial) is None:
                    continue
                if rec(depth + 1, trial):
                    return True
            return False

        try:
            stop_all = rec(0, [])
        except _ActionDone:
            stop_all = False
            exhausted = False
        except ResourceError:
            if checkpoint_path is not None:
                write_json_atomic(checkpoint_path, {"done_taus": sorted(done_taus)})
            raise
        if stop_all:
            exhausted = False
            break
        done_taus.add(ti)
        if checkpoint_path is not None:
            write_json_atomic(checkpoint_path,
                              {"done_taus": sorted(int(x) for x in done_taus)})
    return SearchOutcome(found, nodes, time.monotonic() - t0, exhausted)


# ---------------------------------------------------------------------------
# behavior of an order-3 map, in the shape the downstream checks expect


def order3_behavior(ctx: StructureContext, auto: AutoMap) -> dict:
    """Verify the expected action: trivial on Q/Phi(S), a single fixed
    nontrivial coset downstairs (the distinguished one), commutator image
    of order 4, and the six E's permuted in two 3-cycles."""
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
