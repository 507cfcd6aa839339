"""Stabilizer chains (base and strong generating sets) for permutation groups.

A chain answers two questions: the group order and membership (`contains`).
It is built only where one of them is read; the elements of a group are
enumerated by the closure engine (`cayley.closure_levels`), never from a
chain.

The construction is the deterministic Schreier-Sims algorithm, so a
finished chain is a certificate for the group order, not a Monte-Carlo
estimate.  Every Schreier generator of every level is sifted, except when
an upper bound on the group order is proved beforehand: that build stops
as soon as the product of its basic orbit lengths reaches the bound,
which is exact (see `build_stab_chain`).  Degrees up to ~2000 and orders
up to ~10^13 are the intended envelope.  Each level keeps a Schreier
vector, and a transversal element is composed as an image array the
first time it is read.

A chain is never re-based.  A point stabilizer is read off a chain built
with those points as its base prefix (`stabilizer_of_prefix`); the order
of a stabilizer of other points comes from orbit-stabilizer on a level of
the built chain, and one of its elements from `StabChain.with_base_images`
(`fusion.chamber_parabolic_slots`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .perms import (
    ConfigurationError,
    as_images,
    compose,
    identity_images,
    inverse,
    is_identity,
)


def orbit(generators, point: int):
    """Orbit of a point under a generator list: the orbit of a level with
    that base point (`_Level.recompute`), each BFS layer ascending, so the
    order does not depend on the order of the generators.
    """
    gens = [as_images(g) for g in generators]
    if not gens:
        raise ConfigurationError("generator list is empty")
    degree = gens[0].shape[0]
    for g in gens:
        if g.shape[0] != degree:
            raise ConfigurationError("degree mismatch among generators")
    if not (0 <= point < degree):
        raise ConfigurationError("point outside the domain")
    lv = _Level(point)
    lv.gens = gens
    lv.recompute(degree)
    return lv.orbit


class _Transversal(dict):
    """Transversal elements by orbit point, composed on first read.

    The Schreier vector of a level names, for each orbit point q other
    than the base, its tree edge: the parent point p and the generator g
    with p^g = q.  Then t_q = t_p then g, and each t_q is cached once
    built.  Reading a point outside the orbit raises KeyError.
    """

    __slots__ = ("parent", "gen_of", "gens")

    def __init__(self, base_element, base, parent, gen_of, gens):
        super().__init__({base: base_element})
        self.parent = parent
        self.gen_of = gen_of
        self.gens = gens

    def __missing__(self, q):
        path = []
        while q not in self:
            if self.parent[q] < 0:
                raise KeyError(q)
            path.append(q)
            q = self.parent[q]
        t = self[q]
        for r in reversed(path):
            t = self[r] = compose(t, self.gens[self.gen_of[r]])
        return t


class _Level:
    __slots__ = ("base", "gens", "orbit", "transversal", "inverses", "dirty")

    def __init__(self, base: int):
        self.base = base
        self.gens = []
        self.orbit = [base]
        self.transversal = {}
        self.inverses = {}
        self.dirty = True

    def in_orbit(self, p: int) -> bool:
        return self.transversal.parent[p] >= 0

    def is_tree_edge(self, p: int, gen_index: int, q: int) -> bool:
        """Whether t_q is t_p then gens[gen_index], so their Schreier
        generator is the identity."""
        tv = self.transversal
        return tv.parent[q] == p and tv.gen_of[q] == gen_index

    def inverse_of(self, p: int) -> np.ndarray:
        """Inverse of the transversal element reaching p, computed once."""
        inv = self.inverses.get(p)
        if inv is None:
            inv = self.inverses[p] = inverse(self.transversal[p])
        return inv

    def recompute(self, degree: int):
        """BFS orbit of the base point and its Schreier vector.

        One numpy step per layer.  Within a layer, sorted ascending, a new
        point's tree edge is the first (parent, generator) pair in
        row-major order.
        """
        parent = np.full(degree, -1, dtype=np.int64)
        gen_of = np.full(degree, -1, dtype=np.int64)
        parent[self.base] = self.base
        self.orbit = [self.base]
        k = len(self.gens)
        if k:
            stacked = np.stack(self.gens)
            frontier = np.array([self.base], dtype=np.int64)
            while frontier.size:
                images = stacked[:, frontier].T.ravel()
                points, first = np.unique(images, return_index=True)
                fresh = parent[points] < 0
                points, first = points[fresh], first[fresh]
                parent[points] = frontier[first // k]
                gen_of[points] = first % k
                frontier = points
                self.orbit.extend(points.tolist())
        self.transversal = _Transversal(identity_images(degree), self.base,
                                        parent.tolist(), gen_of.tolist(), self.gens)
        self.inverses = {}
        self.dirty = False


@dataclass
class StabChain:
    """Base, strong generators, basic orbits and their transversals."""

    degree: int
    levels: list = field(default_factory=list)

    @property
    def base(self):
        return [lv.base for lv in self.levels]

    def order(self) -> int:
        n = 1
        for lv in self.levels:
            n *= len(lv.orbit)
        return n

    def sift(self, g, start: int = 0):
        """Strip g through levels >= start.

        Returns (residue, level_reached).  residue is the identity iff g
        lies in the stabilizer-chain group below `start` and sifts fully.
        """
        for i in range(start, len(self.levels)):
            lv = self.levels[i]
            p = int(g[lv.base])
            if p == lv.base:
                continue
            if not lv.in_orbit(p):
                return g, i
            g = compose(g, lv.inverse_of(p))
        return g, len(self.levels)

    def with_base_images(self, images):
        """An element g with b_i^g = images[i] for the first len(images)
        base points b_i, or None when the group has none.

        Level by level, like `sift`, with no search.  Every element is
        u then t with t in level 0's transversal and u in the stabilizer
        of b_0, so g exists iff images[0] lies in level 0's orbit, at t,
        and some u in the stabilizer maps each later b_i to images[i]
        under t^-1; that is the same question one level down.  The element
        returned is the product of the transversal elements met.
        """
        targets = np.asarray(images, dtype=np.int64)
        if len(targets) > len(self.levels):
            raise ConfigurationError("more images than base points")
        if ((targets < 0) | (targets >= self.degree)).any():
            raise ConfigurationError("an image lies outside the domain")
        g = identity_images(self.degree)
        for i, lv in enumerate(self.levels[:len(targets)]):
            p = int(targets[i])
            if not lv.in_orbit(p):
                return None
            g = compose(lv.transversal[p], g)
            targets = lv.inverse_of(p)[targets]
        return g

    def contains(self, g) -> bool:
        g = as_images(g)
        if g.shape[0] != self.degree:
            raise ConfigurationError("degree mismatch")
        residue, _ = self.sift(g)
        return is_identity(residue)


@dataclass
class GroupHandle:
    """A named permutation group with optional certified chain."""

    name: str
    generators: list
    chain: StabChain | None = None

    def __post_init__(self):
        arrs = [as_images(g) for g in self.generators]
        if not arrs:
            raise ConfigurationError("generator list is empty")
        degrees = {a.shape[0] for a in arrs}
        if len(degrees) != 1:
            raise ConfigurationError("generators do not share one degree")
        self.generators = arrs

    @property
    def degree(self) -> int:
        return self.generators[0].shape[0]

    def order(self) -> int:
        if self.chain is None:
            self.chain = build_stab_chain(self)
        return self.chain.order()


def build_stab_chain(g: GroupHandle, base_hint=None, order=None) -> StabChain:
    """Deterministic Schreier-Sims: every Schreier generator is sifted once.

    base_hint is used as a base prefix (kept even when redundant), which
    is how flag stabilizers are carved out downstream.

    `order` is a proved upper bound on |G|, G = <g.generators>, or None.
    With it the build stops at the top of a level once the product of the
    basic orbit lengths equals `order`.  The stop is exact.  Level i's
    strong generators S(i) fix b_0..b_(i-1), and D_i is the orbit of b_i
    under <S(i)>.  As <S(i+1)> <= <S(i)>_(b_i),
    |<S(i)>| = |D_i| |<S(i)>_(b_i)| >= |D_i| |<S(i+1)>|, and by induction
    prod |D_i| <= |<S(0)>| <= |G| <= order.  Equality forces <S(0)> = G,
    <S(i+1)> = <S(i)>_(b_i) at every level and a trivial stabilizer of
    the last base point in the last level's group: the chain is complete,
    and every Schreier generator left unsifted would sift to the identity
    (Seress, Permutation Group Algorithms, 2003, ch. 4; Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).  A
    build that ends with another order raises.  The bound has two
    sources: `groupmodels.build_omega8plus2` (the order of a faithful
    action of the same matrix group) and `groupmodels.build_frame_model_gf3`
    (2^6 times the order of the generators' action on the 8 frame lines).
    """
    degree = g.degree
    chain = StabChain(degree=degree)
    for b in base_hint or []:
        chain.levels.append(_Level(int(b)))

    def add_gen(arr) -> int:
        """Insert a strong generator; returns the deepest level it joins."""
        k = 0
        while k < len(chain.levels) and arr[chain.levels[k].base] == chain.levels[k].base:
            k += 1
        if k == len(chain.levels):
            moved = int(np.nonzero(arr != np.arange(degree, dtype=arr.dtype))[0][0])
            chain.levels.append(_Level(moved))
        for j in range(k + 1):
            chain.levels[j].gens.append(arr)
            chain.levels[j].dirty = True
        return k

    for arr in g.generators:
        if not is_identity(arr):
            add_gen(arr)

    if not chain.levels:
        return chain  # trivial group

    def fresh(lv):
        if lv.dirty:
            lv.recompute(degree)

    i = len(chain.levels) - 1
    while i >= 0:
        if order is not None:
            for lv in chain.levels:
                fresh(lv)
            if chain.order() == order:
                break
        lv = chain.levels[i]
        fresh(lv)
        stuck = None
        for p in lv.orbit:
            t = lv.transversal[p]
            for si, s in enumerate(lv.gens):
                q = int(s[p])
                if lv.is_tree_edge(p, si, q):
                    continue
                schreier = compose(compose(t, s), lv.inverse_of(q))
                if is_identity(schreier):
                    continue
                residue, _ = chain.sift(schreier, start=i + 1)
                if not is_identity(residue):
                    stuck = add_gen(residue)
                    break
            if stuck is not None:
                break
        if stuck is None:
            i -= 1
        else:
            for j in range(stuck + 1):
                fresh(chain.levels[j])
            i = stuck
    if order is not None and chain.order() != order:
        raise ConfigurationError(
            "the chain has order %d, not the proved order %d" % (chain.order(), order))
    verify_chain(chain, g.generators)
    g.chain = chain
    return chain


def verify_chain(chain: StabChain, original_gens=None) -> None:
    """Certificate checks left over once the build loop has finished.

    The Schreier generators need no second sift.  The build loop leaves
    level i only after every Schreier generator of level i sifts to the
    identity through levels i+1.., and a generator it adds joins levels
    0..k only, for some k > i, and sends the loop back to level k.  So on
    exit every level passed its sift against the final deeper levels, and
    by Schreier's lemma each level's group is the base-point stabilizer
    of the one above (Seress, Permutation Group Algorithms, 2003, ch. 4).
    A build that stopped at a proved order skipped some of those sifts;
    there the order equality proves the same (`build_stab_chain`).
    What remains: each transversal element reaches its point, no strong
    generator moves an earlier base point, and every original generator
    is a member.  Transversal elements composed so far are checked
    directly, the others through the Schreier vector: each orbit point q
    but the base has a parent p earlier in the orbit and a generator g
    with p^g = q, so by induction along the orbit t_q = t_p then g reaches
    q.  Raises on any failure; afterwards order() is exact.
    """
    degree = chain.degree
    for i, lv in enumerate(chain.levels):
        if lv.dirty:
            lv.recompute(degree)
        tv = lv.transversal
        for p, t in dict.items(tv):
            if int(t[lv.base]) != p:
                raise ConfigurationError("transversal element does not reach its point")
        points = np.asarray(lv.orbit, dtype=np.int64)
        position = np.full(degree + 1, len(points))  # off the orbit, or -1
        position[points] = np.arange(len(points))
        q = points[1:]
        parent, gen_of = np.asarray(tv.parent)[q], np.asarray(tv.gen_of)[q]
        if ((position[parent] >= position[q]) | (gen_of < 0)
                | (gen_of >= len(lv.gens))).any():
            raise ConfigurationError("a Schreier vector entry does not lie on the orbit")
        for gi, s in enumerate(lv.gens):
            sel = gen_of == gi
            if (s[parent[sel]] != q[sel]).any():
                raise ConfigurationError("a Schreier vector edge misses its point")
        prefix = np.asarray(chain.base[:i], dtype=np.int64)
        for s in lv.gens:
            if (s[prefix] != prefix).any():
                raise ConfigurationError("strong generator moves an earlier base point")
    for arr in original_gens or []:
        if not chain.contains(arr):
            raise ConfigurationError("original generator not in the constructed chain")


def stabilizer_of_prefix(g: GroupHandle, points) -> GroupHandle:
    """Pointwise stabilizer of an ordered point list, as a fresh handle.

    The points must be a prefix of g.chain's base, so the stabilizer's
    strong generators fall out of the chain directly; without a chain,
    one is built with the points as its base prefix.  Other points raise
    `ConfigurationError`: a chain is not re-based.
    """
    points = [int(p) for p in points]
    if not points:
        if g.chain is None:
            build_stab_chain(g)
        return GroupHandle(g.name, g.generators, g.chain)
    chain = g.chain
    if chain is None:
        chain = g.chain = build_stab_chain(
            GroupHandle(g.name, g.generators),
            base_hint=points)
    elif chain.base[: len(points)] != points:
        raise ConfigurationError("%r is not a prefix of the chain's base" % (points,))
    k = len(points)
    sub = StabChain(degree=chain.degree, levels=chain.levels[k:])
    if k < len(chain.levels):
        gens = list(chain.levels[k].gens)
    else:
        gens = []
    if not gens:
        gens = [identity_images(chain.degree)]
    handle = GroupHandle(
        name="%s_stab%r" % (g.name, tuple(points)),
        generators=gens,
        chain=sub,
    )
    return handle
