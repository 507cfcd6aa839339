"""Fusion-system assembly on the Sylow 2-subgroup and its key invariants.

A fusion system here is concrete data: the Cayley group S, essential
slots (a subgroup plus the conjugation by one order-3 element of an
ambient overgroup), and the maps granted to S itself (Inn(S) always, plus
one verified order-3 map for the ":3" variants).  Element fusion is the
orbit closure of those partial bijections; normality of a subgroup in the
system is the essential-plus-S invariance criterion; the distinguishing
fingerprint is the variant-free summary (essential count, class multiset,
induced automizer orders on the six elementary abelian subgroups).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .automorphisms import order3_automorphisms
from .cayley import (AutoMap, CayleyGroup, ClosureError, SubgroupBits, closure_levels,
                     find_keys, inner_automap, invariant_core, orbit_minima)
from .domains import singular_objects
from .groupmodels import (
    Frame,
    ModelBundle,
    a8_elements,
    check_in_omega,
    frame_from_involutions,
    frame_line_action,
    perm_matrix,
)
from .perms import ConfigurationError, inverse
from .quadforms import (GF3_SPACE, PreconditionError, gf2_nullspace, gf3_inverse,
                        invariant_quadratic_forms, q)
from .rootmodel import chamber_triality
from .stabchain import GroupHandle, build_stab_chain
from .structure import StructureContext

log = logging.getLogger(__name__)

VARIANTS = ("O8p2", "O8p2x3", "PO8p3", "PO8p3x3")
_COSET_BLOCK = 256  # rows per block of the chamber slots' coset scan


@dataclass
class EssentialSlot:
    """An essential subgroup with automizer generators from one model: for
    the parabolic slots, the conjugation by one order-3 element."""

    subgroup: SubgroupBits
    automizer_gens: list            # AutoMap objects on the subgroup
    model_tag: str
    outer_order: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        """Run once, at construction: the subgroup is self-centralizing in S,
        and each automizer generator is defined on it and keeps element
        orders and the centre."""
        S = self.subgroup.group
        cent = S.centralizer(S.generating_set(self.subgroup))
        if (cent.bits & ~self.subgroup.bits).any():
            raise ConfigurationError("slot subgroup is not self-centralizing in S")
        z = S.center_of(self.subgroup)
        for a in self.automizer_gens:
            if a.domain is None or not np.array_equal(a.domain.bits,
                                                      self.subgroup.bits):
                raise ConfigurationError("automizer generator has the wrong domain")
            m = self.subgroup.members
            if not (S.order_of[a.images[m]] == S.order_of[m]).all():
                raise ConfigurationError("automizer generator changes element orders")
            zimg = np.zeros(S.n, dtype=bool)
            zimg[a.images[z.members]] = True
            if not np.array_equal(zimg, z.bits):
                raise ConfigurationError("automizer generator moves the center")


@dataclass
class FusionSystem:
    ctx: StructureContext
    essentials: list
    aut_s_gens: list                # AutoMap objects defined on all of S
    variant: str
    notes: dict = field(default_factory=dict)

    @property
    def s(self) -> CayleyGroup:
        return self.ctx.S

    def all_generator_maps(self):
        maps = []
        for slot in self.essentials:
            maps.extend(slot.automizer_gens)
        maps.extend(self.aut_s_gens)
        return maps


@dataclass
class FusionClassPartition:
    class_id: np.ndarray            # minimal member of each element's class

    def class_table(self, order_of):
        """Rows (element order, class size, class count), sorted."""
        reps, counts = np.unique(self.class_id, return_counts=True)
        tally = {}
        for rep, size in zip(reps, counts):
            key = (int(order_of[rep]), int(size))
            tally[key] = tally.get(key, 0) + 1
        return tuple(sorted((o, s, c) for (o, s), c in tally.items()))


# ---------------------------------------------------------------------------
# essential candidates


def essential_candidates(ctx: StructureContext):
    """F1 = C_S(Z2(S)) plus the four maximal subgroups of S that contain Q and
    miss the distinguished coset (fours groups in S/Q), sorted by their three
    least Q-coset representatives, which two distinct fours groups never share."""
    S = ctx.S
    f1 = S.centralizer(ctx.Z2.members)
    if f1.order != 2048:
        raise ConfigurationError("C_S(Z2) does not have index 2")
    if ctx.Q <= f1:
        raise ConfigurationError("Q unexpectedly centralizes Z2(S)")
    fours = [m for m in S.maximal_subgroups() if ctx.Q <= m and not m.bits[ctx.i0_coset]]
    if len(fours) != 4:
        raise ConfigurationError("expected 4 fours-subgroups avoiding the "
                                 "distinguished coset, found %d" % len(fours))
    fours.sort(key=lambda m: tuple(np.unique(ctx.coset_rep[m.bits])[:3]))
    out = [f1]
    for cand in fours:
        if sum(1 for e in ctx.six_E if e <= cand) != 3:
            raise ConfigurationError("candidate does not contain exactly 3 of the six "
                                     "elementary abelian subgroups")
        cent = S.centralizer(S.generating_set(cand))
        if (cent.bits & ~cand.bits).any():
            raise ConfigurationError("candidate is not self-centralizing")
        out.append(cand)
    return out


def pair_of_elab(ctx: StructureContext, candidates, e: SubgroupBits):
    """Indices (into candidates) of the two Q-containing members containing e."""
    hits = [k for k in range(1, 5) if e <= candidates[k]]
    if len(hits) != 2:
        raise ConfigurationError("an elementary abelian subgroup lies in %d of the "
                                 "four overgroups, not 2" % len(hits))
    return tuple(hits)


# ---------------------------------------------------------------------------
# automizers from ambient models


def conjugation_automap(bundle: ModelBundle, domain: SubgroupBits, g) -> AutoMap:
    """x -> g^-1 x g on a subgroup of the Sylow, computed in the ambient.

    The conjugates of all domain members are looked up by their signature
    columns alone; only the generators' conjugates are compared at full
    degree.  That suffices: x -> g^-1 E[x] g and x -> E[j(x)] are both
    homomorphisms on the domain once the AutoMap check has passed (E is an
    injective homomorphism by the table's construction,
    `CayleyGroup.from_generators`), and they agree on the generators.
    """
    S = bundle.sylow
    members = domain.members
    idx = bundle.conjugate_indices(g, members, verify=False)
    gens = S.generating_set(domain)
    at_gens = bundle.conjugate_indices(g, gens)
    if (idx < 0).any() or (at_gens != idx[find_keys(members, gens)]).any():
        raise ConfigurationError("conjugation leaves the Sylow on the domain")
    images = np.arange(S.n, dtype=np.uint16)
    images[members] = idx
    return AutoMap(S, images, domain)


def _map_group_order(domain: SubgroupBits, images) -> int:
    """Order of the permutation group that the image arrays, each mapping
    the domain onto itself, generate on the domain."""
    members = domain.members
    local = np.full(domain.group.n, -1, dtype=np.int64)
    local[members] = np.arange(len(members))
    gens = [local[img[members]].astype(np.uint16) for img in images]
    return build_stab_chain(GroupHandle("automizer", gens)).order()


def automizer_from_model(bundle: ModelBundle, order3_elem, tag: str) -> EssentialSlot:
    """Slot for the 2-radical R of the minimal overgroup P = <S, g3> of S.

    The caller proves P = <S, g3>: |P : S| = 3 is prime and g3 lies in P
    outside S, so no group lies strictly between S and P.  By Alperin's
    theorem the system is generated by Inn(S) and the automizers Aut_P(R)
    (Aschbacher, Kessar and Oliver, *Fusion Systems in Algebra and
    Topology*, 2011, Part I), and Aut_P(R) is generated by the restrictions
    c_s|_R (s in S) and c_g3.  The slot keeps c_g3 alone: the system holds
    each c_s on all of S once, in `FusionSystem.aut_s_gens`, and a
    restriction c_s|_R adds nothing that any reader sees:

    - its fusion edges (x, x^s) are a subset of those of c_s;
    - `check_O2`'s R lies in every domain, and there c_s|_R and c_s agree;
    - on each E inside R it induces the same linear map as c_s, which
      `aut_group_on_elab` deduplicates.

    Conjugation by any other element of P is a word in these maps, so it
    adds no fusion orbit and no invariant subgroup either.

    R = S meet S^g3 meet S^(g3^-1), the intersection of the three Sylow
    conjugates of S in P, is the largest subset of S that conjugation by
    g3 and by g3^-1 both map into S, and so into itself: such a subset X
    has X^g3 and X^(g3^-1) inside S, so X lies in R, and R is normal in
    P.  R is the fixpoint M of those two conjugations (`invariant_core`)
    on signature lookups, proved by the order-3 map's own check:

    - Every member of R has conjugates by g3 and g3^-1 in R, and each hits
      its own signature, so the fixpoint M keeps all of R.
    - `conjugation_automap(bundle, M, g3)` proves that M is a subgroup
      (the closure check of its generating set), that the lookup permutes
      M homomorphically (the AutoMap check), and that the lookup equals
      full-degree conjugation on M's generators.  Conjugation by g3 and
      the lookup followed by the embedding are homomorphisms on M that
      agree on generators, so they agree everywhere: conjugation by g3
      permutes M inside S, and so does its inverse, conjugation by g3^-1.
      Hence M is inside R, and M = R.

    A failure raises `ConfigurationError` naming the slot tag.  The slot's
    independent oracle is the order of Aut_P(R), built as a chain on R's
    2048 members from Inn(S)'s image arrays (R has index 2, so S normalizes
    it) and c_g3: it must exceed the S-conjugation image S / C_S(R), read
    off one centralizer, by exactly 3, so the outer automizer has order 6.
    """
    S = bundle.sylow
    g3 = np.asarray(order3_elem, dtype=np.uint16)
    everything = np.arange(S.n)
    radical = SubgroupBits(S, invariant_core(np.ones(S.n, dtype=bool), [
        bundle.conjugate_indices(conj, everything, verify=False)
        for conj in (g3, inverse(g3))]))
    if radical.order != 2048:
        raise ConfigurationError("%s: radical of the minimal overgroup has order %d"
                                 % (tag, radical.order))
    try:
        order3_map = conjugation_automap(bundle, radical, g3)
    except (ClosureError, ConfigurationError) as exc:
        raise ConfigurationError("%s: conjugation by the order-3 element does not "
                                 "permute the signature radical: %s" % (tag, exc)) from exc
    if order3_map.map_order() != 3:
        raise ConfigurationError("conjugation by the order-3 element has wrong order")
    inner = [S.conj_map_images(gi) for gi in S.generating_set()]
    big = _map_group_order(radical, inner + [order3_map.images])
    small = S.n // S.centralizer(S.generating_set(radical)).order
    if big != 3 * small:
        raise ConfigurationError("outer automizer odd part is %s, not 3" % (big / small))
    return EssentialSlot(subgroup=radical, automizer_gens=[order3_map], model_tag=tag,
                         outer_order=6)


# -- chamber model: the four minimal flag stabilizers ------------------------


def _cubes(rows) -> np.ndarray:
    """The cube of each image array along the last axis of `rows`."""
    return np.take_along_axis(rows, np.take_along_axis(rows, rows, axis=-1), axis=-1)


def _order3_rows(rows) -> np.ndarray:
    """Which rows of a stack of image arrays have order 3, at full degree."""
    ident = np.arange(rows.shape[1])
    return (_cubes(rows) == ident).all(axis=1) & (rows != ident).any(axis=1)


def _flag_stabilizer_order(ambient: GroupHandle, base, omit: int) -> int:
    """|Stab(flag minus b_omit)| in O8+(2), from the verified ambient chain.

    With the flag b_0..b_3 as the chain's base prefix, the level-k group
    G^(k) is the stabilizer of b_0..b_(k-1), of order the product of the
    basic orbit lengths from level k down.  The stabilizer of the flag
    minus b_k is the stabilizer in G^(k) of the tuple (b_(k+1), .., b_3),
    so by orbit-stabilizer its order is |G^(k)| over the length of that
    tuple's orbit under G^(k), enumerated by `closure_levels` on point
    tuples.  Level 0 uses the ambient generators, the fewest for G^(0).
    """
    levels = ambient.chain.levels[omit:]
    gens = ambient.generators if omit == 0 else levels[0].gens
    tail = base[omit + 1:]
    length = 1
    if tail:
        for rows, *_ in closure_levels([tail], np.stack(gens), np.arange(len(tail))):
            length += len(rows)
    return math.prod(len(lv.orbit) for lv in levels) // length


def chamber_parabolic_slots(bundle: ModelBundle):
    """One slot per minimal flag-stabilizer overgroup P of the chamber Sylow.

    For omitted position k, P = Stab(flag minus b_k), and no chain of
    O8+(2) is built:

    - |P| comes from the verified ambient chain, whose base prefix is the
      flag, by orbit-stabilizer (`_flag_stabilizer_order`); it must be
      3 * 4096.
    - x is the element of P that `StabChain.with_base_images` gives for
      the first c != b_k in level k's orbit such that some element maps
      b_k to c and fixes the other flag points.  The generators of S and
      x must fix the flag minus b_k, so S and x lie in P, and x moves b_k,
      so it lies outside S.
    - g3 is the first element of order 3 in the coset S x, in S's index
      order.  It exists: |P : S| = 3, so for any y of order 3 in P, S y
      and S y^2 are the two cosets other than S, and S x is one of them,
      so y or y^2 lies in S x.  g3 lies in P outside S, and |P : S| is
      prime, so P = <S, g3>.

    One code path serves all four slots; for k = 3 the tuple is empty.
    The certificates do not depend on which g3 is taken, though the maps
    c_g3 do.  Each of the six E's is normal in S and |P : S| = 3 is prime,
    so N_P(E) is S or P: either every order-3 element of P stabilises E
    or none does.  When N_P(E) = P, C_P(E) is normal in P and has index 1
    or 3 over C_S(E); in the second case it holds every Sylow 3-subgroup
    of P, so every g3 centralises E, and in the first none does.  So
    whether c_g3 stabilises or centralises E does not depend on g3, and
    neither do Aut_P(E) = <Aut_S(E), c_g3|E>, since P = <S, g3>, and the
    generated system.
    """
    ambient = bundle.ambient
    chain = ambient.chain
    base = bundle.extras["flag_base"]
    s_gens = list(bundle.embedding[bundle.sylow.generating_set()])
    slots = []
    for omit in range(4):
        tag = "omega8plus2-parabolic-omit%d" % omit
        if chain.base[:omit + 1] != base[:omit + 1]:
            raise ConfigurationError("%s: the flag is not a base prefix of the ambient "
                                     "chain" % tag)
        order = _flag_stabilizer_order(ambient, base, omit)
        if order != 3 * 4096:
            raise ConfigurationError("%s: minimal flag stabilizer has order %d" % (tag, order))
        sub_base = [b for k, b in enumerate(base) if k != omit]
        x = None
        for c in chain.levels[omit].orbit[1:]:
            x = chain.with_base_images(base[:omit] + [c] + base[omit + 1:])
            if x is not None:
                break
        if x is None or x[base[omit]] == base[omit]:
            raise ConfigurationError("%s: no element moves the omitted flag point" % tag)
        if any((g[sub_base] != sub_base).any() for g in s_gens + [x]):
            raise ConfigurationError("%s: a generator moves a flag point" % tag)
        g3 = None
        for start in range(0, bundle.sylow.n, _COSET_BLOCK):
            rows = x[bundle.embedding[start:start + _COSET_BLOCK]]  # s then x
            hits = np.flatnonzero(_order3_rows(rows))
            if len(hits):
                g3 = rows[hits[0]]
                break
        if g3 is None:
            raise ConfigurationError("%s: the coset S x holds no element of order 3" % tag)
        slots.append(automizer_from_model(bundle, g3, tag=tag))
    return slots


# -- frame models: the three minimal overgroups over the letter action -------


def _letter_group(gens, cap):
    """The elements of <gens> on 8 letters, as rows, by `closure_levels`.

    The closure stops at the first level that takes it past `cap` rows, so
    a result of at most `cap` rows is the whole group: an exact order test.
    """
    rows = [np.arange(8, dtype=np.uint16)[None, :]]
    for new, *_ in closure_levels(rows[0], gens, np.arange(8)):
        rows.append(new)
        if sum(map(len, rows)) > cap:
            break
    return np.concatenate(rows)


def minimal_overgroups_in_alternating(t_gens):
    """Order-3 letter permutations generating the three minimal overgroups
    of an order-64 Sylow inside the alternating group on 8 letters.

    Deterministic scan of the order-3 rows of `groupmodels.a8_elements`,
    in the closure engine's order, stopping once three distinct overgroups
    of order 192 are collected.  Two order-192 groups containing T are
    equal iff one contains the other's extra generator, so an element
    inside an overgroup already found is skipped.  So, before the scan,
    is an e with some t e (t in T) whose order does not divide 192:
    <T, e> cannot have order 192.  T and each <T, e> are enumerated
    (`_letter_group`); no chain is built.
    """
    t_gens = [np.asarray(t, dtype=np.uint16) for t in t_gens]
    t_rows = _letter_group(t_gens, 64)
    if len(t_rows) != 64:
        raise ConfigurationError("letter image of the Sylow does not have order 64")
    a8 = a8_elements()
    cands = a8[_order3_rows(a8)]
    power = _cubes(cands[:, t_rows])  # [e, t]: (t then e)^3, then ^64 below
    for _ in range(6):
        power = np.take_along_axis(power, power, axis=-1)
    inside, found = set(), []  # the members of the overgroups found, as bytes
    for e in cands[(power == np.arange(8)).all(axis=(1, 2))]:
        if e.tobytes() in inside:
            continue
        rows = _letter_group(t_gens + [e], 192)
        if len(rows) == 192:
            inside.update(row.tobytes() for row in rows)
            found.append(e)
            if len(found) == 3:
                break
    if len(found) != 3:
        raise ConfigurationError("found %d minimal overgroups, expected 3" % len(found))
    return found


def frame_parabolic_slots(bundle: ModelBundle, frame: Frame, tag_prefix: str):
    """Slots from the three minimal overgroups of S inside one frame group.

    The frame group maps onto the alternating group of its 8 lines; the
    minimal overgroups of S are the preimages of the minimal overgroups of
    the letter image of S, realized by lifting one order-3 letter
    permutation each.  The preimage P of a letter group of order 192 has
    order 3 * |S|, so P = <S, g3> for the lift g3 (`automizer_from_model`).
    No chain of the frame group is built; each fact it stood for rests here:

    - S permutes the frame lines: `frame_line_action` raises unless each
      generator matrix of S does.
    - g3 lies in Omega: `check_in_omega` proves it for the lifted letter.
      Its `check_isometry` also rejects a letter that moves a line to one
      of another Q-value, so a frame with mixed Q-values gives no slot
      through such a letter; it raises `ConfigurationError`.
    - The radical and its automizer: `automizer_from_model` checks the
      radical's order and the odd part 3 of its automizer, and the slot
      checks that the radical is self-centralizing.
    """
    t_gens = [frame_line_action(frame, bundle.matrices[int(gi)])
              for gi in bundle.sylow.gen_indices]
    letters = minimal_overgroups_in_alternating(t_gens)
    c = frame.basis_matrix()
    cinv = gf3_inverse(c)
    dom = singular_objects(GF3_SPACE, "points")
    slots = []
    for k, rho in enumerate(letters):
        mat = (c @ perm_matrix(rho) @ cinv) % 3
        check_in_omega(mat)
        g3 = dom.perm_of_matrix(mat)
        slots.append(automizer_from_model(bundle, g3,
                                          tag="%s-parabolic-%d" % (tag_prefix, k)))
    return slots


def second_frame_group(bundle: ModelBundle, ctx: StructureContext, candidates):
    """The frame of the one E whose overgroup pair is disjoint from the
    sign-change E's pair, so the two frame models cover all four
    Q-containing candidates.  Returns the frame and that pair.

    The six E's carry the six 2-subsets of the four candidates, so exactly
    one pair is disjoint from the sign-change E's; anything else, or an E
    whose involution lifts have no common frame, raises.
    """
    d_bits = bundle.extras["O2"].bits
    pairs = [pair_of_elab(ctx, candidates, e) for e in ctx.six_E]
    d_pair = next(set(p) for e, p in zip(ctx.six_E, pairs)
                  if np.array_equal(e.bits, d_bits))
    hits = [i for i, p in enumerate(pairs) if not d_pair & set(p)]
    if len(hits) != 1:
        raise ConfigurationError("%d elementary abelian subgroups have an overgroup "
                                 "pair disjoint from %s, not 1" % (len(hits), sorted(d_pair)))
    i = hits[0]
    try:
        frame = frame_from_involutions(_involution_lifts(bundle, ctx.six_E[i]))
    except PreconditionError as exc:
        raise ConfigurationError("elementary abelian subgroup %d (overgroup pair %s) "
                                 "admits no frame model: %s" % (i, pairs[i], exc)) from exc
    return frame, pairs[i]


def _involution_lifts(bundle: ModelBundle, e: SubgroupBits):
    lifts = []
    ident = np.eye(8, dtype=np.int64)
    for i in e.members:
        if int(i) == 0:
            continue
        m = np.asarray(bundle.matrices[int(i)], dtype=np.int64) % 3
        if not np.array_equal((m @ m) % 3, ident):
            m = (2 * m) % 3
        if not np.array_equal((m @ m) % 3, ident):
            raise PreconditionError("projective involution has no involution lift")
        lifts.append(m)
    return lifts


# ---------------------------------------------------------------------------
# system assembly


def inner_aut_s_maps(bundle: ModelBundle):
    S = bundle.sylow
    return [inner_automap(S, g) for g in S.generating_set()]


def compatible_order3_map(ctx: StructureContext, candidates, auto: AutoMap):
    """Check the order-3 map fixes F1 and exactly one Q-containing candidate,
    permuting the other three; returns the fixed candidate index."""
    if auto.map_order() != 3:
        raise ConfigurationError("the S-map does not have order 3")
    if not auto.stabilizes(candidates[0]):
        raise ConfigurationError("the order-3 map moves C_S(Z2)")
    fixed = [k for k in range(1, 5) if auto.stabilizes(candidates[k])]
    if len(fixed) != 1:
        raise ConfigurationError("the order-3 map fixes %d of the four candidates"
                                 % len(fixed))
    return fixed[0]


def build_fusion_system(variant: str, bundle: ModelBundle,
                        ctx: StructureContext | None = None,
                        order3: AutoMap | None = None,
                        order3_budget: float = 3600.0) -> FusionSystem:
    """Assemble one of the four systems over the given Sylow realization.

    O8p2 variants expect the flag-model bundle; PO8p3 variants expect the
    frame-model bundle (slots come from two frame groups with disjoint
    candidate pairs).  ":3" variants additionally require a verified
    order-3 map on S fixing F1 and exactly one other candidate; for
    O8p2x3 the fixed candidate must be the non-essential one.  When no
    map is supplied, O8p2x3 takes the diagram triality, substituted on the
    flag table (`rootmodel.chamber_triality`; notes["order3_source"] is
    "root-triality"), and PO8p3x3 the first map of the order-3 search
    ("search").
    """
    if variant not in VARIANTS:
        raise ConfigurationError("unknown variant %r" % variant)
    ctx = ctx or StructureContext(bundle)
    if ctx.bundle is not bundle:
        raise ConfigurationError("the structure context belongs to another bundle")
    candidates = ctx.once("candidates", lambda: essential_candidates(ctx))
    if variant.startswith("O8p2"):
        if bundle.provenance != "omega8plus2-flag":
            raise ConfigurationError("O8p2 systems are built over the flag model")
        slots, notes = ctx.once("slots", lambda: _chamber_slots(bundle, candidates))
    else:
        if bundle.provenance != "frame-gf3":
            raise ConfigurationError("PO8p3 systems are built over the frame model")
        slots, notes = ctx.once("slots", lambda: _frame_slots(bundle, ctx, candidates))
    slots, notes = list(slots), dict(notes)
    aut_s = inner_aut_s_maps(bundle)
    if variant.endswith("x3"):
        need = notes.get("non_essential_candidate") if variant == "O8p2x3" else None
        if order3 is None and variant == "O8p2x3":
            order3 = chamber_triality(bundle)
            notes["order3_source"] = "root-triality"
        elif order3 is None:
            outcome = order3_automorphisms(ctx, budget_secs=order3_budget, limit=1)
            if not outcome.ok:
                raise ConfigurationError("the order-3 search found no map")
            order3 = outcome.found[0]
            notes["order3_source"] = "search"
            notes["order3_search_nodes"] = outcome.nodes
        fixed = compatible_order3_map(ctx, candidates, order3)
        notes["order3_fixed_candidate"] = fixed
        if need is not None and fixed != need:
            raise ConfigurationError(
                "the order-3 map fixes a different candidate than the "
                "non-essential one")
        aut_s = aut_s + [order3]
    fs = FusionSystem(ctx=ctx, essentials=slots, aut_s_gens=aut_s, variant=variant,
                      notes=notes)
    _validate_system(fs)
    return fs


def _chamber_slots(bundle: ModelBundle, candidates):
    """The four parabolic slots of O8+(2), and notes naming the candidate
    that is no slot radical."""
    slots = chamber_parabolic_slots(bundle)
    matched = _match_slots(candidates, slots)
    if 0 not in matched:
        raise ConfigurationError("no parabolic radical equals C_S(Z2)")
    missing = [k for k in range(1, 5) if k not in matched]
    if len(missing) != 1:
        raise ConfigurationError("expected exactly one non-radical candidate")
    return slots, {"non_essential_candidate": missing[0],
                   "non_essential_witness": "not the radical of any minimal flag "
                                            "stabilizer"}


def _frame_slots(bundle: ModelBundle, ctx: StructureContext, candidates):
    """One slot per candidate, from two frame groups with disjoint pairs."""
    slots = frame_parabolic_slots(bundle, bundle.extras["frame"], "frame-standard")
    frame2, pair2 = second_frame_group(bundle, ctx, candidates)
    slots2 = frame_parabolic_slots(bundle, frame2, "frame-disjoint")
    slots_by_candidate = dict(zip(_match_slots(candidates, slots), slots))
    for k, slot in zip(_match_slots(candidates, slots2), slots2):
        if k not in slots_by_candidate:
            slots_by_candidate[k] = slot
    if sorted(slots_by_candidate) != [0, 1, 2, 3, 4]:
        raise ConfigurationError("frame models cover candidates %s, not all five"
                                 % sorted(slots_by_candidate))
    return ([slots_by_candidate[k] for k in sorted(slots_by_candidate)],
            {"second_frame_pair": pair2})


def _match_slots(candidates, slots):
    out = []
    for slot in slots:
        hit = [k for k, cand in enumerate(candidates)
               if np.array_equal(cand.bits, slot.subgroup.bits)]
        if len(hit) != 1:
            raise ConfigurationError("a slot radical is not among the five candidates")
        out.append(hit[0])
    if len(set(out)) != len(out):
        raise ConfigurationError("two slots share one candidate")
    return out


def _validate_system(fs: FusionSystem):
    """Slots validate themselves when built; the S-maps must act on all of S."""
    for a in fs.aut_s_gens:
        if a.domain is not None:
            raise ConfigurationError("S-maps must be defined on all of S")


# ---------------------------------------------------------------------------
# element fusion


def fuse_elements(fs: FusionSystem) -> FusionClassPartition:
    """Finest partition closed under every generator map: the orbit minima
    (`orbit_minima`) of the edges (x, a(x)) over the domain of every map a."""
    src, dst = [], []
    for a in fs.all_generator_maps():
        dom = a.domain.members if a.domain is not None else np.arange(fs.s.n)
        src.append(dom)
        dst.append(a.images[dom])
    part = FusionClassPartition(class_id=orbit_minima(fs.s.n, np.concatenate(src),
                                                      np.concatenate(dst)))
    _validate_partition(fs, part)
    return part


def _validate_partition(fs: FusionSystem, part: FusionClassPartition):
    S = fs.s
    if int(part.class_id[0]) != 0 or int((part.class_id == 0).sum()) != 1:
        raise ConfigurationError("identity is not a singleton fusion class")
    if not (S.order_of == S.order_of[part.class_id]).all():
        raise ConfigurationError("element order is not constant on a fusion class")
    # classes are unions of S-conjugacy classes: constant on each, so equal
    # to their value on its least member
    if not np.array_equal(part.class_id[S.conjugacy_classes()], part.class_id):
        raise ConfigurationError("an S-conjugacy class is split by fusion")


# ---------------------------------------------------------------------------
# normality / the 2-radical of the system


def check_O2(fs: FusionSystem) -> SubgroupBits:
    """Largest subgroup inside every essential subgroup that every generator
    map sends to itself.

    The top-down fixpoint `invariant_core`, from R = the intersection of
    the essentials, under the generator maps.  R lies in every map's
    domain (a slot map's domain is its slot; an S-map's is S), so each
    step intersects R with the preimages a^-1(R), which are subgroups, and
    R stays a subgroup.  At the fixpoint a(R) <= R, hence a(R) = R as a is
    injective: R is invariant, and it contains every invariant subgroup.
    """
    S = fs.s
    r = np.ones(S.n, dtype=bool)
    for slot in fs.essentials:
        r &= slot.subgroup.bits
    return SubgroupBits(S, invariant_core(r, [a.images for a in fs.all_generator_maps()]))


# ---------------------------------------------------------------------------
# induced automizer on an elementary abelian subgroup


def aut_group_on_elab(fs: FusionSystem, e: SubgroupBits):
    """Matrix group induced on one of the six elementary abelian subgroups.

    Every generator map defined on a domain containing e and sending e to
    itself permutes the 64 vectors of e's verified GF(2)-coordinates, and
    that permutation must be linear; maps moving e are skipped with a log
    entry.  The action on e is faithful, so the matrix group's order is the
    order of the permutation group the maps induce on e's members.
    """
    S = fs.s
    coords, basis = S.elementary_quotient_coords(S.trivial_bits(), e)
    if len(basis) != 6:
        raise ConfigurationError("subgroup does not have rank 6")
    members = e.members
    bits = (np.arange(64)[:, None] >> np.arange(6)) & 1
    applicable, vec_perms, seen = [], [], set()
    skipped = 0
    for a in fs.all_generator_maps():
        if a.domain is not None and not a.domain.bits[members].all():
            skipped += 1
            continue
        if not e.bits[a.images[members]].all():
            skipped += 1
            log.debug("map does not stabilize the subgroup; skipped")
            continue
        vp = np.empty(64, dtype=np.int64)
        vp[coords[members]] = coords[a.images[members]]
        if vp.tobytes() in seen:
            continue
        seen.add(vp.tobytes())
        # exactness: vp must be the linear map with columns vp[1 << k]
        if not np.array_equal(np.bitwise_xor.reduce(bits * vp[1 << np.arange(6)],
                                                    axis=1), vp):
            raise ConfigurationError("induced map is not linear on the subgroup")
        applicable.append(a)
        vec_perms.append(vp)
    order = _map_group_order(e, [a.images for a in applicable]) if applicable else 1
    return {"order": order, "generator_count": len(applicable),
            "skipped_maps": skipped, "form": _invariant_form_info(vec_perms)}


def _invariant_form_info(vec_perms):
    """Quadratic forms on F_2^6 invariant under the vector permutations,
    classified when unique."""
    null = invariant_quadratic_forms(vec_perms)
    info = {"space_dim": len(null)}
    if len(null) == 1:
        sol = null[0]
        singular = sum(1 for v in range(1, 64) if q(sol, v) == 0)
        info["singular_count"] = singular
        info["plus_type"] = singular == 35
        # nondegeneracy of the polar form
        gram_rows = []
        for i in range(6):
            row = 0
            for j in range(6):
                bij = q(sol, (1 << i) ^ (1 << j)) ^ q(sol, 1 << i) ^ q(sol, 1 << j)
                row |= bij << j
            gram_rows.append(row)
        nullity = len(gf2_nullspace(gram_rows, 6))
        info["polar_nullity"] = nullity
        info["nondegenerate"] = nullity == 0
    return info


def delete_slot(fs: FusionSystem, candidate_bits: SubgroupBits) -> FusionSystem:
    """The same system minus the slot whose subgroup matches the given bits:
    a seeded defect for the radical tests."""
    kept = [s for s in fs.essentials
            if not np.array_equal(s.subgroup.bits, candidate_bits.bits)]
    if len(kept) == len(fs.essentials):
        raise ConfigurationError("no slot matches the subgroup to delete")
    return FusionSystem(ctx=fs.ctx, essentials=kept, aut_s_gens=fs.aut_s_gens,
                        variant=fs.variant + "-deleted", notes=dict(fs.notes))


def inner_only_system(fs: FusionSystem) -> FusionSystem:
    """Only the inner maps of S; its radical is S itself.  A seeded defect
    for the radical tests."""
    inner = [a for a in fs.aut_s_gens if a.domain is None]
    return FusionSystem(ctx=fs.ctx, essentials=[], aut_s_gens=inner,
                        variant="inner-only", notes={})


# ---------------------------------------------------------------------------
# the ambient-conjugacy oracle for involution fusion


def ambient_involution_fusion(bundle: ModelBundle) -> np.ndarray:
    """Partition of the involutions of S by conjugacy in the ambient group.

    For each unlabeled involution the full ambient conjugacy class (tens
    of thousands of elements) is streamed level by level through
    `closure_levels` under x -> g^-1 x g, keyed on the ambient chain's
    base: elements of a verified chain's group that agree on its base are
    equal.  Each level meets S by `bundle.lookup`, which compares every
    hit at full degree.  The independent oracle for the flag-model fusion
    partition: it shares no code with the systems, only `closure_levels`
    with the Sylow table build.  That engine is checked apart from both:
    tier-1 runs Light's test and the full-degree embedding check on every
    built table (`tests/test_groupmodels.py`).
    """
    S = bundle.sylow
    post = np.stack(bundle.ambient.generators)
    pre = np.stack([inverse(g) for g in post])
    base = bundle.ambient.chain.base
    labels = np.full(S.n, -1, dtype=np.int64)
    label = -1
    for i in np.flatnonzero(S.order_of == 2):
        if labels[i] >= 0:
            continue
        label += 1
        hits = [[i]]
        for rows, *_ in closure_levels(bundle.embedding[i][None, :], post, base, pre):
            idx = bundle.lookup(rows[:, bundle.sig_cols], rows)
            hits.append(idx[idx >= 0])
        hits = np.concatenate(hits)
        if ((labels[hits] >= 0) & (labels[hits] != label)).any():
            raise ConfigurationError("ambient classes overlap")
        labels[hits] = label
    return labels


def involution_partition_matches_ambient(fs: FusionSystem,
                                         partition: FusionClassPartition,
                                         bundle: ModelBundle) -> dict:
    """Element-by-element comparison of the fusion classes of involutions
    against ambient conjugacy restricted to S: the tests' oracle check."""
    S = fs.s
    amb = ambient_involution_fusion(bundle)
    inv = np.flatnonzero(S.order_of == 2)
    fus = partition.class_id[inv]
    amb_i = amb[inv]
    # the two labelings must induce the same partition
    pair_to_f = {}
    pair_to_a = {}
    agree = True
    for f, a in zip(fus.tolist(), amb_i.tolist()):
        if pair_to_f.setdefault(a, f) != f or pair_to_a.setdefault(f, a) != a:
            agree = False
            break
    return {
        "involutions": int(len(inv)),
        "fusion_classes": int(len(np.unique(fus))),
        "ambient_classes": int(len(np.unique(amb_i))),
        "agree": agree,
    }


# ---------------------------------------------------------------------------
# fingerprints and reports


def fingerprint_fusion(fs: FusionSystem, partition: FusionClassPartition | None = None):
    """Variant-free summary: essential count, class multiset, induced orders."""
    part = partition or fuse_elements(fs)
    table = part.class_table(fs.s.order_of)
    aut_orders = []
    for e in fs.ctx.six_E:
        aut_orders.append(aut_group_on_elab(fs, e)["order"])
    return (len(fs.essentials), table, tuple(sorted(aut_orders)))


def fusion_report(fs: FusionSystem, partition=None, o2=None) -> dict:
    """The certificate record of one system: its fingerprint, slots and radical."""
    essential_count, table, aut_orders = fingerprint_fusion(fs, partition)
    o2 = o2 if o2 is not None else check_O2(fs)
    return {
        "variant": fs.variant,
        "essential_count": essential_count,
        "essentials": [{
            "order": slot.subgroup.order,
            "model_tag": slot.model_tag,
            "outer_order": slot.outer_order,
        } for slot in fs.essentials],
        "class_table": [{"order": o, "size": s, "count": c} for o, s, c in table],
        "o2_order": o2.order,
        "autFE_orders": list(aut_orders),
        "notes": dict(fs.notes),
        "status": "pass" if o2.order == 1 else "fail",
    }
