"""The exhaustive structure battery for the 4096-element group S.

Every check here is a full loop over the Cayley table of one Sylow
realization: centers and central series, the distinguished extraspecial
subgroup Q of order 2^9, the six elementary abelian subgroups of order
2^6 and their intersection pattern, coset commutator shapes, the Frattini
quotient, elementary abelian subgroups of the central quotient, and the
uniqueness of Q.  Checks return LemmaReport records; a failing check
carries witness data instead of raising.
"""

from __future__ import annotations

import logging
from functools import cached_property

import numpy as np

from .cayley import CayleyGroup, ClosureError, SubgroupBits, enumerate_elab_subgroups
from .groupmodels import ModelBundle, a8_elements, a8_generators
from .perms import ConfigurationError, perm_from_cycles
from .reports import LemmaReport, check_timer
from .quadforms import invariant_quadratic_forms, q
from .stabchain import orbit
from .valuations import closed_form_families, two_part_valuation

log = logging.getLogger(__name__)


class StructureContext:
    """Lazily computed characteristic structure of one Sylow realization."""

    def __init__(self, bundle: ModelBundle):
        self.bundle = bundle
        self.S = bundle.sylow
        self.memo = {}  # see once()

    def once(self, key: str, build):
        """build(), run once per context and kept under `key`.

        This is what later layers derive from the context alone: the
        element colours, the fusion candidates and the slots, which every
        search and fusion variant over one model shares.
        """
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    @cached_property
    def series(self):
        return self.S.upper_central_series()

    @property
    def Z(self) -> SubgroupBits:
        return self.series[0]

    @property
    def Z2(self) -> SubgroupBits:
        return self.series[1]

    @property
    def Z3(self) -> SubgroupBits:
        return self.series[2]

    @cached_property
    def derived(self) -> SubgroupBits:
        return self.S.derived_subgroup()

    @cached_property
    def phi(self) -> SubgroupBits:
        return self.S.frattini()

    @cached_property
    def phi_coords(self):
        """Verified (coords, basis) on S/Phi(S), by `elementary_quotient_coords`."""
        return self.S.elementary_quotient_coords(self.phi)

    @cached_property
    def Q_coords(self):
        """Verified (coords, basis) on S/Q; `ClosureError` unless elementary abelian."""
        return self.S.elementary_quotient_coords(self.Q)

    @cached_property
    def Q(self) -> SubgroupBits:
        """The extraspecial subgroup of order 2^9 above the Frattini subgroup.

        There are 15 subgroups of order 512 containing Phi(S); exactly one
        is extraspecial.  (Global uniqueness among all index-8 subgroups is
        re-established by the dedicated uniqueness check.)
        """
        coords, basis = self.phi_coords
        if len(basis) != 4:
            raise ConfigurationError("S/Phi(S) does not have rank 4")
        hits = []
        for v in range(1, 16):
            # the preimage of <v> under coordinates check_quotient_coords verified
            sub = SubgroupBits(self.S, (coords == 0) | (coords == v))
            if self.S.is_extraspecial(sub):
                hits.append(sub)
        if len(hits) != 1:
            raise ConfigurationError("expected a unique extraspecial candidate, got %d"
                                     % len(hits))
        q = hits[0]
        if "Q" in self.bundle.extras:
            if not np.array_equal(q.bits, self.bundle.extras["Q"].bits):
                raise ConfigurationError("intrinsic Q differs from the recorded one")
        return q

    @cached_property
    def coset_rep(self) -> np.ndarray:
        """Minimal representative of the Q-coset of each element."""
        return self.S.coset_reps(self.Q)

    @cached_property
    def nontrivial_cosets(self):
        reps = np.unique(self.coset_rep)
        return [int(r) for r in reps if r != 0]

    @cached_property
    def coset_data(self):
        """Per nontrivial coset Qs: the commutator subgroup [Q, s] and its shape.

        [Q, s] is closed once per coset, at its least member.  It is the
        same for every member once `check_commutator_witnesses` passes:
        Q is extraspecial, so Z(Q) = Q' = <z>, and Q contains Phi(S), so
        it is normal and [Q, s] <= Q.  [Q, s] is normalised by Q, since
        [q, s]^x = [qx, s] [x, s]^-1.  Holding some y in Q outside Z(Q),
        it holds y^x = yz for an x in Q with [y, x] = z, hence z.  Then
        for x, q in Q, [x, sq] = [x, q] [x, s]^q with [x, q] in <z>, so
        [Q, sq] <= [Q, s], and the same argument from sq gives equality.
        """
        S = self.S
        out = {}
        for rep in self.nontrivial_cosets:
            members = np.flatnonzero(self.coset_rep == rep)
            self.check_commutator_witnesses(members)
            sub = S.closure(np.unique(S._commutators(self.Q.members, [rep])))
            out[rep] = {
                "commutator": sub,
                "elementary_abelian": S.is_elementary_abelian(sub),
                "members": members,
            }
        return out

    @cached_property
    def elab_offenders(self):
        """(offenders, nodes): the exhaustive search of `check_elab`.

        The elementary abelian subgroups of order 64 of S/Z(S) outside
        Q/Z(S), as preimages, by one rank-6 search modulo Z avoiding Q, and
        its node count.  `check_elab` claims there are none, and
        `check_sixe` rests on that claim, so the search runs once per
        context.
        """
        return enumerate_elab_subgroups(self.S, rank=6, avoid=self.Q, modulo=self.Z)

    @cached_property
    def ZQ(self) -> SubgroupBits:
        """Z(Q), of order 2 as Q is extraspecial."""
        return self.S.center_of(self.Q)

    def check_commutator_witnesses(self, members) -> None:
        """Raise unless every s in `members` has some [q, s], q in Q, outside Z(Q).

        Only Q's generators are tried, which is exact.  Z(Q) has order 2,
        as Q is extraspecial, and is characteristic in Q, which contains
        Phi(S) and so is normal in S; so Z(Q) is central in S.  As
        [q1 q2, s] = [q1, s]^q2 [q2, s], the q in Q with [q, s] in Z(Q)
        form a subgroup, and it is all of Q exactly when it holds every
        generator of Q.
        """
        S = self.S
        outside = ~self.ZQ.bits[S._commutators(S.generating_set(self.Q), members)]
        if not outside.any(axis=0).all():
            raise ConfigurationError("[Q, s] lies in Z(Q) for some s of the coset")

    @cached_property
    def i0_coset(self) -> int:
        """The unique coset whose commutator with Q is not elementary abelian."""
        bad = [r for r, d in self.coset_data.items() if not d["elementary_abelian"]]
        if len(bad) != 1:
            raise ConfigurationError("expected one non-elementary-abelian coset, got %d"
                                     % len(bad))
        return bad[0]

    @cached_property
    def six_E(self):
        """The elementary abelian subgroups of order 64, by the coset scan."""
        S, Q = self.S, self.Q
        qm = Q.members
        found = {}
        invol = np.flatnonzero((S.order_of == 2) & ~Q.bits)
        commuting = S._commutators(qm, invol) == 0
        for col, s in enumerate(invol):
            s = int(s)
            cq = qm[commuting[:, col]]
            if 2 * len(cq) != 64:
                continue
            bits = np.zeros(S.n, dtype=bool)
            bits[cq] = True
            bits[S.T[cq, s]] = True
            if (S.order_of[np.flatnonzero(bits)] > 2).any():
                continue
            sub = SubgroupBits(S, bits)
            found.setdefault(sub.key(), sub)  # each E is reached from 32 involutions
        found = [sub for sub in found.values() if S.is_abelian(sub)]
        for sub in found:
            S.check_closed(sub)
        return sorted(found, key=lambda e: tuple(e.members[:4]))

    @cached_property
    def E_coset(self):
        """coset rep -> E for the six cosets carrying an E."""
        out = {}
        for e in self.six_E:
            outside = np.flatnonzero(e.bits & ~self.Q.bits)
            reps = set(int(self.coset_rep[i]) for i in outside)
            if len(reps) != 1:
                raise ConfigurationError("an E meets more than one Q-coset")
            rep = reps.pop()
            if rep in out:
                raise ConfigurationError("two E's share a Q-coset")
            out[rep] = e
        return out


def _report(lemma_id, claim, timer, ok, witnesses) -> LemmaReport:
    return LemmaReport(
        lemma_id=lemma_id,
        status="pass" if ok else "fail",
        witnesses=witnesses,
        elapsed_ms=timer.elapsed_ms,
        claim=claim,
    )


# ---------------------------------------------------------------------------
# individual checks


def check_cent(ctx: StructureContext) -> LemmaReport:
    claim = "|Z(S)| = 2, |Z2(S)| = 4, S/Q elementary abelian of order 8"
    with check_timer() as t:
        w = {
            "Z_order": ctx.Z.order,
            "Z2_order": ctx.Z2.order,
            "coset_count": len(ctx.nontrivial_cosets) + 1,
        }
        try:
            ctx.Q_coords  # verified coordinates exist iff S/Q is elementary abelian
            w["Sbar_elementary_abelian"] = True
        except ClosureError:
            w["Sbar_elementary_abelian"] = False
        w["Z_in_Q"] = bool(ctx.Z <= ctx.Q)
        w["Z2_in_Q"] = bool(ctx.Z2 <= ctx.Q)
        w["ZQ_equals_ZS"] = bool(np.array_equal(ctx.ZQ.bits, ctx.Z.bits))
        ok = (w["Z_order"] == 2 and w["Z2_order"] == 4 and w["coset_count"] == 8
              and w["Sbar_elementary_abelian"] and w["Z_in_Q"] and w["Z2_in_Q"]
              and w["ZQ_equals_ZS"])
    return _report("cent", claim, t, ok, w)


def searched_E(ctx: StructureContext):
    """(E's, nodes): the search of `check_sixe`, whose docstring proves it exhaustive.

    The preimages of the leaves of one rank-5 search of S/Z(S) outside
    Q/Z(S) that are elementary abelian, and the search's node count.
    """
    S = ctx.S
    leaves, nodes = enumerate_elab_subgroups(S, rank=5, avoid=ctx.Q, modulo=ctx.Z)
    return [e for e in leaves if S.is_elementary_abelian(e)], nodes


def check_sixe(ctx: StructureContext) -> LemmaReport:
    """The coset scan of `six_E` against one exhaustive search of S/Z(S).

    `searched_E` finds every elementary abelian subgroup E of order 64:

    - no E lies in Q.  Q is extraspecial of order 2^(1+8) (`ctx.Q`), and
      for an elementary abelian A <= Q the image AZ(Q)/Z(Q) is totally
      isotropic for the non-degenerate commutator form on Q/Z(Q) = GF(2)^8,
      so |A| <= 2^5 (Gorenstein, *Finite Groups*, 1968, 5.5; Aschbacher,
      *Finite Group Theory*, 23).  Hence ``inside_Q_count`` is 0;
    - every E outside Q contains Z = Z(S), which has order 2 and lies in
      Q.  Were Z not in E, EZ/Z = E would be an elementary abelian
      subgroup of order 64 of S/Z outside Q/Z, and the exhaustive search
      of `check_elab` (``ctx.elab_offenders``) finds none;
    - so each E is the preimage of an elementary abelian subgroup of
      order 32 of S/Z outside Q/Z: a leaf of the rank-5 search, whose
      elementary abelian preimages are kept.

    ``premise_offenders`` is the offender count of that `elab` search; any
    offender fails the check.  Were |Z| not 2, every leaf would have order
    32|Z|, and no scanned E would match.  ``search_nodes`` is the node
    count of the rank-5 search.
    """
    claim = ("exactly 6 elementary abelian subgroups of order 64, each meeting Q "
             "in index 2; the scan is certified complete by exhaustive search")
    with check_timer() as t:
        Q = ctx.Q
        es = ctx.six_E
        w = {"count": len(es)}
        w["index_in_Q"] = [int(e.order // np.count_nonzero(e.bits & Q.bits))
                           for e in es]
        offenders, _ = ctx.elab_offenders
        complete, nodes = searched_E(ctx)
        w["inside_Q_count"] = 0  # the rank bound in extraspecial Q, above
        w["premise_offenders"] = len(offenders)
        w["search_nodes"] = nodes
        w["search_count"] = len(complete)
        same = {e.key() for e in es} == {e.key() for e in complete}
        w["scan_matches_search"] = bool(same)
        w["coset_bijection"] = len(ctx.E_coset) == 6
        ok = (len(es) == 6 and all(i == 2 for i in w["index_in_Q"])
              and not offenders and same and w["coset_bijection"])
    return _report("sixe", claim, t, ok, w)


def check_cosets(ctx: StructureContext) -> LemmaReport:
    claim = ("[Q,s] mod Z(Q) is the 16-element centralizer of s in Q/Z(Q) for every "
             "coset; one coset has [Q,s] of type Z4xZ2xZ2xZ2, six are elementary "
             "abelian of order 32 containing Z(Q)")
    with check_timer() as t:
        S, Q, Z = ctx.S, ctx.Q, ctx.Z
        qm = Q.members
        shapes = {}
        cent_ok = True
        for rep, data in ctx.coset_data.items():
            sub = data["commutator"]
            # centralizer modulo Z(Q) in Q of every coset member s (one column
            # per s), which must not depend on s
            hits = Z.bits[S._commutators(qm, data["members"])]
            if not (hits == hits[:, :1]).all():
                cent_ok = False
            cent_bits = np.zeros(S.n, dtype=bool)
            cent_bits[qm[hits[:, 0]]] = True
            lifted = np.zeros(S.n, dtype=bool)
            for z in Z.members:
                lifted[S.T[sub.members, int(z)]] = True
            lifted |= sub.bits
            if not np.array_equal(lifted, cent_bits):
                cent_ok = False
            shapes[rep] = {
                "order": sub.order,
                "elementary_abelian": data["elementary_abelian"],
                "contains_Z": bool(Z <= sub),
                "mod_Z_order": int(cent_bits.sum()) // Z.order,
            }
        nonea = [r for r, sh in shapes.items() if not sh["elementary_abelian"]]
        w = {"shapes": {str(k): v for k, v in shapes.items()},
             "non_elementary_cosets": len(nonea),
             "centralizer_match": cent_ok}
        z4_shape = False
        if len(nonea) == 1:
            sub = ctx.coset_data[nonea[0]]["commutator"]
            z4_shape = S.abelian_invariant_check(sub, (4, 2, 2, 2))
        w["z4_z2_z2_z2"] = z4_shape
        i0_members = ctx.coset_data[ctx.i0_coset]["members"]
        w["i0_has_involutions"] = bool((S.order_of[i0_members] == 2).any())
        w["i0_involution_count"] = int((S.order_of[i0_members] == 2).sum())
        ok = (cent_ok and len(nonea) == 1 and z4_shape
              and all(sh["mod_Z_order"] == 16 for sh in shapes.values())
              and all(sh["order"] == 32 for sh in shapes.values())
              and all(sh["contains_Z"] for sh in shapes.values())
              and all(sh["elementary_abelian"] for r, sh in shapes.items()
                      if r != ctx.i0_coset))
    return _report("cosets", claim, t, ok, w)


def check_cosetpairs(ctx: StructureContext) -> LemmaReport:
    claim = ("for distinct cosets: [Q/Z,si][Q/Z,sj] has order 64 and "
             "[Q/Z,si,sj] has order 4")
    with check_timer() as t:
        S, Z = ctx.S, ctx.Z
        reps = ctx.nontrivial_cosets
        prod_orders = set()
        double_orders = set()
        for a in range(len(reps)):
            for b in range(len(reps)):
                if a == b:
                    continue
                ca = ctx.coset_data[reps[a]]["commutator"]
                sb = int(ctx.coset_data[reps[b]]["members"][0])
                am = ca.members
                cb = ctx.coset_data[reps[b]]["commutator"]
                # product set [Q,si][Q,sj], then reduce mod Z
                prods = np.unique(S.T[np.ix_(am, cb.members)])
                prod_sub = S.closure(prods)
                prod_orders.add(prod_sub.order // Z.order)
                # iterated commutator [[Q,si], sj] mod Z
                seeds = np.unique(S._commutators(am, [sb]))
                dsub = S.closure(seeds)
                lift = S.closure(np.concatenate([dsub.members, Z.members]))
                double_orders.add(lift.order // Z.order)
        w = {"product_mod_Z_orders": sorted(prod_orders),
             "double_commutator_mod_Z_orders": sorted(double_orders)}
        ok = prod_orders == {64} and double_orders == {4}
    return _report("cosetpairs", claim, t, ok, w)


def check_eintersect(ctx: StructureContext) -> LemmaReport:
    claim = ("Z2(S) lies in every E; distinct E's satisfy [E1,E2] = E1 inter E2 "
             "of order 8")
    with check_timer() as t:
        S = ctx.S
        es = ctx.six_E
        w = {"Z2_in_every_E": all(ctx.Z2 <= e for e in es)}
        inter_orders = set()
        match = True
        for i in range(len(es)):
            for j in range(i + 1, len(es)):
                inter = es[i].bits & es[j].bits
                seeds = np.unique(S._commutators(es[i].members, es[j].members))
                csub = S.closure(seeds)
                inter_orders.add(int(inter.sum()))
                if not np.array_equal(csub.bits, inter):
                    match = False
        w["intersection_orders"] = sorted(inter_orders)
        w["commutator_equals_intersection"] = match
        ok = w["Z2_in_every_E"] and inter_orders == {8} and match
    return _report("eintersect", claim, t, ok, w)


def check_z3(ctx: StructureContext) -> LemmaReport:
    claim = ("Z3(S) is elementary abelian of order 32, self-centralizing, inside Q, "
             "and meets every E in order 16")
    with check_timer() as t:
        S = ctx.S
        z3 = ctx.Z3
        w = {
            "Z3_order": z3.order,
            "Z3_elementary_abelian": S.is_elementary_abelian(z3),
            "Z3_in_Q": bool(z3 <= ctx.Q),
            "self_centralizing": bool(np.array_equal(
                S.centralizer(z3.members).bits, z3.bits)),
            "E_meet_orders": sorted({int((z3.bits & e.bits).sum())
                                     for e in ctx.six_E}),
        }
        ok = (w["Z3_order"] == 32 and w["Z3_elementary_abelian"] and w["Z3_in_Q"]
              and w["self_centralizing"] and w["E_meet_orders"] == [16])
    return _report("z3", claim, t, ok, w)


def check_z3meet(ctx: StructureContext) -> LemmaReport:
    """Centralizers in Q of the involutions outside Q, one gather per E.

    For x in Ei and y in Ej outside Q, C_Q(x) inter C_Q(y) equals the
    intersection I = Ei inter Ej iff I lies in Q, every member of I
    centralizes x and y, and no q in Q outside I centralizes both.  The
    last is one boolean product per pair (i, j), of the centralizer
    columns of Ei and Ej restricted to the rows of Q outside I.
    """
    claim = ("for involutions x, y outside Q in different E's: "
             "Ex inter Ey = C_Q(x) inter C_Q(y) inside Z3(S); and C_Q(s) lies in "
             "Z3(S) for involutions over the distinguished coset")
    with check_timer() as t:
        S, Q, z3 = ctx.S, ctx.Q, ctx.Z3
        qm = Q.members
        es = ctx.six_E
        outside = [np.flatnonzero(e.bits & ~Q.bits) for e in es]
        ok = not any(((es[i].bits & es[j].bits) & ~z3.bits).any()
                     for i in range(len(es)) for j in range(i + 1, len(es)))
        # cent[i][q, x]: q in Q centralizes the x-th member of Ei outside Q
        cent = [S._commutators(qm, o) == 0 for o in outside]
        exhaustive_pairs = 0
        for i in range(len(es)):
            for j in range(len(es)):
                if i == j:
                    continue
                exhaustive_pairs += len(outside[i]) * len(outside[j])
                inter_bits = es[i].bits & es[j].bits
                inside = inter_bits[qm]
                both = (cent[i][~inside].T.astype(np.int32)
                        @ cent[j][~inside].astype(np.int32))
                ok = (ok and not (inter_bits & ~Q.bits).any()
                      and cent[i][inside].all() and cent[j][inside].all()
                      and not both.any())
        w = {"pairs_checked": exhaustive_pairs}
        i0_members = ctx.coset_data[ctx.i0_coset]["members"]
        i0_inv = i0_members[S.order_of[i0_members] == 2]
        w["i0_involutions"] = int(len(i0_inv))
        cq = S._commutators(qm, i0_inv) == 0
        cq_in_z3 = not (cq & ~z3.bits[qm][:, None]).any()
        w["CQ_of_i0_involutions_in_Z3"] = cq_in_z3
        ok = ok and cq_in_z3
    return _report("z3meet", claim, t, ok, w)


def check_frattini(ctx: StructureContext) -> LemmaReport:
    claim = ("S/Phi(S) has order 16, the derived subgroup equals Phi(S), "
             "Phi(S) has index 2 in Q and equals C_Q(Z2(S))")
    with check_timer() as t:
        S = ctx.S
        phi, der = ctx.phi, ctx.derived
        cq_z2 = S.centralizer(ctx.Z2.members, within=ctx.Q)
        w = {
            "S_mod_Phi": S.n // phi.order,
            "derived_equals_phi": bool(np.array_equal(der.bits, phi.bits)),
            "phi_in_Q": bool(phi <= ctx.Q),
            "Q_mod_phi": ctx.Q.order // phi.order,
            "phi_equals_CQ_Z2": bool(np.array_equal(phi.bits, cq_z2.bits)),
        }
        ok = (w["S_mod_Phi"] == 16 and w["derived_equals_phi"] and w["phi_in_Q"]
              and w["Q_mod_phi"] == 2 and w["phi_equals_CQ_Z2"])
    return _report("frattini", claim, t, ok, w)


def check_elab(ctx: StructureContext) -> LemmaReport:
    """No elementary abelian subgroup of S/Z of order 64 or more lies outside Q/Z.

    Z = Z(S) is Z(Q) by `check_cent`.  One search at rank 6 proves the
    claim for every order of at least 64: an elementary abelian subgroup
    of larger order outside Q/Z is a GF(2) space with a vector outside
    Q/Z, and a 6-dimensional subspace through that vector is one of order
    64 outside Q/Z.  `check_sixe` rests on this search
    (``ctx.elab_offenders``), which runs once per context.
    """
    claim = ("in S/Z(Q), every elementary abelian subgroup of order at least 64 "
             "lies inside Q/Z(Q)")
    with check_timer() as t:
        offenders, nodes = ctx.elab_offenders
        w = {"quotient_order": ctx.S.n // ctx.Z.order, "offenders": len(offenders),
             "search_nodes": nodes}
        ok = len(offenders) == 0
    return _report("elab", claim, t, ok, w)


def check_extraspecial_unique(ctx: StructureContext) -> LemmaReport:
    claim = "Q is the unique extraspecial subgroup of order 512 in S"
    with check_timer() as t:
        S = ctx.S
        idx8 = S.subgroups_of_index(8)
        # is_extraspecial's first test on all rows at once: one non-trivial square
        lone = S.lone_squares([sub.bits for sub in idx8])
        hits = [idx8[i] for i in np.flatnonzero(lone > 0) if S.is_extraspecial(idx8[i])]
        w = {"index8_count": len(idx8), "extraspecial_count": len(hits)}
        ok = len(hits) == 1 and np.array_equal(hits[0].bits, ctx.Q.bits)
        if ok:
            w["type"] = S.extraspecial_type(hits[0])
            ok = w["type"] == "+"
    return _report("extraspecial", claim, t, ok, w)


def check_a8(ctx: StructureContext) -> LemmaReport:
    """Affine-model check of the alternating-group centralizer structure.

    Inside the linear part: the centralizer of the deep involution is a
    192-element group with an extraspecial plus-type core of order 32, and
    the commutator subspaces on the module separate the two involution
    types by isotropy.  The alternating group is enumerated by the closure
    engine (`groupmodels.a8_elements`), so its order is the row count.
    """
    claim = ("centralizer of the deep involution in the linear part has an "
             "extraspecial plus-type core of order 32; commutator subspaces "
             "separate involution types by isotropy")
    if ctx.bundle.provenance != "affine-A8":
        raise ConfigurationError("the alternating-group check runs on the affine model")
    module = ctx.bundle.extras["module"]
    with check_timer() as t:
        elems = a8_elements()
        w = {"a8_order": len(elems)}
        x = perm_from_cycles(8, [(0, 1), (2, 3), (4, 5), (6, 7)])
        cent = elems[(x[elems] == elems[:, x]).all(axis=1)]
        w["centralizer_order"] = len(cent)
        qx_gens = [
            x,
            perm_from_cycles(8, [(0, 2), (1, 3), (4, 6), (5, 7)]),
            perm_from_cycles(8, [(0, 4), (1, 5), (2, 6), (3, 7)]),
            perm_from_cycles(8, [(0, 3), (1, 2), (4, 6), (5, 7)]),
            perm_from_cycles(8, [(0, 5), (1, 4), (2, 6), (3, 7)]),
        ]
        extra = [perm_from_cycles(8, [(0, 2, 4), (1, 3, 5)]),
                 perm_from_cycles(8, [(0, 2), (1, 3)])]
        cgrp = CayleyGroup.from_generators(qx_gens + extra, name="C_A8(x)")
        qx = cgrp.closure(cgrp.gen_indices[:len(qx_gens)])
        w["qx_order"] = qx.order
        w["qx_extraspecial"] = cgrp.is_extraspecial(qx)
        w["qx_type"] = cgrp.extraspecial_type(qx) if w["qx_extraspecial"] else None
        # <Q_x, extra> lies in the exhaustively found centralizer and has its
        # order, so the two are equal
        cent_keys = {c.tobytes() for c in cent}
        w["qx_with_sigma3_is_full_centralizer"] = (
            cgrp.n == len(cent) == 192
            and all(e.tobytes() in cent_keys for e in cgrp.elements))
        key_to_idx = {e.tobytes(): i for i, e in enumerate(cgrp.elements)}
        listed = [perm_from_cycles(8, [(0, 1), (2, 3)]),
                  perm_from_cycles(8, [(0, 1), (4, 5)]),
                  perm_from_cycles(8, [(2, 3), (4, 5)])]
        w["listed_involutions_in_qx"] = all(
            key_to_idx[p.tobytes()] in qx for p in listed)

        # commutator subspaces on the module, with the invariant form
        def comm_space(perm8):
            vals = sorted({module.add(module.act(perm8, m), m) for m in range(64)})
            return vals

        deep = comm_space(x)
        shallow = comm_space(perm_from_cycles(8, [(0, 1), (2, 3)]))
        w["deep_space_size"] = len(deep)
        w["deep_isotropic"] = all(module.weight_form(m) == 0 for m in deep)
        w["shallow_space_size"] = len(shallow)
        w["shallow_isotropic"] = all(module.weight_form(m) == 0 for m in shallow)
        # the singular vectors are one orbit: the weight-4 classes
        gens64 = [module.linear_perm(p) for p in a8_generators()]
        orbit_set = set(orbit(gens64, module.subset((0, 1, 2, 3))))
        singular = {m for m in range(1, 64) if module.weight_form(m) == 0}
        w["weight4_orbit_size"] = len(orbit_set)
        w["orbit_is_singular_set"] = orbit_set == singular

        # the invariant quadratic form is unique up to scalar; coordinates:
        # letters 1..6 are the unit vectors, letter 7 is the all-ones vector
        reps = module.reps
        coords = ((reps >> 1) & 0x3F) ^ (0x3F * ((reps >> 7) & 1))
        vec_perms = []
        for g in gens64:
            vp = np.empty(64, dtype=np.int64)
            vp[coords] = coords[g]
            vec_perms.append(vp)
        null = invariant_quadratic_forms(vec_perms)
        w["invariant_form_space_dim"] = len(null)
        ok_form = len(null) == 1 and all(
            q(null[0], int(coords[m])) == module.weight_form(m) for m in range(64))
        w["form_matches_weight_form"] = ok_form
        ok = (w["a8_order"] == 20160 and w["centralizer_order"] == 192
              and w["qx_order"] == 32 and w["qx_extraspecial"]
              and w["qx_type"] == "+" and w["qx_with_sigma3_is_full_centralizer"]
              and w["listed_involutions_in_qx"]
              and w["deep_space_size"] == 4 and w["deep_isotropic"]
              and w["shallow_space_size"] == 4 and not w["shallow_isotropic"]
              and w["weight4_orbit_size"] == 35 and w["orbit_is_singular_set"]
              and ok_form)
    return _report("a8", claim, t, ok, w)


def check_valuation(ctx_or_none, q_values=(3, 5, 7, 11, 13)) -> LemmaReport:
    claim = ("closed-form 2-adic valuations match direct polynomial valuations; "
             "the plus-type dimension-8 family gives 12 at q=3")
    with check_timer() as t:
        w = {"families": {}}
        ok = True
        for fam in closed_form_families():
            vals = {}
            for q in q_values:
                try:
                    vals[q] = two_part_valuation(fam, q)
                except ConfigurationError as exc:
                    vals[q] = str(exc)
                    ok = False
            w["families"][fam] = vals
        pinned = {("POmega8+", 3): 12, ("POmega7", 3): 9, ("G2", 3): 6}
        for (fam, q), expect in pinned.items():
            got = two_part_valuation(fam, q)
            w.setdefault("pinned", {})["%s_q%d" % (fam, q)] = got
            ok = ok and got == expect
    return _report("valuation", claim, t, ok, w)


CHECKS = {
    "cent": check_cent,
    "sixe": check_sixe,
    "cosets": check_cosets,
    "cosetpairs": check_cosetpairs,
    "eintersect": check_eintersect,
    "z3": check_z3,
    "z3meet": check_z3meet,
    "frattini": check_frattini,
    "elab": check_elab,
    "extraspecial": check_extraspecial_unique,
}

# accepted aliases for selector convenience on the CLI
CHECK_ALIASES = {
    "center": "cent",
    "six64": "sixe",
    "l64a": "sixe",
    "l64b": "cosets",
    "l64c": "cosetpairs",
    "essential64": "eintersect",
    "Z3": "z3",
    "Z3E": "z3meet",
    "z3e": "z3meet",
    "wc": "extraspecial",
    "A8": "a8",
    "appendix": "valuation",
}


def run_battery(ctx: StructureContext, ids=None):
    """Run the selected checks (default: the full battery) on one context."""
    out = []
    selected = ids or list(CHECKS)
    for cid in selected:
        cid = CHECK_ALIASES.get(cid, cid)
        if cid == "a8":
            if ctx.bundle.provenance == "affine-A8":
                out.append(check_a8(ctx))
            continue
        if cid == "valuation":
            out.append(check_valuation(ctx))
            continue
        fn = CHECKS.get(cid)
        if fn is None:
            raise ConfigurationError("unknown check id %r" % cid)
        out.append(fn(ctx))
    return out


def model_fingerprint(ctx: StructureContext):
    """Cross-model comparison data for the necessary-condition agreement."""
    S = ctx.S
    return {
        "order_histogram": S.order_histogram(S.full_bits()),
        "Z": ctx.Z.order,
        "Z2": ctx.Z2.order,
        "Z3": ctx.Z3.order,
        "phi": ctx.phi.order,
        "E_count": len(ctx.six_E),
        "Q_type": S.extraspecial_type(ctx.Q),
    }
