"""Fully enumerated finite groups: Cayley tables, bit-vector subgroups, series.

Groups of order up to a few thousand (here: 4096 and its quotients) are
enumerated once; every structural question afterwards is an exhaustive
table computation, never a sampled one.  The multiplication table keeps
the left-to-right convention of the rest of the package:
``T[a, b] = a then b``.

Subgroups are boolean vectors over element indices.  Centres,
centralizers, central series, derived subgroups and the index-2 descent
work against a verified generating set of the subgroup, at O(|H| * k) for
a subgroup H with k generators.  No n x n commutator table is built:
every reader, the elementary abelian search on the involution commuting
graph included, gathers the commutators it needs (`_commutators`).

One closure engine, `closure_levels`, enumerates elements with parents
and products: the `from_generators` tables, the ambient-conjugacy oracle,
the alternating-group scans and the search's anchor prefixes.
`CayleyGroup.closure` stays apart, a keyless bit-vector fixpoint inside a
built table that the battery calls thousands of times; so does
`stabchain._Level.recompute`, whose ascending orbit layers the pinned
chains rest on, as the pinned tables rest on the engine's order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .perms import ConfigurationError, ResourceError

IDX = np.uint16
_ROOT_BLOCK = 8  # roots per level-synchronous step of span_search
_ROW_BLOCK = 256  # rows per block of the table builds and checks
_GATHER = 1 << 20  # entries per row gather of closure_levels, so none copies a level


class ClosureError(ValueError):
    """A member set failed a subgroup axiom."""


@dataclass
class SubgroupBits:
    """A subgroup as a bit-vector over the parent group's element indices."""

    group: "CayleyGroup"
    bits: np.ndarray

    _order: int | None = field(default=None, repr=False)

    @property
    def order(self) -> int:
        if self._order is None:
            self._order = int(self.bits.sum())
        return self._order

    @property
    def members(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def key(self) -> bytes:
        return np.packbits(self.bits).tobytes()

    def __contains__(self, idx) -> bool:
        return bool(self.bits[int(idx)])

    def __eq__(self, other) -> bool:
        return isinstance(other, SubgroupBits) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.key())

    def __le__(self, other) -> bool:
        return bool((~other.bits[self.members]).sum() == 0)

    @property
    def is_elementary_abelian(self) -> bool:
        return self.group.is_elementary_abelian(self)

    @property
    def is_extraspecial(self) -> bool:
        return self.group.is_extraspecial(self)


class CayleyGroup:
    """A fully enumerated group with uint16 multiplication table."""

    def __init__(self, table: np.ndarray, gen_indices=None, parents=None,
                 elements=None, name=""):
        table = np.asarray(table, dtype=IDX)
        n = table.shape[0]
        if table.shape != (n, n):
            raise ConfigurationError("multiplication table must be square")
        if table.max(initial=0) >= n:
            raise ClosureError("table entry outside the element range")
        self.n = n
        self.T = table
        self.name = name
        self.gen_indices = list(gen_indices or [])
        self.parents = parents  # (parent, gen_pos) BFS decomposition per element
        self.elements = elements
        self._classes = None
        self._gen_sets = {}  # subgroup key -> verified generating set
        if not np.array_equal(table[0], np.arange(n, dtype=IDX)):
            raise ClosureError("element 0 is not a left identity")
        if not np.array_equal(table[:, 0], np.arange(n, dtype=IDX)):
            raise ClosureError("element 0 is not a right identity")
        self.order_of, self.inv = self._orders_and_inverses()
        if not np.array_equal(table[np.arange(n), self.inv], np.zeros(n, dtype=IDX)):
            raise ClosureError("inverses do not verify")
        self._light_gens = self._check_associativity()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, generators, base=None, name="", max_order=1 << 13):
        """Enumerate the permutation group <generators> and build its table.

        The generators are image arrays of one degree d; "a then b" is
        ``b[a]``.  The elements are the rows that `closure_levels` reaches
        from the identity under x -> x then g_j, keyed by their images on
        `base` (all d points when None); past `max_order` of them the
        closure raises `ResourceError`.

        The table follows from cols[j, x] = x * g_j and the BFS
        decomposition b = f * g_j with f on an earlier level:

            g * b = (g * f) * g_j = cols[j, g * f]    (the row of g)
            T[b] = T[f][T[g_j]]                        (b * y = f * (g_j * y))

        the first giving every generator's row, the second every row, one
        level at a time.

        Exactness does not rest on `base`.  `__init__` proves T a group
        table (identity, inverses, Light's test), and `check_embedding`
        then proves E[x g] = E[x] then E[g] for every x and every g of the
        generating set that Light's test kept, and E[gen_indices] ==
        generators.  By induction on word length E is a homomorphism; its
        rows are distinct because their keys are, so it is injective; each
        row is a product of generators and the image holds every
        generator, so E maps T's group onto <generators>.  A key set that
        is not a base merges distinct elements, and one of those checks
        raises `ClosureError`: a wrong base is never trusted.
        """
        gens = np.stack([np.asarray(g, dtype=IDX) for g in generators])
        k, d = gens.shape
        levels = [np.arange(d, dtype=IDX)[None, :]]
        parent, gen_pos, prods = [np.array([-1])], [np.array([-1])], []
        n = 1
        for rows, f, j, prod in closure_levels(levels[0], gens,
                                               np.arange(d) if base is None else base):
            n += len(rows)
            if n > max_order:
                raise ResourceError("group closure exceeded max_order")
            levels.append(rows)
            parent.append(f)
            gen_pos.append(j)
            prods.append(prod)
        elements = np.concatenate(levels)
        parent, gen_pos = np.concatenate(parent), np.concatenate(gen_pos)
        cols = np.concatenate(prods).T  # cols[j, x] = x * g_j
        gen_idx = prods[0][0].tolist()  # 1 * g_j
        gen_rows = np.empty((k, n), dtype=IDX)
        gen_rows[:, 0] = gen_idx
        T = np.empty((n, n), dtype=IDX)
        T[0] = np.arange(n, dtype=IDX)
        flat = T.ravel()
        bounds = np.cumsum([len(level) for level in levels])
        for lo, hi in zip(bounds[:-2], bounds[1:-1]):
            f, j = parent[lo:hi], gen_pos[lo:hi]
            gen_rows[:, lo:hi] = cols[j[None, :], gen_rows[:, f]]
        # every row reads whole generator rows, so T waits for all of gen_rows;
        # a block stays inside one level, whose parents lie on earlier ones
        for lo, hi in zip(bounds[:-2], bounds[1:-1]):
            for s in range(lo, hi, _ROW_BLOCK):
                t = min(s + _ROW_BLOCK, hi)
                T[s:t] = flat[parent[s:t, None] * n + gen_rows[gen_pos[s:t]]]
        group = cls(T, gen_indices=gen_idx, elements=elements, name=name,
                    parents=list(zip(parent.tolist(), gen_pos.tolist())))
        group.check_embedding(elements, gens)
        return group

    def check_embedding(self, rows, generators=None, error=ClosureError) -> None:
        """Raise `error` unless x -> rows[x] is a homomorphism into permutations.

        For every g of the verified generating set and every x, rows[x g]
        must be rows[x] then rows[g].  Every row is a permutation, so x = 0
        forces rows[0] = 1.  T is a group table (checked when the group is
        built), so for y = y' g, rows[x y] = rows[(x y') g] = rows[x y']
        then rows[g]; induction on the word length of y gives rows[x y] =
        rows[x] then rows[y] for all x and y, as in `check_isomorphism`.
        With `generators` given, rows[gen_indices] must equal them.  The
        rows are gathered in blocks of _ROW_BLOCK.
        """
        gens = self.generating_set()
        for s in range(0, self.n, _ROW_BLOCK):
            block = rows[s:s + _ROW_BLOCK].astype(np.intp)
            for g in gens:
                if not np.array_equal(rows[self.T[s:s + _ROW_BLOCK, g]], rows[g][block]):
                    raise error("embedding fails at a generator column")
        if generators is not None and not np.array_equal(rows[self.gen_indices],
                                                         generators):
            raise error("the generator indices do not carry the generators")

    def _orders_and_inverses(self):
        """Element orders and inverses from one walk of the power sequences.

        x^k = x^(k-1) x, the order o is the least k with x^k = 1, and then
        x^(o-1) x = 1: x^(o-1) is the inverse that `__init__` checks.
        """
        orders = np.ones(self.n, dtype=np.int32)
        inv = np.zeros(self.n, dtype=IDX)
        idx = np.arange(self.n, dtype=IDX)
        power = idx.copy()
        k = 1
        alive = power != 0
        while alive.any():
            k += 1
            prev, power = power, self.T[power, idx]
            newly = alive & (power == 0)
            orders[newly] = k
            inv[newly] = prev[newly]
            alive &= power != 0
            if k > self.n:
                raise ClosureError("element order exceeded group order")
        orders[0] = 1
        return orders, inv

    def _check_associativity(self):
        """Light's test over a generating set: T is associative on all n^3 triples.

        Call a good when (a x) y = a (x y) for all x, y.  Products of good
        elements are good: ((a b) x) y = (a (b x)) y = a ((b x) y) =
        a (b (x y)) = (a b) (x y).  The identity is good, and the loop
        below extends gen_indices until `closure` reaches every element as
        a product of generators, so checking the generators covers the
        table.  With the identity and inverse checks, T is then a group
        table.  Generators that the others already generate are dropped
        first (4 remain for the Sylow subgroups of order 4096); each costs
        one row gather and one elementwise gather of T per row block.
        Returns the generators checked, a verified generating set.
        """
        gens = list(dict.fromkeys(self.gen_indices))
        reached = self.closure(gens).bits
        while not reached.all():
            gens.append(int(np.flatnonzero(~reached)[0]))
            reached = self.closure(gens).bits
        for g in reversed(list(gens)):
            rest = [h for h in gens if h != g]
            if self.closure(rest).order == self.n:
                gens = rest
        for s in range(0, self.n, _ROW_BLOCK):
            block = self.T[s:s + _ROW_BLOCK].astype(np.intp)
            for g in gens:
                row = self.T[g]
                if not np.array_equal(self.T[row[s:s + _ROW_BLOCK]], row[block]):
                    raise ClosureError("multiplication table is not associative")
        return gens

    # -- primitives ---------------------------------------------------------

    def conj_map_images(self, g) -> np.ndarray:
        """The inner automorphism x -> g^-1 x g as a full image array."""
        g = int(g)
        return self.T[self.T[self.inv[g], :], g]

    # -- subgroups ----------------------------------------------------------

    def subgroup(self, members) -> SubgroupBits:
        """A member set that enters unverified, closure-checked at O(|H|^2);
        subgroups derived from verified data are wrapped as SubgroupBits."""
        bits = np.zeros(self.n, dtype=bool)
        if isinstance(members, np.ndarray) and members.dtype == bool:
            bits = members.copy()
        else:
            bits[[int(m) for m in members]] = True
        if not bits[0]:
            raise ClosureError("subgroup must contain the identity")
        sub = SubgroupBits(self, bits)
        self.check_closed(sub)
        return sub

    def check_closed(self, sub: SubgroupBits) -> None:
        m = sub.members
        prods = self.T[np.ix_(m, m)]
        if not sub.bits[prods].all():
            raise ClosureError("member set is not closed under multiplication")
        if not sub.bits[self.inv[m]].all():
            raise ClosureError("member set is not closed under inversion")

    def trivial_bits(self) -> SubgroupBits:
        return SubgroupBits(self, np.arange(self.n) == 0)

    def full_bits(self) -> SubgroupBits:
        bits = np.ones(self.n, dtype=bool)
        return SubgroupBits(self, bits)

    def closure(self, seed) -> SubgroupBits:
        """Subgroup generated by the seed indices.

        Breadth-first from the identity, multiplying on the right by the
        seeds only: in a finite group the positive words in the seeds are
        the whole generated subgroup, so the cost is |closure| * |seeds|.
        """
        bits = np.zeros(self.n, dtype=bool)
        bits[0] = True
        gens = np.unique(np.fromiter((int(s) for s in seed), dtype=np.int64))
        frontier = np.zeros(1, dtype=np.int64)
        while frontier.size:
            prods = self.T[np.ix_(frontier, gens)].ravel()
            frontier = np.unique(prods[~bits[prods]])
            bits[frontier] = True
        return SubgroupBits(self, bits)

    def _commutators(self, members, gens) -> np.ndarray:
        """[x, g] = x^-1 g^-1 x g for x in members (rows), g in gens (columns)."""
        members = np.asarray(members, dtype=np.int64)
        gens = np.asarray(gens, dtype=np.int64)
        return self.T[self.T[np.ix_(self.inv[members], self.inv[gens])],
                      self.T[np.ix_(members, gens)]]

    def _conjugates(self, members, gens) -> np.ndarray:
        """g^-1 x g for g in gens (rows), x in members (columns)."""
        gens = np.asarray(gens, dtype=np.int64)
        return self.T[self.T[np.ix_(self.inv[gens], members)], gens[:, None]]

    def centralizer(self, of_members, within: SubgroupBits | None = None) -> SubgroupBits:
        """Elements (of `within`) commuting with each of `of_members`.

        Pass a verified generating set of a subgroup to get the subgroup's
        centralizer at O(|within| * k).
        """
        cand = np.arange(self.n) if within is None else within.members
        central = (self._commutators(cand, [int(m) for m in of_members]) == 0).all(axis=1)
        mask = np.zeros(self.n, dtype=bool)
        mask[cand[central]] = True
        return SubgroupBits(self, mask)

    def center_of(self, sub: SubgroupBits) -> SubgroupBits:
        """Members commuting with a verified generating set of sub."""
        return self.centralizer(self.generating_set(sub), within=sub)

    def upper_central_series(self, sub: SubgroupBits | None = None):
        """Z1 <= Z2 <= ... until stable.

        Z_{i+1} = {x in sub : [x, g] in Z_i for every generator g}: Z_i is
        normal, so x Z_i is central in sub/Z_i as soon as it commutes with
        the images of a generating set.
        """
        if sub is None:
            sub = self.full_bits()
        m = sub.members
        comms = self._commutators(m, self.generating_set(sub))
        series = []
        z = self.trivial_bits().bits
        while True:
            nxt = np.zeros(self.n, dtype=bool)
            nxt[m[z[comms].all(axis=1)]] = True
            if np.array_equal(nxt, z):
                break
            z = nxt
            series.append(SubgroupBits(self, z.copy()))
            if np.array_equal(z, sub.bits):
                break
        return series

    def normal_closure(self, seeds, gens) -> SubgroupBits:
        """Least subgroup containing seeds that conjugation by each of gens
        maps into itself: the normal closure of seeds in <gens>."""
        seeds = np.unique(np.asarray(seeds, dtype=np.int64))
        while True:
            sub = self.closure(seeds)
            conj = self._conjugates(sub.members, gens)
            new = conj[~sub.bits[conj]]
            if not new.size:
                return sub
            seeds = np.union1d(seeds, new)

    def derived_subgroup(self, sub: SubgroupBits | None = None) -> SubgroupBits:
        """Normal closure of the commutators of a verified generating set.

        It is normal and contains every [g_i, g_j], so sub modulo it is
        generated by commuting images, hence abelian; and sub' is normal and
        contains the [g_i, g_j]: the two are equal.
        """
        gens = self.generating_set(sub)
        return self.normal_closure(self._commutators(gens, gens).ravel(), gens)

    def squares(self, sub: SubgroupBits | None = None) -> np.ndarray:
        if sub is None:
            sub = self.full_bits()
        m = sub.members
        return np.unique(self.T[m, m])

    def frattini(self, sub: SubgroupBits | None = None) -> SubgroupBits:
        """Frattini subgroup of a 2-group, computed two ways that must agree.

        Route 1: closure of the derived subgroup and the squares.  Route 2:
        the intersection of all maximal subgroups, which `maximal_subgroups`
        builds as hyperplane preimages over <squares>, so it is <squares>
        itself.  The two routes are not independent: what their agreement
        proves is that the derived subgroup lies in <squares>.
        """
        if sub is None:
            sub = self.full_bits()
        derived = self.derived_subgroup(sub)
        seeds = np.concatenate([derived.members, self.squares(sub)])
        phi1 = self.closure(seeds)
        inter = sub.bits.copy()
        for mx in self.maximal_subgroups(sub):
            inter &= mx.bits
        if not np.array_equal(phi1.bits, inter):
            raise ClosureError("the two Frattini computations disagree")
        return phi1

    # -- quotients ----------------------------------------------------------

    def coset_reps(self, k: SubgroupBits, sub: SubgroupBits | None = None) -> np.ndarray:
        """rep[x] = min element of the coset K x, for x in sub (K normal in sub).

        Only sub's columns are gathered; non-members of sub get -1.
        """
        cols = np.arange(self.n) if sub is None else sub.members
        reps = np.full(self.n, -1, dtype=np.int64)
        reps[cols] = self.T[np.ix_(k.members, cols)].min(axis=0)
        return reps

    def quotient_group(self, k: SubgroupBits, sub: SubgroupBits | None = None):
        """Quotient (sub or whole group)/k as a fresh CayleyGroup.

        Returns (quotient, rep_of, new_index) where rep_of[x] is the coset
        representative and new_index[rep] the quotient element index.
        """
        if sub is None:
            sub = self.full_bits()
        self.check_normal(k, sub)
        rep_of = self.coset_reps(k, sub)
        reps = np.unique(rep_of[sub.members])
        new_index = np.full(self.n, -1, dtype=np.int64)
        new_index[reps] = np.arange(len(reps))
        table = new_index[rep_of[self.T[np.ix_(reps, reps)]]]
        q = CayleyGroup(table.astype(IDX), name="%s/%s" % (self.name, "K"))
        return q, rep_of, new_index

    def check_normal(self, k: SubgroupBits, sub: SubgroupBits | None = None) -> None:
        """K is normal in sub iff conjugation by each generator maps K into K."""
        if not k.bits[self._conjugates(k.members, self.generating_set(sub))].all():
            raise ClosureError("subgroup is not normal where required")

    def _quotient_coords(self, k: SubgroupBits, sub: SubgroupBits):
        """Unverified coordinates on sub/k, by doubling the span.

        Each basis lift is the least member of sub outside the span so far
        (so it is the least element of its k-coset), and the span grows by
        the coset span * lift, whose members get the lift's bit.
        """
        coords = np.zeros(self.n, dtype=np.int64)
        span = k.bits.copy()
        span[0] = True
        basis = []
        while True:
            outside = np.flatnonzero(sub.bits & ~span)
            if not outside.size:
                return coords, basis
            g = int(outside[0])
            members = np.flatnonzero(span)
            coset = self.T[members, g]
            coords[coset] = coords[members] | (1 << len(basis))
            span[coset] = True
            basis.append(g)

    def check_quotient_coords(self, coords, basis, k: SubgroupBits,
                              sub: SubgroupBits) -> None:
        """Raise unless coords is a homomorphism of sub onto GF(2)^r with kernel k.

        Checked: the basis lifts generate sub (`check_generates`), every x in
        sub satisfies ``coords[T[x, g_i]] == coords[x] ^ (1 << i)``, and
        coords vanishes on sub exactly at k.  As coords[0] = 0, induction
        on the length of a word in the g_i gives coords[x y] = coords[x] ^
        coords[y].  The check costs O(|sub| * r).
        """
        self.check_generates(basis, sub)
        m = sub.members
        units = np.int64(1) << np.arange(len(basis), dtype=np.int64)
        lhs = coords[self.T[np.ix_(m, np.asarray(basis, dtype=np.int64))]]
        if not np.array_equal(lhs, coords[m][:, None] ^ units[None, :]):
            raise ClosureError("quotient coordinates are not a homomorphism onto "
                               "an elementary abelian group")
        if (coords[0] != 0 or not np.array_equal(coords[m] == 0, k.bits[m])
                or (k.bits & ~sub.bits).any()):
            raise ClosureError("quotient coordinates do not have the given kernel")

    def elementary_quotient_coords(self, k: SubgroupBits,
                                   sub: SubgroupBits | None = None):
        """Verified GF(2)-coordinates on an elementary abelian quotient sub/k.

        Returns (coords, basis_reps): coords[x] is the bit vector of the
        coset of x for every x in sub (0 outside sub), and basis_reps[i],
        the least element of its coset, has coords 1 << i.
        """
        if sub is None:
            sub = self.full_bits()
        coords, basis = self._quotient_coords(k, sub)
        self.check_quotient_coords(coords, basis, k, sub)
        return coords, basis

    # -- maximal subgroup descent -------------------------------------------

    def maximal_subgroups(self, sub: SubgroupBits | None = None):
        """Index-2 subgroups of sub: hyperplane preimages mod <squares>.

        Every index-2 subgroup contains every square, so it contains
        Phi = <squares of sub> (in a 2-group the Frattini subgroup, since
        [x, y] = x^-2 (x y^-1)^2 y^2).  The coordinates on sub/Phi are
        verified to be a homomorphism onto GF(2)^r with kernel Phi, so each
        hyperplane preimage is the kernel of a homomorphism onto GF(2): an
        index-2 subgroup, and every index-2 subgroup arises exactly once.
        """
        if sub is None:
            sub = self.full_bits()
        phi = self.closure(self.squares(sub))
        coords, basis = self.elementary_quotient_coords(phi, sub)
        sm = sub.members
        cm = coords[sm]
        parity = _popcount(np.arange(1 << len(basis))) & 1
        out = []
        for lam in range(1, 1 << len(basis)):
            bits = sub.bits.copy()
            bits[sm[parity[cm & lam] == 1]] = False
            out.append(SubgroupBits(self, bits))
        return out

    def subgroups_of_index(self, k: int, explosion_guard=1_000_000):
        """Complete duplicate-free list for k in {2, 4, 8} by maximal descent.

        Every step takes kernels of verified homomorphisms (see
        `maximal_subgroups`), so the results are subgroups without a
        further closure check.
        """
        if k not in (2, 4, 8):
            raise ConfigurationError("only indices 2, 4, 8 are supported")
        current = {self.full_bits().key(): self.full_bits()}
        depth = {2: 1, 4: 2, 8: 3}[k]
        for _ in range(depth):
            nxt = {}
            for sub in current.values():
                for mx in self.maximal_subgroups(sub):
                    key = mx.key()
                    if key not in nxt:
                        if len(nxt) > explosion_guard:
                            raise ResourceError("subgroup descent exploded")
                        nxt[key] = mx
            current = nxt
        return sorted(current.values(), key=lambda s: tuple(s.members[:3]))

    # -- structure flags ----------------------------------------------------

    def is_abelian(self, sub: SubgroupBits) -> bool:
        m = sub.members
        return bool((self._commutators(m, m) == 0).all())

    def is_elementary_abelian(self, sub: SubgroupBits) -> bool:
        m = sub.members
        if (self.order_of[m] > 2).any():
            return False
        return self.is_abelian(sub)

    def exponent(self, sub: SubgroupBits) -> int:
        return int(np.lcm.reduce(self.order_of[sub.members]))

    def order_histogram(self, sub: SubgroupBits):
        vals, counts = np.unique(self.order_of[sub.members], return_counts=True)
        return tuple((int(v), int(c)) for v, c in zip(vals, counts))

    def is_extraspecial(self, sub: SubgroupBits) -> bool:
        """|sub| = 2^(1+2m) and Z(sub) = sub' = Phi(sub) of order 2.

        Phi contains <squares>, which is all of Phi in a 2-group, and is
        trivial only for an elementary abelian group; so a sub with more
        than one non-trivial square, or with <squares> not of order 2, is
        rejected in O(|sub|) before the definition is checked in full.
        """
        n = sub.order
        power = n.bit_length() - 1
        if n != 1 << power or power % 2 == 0:
            return False
        sq = self.squares(sub)
        if len(sq) > 2 or self.closure(sq).order != 2:
            return False
        z = self.center_of(sub)
        if z.order != 2:
            return False
        d = self.derived_subgroup(sub)
        if not np.array_equal(d.bits, z.bits):
            return False
        phi = self.closure(np.concatenate([d.members, sq]))
        return bool(np.array_equal(phi.bits, z.bits))

    def extraspecial_type(self, sub: SubgroupBits) -> str:
        """'+' or '-' by involution count, for extraspecial 2-groups."""
        if not self.is_extraspecial(sub):
            raise ConfigurationError("type is defined for extraspecial groups only")
        n = sub.order
        m = (n.bit_length() - 2) // 2  # |sub| = 2^(1+2m)
        invol = int((self.order_of[sub.members] <= 2).sum())  # includes identity
        plus = 2 * (2 ** (m - 1) + 1) * (2 ** m - 1) + 2
        minus = 2 * (2 ** (m - 1) - 1) * (2 ** m + 1) + 2
        if invol == plus:
            return "+"
        if invol == minus:
            return "-"
        raise ClosureError("involution count matches neither extraspecial type")

    def abelian_invariant_check(self, sub: SubgroupBits, invariants) -> bool:
        """Does an abelian sub have the given cyclic invariants (e.g. (4,2,2,2))?"""
        if not self.is_abelian(sub):
            return False
        import math
        order = 1
        for q in invariants:
            order *= q
        if sub.order != order:
            return False
        # compare the full order histogram with the abstract product's
        from collections import Counter
        hist = Counter()
        def count_orders(invs):
            tallies = Counter({1: 1})
            for q in invs:
                new = Counter()
                for o, c in tallies.items():
                    for k in range(q):
                        e = _order_in_cyclic(k, q)
                        new[math.lcm(o, e)] += c
                tallies = new
            return tallies
        target = count_orders(tuple(invariants))
        actual = Counter({int(v): int(c) for v, c in self.order_histogram(sub)})
        return target == actual

    def fingerprint(self, sub: SubgroupBits):
        """Isomorphism-invariant tuple used for dedup and search pruning."""
        z = self.center_of(sub)
        d = self.derived_subgroup(sub)
        phi_seeds = np.concatenate([d.members, self.squares(sub)])
        phi = self.closure(phi_seeds)
        return (
            sub.order,
            self.exponent(sub),
            z.order,
            d.order,
            phi.order,
            self.order_histogram(sub),
            self.is_abelian(sub),
            self.is_elementary_abelian(sub),
            self.is_extraspecial(sub),
        )

    # -- conjugacy ----------------------------------------------------------

    def generating_set(self, sub: SubgroupBits | None = None):
        """A verified generating set of sub (of the whole group when None).

        The whole group uses the set that Light's test reduced to, which
        generates by construction.  Callers also use gen_indices as
        generators, so that set must lie inside them: it does exactly when
        gen_indices generate, since otherwise Light's test had to add an
        element outside their closure.  A proper subgroup's set is picked
        greedily, the least member outside the closure so far, and checked
        once, closure(gens) == sub.  Either way it is cached by the
        subgroup's key.
        """
        if sub is None:
            sub = self.full_bits()
        key = sub.key()
        gens = self._gen_sets.get(key)
        if gens is None:
            if sub.order == self.n:
                gens = self._light_gens
                if self.gen_indices and not set(gens) <= set(self.gen_indices):
                    raise ClosureError("the recorded generators do not generate the group")
            else:
                gens = []
                bits = self.trivial_bits().bits
                while (sub.bits & ~bits).any():
                    gens.append(int(np.flatnonzero(sub.bits & ~bits)[0]))
                    bits = self.closure(gens).bits
                self.check_generates(gens, sub)
            self._gen_sets[key] = gens
        return list(gens)

    def check_generates(self, gens, sub: SubgroupBits | None = None) -> None:
        target = self.full_bits() if sub is None else sub
        if not np.array_equal(self.closure(gens).bits, target.bits):
            raise ClosureError("the generators do not generate the subgroup")

    def conjugacy_classes(self) -> np.ndarray:
        """class id (minimal member) per element, under inner automorphisms."""
        if self._classes is None:
            maps = [self.conj_map_images(g) for g in self.generating_set()]
            self._classes = orbit_minima(self.n, np.tile(np.arange(self.n), len(maps)),
                                         np.concatenate(maps))
        return self._classes


def orbit_minima(n: int, src, dst) -> np.ndarray:
    """The least member of each element's orbit under the edges (src[i], dst[i]).

    Every element starts labelled by itself.  Each round moves the smaller
    label across every edge in both directions, then replaces each label by
    its own label.  A label is always a member of its element's orbit and
    labels only decrease, so the rounds stop; at the fixpoint the labels are
    constant on edges, hence on orbits, and the least member m of an orbit
    keeps label m, so every label is its orbit minimum.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    label = np.arange(n, dtype=np.int64)
    while True:
        prev = label.copy()
        np.minimum.at(label, dst, label[src])
        np.minimum.at(label, src, label[dst])
        label = label[label]
        if np.array_equal(label, prev):
            return label


def closure_levels(start, post, base, pre=None):
    """Close the distinct rows of `start` under x -> pre_j then x then post_j.

    A row is an image array, "a then b" is ``b[a]``, so generator j sends
    x to ``post[j][x[pre[j]]]`` (``post[j][x]`` when `pre` is None).  Rows
    are keyed by their values on `base`, which the caller proves or checks
    to tell them apart.  Each step keys the products of every frontier row
    with every generator in row-major (x, j) order and looks them up by
    `searchsorted` in the known keys, kept sorted; an unknown key becomes
    a new row, numbered after the start rows and earlier levels, at its
    first occurrence, as in the one-at-a-time breadth-first closure.  Full
    rows are gathered only for new rows, and only the keys and the
    frontier are kept.  Yields per step the new rows (none at the last
    step), each one's parent index and generator position, and the
    (frontier, generator) array of the index of every product.
    """
    post = np.asarray(post)
    k = len(post)
    base = np.asarray(base, dtype=np.intp)
    at = base[None, :] if pre is None else np.asarray(pre)[:, base]
    void = np.dtype((np.void, len(base) * post.itemsize))

    def keys(points):  # one opaque sortable key per row of base values
        return np.ascontiguousarray(points, dtype=post.dtype).view(void).ravel()

    frontier = np.asarray(start, dtype=post.dtype)
    known = keys(frontier[:, base])
    order = np.argsort(known)  # known is kept sorted, order[i] is the index of known[i]
    known = known[order]
    n = len(frontier)
    while len(frontier):
        lo, width = n - len(frontier), len(frontier)
        cand = keys(post[np.arange(k)[None, :, None], frontier[:, at]]
                    .reshape(width * k, len(base)))
        pos = np.searchsorted(known, cand) % len(known)
        idx = order[pos]
        miss = np.flatnonzero(known[pos] != cand)
        new_keys, first, which = np.unique(cand[miss], return_index=True,
                                           return_inverse=True)
        rank = np.argsort(first)  # the new rows, in order of first occurrence
        new_index = np.empty(len(rank), dtype=np.int64)
        new_index[rank] = n + np.arange(len(rank))
        idx[miss] = new_index[which.ravel()]
        src = miss[first[rank]]
        f, j = src // k, src % k
        rows = np.empty((len(src), frontier.shape[1]), dtype=post.dtype)
        for jj in range(k):
            sel = np.flatnonzero(j == jj)
            for part in np.array_split(sel, 1 + sel.size * rows.shape[1] // _GATHER):
                x = frontier[f[part]] if pre is None else frontier[f[part, None], pre[jj]]
                rows[part] = post[jj][x]
        n += len(src)
        pos = np.searchsorted(known, new_keys)  # new_keys come sorted from np.unique
        known, order = np.insert(known, pos, new_keys), np.insert(order, pos, new_index)
        frontier = rows
        yield rows, lo + f, j, idx.reshape(width, k)


def _popcount(arr):
    arr = np.asarray(arr, dtype=np.int64)
    out = np.zeros_like(arr)
    while arr.any():
        out += arr & 1
        arr >>= 1
    return out


def _order_in_cyclic(k, q):
    from math import gcd
    return q // gcd(k, q)


def check_isomorphism(images, source: CayleyGroup, target: CayleyGroup,
                      domain: SubgroupBits | None = None, error=ClosureError) -> None:
    """The one map verifier: raise `error` unless `images` is an isomorphism.

    The domain is a subgroup of `source` (all of it when None).  A map on a
    subgroup domain must map it onto itself (so `target` is `source`); a map
    on the whole of `source` must map it onto the whole of `target`.  With
    g_1..g_k a verified generating set of the domain, the map must be a
    bijection onto its image set, fix 0, and satisfy the generator-column
    identity ``images[T1[x, g]] == T2[images[x], images[g]]`` for every x in
    the domain and every g_i.  Writing y as a word in the g_i and inducting
    on its length then gives images[x y] = images[x] images[y] for all
    x, y: the check is exhaustive at O(|domain| * k).
    """
    gens = source.generating_set(domain)
    if domain is None:
        members, onto = np.arange(source.n), np.ones(target.n, dtype=bool)
    else:
        members, onto = domain.members, domain.bits
    if images.shape != (source.n,):
        raise error("map images do not cover the source group")
    img = images[members]
    if int(img.max(initial=0)) >= len(onto):
        raise error("map image outside the target group")
    hit = np.zeros_like(onto)
    hit[img] = True
    if len(img) != int(onto.sum()) or not np.array_equal(hit, onto):
        raise error("map is not a bijection of its domain onto its image set")
    if int(images[0]) != 0:
        raise error("map does not fix the identity")
    lhs = images[source.T[np.ix_(members, gens)]]
    rhs = target.T[np.ix_(img, images[gens])]
    if not np.array_equal(lhs, rhs):
        raise error("map fails the generator-column identity on its domain")


@dataclass
class AutoMap:
    """A multiplicative bijection on a subgroup domain (or the whole group).

    Verification is exhaustive over the domain at construction time, by
    `check_isomorphism`: ``images[T[x, g]] == T[images[x], images[g]]`` for
    every domain element x and every g in a verified generating set of the
    domain.
    """

    group: CayleyGroup
    images: np.ndarray
    domain: SubgroupBits | None = None

    def __post_init__(self):
        self.images = np.asarray(self.images, dtype=IDX)
        check_isomorphism(self.images, self.group, self.group, self.domain)

    def map_order(self) -> int:
        k = 1
        cur = self.images
        ident = np.arange(self.group.n, dtype=IDX)
        dom = self.domain.bits if self.domain is not None else np.ones(self.group.n, bool)
        m = np.flatnonzero(dom)
        while not np.array_equal(cur[m], m):
            cur = self.images[cur]
            k += 1
            if k > self.group.n:
                raise ClosureError("map order runaway")
        return k

    def stabilizes(self, sub: SubgroupBits) -> bool:
        m = sub.members
        return bool(sub.bits[self.images[m]].all())


def inner_automap(g: CayleyGroup, elem: int, domain: SubgroupBits | None = None) -> AutoMap:
    """x -> elem^-1 x elem on the domain (all of g when None), the identity
    outside it."""
    images = g.conj_map_images(elem)
    if domain is not None:
        images = np.where(domain.bits, images, np.arange(g.n))
    return AutoMap(g, images, domain)


def span_search(adjacent: np.ndarray, product: np.ndarray, rank: int,
                roots: int | None = None, max_nodes: int = 5_000_000):
    """All spans of 2^rank - 1 vertices in a graph with a product, exhaustively.

    The vertices are local indices 0..m-1.  ``adjacent`` is an (m, m)
    boolean matrix, true on the diagonal; ``product[a, b]`` is the vertex a * b
    for adjacent a and b, or -1 where the product is the identity (or not a
    vertex, which puts no span through that pair).  The search runs over
    greedy-minimal bases (orderly generation, McKay 1998).  A node is the
    array of the members of its span; a candidate t is adjacent to the whole
    span and is the least member of its coset t * span, so every span is
    made once, from its greedy-minimal basis.  The -1 entries make the
    members of the span fail that test.  Only the first ``roots`` vertices
    (all when None) start a basis.  The node count is the number of spans
    visited, leaves included; past ``max_nodes`` the search raises
    `ResourceError`.

    The roots are taken _ROOT_BLOCK at a time, in ascending order, and each
    block is searched one depth per step: the spans of a depth are the rows
    of one (nodes, 2^depth - 1) array.  Row-major `np.nonzero` emits the
    children node by node, each node's in ascending t, so the nodes of every
    depth, leaves included, stay in lexicographic order of their bases:
    the order in which a depth-first search visits them.  Returns the leaf
    spans as the rows of one int16 array, in that order, and the node count.
    """
    m = len(adjacent)
    if m >= 1 << 15:
        raise ConfigurationError("too many vertices for int16 local indices")
    product = np.asarray(product, dtype=np.int16)
    roots = m if roots is None else roots
    cols = np.arange(m)
    target = 1 << rank
    found = [np.empty((0, target - 1), dtype=np.int16)]
    nodes = 0
    for lo in range(0, roots, _ROOT_BLOCK):
        last = np.arange(lo, min(lo + _ROOT_BLOCK, roots), dtype=np.int16)
        span, cmask = last[:, None], adjacent[last]
        while len(last):
            nodes += len(last)
            if nodes > max_nodes:
                raise ResourceError("span search exceeded its node budget",
                                    stats={"nodes": nodes, "found": sum(map(len, found))})
            if span.shape[1] + 1 == target:
                found.append(span)
                break
            # capacity prune: every future member is adjacent to the current span
            keep = cmask.sum(axis=1) + 1 >= target
            span, cmask, last = span[keep], cmask[keep], last[keep]
            node, t = np.nonzero(cmask & (cols > last[:, None]))
            base = span[node]
            coset = product[t[:, None], base]
            minimal = coset.min(axis=1) > t
            node, last, base = node[minimal], t[minimal].astype(np.int16), base[minimal]
            span = np.concatenate([base, last[:, None], coset[minimal]], axis=1)
            cmask = cmask[node] & adjacent[last]
    return np.concatenate(found), nodes


def enumerate_elab_subgroups(g: CayleyGroup, rank: int,
                             avoid: SubgroupBits | None = None,
                             max_nodes: int = 5_000_000):
    """All elementary abelian subgroups of 2^rank elements, exhaustively.

    One `span_search` on the commuting graph of g's involutions, with g's
    product in local indices (the identity is -1).  When ``avoid`` is
    given, only subgroups with a member outside ``avoid`` are wanted: a
    stable sort puts the involutions outside ``avoid`` first, so those
    subgroups start their basis outside and the roots inside are skipped.
    Each leaf is a search result, so it enters through `subgroup`'s
    closure check.
    """
    invol = np.flatnonzero(g.order_of == 2)
    roots = None
    if avoid is not None:
        invol = invol[np.argsort(avoid.bits[invol], kind="stable")]
        roots = int((~avoid.bits[invol]).sum())
    local = np.full(g.n, -1)
    local[invol] = np.arange(len(invol))
    commute = g._commutators(invol, invol) == 0
    # only commuting pairs are read: their product is the identity or an involution
    prod = local[g.T[np.ix_(invol, invol)]]
    rows, nodes = span_search(commute, prod, rank, roots, max_nodes)
    found = []
    for row in rows:
        bits = np.zeros(g.n, dtype=bool)
        bits[0] = True
        bits[invol[row]] = True
        found.append(g.subgroup(bits))
    return found, nodes
