"""Fully enumerated finite groups: Cayley tables, bit-vector subgroups, series.

Permutation groups of order up to a few thousand (here: 4096) are
enumerated once, by `from_generators`; every structural question
afterwards is an exhaustive table computation, never a sampled one.  The
multiplication table keeps the left-to-right convention of the rest of
the package: ``T[a, b] = a then b``.  A table is proved once, where it
enters: a table built from generators keyed on a verified chain's base
is exact by construction (`from_generators`), and a table handed to
`CayleyGroup` is checked, Light's test included.

No quotient gets a table of its own.  A quotient by a normal subgroup K
is held as the least members of the K-cosets (`coset_reps`), on which the
elementary abelian search runs modulo K, or, when it is elementary
abelian, as verified GF(2) coordinates (`elementary_quotient_coords`).

Subgroups are boolean vectors over element indices.  Centres,
centralizers, central series and derived subgroups work against a
verified generating set of the subgroup, at O(|H| * k) for a subgroup H
with k generators.  No n x n commutator table is built: every reader, the
elementary abelian search on the involution commuting graph included,
gathers the commutators it needs (`_commutators`).

The index-2/4/8 descent works a level at a time, through Frattini
quotients as in Holt, Eick and O'Brien, *Handbook of Computational Group
Theory* (2005): the subgroups of one level are the rows of one boolean
matrix, and their squares, Frattini subgroups, verified quotient
coordinates and hyperplane preimages are computed for all rows together
(`_maximal_rows`).  `maximal_subgroups`, `frattini`,
`elementary_quotient_coords` and `closure` are one-row calls of the same
routines.

One closure engine, `closure_levels`, enumerates elements with parents
and products: the `from_generators` tables, the ambient-conjugacy oracle,
the alternating group (`groupmodels.a8_elements`, which the A8 check and
the minimal-overgroup scan read), the search's anchor prefixes and the
triality's substitution walk (`rootmodel`).  No element is enumerated
from a stabilizer chain.  One fixpoint, `invariant_core`, gives every
largest invariant subset: the system's 2-radical (`fusion.check_O2`), a
slot's radical and the frame model's 2-radical.
`CayleyGroup._closure_rows` stays apart, a keyless bit-vector fixpoint
inside a built table that closes the rows of a level at once; so does
`stabchain._Level.recompute`, whose ascending orbit layers the pinned
chains rest on, as the pinned tables rest on the engine's order.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .perms import ConfigurationError, ResourceError

IDX = np.uint16
_ROOT_BLOCK = 8  # roots per level-synchronous step of span_search
_ROW_BLOCK = 256  # rows per block of the table builds and checks
_GATHER = 1 << 20  # entries per row gather of closure_levels, so none copies a level
_OFF = IDX(np.iinfo(IDX).max)  # a quotient code off the span: no coordinate reaches it
_EXPLOSION_GUARD = 1_000_000  # subgroups per level of the index-2/4/8 descent


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


class CayleyGroup:
    """A fully enumerated group with uint16 multiplication table."""

    def __init__(self, table: np.ndarray, gen_indices=None, parents=None,
                 elements=None, name=""):
        """A table handed in: checked for an identity and inverses (`_fill`),
        then associative by Light's test over the reduced generators.

        Call a good when (a x) y = a (x y) for all x, y.  Products of good
        elements are good: ((a b) x) y = (a (b x)) y = a ((b x) y) =
        a (b (x y)) = (a b) (x y).  The identity is good and the reduced
        generators (`_reduced_generators`) generate, so checking them
        covers all n^3 triples, and with the identity and inverse checks T
        is a group table.  Each generator costs one row gather and one
        elementwise gather of T per row block.
        """
        self._fill(table, gen_indices, parents, elements, name)
        for s in range(0, self.n, _ROW_BLOCK):
            block = self.T[s:s + _ROW_BLOCK].astype(np.intp)
            for g in self._gens:
                row = self.T[g]
                if not np.array_equal(self.T[row[s:s + _ROW_BLOCK]], row[block]):
                    raise ClosureError("multiplication table is not associative")

    def _fill(self, table, gen_indices, parents, elements, name):
        """Set the fields of a table: the one path of both entries,
        `__init__` and `from_generators`.

        Checks the identity and the inverses, and reduces gen_indices to
        the group's verified generating set (`_reduced_generators`).
        """
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
        self.square_of = table[np.arange(n), np.arange(n)]  # contiguous, unlike the diagonal
        if not np.array_equal(table[np.arange(n), self.inv], np.zeros(n, dtype=IDX)):
            raise ClosureError("inverses do not verify")
        self._gens = self._reduced_generators()

    # -- construction -------------------------------------------------------

    @classmethod
    def from_generators(cls, generators, chain=None, name="", max_order=1 << 13):
        """Enumerate the permutation group G = <generators> and build its table.

        The generators are image arrays of one degree d; "a then b" is
        ``b[a]``.  The elements are the rows that `closure_levels` reaches
        from the identity under x -> x then g_j; past `max_order` of them
        the closure raises `ResourceError`.  Rows are keyed on the base of
        `chain`, a verified `StabChain` into which every generator must
        sift (`ClosureError` otherwise), or on all d points when `chain`
        is None.

        T is exact by construction, so neither Light's test nor an
        embedding check runs.  By induction on the BFS level:

        - the keys are faithful.  G lies in the chain's group, and two
          elements of a group with a verified base that agree on that base
          are equal (Holt, Eick and O'Brien, *Handbook of Computational
          Group Theory*, 2005, 4.4); all d points separate trivially.  So
          distinct keys are distinct elements, every element of the finite
          group G is a positive word in the generators and is reached, and
          cols[j, x] = x * g_j;
        - the BFS writes each b other than 1 as f * g_j with f on an
          earlier level, so g * b = (g * f) * g_j = cols[j, g * f] gives
          the row of every generator g, level by level;
        - b * y = f * (g_j * y), so T[b] = T[f][T[g_j]] gives every other
          row from rows of earlier levels, starting at T[1] = identity.

        Hence T[x, y] is the index of x then y, the element rows are an
        injective homomorphism onto G, and rows[gen_indices] are the
        generators.  The identity and inverse checks of `_fill` still run;
        a table handed to `CayleyGroup` also gets Light's test.  Tier-1
        reruns Light's test and the full-degree embedding check on every
        built Sylow table, as the oracle for this argument.
        """
        gens = np.stack([np.asarray(g, dtype=IDX) for g in generators])
        k, d = gens.shape
        if chain is not None and not all(chain.contains(g) for g in gens):
            raise ClosureError("a generator does not sift into the chain")
        levels = [np.arange(d, dtype=IDX)[None, :]]
        parent, gen_pos, prods = [np.array([-1])], [np.array([-1])], []
        n = 1
        for rows, f, j, prod in closure_levels(levels[0], gens,
                                               np.arange(d) if chain is None else chain.base):
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
        group = cls.__new__(cls)
        group._fill(T, gen_idx, list(zip(parent.tolist(), gen_pos.tolist())), elements,
                    name)
        return group

    def check_embedding(self, rows, error=ClosureError) -> None:
        """Raise `error` unless x -> rows[x] is a homomorphism into permutations.

        For every g of the verified generating set and every x, rows[x g]
        must be rows[x] then rows[g].  Every row is a permutation, so x = 0
        forces rows[0] = 1.  T is a group table, so for y = y' g,
        rows[x y] = rows[(x y') g] = rows[x y'] then rows[g]; induction on
        the word length of y gives rows[x y] = rows[x] then rows[y] for all
        x and y, as in `check_isomorphism`.  The rows are gathered in
        blocks of _ROW_BLOCK.
        """
        gens = self.generating_set()
        for s in range(0, self.n, _ROW_BLOCK):
            block = rows[s:s + _ROW_BLOCK].astype(np.intp)
            for g in gens:
                if not np.array_equal(rows[self.T[s:s + _ROW_BLOCK, g]], rows[g][block]):
                    raise error("embedding fails at a generator column")

    def _orders_and_inverses(self):
        """Element orders and inverses from one walk of the power sequences.

        x^k = x^(k-1) x, the order o is the least k with x^k = 1, and then
        x^(o-1) x = 1: x^(o-1) is the inverse that `_fill` checks.
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

    def _reduced_generators(self):
        """An irredundant generating set that extends and then reduces gen_indices.

        gen_indices are extended by the least element outside their
        closure until `closure` reaches every element; then each generator
        that the others already generate is dropped, last first (4 remain
        for the Sylow subgroups of order 4096).  The result generates by
        construction: it is the group's verified generating set.
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
        """Subgroup generated by the seed indices: one row of `_closure_rows`."""
        gens = np.unique(np.fromiter((int(s) for s in seed), dtype=np.int64))
        return SubgroupBits(self, self._closure_rows(gens[None, :])[0])

    def _closure_rows(self, seeds) -> np.ndarray:
        """The subgroup generated by each row of the (r, s) index matrix `seeds`.

        Breadth-first from the identity, multiplying on the right by the
        row's seeds only: in a finite group the positive words in the seeds
        are the whole generated subgroup, so a row costs |closure| * s.  All
        rows step together; a row padded with the identity gains no product
        from it.  Returns an (r, n) boolean matrix.
        """
        bits = np.zeros((len(seeds), self.n), dtype=bool)
        bits[:, 0] = True
        frontier = np.zeros((len(seeds), 1), dtype=IDX)
        at = np.arange(len(seeds))[:, None, None]
        while frontier.shape[1]:
            fresh = np.zeros_like(bits)
            fresh[at, self.T[frontier[:, :, None], seeds[:, None, :]]] = True
            fresh &= ~bits
            bits |= fresh
            frontier = _padded(fresh)
        return bits

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
        return np.unique(self.square_of[sub.members])

    def lone_squares(self, rows) -> np.ndarray:
        """Per boolean row, the one non-trivial square of the row's members.

        The entry is 0 when every square in the row is the identity and -1
        when the row has two distinct non-trivial squares.  `rows` is a
        boolean matrix or a list of boolean vectors; each block of rows is
        stacked on its own and read in one pass over `square_of`.
        """
        out = []
        for s in range(0, len(rows), _ROW_BLOCK):
            sq = np.asarray(rows[s:s + _ROW_BLOCK]) * self.square_of  # 0 off the row
            top = sq.max(axis=1, initial=0)
            lone = ((sq == 0) | (sq == top[:, None])).all(axis=1)
            out.append(np.where(lone, top.astype(np.int64), -1))
        return np.concatenate(out)

    def frattini(self, sub: SubgroupBits | None = None) -> SubgroupBits:
        """Frattini subgroup of a 2-group: one row of `_frattini_rows`."""
        if sub is None:
            sub = self.full_bits()
        return SubgroupBits(self, self._frattini_rows(sub.bits[None, :])[0])

    def _frattini_rows(self, rows) -> np.ndarray:
        """Phi(H) = <squares of H> for each row H of a boolean matrix.

        Phi(H) = H' H^2 for a p-group H, and for p = 2 the identity
        [x, y] = x^-2 (x y^-1)^2 y^2 puts H' inside <H^2>.  The squares of
        all rows are one gather, and their closures one `_closure_rows`.
        """
        members = _padded(rows)
        squares = np.zeros_like(rows)
        squares[np.arange(len(rows))[:, None], self.square_of[members]] = True
        return self._closure_rows(_padded(squares))

    # -- quotients ----------------------------------------------------------

    def coset_reps(self, k: SubgroupBits) -> np.ndarray:
        """rep[x] = min element of the coset K x, for every x (K normal)."""
        return self.T[k.members].min(axis=0).astype(np.int64)

    def check_normal(self, k: SubgroupBits, sub: SubgroupBits | None = None) -> None:
        """K is normal in sub iff conjugation by each generator maps K into K."""
        if not k.bits[self._conjugates(k.members, self.generating_set(sub))].all():
            raise ClosureError("subgroup is not normal where required")

    def _quotient_coords(self, kernels, rows):
        """Unverified coordinates on rows[i]/kernels[i] for each row, by doubling spans.

        Each basis lift is the least member of its row outside the span so
        far (so it is the least element of its kernel coset), and the span
        grows by lift * span, whose members get the lift's bit.  Only the
        rows' members are gathered.  Returns the (r, n) coordinates, 0 off
        each row, and the (r, d) lifts, -1 past a row's rank.
        """
        code = ~kernels * _OFF  # coordinates on the span so far, _OFF elsewhere
        code[:, 0] = 0
        members = _padded(rows)
        basis = []
        while True:
            outside = rows & (code == _OFF)
            live = np.flatnonzero(outside.any(axis=1))
            if not live.size:
                break
            g = outside[live].argmax(axis=1)
            basis.append(np.full(len(rows), -1))
            basis[-1][live] = g
            x, at = members[live], live[:, None]
            back = code[at, self.T[self.inv[g][:, None], x]]  # code of g^-1 y
            coset = back != _OFF
            code[np.broadcast_to(at, x.shape)[coset], x[coset]] = (back[coset]
                                                                  | (1 << len(basis) - 1))
        code[code == _OFF] = 0
        return code, np.array(basis, dtype=np.int64).reshape(-1, len(rows)).T

    def _check_quotient_rows(self, coords, basis, kernels, rows) -> None:
        """Raise unless each coords[i] maps rows[i] onto GF(2)^d with kernel kernels[i].

        Premises, which the callers establish: each row is a subgroup H and
        its kernel row a normal subgroup N of H.  With g_1..g_d the row's
        lifts and c its coordinates, checked:

            (a) N = {x in H : c(x) = 0}, and c(x) < 2^d for every x in H;
            (b) g_j x is in H and c(g_j x) = c(x) ^ (1 << j) for x in H
                (one comparison: off H the code reads _OFF, which no
                coordinate reaches).

        By (b) and induction on length, c(w x) = c(x) ^ e(w) for a word w
        in the g_j, e(w) its parity vector; so c(w) = e(w), and c(w n) =
        c(w) for n in N.  Left multiplication by g_j maps the fibre of c over
        v injectively into the fibre over v ^ (1 << j), so all 2^d fibres
        have |N| elements; each is w_v N, and by (a) they cover H.  For
        x = w n and y = w' n', x y = w w' (w'^-1 n w') n' with the bracket in
        N, so c(x y) = c(x) ^ c(y): c is a homomorphism, onto as c(g_j) =
        1 << j, with kernel N.  A row costs O(|H| * d).
        """
        limit = np.int64(1) << (basis >= 0).sum(axis=1)
        if (not np.array_equal(rows & (coords == 0), kernels)
                or (rows & (coords >= limit[:, None])).any()):
            raise ClosureError("quotient coordinates do not have the given kernel")
        code = coords.astype(IDX) | ~rows * _OFF  # _OFF: not in the row
        members = _padded(rows)
        for j in range(basis.shape[1]):
            live = np.flatnonzero(basis[:, j] >= 0)
            x, at = members[live], live[:, None]
            if not np.array_equal(code[at, self.T[basis[live, j][:, None], x]],
                                  code[at, x] ^ (1 << j)):
                raise ClosureError("quotient coordinates are not a homomorphism onto "
                                   "an elementary abelian group")

    def check_quotient_coords(self, coords, basis, k: SubgroupBits,
                              sub: SubgroupBits) -> None:
        """Raise unless coords is a homomorphism of sub onto GF(2)^r with kernel k.

        One row of `_check_quotient_rows`, after its premises:
        `generating_set` proves k a subgroup, and `check_normal` proves sub
        a subgroup (through its verified generating set) and k normal in it.
        """
        self.generating_set(k)
        self.check_normal(k, sub)
        self._check_quotient_rows(np.asarray(coords)[None, :],
                                  np.asarray(basis, dtype=np.int64).reshape(1, -1),
                                  k.bits[None, :], sub.bits[None, :])

    def elementary_quotient_coords(self, k: SubgroupBits,
                                   sub: SubgroupBits | None = None):
        """Verified GF(2)-coordinates on an elementary abelian quotient sub/k.

        Returns (coords, basis_reps): coords[x] is the bit vector of the
        coset of x for every x in sub (0 outside sub), and basis_reps[i],
        the least element of its coset, has coords 1 << i.  One row of
        `_quotient_coords`, checked by `check_quotient_coords`.
        """
        if sub is None:
            sub = self.full_bits()
        coords, basis = self._quotient_coords(k.bits[None, :], sub.bits[None, :])
        basis = basis[0].tolist()
        self.check_quotient_coords(coords[0], basis, k, sub)
        return coords[0], basis

    # -- maximal subgroup descent -------------------------------------------

    def _maximal_rows(self, rows) -> np.ndarray:
        """The index-2 subgroups of the subgroups in `rows`: one descent level.

        `rows` is an (r, n) boolean matrix of subgroups.  Per block of rows:
        Phi(H) = <squares of H> (`_frattini_rows`), normal in H as the
        squares are; coordinates on H/Phi(H) (`_quotient_coords`), verified
        to be a homomorphism onto GF(2)^d with kernel Phi(H)
        (`_check_quotient_rows`); and the preimage of each hyperplane
        ker(lambda), lambda = 1 .. 2^d - 1, packed to a key.  Every index-2
        subgroup of H contains every square, so it contains Phi(H) and is
        one of these preimages, each the kernel of a homomorphism onto GF(2):
        every row's index-2 subgroups arise exactly once, and they are
        subgroups without a further check.  Returns the distinct preimages
        in order of first occurrence over (row, lambda).
        """
        nbytes = (self.n + 7) // 8
        keys = [np.empty((0, nbytes), dtype=np.uint8)]
        for s in range(0, len(rows), _ROW_BLOCK):
            block = rows[s:s + _ROW_BLOCK]
            phi = self._frattini_rows(block)
            coords, basis = self._quotient_coords(phi, block)
            self._check_quotient_rows(coords, basis, phi, block)
            # odd[:, lam] packs {x in H : c(x) & lam has odd weight}: bit planes
            # of c, XORed over the bits of lam by doubling
            odd = np.zeros((len(block), 1, nbytes), dtype=np.uint8)
            for j in range(basis.shape[1]):
                plane = np.packbits(coords & (1 << j) != 0, axis=1)[:, None, :]
                odd = np.concatenate([odd, odd ^ plane], axis=1)
            lam = np.arange(odd.shape[1])
            wanted = (lam >= 1) & (lam < 1 << (basis >= 0).sum(axis=1)[:, None])
            even = np.invert(odd, out=odd)  # in place, as are the cuts to each row
            even &= np.packbits(block, axis=1)[:, None, :]
            keys.append(even[wanted])
        keys = np.concatenate(keys)
        _, first = np.unique(keys.view(np.dtype((np.void, nbytes))).ravel(),
                             return_index=True)
        return np.unpackbits(keys[np.sort(first)], axis=1, count=self.n).view(bool)

    def maximal_subgroups(self, sub: SubgroupBits | None = None):
        """Index-2 subgroups of sub: one row of `_maximal_rows`.

        A sub from outside enters unverified: `generating_set` proves it a
        subgroup, and raises `ClosureError` when it is not, before the
        descent relies on it.
        """
        if sub is None:
            sub = self.full_bits()
        else:
            self.generating_set(sub)
        return [SubgroupBits(self, bits) for bits in self._maximal_rows(sub.bits[None, :])]

    def subgroups_of_index(self, k: int):
        """Complete duplicate-free list for k in {2, 4, 8} by maximal descent.

        One `_maximal_rows` call per level, from the whole group down.
        Every level holds kernels of verified homomorphisms, so the results
        are subgroups without a further closure check.  The list is sorted
        by each subgroup's three least members, ties in order of first
        occurrence.
        """
        if k not in (2, 4, 8):
            raise ConfigurationError("only indices 2, 4, 8 are supported")
        rows = np.ones((1, self.n), dtype=bool)
        for _ in range({2: 1, 4: 2, 8: 3}[k]):
            rows = self._maximal_rows(rows)
            if len(rows) > _EXPLOSION_GUARD:
                raise ResourceError("subgroup descent exploded")
        lead = np.zeros((len(rows), 3), dtype=np.int64)  # the identity leads every row
        at = np.arange(len(rows))
        rows[:, 0] = False  # each member found is cleared for the next search
        for c in (1, 2):
            lead[:, c] = rows.argmax(axis=1)  # 0 past the row's last member
            rows[at, lead[:, c]] = False
        rows[at[:, None], lead] = True  # restores every cleared member
        return [SubgroupBits(self, rows[i]) for i in np.lexsort(lead.T[::-1])]

    # -- structure flags ----------------------------------------------------

    def is_abelian(self, sub: SubgroupBits) -> bool:
        m = sub.members
        return bool((self._commutators(m, m) == 0).all())

    def is_elementary_abelian(self, sub: SubgroupBits) -> bool:
        m = sub.members
        if (self.order_of[m] > 2).any():
            return False
        return self.is_abelian(sub)

    def order_histogram(self, sub: SubgroupBits):
        vals, counts = np.unique(self.order_of[sub.members], return_counts=True)
        return tuple((int(v), int(c)) for v, c in zip(vals, counts))

    def is_extraspecial(self, sub: SubgroupBits) -> bool:
        """|sub| = 2^(1+2m) and Z(sub) = sub' = Phi(sub) of order 2.

        Phi = <squares> (`frattini`), so a sub without exactly one
        non-trivial square s (`lone_squares`), or with s not an involution
        so that <squares> = <s> does not have order 2, is rejected in
        O(|sub|); what remains to check is Z(sub) = sub' of order 2.
        """
        n = sub.order
        power = n.bit_length() - 1
        if n != 1 << power or power % 2 == 0:
            return False
        s = int(self.lone_squares(sub.bits[None, :])[0])
        if s <= 0 or self.order_of[s] != 2:
            return False
        z = self.center_of(sub)
        if z.order != 2:
            return False
        # Phi = <sq> has order 2 and contains sub' = Z, so Phi = Z as well
        return bool(np.array_equal(self.derived_subgroup(sub).bits, z.bits))

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
        if not self.is_abelian(sub) or sub.order != math.prod(invariants):
            return False
        # compare the full order histogram with the abstract product's; the
        # element k of Z/q has order q / gcd(k, q)
        target = Counter({1: 1})
        for q in invariants:
            new = Counter()
            for o, c in target.items():
                for k in range(q):
                    new[math.lcm(o, q // math.gcd(k, q))] += c
            target = new
        actual = Counter({int(v): int(c) for v, c in self.order_histogram(sub)})
        return target == actual

    # -- conjugacy ----------------------------------------------------------

    def generating_set(self, sub: SubgroupBits | None = None):
        """A verified generating set of sub (of the whole group when None).

        The whole group uses the set that `_reduced_generators` reduced
        gen_indices to, which generates by construction.  Callers also use
        gen_indices as generators, so that set must lie inside them: it
        does exactly when gen_indices generate, since otherwise the
        reduction had to add an element outside their closure.  A proper
        subgroup's set is picked greedily, the least member outside the
        closure so far, until the closure covers sub; that last closure
        must equal sub, which a member set that is not a subgroup fails.
        Either way it is cached by the subgroup's key.
        """
        if sub is None:
            sub = self.full_bits()
        key = sub.key()
        gens = self._gen_sets.get(key)
        if gens is None:
            if sub.order == self.n:
                gens = self._gens
                if self.gen_indices and not set(gens) <= set(self.gen_indices):
                    raise ClosureError("the recorded generators do not generate the group")
            else:
                gens = []
                bits = self.trivial_bits().bits
                while (sub.bits & ~bits).any():
                    gens.append(int(np.flatnonzero(sub.bits & ~bits)[0]))
                    bits = self.closure(gens).bits
                if not np.array_equal(bits, sub.bits):
                    raise ClosureError("member set is not a subgroup")
            self._gen_sets[key] = gens
        return list(gens)

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


def invariant_core(bits, images) -> np.ndarray:
    """The largest subset of `bits` that every row of `images` maps into itself.

    `bits` is a boolean vector over the elements, and each row of `images`
    gives the image of every element, -1 where it falls off the group.
    Top-down fixpoint: repeat X <- {x in X : a(x) in X for every row a}
    until X stops changing.  A subset Y of X with a(Y) <= Y for every a
    lies in each step's result, so it stays; at the fixpoint X itself is
    such a subset, hence the largest.  Returns X as a new boolean vector.
    """
    x = np.array(bits, dtype=bool)
    images = np.asarray(images)
    while True:
        members = np.flatnonzero(x)
        img = images[:, members]
        keep = ((img >= 0) & x[img]).all(axis=0)
        if keep.all():
            return x
        x[members[~keep]] = False


def closure_levels(start, post, base, pre=None):
    """Close the distinct rows of `start` under x -> pre_j then x then post_j.

    A row is an image array, "a then b" is ``b[a]``, so generator j sends
    x to ``post[j][x[pre[j]]]`` (``post[j][x]`` when `pre` is None).  Rows
    are keyed by their values on `base`, which the caller proves to tell
    them apart.  A key packs those values into uint64 words, one base
    column at a time, at (degree - 1).bit_length() bits each; a key of
    several words is viewed as one opaque value, so the sort and the
    lookups stay integer ones whenever one word holds the base.  Each
    step keys the products of every frontier row
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
    k, degree = post.shape
    base = np.asarray(base, dtype=np.intp)
    at = base[None, :] if pre is None else np.asarray(pre)[:, base]
    bits = max((degree - 1).bit_length(), 1)
    per = 64 // bits  # base values per word
    words = -(-len(base) // per)
    wide = np.dtype((np.void, 8 * words))

    def keys(column, count):  # column(c): the c-th base value of each row
        out = np.zeros((count, words), dtype=np.uint64)
        for c in range(len(base)):
            out[:, c // per] |= column(c).astype(np.uint64) << np.uint64(bits * (c % per))
        return out.ravel() if words == 1 else out.view(wide).ravel()

    frontier = np.asarray(start, dtype=post.dtype)
    known = keys(lambda c: frontier[:, base[c]], len(frontier))
    order = np.argsort(known)  # known is kept sorted, order[i] is the index of known[i]
    known = known[order]
    n = len(frontier)
    gen = np.arange(k)[None, :]
    while len(frontier):
        lo, width = n - len(frontier), len(frontier)
        cand = keys(lambda c: post[gen, frontier[:, at[:, c]]].ravel(), width * k)
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


def _padded(bits) -> np.ndarray:
    """The members of each row of a boolean matrix, ascending, padded with 0."""
    if len(bits) == 1:
        return np.flatnonzero(bits[0])[None, :]
    flat = np.flatnonzero(bits)  # faster than a 2-D nonzero
    count = np.count_nonzero(bits, axis=1)
    row = np.repeat(np.arange(len(bits)), count)
    out = np.zeros((len(bits), count.max(initial=0)), dtype=IDX)
    out[row, np.arange(len(flat)) - (np.cumsum(count) - count)[row]] = flat - row * bits.shape[1]
    return out


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
                             max_nodes: int = 5_000_000,
                             modulo: SubgroupBits | None = None):
    """All elementary abelian subgroups of order 2^rank in g/K, exhaustively.

    K is `modulo` (trivial when None), proved a subgroup by `generating_set`
    and normal by `check_normal`.  One `span_search` on the commuting graph
    of the involutions of g/K on coset representatives (`coset_reps`): the
    vertices are the representatives x outside K with x^2 in K, x and y
    commute when [x, y] lies in K, and their product is the representative
    of x y (-1 on K).  With ``avoid`` (which must contain K), only subgroups
    with a member outside it are wanted: a stable sort puts the vertices
    outside ``avoid`` first, and the roots inside are skipped.  Each leaf is
    a search result, returned as its preimage in g through `subgroup`'s
    closure check; a subgroup of order 2^rank |K| whose members outside K
    square into K is elementary abelian modulo K.
    """
    k = g.trivial_bits() if modulo is None else modulo
    g.generating_set(k)
    g.check_normal(k)
    if avoid is not None and not k <= avoid:
        raise ConfigurationError("avoid must contain the subgroup factored out")
    rep_of = g.coset_reps(k)
    invol = np.flatnonzero((rep_of == np.arange(g.n)) & k.bits[g.square_of] & ~k.bits)
    roots = None
    if avoid is not None:
        invol = invol[np.argsort(avoid.bits[invol], kind="stable")]
        roots = int((~avoid.bits[invol]).sum())
    local = np.full(g.n, -1)
    local[invol] = np.arange(len(invol))
    commute = k.bits[g._commutators(invol, invol)]
    # only commuting pairs are read: their product lies in K or over a vertex
    prod = local[rep_of[g.T[np.ix_(invol, invol)]]]
    rows, nodes = span_search(commute, prod, rank, roots, max_nodes)
    found = []
    for row in rows:
        over = np.zeros(g.n, dtype=bool)  # the representatives of the leaf
        over[0] = True
        over[invol[row]] = True
        found.append(g.subgroup(over[rep_of]))
    return found, nodes
