import hashlib

import numpy as np
import pytest

from d4fusion.cayley import span_search
from d4fusion.domains import (
    ConcatenatedDomain,
    SingularFlag,
    enumerate_ts_subspaces,
    gf2_code_map,
    induced_action,
    singular_objects,
    span_codes_gf2,
    split_solid_families,
)
from d4fusion.perms import compose, perm_order
from d4fusion.quadforms import (
    DIM,
    GF2_SPACE,
    GF3_SPACE,
    PreconditionError,
    transvection,
)


def test_points_gf2_count_and_order():
    dom = singular_objects(GF2_SPACE, "points")
    assert dom.size == 135
    assert list(dom.codes) == sorted(dom.codes)


def test_projective_points_gf3_count():
    # oracle: (3^8 - 1)/2 = 3280 projective points, filtered by Q = 0
    dom = singular_objects(GF3_SPACE, "points")
    total = sum(1 for c in range(3 ** 8)
                if (lambda v: len(np.nonzero(v)[0]) and
                    v[np.nonzero(v)[0][0]] == 1)(GF3_SPACE.vector(c)))
    assert total == (3 ** 8 - 1) // 2
    assert dom.size == 1120


def test_lines_count_double_counting_oracle():
    lines = enumerate_ts_subspaces(2)
    # oracle: ordered orthogonal singular pairs / 6
    pts = [int(c) for c in GF2_SPACE.singular_codes()]
    singular = set(pts)
    ordered = sum(1 for a in pts for b in pts
                  if a != b and GF2_SPACE.polar(a, b) == 0 and (a ^ b) in singular)
    assert len(lines) == ordered // 6 == 1575
    for key in lines[:40]:
        a, b, c = key
        assert a ^ b == c and all(GF2_SPACE.eval_q(x) == 0 for x in key)


def test_solids_count_families_and_membership():
    solids = enumerate_ts_subspaces(4)
    assert len(solids) == 270
    fam1, fam2 = split_solid_families(solids)
    assert len(fam1) == 135 and len(fam2) == 135
    # each solid contains 15 singular points and is closed under addition
    for key in solids[::17]:
        assert len(key) == 15
        members = set(key) | {0}
        assert all(GF2_SPACE.eval_q(c) == 0 for c in key)
        assert all((a ^ b) in members for a in members for b in members)


def sha1_of(keys):
    return hashlib.sha1(np.array(keys, dtype=np.uint8).tobytes()).hexdigest()


def test_ts_subspaces_are_pinned():
    # the lists fix the domain indices, hence the flag base, the ambient
    # generators and the chains of the O8+(2) model
    assert sha1_of(enumerate_ts_subspaces(2)) == "672757f94b874c2fe10ba69d0da780a7a7d4d265"
    assert sha1_of(enumerate_ts_subspaces(4)) == "79bbe6cd4080933f667e43b7f990aafdc74576d2"


def test_lines_and_solids_incidence():
    # each solid holds [4 choose 2]_2 = 35 lines; each line lies in 6 solids,
    # 3 of each family
    lines = enumerate_ts_subspaces(2)
    fam1, fam2 = split_solid_families(enumerate_ts_subspaces(4))
    per_line = {key: [0, 0] for key in lines}
    for f, fam in enumerate((fam1, fam2)):
        for solid in fam:
            members = set(solid)
            inside = [key for key in lines if members.issuperset(key)]
            assert len(inside) == 35
            for key in inside:
                per_line[key][f] += 1
    assert all(counts == [3, 3] for counts in per_line.values())


def test_span_search_misses_solids_without_one_orthogonal_pair():
    # seeded defect: clear one orthogonal pair of the adjacency and the
    # solids through that pair are lost
    codes = GF2_SPACE.singular_codes()
    local = np.full(256, -1)
    local[codes] = np.arange(len(codes))
    xor = codes[:, None] ^ codes[None, :]
    adjacent = GF2_SPACE.q_table[xor] == 0
    rows, nodes = span_search(adjacent, local[xor], 4)
    assert (len(rows), nodes) == (270, 4005)
    a, b = 0, int(np.flatnonzero(adjacent[0])[1])
    adjacent[a, b] = adjacent[b, a] = False
    rows, _ = span_search(adjacent, local[xor], 4)
    assert len(rows) < 270


def test_solid_families_separated_by_intersection_parity():
    fam1 = singular_objects(GF2_SPACE, "solids-family-1")
    fam2 = singular_objects(GF2_SPACE, "solids-family-2")
    ref = set(fam1.keys[0])
    for key in fam2.keys[:20]:
        assert len(ref & set(key)) in (1, 7)


def test_induced_action_identity_and_involution():
    dom = singular_objects(GF2_SPACE, "points")
    ident = np.eye(DIM, dtype=np.uint8)
    (p,) = induced_action([ident], dom)
    assert np.array_equal(p, np.arange(135, dtype=np.uint16))
    t = transvection(GF2_SPACE, int(GF2_SPACE.nonsingular_codes()[0]))
    (q,) = induced_action([t], dom)
    assert perm_order(q) == 2


def test_induced_action_minus_identity_gf3_trivial():
    dom = singular_objects(GF3_SPACE, "points")
    minus = (2 * np.eye(DIM, dtype=np.int64)) % 3
    (p,) = induced_action([minus], dom)
    assert np.array_equal(p, np.arange(1120, dtype=np.uint16))


def test_induced_action_is_homomorphism():
    dom = singular_objects(GF2_SPACE, "points")
    rng = np.random.default_rng(9)
    codes = GF2_SPACE.nonsingular_codes()
    for _ in range(20):
        a = transvection(GF2_SPACE, int(rng.choice(codes)))
        b = transvection(GF2_SPACE, int(rng.choice(codes)))
        pa, pb = induced_action([a, b], dom)
        pab = dom.perm_of_matrix((b.astype(np.int64) @ a) % 2)
        assert np.array_equal(pab, compose(pa, pb))


def test_induced_action_rejects_non_preserving():
    dom = singular_objects(GF2_SPACE, "points")
    shift = np.zeros((DIM, DIM), dtype=np.uint8)
    for i in range(DIM):
        shift[(i + 1) % DIM, i] = 1  # cyclic coordinate shift: not an isometry
    with pytest.raises(PreconditionError):
        dom.perm_of_matrix(shift)


def test_code_map_matches_matrix_action():
    t = transvection(GF2_SPACE, int(GF2_SPACE.nonsingular_codes()[3]))
    cmap = gf2_code_map(t)
    for c in (0, 1, 77, 200, 255):
        v = GF2_SPACE.vector(c)
        assert cmap[c] == GF2_SPACE.code((t.astype(np.int64) @ v) % 2)


def test_concatenated_domain_offsets():
    pts = singular_objects(GF2_SPACE, "points")
    lines = singular_objects(GF2_SPACE, "lines")
    cat = ConcatenatedDomain([pts, lines])
    assert cat.size == 135 + 1575
    ident = np.eye(DIM, dtype=np.uint8)
    p = cat.perm_of_matrix(ident)
    assert np.array_equal(p, np.arange(cat.size, dtype=np.uint16))


def test_standard_flag_validates():
    # hyperbolic pairs (0,1),(2,3),(4,5),(6,7): e-basis codes 1,4,16,64 and 128
    e1, e2, e3, e4, f4 = 1, 4, 16, 64, 128
    line = tuple(sorted(span_codes_gf2([e1, e2])))
    s1 = tuple(sorted(span_codes_gf2([e1, e2, e3, e4])))
    s2 = tuple(sorted(span_codes_gf2([e1, e2, e3, f4])))
    flag = SingularFlag(point=e1, line=line, solid1=s1, solid2=s2)
    assert flag.validate()


def test_flag_rejects_bad_incidence():
    e1, e2, e3, e4 = 1, 4, 16, 64
    line = tuple(sorted(span_codes_gf2([e2, e3])))
    s1 = tuple(sorted(span_codes_gf2([e1, e2, e3, e4])))
    with pytest.raises(PreconditionError):
        SingularFlag(point=e1, line=line, solid1=s1, solid2=s1).validate()


def _normalize_rows_loop(rows):
    """The row-at-a-time definition: scale by 2 where the first nonzero entry is 2."""
    rows = rows % 3
    out = rows.copy()
    for i, row in enumerate(rows):
        nz = np.flatnonzero(row)
        if len(nz) and row[nz[0]] == 2:
            out[i] = (row * 2) % 3
    return out


def test_normalize_rows_matches_the_row_loop():
    rng = np.random.default_rng(7)
    rows = rng.integers(-3, 6, (500, DIM))
    rows[::50] = 0  # zero rows stay zero
    rows[1::50, :DIM - 1] = 0  # the leading entry is the last one
    dom = singular_objects(GF3_SPACE, "points")
    out = dom.normalize_rows(rows)
    assert np.array_equal(out, _normalize_rows_loop(rows))
    assert (out[::50] == 0).all()
    lead = out[np.arange(len(out)), np.argmax(out != 0, axis=1)]
    assert set(lead[(out != 0).any(axis=1)].tolist()) == {1}


def test_perm_of_matrix_unchanged_on_frame_generators(monkeypatch):
    from d4fusion.groupmodels import (a8_generators, frame_sign_gens, perm_matrix,
                                      t_part_perms)
    dom = singular_objects(GF3_SPACE, "points")
    mats = frame_sign_gens() + [perm_matrix(p) for p in a8_generators() + t_part_perms()]
    fast = induced_action(mats, dom)
    monkeypatch.setattr(type(dom), "normalize_rows", staticmethod(_normalize_rows_loop))
    slow = induced_action(mats, dom)
    assert all(np.array_equal(a, b) for a, b in zip(fast, slow))
