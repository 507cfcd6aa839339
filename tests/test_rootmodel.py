import numpy as np

from d4fusion import rootmodel
from d4fusion.quadforms import GF2_SPACE, dickson, is_isometry_exhaustive
from d4fusion.rootmodel import (
    build_root_model,
    positive_roots,
    root_alpha_coords,
    root_matrix,
    root_model_matches,
    triality_automap,
    triality_root_permutation,
)


def test_twelve_positive_roots():
    roots = positive_roots()
    assert len(roots) == 12
    coords = [root_alpha_coords(r) for r in roots]
    assert len(set(coords)) == 12
    # simple roots have exactly one nonzero coefficient
    simple = [c for c in coords if sum(abs(x) for x in c) == 1]
    assert len(simple) == 4


def test_root_matrices_are_omega_elements():
    for r in positive_roots():
        m = root_matrix(r)
        assert is_isometry_exhaustive(GF2_SPACE, m)
        assert dickson(GF2_SPACE, m) == 0
        sq = (m.astype(np.int64) @ m) % 2
        assert np.array_equal(sq, np.eye(8, dtype=np.int64))


def test_triality_root_permutation_order_three():
    perm = triality_root_permutation()
    assert not np.array_equal(perm, np.arange(12))
    assert np.array_equal(perm[perm][perm], np.arange(12))


def test_root_model_is_the_sylow():
    grp = build_root_model()
    assert grp.n == 4096
    z = grp.center_of(grp.full_bits())
    assert z.order == 2


def test_triality_is_verified_order_three():
    grp = build_root_model()
    tri = triality_automap(grp)
    assert tri.map_order() == 3


def test_root_model_matches_chamber(chamber_bundle):
    trans = root_model_matches(chamber_bundle.matrices)
    assert len(set(trans.tolist())) == 4096


def test_chamber_triality_builds_no_table_and_verifies_one_map(chamber_bundle,
                                                               monkeypatch):
    # the root model's map, carried through the index translation, is the
    # reference; chamber_triality reads the same map off the flag table
    root = build_root_model()
    trans = root_model_matches(chamber_bundle.matrices)
    back = np.empty_like(trans)
    back[trans] = np.arange(len(trans))
    expected = trans[triality_automap(root).images[back]]
    built, verified = [], []
    real_fill, real_check = rootmodel.CayleyGroup._fill, rootmodel.AutoMap.__post_init__

    def counted_fill(self, *args):
        built.append(1)
        real_fill(self, *args)

    def counted_check(self):
        verified.append(1)
        real_check(self)

    monkeypatch.setattr(rootmodel.CayleyGroup, "_fill", counted_fill)
    monkeypatch.setattr(rootmodel.AutoMap, "__post_init__", counted_check)
    tri = rootmodel.chamber_triality(chamber_bundle)
    assert built == [] and verified == [1]
    assert tri.map_order() == 3
    assert np.array_equal(tri.images, expected)


def test_root_model_matches_builds_no_table(chamber_bundle, monkeypatch):
    expected = rootmodel._translation(build_root_model().elements, chamber_bundle.matrices)
    built = []
    real_fill = rootmodel.CayleyGroup._fill

    def counted(self, *args):
        built.append(1)
        real_fill(self, *args)

    # both entries, `CayleyGroup(T)` and `from_generators`, fill through _fill
    monkeypatch.setattr(rootmodel.CayleyGroup, "_fill", counted)
    trans = root_model_matches(chamber_bundle.matrices)
    assert built == []
    assert np.array_equal(trans, expected)
