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


def test_chamber_triality_builds_the_root_model_once(chamber_bundle, monkeypatch):
    calls = []

    def counted():
        calls.append(1)
        return build_root_model()

    monkeypatch.setattr(rootmodel, "build_root_model", counted)
    tri = rootmodel.chamber_triality(chamber_bundle)
    assert len(calls) == 1
    assert tri.map_order() == 3


def test_root_model_matches_builds_no_table(chamber_bundle, monkeypatch):
    expected = rootmodel._translation(build_root_model().elements, chamber_bundle.matrices)
    built = []
    real_init = rootmodel.CayleyGroup.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(rootmodel.CayleyGroup, "__init__", counted)
    trans = root_model_matches(chamber_bundle.matrices)
    assert built == []
    assert np.array_equal(trans, expected)
