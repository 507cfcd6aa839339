"""The Sylow 2-subgroup as a root-generator matrix group, and its order-3
diagram symmetry.

The twelve positive roots of the D4 system give twelve explicit unipotent
isometries of the hyperbolic GF(2) form; together they generate the full
chamber stabilizer of order 2^12.  The star symmetry of the D4 diagram
permutes the root labels with order 3, and substituting permuted
generators into each element's factorization yields a candidate map whose
multiplicativity is then verified exhaustively on a Cayley table.  That
verified map is the outer automorphism of order 3 used downstream; it is
built on the flag model's table (`chamber_triality`), where the root
generators are found by their basis images, so no root-model table is
built for it.
"""

from __future__ import annotations

import numpy as np

from .cayley import IDX, AutoMap, CayleyGroup, closure_levels, find_keys, pack_keys
from .domains import gf2_code_map
from .perms import ConfigurationError
from .quadforms import DIM
from .stabchain import GroupHandle, build_stab_chain

# epsilon-coordinates of the simple roots (D4, node 2 is the branch node)
SIMPLE_ROOTS = np.array([
    [1, -1, 0, 0],
    [0, 1, -1, 0],
    [0, 0, 1, -1],
    [0, 0, 1, 1],
], dtype=np.int64)

# diagram symmetry of order 3: alpha1 -> alpha3 -> alpha4 -> alpha1
DIAGRAM_ROTATION = [2, 1, 3, 0]

_POW2 = 1 << np.arange(DIM)  # the codes of the basis vectors


def positive_roots():
    """(kind, i, j) with kind '-' for e_i - e_j and '+' for e_i + e_j, i < j."""
    out = []
    for i in range(4):
        for j in range(i + 1, 4):
            out.append(("-", i, j))
    for i in range(4):
        for j in range(i + 1, 4):
            out.append(("+", i, j))
    return out


def root_epsilon_vector(root):
    kind, i, j = root
    v = np.zeros(4, dtype=np.int64)
    v[i] = 1
    v[j] = -1 if kind == "-" else 1
    return v


def root_alpha_coords(root):
    v = root_epsilon_vector(root)
    sol = np.linalg.solve(SIMPLE_ROOTS.T.astype(float), v.astype(float))
    coords = np.rint(sol).astype(np.int64)
    if not np.array_equal(SIMPLE_ROOTS.T @ coords, v):
        raise ConfigurationError("root does not lie in the simple-root lattice")
    return tuple(int(c) for c in coords)


def triality_root_permutation():
    """Permutation of the 12 positive roots from the diagram symmetry.

    Its order 3 is proved on the group: `_diagram_map` sends the root
    generators, distinct elements, to each other by this permutation and
    must have order 3.
    """
    roots = positive_roots()
    by_coords = {root_alpha_coords(r): k for k, r in enumerate(roots)}
    perm = []
    for r in roots:
        c = root_alpha_coords(r)
        image = [0, 0, 0, 0]
        for i, ci in enumerate(c):
            image[DIAGRAM_ROTATION[i]] = ci
        k = by_coords.get(tuple(image))
        if k is None:
            raise ConfigurationError("diagram symmetry left the positive system")
        perm.append(k)
    return np.array(perm, dtype=np.int64)


def root_matrix(root) -> np.ndarray:
    """The unipotent isometry for one positive root.

    Coordinates pair hyperbolically as (0,1), (2,3), (4,5), (6,7) with
    e_i = bit 2i and f_i = bit 2i+1.
    """
    kind, i, j = root
    m = np.eye(DIM, dtype=np.uint8)
    e = lambda k: 2 * k
    f = lambda k: 2 * k + 1
    if kind == "-":
        m[e(i), e(j)] = 1   # e_j -> e_j + e_i
        m[f(j), f(i)] = 1   # f_i -> f_i + f_j
    else:
        m[e(j), f(i)] = 1   # f_i -> f_i + e_j
        m[e(i), f(j)] = 1   # f_j -> f_j + e_i
    return m


def _root_generators() -> np.ndarray:
    return np.stack([gf2_code_map(root_matrix(r)) for r in positive_roots()]).astype(IDX)


def build_root_model() -> CayleyGroup:
    """The group generated by the twelve root matrices, fully enumerated.

    Each element is the permutation a matrix induces on the 256 GF(2)
    codes: composing those is "a then b" as the matrix product b @ a is.
    The table is keyed on a chain built with the basis codes 1 << i as
    its base prefix; a linear map is fixed by their images, so the chain
    needs no other base point.  This, `triality_automap` and
    `root_model_matches` stay public because the benchmark's `search`
    workload and `benchmarks/tracing.py` call them.
    """
    gens = _root_generators()
    chain = build_stab_chain(GroupHandle("root-model", gens), base_hint=list(_POW2))
    group = CayleyGroup.from_generators(gens, chain=chain, name="root-model")
    if group.n != 4096:
        raise ConfigurationError("root matrices generated order %d, not 4096" % group.n)
    return group


def _diagram_map(group: CayleyGroup, anchors) -> AutoMap:
    """The verified order-3 map a_j -> a_rot(j) of `group`, where anchors[j]
    is the element of the j-th positive root and rot the diagram symmetry.

    One `closure_levels` walk of the table on 1-wide rows, anchor j
    sending x to T[x, a_j], as `automorphisms._anchor_prefixes` does; each
    new element x a_j gets image[x] a_rot(j).  An element the walk does
    not reach keeps image 0, which the bijection check refuses.  The
    `AutoMap` constructor checks the generator-column identity on every
    element, which forces multiplicativity, so a wrong substitution cannot
    survive; the map must also have order 3.
    """
    rotated = np.asarray(anchors)[triality_root_permutation()]
    images = np.zeros(group.n, dtype=IDX)
    walked = np.zeros(1, dtype=IDX)  # the walk's elements, in its order
    for rows, f, j, _ in closure_levels(walked[None, :], group.T[:, anchors].T, [0]):
        images[rows[:, 0]] = group.T[images[walked[f]], rotated[j]]
        walked = np.concatenate([walked, rows[:, 0]])
    auto = AutoMap(group, images)
    if auto.map_order() != 3:
        raise ConfigurationError("diagram map does not have order 3 on the group")
    return auto


def triality_automap(group: CayleyGroup) -> AutoMap:
    """The verified order-3 automorphism of the root model from the
    diagram symmetry: `_diagram_map` on its generators."""
    return _diagram_map(group, group.gen_indices)


def root_model_matches(bundle_matrices) -> np.ndarray:
    """Index translation root-model -> bundle for matrix-backed models.

    Returns an array mapping each root-model element index to the bundle
    element index carrying the same matrix; raises if the two element sets
    differ (they must coincide for the standard chamber stabilizer).  The
    rows are `build_root_model`'s, in its order: the identity, then the
    levels that `closure_levels` reaches over the root generators keyed on
    the basis codes, which number the rows as any faithful key does.  No
    table is built.
    """
    gens = _root_generators()
    rows = [np.arange(gens.shape[1], dtype=IDX)[None, :]]
    rows += [new for new, *_ in closure_levels(rows[0], gens, _POW2)]
    elements = np.concatenate(rows)
    if len(elements) != len(bundle_matrices):
        raise ConfigurationError("the root model and the bundle differ in order")
    return _translation(elements, bundle_matrices)


def _translation(elements, bundle_matrices) -> np.ndarray:
    """The bundle index of each row of `elements`, permutations of the codes.

    An element is keyed (`cayley.pack_keys`, 8 bits a code) by the codes of
    its 8 basis images: the columns of a bundle matrix, the images of the
    codes 1 << i under a root element.
    """
    bundle_keys = pack_keys(_POW2 @ (np.stack(bundle_matrices) % 2), 8)
    order = np.argsort(bundle_keys)
    out = find_keys(bundle_keys[order], pack_keys(elements[:, _POW2], 8), order)
    if (out < 0).any():
        raise ConfigurationError("root-model element missing from the bundle; "
                                 "the chamber is not the standard one")
    return out


def chamber_triality(bundle) -> AutoMap:
    """The diagram triality on the flag-model Sylow subgroup, read on its table.

    The twelve root generators are found in the bundle by the codes of
    their basis images (`_translation`), and `_diagram_map` substitutes
    them on `bundle.sylow`: no root-model table is built.  The map agrees
    on the generators with the root model's `triality_automap` carried
    through `root_model_matches`, and both are homomorphisms, so it is
    the same map.
    """
    return _diagram_map(bundle.sylow, _translation(_root_generators(), bundle.matrices))
