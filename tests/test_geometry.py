"""Immersion/embedding geometry: frame identities, meshes, collision scans.

Frozen scan counts are exact: the pipeline is deterministic float math on a
fixed grid, so a changed count means changed geometry, not noise.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kleinforge import geometry as geo
from kleinforge import verification as vf
from kleinforge.errors import FeasibilityError


# ------------------------------------------------------- directrix + frame

def test_directrix_endpoints_and_apex():
    assert np.allclose(geo.directrix(0.0), [0.0, 0.0], atol=1e-15)
    assert np.allclose(geo.directrix(np.pi), [0.0, 0.0], atol=1e-12)
    assert np.allclose(geo.directrix(np.pi / 2), [5.0, 0.0], atol=1e-12)
    assert np.allclose(geo.directrix_velocity(0.0), [5.0, 0.0], atol=1e-15)


def test_directrix_velocity_matches_finite_differences():
    t = np.linspace(1e-4, np.pi - 1e-4, 1001)
    h = 1e-7
    fd = (geo.directrix(t + h) - geo.directrix(t - h)) / (2 * h)
    assert np.max(np.abs(fd - geo.directrix_velocity(t))) < 1e-5


def test_normal_frame():
    t = np.linspace(0, np.pi, 641)
    J = geo.directrix_normal(t)
    assert np.allclose(np.linalg.norm(J, axis=-1), 1.0, atol=1e-12)
    V = geo.directrix_velocity(t)
    assert np.max(np.abs(np.sum(J * V, axis=-1))) < 1e-9
    # frame flips across the seam: J(pi) = -J(0)
    assert np.allclose(geo.directrix_normal(np.pi), -geo.directrix_normal(0.0), atol=1e-12)
    assert np.allclose(geo.directrix_normal(0.0), [0.0, 1.0], atol=1e-15)


def test_tube_radius_band():
    for n in (2, 3, 4, 6):
        t = np.linspace(0, np.pi, 2001)
        r = geo.tube_radius(n, t)
        band = np.pi**2 * geo.wave_amplitude(n) / 4
        assert np.all(np.abs(r - 0.5) <= band + 1e-12)
        assert abs(geo.tube_radius(n, 0.0) - 0.5) < 1e-15
        assert abs(geo.tube_radius(n, np.pi / 2) - 0.5) < 1e-12


def test_base_unit_values():
    assert geo.base_unit(2) == pytest.approx(1 / 3)
    assert geo.base_unit(3) == pytest.approx(1 / 11)
    assert geo.base_unit(4) == pytest.approx(1 / 27)


# -------------------------------------------------------------- tube stack

def test_nested_radii_shrink_and_stay_in_band():
    for n in (3, 4, 5):
        unit = geo.base_unit(n)
        for t in (0.0, 0.3, np.pi / 2, np.pi):
            radii = geo.nested_torus_radii(n, t)
            assert len(radii) == n - 1
            for i, r in enumerate(radii[:-1]):
                assert r == pytest.approx(2.0 ** (n - 1 - i) * unit)
            assert unit - 1e-12 <= radii[-1] <= 2 * unit + 1e-12
            geo.validate_nesting(radii)
            assert geo.nesting_margin(radii) > 0


def test_nesting_margin_flags_overlap():
    assert geo.nesting_margin([1.0, 0.5]) == pytest.approx(0.5)
    assert geo.nesting_margin([1.0, 1.0]) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        geo.validate_nesting([1.0, 0.6, 0.5])  # 0.6 + 0.5 > 1.0


def test_torus_point_parity_and_peak():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        radii = [2.0 ** (n - 1 - i) for i in range(1, n)]
        th = rng.uniform(0, 2 * np.pi, size=(200, n - 1))
        x, y = geo.torus_point(radii, th), geo.torus_point(radii, -th)
        assert np.max(np.abs(x[..., 0] - y[..., 0])) < 1e-12
        assert np.max(np.abs(x[..., 1:] + y[..., 1:])) < 1e-12
        peak = geo.torus_point(radii, np.zeros(n - 1))
        assert peak[0] == pytest.approx(sum(radii))
        assert np.max(np.abs(peak[1:])) < 1e-15
        assert np.max(np.linalg.norm(x, axis=-1)) <= sum(radii) + 1e-9


def test_family_max_spread():
    # the union of fibres over one period reaches between (2^n-3)u and
    # (2^n-2)u; the wave (2t-pi)sqrt(t(pi-t)) peaks at t = pi/2 +- pi/(2 sqrt 2)
    t_lo = np.pi / 2 + np.pi / (2 * np.sqrt(2.0))
    t_hi = np.pi / 2 - np.pi / (2 * np.sqrt(2.0))
    for n in (2, 3, 4):
        unit = geo.base_unit(n)
        assert sum(geo.nested_torus_radii(n, t_lo)) == pytest.approx(
            (2**n - 3) * unit, abs=1e-9
        )
        assert sum(geo.nested_torus_radii(n, t_hi)) == pytest.approx(
            (2**n - 2) * unit, abs=1e-9
        )
        tgrid = np.linspace(0, np.pi, 2001)
        tops = np.array([sum(geo.nested_torus_radii(n, t)) for t in tgrid])
        assert np.all(tops >= (2**n - 3) * unit - 1e-9)
        assert np.all(tops <= (2**n - 2) * unit + 1e-9)


# ------------------------------------------------------------ the two maps

@given(
    st.integers(2, 4),
    st.lists(st.floats(0, 2 * math.pi), min_size=3, max_size=3),
)
@settings(max_examples=200)
def test_weld_identity(n, angles):
    th = np.array(angles[: n - 1])
    a = geo.immersion_point(n, th, 0.0)
    b = geo.immersion_point(n, -th, np.pi)
    assert np.max(np.abs(a + b)) < 1e-9


def test_weld_identity_dense():
    rng = np.random.default_rng(11)
    for n in (2, 3, 4):
        th = rng.uniform(0, 2 * np.pi, size=(10_000, n - 1))
        gap = np.abs(
            geo.immersion_point(n, th, 0.0) + geo.immersion_point(n, -th, np.pi)
        ).max()
        assert gap < 1e-9


def test_embedding_extends_immersion():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        th = rng.uniform(0, 2 * np.pi, size=(50, n - 1))
        t = rng.uniform(0, np.pi, size=(50, 1))
        imm = geo.immersion_point(n, th, t[..., 0])
        emb = geo.embedding_point(n, th, t[..., 0])
        assert emb.shape[-1] == imm.shape[-1] + 1
        assert np.allclose(emb[..., :-1], imm)
        assert np.allclose(emb[..., -1], np.sin(2 * t[..., 0]))


def test_embedding_separator_values():
    # sin(2t) tells apart the two passes through the shared plane region
    for t, want in ((0.0, 0.0), (np.pi / 4, 1.0), (3 * np.pi / 4, -1.0), (np.pi, 0.0)):
        v = geo.embedding_point(2, np.zeros(1), t)
        assert v[-1] == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------------ meshes

def test_mesh_spec_validation():
    with pytest.raises(ValueError):
        geo.MeshSpec(2, "immersion", 7, 10)  # odd theta grid cannot weld
    with pytest.raises(ValueError):
        geo.MeshSpec(2, "immersion", 8, 2)
    with pytest.raises(ValueError):
        geo.MeshSpec(2, "projection", 8, 8)
    spec = geo.MeshSpec(3, "embedding", 8, 8)
    assert spec.dim == 5


def test_grid_weld_involution():
    for A in (4, 8, 48):
        for i in range(A):
            j = geo.grid_weld_index(i, A)
            assert 0 <= j < A
            assert geo.grid_weld_index(j, A) == i


def per_corner_faces(n, A, T):
    """Grid quads built one corner at a time from the index formula: theta
    indices wrap, and a corner on row T - 1 takes theta_1 through
    grid_weld_index and goes to row 0."""
    kept = (A,) * (n - 1) + (T - 1,)
    base = [g.ravel() for g in np.indices(kept)]
    quads = []
    for a, b in itertools.combinations(range(n), 2):
        corners = []
        for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
            idx = list(base)
            idx[a] = idx[a] + da
            idx[b] = idx[b] + db
            thetas = [ix % A for ix in idx[:-1]]
            at_weld = idx[-1] == T - 1
            thetas[0] = np.where(at_weld, geo.grid_weld_index(thetas[0], A), thetas[0])
            t = np.where(at_weld, 0, idx[-1])
            corners.append(np.ravel_multi_index((*thetas, t), kept))
        quads.append(np.stack(corners, axis=1))
    return np.concatenate(quads, axis=0).astype(np.int64)


def test_grid_faces_match_the_per_corner_formula():
    small = [(n, A, T) for n in range(2, 6) for A, T in ((4, 3), (4, 5), (6, 4), (8, 6))]
    # verify-paper's scan grids, then the mesh-files workload's
    used = [(2, 200, 400), (3, 48, 96), (2, 100, 200), (3, 32, 64), (3, 24, 48)]
    for n, A, T in small + used:
        got = geo._grid_faces(n, A, T)
        expected = per_corner_faces(n, A, T)
        assert got.dtype == expected.dtype == np.int64
        assert np.array_equal(got, expected), (n, A, T)


def test_build_mesh_n2_shape():
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 200, 400))
    assert mesh.num_vertices == 200 * 399
    assert mesh.num_faces == 200 * 399
    assert mesh.weld_error < 1e-12
    assert mesh.dim == 3
    # closed surface glued from a cylinder: chi = 0
    assert geo.euler_characteristic(mesh) == 0


def test_build_mesh_n3_closed():
    mesh = geo.build_mesh(geo.MeshSpec(3, "immersion", 12, 10))
    V = 12 * 12 * 9
    assert mesh.num_vertices == V
    assert mesh.weld_error < 1e-12
    # closed cubical 3-grid: 3 edges, 3 quads and 1 cube per vertex, so the
    # quad skeleton gives V - E + F = V and the full alternating sum is 0
    edges = geo.mesh_edges(mesh.faces)
    assert len(edges) == 3 * V
    assert mesh.num_faces == 3 * V
    assert geo.euler_characteristic(mesh) == V
    assert V - len(edges) + mesh.num_faces - V == 0


def test_faces_index_valid_vertices():
    mesh = geo.build_mesh(geo.MeshSpec(2, "embedding", 16, 12))
    assert mesh.faces.min() >= 0
    assert mesh.faces.max() < mesh.num_vertices
    assert mesh.vertices.shape == (mesh.num_vertices, 4)


# ------------------------------------------------------------------- scans

def test_immersion_scan_frozen_counts():
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 200, 400))
    result = geo.self_intersection_scan(mesh, 1e-2)
    assert result.num_pairs == 73
    reach = result.seam_confinement
    assert reach == pytest.approx(0.5747, abs=2e-3)
    assert reach < 0.4 * np.pi


def test_embedding_scan_clean():
    mesh = geo.build_mesh(geo.MeshSpec(2, "embedding", 200, 400))
    result = geo.self_intersection_scan(mesh, 1e-2)
    assert result.num_pairs == 0
    assert result.seam_confinement is None


def test_scan_excludes_quad_neighbours():
    # at a huge radius everything is close; survivors must share no quad
    # and no common quad-neighbour
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 8, 6))
    result = geo.self_intersection_scan(mesh, 10.0)
    assert result.num_pairs > 0
    near = {}
    for quad in mesh.faces:
        for a in quad:
            near.setdefault(int(a), {int(a)}).update(int(b) for b in quad)
    for i, j in result.pairs:
        assert not near[int(i)] & near[int(j)], (i, j)


def kdtree_oracle_pairs(mesh, radius):
    """Close pairs from a k-d tree, minus those whose quad balls meet."""
    from scipy.spatial import cKDTree

    tree = cKDTree(mesh.vertices)
    candidates = tree.query_pairs(radius, output_type="set")
    near = {}
    for quad in mesh.faces:
        for a in quad:
            near.setdefault(int(a), {int(a)}).update(int(b) for b in quad)
    return {
        (min(i, j), max(i, j))
        for i, j in candidates
        if not near[i] & near[j]
    }


def test_scan_matches_kdtree_oracle():
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 36, 40))
    radius = 0.15
    result = geo.self_intersection_scan(mesh, radius)
    got = {(int(i), int(j)) for i, j in result.pairs}
    assert got == kdtree_oracle_pairs(mesh, radius)


def obj_round_trip(mesh, tmp_path):
    path = tmp_path / "mesh.obj"
    geo.write_obj(mesh, str(path))
    return geo.read_obj(str(path))


def relabelled(mesh, tmp_path):
    """The same surface with its vertex ids randomly permuted."""
    perm = np.random.default_rng(17).permutation(mesh.num_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[perm] = mesh.vertices
    return geo.Mesh(vertices, perm[mesh.faces], None, None, float("nan"))


@pytest.mark.parametrize(
    "spec, radius, remake",
    [
        (geo.MeshSpec(3, "embedding", 12, 10), 0.5, None),
        (geo.MeshSpec(2, "immersion", 36, 40), 0.15, obj_round_trip),
        (geo.MeshSpec(2, "immersion", 36, 40), 0.15, relabelled),
    ],
    ids=["n3-embedding", "obj-round-trip", "permuted-ids"],
)
def test_scan_matches_kdtree_oracle_without_grid_order(tmp_path, spec, radius, remake):
    # the neighbour filter reads only the faces: no grid metadata, no id order
    mesh = geo.build_mesh(spec)
    if remake is not None:
        mesh = remake(mesh, tmp_path)
    result = geo.self_intersection_scan(mesh, radius)
    got = {(int(i), int(j)) for i, j in result.pairs}
    expected = kdtree_oracle_pairs(mesh, radius)
    assert expected
    assert got == expected


def two_fans(quads):
    """Two quad fans 0.01 apart, each around one pole of degree `quads`.

    The pole has the largest id of its fan and the ring has radius 0.03,
    so the pole is a candidate with every ring vertex of both fans.
    """
    angle = np.linspace(0, 2 * np.pi, 2 * quads, endpoint=False)
    ring = 0.03 * np.stack([np.cos(angle), np.sin(angle), np.zeros_like(angle)], axis=1)
    fan = np.concatenate([ring, np.zeros((1, 3))])
    k = np.arange(quads)
    faces = np.stack([0 * k + 2 * quads, 2 * k, 2 * k + 1, (2 * k + 2) % (2 * quads)], axis=1)
    vertices = np.concatenate([fan, fan + [0.0, 0.0, 0.01]])
    return geo.Mesh(vertices, np.concatenate([faces, faces + len(fan)]), None, None, float("nan"))


def test_scan_matches_kdtree_oracle_with_a_high_degree_pole():
    # each pole's ball holds 201 vertices, every other ball at most 7
    mesh = two_fans(100)
    result = geo.self_intersection_scan(mesh, 0.05)
    got = {(int(i), int(j)) for i, j in result.pairs}
    expected = kdtree_oracle_pairs(mesh, 0.05)
    assert (200, 401) in expected and (0, 401) in expected
    assert got == expected


@pytest.mark.parametrize("dim", [*range(1, 8), 11, 13])
def test_folded_cell_lookup_matches_brute_force(dim):
    # lattice points of spacing radius/2, drawn with repeats: many sit on cell
    # edges, at distance exactly `radius` or 0, and in the first and last
    # cells of the sort; dim = 1 joins one axis only
    rng = np.random.default_rng(dim)
    radius = 1.0
    P = rng.integers(0, 5, size=(300, dim)) * (radius / 2)
    if dim > 7:
        # most coordinates zero, so that enough pairs stay close
        P *= rng.random(P.shape) < 0.3
    I, J = geo._candidate_pairs(P, radius)
    got = sorted(zip(np.minimum(I, J).tolist(), np.maximum(I, J).tolist()))
    d2 = np.sum((P[:, None, :] - P[None, :, :]) ** 2, axis=-1)
    expected = sorted(zip(*np.nonzero(np.triu(d2 <= radius * radius, k=1))))
    assert len(expected) > 200
    assert got == [(int(i), int(j)) for i, j in expected]


def test_cell_join_moves_no_budget_boundary(monkeypatch):
    # verify-paper's n = 3 immersion has 1,760,184 raw candidates: the scan
    # passes with the budget at that count and is refused one below it
    s = vf.SCAN_SETTINGS[3]
    mesh = geo.build_mesh(geo.MeshSpec(3, "immersion", s["res_theta"], s["res_t"]))
    monkeypatch.setattr(geo, "SCAN_CANDIDATE_BUDGET", 1_760_184 - 1)
    with pytest.raises(FeasibilityError, match="over 1760183 candidate pairs"):
        geo.self_intersection_scan(mesh, s["radius"])
    monkeypatch.setattr(geo, "SCAN_CANDIDATE_BUDGET", 1_760_184)
    assert geo.self_intersection_scan(mesh, s["radius"]).num_pairs == 216


def test_nested_family_gap_matches_the_broadcast_minimum():
    rng = np.random.default_rng(5)
    for rows, cols in ((1, 1), (300, 70), (513, 257)):
        a = rng.normal(size=(rows, 3))
        b = rng.normal(size=(cols, 3)) + 0.5
        broadcast = np.min(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1))
        assert vf._min_sq_distance(a, b) == pytest.approx(broadcast, rel=1e-12, abs=1e-14)
    # a shared point is a gap of 0, so a touching family fails the check
    a = rng.normal(size=(600, 3))
    b = np.concatenate([rng.normal(size=(50, 3)) + 10.0, a[555:556]])
    assert abs(vf._min_sq_distance(a, b)) < 1e-12


def test_ball_table_over_budget_is_infeasible(monkeypatch):
    mesh = two_fans(100)
    # 402 vertices in candidate pairs, each row 1 + 4 * 100 wide before dedupe
    monkeypatch.setattr(geo, "SCAN_BALL_BUDGET", 402 * 401 - 1)
    with pytest.raises(FeasibilityError, match="ball entries"):
        geo.self_intersection_scan(mesh, 0.05)
    monkeypatch.setattr(geo, "SCAN_BALL_BUDGET", 402 * 401)
    assert geo.self_intersection_scan(mesh, 0.05).num_pairs


def test_scan_distances_below_radius():
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 200, 400))
    result = geo.self_intersection_scan(mesh, 1e-2)
    assert result.num_pairs > 0
    assert all(d <= 1e-2 for d in result.distances)
    P = mesh.vertices
    for (i, j), d in zip(result.pairs, result.distances):
        assert np.linalg.norm(P[i] - P[j]) == pytest.approx(d, rel=1e-12)


def test_tiny_radius_keeps_cell_keys_in_range(tmp_path):
    # two unit squares that touch at one corner, each with its own vertex there
    path = tmp_path / "touching.txt"
    path.write_text(
        SQUARE_VERTICES
        + "v 1 1 0\nv 2 1 0\nv 2 2 0\nv 1 2 0\n"
        + "f 0 1 2 3\nf 4 5 6 7\n"
    )
    mesh = geo.load_mesh(str(path))
    with np.errstate(invalid="raise"):
        result = geo.self_intersection_scan(mesh, 1e-200)
    assert result.pairs == ((2, 4),)
    assert result.distances == (0.0,)


def test_scan_rejects_bad_radius():
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 8, 6))
    for radius in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            geo.self_intersection_scan(mesh, radius)


def test_scan_of_a_mesh_wider_than_the_float_range_is_infeasible():
    vertices = np.array([[-1e308, 0, 0], [1e308, 0, 0], [0, 1, 0], [0, 0, 1]])
    mesh = geo.Mesh(vertices, np.array([[0, 1, 2, 3]]), None, None, float("nan"))
    with pytest.raises(FeasibilityError, match="64 bits"):
        geo.self_intersection_scan(mesh, 1.0)


def test_scan_rejects_non_finite_vertices(tmp_path):
    for bad in ("inf", "nan"):
        path = tmp_path / f"{bad}.txt"
        path.write_text(SQUARE_VERTICES.replace("v 1 1 0", f"v 1 {bad} 0") + "f 0 1 2 3\n")
        with pytest.raises(ValueError, match="finite"):
            geo.self_intersection_scan(geo.load_mesh(str(path)), 0.5)


# ------------------------------------------------------------------- files

def test_mesh_text_round_trip(tmp_path):
    mesh = geo.build_mesh(geo.MeshSpec(3, "embedding", 8, 6))
    path = tmp_path / "mesh.txt"
    geo.write_mesh_text(mesh, str(path))
    back = geo.read_mesh_text(str(path))
    assert np.array_equal(back.vertices, mesh.vertices)  # repr round-trip is exact
    assert np.array_equal(back.faces, mesh.faces)
    assert np.array_equal(back.t_values, mesh.t_values)
    assert back.spec == mesh.spec
    assert back.weld_error == mesh.weld_error

    # floats whose shortest repr is awkward: signed zero, the smallest
    # subnormal, exponents at both ends, and a sum that is not its literal
    awkward = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.7976931348623157e308]
    vertices = np.array([awkward[:3], awkward[3:], awkward[::-2], awkward[-2::-2]])
    mesh = geo.Mesh(vertices, np.array([[0, 1, 2, 3]]), np.array(awkward[:4]), None, 0.1 + 0.2)
    geo.write_mesh_text(mesh, str(path))
    back = geo.read_mesh_text(str(path))
    assert back.vertices.view(np.int64).tolist() == vertices.view(np.int64).tolist()
    assert back.t_values.view(np.int64).tolist() == mesh.t_values.view(np.int64).tolist()
    assert back.weld_error == 0.1 + 0.2
    via_obj = obj_round_trip(mesh, tmp_path)
    assert via_obj.vertices.view(np.int64).tolist() == vertices.view(np.int64).tolist()
    assert via_obj.faces.tolist() == [[0, 1, 2, 3]]


SQUARE_VERTICES = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\n"


def test_obj_negative_indices_count_back_from_newest_vertex(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text(SQUARE_VERTICES + "f -1 -2 -3 -4\n")
    mesh = geo.load_mesh(str(path))
    assert mesh.faces.tolist() == [[3, 2, 1, 0]]
    # all four vertices share the one quad, so none is a non-neighbour pair
    assert geo.self_intersection_scan(mesh, 10.0).num_pairs == 0


def test_obj_reader_accepts_common_obj_records(tmp_path):
    # index/texture/normal triples, records the reader skips, a w coordinate,
    # tabs, and negative indices that count back from the newest vertex so far
    path = tmp_path / "squares.obj"
    path.write_text(
        "# two unit squares\no squares\ng left\ns off\n"
        "v 0 0 0 1.0\nv\t1\t0\t0\nv 1 1 0\nv 0 1 0\nvn 0 0 1\nvt 0 0\n"
        "f 1/1/1 2//2 3/3 4\n"
        "v 2 0 0\nv 2 1 0\n"
        "f\t-1 -2 2 3\n"
    )
    mesh = geo.load_mesh(str(path))
    assert mesh.vertices.tolist() == [
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0], [2, 1, 0]
    ]
    assert mesh.faces.tolist() == [[0, 1, 2, 3], [5, 4, 1, 2]]
    assert mesh.t_values is None and mesh.spec is None


@pytest.mark.parametrize("name", ["mesh.txt", "mesh.obj"])
def test_mesh_readers_parse_in_blocks(tmp_path, monkeypatch, name):
    # 40 vertices, 40 t values and 40 quads, read three records at a time
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 8, 6))
    path = str(tmp_path / name)
    (geo.write_obj if name.endswith(".obj") else geo.write_mesh_text)(mesh, path)
    monkeypatch.setattr(geo, "_IO_ROWS", 3)
    back = geo.load_mesh(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)
    if name.endswith(".txt"):
        assert np.array_equal(back.t_values, mesh.t_values)


def test_obj_negative_indices_count_back_across_blocks(tmp_path, monkeypatch):
    # each square's face follows its four vertices and names them from the newest
    path = tmp_path / "squares.obj"
    path.write_text("".join(
        "".join(f"v {x + k} {y} 0\n" for x, y in ((0, 0), (1, 0), (1, 1), (0, 1)))
        + "f -4 -3 -2 -1\n"
        for k in range(7)
    ))
    monkeypatch.setattr(geo, "_IO_ROWS", 3)
    mesh = geo.load_mesh(str(path))
    assert mesh.faces.tolist() == [[4 * k, 4 * k + 1, 4 * k + 2, 4 * k + 3] for k in range(7)]
    assert mesh.vertices[-1].tolist() == [6, 1, 0]


@pytest.mark.parametrize(
    "name, faces",
    [
        ("zero.obj", "f 0 1 2 3\n"),
        ("past-end.obj", "f 1 2 3 5\n"),
        ("before-first.obj", "f -1 -2 -3 -5\n"),
        ("triangle.obj", "f 1 2 3\n"),
        ("past-end.txt", "f 0 1 2 9\n"),
        ("negative.txt", "f 0 1 2 -1\n"),
        ("ragged-v.txt", "v 1 2\nf 0 1 2 3\n"),
        ("bare-v.txt", "v\nf 0 1 2 3\n"),
        ("ragged-v.obj", "v 1 2\nf 1 2 3 4\n"),
        ("word-in-v.txt", "v 1 x 0\nf 0 1 2 3\n"),
        ("word-in-v.obj", "v 1 x 0\nf 1 2 3 4\n"),
        ("word-in-t.txt", "t 0\nt 0\nt 1\nt one\nf 0 1 2 3\n"),
        ("word-in-f.txt", "f 0 1 2 x\n"),
        ("word-in-f.obj", "f 1 2 3 x\n"),
        ("t-count.txt", "t 0\nt 1\nf 0 1 2 3\n"),
        ("id-past-int64.txt", "f 0 1 2 99999999999999999999\n"),
        ("zero-then-vertex.obj", "f 0 1 2 3\nv 2 2 0\n"),
        ("slash-first.obj", "f 1 2 3 4 /5\n"),
    ],
)
def test_mesh_readers_reject_bad_faces(tmp_path, name, faces):
    path = tmp_path / name
    path.write_text(SQUARE_VERTICES + faces)
    with pytest.raises(ValueError):
        geo.load_mesh(str(path))


def test_obj_export_3d(tmp_path):
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 8, 6))
    path = tmp_path / "mesh.obj"
    geo.write_obj(mesh, str(path))
    lines = path.read_text().splitlines()
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == mesh.num_vertices
    assert len(fs) == mesh.num_faces
    first = np.array([float(x) for x in vs[0].split()[1:]])
    assert np.allclose(first, mesh.vertices[0])
    # OBJ faces are 1-based
    assert min(int(i) for l in fs for i in l.split()[1:]) == 1


def test_obj_export_needs_axes_beyond_3d(tmp_path):
    mesh = geo.build_mesh(geo.MeshSpec(3, "immersion", 8, 6))
    with pytest.raises(ValueError):
        geo.write_obj(mesh, str(tmp_path / "x.obj"))
    geo.write_obj(mesh, str(tmp_path / "x.obj"), axes=(0, 1, 3))
    lines = (tmp_path / "x.obj").read_text().splitlines()
    first = next(l for l in lines if l.startswith("v "))
    want = mesh.vertices[0][[0, 1, 3]]
    assert np.allclose([float(x) for x in first.split()[1:]], want)
