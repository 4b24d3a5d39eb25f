"""Immersion/embedding geometry: frame identities, meshes, collision scans.

Frozen scan counts are exact: the pipeline is deterministic float math on a
fixed grid, so a changed count means changed geometry, not noise.
"""

import functools
import itertools
import math
import pathlib
import re
import runpy
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kleinforge import geometry as geo
from kleinforge import verification as vf
from kleinforge.errors import FeasibilityError

ROOT = pathlib.Path(__file__).resolve().parents[1]


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
    # the figure-eight is regular: |a'|^2 = 25 cos^2 t + sin^2 t (6 cos^2 t - 2)^2
    # has its minimum 1.9905 near t = 4.873, so the normal never divides by 0
    speed = np.linalg.norm(geo.directrix_velocity(np.linspace(0, 2 * np.pi, 2001)), axis=-1)
    assert np.min(speed) > 1.9


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
    # every n that build_mesh admits (MESH_ENTRY_BUDGET refuses n >= 9)
    for n in range(2, 9):
        unit = geo.base_unit(n)
        # at both band extremes the margin is min(last, 4D - last) = D
        for extreme in (unit, 2 * unit):
            radii = [2.0 ** (n - i) * unit for i in range(1, n - 1)] + [extreme]
            assert geo.nesting_margin(radii) >= (1 - 1e-9) * unit
        for t in (0.0, 0.3, np.pi / 2, np.pi):
            radii = geo.nested_torus_radii(n, t)
            assert len(radii) == n - 1
            for i, r in enumerate(radii[:-1]):
                assert r == pytest.approx(2.0 ** (n - 1 - i) * unit)
            assert unit - 1e-12 <= radii[-1] <= 2 * unit + 1e-12
            assert geo.nesting_margin(radii) > 0


def test_nesting_margin_flags_overlap():
    assert geo.nesting_margin([1.0, 0.5]) == pytest.approx(0.5)
    assert geo.nesting_margin([1.0, 1.0]) == pytest.approx(0.0)
    assert geo.nesting_margin([1.0, 0.6, 0.5]) < 0  # 0.6 + 0.5 > 1.0


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


def test_maps_accept_zero_samples():
    thetas, t = np.empty((0, 2)), np.empty(0)
    assert geo.immersion_point(3, thetas, t).shape == (0, 4)
    assert geo.embedding_point(3, thetas, t).shape == (0, 5)


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
    return np.concatenate(quads, axis=0).astype(np.int32)


def test_grid_faces_match_the_per_corner_formula():
    small = [(n, A, T) for n in range(2, 6) for A, T in ((4, 3), (4, 5), (6, 4), (8, 6))]
    # verify-paper's scan grids, then the mesh-files workload's
    used = [(2, 200, 400), (3, 48, 96), (2, 100, 200), (3, 32, 64), (3, 24, 48)]
    for n, A, T in small + used:
        got = geo._grid_faces(n, A, T)
        expected = per_corner_faces(n, A, T)
        assert got.dtype == expected.dtype == np.int32
        assert np.array_equal(got, expected), (n, A, T)


def test_build_mesh_n2_shape():
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 200, 400))
    assert mesh.num_vertices == 200 * 399
    assert mesh.num_faces == 200 * 399
    assert mesh.weld_error < 1e-12
    assert mesh.dim == 3
    # closed surface glued from a cylinder: chi = V - E + F = 0, each edge
    # a sorted pair of cyclically adjacent quad corners
    sides = np.stack([mesh.faces, np.roll(mesh.faces, -1, axis=1)], axis=-1)
    edges = np.unique(np.sort(sides.reshape(-1, 2)), axis=0)
    assert mesh.num_vertices - len(edges) + mesh.num_faces == 0


def test_build_mesh_n3_closed():
    mesh = geo.build_mesh(geo.MeshSpec(3, "immersion", 12, 10))
    V = 12 * 12 * 9
    assert mesh.num_vertices == V
    assert mesh.weld_error < 1e-12
    # closed cubical 3-grid: 3 edges, 3 quads and 1 cube per vertex, so the
    # quad skeleton gives V - E + F = V and the full alternating sum is 0
    sides = np.stack([mesh.faces, np.roll(mesh.faces, -1, axis=1)], axis=-1)
    edges = np.unique(np.sort(sides.reshape(-1, 2)), axis=0)
    assert len(edges) == 3 * V
    assert mesh.num_faces == 3 * V
    assert V - len(edges) + mesh.num_faces == V
    assert V - len(edges) + mesh.num_faces - V == 0


def full_grid_samples(spec):
    """build_mesh's vertices, t values and weld error with every function evaluated at every grid point."""
    n, A, T = spec.n, spec.res_theta, spec.res_t
    point = geo.immersion_point if spec.target == "immersion" else geo.embedding_point
    theta = 2 * np.pi * np.arange(A) / A
    tker = np.pi * np.arange(T - 1) / (T - 1)
    grids = np.meshgrid(*([theta] * (n - 1)), tker, indexing="ij")
    thetas = np.stack(grids[:-1], axis=-1)
    th_end = thetas[..., 0, :]
    th_start = th_end.copy()
    th_start[..., 0] = np.pi - th_start[..., 0]
    weld = np.max(np.abs(point(n, th_end, np.pi) - point(n, th_start, 0.0)))
    return point(n, thetas, grids[-1]).reshape(-1, spec.dim), grids[-1].reshape(-1), weld


def sampled_specs():
    """verify-paper's scan grids, perfbench's mesh files, the CLI tests' pinned meshes and a small n = 8 grid."""
    specs = {
        geo.MeshSpec(n, target, s["res_theta"], s["res_t"])
        for n, s in vf.SCAN_SETTINGS.items()
        for target in ("immersion", "embedding")
    }
    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
    for _, tail, _ in workloads["MESH_FILES"]:
        opts = dict(zip(tail[::2], tail[1::2]))
        theta, _, t = opts["--res"].partition("x")
        specs.add(geo.MeshSpec(int(opts["--n"]), opts.get("--target", "immersion"), int(theta), int(t)))
    for n, target, res in ((2, "immersion", "8x6"), (3, "embedding", "8x6"), (2, "immersion", "36x40"),
                           (2, "immersion", "20x40"), (2, "immersion", "4x6")):
        theta, _, t = res.partition("x")
        specs.add(geo.MeshSpec(n, target, int(theta), int(t)))
    specs.update(geo.MeshSpec(8, target, 4, 3) for target in ("immersion", "embedding"))
    return sorted(specs, key=repr)


@pytest.mark.parametrize("spec", sampled_specs(), ids=repr)
def test_build_mesh_on_the_axes_matches_the_full_grid_bit_for_bit(spec):
    # the sparse grid evaluates functions of t or of one angle on that axis
    # alone; every float must still be the full grid's, bit for bit
    mesh = geo.build_mesh(spec)
    vertices, t_values, weld = full_grid_samples(spec)
    assert mesh.vertices.shape == vertices.shape
    assert np.array_equal(mesh.vertices.view(np.uint64), vertices.view(np.uint64))
    assert np.array_equal(mesh.t_values.view(np.uint64), t_values.view(np.uint64))
    assert mesh.weld_error == weld


def test_point_maps_take_a_sparse_grid_of_angles():
    theta = 2 * np.pi * np.arange(6) / 6
    t = np.linspace(0, np.pi, 5)
    sparse = np.meshgrid(theta, theta, t, indexing="ij", sparse=True)
    full = np.meshgrid(theta, theta, t, indexing="ij")
    thetas = np.stack(full[:-1], axis=-1)
    for point in (geo.immersion_point, geo.embedding_point):
        assert np.array_equal(point(3, tuple(sparse[:-1]), sparse[-1]), point(3, thetas, full[-1]))
    with pytest.raises(ValueError, match="need 2 angles"):
        geo.immersion_point(3, tuple(sparse[:1]), sparse[-1])


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


def test_row_sums_run_left_to_right():
    # lifted_scan's premise: a row of fewer than 8 entries is summed one
    # entry at a time from the left, so appending a column adds one square last
    rng = np.random.default_rng(5)
    for width in range(1, 8):
        rows = rng.random((20000, width)) * 10.0 ** rng.integers(-8, 9, (20000, width))
        left = rows[:, 0].copy()
        for k in range(1, width):
            left += rows[:, k]
        assert np.array_equal(np.sum(rows, axis=1), left), width
        if width >= 3:  # the rows are ones whose sum depends on the order
            right = rows[:, -1].copy()
            for k in range(width - 2, -1, -1):
                right += rows[:, k]
            assert not np.array_equal(left, right), width


@pytest.mark.parametrize(
    "n, res_theta, res_t, radius, pairs",
    [(2, 200, 400, 1e-2, 0), (2, 100, 200, 0.08, 7659), (3, 16, 32, 0.1, 0), (3, 16, 32, 0.12, 2560)],
)
def test_lifted_scan_matches_the_full_scan(n, res_theta, res_t, radius, pairs):
    base = geo.build_mesh(geo.MeshSpec(n, "immersion", res_theta, res_t))
    lift = geo.build_mesh(geo.MeshSpec(n, "embedding", res_theta, res_t))
    scan = geo.self_intersection_scan(base, radius)
    assert scan.num_pairs > 0
    full = geo.self_intersection_scan(lift, radius)
    assert full.num_pairs == pairs
    assert geo.lifted_scan(base, scan, lift) == full


def _moved(mesh, vertices=None, faces=None):
    return geo.Mesh(
        mesh.vertices if vertices is None else vertices,
        mesh.faces if faces is None else faces,
        mesh.t_values, mesh.spec, mesh.weld_error,
    )


def _padded(mesh, columns):
    return np.concatenate([mesh.vertices, np.zeros((mesh.num_vertices, columns))], axis=1)


@pytest.mark.parametrize(
    "lift",
    [
        pytest.param(lambda lift: _moved(lift, faces=lift.faces[:, ::-1]), id="different-faces"),
        pytest.param(
            lambda lift: _moved(lift, vertices=lift.vertices + np.eye(lift.dim)[0] * 1e-12),
            id="perturbed-leading-column",
        ),
        pytest.param(lambda lift: _moved(lift, vertices=lift.vertices[:, 1:]), id="fewer-columns"),
        pytest.param(lambda lift: _moved(lift, vertices=_padded(lift, 4)), id="eight-columns"),
    ],
)
def test_lifted_scan_refuses_a_mesh_that_is_not_a_lift(lift):
    base = geo.build_mesh(geo.MeshSpec(2, "immersion", 16, 12))
    embedding = geo.build_mesh(geo.MeshSpec(2, "embedding", 16, 12))
    scan = geo.self_intersection_scan(base, 0.5)
    with pytest.raises(ValueError, match="a lifted scan needs"):
        geo.lifted_scan(base, scan, lift(embedding))


def test_lifted_scan_takes_a_lift_of_seven_columns():
    base = geo.build_mesh(geo.MeshSpec(2, "immersion", 16, 12))
    seven = _moved(base, vertices=_padded(base, 4))
    scan = geo.self_intersection_scan(base, 0.5)
    assert geo.lifted_scan(base, scan, seven) == geo.self_intersection_scan(seven, 0.5) == scan


@pytest.mark.parametrize("value, error", [(np.nan, ValueError), (1e300, FeasibilityError)])
def test_lifted_scan_checks_the_lift_as_the_full_scan_does(value, error):
    base = geo.build_mesh(geo.MeshSpec(2, "immersion", 16, 12))
    vertices = _padded(base, 1)
    vertices[0, -1] = value
    lift = _moved(base, vertices=vertices)
    scan = geo.self_intersection_scan(base, 0.5)
    for route in (lambda: geo.self_intersection_scan(lift, 0.5), lambda: geo.lifted_scan(base, scan, lift)):
        with pytest.raises(error):
            route()


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


@pytest.mark.parametrize("radius", [1e-2, 2e-2])
def test_pair_keys_past_int32_match_the_kdtree_oracle(radius):
    # 79,800 vertices: the sort key i * N + j of a pair passes 2^31 once
    # i > 26,911, so it must be formed in int64 from the int32 ids
    mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", 200, 400))
    result = geo.self_intersection_scan(mesh, radius)
    assert max(i for i, _ in result.pairs) * mesh.num_vertices > 2**31
    assert list(result.pairs) == sorted(kdtree_oracle_pairs(mesh, radius))


def test_meshes_built_and_read_hold_int32_ids(tmp_path):
    mesh = geo.build_mesh(geo.MeshSpec(3, "embedding", 8, 6))
    text, obj = str(tmp_path / "mesh.txt"), str(tmp_path / "mesh.obj")
    geo.write_mesh_text(mesh, text)
    geo.write_obj(mesh, obj, axes=(0, 1, 2))
    assert mesh.faces.dtype == np.int32
    for back in (geo.read_mesh_text(text), geo.read_obj(obj)):
        assert back.faces.dtype == np.int32
        assert np.array_equal(back.faces, mesh.faces)
    # a file with no faces reads as an empty int32 quad array too
    (tmp_path / "points.txt").write_text(SQUARE_VERTICES)
    (tmp_path / "points.obj").write_text(SQUARE_VERTICES)
    for name in ("points.txt", "points.obj"):
        faces = geo.load_mesh(str(tmp_path / name)).faces
        assert (faces.shape, faces.dtype) == ((0, 4), np.int32)
    # a mesh made from int64 ids holds them as int32
    wide = geo.Mesh(mesh.vertices, mesh.faces.astype(np.int64), None, None, float("nan"))
    assert wide.faces.dtype == np.int32 and np.array_equal(wide.faces, mesh.faces)


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
    refusal = "^1760184 candidate pairs in a scan .*, over the budget of 1760183$"
    with pytest.raises(FeasibilityError, match=refusal):
        geo.self_intersection_scan(mesh, s["radius"])
    monkeypatch.setattr(geo, "SCAN_CANDIDATE_BUDGET", 1_760_184)
    assert geo.self_intersection_scan(mesh, s["radius"]).num_pairs == 216


def _cross_pairs(a, b, radius):
    # the nested-family gap test of check_geometry_identities: the scan
    # engine's close pairs of the two members together, one end in each
    I, J = geo._candidate_pairs(np.concatenate([a, b]), radius)
    cross = (I < len(a)) != (J < len(a))
    return sorted(zip(np.minimum(I, J)[cross].tolist(), (np.maximum(I, J)[cross] - len(a)).tolist()))


def test_nested_family_gap_matches_the_broadcast_minimum():
    rng = np.random.default_rng(5)
    for rows, cols in ((1, 1), (300, 70), (513, 257)):
        a = rng.normal(size=(rows, 3))
        b = rng.normal(size=(cols, 3)) + 0.5
        d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1)
        gap = math.sqrt(np.min(d2))
        # the members touch just above their gap and not just below it
        assert _cross_pairs(a, b, gap * (1 - 1e-9)) == []
        assert _cross_pairs(a, b, gap * (1 + 1e-9)) != []
        radius = 2 * gap + 0.1
        expected = sorted(zip(*np.nonzero(d2 <= radius * radius)))
        assert _cross_pairs(a, b, radius) == [(int(i), int(j)) for i, j in expected]
    # a shared point is a gap of 0, so a touching family fails the check
    a = rng.normal(size=(600, 3))
    b = np.concatenate([rng.normal(size=(50, 3)) + 10.0, a[555:556]])
    assert _cross_pairs(a, b, 1e-9) == [(555, 50)]


@pytest.mark.parametrize("rows", [1, 127, 128, 129, 300, 4096 + 5])
def test_nested_family_gap_is_exactly_zero_at_a_shared_point(rows):
    # coordinates in eighths keep every difference and sum exact, so at
    # radius 0 the scan finds a cross pair exactly where the last row of a
    # is also a point of b, and none while the members are apart
    rng = np.random.default_rng(rows)
    a = rng.integers(-16, 16, size=(rows, 3)) / 8
    b = rng.integers(-16, 16, size=(70, 3)) / 8 + 5
    broadcast = np.min(np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=-1))
    assert broadcast > 0 and _cross_pairs(a, b, 0.0) == []
    assert _cross_pairs(a, np.concatenate([b, a[-1:]]), 0.0) == [(rows - 1, 70)]


def test_neighbour_test_over_budget_is_infeasible(monkeypatch):
    mesh = two_fans(100)
    # 4 * max(deg i, deg j, 1) ids for each of the 49,801 candidate pairs
    monkeypatch.setattr(geo, "SCAN_BALL_BUDGET", 663_200 - 1)
    with pytest.raises(FeasibilityError, match="ball entries"):
        geo.self_intersection_scan(mesh, 0.05)
    monkeypatch.setattr(geo, "SCAN_BALL_BUDGET", 663_200)
    assert geo.self_intersection_scan(mesh, 0.05).num_pairs


def one_shot_balls(faces, vertices, num_vertices):
    """The ball table built in one piece: every row at 1 + 4 * (largest degree)."""
    flat = faces.ravel()
    degree = np.bincount(flat, minlength=num_vertices)
    first = np.cumsum(degree) - degree
    incidence = np.argsort(flat, kind="stable")
    deg = degree[vertices]
    k = np.minimum(np.arange(deg.max()), np.maximum(deg, 1)[:, None] - 1)
    slot = np.minimum(first[vertices][:, None] + k, max(len(flat) - 1, 0))
    corners = np.take(faces.astype(np.int32), incidence[slot] // faces.shape[1], axis=0)
    rows = np.empty((len(vertices), 1 + corners[0].size), dtype=np.int32)
    rows[:, 0] = vertices
    rows[:, 1:] = corners.reshape(len(vertices), -1)
    rows[deg == 0] = vertices[deg == 0, None]
    rows.sort(axis=1)
    dup = np.zeros(rows.shape, dtype=bool)
    dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    sentinel = np.iinfo(np.int32).max
    rows[dup] = sentinel
    rows.sort(axis=1)
    size = (~dup).sum(axis=1)
    rows = rows[:, : int(size.max())]
    return np.where(rows == sentinel, rows[:, :1], rows), size


def grid_mesh(n, res_theta, res_t):
    return geo.build_mesh(geo.MeshSpec(n, "immersion", res_theta, res_t))


def mesh_with_isolated_vertices(tmp_path):
    """Two squares, one with a second quad on its edge, and vertices 4, 5 and 12 in no quad."""
    path = tmp_path / "isolated.txt"
    path.write_text(
        SQUARE_VERTICES
        + "v 5 5 0\nv 6 6 0\n"
        + "v 2 0 0\nv 3 0 0\nv 3 1 0\nv 2 1 0\nv 1 2 0\nv 0 2 0\n"
        + "v 4 4 0\n"
        + "f 0 1 2 3\nf 6 7 8 9\nf 3 2 10 11\n"
    )
    return geo.load_mesh(str(path))


def one_shot_near(faces, num_vertices, I, J):
    """ball(i) meets ball(j), every entry of one-shot ball(i) against every entry of ball(j)."""
    wanted = np.unique(np.concatenate([I, J]))
    table, _ = one_shot_balls(faces, wanted, num_vertices)
    bi, bj = np.searchsorted(wanted, I), np.searchsorted(wanted, J)
    step = max(1, (1 << 22) // table.shape[1] ** 2)
    return np.concatenate([
        (table[bi[lo : lo + step], :, None] == table[bj[lo : lo + step], None, :]).any(axis=(1, 2))
        for lo in range(0, len(I), step)
    ])


@pytest.mark.parametrize(
    "make, radius, subset, block",
    [
        (lambda tmp: grid_mesh(2, 200, 400), 2e-2, False, 16 * 701 + 15),
        (lambda tmp: grid_mesh(3, 48, 96), 3e-2, False, 48 * 251 + 47),
        (lambda tmp: two_fans(100), 0.05, False, 399),
        (mesh_with_isolated_vertices, 10.0, False, 9),
        (lambda tmp: grid_mesh(3, 12, 10), 0.5, True, 48 * 7 + 5),
    ],
    ids=["n2-grid", "n3-grid", "two-fans", "isolated-vertices", "random-subset"],
)
def test_near_mask_matches_the_one_shot_balls(tmp_path, monkeypatch, make, radius, subset, block):
    # blocks of `block` gathered ids split each large degree group, most
    # groups end in a short block, and in some blocks every pair shares a
    # quad, which leaves the second test empty
    mesh = make(tmp_path)
    V = mesh.num_vertices
    I, J = geo._candidate_pairs(np.asarray(mesh.vertices, dtype=float), radius)
    if subset:
        keep = np.random.default_rng(19).choice(len(I), size=len(I) // 3, replace=False)
        I, J = I[keep], J[keep]
    monkeypatch.setattr(geo, "_NEAR_BLOCK", block)
    near = geo._mesh_near_mask(mesh.faces, V, I, J)
    expected = one_shot_near(mesh.faces, V, I, J)
    assert expected.any() and not expected.all()
    assert np.array_equal(near, expected)


def a_quad_with_a_repeated_vertex(tmp_path):
    """Three quads, one with vertex 1 at two corners, and vertex 6 in none."""
    vertices = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [2, 0, 0], [2, 1, 0], [9, 9, 9]], float)
    faces = np.array([[0, 1, 2, 3], [1, 4, 5, 1], [5, 2, 1, 4]])
    return geo.Mesh(vertices, faces, None, None, float("nan"))


def permuted_faces(mesh, seed):
    faces = mesh.faces[np.random.default_rng(seed).permutation(mesh.num_faces)]
    return geo.Mesh(mesh.vertices, faces, mesh.t_values, mesh.spec, mesh.weld_error)


@pytest.mark.parametrize(
    "make",
    [
        lambda tmp: permuted_faces(grid_mesh(3, 12, 10), 3),
        lambda tmp: permuted_faces(grid_mesh(2, 20, 40), 4),
        lambda tmp: permuted_faces(two_fans(100), 5),
        mesh_with_isolated_vertices,
        a_quad_with_a_repeated_vertex,
        lambda tmp: geo.Mesh(np.zeros((3, 3)), np.empty((0, 4)), None, None, float("nan")),
    ],
    ids=["n3-permuted", "n2-permuted", "two-fans-permuted", "isolated-vertices", "repeated-vertex", "no-faces"],
)
def test_packed_corner_keys_sort_as_the_stable_argsort(tmp_path, make):
    mesh = make(tmp_path)
    flat = mesh.faces.ravel()
    first, degree, quad_of = geo._vertex_quads(mesh.faces, mesh.num_vertices)
    expected_degree = np.bincount(flat, minlength=mesh.num_vertices)
    assert first.dtype == degree.dtype == quad_of.dtype == np.int32
    assert np.array_equal(quad_of, np.argsort(flat, kind="stable") // 4)
    assert np.array_equal(degree, expected_degree)
    assert np.array_equal(first, np.cumsum(expected_degree) - expected_degree)


@pytest.mark.parametrize(
    "make, radius",
    [
        (lambda: grid_mesh(3, 48, 96), 3e-2),
        (lambda: grid_mesh(2, 200, 400), 2e-2),
        (lambda: two_fans(100), 0.05),
    ],
    ids=["n3-grid", "n2-grid", "two-fans"],
)
def test_near_mask_does_not_change_when_the_faces_are_permuted(make, radius):
    mesh = make()
    I, J = geo._candidate_pairs(np.asarray(mesh.vertices, dtype=float), radius)
    near = geo._mesh_near_mask(mesh.faces, mesh.num_vertices, I, J)
    assert near.any() and not near.all()
    for seed in (1, 2):
        shuffled = permuted_faces(mesh, seed).faces
        assert np.array_equal(geo._mesh_near_mask(shuffled, mesh.num_vertices, I, J), near)


def test_scan_working_memory_stays_bounded():
    # tracemalloc counts numpy's buffers, so the peak is exact: about 38.2 MB
    # for the full scan of either n = 3 mesh of verify-paper's settings, with
    # int32 ids and ball rows gathered a block of pairs at a time; verify-paper
    # itself scans only the immersion and reads the embedding's off it
    s = vf.SCAN_SETTINGS[3]
    for target, pairs in (("immersion", 216), ("embedding", 0)):
        mesh = geo.build_mesh(geo.MeshSpec(3, target, s["res_theta"], s["res_t"]))
        tracemalloc.start()
        try:
            result = geo.self_intersection_scan(mesh, s["radius"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.num_pairs == pairs
        assert peak < 44e6, (target, peak)


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


def test_scan_refuses_squared_distances_past_the_float_range():
    # each span fits, but 2e154 squared does not: the scan would report
    # pairs 2e154 apart as close at distance inf
    square = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    quads = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
    for far, refused in ((2e154, True), (1.3e154, False)):
        vertices = np.vstack([square, square + [far, 0, 0]])
        mesh = geo.Mesh(vertices, quads, None, None, float("nan"))
        if refused:
            with pytest.raises(FeasibilityError, match="64 bits"):
                geo.self_intersection_scan(mesh, 1.4e154)
        else:
            with np.errstate(over="raise"):
                result = geo.self_intersection_scan(mesh, 1.4e154)
            assert max(result.distances) < math.inf


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

    # floats whose shortest repr is awkward: signed zero, the smallest
    # subnormal, exponents at both ends, and a sum that is not its literal
    awkward = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2, 1.7976931348623157e308]
    vertices = np.array([awkward[:3], awkward[3:], awkward[::-2], awkward[-2::-2]])
    mesh = geo.Mesh(vertices, np.array([[0, 1, 2, 3]]), np.array(awkward[:4]), None, 0.1 + 0.2)
    geo.write_mesh_text(mesh, str(path))
    back = geo.read_mesh_text(str(path))
    assert back.vertices.view(np.int64).tolist() == vertices.view(np.int64).tolist()
    assert back.t_values.view(np.int64).tolist() == mesh.t_values.view(np.int64).tolist()
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


def test_mesh_text_reader_accepts_tabs_after_the_record_letter(tmp_path):
    # split at the first run of whitespace, as the OBJ reader does
    path = tmp_path / "square.txt"
    path.write_text(
        "# one unit square\nmeta n 2\n"
        "v\t0 0 0\nv \t1 0 0\nv\t\t1 1 0\nv 0 1 0\n"
        "t\t0\nt 1\nt 2\nt 3\n"
        "f\t0 1 2 3\n"
    )
    mesh = geo.load_mesh(str(path))
    assert mesh.vertices.tolist() == [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]]
    assert mesh.t_values.tolist() == [0, 1, 2, 3]
    assert mesh.faces.tolist() == [[0, 1, 2, 3]]
    path.write_text("v 0 0 0\nx\t0 0 0\n")
    with pytest.raises(ValueError, match="unrecognised mesh line"):
        geo.load_mesh(str(path))


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


def per_line_read_mesh_text(path):
    """The mesh text reader one line at a time: the reference for the run reader."""
    floats = functools.partial(geo._parse_rows, dtype=np.float64)
    # "" is the record this reader gives a line with no numbers
    rows = {
        "v": geo._Rows("", floats),
        "t": geo._Rows("", floats),
        "f": geo._Rows("", geo._quads, np.empty((0, 4), np.int64)),
    }
    with open(path) as fh:
        while lines := list(itertools.islice(fh, geo._IO_ROWS)):
            for line in lines:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(None, 1)
                kind = parts[0]
                if kind in rows:
                    rows[kind].records.append(parts[1] if len(parts) > 1 else "")
                elif kind != "meta":
                    raise ValueError(f"unrecognised mesh line: {line!r}")
            for block in rows.values():
                block.flush()
    vertices = rows["v"].array()
    if vertices is None:
        raise ValueError("mesh file has no vertices")
    faces = geo._check_ids(rows["f"].array(), len(vertices))
    t_values = t = rows["t"].array()
    if t is not None:
        if t.shape != (len(vertices), 1):
            raise ValueError("t lines must match v lines one to one, one number each")
        if not np.isfinite(t).all():
            raise ValueError("t values must be finite")
        t_values = t[:, 0]
    return geo.Mesh(vertices, faces, t_values, None, float("nan"))


def per_line_read_obj(path):
    """The OBJ reader one line at a time: the reference for the run reader."""
    count, seen = 0, []
    verts = geo._Rows("", functools.partial(geo._parse_rows, dtype=np.float64, usecols=(0, 1, 2)))
    faces = geo._Rows("", lambda records: geo._obj_quads(records, seen), np.empty((0, 4), np.int64))
    with open(path) as fh:
        while lines := list(itertools.islice(fh, geo._IO_ROWS)):
            for line in lines:
                parts = line.split(None, 1)
                if not parts:
                    continue
                if parts[0] == "v":
                    verts.records.append(parts[-1])
                    count += 1
                elif parts[0] == "f":
                    rest = parts[-1]
                    faces.records.append(re.sub(geo._INDEX_PARTS, "", rest) if "/" in rest else rest)
                    seen.append(count)
            verts.flush()
            faces.flush()
            seen.clear()
    vertices = verts.array()
    if vertices is None:
        raise ValueError(f"no vertices in {path}")
    return geo.Mesh(vertices, geo._check_ids(faces.array(), len(vertices)), None, None, float("nan"))


def read_outcome(read, path, message):
    """The bits of what `read` returns, or the type of what it raises, with its message if `message`."""
    try:
        mesh = read(path)
    except Exception as exc:  # the differential test compares these
        return (type(exc), str(exc)) if message else type(exc)
    return [
        None if a is None else (a.shape, a.dtype.str, a.tobytes())
        for a in (mesh.vertices, mesh.faces, mesh.t_values)
    ]


# whitespace that str.split accepts after a record letter, mostly a space,
# and rarely none
SEPARATORS = [" "] * 24 + ["\t", "\x0b", "\x0c", "\xa0", "\u3000", "\x1c", "  ", " \t"] * 2 + [""]
NUMBERS = ["0", "1", "2.5", "-0.0", "1e-3", "-7"]
# face ids of four vertices or more: 0-based in a mesh text file, 1-based
# or counting back from the newest vertex in an OBJ file, with /vt/vn parts
TEXT_IDS = ["0", "1", "2", "3"]
OBJ_IDS = ["1", "2", "3", "4", "-1", "-2", "-4", "1/1", "2//2", "3/3/3"]
# lines each reader skips, then lines that one of them refuses or reads
# differently: leading whitespace, bare letters, a glued number, stray ids
SKIPPED = ["# note", "#v 1 2 3", "meta n 2", "", "   ", "\t", "#"]
OBJ_SKIPPED = ["vn 0 0 1", "vt 0.5 0.5", "o part", "s off", "vn 1 1 1"]
OTHER_LINES = [
    "x 1 2 3", " v 1 2 3", "\tf 1 2 3 4", " t 1", "v", "f", "t", "v ", "f\t", "v\xa0", "v1 2 3",
    "meta", "f 1 2 3 4 /5", "f -9 1 2 3", "f 0 1 2 3",
]


@st.composite
def record_lines(draw, letter, tokens, size):
    """A `letter` record: a separator, then `size` tokens 24 times in 25."""
    count = size if draw(st.integers(0, 24)) else draw(st.integers(0, 5))
    numbers = draw(st.sampled_from([" ", " ", "\t", "\xa0"])).join(
        draw(st.lists(st.sampled_from(tokens), min_size=count, max_size=count))
    )
    return letter + draw(st.sampled_from(SEPARATORS)) + numbers + draw(st.sampled_from(["", "", " ", "\x0c"]))


@st.composite
def mesh_file_texts(draw):
    """Four to eight vertices, maybe one t each, then faces, with other lines mixed in.

    Half the files are drawn as mesh text and half as OBJ, so that each
    reader gets files it reads as well as files it refuses.
    """
    obj = draw(st.booleans())
    vertices = draw(st.integers(4, 8))
    lines = draw(st.lists(record_lines("v", NUMBERS, 3), min_size=vertices, max_size=vertices))
    if draw(st.booleans()):
        lines += draw(st.lists(record_lines("t", NUMBERS, 1), min_size=vertices, max_size=vertices))
    lines += draw(st.lists(record_lines("f", OBJ_IDS if obj else TEXT_IDS, 4), max_size=6))
    skipped = SKIPPED + OBJ_SKIPPED if obj else SKIPPED
    for _ in range(draw(st.integers(0, 4))):
        pool = skipped if draw(st.integers(0, 4)) else OTHER_LINES
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(pool)))
    text = "".join(line + "\n" for line in lines)
    return text[:-1] if draw(st.booleans()) else text


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    return str(tmp_path_factory.mktemp("differential") / "mesh")


@settings(max_examples=200, derandomize=True)
@given(text=mesh_file_texts())
@example(text=SQUARE_VERTICES + "v")  # a last line with no newline and no second character
@example(text=SQUARE_VERTICES + "f 1 2 3 4\nf")
@example(text=SQUARE_VERTICES + "f 0 1 2 3\nv v")  # a number that is the letter, on a last line
@example(text="v \nx 1 2 3\n" + SQUARE_VERTICES)  # a bare letter, then an unknown line, in one block
@example(text="v 1 2 3\nv\t\nf x\n" + SQUARE_VERTICES)
@example(text=SQUARE_VERTICES + "vt 0 0\nvn 0 0 1\no part\nusemtl red\nf 1/1/1 2//1 3/3 4\n")
@example(text="v 0 0 0\nvt 0 0\nv 1 0 0\nvn 0 0 1\nv 1 1 0\nusemtl red\nv 0 1 0\no part\nf -4/1 -3 -2//1 -1\n")
def test_run_readers_match_the_per_line_readers(mesh_file, text):
    # three lines a block, so runs of records cross block ends.  A mesh text
    # error must keep its message too; an OBJ error only its type, as a bare
    # OBJ letter now has no numbers where numpy used to fail to parse it
    with open(mesh_file, "w") as fh:
        fh.write(text)
    with mock.patch.object(geo, "_IO_ROWS", 3):
        assert read_outcome(geo.read_mesh_text, mesh_file, True) == read_outcome(per_line_read_mesh_text, mesh_file, True)
        assert read_outcome(geo.read_obj, mesh_file, False) == read_outcome(per_line_read_obj, mesh_file, False)


@pytest.mark.parametrize("bare", ["v\n", "v \n", "v\t\x0c\n"])
def test_a_bare_letter_in_a_run_of_records_has_no_numbers(tmp_path, bare):
    # numpy would skip the blank record, and every face after it would then
    # name the wrong vertex
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_VERTICES.replace("v 1 1 0\n", "v 1 1 0\n" + bare) + "f 0 1 2 3\n")
    with pytest.raises(ValueError, match="a mesh record has no numbers"):
        geo.read_mesh_text(str(path))
    path = tmp_path / "square.obj"
    path.write_text(SQUARE_VERTICES.replace("v 1 1 0\n", "v 1 1 0\n" + bare) + "f 1 2 3 4\n")
    with pytest.raises(ValueError):
        geo.read_obj(str(path))


def per_row_records(letter, rows, field):
    """One record per row, each entry formatted on its own with `field`."""
    rows = np.asarray(rows).reshape(len(rows), -1).tolist()
    return "".join(letter + "".join(" " + field % x for x in row) + "\n" for row in rows)


def test_writers_match_per_row_repr(tmp_path, monkeypatch):
    # three rows a block, so repeated values span blocks; -0.0 and 0.0 share
    # a column, and the rest have awkward shortest reprs
    monkeypatch.setattr(geo, "_IO_ROWS", 3)
    column = [-0.0, 0.0, 5e-324, 0.0, -0.0, 1e16, 1e-5, math.nan, math.inf, -0.0, 0.1 + 0.2]
    vertices = np.array([column, column[::-1], column[3:] + column[:3], [0.0] * len(column)]).T.copy()
    faces = np.arange(4 * len(column)).reshape(-1, 4) % len(column)
    mesh = geo.Mesh(vertices, faces, vertices[:, 0].copy(), None, 0.1 + 0.2)
    path = tmp_path / "mesh.txt"
    geo.write_mesh_text(mesh, str(path))
    assert path.read_text() == (
        "# klein-forge mesh\nmeta dim 4\nmeta weld_error 0.30000000000000004\n"
        + per_row_records("v", vertices, "%r")
        + per_row_records("t", mesh.t_values, "%r")
        + per_row_records("f", faces, "%d")
    )
    assert "v -0.0 " in path.read_text() and "v 0.0 " in path.read_text()
    path = tmp_path / "mesh.obj"
    geo.write_obj(mesh, str(path), axes=(3, 0, 1))
    assert path.read_text() == (
        "# klein-forge OBJ export\n"
        + per_row_records("v", vertices[:, [3, 0, 1]], "%r")
        + per_row_records("f", faces + 1, "%d")
    )
    grid = geo.build_mesh(geo.MeshSpec(2, "immersion", 8, 6))
    geo.write_mesh_text(grid, str(path))
    assert path.read_text().endswith(
        "meta res_t 6\nmeta dim 3\nmeta weld_error %r\n" % grid.weld_error
        + per_row_records("v", grid.vertices, "%r")
        + per_row_records("t", grid.t_values, "%r")
        + per_row_records("f", grid.faces, "%d")
    )


@pytest.mark.parametrize("write", [geo.write_mesh_text, geo.write_obj], ids=["text", "obj"])
def test_writer_working_memory_stays_bounded(tmp_path, write, monkeypatch):
    # a block of rows at a time, about 0.4 MB traced at either size: a table
    # of the whole array's distinct values, or a projected copy of the whole
    # array (0.45 MB, then 0.66 MB), grows with the mesh.  Tracing slows the
    # writers about ninefold, so blocks are 1,024 rows and the meshes have
    # 2,484 and 10,008 vertices, two and a half blocks and ten.
    monkeypatch.setattr(geo, "_IO_ROWS", 1024)
    peaks = []
    for res in ((36, 70), (72, 140)):
        mesh = geo.build_mesh(geo.MeshSpec(2, "immersion", *res))
        tracemalloc.start()
        try:
            write(mesh, str(tmp_path / "mesh"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # 6e6 bytes at 8,192 rows a block, scaled to the block size
    assert peaks[1] < 1.2 * peaks[0] and peaks[1] < 6e6 * geo._IO_ROWS / 8192, peaks

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
