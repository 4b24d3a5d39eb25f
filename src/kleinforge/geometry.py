"""Immersions and embeddings of the higher Klein bottles, plus mesh tooling.

K_n is a mapping torus of the (n-1)-torus: sweep a nested torus
T^(n-1) in R^n along a closed plane curve while the torus shrinks and
regrows so that the time-pi slice matches the time-0 slice after the
flip theta_1 -> pi - theta_1.  Concretely, with D = 1/(2^(n+1) - 5):

* the directrix is the figure-eight a(t) = (5 sin t, 2 sin^2 t cos t),
  traversed for t in [0, pi] (each lobe carries one branch);
* the tube radius r(t) = 1/2 - d (2t - pi) sqrt(t (pi - t)) with
  d = 2 / (pi^2 (2^(n+1) - 5)) stays inside [1/2 - D/2, 1/2 + D/2];
* the swept fibre is the nested torus with radii 2^(n-i) D for
  i = 1..n-2 and last radius r(t) - 1/2 + 3D/2, placed in the
  hyperplane spanned by the directrix normal and the axes e_3..e_(n+1).

The result is an immersion of K_n in R^(n+1); the two branches of the
figure-eight overlap near the crossing, so genuine double points remain.
Appending sin(2t) as one extra coordinate separates the branches and
gives an embedding in R^(n+2).

Meshes sample the parameter grid, welding the t = pi row onto the t = 0
row through the flip (this needs an even theta resolution).  Quad corners
come from one grid step per axis: theta steps wrap, and the t step from
the last kept row lands on row 0 through the flip, the one place the weld
is applied.  The self-intersection scan hashes vertices into cells of
side `radius`, joins neighbouring cells one axis at a time, and reports
close pairs that are not mesh neighbours, where "neighbour" means graph
distance at most 2 in the share-a-quad adjacency.  Both stages are array
code over any quad mesh: grid metadata is never used.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import combinations, islice

import numpy as np

from .errors import FeasibilityError

MIN_DIRECTRIX_SPEED = 1e-8
# vertex coordinates one mesh may hold, checked before sampling; building
# peaks at about 100-130 bytes per coordinate, so about 1 GB at the budget
MESH_COORDINATE_BUDGET = 1 << 23
# raw candidate pairs (every point pair of two neighbouring cells, a cell with
# c points counting c^2 with itself) one self-intersection scan may gather, and
# cell prefix pairs its join may build on one axis, each counted before its
# arrays exist.  The largest scan in use, verify-paper's n = 3 immersion, has
# 1,760,184 raw candidates and at most 591,322 prefix pairs on an axis;
# `scan --n 2 --res 200x400 --radius 1e6` would have about 3.2e9.  When the
# radius exceeds the mesh, nearly every candidate is reported, at about 340
# bytes per pair as a ScanResult.
SCAN_CANDIDATE_BUDGET = 1 << 22
# entries of the ball table the neighbour filter may build (one row of
# 1 + 4 * (largest degree) ids per vertex in a candidate pair), checked before
# building it.  Building peaks at about 17 bytes per entry, so about 570 MB at
# the budget.  The largest table in use, verify-paper's n = 3 scans, has
# 10,725,120 (218,880 rows of degree 12); one vertex of degree 1,000 in a mesh
# file widens every row to 4,001.
SCAN_BALL_BUDGET = 1 << 25
_NEAR_BLOCK = 1 << 21  # ball-entry compares per block of the neighbour test
_GATHER_BLOCK = 1 << 15  # raw candidates gathered per block of the d^2 test
# rows formatted per write when saving a mesh file, so that a mesh near the
# coordinate budget is never held as one string
_IO_ROWS = 1 << 13
_INDEX_PARTS = r"(?<=\S)/\S*"  # the /vt/vn parts of an OBJ face index


def base_unit(n: int) -> float:
    """D = 1/(2^(n+1) - 5), the size unit of the nested fibre torus."""
    if n < 2:
        raise ValueError("need n >= 2")
    return 1.0 / (2 ** (n + 1) - 5)


def wave_amplitude(n: int) -> float:
    """Amplitude d of the tube-radius wave; the band is 1/2 +- pi^2 d / 4."""
    return 2.0 / (np.pi**2 * (2 ** (n + 1) - 5))


def tube_radius(n: int, t):
    """r(t) = 1/2 - d (2t - pi) sqrt(t (pi - t)), elementwise on arrays."""
    t = np.asarray(t, dtype=float)
    d = wave_amplitude(n)
    return 0.5 - d * (2 * t - np.pi) * np.sqrt(np.maximum(t * (np.pi - t), 0.0))


def directrix(t):
    """The plane figure-eight a(t) = (5 sin t, 2 sin^2 t cos t)."""
    t = np.asarray(t, dtype=float)
    return np.stack([5 * np.sin(t), 2 * np.sin(t) ** 2 * np.cos(t)], axis=-1)


def directrix_velocity(t):
    t = np.asarray(t, dtype=float)
    return np.stack(
        [5 * np.cos(t), 4 * np.sin(t) * np.cos(t) ** 2 - 2 * np.sin(t) ** 3],
        axis=-1,
    )


def directrix_normal(t):
    """Unit normal J(t), the velocity rotated a quarter turn; J(pi) = -J(0)."""
    v = directrix_velocity(t)
    speed = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.min(speed) < MIN_DIRECTRIX_SPEED:
        raise ValueError("directrix speed fell below the regularity guard")
    v = v / speed
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def nested_torus_radii(n: int, t):
    """Fibre radii (r_1, ..., r_(n-1)) at time t; the last one varies."""
    if n < 2:
        raise ValueError("need n >= 2")
    unit = base_unit(n)
    last = tube_radius(n, t) - 0.5 + 1.5 * unit
    return [2.0 ** (n - i) * unit for i in range(1, n - 1)] + [last]


def nesting_margin(radii) -> float:
    """min over i of r_i - sum(r_j, j > i); positive means strictly nested."""
    margin = np.inf
    tail = np.zeros(())
    for r in reversed(list(radii)):
        r = np.asarray(r, dtype=float)
        margin = min(margin, float(np.min(r - tail)))
        tail = tail + r
    return margin


def validate_nesting(radii) -> None:
    if nesting_margin(radii) <= 0:
        raise ValueError("torus radii are not strictly nested")


def torus_point(radii, thetas):
    """Point of the nested torus T^m in R^(m+1), m = len(radii).

    thetas has shape (..., m); radii entries may be scalars or arrays
    broadcastable against the leading shape.  Built by the recursion
    w_(m-1) = r_(m-1), w_j = r_j + w_(j+1) cos(theta_(j+1)); then
    x_1 = w_0 cos(theta_0) and x_(j+1) = w_j sin(theta_j).
    """
    thetas = np.asarray(thetas, dtype=float)
    m = thetas.shape[-1]
    if len(radii) != m:
        raise ValueError("need one radius per angle")
    w = np.asarray(radii[m - 1], dtype=float)
    ws = [w]
    for j in range(m - 2, -1, -1):
        w = radii[j] + w * np.cos(thetas[..., j + 1])
        ws.append(w)
    ws.reverse()
    shape = np.broadcast_shapes(thetas.shape[:-1], np.shape(ws[0]))
    x = np.empty(shape + (m + 1,))
    x[..., 0] = ws[0] * np.cos(thetas[..., 0])
    for j in range(m):
        x[..., j + 1] = ws[j] * np.sin(thetas[..., j])
    return x


def immersion_point(n: int, thetas, t):
    """K_n -> R^(n+1): fibre torus carried along the figure-eight.

    thetas has shape (..., n-1) and t broadcasts against the leading
    shape.  The first fibre coordinate rides the directrix normal; the
    remaining ones go to the coordinate axes e_3..e_(n+1).
    """
    thetas = np.asarray(thetas, dtype=float)
    t = np.asarray(t, dtype=float)
    if thetas.shape[-1] != n - 1:
        raise ValueError(f"need {n - 1} angles for K_{n}")
    x = torus_point(nested_torus_radii(n, t), thetas)
    a = directrix(t)
    j = directrix_normal(t)
    shape = np.broadcast_shapes(x.shape[:-1], t.shape)
    out = np.empty(shape + (n + 1,))
    out[..., 0] = a[..., 0] + x[..., 0] * j[..., 0]
    out[..., 1] = a[..., 1] + x[..., 0] * j[..., 1]
    out[..., 2:] = x[..., 1:]
    return out


def embedding_point(n: int, thetas, t):
    """K_n -> R^(n+2): the immersion with sin(2t) appended.

    sin(2t) has opposite signs on the two branches t and pi - t, which
    is what pushes the overlapping tubes apart.
    """
    imm = immersion_point(n, thetas, t)
    t = np.asarray(t, dtype=float)
    shape = imm.shape[:-1]
    out = np.empty(shape + (n + 2,))
    out[..., :-1] = imm
    out[..., -1] = np.broadcast_to(np.sin(2 * t), shape)
    return out


@dataclass(frozen=True)
class MeshSpec:
    """Sampling plan: which map, and how fine a parameter grid."""

    n: int
    target: str  # "immersion" or "embedding"
    res_theta: int
    res_t: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        if self.target not in ("immersion", "embedding"):
            raise ValueError("target must be 'immersion' or 'embedding'")
        if self.res_theta < 4 or self.res_theta % 2:
            raise ValueError("res_theta must be even and >= 4 (the weld flips theta_1 by half a turn)")
        if self.res_t < 3:
            raise ValueError("res_t must be >= 3")

    @property
    def dim(self) -> int:
        return self.n + (1 if self.target == "immersion" else 2)


@dataclass(frozen=True)
class Mesh:
    """Vertex/quad sampling of the immersion or embedding.

    vertices: (N, dim) float array.  faces: (F, 4) int array of quads, one
    per axis pair of the parameter grid, wrapped in theta and welded in t.
    t_values: per-vertex sweep parameter (None for meshes loaded without it).
    weld_error: max distance between the t = pi row and its flipped t = 0
    image, measured before the row was identified away.
    """

    vertices: np.ndarray
    faces: np.ndarray
    t_values: np.ndarray | None
    spec: MeshSpec | None
    weld_error: float

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)


def grid_weld_index(i1, res_theta: int):
    """Index image of theta_1 -> pi - theta_1 on the uniform grid (int or array)."""
    return (res_theta // 2 - i1) % res_theta


def build_mesh(spec: MeshSpec) -> Mesh:
    """Sample the chosen map on a closed parameter grid.

    Grid: theta_k = 2 pi i / res_theta, t_j = pi j / (res_t - 1).  The
    j = res_t - 1 row equals the j = 0 row after theta_1 -> pi - theta_1,
    so those samples are welded onto row 0 and only res_t - 1 rows of
    vertices are kept.  Quads are emitted for every pair of grid axes.
    """
    n, A, T = spec.n, spec.res_theta, spec.res_t
    coordinates = A ** (n - 1) * (T - 1) * spec.dim
    if coordinates > MESH_COORDINATE_BUDGET:
        raise FeasibilityError(
            f"a {A}x{T} mesh of K_{n} has {coordinates} vertex coordinates; "
            f"the budget is {MESH_COORDINATE_BUDGET}"
        )
    point = immersion_point if spec.target == "immersion" else embedding_point

    # the fibre stays strictly nested across the whole radius band
    unit = base_unit(n)
    for extreme in (unit, 2 * unit):
        validate_nesting(
            [2.0 ** (n - i) * unit for i in range(1, n - 1)] + [extreme]
        )

    theta = 2 * np.pi * np.arange(A) / A
    tker = np.pi * np.arange(T - 1) / (T - 1)
    grids = np.meshgrid(*([theta] * (n - 1)), tker, indexing="ij")
    thetas = np.stack(grids[:-1], axis=-1)
    tval = grids[-1]
    pts = point(n, thetas, tval)
    vertices = pts.reshape(-1, spec.dim)
    t_values = tval.reshape(-1)

    # how closely the welded row really lands on its image
    base = np.meshgrid(*([theta] * (n - 1)), indexing="ij")
    th_end = np.stack(base, axis=-1)
    th_start = th_end.copy()
    th_start[..., 0] = np.pi - th_start[..., 0]
    weld_error = float(
        np.max(np.abs(point(n, th_end, np.pi) - point(n, th_start, 0.0)))
    )

    faces = _grid_faces(n, A, T)
    return Mesh(vertices, faces, t_values, spec, weld_error)


def _step(ids: np.ndarray, axis: int) -> np.ndarray:
    """Each grid point's entry of `ids` one step along `axis` (last axis t).

    theta axes wrap; the t step from the last kept row lands on row 0
    through the weld theta_1 -> pi - theta_1.
    """
    if axis < ids.ndim - 1:
        return np.roll(ids, -1, axis=axis)
    welded = ids[grid_weld_index(np.arange(len(ids)), len(ids)), ..., :1]
    return np.concatenate([ids[..., 1:], welded], axis=-1)


def _grid_faces(n: int, A: int, T: int) -> np.ndarray:
    """Quads (base, +e_a, +e_a+e_b, +e_b) for every axis pair a < b.

    The corner +e_a+e_b steps along b first, so that a weld on the t step
    acts on the theta_1 the a step has already moved.
    """
    kept = (A,) * (n - 1) + (T - 1,)
    ids = np.arange(A ** (n - 1) * (T - 1), dtype=np.int64).reshape(kept)
    quads = []
    for a, b in combinations(range(n), 2):
        step_b = _step(ids, b)
        corners = (ids, _step(ids, a), _step(step_b, a), step_b)
        quads.append(np.stack(corners, axis=-1).reshape(-1, 4))
    return np.concatenate(quads, axis=0)


def mesh_edges(faces: np.ndarray) -> np.ndarray:
    """Unique undirected edges of a quad array, as sorted (E, 2) rows."""
    rolled = np.roll(faces, -1, axis=1)
    e = np.stack([faces.ravel(), rolled.ravel()], axis=1)
    e.sort(axis=1)
    return np.unique(e, axis=0)


def euler_characteristic(mesh: Mesh) -> int:
    return mesh.num_vertices - len(mesh_edges(mesh.faces)) + mesh.num_faces


@dataclass(frozen=True)
class ScanResult:
    """Close vertex pairs that are not mesh neighbours.

    ``seam_confinement`` is how far from the seam the pairs reach, in t
    units: the largest min(t, pi - t) over their endpoints, so every
    collision lies in that t-band (at least 0.0; None with no pairs or no
    t values).
    """

    radius: float
    num_vertices: int
    num_pairs: int
    pairs: tuple[tuple[int, int], ...]
    distances: tuple[float, ...]
    t_pairs: tuple[tuple[float, float], ...] | None
    seam_confinement: float | None


def _ragged(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The ranges start[i] .. start[i] + size[i] - 1, laid end to end."""
    base = np.repeat((start - (np.cumsum(size) - size)).astype(start.dtype), size)
    return base + np.arange(len(base), dtype=start.dtype)


def _check_budget(count: int, what: str, scan: str) -> None:
    if count > SCAN_CANDIDATE_BUDGET:
        raise FeasibilityError(f"{scan} has over {SCAN_CANDIDATE_BUDGET} {what} (the budget)")


def _neighbour_cells(cells: np.ndarray, scan: str):
    """Pairs (a, b), a < b, of sorted distinct cells that differ by at most one per axis.

    A join one axis at a time over the groups of cells sharing their first
    k coordinates: a pair of groups (p, q) extends to the children c of p
    and d of q whose next coordinate is within 1, found by two searches on
    the (parent, coordinate) keys, since children are contiguous in the
    sort.  Each group is also paired with itself, without an entry; that
    pair extends to its children's own pairs and to siblings one coordinate
    apart, so every pair comes out once.  The pairs of each axis are
    counted against SCAN_CANDIDATE_BUDGET before they are built.
    """
    ids = np.int32 if len(cells) <= np.iinfo(np.int32).max else np.int64
    # fresh[a, k]: cell a starts a new run of its first k + 1 coordinates
    fresh = np.ones(cells.shape, dtype=bool)
    fresh[1:] = np.logical_or.accumulate(cells[1:] != cells[:-1], axis=1)
    group = np.zeros(len(cells), dtype=ids)  # each cell's group, from the empty prefix
    p = q = np.zeros(0, dtype=ids)
    for k in range(cells.shape[1]):
        child_first = np.flatnonzero(fresh[:, k]).astype(ids)
        parent = group[child_first]
        value = cells[child_first, k].astype(np.int64)
        same = parent[1:] == parent[:-1]
        sib = np.flatnonzero(same & (value[1:] == value[:-1] + 1))
        begin = np.flatnonzero(np.r_[True, ~same])  # first child of each group
        kids = np.diff(begin, append=len(child_first))[p]
        _check_budget(int(kids.sum()), f"cell prefix pairs on axis {k}", scan)
        c = _ragged(begin[p], kids)
        keys = (parent.astype(np.int64) << 32) + value
        home = (np.repeat(q, kids).astype(np.int64) << 32) + value[c]
        lo_d = np.searchsorted(keys, home - 1).astype(ids)
        size = np.searchsorted(keys, home + 1, side="right") - lo_d
        _check_budget(len(sib) + int(size.sum()), f"cell prefix pairs on axis {k}", scan)
        p = np.concatenate([sib, np.repeat(c, size)]).astype(ids)
        q = np.concatenate([sib + 1, _ragged(lo_d, size)]).astype(ids)
        group = (np.cumsum(fresh[:, k]) - 1).astype(ids)
    return p, q


def _candidate_pairs(P: np.ndarray, radius: float):
    """All vertex pairs within `radius`, via a uniform spatial hash.

    Cells have side `radius`, or extent / 2^30 where that is larger, so
    that cell coordinates stay at most 2^30; they are kept in the narrowest
    unsigned type that holds them, which sorts fastest.  A larger side
    still puts every close pair in neighbouring cells.  Points at distance
    <= radius lie in cells differing by at most one per axis: each occupied
    cell with itself and the pairs _neighbour_cells joins.  The raw
    candidates (every point pair of two such cells) are counted and checked
    against SCAN_CANDIDATE_BUDGET before any is gathered; they then go
    through the exact d^2 test a block at a time.
    """
    N, dim = P.shape
    lo = P.min(axis=0)
    # Python floats, so a span beyond the float range is inf without a warning
    extent = max(h - l for h, l in zip(P.max(axis=0).tolist(), lo.tolist()))
    if not np.isfinite(extent):
        raise FeasibilityError(f"the extent of a scan in R^{dim} does not fit in 64 bits")
    side = max(radius, extent / 2**30)
    coords = np.floor((P - lo) / side).astype(np.min_scalar_type(int(extent / side)))
    order = np.lexsort(coords.T[::-1])
    coords = coords[order]
    starts = np.flatnonzero(np.r_[True, (coords[1:] != coords[:-1]).any(axis=1)])
    counts = np.diff(starts, append=N)
    scan = f"a scan of {N} vertices at radius {radius!r}"
    p, q = _neighbour_cells(coords[starts], scan)
    each = np.arange(len(starts), dtype=p.dtype)
    a, b = np.concatenate([each, p]), np.concatenate([each, q])
    raw = counts[a] * counts[b]
    total = int(raw.sum())
    _check_budget(total, "candidate pairs", scan)
    found = []
    cuts = np.searchsorted(np.cumsum(raw), np.arange(_GATHER_BLOCK, total, _GATHER_BLOCK))
    for a, b, reps in zip(np.split(a, cuts), np.split(b, cuts), np.split(raw, cuts)):
        # ragged gather of every point pair of each cell pair (a, b)
        pair = np.repeat(np.arange(len(a)), reps)
        within = _ragged(np.zeros(len(a), np.int64), reps)
        width = counts[b][pair]
        I = order[starts[a][pair] + within // width]
        J = order[starts[b][pair] + within % width]
        keep = (a != b)[pair] | (I < J)
        I, J = I[keep], J[keep]
        d2 = np.sum((np.take(P, I, axis=0) - np.take(P, J, axis=0)) ** 2, axis=1)
        close = d2 <= radius * radius
        found.append((I[close], J[close]))
    return tuple(map(np.concatenate, zip(*found)))


def _balls(faces: np.ndarray, vertices: np.ndarray, num_vertices: int):
    """Padded rows ball(v) = {v} + every vertex sharing a quad with v, and the ball sizes.

    One row per entry of `vertices`, as wide as the widest of their balls.
    A ball fills the front of its row and repeats its smallest entry after
    that, so any cut of a row at least as wide as its ball holds that ball
    and nothing else.  Vertex ids are int32 whenever they fit, which
    halves the bytes the pair test moves.
    """
    ids = np.int32 if num_vertices <= np.iinfo(np.int32).max else np.int64
    flat = faces.ravel()
    degree = np.bincount(flat, minlength=num_vertices)
    first = np.cumsum(degree) - degree
    incidence = np.argsort(flat, kind="stable")
    deg = degree[vertices]
    entries = len(vertices) * (1 + faces.shape[1] * int(deg.max()))
    if entries > SCAN_BALL_BUDGET:
        raise FeasibilityError(
            f"the neighbour test needs {entries} ball entries for {len(vertices)} "
            f"vertices, over {SCAN_BALL_BUDGET} (the budget)"
        )
    # the k-th quad at each vertex, repeating its last quad past its degree;
    # a vertex in no quad reads some other entry, overwritten below
    k = np.minimum(np.arange(deg.max()), np.maximum(deg, 1)[:, None] - 1)
    slot = np.minimum(first[vertices][:, None] + k, max(len(flat) - 1, 0))
    corners = np.take(faces.astype(ids, copy=False), incidence[slot] // faces.shape[1], axis=0)
    rows = np.empty((len(vertices), 1 + corners[0].size), dtype=ids)
    rows[:, 0] = vertices
    rows[:, 1:] = corners.reshape(len(vertices), -1)
    rows[deg == 0] = vertices[deg == 0, None]
    # drop repeats: push them past the end of the sorted row, then cut
    rows.sort(axis=1)
    dup = np.zeros(rows.shape, dtype=bool)
    dup[:, 1:] = rows[:, 1:] == rows[:, :-1]
    sentinel = np.iinfo(ids).max
    rows[dup] = sentinel
    rows.sort(axis=1)
    size = (~dup).sum(axis=1)
    rows = rows[:, : int(size.max())]
    return np.where(rows == sentinel, rows[:, :1], rows), size


def _mesh_near_mask(
    faces: np.ndarray, num_vertices: int, I: np.ndarray, J: np.ndarray
) -> np.ndarray:
    """Which candidate pairs are within graph distance 2 of each other.

    Adjacency is "shares a quad".  With ball(v) = {v} + its neighbours,
    distance <= 2 is exactly ball(i) meeting ball(j).  Only balls of
    vertices that occur in candidate pairs are built.  The pairs go in
    order of their wider ball, cut to that width w, so one vertex of high
    degree slows only its own pairs: each width gathers its rows with
    np.take from one contiguous copy of the table cut to w (the table
    itself at full width).  Each block of pairs first tests
    j in ball(i), w compares a pair: j is in ball(j), so a hit means the
    balls meet, and on the mesh grids it settles about three pairs in four.
    Only the pairs it leaves compare every entry of ball(i) with every entry
    of ball(j), w^2 compares a pair.  The ball table is checked against
    SCAN_BALL_BUDGET before it is built.
    """
    seen = np.zeros(num_vertices, dtype=bool)
    seen[I] = True
    seen[J] = True
    wanted = np.flatnonzero(seen)
    row = np.cumsum(seen) - 1
    balls, size = _balls(faces, wanted, num_vertices)
    width = np.maximum(size[row[I]], size[row[J]])
    order = np.argsort(width, kind="stable")
    widths, starts, counts = np.unique(width[order], return_index=True, return_counts=True)
    near = np.empty(len(I), dtype=bool)
    for w, start, count in zip(widths.tolist(), starts.tolist(), counts.tolist()):
        cut = np.ascontiguousarray(balls[:, :w])  # np.take would copy a strided view per call
        # w^2 compares per pair: blocks sized from w keep memory bounded
        block = max(1, _NEAR_BLOCK // (w * w))
        for lo in range(start, start + count, block):
            pick = order[lo : min(lo + block, start + count)]
            bi = np.take(cut, row[I[pick]], axis=0)
            shared = (bi == J[pick][:, None]).any(axis=1)
            near[pick] = shared
            pick, bi = pick[~shared], bi[~shared]
            bj = np.take(cut, row[J[pick]], axis=0)
            same = bi[:, :, None] == bj[:, None, :]
            near[pick] = same.reshape(len(pick), w * w).any(axis=1)
    return near


def self_intersection_scan(mesh: Mesh, radius: float) -> ScanResult:
    """Report non-neighbour vertex pairs at distance <= radius.

    An embedding sampled finely enough yields no pairs; an immersion with
    genuine double points keeps reporting pairs however fine the mesh.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    P = np.ascontiguousarray(mesh.vertices, dtype=np.float64)
    if not np.isfinite(P).all():
        raise ValueError("mesh vertices must have finite coordinates")
    N = len(P)
    I, J = _candidate_pairs(P, radius)
    if len(I):
        near = _mesh_near_mask(mesh.faces, N, I, J)
        I, J = I[~near], J[~near]
    # each pair is found once; one int64 key per pair sorts them by (low, high)
    lo, hi = np.divmod(np.sort(np.minimum(I, J) * N + np.maximum(I, J)), N)
    dists = np.sqrt(np.sum((P[lo] - P[hi]) ** 2, axis=1))
    t_pairs = reach = None
    if mesh.t_values is not None:
        tv = mesh.t_values
        t_pairs = tuple(zip(tv[lo].tolist(), tv[hi].tolist()))
        if t_pairs:
            reach = max(
                [0.0, *(max(min(ta, np.pi - ta), min(tb, np.pi - tb)) for ta, tb in t_pairs)]
            )
    return ScanResult(
        radius=float(radius),
        num_vertices=N,
        num_pairs=len(lo),
        pairs=tuple(zip(lo.tolist(), hi.tolist())),
        distances=tuple(dists.tolist()),
        t_pairs=t_pairs,
        seam_confinement=reach,
    )


# mesh files: a tiny self-describing text format, plus OBJ export and import


def _write_rows(fh, record: str, rows: np.ndarray) -> None:
    """Write `record % row` for every row, formatting a block of rows per `%`.

    `.tolist()` gives Python floats and ints, and `%r` on a Python float is its
    shortest round-trip repr, so a float reads back exactly.
    """
    for start in range(0, len(rows), _IO_ROWS):
        block = rows[start:start + _IO_ROWS]
        fh.write(record * len(block) % tuple(block.ravel().tolist()))


def _parse_rows(records: list[str], dtype, usecols=None) -> np.ndarray:
    """Parse records of whitespace-separated numbers, one array row per record.

    numpy's parser rounds floats correctly, as `float` does, and raises
    ValueError on a ragged row or a token that is not a number.  It would
    skip an empty record, so that is refused first.
    """
    if "" in records:
        raise ValueError("a mesh record has no numbers")
    return np.loadtxt(records, dtype=dtype, comments=None, usecols=usecols, ndmin=2)


def _quads(records: list[str]) -> np.ndarray:
    """Face records parsed to an (F, 4) int array."""
    faces = _parse_rows(records, np.int64)
    if faces.shape[1] != 4:
        raise ValueError("mesh faces must be quads")
    return faces


def _obj_quads(records: list[str], seen: list[int]) -> np.ndarray:
    """OBJ face records as 0-based ids; seen[i] is the number of v lines before record i."""
    ids = _quads(records)
    if (ids == 0).any():
        raise ValueError("OBJ face index 0 is invalid (indices start at 1)")
    return np.where(ids > 0, ids - 1, ids + np.array(seen, dtype=np.int64)[:, None])


class _Rows:
    """Records of one kind, parsed a block at a time as a file is read.

    A reader adds the records of at most `_IO_ROWS` lines before each
    `flush`, so it holds one block of their text, not the whole file's.
    """

    def __init__(self, parse, empty=None):
        self.parse, self.empty, self.records, self.blocks = parse, empty, [], []
        self.add = self.records.append

    def flush(self) -> None:
        if self.records:
            self.blocks.append(self.parse(self.records))
            self.records.clear()

    def array(self) -> np.ndarray | None:
        """Every row, or `empty` for no records."""
        self.flush()
        if len({block.shape[1] for block in self.blocks}) > 1:
            raise ValueError("mesh rows differ in length")
        return np.concatenate(self.blocks) if self.blocks else self.empty


def _check_ids(faces: np.ndarray, num_vertices: int) -> np.ndarray:
    """0-based face ids, each checked against the vertex count."""
    if faces.size and (faces.min() < 0 or faces.max() >= num_vertices):
        raise ValueError(f"face refers to a missing vertex (the file has {num_vertices} vertices)")
    return faces


def write_mesh_text(mesh: Mesh, path: str) -> None:
    """Write the documented text format (meta/v/t/f lines, 0-based faces)."""
    with open(path, "w") as fh:
        fh.write("# klein-forge mesh\n")
        if mesh.spec is not None:
            s = mesh.spec
            fh.write(f"meta n {s.n}\n")
            fh.write(f"meta target {s.target}\n")
            fh.write(f"meta res_theta {s.res_theta}\n")
            fh.write(f"meta res_t {s.res_t}\n")
        fh.write(f"meta dim {mesh.dim}\n")
        fh.write(f"meta weld_error {mesh.weld_error!r}\n")
        _write_rows(fh, "v" + " %r" * mesh.dim + "\n", mesh.vertices)
        if mesh.t_values is not None:
            _write_rows(fh, "t %r\n", mesh.t_values)
        _write_rows(fh, "f" + " %d" * mesh.faces.shape[1] + "\n", mesh.faces)


def read_mesh_text(path: str) -> Mesh:
    meta: dict[str, str] = {}
    floats = partial(_parse_rows, dtype=np.float64)
    rows = {"v": _Rows(floats), "t": _Rows(floats), "f": _Rows(_quads, np.empty((0, 4), np.int64))}
    with open(path) as fh:
        while lines := list(islice(fh, _IO_ROWS)):
            for line in lines:
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                kind, _, rest = line.partition(" ")
                if kind in rows:
                    rows[kind].add(rest)
                elif kind == "meta":
                    key, _, val = rest.partition(" ")
                    meta[key] = val
                else:
                    raise ValueError(f"unrecognised mesh line: {line!r}")
            for block in rows.values():
                block.flush()
    vertices = rows["v"].array()
    if vertices is None:
        raise ValueError("mesh file has no vertices")
    faces = _check_ids(rows["f"].array(), len(vertices))
    t_values = t = rows["t"].array()
    if t is not None:
        if t.shape != (len(vertices), 1):
            raise ValueError("t lines must match v lines one to one, one number each")
        if not np.isfinite(t).all():
            raise ValueError("t values must be finite")
        t_values = t[:, 0]
    spec = None
    if {"n", "target", "res_theta", "res_t"} <= meta.keys():
        spec = MeshSpec(
            int(meta["n"]), meta["target"], int(meta["res_theta"]), int(meta["res_t"])
        )
    return Mesh(vertices, faces, t_values, spec, float(meta.get("weld_error", "nan")))


def write_obj(mesh: Mesh, path: str, axes: tuple[int, int, int] | None = None) -> None:
    """Export as Wavefront OBJ (quads, 1-based).

    Meshes of dimension > 3 must pick three coordinate axes to project to.
    """
    if mesh.dim == 3 and axes is None:
        axes = (0, 1, 2)
    if axes is None:
        raise ValueError(f"mesh lives in R^{mesh.dim}; pass axes=(i,j,k) to project")
    if len(axes) != 3 or any(a < 0 or a >= mesh.dim for a in axes):
        raise ValueError("axes must be three valid coordinate indices")
    with open(path, "w") as fh:
        fh.write("# klein-forge OBJ export\n")
        _write_rows(fh, "v %r %r %r\n", mesh.vertices[:, list(axes)])
        _write_rows(fh, "f" + " %d" * mesh.faces.shape[1] + "\n", mesh.faces + 1)


def read_obj(path: str) -> Mesh:
    """Read a quad OBJ file: `v` lines (first three coordinates) and `f` lines.

    Face indices are 1-based; a negative index counts back from the last
    `v` line read so far, so -1 is the newest vertex.  Only `v/...` index
    parts are used.  The result carries no grid metadata or t values.
    """
    count, seen = 0, []  # v lines so far, and before each f line of the block
    verts = _Rows(partial(_parse_rows, dtype=np.float64, usecols=(0, 1, 2)))
    faces = _Rows(lambda records: _obj_quads(records, seen), np.empty((0, 4), np.int64))
    with open(path) as fh:
        while lines := list(islice(fh, _IO_ROWS)):
            for line in lines:
                parts = line.split(None, 1)
                if not parts:
                    continue
                # parts[-1] is the record after its letter; a bare letter stays and fails to parse
                if parts[0] == "v":
                    verts.add(parts[-1])
                    count += 1
                elif parts[0] == "f":
                    rest = parts[-1]
                    faces.add(re.sub(_INDEX_PARTS, "", rest) if "/" in rest else rest)
                    seen.append(count)
            verts.flush()
            faces.flush()
            seen.clear()
    vertices = verts.array()
    if vertices is None:
        raise ValueError(f"no vertices in {path}")
    return Mesh(vertices, _check_ids(faces.array(), len(vertices)), None, None, float("nan"))


def load_mesh(path: str) -> Mesh:
    """Read a mesh file: OBJ for a `.obj` name, the mesh text format otherwise."""
    return read_obj(path) if path.endswith(".obj") else read_mesh_text(path)
