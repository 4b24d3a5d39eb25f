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
row through the flip (this needs an even theta resolution).  The
self-intersection scan hashes vertices into cells of side `radius`, each
keyed by one int64, and reports close pairs that are not mesh neighbours,
where "neighbour" means graph distance at most 2 in the share-a-quad
adjacency.  Both stages are array code over any quad mesh: grid metadata
is never used.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from .errors import FeasibilityError

MIN_DIRECTRIX_SPEED = 1e-8
# vertex coordinates one mesh may hold, checked before sampling; building
# peaks at about 100-130 bytes per coordinate, so about 1 GB at the budget
MESH_COORDINATE_BUDGET = 1 << 23
# raw candidate pairs (every point pair of two neighbouring cells, a cell with
# c points counting c^2 with itself) one self-intersection scan may gather, checked
# before any pair array exists.  The largest scan in use, verify-paper's n = 3
# immersion, has 1,770,949; `scan --n 2 --res 200x400 --radius 1e6` would have
# about 3.2e9.  The array stages take about 45 bytes per raw candidate (190 MB
# at the budget); when the radius exceeds the mesh, nearly every candidate is
# reported, at about 340 bytes per pair as a ScanResult.
SCAN_CANDIDATE_BUDGET = 1 << 22
# entries of the ball table the neighbour filter may build (one row of
# 1 + 4 * (largest degree) ids per vertex in a candidate pair), checked before
# building it.  Building peaks at about 17 bytes per entry, so about 570 MB at
# the budget.  The largest table in use, verify-paper's n = 3 scans, has
# 10,725,120 (218,880 rows of degree 12); one vertex of degree 1,000 in a mesh
# file widens every row to 4,001.
SCAN_BALL_BUDGET = 1 << 25
# cell lookups one self-intersection scan may make, checked before the first:
# (3^dim + 1) / 2 neighbour offsets, each a search over the occupied cells.
# An offset is charged at least 512 cells, because its array calls cost about
# as much as searching that many (about 20 us, at 40 ns a cell).  One search
# serves the three offsets that differ in the last axis only, so a scan
# makes (3^(dim-1) + 1) / 2 searches and the budget over-counts them about 3x;
# the formula is kept so that the same scans are refused.  The largest scan
# in use, verify-paper's n = 3 embedding in R^5, is charged 122 x 146,459 =
# 17,867,998 and makes 41 searches.  Four vertices in R^10 are charged
# 29,525 x 512; every scan in R^11 or higher is refused.
SCAN_LOOKUP_BUDGET = 1 << 25
_NEAR_BLOCK = 1 << 21  # ball-entry compares per block of the neighbour test
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


def _flat_ids(indices, A: int, T: int) -> np.ndarray:
    """Kept-vertex ids for grid indices, applying theta wrap and t weld."""
    axes = [np.asarray(ix) % A for ix in indices[:-1]]
    tt = np.asarray(indices[-1])
    at_weld = tt == T - 1
    axes[0] = np.where(at_weld, grid_weld_index(axes[0], A), axes[0])
    tt = np.where(at_weld, 0, tt)
    shape = tuple([A] * len(axes)) + (T - 1,)
    return np.ravel_multi_index(tuple(axes) + (tt,), shape)


def _grid_faces(n: int, A: int, T: int) -> np.ndarray:
    """Quads (base, +e_a, +e_a+e_b, +e_b) for every axis pair a < b."""
    kept = tuple([A] * (n - 1)) + (T - 1,)
    base = [g.ravel() for g in np.indices(kept)]
    quads = []
    for a, b in combinations(range(n), 2):
        corners = []
        for da, db in ((0, 0), (1, 0), (1, 1), (0, 1)):
            idx = list(base)
            idx[a] = idx[a] + da
            idx[b] = idx[b] + db
            corners.append(_flat_ids(idx, A, T))
        quads.append(np.stack(corners, axis=1))
    return np.concatenate(quads, axis=0).astype(np.int64)


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


def _cell_side(extent: float, dim: int, radius: float) -> float:
    """The side of the hash cells: `radius`, or more where int64 keys need it.

    Cells are counted from the mesh's lowest corner with one spare layer
    each side (for the neighbour offsets), so an axis of length `extent`
    spans at most extent/side + 3 cells.  Below 2^(61/dim) cells per axis
    the box has under 2^61 cells, and every key, plus or minus one offset
    step, fits in int64.  A side above `radius` still puts every close pair
    in neighbouring cells, so the result is the same.
    """
    cells_per_axis = 2.0 ** (61 / dim) - 4
    if cells_per_axis <= 0 or not np.isfinite(extent):
        raise FeasibilityError(f"the cell keys of a scan in R^{dim} do not fit in 64 bits")
    return max(radius, extent / cells_per_axis)


def _cell_pairs(cells: np.ndarray, step: int, same_prefix: bool):
    """Cell pairs for the three offsets step - 1, step and step + 1.

    Yields (d, a, b) for d = -1, 0, 1: indices into the sorted unique keys
    with cells[b] == cells[a] + step + d.  The three wanted keys of a cell
    are consecutive integers, so one search for the first finds all three:
    a hit at `loc` moves the next key's place to loc + 1, a miss leaves it
    at loc.  A place past the end is read at the last cell, which is below
    every wanted key there, so it never hits.  With `same_prefix` (step 0)
    d = -1 is the other half-space and is skipped.
    """
    last = len(cells) - 1
    loc = np.searchsorted(cells, cells + (step - 1))
    for d in (-1, 0, 1):
        at = np.minimum(loc, last)
        hit = cells[at] == cells + (step + d)
        if d >= 0 or not same_prefix:
            a = np.flatnonzero(hit)
            yield d, a, at[a]
        loc += hit


def _candidate_pairs(P: np.ndarray, radius: float):
    """All vertex pairs within `radius`, via a uniform spatial hash.

    Cells have side `radius`, or more where _cell_side needs it.  Each
    cell is keyed by one int64, the mixed-radix index of its cell
    coordinates, counted from the mesh's lowest corner and shifted to
    start at 1, so a neighbour offset is a scalar added to a key.
    Points at distance <= radius lie in cells differing by at most one
    per axis, so looking up a half-space of the 3^dim offsets from every
    occupied cell sees every pair exactly once.  The last axis has stride
    1, so the offsets that differ only in it are adjacent keys: the loop
    runs over the half-space of the 3^(dim-1) prefix offsets and makes one
    search per prefix (_cell_pairs).  The lookups are charged against
    SCAN_LOOKUP_BUDGET before the first.  The raw candidates (every point
    pair of two neighbouring cells) are counted first and checked against
    SCAN_CANDIDATE_BUDGET; each offset's candidates then go through the
    exact d^2 test on their own.
    """
    N, dim = P.shape
    lo = P.min(axis=0)
    # Python floats, so a span beyond the float range is inf without a warning
    extent = max(h - l for h, l in zip(P.max(axis=0).tolist(), lo.tolist()))
    side = _cell_side(extent, dim, radius)
    coords = np.floor((P - lo) / side).astype(np.int64) + 1
    radix = coords.max(axis=0) + 2
    strides = np.ones(dim, dtype=np.int64)
    for a in range(dim - 2, -1, -1):
        strides[a] = strides[a + 1] * radix[a + 1]
    keys = coords @ strides
    order = np.argsort(keys)
    cells, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    lookups = (3**dim + 1) // 2 * max(len(cells), 512)
    if lookups > SCAN_LOOKUP_BUDGET:
        raise FeasibilityError(
            f"a scan in R^{dim} over {len(cells)} occupied cells makes {lookups} "
            f"cell lookups, over {SCAN_LOOKUP_BUDGET} (the budget)"
        )

    zero = (0,) * (dim - 1)
    neighbours = []
    raw = 0
    for prefix in product((-1, 0, 1), repeat=dim - 1):
        if prefix < zero:
            continue
        step = int(np.dot(prefix, strides[:-1]))
        for d, a, b in _cell_pairs(cells, step, prefix == zero):
            neighbours.append((prefix == zero and d == 0, a, b))
            raw += int(np.dot(counts[a], counts[b]))
            if raw > SCAN_CANDIDATE_BUDGET:
                raise FeasibilityError(
                    f"a scan of {N} vertices at radius {radius!r} has over "
                    f"{SCAN_CANDIDATE_BUDGET} candidate pairs (the budget)"
                )

    out_i, out_j = [], []
    for same_cell, a, b in neighbours:
        reps = counts[a] * counts[b]
        total = int(reps.sum())
        if total == 0:
            continue
        # ragged gather of every point pair of each cell pair (a, b)
        pair = np.repeat(np.arange(len(a)), reps)
        within = np.arange(total) - np.repeat(np.cumsum(reps) - reps, reps)
        width = counts[b][pair]
        I = order[starts[a][pair] + within // width]
        J = order[starts[b][pair] + within % width]
        if same_cell:
            keep = I < J
            I, J = I[keep], J[keep]
        close = np.sum((P[I] - P[J]) ** 2, axis=1) <= radius * radius
        out_i.append(I[close])
        out_j.append(J[close])
    if not out_i:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    return np.concatenate(out_i), np.concatenate(out_j)


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
    corners = faces.astype(ids, copy=False)[incidence[slot] // faces.shape[1]]
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
    degree slows only its own pairs.  Each block of pairs first tests
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
        # w^2 compares per pair: blocks sized from w keep memory bounded
        block = max(1, _NEAR_BLOCK // (w * w))
        for lo in range(start, start + count, block):
            pick = order[lo : min(lo + block, start + count)]
            bi = balls[row[I[pick]], :w]
            shared = (bi == J[pick][:, None]).any(axis=1)
            near[pick] = shared
            pick, bi = pick[~shared], bi[~shared]
            bj = balls[row[J[pick]], :w]
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
    if not records:
        return np.empty((0, 4), dtype=np.int64)
    faces = _parse_rows(records, np.int64)
    if faces.shape[1] != 4:
        raise ValueError("mesh faces must be quads")
    return faces


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
    verts: list[str] = []
    tvals: list[str] = []
    faces: list[str] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kind, _, rest = line.partition(" ")
            if kind == "v":
                verts.append(rest)
            elif kind == "f":
                faces.append(rest)
            elif kind == "t":
                tvals.append(rest)
            elif kind == "meta":
                key, _, val = rest.partition(" ")
                meta[key] = val
            else:
                raise ValueError(f"unrecognised mesh line: {line!r}")
    if not verts:
        raise ValueError("mesh file has no vertices")
    vertices = _parse_rows(verts, np.float64)
    faces_arr = _check_ids(_quads(faces), len(vertices))
    t_values = None
    if tvals:
        t = _parse_rows(tvals, np.float64)
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
    return Mesh(
        vertices=vertices,
        faces=faces_arr,
        t_values=t_values,
        spec=spec,
        weld_error=float(meta.get("weld_error", "nan")),
    )


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
    verts: list[str] = []
    faces: list[str] = []
    seen: list[int] = []  # the number of v lines before each f line
    with open(path) as fh:
        for line in fh:
            parts = line.split(None, 1)
            if not parts:
                continue
            # parts[-1] is the record after its letter; a bare letter stays and fails to parse
            if parts[0] == "v":
                verts.append(parts[-1])
            elif parts[0] == "f":
                rest = parts[-1]
                faces.append(re.sub(_INDEX_PARTS, "", rest) if "/" in rest else rest)
                seen.append(len(verts))
    if not verts:
        raise ValueError(f"no vertices in {path}")
    vertices = _parse_rows(verts, np.float64, usecols=(0, 1, 2))
    ids = _quads(faces)
    if (ids == 0).any():
        raise ValueError("OBJ face index 0 is invalid (indices start at 1)")
    ids = np.where(ids > 0, ids - 1, ids + np.asarray(seen, dtype=np.int64)[:, None])
    return Mesh(
        vertices=vertices,
        faces=_check_ids(ids, len(vertices)),
        t_values=None,
        spec=None,
        weld_error=float("nan"),
    )


def load_mesh(path: str) -> Mesh:
    """Read a mesh file: OBJ for a `.obj` name, the mesh text format otherwise."""
    return read_obj(path) if path.endswith(".obj") else read_mesh_text(path)
