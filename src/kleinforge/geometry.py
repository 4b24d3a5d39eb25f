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
gives an embedding in R^(n+2).  So the embedding is a lift of the
immersion: its first n + 1 coordinates are the immersion's, bit for bit,
and its mesh has the same faces, which lets `lifted_scan` read the
embedding's scan off the immersion's without hashing a cell again.

Meshes sample the parameter grid, welding the t = pi row onto the t = 0
row through the flip (this needs an even theta resolution).  The grid is
sparse: each function of t alone, or of one angle alone, runs on that
axis's own samples, and only the torus recursion and the final coordinates
run at full size, with the same floats, bit for bit.  Quad corners
come from one grid step per axis: theta steps wrap, and the t step from
the last kept row lands on row 0 through the flip, the one place the weld
is applied.  The self-intersection scan hashes vertices into cells of
side `radius`, joins neighbouring cells one axis at a time, and reports
close pairs that are not mesh neighbours, where "neighbour" means graph
distance at most 2 in the share-a-quad adjacency; each vertex's ball is
read straight off the quads around it, found by one sort of packed
(vertex, quad) keys.  Both stages are array code over any
quad mesh: grid metadata is never used.  `lifted_scan` keeps, of a
mesh's reported pairs, those still close in a lift of it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import partial
from itertools import combinations, groupby, islice, repeat
from operator import itemgetter

import numpy as np

from .errors import FeasibilityError, check_budget

# Vertex, quad and hash-cell ids are int32 everywhere: build_mesh makes at
# most MESH_ENTRY_BUDGET entries, a scan of more than 2^22 vertices is refused,
# and a file's ids are checked against its vertex count.  int64 is kept only
# where two ids are packed into one key, where counts are summed, and in the
# index arrays of one gather block, since numpy gathers fastest by intp.

# vertex coordinates plus quad corners (2n(n - 1) a vertex) one mesh may
# hold, checked before sampling.  Building peaks (numpy's allocations, under
# tracemalloc) at about 9 bytes per entry at n = 2, 7 at n = 3 and 4.5 at
# n = 8, so at about 76 MB at the budget.  verify-paper's largest mesh, the
# n = 3 embedding, has 3,720,960 entries; it is built but not scanned in
# full (see lifted_scan).
MESH_ENTRY_BUDGET = 1 << 23
# raw candidate pairs (every point pair of two neighbouring cells, a cell with
# c points counting c^2 with itself) one self-intersection scan may gather, and
# cell prefix pairs its join may build on one axis, each counted before its
# arrays exist.  The largest scan verify-paper runs, of the n = 3 immersion,
# has 1,760,184 raw candidates and at most 591,322 prefix pairs on an axis;
# `scan --n 2 --res 200x400 --radius 1e6` would have about 3.2e9.  When the
# radius exceeds the mesh, nearly every candidate is reported, at about 340
# bytes per pair as a ScanResult.
SCAN_CANDIDATE_BUDGET = 1 << 22
# ball ids the neighbour test may gather (4 * max(deg i, deg j, 1) for each
# candidate pair (i, j)), counted before any is gathered.  It gathers them a
# block of _NEAR_BLOCK ids at a time, so the blocks bound its memory and the
# budget its time.  The largest count verify-paper gathers, for the n = 3
# immersion, is 15,542,688; a vertex of degree 1,000 in a mesh file costs
# 4,000 for each pair it is in.
SCAN_BALL_BUDGET = 1 << 25
_NEAR_BLOCK = 1 << 20  # ball ids gathered per block of the neighbour test
_GATHER_BLOCK = 1 << 15  # raw candidates gathered per block of the d^2 test
# rows formatted per write when saving a mesh file, and lines parsed per block
# when reading one, so that a mesh near the entry budget is never held as one
# string, nor its distinct floats as one table
_IO_ROWS = 1 << 13
_INDEX_PARTS = re.compile(r"(?<=\S)/\S*")  # the /vt/vn parts of an OBJ face index
_FIRST, _LAST = itemgetter(0), itemgetter(-1)


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
    v = v / np.linalg.norm(v, axis=-1, keepdims=True)
    return np.stack([-v[..., 1], v[..., 0]], axis=-1)


def nested_torus_radii(n: int, t):
    """Fibre radii (r_1, ..., r_(n-1)) at time t; the last one varies.

    The last stays in [D, 2D], so the nesting margin min(last, 4D - last) is
    at least D: strictly nested (test_nested_radii_shrink_and_stay_in_band).
    """
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


def _angles(thetas) -> list[np.ndarray]:
    """The angles of `thetas` one by one.

    thetas is an array of shape (..., m), split on its last axis, or a
    tuple of m arrays that broadcast together, one per angle, such as a
    sparse meshgrid, whose angles each keep their own axis.
    """
    if isinstance(thetas, tuple):
        return [np.asarray(th, dtype=float) for th in thetas]
    thetas = np.asarray(thetas, dtype=float)
    return [thetas[..., j] for j in range(thetas.shape[-1])]


def torus_point(radii, thetas):
    """Point of the nested torus T^m in R^(m+1), m = len(radii).

    thetas has shape (..., m), or is a tuple of m angle arrays (see
    _angles); radii entries may be scalars or arrays broadcastable against
    the leading shape.  Built by the recursion
    w_(m-1) = r_(m-1), w_j = r_j + w_(j+1) cos(theta_(j+1)); then
    x_1 = w_0 cos(theta_0) and x_(j+1) = w_j sin(theta_j).
    """
    angles = _angles(thetas)
    m = len(angles)
    if len(radii) != m:
        raise ValueError("need one radius per angle")
    w = np.asarray(radii[m - 1], dtype=float)
    ws = [w]
    for j in range(m - 2, -1, -1):
        w = radii[j] + w * np.cos(angles[j + 1])
        ws.append(w)
    ws.reverse()
    shape = np.broadcast_shapes(*map(np.shape, angles), np.shape(ws[0]))
    x = np.empty(shape + (m + 1,))
    x[..., 0] = ws[0] * np.cos(angles[0])
    for j in range(m):
        x[..., j + 1] = ws[j] * np.sin(angles[j])
    return x


def immersion_point(n: int, thetas, t):
    """K_n -> R^(n+1): fibre torus carried along the figure-eight.

    thetas has shape (..., n-1), or is a tuple of n - 1 angle arrays (see
    _angles), and t broadcasts against the leading shape; on a sparse grid
    the functions of t run on t's own axis.  The first fibre coordinate
    rides the directrix normal; the remaining ones go to the coordinate
    axes e_3..e_(n+1).
    """
    angles = _angles(thetas)
    t = np.asarray(t, dtype=float)
    if len(angles) != n - 1:
        raise ValueError(f"need {n - 1} angles for K_{n}")
    x = torus_point(nested_torus_radii(n, t), tuple(angles))
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
    is what pushes the overlapping tubes apart.  The first n + 1
    coordinates are immersion_point's own values, copied, so an embedding
    mesh is a lift of the immersion mesh on the same grid, and
    verify-paper scans it with `lifted_scan`.
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

    vertices: (N, dim) float array.  faces: (F, 4) array of quads, one per
    axis pair of the parameter grid, wrapped in theta and welded in t, held
    as int32 whatever integer type it is given in.
    t_values: per-vertex sweep parameter (None for meshes loaded without it).
    weld_error: max distance between the t = pi row and its flipped t = 0
    image, measured before the row was identified away.  A mesh read from a
    file has spec None and weld_error nan.
    """

    vertices: np.ndarray
    faces: np.ndarray
    t_values: np.ndarray | None
    spec: MeshSpec | None
    weld_error: float

    def __post_init__(self):
        object.__setattr__(self, "faces", np.asarray(self.faces, dtype=np.int32))

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
    # each vertex has dim coordinates and starts one quad per axis pair
    entries = A ** (n - 1) * (T - 1) * (spec.dim + 2 * n * (n - 1))
    what = f"vertex coordinates and quad corners in a {A}x{T} mesh of K_{n}"
    check_budget(entries, MESH_ENTRY_BUDGET, what)
    point = immersion_point if spec.target == "immersion" else embedding_point

    theta = 2 * np.pi * np.arange(A) / A
    tker = np.pi * np.arange(T - 1) / (T - 1)
    # a sparse grid: each function of t or of one angle runs on its own axis
    *angles, tval = np.meshgrid(*([theta] * (n - 1)), tker, indexing="ij", sparse=True)
    pts = point(n, tuple(angles), tval)
    vertices = pts.reshape(-1, spec.dim)
    t_values = np.broadcast_to(tval, pts.shape[:-1]).reshape(-1)

    # how closely the welded row really lands on its image
    th_end = tuple(th[..., 0] for th in angles)
    th_start = (np.pi - th_end[0], *th_end[1:])
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
    ids = np.arange(A ** (n - 1) * (T - 1), dtype=np.int32).reshape(kept)
    pairs = list(combinations(range(n), 2))
    quads = np.empty((len(pairs), ids.size, 4), dtype=np.int32)
    for block, (a, b) in zip(quads, pairs):
        step_b = _step(ids, b)
        for c, corner in enumerate((ids, _step(ids, a), _step(step_b, a), step_b)):
            block[:, c] = corner.ravel()
    return quads.reshape(-1, 4)


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
    # fresh[a, k]: cell a starts a new run of its first k + 1 coordinates
    fresh = np.ones(cells.shape, dtype=bool)
    fresh[1:] = np.logical_or.accumulate(cells[1:] != cells[:-1], axis=1)
    group = np.zeros(len(cells), dtype=np.int32)  # each cell's group, from the empty prefix
    p = q = np.zeros(0, dtype=np.int32)
    for k in range(cells.shape[1]):
        child_first = np.flatnonzero(fresh[:, k]).astype(np.int32)
        parent = group[child_first]
        value = cells[child_first, k].astype(np.int32)
        same = parent[1:] == parent[:-1]
        sib = np.flatnonzero(same & (value[1:] == value[:-1] + 1)).astype(np.int32)
        begin = np.flatnonzero(np.r_[True, ~same]).astype(np.int32)  # first child of each group
        kids = np.diff(begin, append=np.int32(len(child_first)))[p]
        what = f"cell prefix pairs on axis {k} in {scan}"
        check_budget(int(kids.sum()), SCAN_CANDIDATE_BUDGET, what)
        c = _ragged(begin[p], kids)
        # (parent, coordinate) keys, and the home key of each pair, shifted in
        # place to the first and then past the last coordinate within 1
        keys = (parent.astype(np.int64) << 32) + value
        home = np.repeat(q, kids).astype(np.int64)
        home <<= 32
        home += value[c]
        home -= 1
        lo_d = np.searchsorted(keys, home).astype(np.int32)
        home += 2
        size = np.searchsorted(keys, home, side="right").astype(np.int32) - lo_d
        del home
        check_budget(len(sib) + int(size.sum()), SCAN_CANDIDATE_BUDGET, what)
        p = np.concatenate([sib, np.repeat(c, size)])
        q = np.concatenate([sib + 1, _ragged(lo_d, size)])
        group = np.cumsum(fresh[:, k], dtype=np.int32) - 1
    return p, q


def _points(mesh: Mesh) -> np.ndarray:
    """The mesh's vertices as one contiguous float64 array, each checked finite."""
    P = np.ascontiguousarray(mesh.vertices, dtype=np.float64)
    if not np.isfinite(P).all():
        raise ValueError("mesh vertices must have finite coordinates")
    return P


def _extent(P: np.ndarray):
    """Each axis's lowest coordinate and its span, refusing a squared extent past the float range."""
    lo = P.min(axis=0)
    # Python floats, so a span or square beyond the float range is inf without
    # a warning; with a finite sum of squared spans no squared distance overflows
    spans = [h - l for h, l in zip(P.max(axis=0).tolist(), lo.tolist())]
    if not np.isfinite(sum(s * s for s in spans)):
        raise FeasibilityError(f"the squared extent of a scan in R^{P.shape[1]} does not fit in 64 bits")
    return lo, spans


def _sq_distances(P: np.ndarray, I: np.ndarray, J: np.ndarray) -> np.ndarray:
    """The squared distance of each vertex pair (I[k], J[k]).

    numpy sums a row of fewer than 8 entries left to right, one addition
    per coordinate (test_row_sums_run_left_to_right); lifted_scan relies on it.
    """
    return np.sum((np.take(P, I, axis=0) - np.take(P, J, axis=0)) ** 2, axis=1)


def _candidate_pairs(P: np.ndarray, radius: float):
    """All vertex pairs within `radius`, via a uniform spatial hash.

    Cells have side `radius`, or extent / 2^30 where that is larger, so
    that cell coordinates stay at most 2^30; they are kept in the narrowest
    unsigned type that holds them, which sorts fastest.  A larger side
    still puts every close pair in neighbouring cells.  Points at distance
    <= radius lie in cells differing by at most one per axis: each occupied
    cell with itself and the pairs _neighbour_cells joins.  The raw
    candidates (every point pair of two such cells) are at least N, as each
    point pairs with itself, so a scan of more than SCAN_CANDIDATE_BUDGET
    vertices is refused before any sort.  The rest are counted and checked
    against the budget before any is gathered; they then go through the
    exact d^2 test a block at a time.
    """
    N = len(P)
    scan = f"a scan of {N} vertices at radius {radius!r}"
    check_budget(N, SCAN_CANDIDATE_BUDGET, f"or more candidate pairs in {scan}")
    lo, spans = _extent(P)
    extent = max(spans)
    side = max(radius, extent / 2**30)
    x = P - lo  # hashed in place: one N x dim float array at a time
    x /= side
    np.floor(x, out=x)
    coords = x.astype(np.min_scalar_type(int(extent / side)))
    del x
    order = np.lexsort(coords.T[::-1]).astype(np.int32)
    coords = coords[order]
    starts = np.flatnonzero(np.r_[True, (coords[1:] != coords[:-1]).any(axis=1)]).astype(np.int32)
    counts = np.diff(starts, append=np.int32(N))
    p, q = _neighbour_cells(coords[starts], scan)
    each = np.arange(len(starts), dtype=np.int32)
    a, b = np.concatenate([each, p]), np.concatenate([each, q])
    raw = counts[a].astype(np.int64) * counts[b]
    total = int(raw.sum())
    check_budget(total, SCAN_CANDIDATE_BUDGET, f"candidate pairs in {scan}")
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
        close = _sq_distances(P, I, J) <= radius * radius
        found.append((I[close], J[close]))
    return tuple(map(np.concatenate, zip(*found)))


def _vertex_quads(faces: np.ndarray, num_vertices: int):
    """The quad incidence by vertex, as int32 arrays (first, degree, quad_of).

    Vertex v's quads are quad_of[first[v] : first[v] + degree[v]], in
    order, a quad as often as v is its corner: the order of a stable
    argsort of the corners, bit for bit.  Each corner is one int64 key,
    vertex << 32 | quad, sorted in place; quad_of is the keys' low words,
    and first and degree are read off the sorted keys by one search of
    each v << 32.
    """
    keys = faces.astype(np.int64)
    keys <<= 32
    keys += np.arange(len(faces), dtype=np.int64)[:, None]  # in place, over the (F, corners) view
    keys = keys.ravel()
    keys.sort()
    bounds = np.searchsorted(keys, np.arange(num_vertices + 1, dtype=np.int64) << 32).astype(np.int32)
    # the cast to int32 keeps the low 32 bits
    return bounds[:-1], np.diff(bounds), keys.astype(np.int32)


def _mesh_near_mask(
    faces: np.ndarray, num_vertices: int, I: np.ndarray, J: np.ndarray
) -> np.ndarray:
    """Which candidate pairs are within graph distance 2 of each other.

    Adjacency is "shares a quad".  With ball(v) = {v} + its neighbours,
    distance <= 2 is exactly ball(i) meeting ball(j).  row(v) is the corners
    of v's quads, read off the quad incidence of _vertex_quads (one sort of
    packed corner keys, in any face order) with repeats left in, so its
    entries are ball(v); a vertex in no quad reads itself alone.
    A pair with d = max(deg i, deg j, 1) reads both rows at width 4d, v's
    last quad repeating past deg v, so a vertex of high degree slows only
    its own pairs.  Pairs go in order of d, a block of about _NEAR_BLOCK
    gathered ids at a time.  j in row(i) means the balls meet (j is in
    ball(j)); on the mesh grids that settles about three pairs in four.
    The rest tag row(i) as 2 id and row(j) as 2 id + 1 and sort each pair's
    tagged rows: adjacent entries that differ in the tag bit alone are one
    id from both balls, while repeats within a row are equal, so nothing is
    deduplicated.  The 4d ids a pair are counted against SCAN_BALL_BUDGET,
    from the degrees of the sorted incidence, before any is gathered.
    """
    corners = faces.shape[1]
    first, degree, quad_of = _vertex_quads(faces, num_vertices)
    d = np.maximum(np.maximum(degree[I], degree[J]), 1)
    what = f"ball entries in the neighbour test of {len(I)} candidate pairs"
    check_budget(corners * int(d.sum()), SCAN_BALL_BUDGET, what)
    if not len(quad_of):
        return np.zeros(len(I), dtype=bool)  # every ball is one vertex

    def rows(v: np.ndarray, deg: int) -> np.ndarray:
        v = v.astype(np.intp)
        v_deg = degree[v]
        k = np.minimum(np.arange(deg), np.maximum(v_deg, 1)[:, None] - 1)
        slot = np.minimum(first[v][:, None] + k, len(quad_of) - 1)
        out = np.take(faces, quad_of[slot], axis=0).reshape(len(v), corners * deg)
        lonely = v_deg == 0
        out[lonely] = v[lonely, None]
        return out

    order = np.argsort(d, kind="stable")
    degrees, starts, counts = np.unique(d[order], return_index=True, return_counts=True)
    near = np.empty(len(I), dtype=bool)
    for deg, start, count in zip(degrees.tolist(), starts.tolist(), counts.tolist()):
        block = max(1, _NEAR_BLOCK // (corners * deg))
        for lo in range(start, start + count, block):
            pick = order[lo : min(lo + block, start + count)]
            bi = rows(I[pick], deg)
            shared = (bi == J[pick][:, None]).any(axis=1)
            near[pick] = shared
            pick = pick[~shared]
            tagged = np.concatenate([bi[~shared] << 1, rows(J[pick], deg) << 1 | 1], axis=1)
            tagged.sort(axis=1)
            near[pick] = ((tagged[:, 1:] ^ tagged[:, :-1]) == 1).any(axis=1)
    return near


def self_intersection_scan(mesh: Mesh, radius: float) -> ScanResult:
    """Report non-neighbour vertex pairs at distance <= radius.

    An embedding sampled finely enough yields no pairs; an immersion with
    genuine double points keeps reporting pairs however fine the mesh.
    """
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be finite and positive, got {radius!r}")
    P = _points(mesh)
    N = len(P)
    I, J = _candidate_pairs(P, radius)
    if len(I):
        near = _mesh_near_mask(mesh.faces, N, I, J)
        I, J = I[~near], J[~near]
    # each pair is found once; one int64 key per pair sorts them by (low, high)
    lo, hi = np.divmod(np.sort(np.minimum(I, J).astype(np.int64) * N + np.maximum(I, J)), N)
    return _scan_result(mesh, P, radius, lo, hi)


def lifted_scan(base: Mesh, scan: ScanResult, lift: Mesh) -> ScanResult:
    """self_intersection_scan(lift, scan.radius), read off `scan`, the scan of `base`.

    `lift` must have base's faces and base's vertices as its leading
    columns, in fewer than 8 columns in all, as the embedding has the
    immersion's; anything else is refused with ValueError.  Then a lift
    pair's d^2 is the base pair's with non-negative squares added after it,
    since numpy sums a row of fewer than 8 entries left to right, and
    rounding is monotone, so it is never smaller: every close lift pair is
    a close base pair.  The faces, hence the neighbour test, are the same.
    So the lift's pairs are the base's reported pairs whose lift d^2, by
    the scan's own expression, is at most radius^2, and no cell is hashed
    again.  The lift's vertices get the full scan's checks.
    """
    if not (
        lift.dim < 8
        and scan.num_vertices == base.num_vertices
        and np.array_equal(lift.faces, base.faces)
        and np.array_equal(lift.vertices[:, : base.dim], base.vertices)
    ):
        raise ValueError("a lifted scan needs base's faces and vertices as the leading columns of fewer than 8")
    P = _points(lift)
    _extent(P)
    lo, hi = np.array(scan.pairs, dtype=np.int64).reshape(-1, 2).T
    close = _sq_distances(P, lo, hi) <= scan.radius * scan.radius
    return _scan_result(lift, P, scan.radius, lo[close], hi[close])


def _scan_result(mesh: Mesh, P: np.ndarray, radius: float, lo: np.ndarray, hi: np.ndarray) -> ScanResult:
    """The ScanResult of the pairs (lo[k], hi[k]) of `mesh`, whose vertices are P."""
    dists = np.sqrt(_sq_distances(P, lo, hi))
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
        num_vertices=len(P),
        num_pairs=len(lo),
        pairs=tuple(zip(lo.tolist(), hi.tolist())),
        distances=tuple(dists.tolist()),
        t_pairs=t_pairs,
        seam_confinement=reach,
    )


# mesh files: a tiny self-describing text format, plus OBJ export and import


def _write_rows(fh, letter: str, rows: np.ndarray, columns=slice(None), offset: int = 0) -> None:
    """Write one `letter` record per row, formatting a block of rows per `%`.

    Each block takes `columns` of its rows and adds a nonzero `offset`, so a
    projection or 1-based ids never copy the whole array.  A float is
    written as the repr of a Python float, its shortest round-trip form, so
    it reads back exactly.  Each distinct value of a block is formatted once,
    keyed on its bits so that -0.0 stays apart from 0.0.  Entries of any
    other dtype are written with %d.
    """
    rows = rows[:, None] if rows.ndim == 1 else rows
    floats = rows.dtype.kind == "f"
    for start in range(0, len(rows), _IO_ROWS):
        block = rows[start:start + _IO_ROWS, columns]
        if offset:
            block = block + offset
        values = block.ravel()
        if floats:
            bits, where = np.unique(values.astype(np.float64, copy=False).view(np.uint64), return_inverse=True)
            values = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)[where]
        record = letter + (" %s" if floats else " %d") * block.shape[1] + "\n"
        fh.write(record * len(block) % tuple(values.tolist()))


def _parse_rows(records: list[str], dtype, usecols=None) -> np.ndarray:
    """Parse records of whitespace-separated numbers, one array row per record.

    numpy's parser rounds floats correctly, as `float` does, and raises
    ValueError on a ragged row or a token that is not a number.
    """
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
    `bare` is the record that a line with no numbers gives.  `flush` refuses
    it before parsing, not as records are added, so a line of the block that
    no reader knows is reported first.
    """

    def __init__(self, bare: str, parse, empty=None):
        self.bare, self.parse, self.empty, self.records, self.blocks = bare, parse, empty, [], []
        self.extend = self.records.extend

    def flush(self) -> None:
        if self.records:
            if self.bare in self.records:
                raise ValueError("a mesh record has no numbers")
            self.blocks.append(self.parse(self.records))
            self.records.clear()

    def array(self) -> np.ndarray | None:
        """Every row, or `empty` for no records."""
        self.flush()
        if len({block.shape[1] for block in self.blocks}) > 1:
            raise ValueError("mesh rows differ in length")
        return np.concatenate(self.blocks) if self.blocks else self.empty


def _record_runs(fh):
    """Each block of `_IO_ROWS` lines of `fh`, with its runs of (first token, records).

    Every line is split once, at its first run of whitespace (any character
    `str.split` splits on), and blank lines drop out; the rest are taken in
    runs that share a first token.  A record is the line past its token, or
    the token itself for a line with nothing else.  A file's last line gets
    the newline it may lack, so every other record ends in whitespace.
    """
    while lines := list(islice(fh, _IO_ROWS)):
        if lines[-1][-1] != "\n":
            lines[-1] += "\n"
        parts = filter(None, map(str.split, lines, repeat(None), repeat(1)))
        yield lines, ((token, map(_LAST, run)) for token, run in groupby(parts, _FIRST))


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
        _write_rows(fh, "v", mesh.vertices)
        if mesh.t_values is not None:
            _write_rows(fh, "t", mesh.t_values)
        _write_rows(fh, "f", mesh.faces)


def read_mesh_text(path: str) -> Mesh:
    """Read the mesh text format; `meta` records are for people, skipped like comments."""
    floats = partial(_parse_rows, dtype=np.float64)
    rows = {
        "v": _Rows("v", floats),
        "t": _Rows("t", floats),
        "f": _Rows("f", _quads, np.empty((0, 4), np.int64)),
    }
    with open(path) as fh:
        for lines, runs in _record_runs(fh):
            for token, records in runs:
                if token in rows:
                    rows[token].extend(records)
                elif token != "meta" and token[0] != "#":
                    line = next(line for line in lines if line.split(None, 1)[:1] == [token])
                    raise ValueError(f"unrecognised mesh line: {line.strip()!r}")
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
    return Mesh(vertices, faces, t_values, None, float("nan"))


def _check_axes(axes: tuple[int, ...], dim: int) -> None:
    if len(axes) != 3 or any(a < 0 or a >= dim for a in axes):
        raise ValueError("axes must be three valid coordinate indices")


def write_obj(mesh: Mesh, path: str, axes: tuple[int, int, int] | None = None) -> None:
    """Export as Wavefront OBJ (quads, 1-based).

    Meshes of dimension > 3 must pick three coordinate axes to project to.
    """
    if mesh.dim == 3 and axes is None:
        axes = (0, 1, 2)
    if axes is None:
        raise ValueError(f"mesh lives in R^{mesh.dim}; pass axes=(i,j,k) to project")
    _check_axes(axes, mesh.dim)
    with open(path, "w") as fh:
        fh.write("# klein-forge OBJ export\n")
        _write_rows(fh, "v", mesh.vertices, columns=list(axes))
        _write_rows(fh, "f", mesh.faces, offset=1)


def read_obj(path: str) -> Mesh:
    """Read a quad OBJ file: `v` lines (first three coordinates) and `f` lines.

    Face indices are 1-based; a negative index counts back from the last
    `v` line read so far, so -1 is the newest vertex.  Only `v/...` index
    parts are used.  The result carries no grid metadata or t values.
    """
    count, seen = 0, []  # v lines of earlier blocks; v lines before each f line of this block
    verts = _Rows("v", partial(_parse_rows, dtype=np.float64, usecols=(0, 1, 2)))
    faces = _Rows("f", lambda records: _obj_quads(records, seen), np.empty((0, 4), np.int64))
    with open(path) as fh:
        for _, runs in _record_runs(fh):
            for token, records in runs:
                if token == "v":
                    verts.extend(records)
                elif token == "f":
                    records = list(records)
                    faces.extend(map(partial(_INDEX_PARTS.sub, ""), records) if "/" in "".join(records) else records)
                    seen.extend([count + len(verts.records)] * len(records))
            count += len(verts.records)
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
