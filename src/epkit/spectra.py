"""Parameter-plane cartography of exceptional structures.

A scan evaluates a catalog model over a rectangular grid, eigendecomposes
every cell in bulk, and stores per-cell summaries: the full spectrum, the
minimal pairwise eigenvalue gap, the maximal pairwise right-eigenvector
overlap, and a signed coalescence indicator.

The indicator is the real part of prod_{i<j} (lambda_i - lambda_j)^2, the
product of all squared eigenvalue gaps.  For generators that preserve
Hermiticity the spectrum is closed under conjugation, the product is real,
and it changes sign exactly where a conjugate pair collides on the real
axis, i.e. on a second-order exceptional line.  That sign change is what
makes marching-squares contouring and bisection refinement robust; the raw
gap field is non-negative and would only graze zero.  Eigenvector overlap
is used as a confirmation filter on refined vertices, never for contouring.

Threaded scans split the grid into fixed row blocks; results are written
into index-keyed arrays, so the output is byte-identical for any worker
count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import contour, linalg
from .errors import ResolutionTooLarge
from .models import ModelSpec, get_model, resolve_params

MAX_CELLS = 10**7
# Fixed split, independent of the worker count (determinism): small blocks
# balance well across workers and keep the per-block batches cache-sized.
CHUNK_ROWS = 4

# Refinement contract for reported candidates and line vertices: the pair
# gap at a refined point must fall below GAP_TOL_FACTOR * (1 + ||L||_F).
# The factor sits a few times above sqrt(machine eps): a quantity vanishing
# quadratically across a branch line cannot be resolved below ~sqrt(eps)
# times the matrix scale, and the measured floor on the detuned-generator
# lines is 1e-8 .. 4e-8 relative.
GAP_TOL_FACTOR = 5e-8
OVERLAP_MIN = 1.0 - 1e-5
# Order estimation counts eigenvalues inside a window that widens with the
# multiplicity being tested (cube root of the pair window for a third
# member), since square-root vs cube-root noise scaling makes any fixed
# window order-dependent.
ORDER_TOL_FACTOR = 10.0


@dataclass(frozen=True)
class AxisSpec:
    name: str
    lo: float
    hi: float
    res: int

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("axis bounds must be finite")
        if not self.lo < self.hi:
            raise ValueError(f"axis '{self.name}': need lo < hi")
        if self.res < 2:
            raise ValueError(f"axis '{self.name}': resolution must be >= 2")

    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.res)


@dataclass(frozen=True)
class PlaneSpec:
    """Two named axes plus fixed values for the remaining model parameters."""

    x: AxisSpec
    y: AxisSpec
    fixed: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.x.res * self.y.res > MAX_CELLS:
            raise ResolutionTooLarge(
                f"{self.x.res} x {self.y.res} exceeds {MAX_CELLS} cells"
            )


@dataclass(frozen=True)
class EPCandidate:
    """A refined coalescence point with estimated order."""

    location: tuple[float, float]
    order: int
    eigenvalue: complex
    residual: float  # min gap at the refined location
    kind: str  # "point" or "on_line"


@dataclass
class ExceptionalMap:
    """Grid summaries plus traced exceptional lines and refined points."""

    model: str
    plane: PlaneSpec
    xs: np.ndarray
    ys: np.ndarray
    eigenvalues: np.ndarray  # (nx, ny, dim)
    min_gap: np.ndarray  # (nx, ny)
    max_overlap: np.ndarray  # (nx, ny)
    indicator: np.ndarray  # (nx, ny) signed gap product
    lines: list = field(default_factory=list)  # list of (k, 2) vertex arrays
    points: list = field(default_factory=list)  # list of EPCandidate


def _cell_params(model: ModelSpec, plane: PlaneSpec, x, y) -> dict:
    values = dict(resolve_params(model, plane.fixed))
    xy = resolve_params(model, {plane.x.name: x, plane.y.name: y})
    values.update(xy)
    return values


def evaluate_cells(model: ModelSpec, plane: PlaneSpec, x, y):
    """Spectra and summaries for broadcastable coordinate arrays."""
    mats = model.matrix(**_cell_params(model, plane, x, y))
    vals, vecs = linalg.eig_batch(mats)
    d = model.dim
    diag = np.eye(d, dtype=bool)
    diff = vals[..., :, None] - vals[..., None, :]
    adiff = np.abs(diff)
    adiff[..., diag] = np.inf
    min_gap = adiff.min(axis=(-2, -1))
    gram = np.abs(np.einsum("...ij,...ik->...jk", vecs.conj(), vecs))
    gram[..., diag] = 0.0
    max_overlap = gram.max(axis=(-2, -1))
    prod = np.ones(vals.shape[:-1], dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            prod = prod * diff[..., i, j] ** 2
    return vals, min_gap, max_overlap, prod.real


def scan_grid(plane: PlaneSpec, model_name: str, threads: int = 1) -> ExceptionalMap:
    """Per-cell spectral summary over the plane; deterministic assembly."""
    model = get_model(model_name)
    _cell_params(model, plane, plane.x.lo, plane.y.lo)  # validate names early
    xs, ys = plane.x.values(), plane.y.values()
    nx, ny = xs.size, ys.size
    d = model.dim
    eigenvalues = np.empty((nx, ny, d), dtype=complex)
    min_gap = np.empty((nx, ny))
    max_overlap = np.empty((nx, ny))
    indicator = np.empty((nx, ny))

    def do_block(i0: int) -> None:
        i1 = min(i0 + CHUNK_ROWS, nx)
        gx = xs[i0:i1][:, None]
        gy = ys[None, :]
        vals, gap, ov, ind = evaluate_cells(model, plane, gx, gy)
        eigenvalues[i0:i1] = vals
        min_gap[i0:i1] = gap
        max_overlap[i0:i1] = ov
        indicator[i0:i1] = ind

    blocks = range(0, nx, CHUNK_ROWS)
    if threads <= 1:
        for i0 in blocks:
            do_block(i0)
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(do_block, blocks))

    return ExceptionalMap(
        model=model_name,
        plane=plane,
        xs=xs,
        ys=ys,
        eigenvalues=eigenvalues,
        min_gap=min_gap,
        max_overlap=max_overlap,
        indicator=indicator,
    )


def quasi_steady_index(d: linalg.SpectralDecomposition) -> int:
    """Index of the eigenvalue with maximal real part (ties: smaller |Im|)."""
    vals = d.eigenvalues
    return min(range(d.dim), key=lambda i: (-vals[i].real, abs(vals[i].imag)))


# -- refinement ---------------------------------------------------------------
#
# Every search below runs on lanes: one lane per grid edge, per seed or per
# walk orientation.  All lanes take the same number of steps, so one step is
# one evaluate_cells call on the stacked lane points, and per-lane branches
# are np.where selections.  A lane does exactly the arithmetic of a lone
# search and LAPACK solves every stacked matrix on its own, so a lane's
# result does not depend on the other lanes of its batch.


def _min_gap(model: ModelSpec, plane: PlaneSpec, x, y) -> np.ndarray:
    return evaluate_cells(model, plane, x, y)[1]


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo, hi, iters: int) -> np.ndarray:
    """Golden-section minimizer on the lane brackets [lo, hi].

    ``f`` maps an array of abscissae, one per lane, to the lane values.
    Returns the midpoint argmin of every lane.
    """
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        left = fc < fd  # keep [a, d], else keep [c, b]
        a, b = np.where(left, a, c), np.where(left, d, b)
        probe = np.where(left, b - _INVPHI * (b - a), a + _INVPHI * (b - a))
        fp = f(probe)
        c, d = np.where(left, probe, d), np.where(left, c, probe)
        fc, fd = np.where(left, fp, fd), np.where(left, fc, fp)
    return 0.5 * (a + b)


def refine_gap_minimum(
    model: ModelSpec,
    plane: PlaneSpec,
    x0,
    y0,
    dx: float,
    dy: float,
    iters: int = 80,
):
    """Line-search descent of the min-gap field around the seeds (x0, y0).

    The gap vanishes like the square root of the distance to an exceptional
    line, so each line search must run essentially to float resolution
    (0.618^80 of the bracket) to land on the zero set; shallow searches
    stall at gap levels orders of magnitude above the attainable floor.
    Coordinate sweeps catch valleys crossing either axis; a final search
    along the local gap gradient handles valleys nearly parallel to an
    axis.  ``x0`` and ``y0`` hold one seed per lane; returns the best point
    evaluated in each lane as two arrays.
    """

    def gap(u, v):
        return _min_gap(model, plane, u, v)

    x = np.array(x0, dtype=float).reshape(-1)
    y = np.array(y0, dtype=float).reshape(-1)
    best_g, best_x, best_y = gap(x, y), x, y
    bx, by = dx, dy
    for _ in range(3):
        x = _golden_min(lambda u: gap(u, y), x - bx, x + bx, iters)
        y = _golden_min(lambda v: gap(x, v), y - by, y + by, iters)
        g = gap(x, y)
        better = g < best_g
        best_g = np.where(better, g, best_g)
        best_x = np.where(better, x, best_x)
        best_y = np.where(better, y, best_y)
        bx *= 0.3
        by *= 0.3

    # Gradient-direction pass from the incumbent; the four difference probes
    # of all lanes share one evaluation.
    x, y = best_x, best_y
    hx, hy = 1e-6 * dx, 1e-6 * dy
    probes = gap(np.concatenate([x + hx, x - hx, x, x]),
                 np.concatenate([y, y, y + hy, y - hy])).reshape(4, -1)
    gx = (probes[0] - probes[1]) / (2 * hx)
    gy = (probes[2] - probes[3]) / (2 * hy)
    norm = np.array(list(map(math.hypot, gx * dx, gy * dy)))
    live = np.flatnonzero(norm > 0)
    if live.size:
        ux = gx[live] * dx * dx / norm[live]
        uy = gy[live] * dy * dy / norm[live]
        xl, yl = x[live], y[live]
        t = _golden_min(
            lambda s: gap(xl + s * ux, yl + s * uy),
            np.full(live.size, -1.0), np.full(live.size, 1.0), iters,
        )
        cx, cy = xl + t * ux, yl + t * uy
        better = gap(cx, cy) < best_g[live]
        best_x[live] = np.where(better, cx, xl)
        best_y[live] = np.where(better, cy, yl)
    return best_x, best_y


def _closest_pair(model: ModelSpec, plane: PlaneSpec, x, y):
    """Decomposition at one point: (dec, ||L||_F, min pair gap, i, j)."""
    mats = model.matrix(**_cell_params(model, plane, x, y))
    dec = linalg.eig(mats)
    gmin, bi, bj = min(
        (abs(dec.eigenvalues[i] - dec.eigenvalues[j]), i, j)
        for i in range(dec.dim)
        for j in range(i + 1, dec.dim)
    )
    return dec, float(np.linalg.norm(mats)), gmin, bi, bj


def detect_ep(
    model_name: str,
    plane: PlaneSpec,
    cell_xy: tuple[float, float],
    cell_size: tuple[float, float],
    iters: int = 80,
    kind: str = "point",
):
    """Refine a grid neighborhood to an exceptional-point candidate.

    Returns None when the refined location does not satisfy the gap and
    coalescence criteria.  The order is the size of the eigenvalue cluster
    at the refined location, counted inside a window that widens with the
    cluster multiplicity (see below).  For order >= 3 the location is
    accurate to roughly the seeding cell: in double precision a triple root
    cannot be pinned tighter through the eigenvalue cluster alone.
    """
    model = get_model(model_name)
    return _detect_eps(model, plane, [cell_xy], cell_size, iters, kind)[0]


def _detect_eps(model, plane, seeds, cell_size, iters: int = 80, kind: str = "point"):
    """``detect_ep`` for many seeds at once, one lane per seed."""
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    xs, ys = refine_gap_minimum(
        model, plane, seeds[:, 0], seeds[:, 1], cell_size[0], cell_size[1], iters
    )
    found = [None] * len(seeds)  # [x, y, residual, order, eigenvalue]
    walkers = {}  # lane -> gap gate of its walked point
    for k, (x, y) in enumerate(zip(xs, ys)):
        dec, fro, gmin, bi, bj = _closest_pair(model, plane, x, y)
        gap_tol = GAP_TOL_FACTOR * (1.0 + fro)
        if gmin >= gap_tol or linalg.coalescence_measure(dec, bi, bj) <= OVERLAP_MIN:
            continue
        order, value, near_miss = _estimate_order(dec.eigenvalues, bi, bj)
        found[k] = [x, y, gmin, order, value]
        if order >= 3 or near_miss:
            # At an order-3 point the attainable pair gap is cube-root
            # limited, so a walked point is gated on eps^(1/3) rather than
            # the pair tolerance.
            eps3 = float(np.finfo(float).eps) ** (1 / 3)
            walkers[k] = max(gap_tol, 50.0 * (1.0 + fro) * eps3)

    # The landing point of the gap search sits somewhere on the line; when
    # a third eigenvalue is nearby (a higher-order endpoint), walk along the
    # line to the cluster-spread minimum to pin the point itself.
    if walkers:
        lanes = list(walkers)
        wxs, wys = _spread_walk(model, plane, xs[lanes], ys[lanes], cell_size, 3)
        for k, wx, wy in zip(lanes, wxs, wys):
            wdec, _, wmin, wi, wj = _closest_pair(model, plane, wx, wy)
            worder, wvalue, _ = _estimate_order(wdec.eigenvalues, wi, wj)
            if (
                worder >= max(found[k][3], 3)
                and wmin < walkers[k]
                and linalg.coalescence_measure(wdec, wi, wj) > OVERLAP_MIN
            ):
                found[k] = [wx, wy, wmin, worder, wvalue]

    return [
        None if f is None else EPCandidate(
            location=(float(f[0]), float(f[1])),
            order=int(f[3]),
            eigenvalue=complex(f[4]),
            residual=float(f[2]),
            kind=kind,
        )
        for f in found
    ]


# Ratio threshold for cluster membership: an eigenvalue joins the cluster
# when it sits at most this fraction of the distance to the next spectator
# eigenvalue.  Scale-free, so it works for generators of any norm.
ORDER_RATIO = 0.1
# Fallback absolute window when no spectator remains, in units of the
# spectral diameter; cube-root of eps reflects triple-root resolution.
ORDER_ABS = 50.0 * float(np.finfo(float).eps) ** (1.0 / 3.0)


def _estimate_order(values: np.ndarray, bi: int, bj: int):
    """Order of the coalescing cluster containing the pair (bi, bj).

    Membership is decided by a distance-ratio test against the next
    remaining eigenvalue, falling back to an absolute window (relative to
    the spectral diameter) when no spectator is left.  Returns
    (order, cluster mean, near_miss) where near_miss flags a third
    eigenvalue close enough that a higher-order point may be nearby.
    """
    n = values.size
    diam = max(
        (abs(values[i] - values[j]) for i in range(n) for j in range(i + 1, n)),
        default=0.0,
    )
    cluster = [bi, bj]
    near_miss = False
    while len(cluster) < n:
        mean = np.mean(values[cluster])
        rest = sorted(
            (abs(values[k] - mean), k) for k in range(n) if k not in cluster
        )
        d, k = rest[0]
        nxt = rest[1][0] if len(rest) > 1 else None
        if nxt is not None:
            if d <= ORDER_RATIO * nxt:
                cluster.append(k)
                continue
            near_miss = near_miss or (len(cluster) == 2 and d <= 3 * ORDER_RATIO * nxt)
        elif d <= ORDER_ABS * diam:
            cluster.append(k)
            continue
        break
    mean = complex(np.mean(values[cluster]))
    return len(cluster), mean, near_miss


def _cluster_spread(model, plane, x, y, order: int) -> np.ndarray:
    """Diameter of the tightest ``order``-sized eigenvalue cluster, per lane."""
    vals = linalg.eigvals_batch(model.matrix(**_cell_params(model, plane, x, y)))
    return _spread(vals, order)


def _spread(vals: np.ndarray, order: int) -> np.ndarray:
    """Tightest ``order``-cluster diameter of the eigenvalues on the last axis."""
    if vals.shape[-1] < order:
        return np.full(vals.shape[:-1], np.inf)
    dists = np.sort(np.abs(vals[..., None, :] - vals[..., :, None]), axis=-1)
    return dists[..., order - 1].min(axis=-1)


def _spread_walk(model, plane, x, y, cell_size, order: int):
    """Slide along an exceptional line to the cluster-spread minimum.

    The pair gap vanishes identically on the line, so the endpoint of the
    line (where a further eigenvalue joins) is located by minimizing the
    ``order``-cluster diameter along the curve.  The curve is followed by a
    nested search: the outer golden section moves along one axis, the inner
    one re-projects onto the line along the other.  Both axis assignments
    are tried; whichever reaches the smaller spread wins (the line's local
    orientation is unknown, and the indicator gradient is pure noise on the
    line itself).  ``x`` and ``y`` hold one start per lane; each start walks
    in two lanes, along x and along y, searched together.
    """
    dx, dy = cell_size
    n = len(x)
    x, y = np.tile(x, 2), np.tile(y, 2)
    along_x = np.arange(2 * n) < n

    def point(u, w):
        """(x, y) from the coordinate along the walk and the one across it."""
        return np.where(along_x, u, w), np.where(along_x, w, u)

    def on_line(u):
        w = _golden_min(
            lambda w: _min_gap(model, plane, *point(u, w)),
            np.where(along_x, y - 2 * dy, x - 2 * dx),
            np.where(along_x, y + 2 * dy, x + 2 * dx),
            80,
        )
        return point(u, w)

    u_best = _golden_min(
        lambda u: _cluster_spread(model, plane, *on_line(u), order),
        np.where(along_x, x - 2 * dx, y - 2 * dy),
        np.where(along_x, x + 2 * dx, y + 2 * dy),
        36,
    )
    px, py = on_line(u_best)
    spread = _cluster_spread(model, plane, px, py, order)
    walks = list(zip(spread, px, py))
    best = [min(walks[k], walks[n + k]) for k in range(n)]
    return np.array([b[1] for b in best]), np.array([b[2] for b in best])


# -- exceptional lines -------------------------------------------------------


def _edge_zeros(model, plane, p0, p1, f0, iters=60):
    """Locate the coalescence on each segment p0[k]-p1[k], all at once.

    Bisection on the indicator sign narrows to the rounding-noise band of
    the gap product; a short golden-section polish of the gap itself then
    picks the attainable minimum inside that band.  ``p0`` and ``p1`` are
    (n, 2) endpoint arrays, ``f0`` the indicator at ``p0``.
    """
    n = len(p0)

    def at(t):
        return p0 + t[:, None] * (p1 - p0)

    def indicator(t):
        return evaluate_cells(model, plane, *at(t).T)[3]

    t0 = contour.bisect(indicator, np.zeros(n), np.ones(n), f0, iters)

    def gap(t):
        return _min_gap(model, plane, *at(t).T)

    # Near-tangent crossings leave a wide band where the indicator sign is
    # rounding noise, so the gap polish needs a generous bracket around the
    # bisection landing point.
    lo, hi = np.maximum(0.0, t0 - 0.02), np.minimum(1.0, t0 + 0.02)
    t_best = _golden_min(gap, lo, hi, 90)
    t0 = np.where(gap(t_best) < gap(t0), t_best, t0)
    return at(t0)


def _vertex_passes(model, plane, x, y):
    """Contract check at a refined vertex; also reports the 3-cluster spread."""
    dec, fro, gmin, bi, bj = _closest_pair(model, plane, x, y)
    ok = gmin < GAP_TOL_FACTOR * (1.0 + fro) and (
        linalg.coalescence_measure(dec, bi, bj) > OVERLAP_MIN
    )
    return ok, float(_spread(dec.eigenvalues, 3))


def trace_lines(emap: ExceptionalMap, refine: bool = True) -> ExceptionalMap:
    """Extract exceptional lines from the signed indicator field.

    Marching squares on the node grid produces segments per cell; segments
    sharing a grid edge are chained into polylines.  Every vertex is then
    refined by bisection along its grid edge, all edges in one batch, and
    kept only if it satisfies the gap + coalescence contract.  Open
    polyline endpoints are refined into higher-order candidates where a
    third eigenvalue joins the cluster, all seeds in one batch.
    """
    model = get_model(emap.model)
    plane = emap.plane
    xs, ys = emap.xs, emap.ys

    def locate(p0, p1, f0, f1):
        if refine:
            return _edge_zeros(model, plane, p0, p1, f0)
        t = np.clip(f0 / (f0 - f1), 0.0, 1.0)
        return p0 + t[:, None] * (p1 - p0)

    # Vertex validation: drop vertices that fail the coalescence contract,
    # splitting polylines where gaps appear.  The 3-cluster spread recorded
    # per surviving vertex, as a third column, seeds the higher-order point
    # search below.
    kept = []
    for line in contour.trace(xs, ys, emap.indicator, locate):
        run = []
        for pt in line:
            ok, s3 = _vertex_passes(model, plane, *pt) if refine else (True, np.inf)
            if ok:
                run.append((pt[0], pt[1], s3))
            else:
                if len(run) >= 2:
                    kept.append(np.array(run))
                run = []
        if len(run) >= 2:
            kept.append(np.array(run))
    kept = contour.arrange(kept)
    emap.lines = [line[:, :2] for line in kept]

    # Higher-order candidates: a line runs THROUGH a higher-order point
    # (the contour does not stop there), so seeds are local minima of the
    # 3-cluster spread along each line, plus open endpoints.
    cell = (xs[1] - xs[0], ys[1] - ys[0])
    seeds = []
    for line in kept:
        n, spread = len(line), line[:, 2]
        for k in range(n):
            if n >= 3 and spread[k] <= spread[max(0, k - 1) : k + 2].min():
                seeds.append(tuple(line[k, :2]))
        for end in (line[0], line[-1]):
            seeds.append(tuple(end[:2]))

    # All seeds are refined together; the de-duplication then runs in seed
    # order, exactly as if each seed were refined after the previous one.
    cands = _detect_eps(model, plane, seeds, cell) if seeds else []
    points = []
    seen = []

    def near_seen(xy):
        return any(
            math.hypot(xy[0] - p[0], xy[1] - p[1]) < 2.0 * max(cell) for p in seen
        )

    for seed, cand in zip(seeds, cands):
        if near_seen(seed):
            continue
        if cand is not None and cand.order >= 3 and not near_seen(cand.location):
            points.append(cand)
            seen.append(cand.location)
    points.sort(key=lambda c: c.location)
    emap.points = points
    return emap
