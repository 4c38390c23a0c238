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
    kind: str = "point"  # the only kind


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
    # refinement diagnostics for the run manifest, not part of the map
    counters: dict = field(default_factory=dict)


def _cell_params(model: ModelSpec, plane: PlaneSpec, x, y) -> dict:
    values = dict(resolve_params(model, plane.fixed))
    xy = resolve_params(model, {plane.x.name: x, plane.y.name: y})
    values.update(xy)
    return values


def evaluate_cells(model: ModelSpec, plane: PlaneSpec, x, y):
    """Spectra and summaries for broadcastable coordinate arrays."""
    mats = model.matrix(**_cell_params(model, plane, x, y))
    vals, vecs = linalg.eig_batch(mats)
    gram = np.abs(np.einsum("...ij,...ik->...jk", vecs.conj(), vecs))
    gram[..., np.eye(model.dim, dtype=bool)] = 0.0
    max_overlap = gram.max(axis=(-2, -1))
    return vals, _spread(vals, 2), max_overlap, _indicator_of(vals)


def _eigvals(model: ModelSpec, plane: PlaneSpec, x, y) -> np.ndarray:
    """Spectra alone, for the searches that need no eigenvectors."""
    return linalg.eigvals_batch(model.matrix(**_cell_params(model, plane, x, y)))


def _spread(vals: np.ndarray, order: int) -> np.ndarray:
    """Tightest ``order``-cluster diameter of the eigenvalues on the last axis;
    order 2 gives the smallest pairwise gap."""
    if vals.shape[-1] < order:
        return np.full(vals.shape[:-1], np.inf)
    dists = np.sort(np.abs(vals[..., None, :] - vals[..., :, None]), axis=-1)
    return dists[..., order - 1].min(axis=-1)


def _indicator_of(vals: np.ndarray) -> np.ndarray:
    """Real part of the product of all squared pairwise eigenvalue gaps."""
    d = vals.shape[-1]
    prod = np.ones(vals.shape[:-1], dtype=complex)
    for i in range(d):
        for j in range(i + 1, d):
            prod = prod * (vals[..., i] - vals[..., j]) ** 2
    return prod.real


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
# Every search below runs on lanes: one lane per grid edge or per seed.
# All lanes of a search take the same number of steps, so one step is one
# batched eigensolve on the stacked lane points, and per-lane branches are
# np.where selections.  A lane does exactly the arithmetic of a lone search
# and LAPACK solves every stacked matrix on its own, so a lane's result does
# not depend on the other lanes of its batch.


def _min_gap(model: ModelSpec, plane: PlaneSpec, x, y) -> np.ndarray:
    return _spread(_eigvals(model, plane, x, y), 2)


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


def refine_gap_minimum(model: ModelSpec, plane: PlaneSpec, x0, y0, dx: float, dy: float):
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
        x = _golden_min(lambda u: gap(u, y), x - bx, x + bx, 80)
        y = _golden_min(lambda v: gap(x, v), y - by, y + by, 80)
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
            np.full(live.size, -1.0), np.full(live.size, 1.0), 80,
        )
        cx, cy = xl + t * ux, yl + t * uy
        better = gap(cx, cy) < best_g[live]
        best_x[live] = np.where(better, cx, xl)
        best_y[live] = np.where(better, cy, yl)
    return best_x, best_y


def _closest_pair(model: ModelSpec, plane: PlaneSpec, x, y):
    """Coalescence check at the lane points (x, y), one stacked decomposition.

    Returns, one row per lane: the eigenvalues, ||L||_F, the min pair gap,
    the pair (i, j) and the eigenvector overlap of that pair.
    """
    mats = model.matrix(**_cell_params(model, plane, x, y))
    dec = linalg.eig(mats)
    i, j = np.triu_indices(dec.dim, 1)
    diff = dec.eigenvalues[:, i] - dec.eigenvalues[:, j]
    gaps = np.hypot(diff.real, diff.imag)  # rounds like the scalar abs()
    k = np.argmin(gaps, axis=-1)  # ties: the first pair (i, j)
    bi, bj = i[k], j[k]
    return (dec.eigenvalues, np.linalg.norm(mats, axis=(-2, -1)), gaps.min(axis=-1),
            bi, bj, linalg.coalescence_measure(dec, bi, bj))


def _passes(check):
    """Per-lane (gap, overlap) verdicts of a ``_closest_pair`` check."""
    _, fro, gmin, _, _, overlap = check
    return gmin < GAP_TOL_FACTOR * (1.0 + fro), overlap > OVERLAP_MIN


def detect_ep(model_name: str, plane: PlaneSpec, cell_xy: tuple[float, float],
              cell_size: tuple[float, float]):
    """Refine a grid neighborhood to an exceptional-point candidate.

    Returns None when the refined location does not satisfy the gap and
    coalescence criteria.  The order is the size of the eigenvalue cluster
    at the refined location, counted inside a window that widens with the
    cluster multiplicity (see below).  An order >= 3 point is pinned as the
    triple root of the characteristic polynomial (``_pin_ep3``), to the
    float resolution of that solve; the eigenvalue cluster alone cannot
    locate it tighter than about the seeding cell.
    """
    model = get_model(model_name)
    cands, _ = _detect_eps(model, plane, [cell_xy], cell_size)
    return cands[0]


def _detect_eps(model, plane, seeds, cell_size):
    """``detect_ep`` for many seeds at once, one lane per seed: the gap
    search, then ``_confirm_eps`` at its landing points."""
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    xs, ys = refine_gap_minimum(model, plane, seeds[:, 0], seeds[:, 1], *cell_size)
    return _confirm_eps(model, plane, xs, ys, _closest_pair(model, plane, xs, ys),
                        cell_size)


def _confirm_eps(model, plane, xs, ys, check, cell_size):
    """Candidates at points whose ``_closest_pair`` check is done.

    ``check`` holds the rows of the check at the points (xs, ys).  A point
    that fails the gap or overlap gate gives None; the others give a
    candidate of the estimated order, and those with a third eigenvalue
    near are pinned by ``_pin_ep3``.  Returns the candidates, one per
    point, and the counters of the third-order solve: its Newton iterations
    and every rejected solve lane, at its starting point, with its reason.
    """
    vals, fro, gmin, bi, bj, _ = check
    gap_tol = GAP_TOL_FACTOR * (1.0 + fro)
    # At an order-3 point the attainable pair gap is cube-root limited, so a
    # solved point is gated on eps^(1/3) rather than the pair tolerance.
    eps3 = float(np.finfo(float).eps) ** (1 / 3)
    found = [None] * len(xs)  # [x, y, residual, order, eigenvalue]
    solves = {}  # lane -> (gap gate of its solved point, starting eigenvalue)
    for k in np.flatnonzero(np.logical_and(*_passes(check))):
        order, value, near_miss = _estimate_order(vals[k], bi[k], bj[k])
        found[k] = [xs[k], ys[k], gmin[k], order, value]
        if order >= 3 or near_miss:
            pair = 0.5 * (vals[k, bi[k]] + vals[k, bj[k]])
            solves[k] = (max(gap_tol[k], 50.0 * (1.0 + fro[k]) * eps3), pair)

    # The point sits somewhere on the line; when a third eigenvalue is
    # nearby (a higher-order endpoint), solve for the triple root from
    # there.  A rejected lane keeps its point.
    lanes = list(solves)
    wxs, wys, whys, steps = _pin_ep3(model, plane, xs[lanes], ys[lanes],
                                     [solves[k][1] for k in lanes], cell_size)
    solved = [n for n, why in enumerate(whys) if why is None]
    if solved:
        wvals, _, wmin, wi, wj, wover = _closest_pair(model, plane, wxs[solved], wys[solved])
    for m, n in enumerate(solved):
        k = lanes[n]
        worder, wvalue, _ = _estimate_order(wvals[m], wi[m], wj[m])
        if worder < max(found[k][3], 3):
            whys[n] = "order"
        elif wmin[m] >= solves[k][0]:
            whys[n] = "gap"
        elif wover[m] <= OVERLAP_MIN:
            whys[n] = "overlap"
        else:
            found[k] = [wxs[n], wys[n], wmin[m], worder, wvalue]
    rejects = [{"location": [float(xs[k]), float(ys[k])], "reason": why}
               for k, why in zip(lanes, whys) if why is not None]
    counters = {"refine.ep3_iterations": steps, "refine.ep3_rejects": rejects}

    cands = [
        None if f is None else EPCandidate(
            location=(float(f[0]), float(f[1])),
            order=int(f[3]),
            eigenvalue=complex(f[4]),
            residual=float(f[2]),
        )
        for f in found
    ]
    return cands, counters


# Newton solve for third-order points: the iteration cap, the step (in
# cells) at which a lane counts as converged and stops, the multiple of
# Horner's rounding bound within which p, p' and p'' count as converged
# too, the reach (in cells from its start) past which a lane is rejected,
# and the central-difference step of the coefficients (in cells).
EP3_ITERS = 40
EP3_STEP_TOL = 1e-10
EP3_ROUNDING = 2.0
EP3_REACH = 3.0
EP3_DIFF = 1e-3


def _poly_values(c: np.ndarray, lam: np.ndarray, count: int) -> list:
    """p, p', ... (``count`` values) at ``lam`` for the coefficients ``c``
    on the last axis, highest power first, by Horner's rule per lane."""
    out = []
    for _ in range(count):
        v = c[..., 0]
        for k in range(1, c.shape[-1]):
            v = v * lam + c[..., k]
        out.append(v)
        c = c[..., :-1] * np.arange(c.shape[-1] - 1, 0, -1)
    return out


def _pin_ep3(model, plane, x0, y0, lam0, cell_size):
    """Triple roots of the characteristic polynomial near each start.

    Solves p(lambda) = p'(lambda) = p''(lambda) = 0 in (lambda, x, y) by
    Newton's method (Mailybaev, Numer. Linear Algebra Appl. 13, 2006), one
    lane per start (x0, y0, lam0).  d/dlambda is exact from the polynomial;
    d/dx and d/dy are central differences of its coefficients.  Each step
    is the least-squares (Gauss-Newton) solution of the six real equations
    in the four real unknowns.  A lane stops once its step falls to
    EP3_STEP_TOL of a cell, or once p, p' and p'' all lie within the
    rounding error of their evaluation: Horner's rule on a degree-n
    polynomial errs by up to about n eps sum |c_k| |lambda|^k, and twice
    that (EP3_ROUNDING) allows for complex arithmetic.  Past that level every further step is
    rounding noise, which on a zoomed plane can exceed EP3_STEP_TOL of a
    cell.  The stopping test is per lane, so a lane does the arithmetic of
    a lone solve.

    Returns (x, y, reasons, iterations): ``reasons`` holds None for a
    converged lane, "out of reach" for one that converged more than
    EP3_REACH cells from its start and "no convergence" for the rest (a
    non-finite or capped iteration, or a failed least-squares solve).
    """
    cx, cy = cell_size
    x = np.array(x0, dtype=float)
    y = np.array(y0, dtype=float)
    lam = np.array(lam0, dtype=complex)
    live = np.ones(len(x), dtype=bool)
    solved = np.zeros(len(x), dtype=bool)
    hx, hy = EP3_DIFF * cx, EP3_DIFF * cy
    rounding = EP3_ROUNDING * model.dim * float(np.finfo(float).eps)
    iterations = 0
    with np.errstate(all="ignore"):
        while live.any() and iterations < EP3_ITERS:
            iterations += 1
            k = np.flatnonzero(live)
            xk, yk, lk = x[k], y[k], lam[k]
            mats = model.matrix(**_cell_params(
                model, plane,
                np.stack([xk, xk + hx, xk - hx, xk, xk]),
                np.stack([yk, yk, yk, yk + hy, yk - hy]),
            ))
            c = np.full(mats.shape[:-2] + (model.dim + 1,), np.nan, dtype=complex)
            finite = np.isfinite(mats).all(axis=(-2, -1))
            c[finite] = linalg.char_poly(mats[finite])
            p = _poly_values(c[0], lk, 4)
            dx = _poly_values((c[1] - c[2]) / (2 * hx), lk, 3)
            dy = _poly_values((c[3] - c[4]) / (2 * hy), lk, 3)
            dlam = np.stack(p[1:], axis=-1)
            # columns: Re lambda, Im lambda, x and y in cells
            jac = np.stack([dlam, 1j * dlam, cx * np.stack(dx, axis=-1),
                            cy * np.stack(dy, axis=-1)], axis=-1)
            jac = np.concatenate([jac.real, jac.imag], axis=-2)
            f = np.stack(p[:3], axis=-1)
            level = rounding * np.stack(_poly_values(np.abs(c[0]), np.abs(lk), 3), axis=-1)
            settled = (np.abs(f) <= level).all(axis=-1)
            rhs = np.concatenate([f.real, f.imag], axis=-1)
            ok = np.isfinite(jac).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=-1)
            step = np.zeros((len(k), 4))
            try:
                # Complex arithmetic on purpose: the eigenvector checks have
                # paged in LAPACK's complex SVD already, and a real pseudo-
                # inverse raised the fig4a peak RSS by ~0.1 MB (BENCH_13.json,
                # "pinv_rss").  The imaginary part is rounding noise.
                pinv = np.linalg.pinv(jac[ok].astype(complex)).real
                step[ok] = -(pinv @ rhs[ok, :, None])[..., 0]
            except np.linalg.LinAlgError:
                ok[:] = False
            lam[k] = lk + step[:, 0] + 1j * step[:, 1]
            x[k] = xk + cx * step[:, 2]
            y[k] = yk + cy * step[:, 3]
            moved = np.maximum(np.abs(step[:, 2]), np.abs(step[:, 3]))
            bad = ~(ok & np.isfinite(x[k]) & np.isfinite(y[k]) & np.isfinite(lam[k]))
            done = ~bad & ((moved <= EP3_STEP_TOL) | settled)
            solved[k[done]] = True
            live[k[bad | done]] = False
        near = np.maximum(np.abs(x - x0) / cx, np.abs(y - y0) / cy) <= EP3_REACH
    reasons = [None if s and n else "out of reach" if s else "no convergence"
               for s, n in zip(solved, near)]
    return x, y, reasons, iterations


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


# -- exceptional lines -------------------------------------------------------


def _edge_zeros(model, plane, p0, p1, f0):
    """Locate the coalescence on each segment p0[k]-p1[k], all at once.

    Bisection on the indicator sign (60 steps) narrows to the rounding-noise
    band of the gap product; a short golden-section polish of the gap itself
    then picks the attainable minimum inside that band.  ``p0`` and ``p1``
    are (n, 2) endpoint arrays, ``f0`` the indicator at ``p0``.
    """
    n = len(p0)

    def at(t):
        return p0 + t[:, None] * (p1 - p0)

    def indicator(t):
        return _indicator_of(_eigvals(model, plane, *at(t).T))

    t0 = contour.bisect(indicator, np.zeros(n), np.ones(n), f0, 60)

    def gap(t):
        return _min_gap(model, plane, *at(t).T)

    # Near-tangent crossings leave a wide band where the indicator sign is
    # rounding noise, so the gap polish needs a generous bracket around the
    # bisection landing point.
    lo, hi = np.maximum(0.0, t0 - 0.02), np.minimum(1.0, t0 + 0.02)
    t_best = _golden_min(gap, lo, hi, 90)
    t0 = np.where(gap(t_best) < gap(t0), t_best, t0)
    return at(t0)


def trace_lines(emap: ExceptionalMap) -> ExceptionalMap:
    """Extract exceptional lines from the signed indicator field.

    Marching squares on the node grid produces segments per cell; segments
    sharing a grid edge are chained into polylines.  Every vertex is then
    refined by bisection along its grid edge, all edges in one batch, and
    kept only if it satisfies the gap + coalescence contract, all vertices
    in one check.  Vertices where a third eigenvalue joins the cluster are
    pinned as higher-order candidates, all seeds in one batch.  The map's
    counters report the rejected vertices and the third-order solve.
    """
    model = get_model(emap.model)
    plane = emap.plane
    xs, ys = emap.xs, emap.ys

    def locate(p0, p1, f0, f1):
        return _edge_zeros(model, plane, p0, p1, f0)

    lines = contour.trace(xs, ys, emap.indicator, locate)
    emap.lines, emap.points, emap.counters = [], [], {}
    if not lines:
        return emap

    # Vertex validation: drop vertices that fail the coalescence contract,
    # splitting polylines where gaps appear.  Each surviving vertex carries
    # its row of the check, as a third column, to the point search below.
    verts = np.vstack(lines)
    check = _closest_pair(model, plane, verts[:, 0], verts[:, 1])
    gap_ok, overlap_ok = _passes(check)
    ok = gap_ok & overlap_ok
    kept = []
    for line in np.split(np.arange(len(verts)), np.cumsum([len(v) for v in lines])[:-1]):
        for run in np.split(line, np.flatnonzero(~ok[line])):
            run = run[ok[run]]  # each piece but the first starts at a failed vertex
            if len(run) >= 2:
                kept.append(np.column_stack([verts[run], run]))
    kept = contour.arrange(kept)
    emap.lines = [line[:, :2] for line in kept]

    # Higher-order candidates: a line runs THROUGH a higher-order point
    # (the contour does not stop there), so seeds are local minima of the
    # 3-cluster spread along each line, plus open endpoints.  A seed is a
    # row of the vertex check, so it goes to the order estimate and the
    # third-order solve as it is.
    spread3 = _spread(check[0], 3)
    seeds = []
    for line in kept:
        rows = line[:, 2].astype(int)
        n, spread = len(rows), spread3[rows]
        for k in range(n):
            if n >= 3 and spread[k] <= spread[max(0, k - 1) : k + 2].min():
                seeds.append(rows[k])
        seeds.extend((rows[0], rows[-1]))

    # All seeds are pinned together; the de-duplication then runs in seed
    # order, exactly as if each seed were pinned after the previous one.
    seeds = np.array(seeds, dtype=int)
    cell = (xs[1] - xs[0], ys[1] - ys[0])
    cands, counters = _confirm_eps(model, plane, verts[seeds, 0], verts[seeds, 1],
                                   tuple(a[seeds] for a in check), cell)
    emap.counters = {
        "refine.vertex_rejects": {"gap": int((~gap_ok).sum()),
                                  "overlap": int((gap_ok & ~overlap_ok).sum())},
        **counters,
    }
    seen = []

    def near_seen(xy):
        return any(
            math.hypot(xy[0] - p[0], xy[1] - p[1]) < 2.0 * max(cell) for p in seen
        )

    for seed, cand in zip(seeds, cands):
        if near_seen(verts[seed]):
            continue
        if cand is not None and cand.order >= 3 and not near_seen(cand.location):
            emap.points.append(cand)
            seen.append(cand.location)
    emap.points.sort(key=lambda c: c.location)
    return emap
