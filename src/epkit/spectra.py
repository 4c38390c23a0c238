"""Parameter-plane cartography of exceptional structures.

A scan evaluates a catalog model over a rectangular grid, eigendecomposes
every cell in bulk, and stores per-cell summaries: the full spectrum, the
minimal pairwise eigenvalue gap, the maximal pairwise right-eigenvector
overlap, and a signed coalescence indicator.  Every matrix of a map, in the
scan and in the refinement, comes from ``_matrices``: a Liouvillian in its
real Bloch form (``ModelSpec.bloch_matrix``), solved by LAPACK's real
solver.  The similarity keeps the eigenvalues and the characteristic
polynomial, and the unitary keeps the overlaps, so no vector returns to the
row-major basis.

The indicator is the real part of prod_{i<j} (lambda_i - lambda_j)^2, the
product of all squared eigenvalue gaps.  For generators that preserve
Hermiticity the spectrum is closed under conjugation, the product is real,
and it changes sign exactly where a conjugate pair collides on the real
axis, i.e. on a second-order exceptional line.  That sign change is what
makes marching-squares contouring robust; the raw gap field is
non-negative and would only graze zero.  One Newton solver (``_pin_ep``)
does all refinement: it pins line vertices along their grid edges and
``detect_ep`` seeds along both axes as double roots of the characteristic
polynomial, and third-order points as triple roots.  Eigenvector overlap is
used as a confirmation filter on refined points, never for contouring.

Threaded scans split the grid into fixed row blocks; results are written
into index-keyed arrays, so the output is byte-identical for any worker
count.  Each worker starts on the next usable CPU in turn, so the workers
spread over the cores even where the kernel does not balance load.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import contour, linalg
from .errors import ResolutionTooLarge
from .models import ModelSpec, get_model, resolve_params

MAX_CELLS = 10**7
# Fixed split, independent of the worker count (determinism): small blocks
# balance well across workers and keep the per-block batches cache-sized.
# Each block runs numpy calls that hold the GIL around the eigensolve that
# releases it; the real solver made that eigensolve ~2.5x shorter, so 4-row
# blocks left too large a serial share for threads to pay (Amdahl), and 8
# rows halve the held calls per cell.
CHUNK_ROWS = 8

# Refinement contract for reported candidates and line vertices: the pair
# gap at a refined point must fall below GAP_TOL_FACTOR * (1 + ||L||_F).
# The factor sits a few times above sqrt(machine eps): a quantity vanishing
# quadratically across a branch line cannot be resolved below ~sqrt(eps)
# times the matrix scale, and the measured floor on the detuned-generator
# lines is 1e-8 .. 4e-8 relative.
GAP_TOL_FACTOR = 5e-8
OVERLAP_MIN = 1.0 - 1e-5

# Largest |parameter| of a map, on its plane corners and its fixed values.
# The indicator multiplies the d(d-1)/2 squared eigenvalue gaps, a product
# of degree 12 in the parameters for a 4x4 generator: with every catalog
# parameter at +-1e25 it stays finite, at +-3e25 it overflows.  The bound
# keeps a factor of 10 in each gap, 1e12 in the product, below that.
MAP_PARAM_MAX = 1e24


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


def _matrices(model: ModelSpec, plane: PlaneSpec, x, y) -> np.ndarray:
    """The model's matrices at broadcastable coordinates: the real Bloch
    form of a Liouvillian, the complex matrix of a Hamiltonian."""
    return (model.bloch_matrix or model.matrix)(**_cell_params(model, plane, x, y))


def evaluate_cells(model: ModelSpec, plane: PlaneSpec, x, y):
    """Spectra and summaries for broadcastable coordinate arrays."""
    vals, vecs = linalg.eig_batch(_matrices(model, plane, x, y))
    gram = np.abs(np.einsum("...ij,...ik->...jk", vecs.conj(), vecs))
    gram[..., np.eye(model.dim, dtype=bool)] = 0.0
    max_overlap = gram.max(axis=(-2, -1))
    return vals, _spread(vals, 2), max_overlap, _indicator_of(vals)


def _eigvals(model: ModelSpec, plane: PlaneSpec, x, y) -> np.ndarray:
    """Spectra alone, for the searches that need no eigenvectors."""
    return linalg.eigvals_batch(_matrices(model, plane, x, y))


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
        cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        with ThreadPoolExecutor(max_workers=threads, initializer=_spread_worker,
                                initargs=(itertools.count(), cpus)) as pool:
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


def _spread_worker(counter, cpus) -> None:
    """Start a scan worker on the next usable CPU, round-robin, and free it.

    A new thread starts on the CPU of the thread that created it, and in a
    cpuset without load balancing (cpuset.sched_load_balance = 0) it stays
    there: every worker then shares one core.  Moving each worker once and
    then restoring the full mask spreads them there and leaves the kernel
    free to balance them wherever it does.  Placement is best effort.
    """
    if len(cpus) > 1:
        try:
            os.sched_setaffinity(0, {cpus[next(counter) % len(cpus)]})
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def quasi_steady_index(d: linalg.SpectralDecomposition) -> int:
    """Index of the eigenvalue with maximal real part (ties: smaller |Im|)."""
    vals = d.eigenvalues
    return min(range(d.dim), key=lambda i: (-vals[i].real, abs(vals[i].imag)))


# -- refinement ---------------------------------------------------------------
#
# Every search and solve below runs on lanes: one lane per grid edge or per
# seed.  All lanes of a search take the same number of steps, so one step is
# one batched eigensolve on the stacked lane points, and per-lane branches
# are np.where selections; a Newton solve stops each lane on its own test.
# A lane does exactly the arithmetic of a lone search and LAPACK solves
# every stacked matrix on its own, so a lane's result does not depend on
# the other lanes of its batch.


def _closest_pair(model: ModelSpec, plane: PlaneSpec, x, y):
    """Coalescence check at the lane points (x, y), one stacked eigensolve.

    Returns, one row per lane: the eigenvalues, ||L||_F, the min pair gap,
    the pair (i, j) and the overlap |<r_i|r_j>| of its unit right vectors.
    """
    mats = _matrices(model, plane, x, y)
    vals, vecs = linalg.eig_batch(mats)
    gap, i, j = _closest(vals)
    rows = np.arange(len(vals))
    dot = (vecs[rows, :, i].conj() * vecs[rows, :, j]).sum(axis=-1)
    return (vals, np.linalg.norm(mats, axis=(-2, -1)), gap, i, j,
            np.hypot(dot.real, dot.imag))


def _closest(vals: np.ndarray):
    """Gap of the closest eigenvalue pair in each row of ``vals``, and the
    pair (i, j), i < j; ties go to the first pair."""
    i, j = np.triu_indices(vals.shape[-1], 1)
    diff = vals[:, i] - vals[:, j]
    gaps = np.hypot(diff.real, diff.imag)  # rounds like the scalar abs()
    k = np.argmin(gaps, axis=-1)
    return gaps[np.arange(len(vals)), k], i[k], j[k]


def _pair_mean(vals: np.ndarray) -> np.ndarray:
    """Mean of the closest eigenvalue pair in each row of ``vals``: the
    starting eigenvalue of a double-root solve."""
    _, i, j = _closest(vals)
    rows = np.arange(len(vals))
    return 0.5 * (vals[rows, i] + vals[rows, j])


def _passes(check):
    """Per-lane (gap, overlap) verdicts of a ``_closest_pair`` check."""
    _, fro, gmin, _, _, overlap = check
    return gmin < GAP_TOL_FACTOR * (1.0 + fro), overlap > OVERLAP_MIN


def detect_ep(model_name: str, plane: PlaneSpec, cell_xy: tuple[float, float],
              cell_size: tuple[float, float]):
    """Refine a grid neighborhood to an exceptional-point candidate.

    The seed is solved for a double root of the characteristic polynomial
    along both axes (``_pin_ep``); the minimum-norm Newton steps land on the
    nearest point of the exceptional line.  A solve that fails or ends more
    than EP_REACH cells away leaves the seed where it is.  Where a third
    eigenvalue is near, that point is then solved for a triple root, and
    the candidate has the order of the cluster there when the solved point
    passes the order, gap and coalescence gates; otherwise it is order 2.
    Returns None when neither the point nor a solved one passes the gates.
    """
    model = get_model(model_name)
    cands, _ = _detect_eps(model, plane, [cell_xy], cell_size)
    return cands[0]


def _detect_eps(model, plane, seeds, cell_size):
    """``detect_ep`` for many seeds at once, one lane per seed: the
    double-root solve, then ``_confirm_eps`` at its points."""
    seeds = np.asarray(seeds, dtype=float).reshape(-1, 2)
    lam0 = _pair_mean(_eigvals(model, plane, seeds[:, 0], seeds[:, 1]))
    coords, converged, _ = _pin_ep(model, plane, 2, seeds, lam0, np.diag(cell_size))
    near = converged & (np.abs(coords).max(axis=-1) <= EP_REACH)
    xs, ys = np.where(near[:, None], seeds + coords * cell_size, seeds).T
    return _confirm_eps(model, plane, xs, ys, _closest_pair(model, plane, xs, ys),
                        cell_size)


def _confirm_eps(model, plane, xs, ys, check, cell_size):
    """Candidates at points whose ``_closest_pair`` check is done.

    ``check`` holds the rows of the check at the points (xs, ys).  A point
    that passes the gap and overlap gates gives an order-2 candidate.  A
    point with a third eigenvalue near, and one whose eigenvalues form an
    order >= 3 cluster whatever its gates say, is solved for a triple root
    by ``_pin_ep``; a solved point that passes the order, gap and overlap
    gates gives a candidate of its estimated order instead.  Returns the
    candidates, one per point (None for no candidate), and the counters of
    the third-order solve: its Newton iterations and every rejected solve
    lane, at its starting point, with its reason.
    """
    vals, fro, gmin, bi, bj, _ = check
    gap_tol = GAP_TOL_FACTOR * (1.0 + fro)
    passed = np.logical_and(*_passes(check))
    pairs = _pair_mean(vals)
    # At an order-3 point the attainable pair gap is cube-root limited, so a
    # solved point is gated on eps^(1/3) rather than the pair tolerance.
    eps3 = float(np.finfo(float).eps) ** (1 / 3)
    found = [None] * len(xs)  # [x, y, residual, order, eigenvalue]
    solves = {}  # lane -> (least order, gap gate) of its solved point
    for k in range(len(xs)):
        order, _, near_miss = _estimate_order(vals[k], bi[k], bj[k])
        if passed[k]:
            found[k] = [xs[k], ys[k], gmin[k], 2, pairs[k]]
        if order >= 3 or (passed[k] and near_miss):
            solves[k] = (max(order, 3), max(gap_tol[k], 50.0 * (1.0 + fro[k]) * eps3))

    # The point sits somewhere on the line; when a third eigenvalue is
    # nearby (a higher-order endpoint), solve for the triple root from
    # there.  A rejected lane keeps its point, as an order-2 candidate if
    # it passed the pair gates.
    lanes = list(solves)
    start = np.column_stack([xs[lanes], ys[lanes]])
    coords, converged, steps = _pin_ep(model, plane, 3, start,
                                       pairs[lanes], np.diag(cell_size))
    wxs, wys = (start + coords * cell_size).T
    near = np.abs(coords).max(axis=-1) <= EP_REACH
    whys = [None if s and r else "out of reach" if s else "no convergence"
            for s, r in zip(converged, near)]
    solved = [n for n, why in enumerate(whys) if why is None]
    if solved:
        wvals, _, wmin, wi, wj, wover = _closest_pair(model, plane, wxs[solved], wys[solved])
    for m, n in enumerate(solved):
        k = lanes[n]
        worder, wvalue, _ = _estimate_order(wvals[m], wi[m], wj[m])
        if worder < solves[k][0]:
            whys[n] = "order"
        elif wmin[m] >= solves[k][1]:
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


# Newton solve for exceptional points: the iteration cap, the step (in
# direction lengths) at which a lane stops, the multiple of Horner's
# rounding bound within which p, p', ... count as converged too, and the
# central-difference step (in direction lengths).  A solve that ends past
# EP_REACH cells from its start is not used.
EP_ITERS = 40
EP_STEP_TOL = 1e-10
EP_ROUNDING = 2.0
EP_DIFF = 1e-3
EP_REACH = 3.0


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


def _char_coeffs(model, plane, points) -> np.ndarray:
    """Characteristic polynomials at the (n, 2) ``points``; nan rows where
    the matrix is not finite."""
    mats = _matrices(model, plane, points[:, 0], points[:, 1])
    bad = ~np.isfinite(mats).all(axis=(-2, -1))
    mats[bad] = 0.0
    c = linalg.char_poly(mats)
    c[bad] = np.nan
    return c


def _pin_ep(model, plane, order, start, lam0, dirs):
    """Roots of multiplicity ``order`` of the characteristic polynomial.

    Solves p(lambda) = ... = p^(order-1)(lambda) = 0 by Newton's method
    (Mailybaev, Numer. Linear Algebra Appl. 13, 2006) in lambda, from
    ``lam0``, and in the coordinates c_j of the point start + sum_j c_j
    dirs_j, one lane per start (n, 2); ``dirs`` is (m, 2) or per lane
    (n, m, 2).  d/dlambda is exact, d/dc_j are central differences of the
    coefficients, and each step is the least-squares (Gauss-Newton) step of
    the real and imaginary parts.  A lane stops once its step falls to
    EP_STEP_TOL, or once p, ..., p^(order-1) lie within the rounding error
    of Horner's rule, n eps sum |c_k| |lambda|^k for degree n, times
    EP_ROUNDING for complex arithmetic: past it every step is rounding
    noise, which on a zoomed plane exceeds EP_STEP_TOL of a cell.  The
    test is per lane, so a lane does the arithmetic of a lone solve.

    Returns (coords, converged, iterations); a lane has not converged when
    its iteration went non-finite, hit EP_ITERS or its least-squares solve
    failed.
    """
    start = np.asarray(start, dtype=float)
    n = len(start)
    dirs = np.broadcast_to(np.asarray(dirs, dtype=float), (n,) + np.shape(dirs)[-2:])
    m = dirs.shape[1]
    coords = np.zeros((n, m))
    lam = np.array(lam0, dtype=complex)
    live = np.ones(n, dtype=bool)
    solved = np.zeros(n, dtype=bool)
    rounding = EP_ROUNDING * model.dim * float(np.finfo(float).eps)
    iterations = 0
    with np.errstate(all="ignore"):
        while live.any() and iterations < EP_ITERS:
            iterations += 1
            k = np.flatnonzero(live)
            lk, dk = lam[k], dirs[k]
            at = start[k] + (coords[k, :, None] * dk).sum(axis=1)
            c = _char_coeffs(model, plane, at)
            p = _poly_values(c, lk, order + 1)
            # Rows p, p', p'' and columns lambda, i lambda, c_1, c_2, unused
            # ones zero (which leaves the minimum-norm step as it is): one
            # 6 x 4 real shape, as LAPACK's SVD runs other code for others
            # (4 x 3 edge systems paged in 64 kB more of it on fig4a).
            jac = np.zeros((len(k), 3, 4), dtype=complex)
            f = np.zeros((len(k), 3), dtype=complex)
            f[:, :order] = np.stack(p[:order], axis=-1)
            jac[:, :order, 0] = np.stack(p[1:], axis=-1)
            jac[:, :, 1] = 1j * jac[:, :, 0]
            for j in range(m):
                h = EP_DIFF * dk[:, j]
                dc = (_char_coeffs(model, plane, at + h)
                      - _char_coeffs(model, plane, at - h)) / (2 * EP_DIFF)
                jac[:, :order, 2 + j] = np.stack(_poly_values(dc, lk, order), axis=-1)
            jac = np.concatenate([jac.real, jac.imag], axis=-2)
            level = rounding * np.stack(_poly_values(np.abs(c), np.abs(lk), order), axis=-1)
            settled = (np.abs(f[:, :order]) <= level).all(axis=-1)
            rhs = np.concatenate([f.real, f.imag], axis=-1)
            ok = np.isfinite(jac).all(axis=(-2, -1)) & np.isfinite(rhs).all(axis=-1)
            step = np.zeros((len(k), 4))
            try:
                pinv = np.linalg.pinv(jac[ok])
                step[ok] = -(pinv @ rhs[ok, :, None])[..., 0]
            except np.linalg.LinAlgError:
                ok[:] = False
            lam[k] = lk + step[:, 0] + 1j * step[:, 1]
            coords[k] += step[:, 2:2 + m]
            moved = np.abs(step[:, 2:2 + m]).max(axis=-1)
            bad = ~(ok & np.isfinite(coords[k]).all(axis=-1) & np.isfinite(lam[k]))
            done = ~bad & ((moved <= EP_STEP_TOL) | settled)
            solved[k[done]] = True
            live[k[bad | done]] = False
    return coords, solved, iterations


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

    A short bisection on the indicator sign narrows each edge to the
    crossing, whose closest eigenvalue pair starts ``_pin_ep`` for the
    double root along the edge.  The root is clipped to the edge (one on a
    grid node may solve just outside it); a lane that does not converge
    keeps its bisection point.  ``p0`` and ``p1`` are (n, 2) endpoint
    arrays, ``f0`` the indicator at ``p0``.  Returns the (n, 2) points and
    the Newton iterations.
    """
    n = len(p0)
    edge = p1 - p0

    def at(t):
        return p0 + t[:, None] * edge

    def indicator(t):
        return _indicator_of(_eigvals(model, plane, *at(t).T))

    # 12 halvings start the solve within 1/8192 of an edge of the crossing,
    # where the closest pair is the colliding one; from the edge midpoints,
    # two edges of the cold-atom test map solve for another pair.
    t0 = contour.bisect(indicator, np.zeros(n), np.ones(n), f0, 12)
    lam0 = _pair_mean(_eigvals(model, plane, *at(t0).T))
    coords, converged, steps = _pin_ep(model, plane, 2, at(t0), lam0, edge[:, None, :])
    t = np.where(converged, np.clip(t0 + coords[:, 0], 0.0, 1.0), t0)
    return at(t), steps


def trace_lines(emap: ExceptionalMap) -> ExceptionalMap:
    """Extract exceptional lines from the signed indicator field.

    Marching squares on the node grid produces segments per cell; segments
    sharing a grid edge are chained into polylines.  Every vertex is then
    solved for as a double root along its grid edge (``_edge_zeros``), all
    edges in one batch, and kept only if it satisfies the gap +
    coalescence contract, all vertices in one check.  Vertices where a
    third eigenvalue joins the cluster are pinned as higher-order
    candidates, all seeds in one batch.  The map's counters report the
    edge solve, the rejected vertices and the third-order solve.
    """
    model = get_model(emap.model)
    plane = emap.plane
    xs, ys = emap.xs, emap.ys

    edge_steps = []

    def locate(p0, p1, f0, f1):
        points, steps = _edge_zeros(model, plane, p0, p1, f0)
        edge_steps.append(steps)
        return points

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
        "refine.edge_iterations": edge_steps[0],
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
