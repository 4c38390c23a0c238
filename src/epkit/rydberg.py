"""Driven-dissipative mean-field two-level model with interaction shift.

The working variables are the excited population rho22 and the coherence
rho21.  The interaction enters as a density-dependent detuning
Delta - W * rho22 with W the collective shift (number of neighbours times
the pair interaction), which makes the steady-state equation a real cubic
in the population: the model supports one or three steady states, and the
boundary of the three-solution (bistable) region is a pair of fold lines
meeting at a cusp where all three merge.

Steady-state encircling: slowly modulating (Omega(t), Delta(t)) around a
closed loop drags the system along a stable branch; crossing a fold forces
a jump to the other branch.  Whether the final state switches therefore
depends on the traversal direction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import contour, linalg
from .errors import NoIntersections, StepTooCoarse
from .models import EncirclePath, pick_index
from .spectra import PlaneSpec

# Fixed-step integration: step <= STEP_FACTOR / gamma.
STEP_FACTOR = 0.05

RESIDUAL_TOL = 1e-10

# A direction "lands" on a steady branch when its final population sits
# within this distance of the branch.  Chiral transfer is an adiabatic
# phenomenon: the slow bundled demonstration loop lands at ~5e-6, a
# hundredfold faster loop misses every branch by ~4e-4, so 1e-4 separates
# the regimes with an order of magnitude to spare on either side.
LANDING_TOL = 1e-4


@dataclass(frozen=True)
class RydbergParams:
    """Rabi frequency, detuning, decay rate and collective shift W.

    Fields are floats, or arrays that broadcast together (one point each).
    """

    Omega: float
    Delta: float
    gamma: float
    W: float  # combined mean-field coupling (neighbour count x interaction)

    def __post_init__(self):
        for v in (self.Omega, self.Delta, self.gamma, self.W):
            if not np.isfinite(v).all():
                raise ValueError("RydbergParams requires finite values")
        if np.any(self.Omega < 0):
            raise ValueError("Omega must be non-negative")
        if np.any(self.gamma <= 0):
            raise ValueError("gamma must be positive")


@dataclass(frozen=True)
class SteadyState:
    """One steady state; from ``steady_states_batch``, arrays of them with
    the parameters' broadcast shape plus a root axis of length 3 (ascending
    in n, empty slots nan and False)."""

    n: float  # excited population rho22
    rho21: complex
    stable: bool
    jacobian_eigenvalues: np.ndarray
    marginal: bool = False


@dataclass
class SteadyStateSet:
    params: RydbergParams
    roots: list  # of SteadyState, ascending in n

    @property
    def stable_roots(self):
        return [r for r in self.roots if r.stable]


@dataclass(frozen=True)
class TransferConditions:
    initial_in_bistable: bool
    nearest_crossings_straddle_cusp: bool


@dataclass
class FoldMap:
    """Fold lines and cusp of the bistable region over an (Omega, Delta) plane."""

    plane: PlaneSpec
    gamma: float
    W: float
    discriminant: np.ndarray  # (n_Omega, n_Delta)
    lines: list = field(default_factory=list)  # (k, 2) arrays of (Omega, Delta)
    cusp: tuple | None = None


def bloch_rhs(rho22, rho21, p: RydbergParams):
    """Mean-field equations of motion; broadcasts over arrays.

    d rho22 / dt = -Omega Im rho21 - gamma rho22
    d rho21 / dt = i (Delta - W rho22) rho21 - gamma/2 rho21
                   + i Omega (rho22 - 1/2)
    """
    d22 = -p.Omega * np.imag(rho21) - p.gamma * rho22
    d21 = (
        1j * (p.Delta - p.W * rho22) * rho21
        - 0.5 * p.gamma * rho21
        + 1j * p.Omega * (rho22 - 0.5)
    )
    return d22, d21


def cubic_coefficients(p: RydbergParams):
    """Monic-ready coefficients (a, b, c, d) of the steady-state cubic.

    Eliminating rho21 from the stationarity conditions leaves
        W^2 n^3 - 2 Delta W n^2 + (Delta^2 + gamma^2/4 + Omega^2/2) n
        - Omega^2/4 = 0.
    """
    return _cubic(p.Omega, p.Delta, p.gamma, p.W)


def _cubic(Omega, Delta, gamma, W):
    """``cubic_coefficients`` from the raw values; broadcasts over arrays."""
    a = W * W
    b = -2.0 * Delta * W
    c = Delta * Delta + 0.25 * gamma * gamma + 0.5 * Omega * Omega
    d = -0.25 * Omega * Omega
    return a, b, c, d


def rho21_for(n, p: RydbergParams):
    """Coherence reconstructed from a stationary population."""
    delta_eff = p.Delta - p.W * n
    return 1j * p.Omega * (n - 0.5) / (0.5 * p.gamma - 1j * delta_eff)


def jacobian(n, rho21, p: RydbergParams) -> np.ndarray:
    """Linearization of the real 3-D flow (rho22, Re rho21, Im rho21).

    Broadcasts over array states and parameters; the matrix axes are last.
    """
    x, y = np.real(rho21), np.imag(rho21)
    delta_eff = p.Delta - p.W * n
    entries = np.broadcast_arrays(
        -p.gamma, 0.0, -p.Omega,
        p.W * y, -0.5 * p.gamma, -delta_eff,
        -p.W * x + p.Omega, delta_eff, -0.5 * p.gamma,
    )
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def steady_states(p: RydbergParams) -> SteadyStateSet:
    """All physical steady states with stability labels, ascending in n."""
    s = steady_states_batch(p)
    return SteadyStateSet(params=p, roots=[
        SteadyState(float(s.n[k]), complex(s.rho21[k]), bool(s.stable[k]),
                    s.jacobian_eigenvalues[k], bool(s.marginal[k]))
        for k in np.flatnonzero(np.isfinite(s.n))
    ])


def steady_states_batch(p: RydbergParams) -> SteadyState:
    """Steady states of every point of an array-valued parameter set.

    The cubic's roots are its companion matrices' eigenvalues (no branch
    mistakes of closed-form radicals near folds), one stacked eigensolve
    for all points.  Roots that miss stationarity by more than
    RESIDUAL_TOL get a Newton polish; one stacked eigensolve over all root
    Jacobians labels stability.
    """
    shape = np.broadcast(p.Omega, p.Delta, p.gamma, p.W).shape
    lanes = [np.broadcast_to(v, shape).ravel() for v in (p.Omega, p.Delta, p.gamma, p.W)]
    padded = _unit_interval_roots(np.stack(_cubic(*lanes), axis=-1))
    lane, slot = np.nonzero(padded < np.inf)
    q = RydbergParams(*(v[lane] for v in lanes))

    n = padded[lane, slot]
    d22, d21 = bloch_rhs(n, rho21_for(n, q), q)
    off = np.hypot(np.abs(d22), np.hypot(d21.real, d21.imag)) > RESIDUAL_TOL
    a, b, c, d = (v[off] for v in cubic_coefficients(q))
    x, live = n[off], np.ones(off.sum(), dtype=bool)
    for _ in range(50 if off.any() else 0):  # Newton; a root stops where f' = 0
        f = ((a * x + b) * x + c) * x + d
        df = (3 * a * x + 2 * b) * x + c
        live &= df != 0
        x = x - np.divide(f, df, out=np.zeros_like(x), where=live)
    padded[lane[off], slot[off]] = x
    padded.sort(axis=-1)  # polishing may reorder the roots of a point
    n = padded[lane, slot]
    r21 = rho21_for(n, q)
    jac_eigs = linalg.eig_batch(jacobian(n, r21, q))[0]
    max_re = jac_eigs.real.max(axis=-1)

    def per_point(values, pad):
        out = np.full(padded.shape + values.shape[1:], pad, dtype=values.dtype)
        out[lane, slot] = values
        return out.reshape(shape + out.shape[1:])

    return SteadyState(
        n=per_point(n, np.nan),
        rho21=per_point(r21, np.nan),
        stable=per_point(max_re < 0.0, False),
        jacobian_eigenvalues=per_point(jac_eigs, np.nan),
        marginal=per_point(np.abs(max_re) < 1e-9, False),
    )


def _unit_interval_roots(coeffs):
    """Real roots in [0, 1] of cubics with descending coefficients (k, 4).

    Returns (k, 3), each row ascending and padded with inf.  Zero leading
    coefficients lower the degree; each degree has its own eigensolve.
    """
    nonzero = coeffs[:, :3] != 0.0
    degree = np.where(nonzero.any(axis=-1), 3 - nonzero.argmax(axis=-1), 0)
    values = np.zeros((len(coeffs), 3), dtype=complex)
    found = np.zeros((len(coeffs), 3), dtype=bool)
    for deg in sorted(set(degree.tolist()) - {0}):
        rows = np.flatnonzero(degree == deg)
        cs = coeffs[rows, 3 - deg :]
        companion = np.zeros((len(rows), deg, deg), dtype=complex)
        companion[:, 1:, :-1] = np.eye(deg - 1)
        companion[:, 0, :] = -cs[:, 1:] / cs[:, :1]
        linalg._require_finite(companion)
        values[rows, :deg] = linalg.eig_batch(companion)[0]
        found[rows, :deg] = True
    x = values.real
    # Exactly on a fold the double root splits into a conjugate pair with
    # |Im| ~ sqrt(eps) from coefficient rounding; a 1e-10 cut would
    # silently drop the colliding pair there.
    found &= (np.abs(values.imag) < 1e-7) & (x >= -1e-9) & (x <= 1.0 + 1e-9)
    x = np.where(x < 0.0, 0.0, np.where(x > 1.0, 1.0, x))
    return np.sort(np.where(found, x, np.inf), axis=-1)


def discriminant(p: RydbergParams) -> float:
    """Cubic discriminant; positive inside the three-solution region."""
    return _discriminant(p.Omega, p.Delta, p.gamma, p.W)


def discriminant_grid(omegas, deltas, gamma, W):
    om = np.asarray(omegas)[:, None]
    de = np.asarray(deltas)[None, :]
    return _discriminant(om, de, gamma, W)


def _discriminant(Omega, Delta, gamma, W):
    """``discriminant`` from the raw values; broadcasts over arrays.

    Python floats in give a Python float out, so scalar callers (the cusp
    polish) run on plain-float arithmetic.
    """
    a, b, c, d = _cubic(Omega, Delta, gamma, W)
    return (
        18.0 * a * b * c * d
        - 4.0 * b**3 * d
        + b * b * c * c
        - 4.0 * a * c**3
        - 27.0 * a * a * d * d
    )


def root_count_grid(omegas, deltas, gamma, W) -> np.ndarray:
    p = RydbergParams(np.asarray(omegas)[:, None], np.asarray(deltas)[None, :], gamma, W)
    return np.isfinite(steady_states_batch(p).n).sum(axis=-1)


def bistability_map(plane: PlaneSpec, gamma: float, W: float) -> FoldMap:
    """Fold lines (discriminant zeros) and the cusp over an (Omega, Delta) plane.

    Every fold vertex is bisected on the discriminant sign along its grid
    edge, all edges in one batch.
    """
    omegas, deltas = plane.x.values(), plane.y.values()
    disc = discriminant_grid(omegas, deltas, gamma, W)

    locate = functools.partial(_fold_zeros, gamma, W)
    return FoldMap(
        plane=plane,
        gamma=gamma,
        W=W,
        discriminant=disc,
        lines=contour.arrange(contour.trace(omegas, deltas, disc, locate)),
        cusp=_locate_cusp(plane, gamma, W),
    )


def _fold_zeros(gamma, W, p0, p1, f0, f1):
    """Discriminant zero on each segment p0[k]-p1[k], all at once.

    ``p0`` and ``p1`` are (n, 2) (Omega, Delta) endpoint arrays, ``f0`` and
    ``f1`` the discriminant there.
    """

    def at(t):
        return p0 + t[:, None] * (p1 - p0)

    def disc_at(t):
        return _discriminant(*at(t).T, gamma, W)

    n = len(p0)
    return at(contour.bisect(disc_at, np.zeros(n), np.ones(n), f0, 90))


def _locate_cusp(plane: PlaneSpec, gamma: float, W: float):
    """Cusp = simultaneous double/triple root: disc = 0 and b^2 - 3ac = 0.

    A bisection on the width of the three-root window over Omega brackets
    the closing point, then a 2-D Newton polishes both conditions.
    """
    omegas = plane.x.values()
    deltas = plane.y.values()

    def window_width(om):
        disc_row = discriminant_grid([om], deltas, gamma, W)[0]
        pos = disc_row > 0
        if not pos.any():
            return 0.0
        return float(deltas[pos].max() - deltas[pos].min()) + 1e-12

    lo, hi = omegas[0], omegas[-1]
    if window_width(lo) == 0.0:
        lo, hi = hi, lo
    if window_width(lo) == 0.0:
        return None  # no bistable window anywhere on the plane
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if window_width(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    om0 = 0.5 * (lo + hi)
    disc_row = discriminant_grid([om0], deltas, gamma, W)[0]
    j = int(np.argmax(disc_row))
    de0 = float(deltas[j])

    def conditions(v):
        om, de = v
        p = RydbergParams(Omega=max(om, 1e-12), Delta=de, gamma=gamma, W=W)
        a, b, c, d = cubic_coefficients(p)
        return np.array([discriminant(p), b * b - 3.0 * a * c])

    v = np.array([om0, de0])
    for _ in range(80):
        f = conditions(v)
        jac = np.zeros((2, 2))
        for k in range(2):
            vp = v.copy()
            h = 1e-8 * max(1.0, abs(v[k]))
            vp[k] += h
            jac[:, k] = (conditions(vp) - f) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            break
        v = v + step
        if np.max(np.abs(step)) < 1e-14:
            break
    return float(v[0]), float(v[1])


# -- time integration -------------------------------------------------------------


def default_steps(p_gamma: float, T: float) -> int:
    return max(100, int(math.ceil(T * p_gamma / STEP_FACTOR)))


def integrate_bloch(
    p: RydbergParams,
    rho22_0,
    rho21_0,
    T: float,
    steps: int,
    path: EncirclePath | None = None,
    record: int = 1025,
):
    """Fixed-step RK4 on the mean-field equations, optionally path-driven.

    Returns (times, rho22, rho21) arrays at the recorded samples.  The
    state may be a scalar pair or arrays; each member of an array state
    (an ensemble) runs the scalar loop on its own and the records are
    stacked along the trailing axes.  When a path is given it modulates
    (Omega(t), Delta(t)).
    """
    h = T / steps
    rec_idx = np.unique(np.linspace(0, steps, min(record, steps + 1)).round().astype(int))
    times = rec_idx * h
    pos = {int(s): k for k, s in enumerate(rec_idx)}

    if path is not None:
        ts = np.arange(2 * steps + 1) * (0.5 * h)
        xs, ys = path.point(ts)
        om_all, de_all = np.asarray(xs, float), np.asarray(ys, float)
    else:
        om_all = de_all = None

    if np.ndim(rho22_0) == 0:
        return _integrate_scalar(
            p, float(rho22_0), complex(rho21_0), h, steps, om_all, de_all, times, pos
        )
    n0, r0 = np.broadcast_arrays(
        np.asarray(rho22_0, dtype=float), np.asarray(rho21_0, dtype=complex)
    )
    _, ns, rs = zip(*(
        _integrate_scalar(p, n, r, h, steps, om_all, de_all, times, pos)
        for n, r in zip(n0.ravel().tolist(), r0.ravel().tolist())
    ))
    shape = (len(times),) + n0.shape
    out_n, out_r = (np.stack(x, axis=-1).reshape(shape) for x in (ns, rs))
    return times, out_n, out_r


def _integrate_scalar(p, n, r, h, steps, om_all, de_all, times, pos):
    """Plain-float RK4 loop; ~10x faster than 0-d numpy arithmetic.

    The long steady-state encircling runs live here (millions of steps),
    so the inner loop avoids numpy scalars entirely.
    """
    gamma, W = p.gamma, p.W
    half_g = 0.5 * gamma
    om_list = om_all.tolist() if om_all is not None else None
    de_list = de_all.tolist() if de_all is not None else None
    out_n = np.empty(len(pos))
    out_r = np.empty(len(pos), dtype=complex)
    out_n[0], out_r[0] = n, r
    om = p.Omega
    de = p.Delta
    h6 = h / 6.0
    h2 = 0.5 * h

    def f(nn, rr, o, d):
        return (
            -o * rr.imag - gamma * nn,
            1j * (d - W * nn) * rr - half_g * rr + 1j * o * (nn - 0.5),
        )

    for k in range(steps):
        if om_list is None:
            o1 = o2 = o3 = om
            d1 = d2 = d3 = de
        else:
            kk = 2 * k
            o1, d1 = om_list[kk], de_list[kk]
            o2, d2 = om_list[kk + 1], de_list[kk + 1]
            o3, d3 = om_list[kk + 2], de_list[kk + 2]
        a1, b1 = f(n, r, o1, d1)
        a2, b2 = f(n + h2 * a1, r + h2 * b1, o2, d2)
        a3, b3 = f(n + h2 * a2, r + h2 * b2, o2, d2)
        a4, b4 = f(n + h * a3, r + h * b3, o3, d3)
        n = n + h6 * (a1 + 2 * a2 + 2 * a3 + a4)
        r = r + h6 * (b1 + 2 * b2 + 2 * b3 + b4)
        j = pos.get(k + 1)
        if j is not None:
            out_n[j], out_r[j] = n, r
    return times, out_n, out_r


def resolve_root(path: EncirclePath, gamma: float, W: float, spec):
    """Start parameters, stable roots there and the index of the start root.

    ``spec`` is 'low', 'high' or an index into the stable roots at the path
    start, ascending in n.
    """
    om0, de0 = path.point(0.0)
    p0 = RydbergParams(Omega=float(om0), Delta=float(de0), gamma=gamma, W=W)
    stable = steady_states(p0).stable_roots
    if not stable:
        raise ValueError("no stable steady state at the path start")
    named = {"low": 0, "high": len(stable) - 1}
    return p0, stable, pick_index(spec, named, len(stable), "root")


@dataclass
class EncircleResult:
    times: np.ndarray
    rho22: np.ndarray
    rho21: np.ndarray
    initial_root: SteadyState
    final_root: SteadyState
    switched: bool


def encircle_steady(
    path: EncirclePath,
    gamma: float,
    W: float,
    T: float,
    direction: str = "ccw",
    initial_root: str = "low",
    steps: int | None = None,
    check_steps: bool = False,
) -> EncircleResult:
    """Drive (Omega, Delta) around the loop starting from a stable root.

    The verdict ``switched`` is True when the final population is closest
    to the other stable branch at the returning parameter point.
    """
    path = replace(path, direction=direction, period=T)
    p0, stable, index = resolve_root(path, gamma, W, initial_root)
    start = stable[index]

    if steps is None:
        steps = default_steps(gamma, T)
    times, n, r = integrate_bloch(p0, start.n, start.rho21, T, steps, path=path)
    if check_steps:
        _, n2, _ = integrate_bloch(p0, start.n, start.rho21, T, 2 * steps, path=path)
        # written so that a diverged (nan) run fails the check too
        if not abs(float(n2[-1]) - float(n[-1])) <= 1e-6:
            raise StepTooCoarse("encircling run not converged in step doubling")
    if not (np.isfinite(n).all() and np.isfinite(r).all()):
        raise StepTooCoarse(f"encircling run diverged at {steps} steps")

    final_n = float(n[-1])
    nearest = min(stable, key=lambda s: abs(s.n - final_n))
    return EncircleResult(
        times=times,
        rho22=n,
        rho21=r,
        initial_root=start,
        final_root=nearest,
        switched=abs(nearest.n - start.n) > 1e-6,
    )


@dataclass(frozen=True)
class TransferVerdict:
    """Direction-resolved branch landings and the chirality verdict.

    landed_* is the index of the stable branch (in ascending-n order) the
    direction landed on within LANDING_TOL, or None when the final state
    missed every branch (fast, non-adiabatic driving).
    verdict is "chiral" when exactly one direction switched branch while
    the other returned; otherwise "none".  runs holds the judged run of
    each direction, keyed "ccw"/"cw".
    """

    landed_ccw: int | None
    landed_cw: int | None
    final_ccw: float
    final_cw: float
    initial_index: int
    verdict: str
    runs: dict = field(compare=False, repr=False)


def transfer_verdict(
    path: EncirclePath,
    gamma: float,
    W: float,
    T: float,
    initial_root: str = "low",
    steps: int | None = None,
    check_steps: bool = False,
) -> TransferVerdict:
    """Chirality of the steady-state loop judged by clean branch landings."""
    _, stable, idx0 = resolve_root(path, gamma, W, initial_root)

    runs = {}
    landings = {}
    finals = {}
    for direction in ("ccw", "cw"):
        res = runs[direction] = encircle_steady(
            path, gamma, W, T, direction, initial_root, steps, check_steps
        )
        nf = float(res.rho22[-1])
        finals[direction] = nf
        near = [k for k, s in enumerate(stable) if abs(nf - s.n) < LANDING_TOL]
        landings[direction] = near[-1] if near else None

    a, b = landings["ccw"], landings["cw"]
    chiral = a is not None and b is not None and ((a == idx0) != (b == idx0))
    return TransferVerdict(
        landed_ccw=a,
        landed_cw=b,
        final_ccw=finals["ccw"],
        final_cw=finals["cw"],
        initial_index=idx0,
        verdict="chiral" if chiral else "none",
        runs=runs,
    )


# -- transfer conditions ------------------------------------------------------------


def path_fold_crossings(path: EncirclePath, gamma: float, W: float, samples=4096):
    """Loop times where the discriminant changes sign, bisection-refined."""

    def disc_at(t):
        return _discriminant(*path.point(t), gamma, W)

    ts = np.linspace(0.0, path.period, samples + 1)
    disc = disc_at(ts)
    k = np.flatnonzero((disc[:-1] < 0) != (disc[1:] < 0))
    return contour.bisect(disc_at, ts[k], ts[k + 1], disc[k], 80).tolist()


def check_conditions(
    path: EncirclePath,
    fmap: FoldMap,
    initial_root: str = "low",
) -> TransferConditions:
    """Sufficient-condition test for direction-dependent branch transfer.

    (i) the start point must lie in the bistable (three-root) region;
    (ii) the two loop/fold crossings nearest to the start must sit on
    opposite sides of the cusp along the fold locus, measured by the
    signed arc-length coordinate of the nearest fold vertex.
    """
    gamma, W = fmap.gamma, fmap.W
    om0, de0 = path.point(0.0)
    p0 = RydbergParams(Omega=float(om0), Delta=float(de0), gamma=gamma, W=W)
    in_bistable = len(steady_states(p0).roots) == 3 and discriminant(p0) > 0

    crossings = path_fold_crossings(path, gamma, W)
    if not crossings:
        raise NoIntersections("path never crosses a fold line")
    if fmap.cusp is None:
        raise NoIntersections("no cusp located on the fold map")

    # order crossings by distance from the start along the path (both ways
    # around the loop)
    T = path.period
    def loop_distance(t):
        return min(t, T - t)

    ordered = sorted(crossings, key=loop_distance)
    nearest = ordered[:2]
    sides = [_fold_side(path.point(t), fmap) for t in nearest]
    straddle = len(nearest) == 2 and sides[0] * sides[1] < 0
    return TransferConditions(
        initial_in_bistable=bool(in_bistable),
        nearest_crossings_straddle_cusp=bool(straddle),
    )


def _fold_side(xy, fmap: FoldMap) -> float:
    """Signed arc-length coordinate (relative to the cusp) of the nearest
    fold vertex; the sign distinguishes the two fold branches."""
    cx, cy = fmap.cusp
    best = (np.inf, 0.0)
    # scale coordinates by the plane spans so the nearest-vertex metric is
    # not dominated by one axis
    sx = fmap.plane.x.hi - fmap.plane.x.lo
    sy = fmap.plane.y.hi - fmap.plane.y.lo
    for line in fmap.lines:
        d2 = ((line[:, 0] - xy[0]) / sx) ** 2 + ((line[:, 1] - xy[1]) / sy) ** 2
        k = int(np.argmin(d2))
        if d2[k] < best[0]:
            # signed coordinate: arc length from the vertex nearest the cusp
            dc = ((line[:, 0] - cx) / sx) ** 2 + ((line[:, 1] - cy) / sy) ** 2
            kc = int(np.argmin(dc))
            seg = np.hypot(
                np.diff(line[:, 0]) / sx, np.diff(line[:, 1]) / sy
            )
            arc = np.concatenate([[0.0], np.cumsum(seg)])
            best = (d2[k], arc[k] - arc[kc])
    return best[1]
