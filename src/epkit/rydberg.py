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

# The state is recorded at the times k T / RECORD_GRID of a loop.
RECORD_GRID = 1024

# Error tolerance of the mean-field loop, relative and absolute alike: at
# 3e-9 the fig5 final populations sit within 9e-11 of their 1e-9 reference;
# 3e-8 misses it.
RTOL = 3e-9

# Attempted steps per direction of a mean-field loop (fig5: ~5k) unless run.steps caps them.
STEP_CAP = 10**6

RESIDUAL_TOL = 1e-10

# A direction "lands" on a steady branch when its final population sits
# within this distance of the branch.  Chiral transfer is an adiabatic
# phenomenon: the slow bundled demonstration loop lands at ~5e-6, a
# hundredfold faster loop misses every branch by ~4e-4, so 1e-4 separates
# the regimes with an order of magnitude to spare on either side.
LANDING_TOL = 1e-4

# Largest parameter magnitude: the cubic's discriminant has degree 8 in
# Omega, Delta, gamma and W, and stays finite at 1.2e38 but not at 1e39.
PARAM_MAX = 1e38


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
        # a subnormal gamma halves to zero, and rho21_for divides by gamma/2
        if np.any(self.gamma < np.finfo(float).tiny):
            raise ValueError("gamma must be positive and normal")
        if any(np.any(np.abs(v) > PARAM_MAX) for v in (self.Omega, self.Delta, self.gamma, self.W)):
            raise ValueError(f"|Omega|, |Delta|, gamma and |W| must be at most {PARAM_MAX:g}")


@dataclass(frozen=True)
class SteadyState:
    """One steady state; from ``steady_states_batch``, arrays of them with
    the parameters' broadcast shape plus a root axis of length 3 (ascending
    in n, empty slots nan and False).  ``stable``: every eigenvalue of the
    flow's Jacobian there has a negative real part."""

    n: float  # excited population rho22
    rho21: complex
    stable: bool


@dataclass(frozen=True)
class SteadyStateSet:
    roots: tuple  # of SteadyState, ascending in n

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
    lines: list = field(default_factory=list)  # (k, 2) arrays of (Omega, Delta)
    cusp: tuple | None = None


def bloch_rhs(rho22, rho21, p: RydbergParams):
    """Mean-field equations of motion; broadcasts over arrays.

    d rho22 / dt = -Omega Im rho21 - gamma rho22
    d rho21 / dt = i (Delta - W rho22) rho21 - gamma/2 rho21
                   + i Omega (rho22 - 1/2)
    """
    dn, dx, dy = _rhs(rho22, np.real(rho21), np.imag(rho21),
                      p.Omega, p.Delta, p.gamma, p.W, 0.5 * p.gamma)
    return dn, dx + 1j * dy


def _rhs(n, x, y, Omega, Delta, gamma, W, half_gamma):
    """``bloch_rhs`` on the real state (n, x, y), rho21 = x + i y.

    These are the IEEE operations that complex arithmetic performs on the
    complex form, so every nonzero component agrees with it bit for bit.
    """
    e = Delta - W * n
    return (
        -Omega * y - gamma * n,
        -e * y - half_gamma * x,
        (e * x - half_gamma * y) + Omega * (n - 0.5),
    )


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
    No run calls it: the stability labels and the integrator read
    ``_jacobian_entries``.  It is the stacked matrix for callers who want
    the Jacobian's eigenvalues.
    """
    entries = np.broadcast_arrays(*_jacobian_entries(
        n, np.real(rho21), np.imag(rho21), p.Omega, p.Delta, p.gamma, p.W))
    return np.stack(entries, axis=-1).reshape(entries[0].shape + (3, 3))


def _jacobian_entries(n, x, y, Omega, Delta, gamma, W):
    """``jacobian``'s entries, row by row, on the real state (n, x, y)."""
    e = Delta - W * n
    return (-gamma, 0.0, -Omega,
            W * y, -0.5 * gamma, -e,
            Omega - W * x, e, -0.5 * gamma)


def steady_states(p: RydbergParams) -> SteadyStateSet:
    """All physical steady states of a point of floats, ascending in n."""
    s = steady_states_batch(p)
    return SteadyStateSet(roots=tuple(
        SteadyState(float(s.n[k]), complex(s.rho21[k]), bool(s.stable[k]))
        for k in np.flatnonzero(np.isfinite(s.n))
    ))


def steady_states_batch(p: RydbergParams) -> SteadyState:
    """Steady states of every point of an array-valued parameter set.

    The cubic's roots are its companion matrices' eigenvalues (no branch
    mistakes of closed-form radicals near folds), one stacked eigensolve
    for all points.  Roots that miss stationarity by more than
    RESIDUAL_TOL get a Newton polish.  Stability is Routh-Hurwitz on the
    Jacobian's l^3 + a2 l^2 + a1 l + a0 (a2 = -tr J, a1 its principal 2x2
    minors summed, a0 = -det J): all roots have Re l < 0 iff a2 > 0, a0 > 0
    and a2 a1 > a0 (Gantmacher, The Theory of Matrices II, ch. XV).
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
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = _jacobian_entries(
        n, r21.real, r21.imag, q.Omega, q.Delta, q.gamma, q.W)
    m00, m01, m02 = j11 * j22 - j12 * j21, j10 * j22 - j12 * j20, j10 * j21 - j11 * j20
    a2, a0 = -(j00 + j11 + j22), -(j00 * m00 - j01 * m01 + j02 * m02)
    a1 = m00 + (j00 * j22 - j02 * j20) + (j00 * j11 - j01 * j10)

    def per_point(values, pad):
        out = np.full(padded.shape + values.shape[1:], pad, dtype=values.dtype)
        out[lane, slot] = values
        return out.reshape(shape + out.shape[1:])

    return SteadyState(
        n=per_point(n, np.nan),
        rho21=per_point(r21, np.nan),
        stable=per_point((a2 > 0.0) & (a0 > 0.0) & (a2 * a1 > a0), False),
    )


def _unit_interval_roots(coeffs):
    """Real roots in [0, 1] of cubics with descending coefficients (k, 4).

    Returns (k, 3), each row ascending and padded with inf.  A leading
    coefficient that is zero, or so small that the companion would overflow
    (its dropped roots lie beyond 1e100), lowers the degree; each degree
    has its own eigensolve, in real arithmetic.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratios = coeffs[:, None, :] / coeffs[:, :3, None]  # c_j / c_i
    later = np.triu(np.ones((3, 4), dtype=bool), k=1)  # j > i
    usable = (np.isfinite(ratios) | ~later).all(axis=-1)
    degree = np.where(usable.any(axis=-1), 3 - usable.argmax(axis=-1), 0)
    values = np.zeros((len(coeffs), 3), dtype=complex)
    found = np.zeros((len(coeffs), 3), dtype=bool)
    for deg in sorted(set(degree.tolist()) - {0}):
        rows = np.flatnonzero(degree == deg)
        cs = coeffs[rows, 3 - deg :]
        companion = np.zeros((len(rows), deg, deg))
        companion[:, 1:, :-1] = np.eye(deg - 1)
        companion[:, 0, :] = -cs[:, 1:] / cs[:, :1]
        linalg._require_finite(companion)
        values[rows, :deg] = linalg.eigvals_batch(companion)
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

    Python floats in give a Python float out, so ``discriminant`` of a
    scalar point runs on plain-float arithmetic.
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
    """The cusp on the plane, where the steady-state cubic has a triple root.

    A triple root sits at n0 = -b/(3a) = 2 Delta/(3W).  It needs
    b^2 = 3ac, that is Omega^2 = 2 Delta^2/3 - gamma^2/2, and d = -a n0^3,
    which leaves (32/(27W)) Delta^3 - (2/3) Delta^2 + gamma^2/2 = 0.  In
    v = Delta/W that is v^3 - (9/16) v^2 + (27/64) (gamma/W)^2 = 0, solved
    by the eigenvalues of its companion matrix.  Omega^2 >= 0 needs a root
    v > 0, which exists only when |W| >= 4 gamma.  At gamma = 1, W = -11
    there are two cusps, (Omega, Delta) = (4.898, -6.061) and
    (0.299, -0.940).  Returns the one on the plane (the one at larger Omega
    if both are), or None when |W| < 4 gamma (W = 0 included) or when no
    cusp lies on the plane.
    """
    if not 4.0 * gamma <= abs(W):
        return None
    companion = np.array([[[9.0 / 16.0, 0.0, -27.0 / 64.0 * (gamma / W) ** 2],
                           [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    v = linalg.eigvals_batch(companion)[0]
    # a real root comes back real, a double root (two cusps merging, at
    # |W| = 4 gamma) as a conjugate pair with |Im| ~ sqrt(eps)
    deltas = W * v.real[np.abs(v.imag) <= 1e-7 * np.abs(v)]
    om2 = 2.0 * deltas * deltas / 3.0 - 0.5 * gamma * gamma
    omegas = np.sqrt(np.maximum(om2, 0.0))
    on_plane = ((om2 >= 0.0) & (plane.x.lo <= omegas) & (omegas <= plane.x.hi)
                & (plane.y.lo <= deltas) & (deltas <= plane.y.hi))
    cusps = sorted(zip(omegas[on_plane].tolist(), deltas[on_plane].tolist()))
    return cusps[-1] if cusps else None


# -- time integration -------------------------------------------------------------


def integrate_bloch(p: RydbergParams, rho22_0, rho21_0, T: float, steps: int,
                    path: EncirclePath, rtol: float = RTOL):
    """Error-controlled RODAS4 steps on the mean-field equations, on floats.

    RODAS4 (six stages, order 4, L-stable and stiffly accurate) suits the
    stiff damped oscillation that a slow loop follows.  A step passes when
    its embedded third-order error estimate is within rtol (1 + |value|) in
    each of rho22, Re rho21 and Im rho21; the next is this one times
    0.9 err^(-1/4), within [1/5, 5].  Steps land on the times
    k T / RECORD_GRID (a step cut short to land keeps the proposal it cut),
    which are returned with (rho22, rho21) there and the steps attempted.
    ``steps`` caps the attempts; past it, or when a step falls below the
    rounding of t, StepTooCoarse.  ``path`` drives (Omega(t), Delta(t)), a
    zero-radius one holds them, and ``p`` supplies gamma and W.
    """
    cos, sin, gamma, W = math.cos, math.sin, float(p.gamma), float(p.W)
    # the drive: the path's start turned about its centre
    (cx, cy), turn = path.center, path.omega if path.direction == "ccw" else -path.omega
    u0, v0 = (float(c) - o for c, o in zip(path.point(0.0), path.center))
    n, x, y, half_g = float(rho22_0), complex(rho21_0).real, complex(rho21_0).imag, 0.5 * gamma
    times = T * (np.arange(RECORD_GRID + 1) / RECORD_GRID)
    records, t, h, attempts = [(n, x, y)], 0.0, float(times[1]), 0
    # RODAS4 (Hairer and Wanner, rodas.f, METH = 1) in transformed form: stage i solves
    # (I / (g hs) - J) k_i = f(t + al_i hs, y + sum a_ij k_j) + sum c_ij k_j / hs + hs d_i df/dt.
    # Stages 5 and 6 sit at t + hs with d5 = d6 = 0: stage 6's point is stage 5's plus k5,
    # the new state is stage 6's point plus k6, and k6 estimates the error
    g, al2, al3, al4, d1, d2, d3, d4 = 0.25, 0.386, 0.21, 0.63, 0.25, -0.1043, 0.1035, -0.0362
    a21, a31, a32, a41, a42, a43, a51, a52, a53, a54 = (
        1.544, 0.9466785280815826, 0.2557011698983284, 3.314825187068521, 2.896124015972201,
        0.9986419139977817, 1.221224509226641, 6.019134481288629, 12.53708332932087,
        -0.6878860361058950)
    c21, c31, c32, c41, c42, c43, c51, c52, c53, c54, c61, c62, c63, c64, c65 = (
        -5.6688, -2.430093356833875, -0.2063599157091915, -0.1073529058151375,
        -9.594562251023355, -20.47028614809616, 7.496443313967647, -10.24680431464352,
        -33.99990352819905, 11.70890893206160, 8.083246795921522, -7.981132988064893,
        -31.52159432874371, 16.31930543123136, -6.058818238834054)
    for t_rec in times[1:].tolist():
        while t < t_rec:
            co, si = cos(a := turn * t), sin(a)
            ru, rv = u0 * co - v0 * si, u0 * si + v0 * co
            om, de, om_t, de_t = cx + ru, cy + rv, -turn * rv, turn * ru
            fn, fx, fy = _rhs(n, x, y, om, de, gamma, W, half_g)
            j00, j01, j02, j10, j11, j12, j20, j21, j22 = _jacobian_entries(
                n, x, y, om, de, gamma, W)
            tn, tx, ty = -y * om_t, -y * de_t, x * de_t + (n - 0.5) * om_t  # df/dt
            while True:
                attempts += 1
                if attempts > steps:
                    raise StepTooCoarse(f"mean-field loop needs more than {steps} steps")
                if t + 0.1 * h == t:  # h, not a short step landing on a record
                    raise StepTooCoarse(f"mean-field step fell below the rounding of t = {t:.6g}")
                hs = min(h, t_rec - t)
                # (I / (g hs) - J)^-1 by its cofactors, nan when singular (failing the
                # error test); each stage applies it to its right-hand side (un, ux, uy)
                m00, m11, m22 = (q := 1.0 / (g * hs)) - j00, q - j11, q - j22
                c00, c01, c02 = m11 * m22 - j12 * j21, j12 * j20 + j10 * m22, j10 * j21 + m11 * j20
                s = 1.0 / det if (det := m00 * c00 - j01 * c01 - j02 * c02) else math.nan
                i00, i01, i02 = c00 * s, (j01 * m22 + j02 * j21) * s, (j01 * j12 + j02 * m11) * s
                i10, i11, i12 = c01 * s, (m00 * m22 - j02 * j20) * s, (m00 * j12 + j02 * j10) * s
                i20, i21, i22 = c02 * s, (m00 * j21 + j01 * j20) * s, (m00 * m11 - j01 * j10) * s
                hd = hs * d1
                un, ux, uy = fn + hd * tn, fx + hd * tx, fy + hd * ty
                k1n, k1x, k1y = (i00 * un + i01 * ux + i02 * uy, i10 * un + i11 * ux + i12 * uy,
                                 i20 * un + i21 * ux + i22 * uy)
                co, si = cos(a := turn * (t + al2 * hs)), sin(a)
                ru, rv = u0 * co - v0 * si, u0 * si + v0 * co
                gn, gx, gy = _rhs(n + a21 * k1n, x + a21 * k1x, y + a21 * k1y, cx + ru, cy + rv,
                                  gamma, W, half_g)
                u, hd = c21 / hs, hs * d2
                un, ux, uy = gn + u * k1n + hd * tn, gx + u * k1x + hd * tx, gy + u * k1y + hd * ty
                k2n, k2x, k2y = (i00 * un + i01 * ux + i02 * uy, i10 * un + i11 * ux + i12 * uy,
                                 i20 * un + i21 * ux + i22 * uy)
                co, si = cos(a := turn * (t + al3 * hs)), sin(a)
                ru, rv = u0 * co - v0 * si, u0 * si + v0 * co
                gn, gx, gy = _rhs(n + a31 * k1n + a32 * k2n, x + a31 * k1x + a32 * k2x,
                                  y + a31 * k1y + a32 * k2y, cx + ru, cy + rv, gamma, W, half_g)
                u, v, hd = c31 / hs, c32 / hs, hs * d3
                un, ux, uy = (gn + u * k1n + v * k2n + hd * tn, gx + u * k1x + v * k2x + hd * tx,
                              gy + u * k1y + v * k2y + hd * ty)
                k3n, k3x, k3y = (i00 * un + i01 * ux + i02 * uy, i10 * un + i11 * ux + i12 * uy,
                                 i20 * un + i21 * ux + i22 * uy)
                co, si = cos(a := turn * (t + al4 * hs)), sin(a)
                ru, rv = u0 * co - v0 * si, u0 * si + v0 * co
                gn, gx, gy = _rhs(n + a41 * k1n + a42 * k2n + a43 * k3n,
                                  x + a41 * k1x + a42 * k2x + a43 * k3x,
                                  y + a41 * k1y + a42 * k2y + a43 * k3y, cx + ru, cy + rv,
                                  gamma, W, half_g)
                u, v, w, hd = c41 / hs, c42 / hs, c43 / hs, hs * d4
                un = gn + u * k1n + v * k2n + w * k3n + hd * tn
                ux = gx + u * k1x + v * k2x + w * k3x + hd * tx
                uy = gy + u * k1y + v * k2y + w * k3y + hd * ty
                k4n, k4x, k4y = (i00 * un + i01 * ux + i02 * uy, i10 * un + i11 * ux + i12 * uy,
                                 i20 * un + i21 * ux + i22 * uy)
                co, si = cos(a := turn * (t + hs)), sin(a)
                ru, rv = u0 * co - v0 * si, u0 * si + v0 * co
                om, de = cx + ru, cy + rv  # stages 5 and 6
                pn = n + a51 * k1n + a52 * k2n + a53 * k3n + a54 * k4n
                px = x + a51 * k1x + a52 * k2x + a53 * k3x + a54 * k4x
                py = y + a51 * k1y + a52 * k2y + a53 * k3y + a54 * k4y
                gn, gx, gy = _rhs(pn, px, py, om, de, gamma, W, half_g)
                u, v, w, z = c51 / hs, c52 / hs, c53 / hs, c54 / hs
                un = gn + u * k1n + v * k2n + w * k3n + z * k4n
                ux = gx + u * k1x + v * k2x + w * k3x + z * k4x
                uy = gy + u * k1y + v * k2y + w * k3y + z * k4y
                k5n, k5x, k5y = (i00 * un + i01 * ux + i02 * uy, i10 * un + i11 * ux + i12 * uy,
                                 i20 * un + i21 * ux + i22 * uy)
                pn, px, py = pn + k5n, px + k5x, py + k5y
                gn, gx, gy = _rhs(pn, px, py, om, de, gamma, W, half_g)
                u, v, w, z, e = c61 / hs, c62 / hs, c63 / hs, c64 / hs, c65 / hs
                un = gn + u * k1n + v * k2n + w * k3n + z * k4n + e * k5n
                ux = gx + u * k1x + v * k2x + w * k3x + z * k4x + e * k5x
                uy = gy + u * k1y + v * k2y + w * k3y + z * k4y + e * k5y
                k6n, k6x, k6y = (i00 * un + i01 * ux + i02 * uy, i10 * un + i11 * ux + i12 * uy,
                                 i20 * un + i21 * ux + i22 * uy)
                nn, nx, ny = pn + k6n, px + k6x, py + k6y
                en = abs(k6n) / (1.0 + max(abs(n), abs(nn)))
                ex = abs(k6x) / (1.0 + max(abs(x), abs(nx)))
                ey = abs(k6y) / (1.0 + max(abs(y), abs(ny)))
                # max() may drop a nan, which compares false both ways
                err = math.nan if math.isnan(en + ex + ey) else max(en, ex, ey) / rtol
                grown = hs * min(5.0, max(0.2, 0.9 * max(err, 1e-4) ** -0.25))
                if err <= 1.0:
                    h = max(h, grown) if hs < h else grown
                    break
                h = grown  # a nan error shrinks it too
            t, n, x, y = (t_rec if hs == t_rec - t else t + hs), nn, nx, ny
        records.append((n, x, y))
    n, x, y = np.array(records).T
    return times, n, x + 1j * y, attempts


def resolve_root(path: EncirclePath, gamma: float, W: float, spec):
    """Start of a loop: the parameters at the path start, the steady states
    there and the index of the start root among their stable roots.

    ``spec`` is 'low', 'high' or an index into the stable roots at the path
    start, ascending in n.
    """
    om0, de0 = path.point(0.0)
    p0 = RydbergParams(Omega=float(om0), Delta=float(de0), gamma=gamma, W=W)
    states = steady_states(p0)
    stable = states.stable_roots
    if not stable:
        raise ValueError("no stable steady state at the path start")
    named = {"low": 0, "high": len(stable) - 1}
    return p0, states, pick_index(spec, named, len(stable), "root")


@dataclass(frozen=True)
class TransferVerdict:
    """Direction-resolved branch landings and the chirality verdict.

    landed_* is the index of the stable branch (in ascending-n order) the
    direction landed on within LANDING_TOL, or None when the final state
    missed every branch (fast, non-adiabatic driving).
    verdict is "chiral" when exactly one direction switched branch while
    the other returned; otherwise "none".  runs holds the judged run of
    each direction, keyed "ccw"/"cw": a ``dynamics.TrajectoryRecord`` of
    kind "meanfield" whose states are (rho22, rho21), with rho22 as its
    sheet_index, the steps its integration attempted (a check rerun
    included) and the check's drift.
    """

    landed_ccw: int | None
    landed_cw: int | None
    final_ccw: float
    final_cw: float
    initial_index: int
    verdict: str
    runs: dict = field(compare=False, repr=False)


def transfer_verdict(
    path: EncirclePath, start, steps: int, check_steps: bool = False
) -> TransferVerdict:
    """Chirality of the steady-state loop judged by clean branch landings.

    Both directions start from ``start``, the stable root at the path start
    that ``resolve_root`` resolves, and run one period of the path with at
    most ``steps`` attempts each (the CLI's default is STEP_CAP).  Under
    ``check_steps`` each direction runs again at RTOL / 16 with a cap of its
    own, four times ``steps``; a record that moves by more than 1e-6 raises
    StepTooCoarse.
    """
    # imported here: `validate` imports this module and needs no dynamics
    from .dynamics import TrajectoryRecord

    p0, states, idx0 = start
    stable = states.stable_roots
    root = (p0, stable[idx0].n, stable[idx0].rho21, path.period)
    # the check's own cap: at RTOL / 16 fig5 takes 3.6 times the attempts (ccw 4,512 -> 16,181)
    check_cap = 4 * steps

    runs, landings, finals = {}, {}, {}
    for direction in ("ccw", "cw"):
        loop = replace(path, direction=direction)
        times, n, r, attempts = integrate_bloch(*root, steps, path=loop, rtol=RTOL)
        drift = None
        if check_steps:
            try:
                _, n2, r2, more = integrate_bloch(*root, check_cap, path=loop, rtol=RTOL / 16)
            except StepTooCoarse as exc:
                raise StepTooCoarse(f"the check's rerun at RTOL / 16, capped at {check_cap} "
                                    f"steps, failed: {exc}") from exc
            attempts += more
            # every record, and written so that a nan fails too
            drift = float(np.max(np.abs(np.concatenate([n2 - n, r2 - r]))))
            if not drift <= 1e-6:
                raise StepTooCoarse(f"loop not converged: records moved {drift:.2g} at RTOL / 16")
        runs[direction] = TrajectoryRecord(
            times=times,
            states=np.stack([n.astype(complex), r], axis=1),
            norm=np.hypot(np.abs(n), np.abs(r)),
            log_norm=np.zeros(len(times)),
            kind="meanfield",
            sheet_index=n,  # the excited population stands in
            steps=attempts,
            drift=drift,
        )
        finals[direction] = nf = float(n[-1])
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


def path_fold_crossings(path: EncirclePath, gamma: float, W: float):
    """Times of one period where the discriminant changes sign, bisection-refined."""

    def disc_at(t):
        return _discriminant(*path.point(t), gamma, W)

    ts = np.linspace(0.0, path.period, 4097)
    disc = disc_at(ts)
    k = np.flatnonzero((disc[:-1] < 0) != (disc[1:] < 0))
    return contour.bisect(disc_at, ts[k], ts[k + 1], disc[k], 80).tolist()


def check_conditions(path: EncirclePath, start, crossings) -> TransferConditions:
    """Sufficient-condition test for direction-dependent branch transfer.

    It needs only the loop, its start (``resolve_root``), its fold
    crossings (``path_fold_crossings``) and the cubic, so it runs before
    any integration; a loop that crosses no fold line raises
    NoIntersections.
    (i) the start point must lie in the bistable (three-root) region;
    (ii) the two loop/fold crossings nearest to the start must sit on
    opposite sides of the cusp, that is on different fold branches.  On a
    fold the cubic is a (n - r)^2 (n - s), and 2 b^3 - 9 a b c + 27 a^2 d
    = 2 a^3 (r - s)^3 with a = W^2 > 0: its sign tells the branch where the
    upper two roots merge (r > s) from the one where the lower two do.
    """
    p0, states, _ = start
    in_bistable = len(states.roots) == 3 and discriminant(p0) > 0
    if not crossings:
        raise NoIntersections("path never crosses a fold line")

    # order crossings by distance from the start along the path (both ways
    # around the loop)
    T = path.period
    nearest = sorted(crossings, key=lambda t: min(t, T - t))[:2]
    a, b, c, d = _cubic(*path.point(np.array(nearest)), p0.gamma, p0.W)
    side = 2.0 * b**3 - 9.0 * a * b * c + 27.0 * a * a * d
    straddle = len(nearest) == 2 and side[0] * side[1] < 0
    return TransferConditions(
        initial_in_bistable=bool(in_bistable),
        nearest_crossings_straddle_cusp=bool(straddle),
    )
