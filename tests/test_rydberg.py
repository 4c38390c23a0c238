"""Mean-field steady states, folds, cusp, hysteresis and encircling."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from epkit import linalg, rydberg
from epkit.contour import _edge_endpoints, _segments
from epkit.errors import NoIntersections, StepTooCoarse
from epkit.models import EncirclePath
from epkit.rydberg import (
    RECORD_GRID,
    RESIDUAL_TOL,
    RTOL,
    STEP_CAP,
    RydbergParams,
    _cubic,
    _fold_zeros,
    bistability_map,
    bloch_rhs,
    check_conditions,
    cubic_coefficients,
    discriminant,
    discriminant_grid,
    integrate_bloch,
    jacobian,
    path_fold_crossings,
    resolve_root,
    rho21_for,
    root_count_grid,
    steady_states,
    steady_states_batch,
    transfer_verdict,
)
from epkit.spectra import AxisSpec, PlaneSpec

GAMMA, W = 1.0, -11.0


def demo_path(T=50000.0):
    return EncirclePath(
        center=(3.85, -5.6),
        radius=1.477,
        period=T,
        phase0=math.pi / 2 + math.atan(9 / 4),
        plane="Omega-Delta",
    )


def held(p, T):
    """The zero-radius path that holds p's (Omega, Delta) for a run of T."""
    return EncirclePath(center=(p.Omega, p.Delta), radius=0.0, period=T, plane="Omega-Delta")


def loop_verdict(path, steps=STEP_CAP, check_steps=False):
    """transfer_verdict from the low root at the path start."""
    return transfer_verdict(path, resolve_root(path, GAMMA, W, "low"), steps, check_steps)


def loop_conditions(path):
    """check_conditions at the path start and the loop's fold crossings."""
    start = resolve_root(path, GAMMA, W, "low")
    return check_conditions(path, start, path_fold_crossings(path, GAMMA, W))


@pytest.fixture(scope="module")
def fold_map():
    plane = PlaneSpec(
        x=AxisSpec("Omega", 1.2, 6.0, 121), y=AxisSpec("Delta", -9.0, -1.0, 121)
    )
    return bistability_map(plane, gamma=GAMMA, W=W)


# -- equations of motion ---------------------------------------------------------


def test_rhs_trivial_zero():
    p = RydbergParams(Omega=0.0, Delta=0.3, gamma=1.0, W=-5.0)
    d22, d21 = bloch_rhs(0.0, 0.0 + 0.0j, p)
    assert d22 == 0.0 and d21 == 0.0


def test_rhs_linear_limit_matches_two_level_value():
    # W = 0 removes the nonlinearity; the unique steady population has the
    # closed two-level form, cross-checked by long-time integration.
    p = RydbergParams(Omega=2.0, Delta=0.0, gamma=1.0, W=0.0)
    expected = (p.Omega**2 / 4) / (p.Delta**2 + p.gamma**2 / 4 + p.Omega**2 / 2)
    ss = steady_states(p)
    assert len(ss.roots) == 1
    assert abs(ss.roots[0].n - expected) < 1e-12
    _, ns, _, _ = integrate_bloch(p, 0.0, 0.0j, 60.0, STEP_CAP, path=held(p, 60.0))
    assert abs(float(ns[-1]) - expected) < 1e-10


def test_omega_zero_empty_state():
    p = RydbergParams(Omega=0.0, Delta=0.5, gamma=1.0, W=W)
    ss = steady_states(p)
    assert len(ss.roots) == 1
    assert abs(ss.roots[0].n) < 1e-12


def test_jacobian_matches_finite_differences():
    p = RydbergParams(Omega=1.7, Delta=-3.0, gamma=1.0, W=W)
    n0, r0 = 0.23, 0.11 - 0.07j
    jac = jacobian(n0, r0, p)
    h = 1e-7

    def flow(v):
        d22, d21 = bloch_rhs(v[0], v[1] + 1j * v[2], p)
        return np.array([d22, d21.real, d21.imag])

    v0 = np.array([n0, r0.real, r0.imag])
    for k in range(3):
        vp, vm = v0.copy(), v0.copy()
        vp[k] += h
        vm[k] -= h
        col = (flow(vp) - flow(vm)) / (2 * h)
        assert np.max(np.abs(col - jac[:, k])) < 1e-6


# -- steady states ----------------------------------------------------------------


def test_tiny_coupling_has_the_linear_limit_roots():
    # At W = 1e-160, W^2 is subnormal and c / W^2 overflows; at W = 5e-324,
    # W^2 is zero and c / b overflows.  Those leading coefficients drop out.
    want = steady_states(RydbergParams(2.0, -1.0, GAMMA, 0.0)).roots
    for w in (5e-324, 1e-160):
        got = steady_states(RydbergParams(2.0, -1.0, GAMMA, w)).roots
        assert [(s.n, s.stable) for s in got] == [(s.n, s.stable) for s in want]


def test_bistable_window_at_omega_two():
    deltas = np.linspace(-6.0, -3.0, 301)
    counts = [
        len(steady_states(RydbergParams(Omega=2.0, Delta=float(d), gamma=GAMMA, W=W)).roots)
        for d in deltas
    ]
    assert max(counts) == 3
    inside = [d for d, c in zip(deltas, counts) if c == 3]
    assert len(inside) > 10  # a genuine interval, not isolated points
    p = RydbergParams(Omega=2.0, Delta=float(np.mean(inside)), gamma=GAMMA, W=W)
    ss = steady_states(p)
    assert [s.stable for s in ss.roots] == [True, False, True]


def test_steady_state_residuals():
    rng = np.random.default_rng(11)
    for _ in range(40):
        p = RydbergParams(
            Omega=float(rng.uniform(0.3, 5.0)),
            Delta=float(rng.uniform(-8.0, 1.0)),
            gamma=GAMMA,
            W=W,
        )
        for s in steady_states(p).roots:
            d22, d21 = bloch_rhs(s.n, s.rho21, p)
            assert math.hypot(abs(d22), abs(d21)) <= 1e-10


def test_steady_states_continuous_away_from_folds():
    p = RydbergParams(Omega=2.0, Delta=-4.4, gamma=GAMMA, W=W)
    base = steady_states(p)
    for eps in (1e-6, -1e-6):
        q = RydbergParams(Omega=2.0, Delta=-4.4 + eps, gamma=GAMMA, W=W)
        moved = steady_states(q)
        assert len(moved.roots) == len(base.roots)
        for a, b in zip(base.roots, moved.roots):
            assert abs(a.n - b.n) < 1e-3


def test_fold_point_marginal_and_both_steady():
    # bisect the lower fold at Omega = 2 and verify the colliding pair
    lo, hi = -5.2, -4.8
    flo = discriminant(RydbergParams(Omega=2.0, Delta=lo, gamma=GAMMA, W=W))
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        fm = discriminant(RydbergParams(Omega=2.0, Delta=mid, gamma=GAMMA, W=W))
        if (flo < 0) != (fm < 0):
            hi = mid
        else:
            lo, flo = mid, fm
    p = RydbergParams(Omega=2.0, Delta=0.5 * (lo + hi), gamma=GAMMA, W=W)
    ss = steady_states(p)
    ns = [s.n for s in ss.roots]
    pairs = [(abs(a - b)) for i, a in enumerate(ns) for b in ns[i + 1 :]]
    assert min(pairs) < 1e-6  # two roots coincide at the fold
    for s in ss.roots:
        d22, d21 = bloch_rhs(s.n, s.rho21, p)
        assert math.hypot(abs(d22), abs(d21)) <= 1e-10  # both remain steady
    marginal = min(abs(_max_re(s.n, s.rho21, p)) for s in ss.roots)
    assert marginal < 1e-5


def _max_re(n, rho21, p):
    """Largest real part of the Jacobian's eigenvalues at each root."""
    return linalg.eigvals_batch(jacobian(n, rho21, p)).real.max(axis=-1)


def _reference_steady_states(p):
    """(n, stable, marginal) of each root, and how many roots were polished.

    One companion eigensolve per point, a Python-float Newton polish and one
    Jacobian eigensolve per root: the per-point algorithm the batched solver
    replaced, kept here as its reference.
    """
    cs = list(cubic_coefficients(p))
    while len(cs) > 1 and cs[0] == 0.0:
        cs = cs[1:]
    if len(cs) <= 1:
        return [], 0
    deg = len(cs) - 1
    companion = np.eye(deg, k=-1)
    companion[0, :] = [-c / cs[0] for c in cs[1:]]
    roots = sorted(
        min(max(float(r.real), 0.0), 1.0)
        for r in linalg.eig_batch(companion)[0]
        if abs(r.imag) < 1e-7 and -1e-9 <= float(r.real) <= 1.0 + 1e-9
    )
    out, polished = [], 0
    for n in roots:
        d22, d21 = bloch_rhs(n, rho21_for(n, p), p)
        if math.hypot(abs(d22), abs(d21)) > RESIDUAL_TOL:
            polished += 1
            a, b, c, d = (float(v) for v in cubic_coefficients(p))
            for _ in range(50):
                f = ((a * n + b) * n + c) * n + d
                df = (3 * a * n + 2 * b) * n + c
                if df == 0:
                    break
                n -= f / df
        max_re = float(linalg.eig_batch(jacobian(n, rho21_for(n, p), p))[0].real.max())
        out.append((n, max_re < 0.0, abs(max_re) < 1e-9))
    return sorted(out, key=lambda r: r[0]), polished


# (Omega axis, Delta axis, W).  "folds" crosses both fold lines and runs
# past the cusp; "linear" is the W = 0 limit; at W = -2e4 the companion
# roots of "polished" miss stationarity and take the Newton polish.
SOLVER_PLANES = {
    "folds": (np.linspace(1.2, 6.0, 25), np.linspace(-9.0, -1.0, 25), W),
    "linear": (np.linspace(0.0, 6.0, 25), np.linspace(-9.0, 1.0, 25), 0.0),
    "polished": (np.linspace(100.0, 400.0, 25), np.linspace(-15000.0, -5000.0, 25), -2e4),
}


@pytest.mark.parametrize("case", sorted(SOLVER_PLANES))
def test_batched_steady_states_equal_one_lane_calls(case):
    omegas, deltas, w = SOLVER_PLANES[case]
    grid = steady_states_batch(RydbergParams(omegas[:, None], deltas[None, :], GAMMA, w))
    counts = np.isfinite(grid.n).sum(axis=-1)
    assert set(counts.ravel().tolist()) == ({1} if w == 0.0 else {1, 3})
    for i, om in enumerate(omegas):
        for j, de in enumerate(deltas):
            roots = steady_states(RydbergParams(float(om), float(de), GAMMA, w)).roots
            assert len(roots) == counts[i, j]
            for k, s in enumerate(roots):
                assert s.n == grid.n[i, j, k] and s.rho21 == grid.rho21[i, j, k]
                assert s.stable == grid.stable[i, j, k]
            assert np.isnan(grid.n[i, j, len(roots):]).all()
            assert not grid.stable[i, j, len(roots):].any()


@pytest.mark.parametrize("case", sorted(SOLVER_PLANES))
def test_steady_states_match_per_point_reference(case):
    omegas, deltas, w = SOLVER_PLANES[case]
    grid = steady_states_batch(RydbergParams(omegas[:, None], deltas[None, :], GAMMA, w))
    polished = 0
    for i, om in enumerate(omegas):
        for j, de in enumerate(deltas):
            p = RydbergParams(float(om), float(de), GAMMA, w)
            ref, k = _reference_steady_states(p)
            polished += k
            live = np.isfinite(grid.n[i, j])
            n, rho21 = grid.n[i, j][live], grid.rho21[i, j][live]
            got = list(zip(n, grid.stable[i, j][live], np.abs(_max_re(n, rho21, p)) < 1e-9))
            assert got == ref
            assert np.isfinite(grid.n[i, j]).sum() == len(ref)
    assert (polished > 0) == (case == "polished")


def test_fold_point_matches_per_point_reference():
    lo, hi = -5.2, -4.8
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        below = discriminant(RydbergParams(2.0, lo, GAMMA, W)) < 0
        if below != (discriminant(RydbergParams(2.0, mid, GAMMA, W)) < 0):
            hi = mid
        else:
            lo = mid
    p = RydbergParams(2.0, 0.5 * (lo + hi), GAMMA, W)
    got = [(s.n, s.stable, abs(_max_re(s.n, s.rho21, p)) < 1e-9) for s in steady_states(p).roots]
    assert (got, 0) == _reference_steady_states(p)
    assert len(got) == 3 and any(marginal for _, _, marginal in got)


FIG5_AXES = (np.linspace(1.2, 6.0, 161), np.linspace(-9.0, -1.0, 161), W)


@pytest.mark.parametrize("case", sorted(SOLVER_PLANES) + ["fig5"])
def test_routh_hurwitz_stability_equals_the_eigenvalue_test(case):
    # stable iff every eigenvalue of the root's Jacobian has Re < 0, cell by cell
    omegas, deltas, w = FIG5_AXES if case == "fig5" else SOLVER_PLANES[case]
    grid = steady_states_batch(RydbergParams(omegas[:, None], deltas[None, :], GAMMA, w))
    live = np.isfinite(grid.n)
    roots_p = RydbergParams(*(np.broadcast_to(v, live.shape)[live] for v in (
        omegas[:, None, None], deltas[None, :, None], GAMMA, w)))
    want = np.zeros(live.shape, dtype=bool)
    want[live] = _max_re(grid.n[live], grid.rho21[live], roots_p) < 0.0
    assert np.array_equal(grid.stable, want)
    assert want.any()
    assert (live & ~want).any() == (case != "linear")  # unstable middle roots


def test_steady_states_eigensolve_only_companions():
    # Stability takes no eigensolve: the only stacks that reach eigvals_batch
    # are companion matrices, one call per cubic degree present (W = 0 lanes
    # leave a linear equation), and no 3x3 Jacobian stack
    omegas, deltas, _ = FIG5_AXES
    calls = []
    original = linalg.eigvals_batch

    def spy(mats):
        calls.append(np.array(mats))
        return original(mats)

    for ws, degrees in (([W], [3]), ([W, 0.0], [1, 3])):
        calls.clear()
        p = RydbergParams(omegas[:, None, None], deltas[None, :, None], GAMMA, np.array(ws))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "eigvals_batch", spy)
            steady_states_batch(p)
        assert [m.shape[-1] for m in calls] == degrees
        for m in calls:
            deg = m.shape[-1]
            assert np.array_equal(m[:, 1:], np.broadcast_to(np.eye(deg)[:-1], m[:, 1:].shape))
        assert sum(len(m) for m in calls) == p.W.size * omegas.size * deltas.size


# -- fold map ---------------------------------------------------------------------


def test_discriminant_sign_matches_root_count():
    omegas = np.linspace(1.2, 6.0, 80)
    deltas = np.linspace(-9.0, -1.0, 80)
    disc = discriminant_grid(omegas, deltas, GAMMA, W)
    counts = root_count_grid(omegas, deltas, GAMMA, W)
    # agreement away from a narrow band around the fold lines
    mask = np.abs(disc) > 1e-6 * np.abs(disc).max()
    assert np.array_equal(disc[mask] > 0, counts[mask] == 3)


def test_no_folds_in_linear_model():
    plane = PlaneSpec(
        x=AxisSpec("Omega", 0.5, 4.0, 41), y=AxisSpec("Delta", -4.0, 4.0, 41)
    )
    fmap = bistability_map(plane, gamma=GAMMA, W=0.0)
    assert fmap.lines == []
    assert fmap.cusp is None


def test_cusp_closes_the_window(fold_map):
    assert fold_map.cusp is not None
    om_c, de_c = fold_map.cusp
    deltas = np.linspace(-9.0, -1.0, 1200)
    below = discriminant_grid([om_c - 0.2], deltas, GAMMA, W)[0]
    above = discriminant_grid([om_c + 0.2], deltas, GAMMA, W)[0]
    assert (below > 0).any()  # window open below the cusp
    assert not (above > 0).any()  # closed above
    # cusp sits on the discriminant zero set
    assert abs(discriminant(RydbergParams(Omega=om_c, Delta=de_c, gamma=GAMMA, W=W))) < 1e-6


@pytest.mark.parametrize("gamma, W_, axes, cusp", [
    (GAMMA, W, ((1.2, 6.0), (-9.0, -1.0)), (4.8981588243, -6.0611830365)),
    (GAMMA, W, ((0.0, 6.0), (-9.0, 0.0)), (4.8981588243, -6.0611830365)),  # both: larger Omega
    (GAMMA, W, ((0.0, 1.0), (-2.0, 0.0)), (0.29936, -0.94044)),
    (GAMMA, 4.0, ((0.0, 2.0), (0.0, 2.0)), (1.0, 1.5)),  # |W| = 4 gamma: the two merge
    (4e-259, 1.0, ((0.0, 1.0), (0.0, 1.0)), (0.45928, 0.5625)),  # (gamma/W)^2 underflows
])
def test_cusp_is_a_triple_root(gamma, W_, axes, cusp):
    # The cusp is the closed-form triple root of the steady-state cubic, at
    # n0 = -b/(3a), and the one on the plane.
    (x0, x1), (y0, y1) = axes
    plane = PlaneSpec(x=AxisSpec("Omega", x0, x1, 5), y=AxisSpec("Delta", y0, y1, 5))
    got = rydberg._locate_cusp(plane, gamma, W_)
    assert math.dist(got, cusp) < 1e-5
    a, b, c, d = cubic_coefficients(RydbergParams(*got, gamma=gamma, W=W_))
    n0 = -b / (3.0 * a)
    # a double root of the cusp cubic (|W| = 4 gamma) is only sqrt(eps) exact
    tol = (1e-12 if W_ != 4.0 * gamma else 1e-7) * (1.0 + abs(c))
    assert abs(((a * n0 + b) * n0 + c) * n0 + d) <= tol
    assert abs((3.0 * a * n0 + 2.0 * b) * n0 + c) <= tol


@pytest.mark.parametrize("axes, W_", [
    (((1.2, 4.0), (-9.0, -1.0)), W),  # the cusp lies past the plane
    (((0.5, 4.0), (-4.0, 4.0)), 0.0),  # no interaction, no cusp
    (((0.5, 4.0), (-4.0, 4.0)), 3.9),  # |W| < 4 gamma: no cusp anywhere
    (((1.2, 6.0), (1.0, 9.0)), W),  # a cusp needs Delta / W > 0
])
def test_no_cusp_off_the_plane(axes, W_):
    (x0, x1), (y0, y1) = axes
    plane = PlaneSpec(x=AxisSpec("Omega", x0, x1, 5), y=AxisSpec("Delta", y0, y1, 5))
    assert rydberg._locate_cusp(plane, GAMMA, W_) is None


def test_fold_vertices_are_double_roots(fold_map):
    for line in fold_map.lines:
        for v in line[:: max(1, len(line) // 8)]:
            p = RydbergParams(Omega=float(v[0]), Delta=float(v[1]), gamma=GAMMA, W=W)
            ns = [s.n for s in steady_states(p).roots]
            if len(ns) < 2:
                continue
            gaps = [abs(a - b) for i, a in enumerate(ns) for b in ns[i + 1 :]]
            assert min(gaps) < 1e-5


def test_fold_edge_lanes_independent(fold_map):
    # All crossing edges bisected in one batch land on exactly the vertices
    # that each edge bisected alone (a batch of one) lands on.
    omegas, deltas = fold_map.plane.x.values(), fold_map.plane.y.values()
    disc = discriminant_grid(omegas, deltas, fold_map.gamma, fold_map.W)
    keys = sorted({k for seg in _segments(disc) for k in seg})
    p0, p1, f0, f1 = _edge_endpoints(omegas, deltas, disc, keys)
    batch = _fold_zeros(GAMMA, W, p0, p1, f0, f1)
    alone = np.vstack([
        _fold_zeros(GAMMA, W, *(a[k : k + 1] for a in (p0, p1, f0, f1)))
        for k in range(len(keys))
    ])
    assert len(keys) > 100
    assert np.array_equal(batch, alone)
    rows = {tuple(v) for v in alone}
    for line in fold_map.lines:
        assert all(tuple(v) in rows for v in line)


def test_fold_vertices_lie_on_grid_edges(fold_map):
    # A vertex is bisected along its grid edge, so one coordinate is exactly
    # a grid value, and the vertex stays inside the plane.
    omegas, deltas = fold_map.plane.x.values(), fold_map.plane.y.values()
    for line in fold_map.lines:
        for om, de in line:
            assert om in omegas or de in deltas
            assert omegas[0] <= om <= omegas[-1] and deltas[0] <= de <= deltas[-1]


# -- dynamics ----------------------------------------------------------------------


def _reference_integrate_bloch(p, rho22_0, rho21_0, T, steps, path=None, record=1025):
    """Fixed-step RK4 on the mean-field equations in complex arithmetic.

    The loop that ``integrate_bloch`` ran before its error-controlled
    Rosenbrock step, kept as the oracle: run at eight times the steps of
    its former default (1,024 ceil(T 6.5625 / 1,024) on the demonstration
    loop), its records are accurate to ~1e-8.
    """
    h = T / steps
    rec_idx = np.unique(np.linspace(0, steps, min(record, steps + 1)).round().astype(int))
    pos = {int(s): k for k, s in enumerate(rec_idx)}
    if path is not None:
        xs, ys = path.point(np.arange(2 * steps + 1) * (0.5 * h))
        om_list, de_list = np.asarray(xs, float).tolist(), np.asarray(ys, float).tolist()
    else:
        om_list = de_list = None
    gamma, W, half_g = p.gamma, p.W, 0.5 * p.gamma
    n, r = float(rho22_0), complex(rho21_0)
    out_n = np.empty(len(pos))
    out_r = np.empty(len(pos), dtype=complex)
    out_n[0], out_r[0] = n, r
    h6, h2 = h / 6.0, 0.5 * h

    def f(nn, rr, o, d):
        return (
            -o * rr.imag - gamma * nn,
            1j * (d - W * nn) * rr - half_g * rr + 1j * o * (nn - 0.5),
        )

    for k in range(steps):
        if om_list is None:
            o1 = o2 = o3 = p.Omega
            d1 = d2 = d3 = p.Delta
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
    return T * (rec_idx / steps), out_n, out_r



def _same_bits(a, b):
    return all(np.asarray(u).tobytes() == np.asarray(v).tobytes() for u, v in zip(a, b))


def _loop_start(T):
    path = demo_path(T)
    om0, de0 = path.point(0.0)
    p0 = RydbergParams(float(om0), float(de0), GAMMA, W)
    return p0, steady_states(p0).stable_roots[0]


def _shared_records(got, want):
    """The records of two runs at the times both of them record."""
    _, i, j = np.intersect1d(got[0], want[0], return_indices=True)
    return [np.asarray(a)[i] for a in got[1:3]], [np.asarray(a)[j] for a in want[1:3]]


@pytest.mark.parametrize("direction", ["ccw", "cw"])
def test_integrate_bloch_matches_complex_reference_on_a_loop(direction):
    # The fast and a slow demonstration loop, whose cw records cross a fold
    # jump: every record within 5e-8 of RK4 at eight times its former
    # default steps.
    for T, reference_steps in ((500.0, 8 * 4096), (5000.0, 8 * 33792)):
        path = replace(demo_path(T), direction=direction)
        p0, start = _loop_start(T)
        got = integrate_bloch(p0, start.n, start.rho21, T, STEP_CAP, path=path)
        want = _reference_integrate_bloch(p0, start.n, start.rho21, T, reference_steps, path=path)
        assert np.array_equal(got[0], want[0]) and len(got[0]) == RECORD_GRID + 1
        assert np.abs(got[1] - want[1]).max() <= 5e-8
        assert np.abs(got[2] - want[2]).max() <= 5e-8


def test_integrate_bloch_is_fourth_order():
    # rtol = inf accepts every step, so each record interval takes one step
    # of span / 1024.  From the empty state on the T = 100 loop, the state at
    # t = 25 over spans of 25, 50 and 100 (h doubling each time) is compared
    # with a run at rtol 1e-13: each halving of h cuts the error at least
    # 14 times (order >= 3.8).
    path = demo_path(100.0)
    p0, _ = _loop_start(100.0)
    ref = integrate_bloch(p0, 0.0, 0j, 25.0, STEP_CAP, path=path, rtol=1e-13)
    errors = []
    for span in (25.0, 50.0, 100.0):
        times, n, r, attempts = integrate_bloch(p0, 0.0, 0j, span, STEP_CAP, path=path,
                                                rtol=math.inf)
        k = round(RECORD_GRID * 25.0 / span)
        assert attempts == RECORD_GRID and times[k] == 25.0
        errors.append(max(abs(n[k] - ref[1][-1]), abs(r[k] - ref[2][-1])))
    assert errors[1] >= 14 * errors[0] and errors[2] >= 14 * errors[1]
    # a cap one below a run's attempts raises StepTooCoarse
    T = 500.0
    p0, start = _loop_start(T)
    for rtol in (RTOL, RTOL / 16):
        args = (p0, start.n, start.rho21, T)
        kw = dict(path=replace(demo_path(T), direction="cw"), rtol=rtol)
        cap = integrate_bloch(*args, STEP_CAP, **kw)[3] - 1
        with pytest.raises(StepTooCoarse, match=f"more than {cap} steps"):
            integrate_bloch(*args, cap, **kw)


def test_fig5_loop_attempts_stay_few():
    # The slow fig5 loop is stiff; a stepper that keeps its order there takes
    # at most 12,000 attempts over both directions (RODAS4: 9,871), where one
    # that suffers order reduction takes several times more (ROS4: 44,046).
    from epkit.cli import PRESETS

    plan = PRESETS["fig5"]().plan
    v = transfer_verdict(plan.path, plan.start, plan.steps)
    assert sum(run.steps for run in v.runs.values()) <= 12000


@pytest.mark.parametrize("T", [1.0, 100.0, 1000.0, 5000.0, 50000.0])
def test_default_steps_keep_h_rate_within_the_bound(T):
    # RK4 kept h rate <= 1 with T rate steps; the error-controlled step is
    # bound by its error and by the record grid instead.  Under the default
    # cap the demonstration loop, from T = 1 to fig5's 50,000, finishes in
    # both directions with at least one step per record, and every record
    # sits within 5e-8 of its check rerun at RTOL / 16.
    v = loop_verdict(demo_path(T), check_steps=True)
    for run in v.runs.values():
        assert np.array_equal(run.times, T * np.arange(RECORD_GRID + 1) / RECORD_GRID)
        assert 2 * RECORD_GRID <= run.steps < 2 * STEP_CAP
        assert run.drift <= 5e-8


def test_integrate_bloch_diverges_where_the_complex_reference_does():
    # Where RK4 diverges (3, 7 and 20 steps over T = 50), a cap of that
    # many steps raises StepTooCoarse instead of returning non-finite
    # records.  A non-finite state fails every error test, so a non-finite
    # start shrinks the step to the rounding of t and raises too.
    p = RydbergParams(2.0, -4.4, GAMMA, W)
    for steps in (3, 7, 20):
        _, n_ref, r_ref = _reference_integrate_bloch(p, 0.0, 0j, 50.0, steps)
        assert not (np.isfinite(n_ref[-1]) and np.isfinite(r_ref[-1]))
        with pytest.raises(StepTooCoarse, match=f"more than {steps} steps"):
            integrate_bloch(p, 0.0, 0j, 50.0, steps, path=held(p, 50.0))
    for n0, r0 in ((math.nan, 0j), (0.0, complex(math.inf, 0.0)), (math.inf, 0j)):
        with pytest.raises(StepTooCoarse, match="rounding of t = 0"):
            integrate_bloch(p, n0, r0, 50.0, STEP_CAP, path=held(p, 50.0))


def test_check_rerun_has_a_cap_of_its_own(monkeypatch):
    # Under check_steps each direction reruns at RTOL / 16 on four times the
    # run's cap; a rerun that fails says so and names its cap.
    calls, original = [], rydberg.integrate_bloch

    def spy(*args, **kwargs):
        calls.append((args[4], kwargs["rtol"]))
        return original(*args, **kwargs)

    monkeypatch.setattr(rydberg, "integrate_bloch", spy)
    loop_verdict(demo_path(100.0), steps=3000, check_steps=True)
    assert calls == [(3000, RTOL), (12000, RTOL / 16)] * 2

    def rerun_fails(*args, **kwargs):
        if kwargs["rtol"] < RTOL:
            raise StepTooCoarse(f"mean-field loop needs more than {args[4]} steps")
        return original(*args, **kwargs)

    monkeypatch.setattr(rydberg, "integrate_bloch", rerun_fails)
    with pytest.raises(StepTooCoarse, match=r"^the check's rerun at RTOL / 16, capped at 12000 "
                       r"steps, failed: mean-field loop needs more than 12000 steps$"):
        loop_verdict(demo_path(100.0), steps=3000, check_steps=True)


def test_default_run_records_on_the_fixed_grid():
    # every run records at exactly k T / 1024, its check rerun too, and
    # the records of the two agree to the check's gate
    T = 100.0
    res = loop_verdict(demo_path(T)).runs["cw"]
    assert np.array_equal(res.times, T * np.arange(RECORD_GRID + 1) / RECORD_GRID)
    p0, start = _loop_start(T)
    path = replace(demo_path(T), direction="cw")
    finer = integrate_bloch(p0, start.n, start.rho21, T, STEP_CAP, path=path, rtol=RTOL / 16)
    assert np.array_equal(finer[0], res.times)
    assert np.abs(finer[1] - res.sheet_index).max() <= 1e-6
    assert finer[3] > res.steps


def test_transfer_verdict_solves_the_start_once():
    # resolve_root's one solve at the path start gives the start root of
    # both directions, and nothing else along the loop is solved
    sizes = []
    original = rydberg.steady_states_batch

    def spy(p):
        sizes.append(np.broadcast(p.Omega, p.Delta).size)
        return original(p)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rydberg, "steady_states_batch", spy)
        loop_verdict(demo_path(100.0))
    assert sizes == [1]


def test_explicit_steps_bypass_the_rule():
    # run.steps replaces the default cap, STEP_CAP; a cap the run does not
    # reach changes no bit, and one it reaches raises StepTooCoarse
    default = loop_verdict(demo_path(100.0))
    with pytest.raises(StepTooCoarse, match="more than 1 steps"):
        loop_verdict(demo_path(100.0), steps=1)
    v = loop_verdict(demo_path(100.0), steps=10000)
    for d in ("ccw", "cw"):
        assert _same_bits(v.runs[d].states, default.runs[d].states)
        cap = v.runs[d].steps - 1
        p0, start = _loop_start(100.0)
        path = replace(demo_path(100.0), direction=d)
        with pytest.raises(StepTooCoarse, match=f"more than {cap} steps"):
            integrate_bloch(p0, start.n, start.rho21, 100.0, cap, path=path)


@pytest.mark.parametrize("steps", [1000, 2500])
def test_integrate_bloch_matches_complex_reference_from_zero_coherence(steps):
    # Constant drives from the empty state: the records shared with RK4 at
    # eight times ``steps`` agree to 5e-8, and at Omega = 0 the state stays
    # exactly empty.
    for p in (RydbergParams(2.0, -4.4, GAMMA, W), RydbergParams(0.0, 0.5, GAMMA, W)):
        got = integrate_bloch(p, 0.0, 0j, 50.0, STEP_CAP, path=held(p, 50.0))
        want = _reference_integrate_bloch(p, 0.0, 0j, 50.0, 8 * steps)
        (n, r), (n_ref, r_ref) = _shared_records(got, want)
        assert len(n) > 30
        assert np.abs(n - n_ref).max() <= 5e-8 and np.abs(r - r_ref).max() <= 5e-8
    assert not got[1].any() and not got[2].any()


def test_eigvals_batch_equals_eig_batch_values():
    # the fig5 plane's companions and root Jacobians, and random 4x4 stacks
    om, de = np.linspace(1.2, 6.0, 161), np.linspace(-9.0, -1.0, 161)
    p = RydbergParams(om[:, None], de[None, :], GAMMA, W)
    a, b, c, d = (np.broadcast_to(v, (161, 161)).ravel() for v in _cubic(*vars(p).values()))
    companion = np.zeros((a.size, 3, 3), dtype=complex)
    companion[:, 1:, :-1] = np.eye(2)
    companion[:, 0, :] = -np.stack([b, c, d], axis=-1) / a[:, None]
    s = steady_states_batch(p)
    live = np.isfinite(s.n)
    roots_p = RydbergParams(*(np.broadcast_to(v, live.shape)[live] for v in (
        om[:, None, None], de[None, :, None], GAMMA, W)))
    jacobians = jacobian(s.n[live], s.rho21[live], roots_p)
    rng = np.random.default_rng(5)
    random4 = rng.normal(size=(500, 4, 4)) + 1j * rng.normal(size=(500, 4, 4))
    for mats in (companion, jacobians, random4, random4.real):
        assert linalg.eigvals_batch(mats).tobytes() == linalg.eig_batch(mats)[0].tobytes()


def test_basin_of_attraction_never_hits_unstable_root():
    # 100 random physical starts, each a lone run
    rng = np.random.default_rng(3)
    n0 = rng.uniform(0, 1, 100)
    amp = np.sqrt(n0 * (1 - n0)) * np.sqrt(rng.uniform(0, 1, 100))
    r0 = amp * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    p = RydbergParams(Omega=2.0, Delta=-4.4, gamma=GAMMA, W=W)
    runs = [integrate_bloch(p, n, r, 200.0, STEP_CAP, path=held(p, 200.0)) for n, r in zip(n0, r0)]
    final = np.array([ns[-1] for _, ns, _, _ in runs])
    d22, d21 = bloch_rhs(final, np.array([rs[-1] for _, _, rs, _ in runs]), p)
    assert np.max(np.hypot(np.abs(d22), np.abs(d21))) <= 1e-6
    stable = [s.n for s in steady_states(p).roots if s.stable]
    unstable = [s.n for s in steady_states(p).roots if not s.stable]
    assert np.max(np.min(np.abs(final[:, None] - np.array(stable)[None, :]), axis=1)) < 1e-8
    assert np.min(np.abs(final[:, None] - np.array(unstable)[None, :])) > 1e-2


def test_hysteresis_loop_area():
    def sweep(de_values, n, r):
        outs = []
        for de in de_values:
            p = RydbergParams(Omega=2.0, Delta=float(de), gamma=GAMMA, W=W)
            _, ns, rs, _ = integrate_bloch(p, n, r, 30.0, STEP_CAP, path=held(p, 30.0))
            n, r = float(ns[-1]), complex(rs[-1])
            outs.append(n)
        return np.array(outs), n, r

    des = np.linspace(-8.0, -1.0, 71)
    p0 = RydbergParams(Omega=2.0, Delta=-8.0, gamma=GAMMA, W=W)
    s0 = steady_states(p0).roots[0]
    up, n1, r1 = sweep(des, s0.n, s0.rho21)
    down, _, _ = sweep(des[::-1], n1, r1)
    area = np.trapezoid(np.abs(up - down[::-1]), des)
    assert area > 0.1


def test_encircle_chirality_slow_loop():
    # moderate period keeps the test quick; landings are already clean here
    v = loop_verdict(demo_path(5000.0))
    assert v.verdict == "chiral"
    assert v.landed_ccw != v.landed_cw


def test_encircle_chirality_lost_when_fast():
    v = loop_verdict(demo_path(500.0))
    assert v.verdict == "none"
    assert v.landed_ccw is None and v.landed_cw is None


def test_transfer_verdict_keeps_the_judged_runs():
    # each run is the trajectory record of the loop integrated from the
    # start root, with the excited population as its sheet column and the
    # steps its integration attempted
    v = loop_verdict(demo_path(100.0), steps=10000)
    p0, start = _loop_start(100.0)
    for direction, final in (("ccw", v.final_ccw), ("cw", v.final_cw)):
        path = replace(demo_path(100.0), direction=direction)
        times, n, r, attempts = integrate_bloch(p0, start.n, start.rho21, 100.0, 10000, path=path)
        run = v.runs[direction]
        assert (run.kind, run.steps, run.drift) == ("meanfield", attempts, None)
        assert np.array_equal(run.times, times) and np.array_equal(run.sheet_index, n)
        assert np.array_equal(run.states, np.stack([n.astype(complex), r], axis=1))
        assert np.array_equal(run.norm, np.hypot(np.abs(n), np.abs(r)))
        assert not run.log_norm.any()
        assert run.sheet_index[-1] == final
    assert "runs" not in repr(v)


def test_encircle_outside_bistable_no_switch():
    path = EncirclePath(
        center=(1.0, -7.5), radius=0.3, period=3000.0, plane="Omega-Delta"
    )
    v = loop_verdict(path)
    assert v.landed_ccw == v.landed_cw == v.initial_index


# -- transfer conditions -------------------------------------------------------------


def test_conditions_for_demo_path():
    cond = loop_conditions(demo_path())
    assert cond.initial_in_bistable
    assert cond.nearest_crossings_straddle_cusp


@pytest.mark.parametrize("res", [41, 81, 121, 161, 241])
def test_conditions_do_not_depend_on_the_plane_resolution(res):
    # Near the cusp the bistable wedge is thinner than a grid cell, and
    # traced fold lines end short of it.  The conditions take no plane: a
    # loop whose two nearest crossings lie on different fold branches, one
    # of them in that region, straddles the cusp whatever plane is mapped,
    # and so does the demonstration loop.
    plane = PlaneSpec(
        x=AxisSpec("Omega", 1.2, 6.0, res), y=AxisSpec("Delta", -9.0, -1.0, res)
    )
    fmap = bistability_map(plane, gamma=GAMMA, W=W)
    near_cusp = EncirclePath(
        center=(4.0, -5.5), radius=0.7, period=100.0, phase0=0.0, plane="Omega-Delta"
    )
    for path in (near_cusp, demo_path()):
        T = path.period
        nearest = sorted(path_fold_crossings(path, GAMMA, W),
                         key=lambda t: min(t, T - t))[:2]
        # both crossings sit on the wedge side of the cusp this plane holds
        assert all(path.point(t)[0] < fmap.cusp[0] for t in nearest)
        assert loop_conditions(path).nearest_crossings_straddle_cusp


def test_conditions_match_the_merging_roots():
    # On a fold two of the three roots merge: the upper two on one branch,
    # the lower two on the other.  The nearest crossings straddle the cusp
    # exactly when they merge different pairs.
    checked = 0
    for cx, cy, r in itertools.product((4.0, 4.5, 5.0, 5.5), (-7.0, -6.4, -5.8, -5.2),
                                       (0.3, 0.7, 1.0)):
        path = EncirclePath(center=(cx, cy), radius=r, period=100.0, plane="Omega-Delta")
        ts = path_fold_crossings(path, GAMMA, W)
        if len(ts) < 2:
            continue
        upper = []
        for t in sorted(ts, key=lambda t: min(t, 100.0 - t))[:2]:
            n = np.sort(np.roots(_cubic(*path.point(t), GAMMA, W)).real)
            upper.append(n[2] - n[1] < n[1] - n[0])
        cond = loop_conditions(path)
        assert cond.nearest_crossings_straddle_cusp == (upper[0] != upper[1])
        checked += 1
    assert checked > 20


def test_conditions_outside_bistable():
    path = EncirclePath(
        center=(2.2, -4.38), radius=1.0, period=100.0, phase0=math.pi, plane="Omega-Delta"
    )
    # start point at (1.2, -4.38): single-root region, but the loop still
    # crosses the folds
    cond = loop_conditions(path)
    assert not cond.initial_in_bistable


def test_conditions_same_side_crossings():
    # a small loop that dips across one fold branch twice near its start,
    # far from the cusp: both nearest crossings on the same side
    path = EncirclePath(
        center=(2.0, -5.05), radius=0.15, period=100.0, phase0=-math.pi / 2,
        plane="Omega-Delta",
    )
    cond = loop_conditions(path)
    assert not cond.nearest_crossings_straddle_cusp


def test_conditions_no_intersections():
    path = EncirclePath(
        center=(1.3, -8.0), radius=0.1, period=100.0, plane="Omega-Delta"
    )
    with pytest.raises(NoIntersections):
        loop_conditions(path)
