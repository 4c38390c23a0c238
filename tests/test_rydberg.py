"""Mean-field steady states, folds, cusp, hysteresis and encircling."""

import math

import numpy as np
import pytest

from epkit import linalg
from epkit.contour import _edge_endpoints, _segments
from epkit.errors import NoIntersections
from epkit.models import EncirclePath
from epkit.rydberg import (
    RESIDUAL_TOL,
    RydbergParams,
    _fold_zeros,
    bistability_map,
    bloch_rhs,
    check_conditions,
    cubic_coefficients,
    discriminant,
    discriminant_grid,
    encircle_steady,
    integrate_bloch,
    jacobian,
    path_fold_crossings,
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
    _, ns, _ = integrate_bloch(p, 0.0, 0.0j, 60.0, 2400)
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
    marginal = min(abs(s.jacobian_eigenvalues.real.max()) for s in ss.roots)
    assert marginal < 1e-5


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
    companion = np.eye(deg, k=-1, dtype=complex)
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
                assert s.marginal == grid.marginal[i, j, k]
                assert np.array_equal(s.jacobian_eigenvalues, grid.jacobian_eigenvalues[i, j, k])
            assert np.isnan(grid.n[i, j, len(roots):]).all()
            assert not grid.stable[i, j, len(roots):].any()


@pytest.mark.parametrize("case", sorted(SOLVER_PLANES))
def test_steady_states_match_per_point_reference(case):
    omegas, deltas, w = SOLVER_PLANES[case]
    grid = steady_states_batch(RydbergParams(omegas[:, None], deltas[None, :], GAMMA, w))
    polished = 0
    for i, om in enumerate(omegas):
        for j, de in enumerate(deltas):
            ref, k = _reference_steady_states(RydbergParams(float(om), float(de), GAMMA, w))
            polished += k
            got = list(zip(grid.n[i, j], grid.stable[i, j], grid.marginal[i, j]))
            assert got[: len(ref)] == ref
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
    got = [(s.n, s.stable, s.marginal) for s in steady_states(p).roots]
    assert (got, 0) == _reference_steady_states(p)
    assert len(got) == 3 and any(marginal for _, _, marginal in got)


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
    disc = fold_map.discriminant
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


def test_basin_of_attraction_never_hits_unstable_root():
    rng = np.random.default_rng(3)
    n0 = rng.uniform(0, 1, 100)
    amp = np.sqrt(n0 * (1 - n0)) * np.sqrt(rng.uniform(0, 1, 100))
    r0 = amp * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    p = RydbergParams(Omega=2.0, Delta=-4.4, gamma=GAMMA, W=W)
    _, ns, rs = integrate_bloch(p, n0, r0, 200.0, 4000)
    d22, d21 = bloch_rhs(ns[-1], rs[-1], p)
    assert np.max(np.hypot(np.abs(d22), np.abs(d21))) <= 1e-6
    stable = [s.n for s in steady_states(p).roots if s.stable]
    unstable = [s.n for s in steady_states(p).roots if not s.stable]
    final = ns[-1]
    assert np.max(np.min(np.abs(final[:, None] - np.array(stable)[None, :]), axis=1)) < 1e-8
    assert np.min(np.abs(final[:, None] - np.array(unstable)[None, :])) > 1e-2


def test_hysteresis_loop_area():
    def sweep(de_values, n, r):
        outs = []
        for de in de_values:
            p = RydbergParams(Omega=2.0, Delta=float(de), gamma=GAMMA, W=W)
            _, ns, rs = integrate_bloch(p, n, r, 30.0, 600)
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
    v = transfer_verdict(demo_path(), GAMMA, W, T=5000.0, initial_root="low")
    assert v.verdict == "chiral"
    assert v.landed_ccw != v.landed_cw


def test_encircle_chirality_lost_when_fast():
    v = transfer_verdict(demo_path(), GAMMA, W, T=500.0, initial_root="low")
    assert v.verdict == "none"
    assert v.landed_ccw is None and v.landed_cw is None


def test_transfer_verdict_keeps_the_judged_runs():
    v = transfer_verdict(demo_path(), GAMMA, W, T=100.0, steps=1000)
    for direction, final in (("ccw", v.final_ccw), ("cw", v.final_cw)):
        res = encircle_steady(demo_path(), GAMMA, W, 100.0, direction, steps=1000)
        assert np.array_equal(v.runs[direction].rho22, res.rho22)
        assert v.runs[direction].rho22[-1] == final
    assert "runs" not in repr(v)


def test_encircle_outside_bistable_no_switch():
    path = EncirclePath(
        center=(1.0, -7.5), radius=0.3, period=3000.0, plane="Omega-Delta"
    )
    for direction in ("ccw", "cw"):
        res = encircle_steady(path, GAMMA, W, 3000.0, direction, "low")
        assert not res.switched


# -- transfer conditions -------------------------------------------------------------


def test_conditions_for_demo_path(fold_map):
    cond = check_conditions(demo_path(), fold_map, "low")
    assert cond.initial_in_bistable
    assert cond.nearest_crossings_straddle_cusp


def test_conditions_outside_bistable(fold_map):
    path = EncirclePath(
        center=(2.2, -4.38), radius=1.0, period=100.0, phase0=math.pi, plane="Omega-Delta"
    )
    # start point at (1.2, -4.38): single-root region, but the loop still
    # crosses the folds
    cond = check_conditions(path, fold_map, "low")
    assert not cond.initial_in_bistable


def test_conditions_same_side_crossings(fold_map):
    # a small loop that dips across one fold branch twice near its start,
    # far from the cusp: both nearest crossings on the same side
    path = EncirclePath(
        center=(2.0, -5.05), radius=0.15, period=100.0, phase0=-math.pi / 2,
        plane="Omega-Delta",
    )
    cond = check_conditions(path, fold_map, "low")
    assert not cond.nearest_crossings_straddle_cusp


def test_conditions_no_intersections(fold_map):
    path = EncirclePath(
        center=(1.3, -8.0), radius=0.1, period=100.0, plane="Omega-Delta"
    )
    with pytest.raises(NoIntersections):
        check_conditions(path, fold_map, "low")
