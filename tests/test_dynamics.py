"""Integrators, sheet tracking, projection, couplings and chirality."""

import dataclasses

import numpy as np
import pytest

from epkit import linalg
from epkit.dynamics import (
    AdiabaticityEstimate,
    adiabaticity_estimate,
    branch_populations,
    classify_chirality,
    default_steps,
    hermitize_density,
    initial_state_on_branch,
    integrate_liouvillian,
    integrate_schrodinger,
    project_loop,
    project_trajectory,
    scan_periods,
    state_branch_fidelity,
    step_rate,
    track_sheets,
    uhlmann_fidelity_2x2,
)
from epkit.errors import SampleTooCoarse, StepTooCoarse
from epkit.models import (
    MODELS,
    EncirclePath,
    PathDrive,
    basic_liouvillian,
    get_model,
)


def ring_drive(Gamma=1.0, r=0.1, T=100.0, center=None, direction="ccw"):
    center = center if center is not None else (Gamma / 2, 0.0)
    path = EncirclePath(
        center=center, radius=r, period=T, direction=direction, plane="J-Omega"
    )
    return PathDrive(model=get_model("encircle"), path=path, fixed={"Gamma": Gamma})


def decomposed(drive, times):
    """The stacked decomposition at ``times`` that track_sheets and
    project_trajectory read, as project_loop makes it for a config run."""
    return linalg.eig(drive.matrices(times))


def chirality(drive, T, branch):
    """classify_chirality at the default step count, as a config run takes it."""
    start = initial_state_on_branch(drive, branch)
    return classify_chirality(drive, T, start, default_steps(step_rate(drive, T), T))


def basic_drive(J=1.0, Gamma=1.0):
    # constant Liouvillian realized as a zero-radius loop
    path = EncirclePath(center=(J, Gamma), radius=0.0, period=1.0, plane="J-Gamma")
    return PathDrive(model=get_model("basic_liouvillian"), path=path, fixed={})


def coldatom_drive(T, direction="ccw"):
    path = EncirclePath(
        center=(0.0, 0.5),
        radius=0.5,
        period=T,
        direction=direction,
        phase0=-np.pi / 6,
        plane="delta-J",
    )
    return PathDrive(
        model=get_model("coldatom_liouvillian"),
        path=path,
        fixed={"Gamma": 1 / 20, "gamma": 1 / 100},
    )


# -- Schrodinger integration ----------------------------------------------------


def test_hermitian_norm_conserved():
    drive = ring_drive(Gamma=0.0, r=0.0, T=100.0, center=(0.7, 0.2))
    psi0 = np.array([1.0, 1.0j]) / np.sqrt(2)
    traj = integrate_schrodinger(drive, psi0, 100.0, 10000)
    assert np.max(np.abs(traj.norm - 1.0)) < 1e-10


def test_step_doubling_flag_passes_at_default():
    drive = ring_drive()
    x0, _, _ = initial_state_on_branch(drive, 0)
    steps = default_steps(step_rate(drive, 100.0), 100.0)
    integrate_schrodinger(drive, x0, 100.0, steps, check_steps=True)


def test_step_doubling_flag_raises_when_coarse():
    # fast coherent precession with far too few steps: the relative phase
    # between the superposed branches drifts between the two resolutions
    # (h rate ~ 3.4, past CF4's convergence bound h ||A|| < pi; drift 1.2e-4)
    drive = ring_drive(Gamma=0.0, r=2.0, T=20.0, center=(15.0, 0.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(StepTooCoarse):
        integrate_schrodinger(drive, psi0, 20.0, 100, check_steps=True)


def test_step_doubling_passes_where_only_rk4_was_coarse():
    # the T = 10 ring at 100 steps failed the check under RK4; CF4 drifts 2.3e-9
    drive = ring_drive(Gamma=0.0, r=2.0, T=10.0, center=(15.0, 0.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate_schrodinger(drive, psi0, 10.0, 100, check_steps=True)
    assert traj.steps == 300  # the run and its rerun at 200 steps
    assert 0.0 <= traj.drift < 1e-8


def test_constant_generator_gives_the_exponential():
    # a zero-radius loop holds H fixed: psi(T) = exp(-i T H) psi0
    drive = ring_drive(r=0.0, center=(0.7, 0.2))
    h = drive.matrix(0.0)
    w, v = np.linalg.eig(-1j * h)
    psi0 = np.array([0.6, 0.8j])
    exact = v @ (np.exp(7.0 * w) * np.linalg.solve(v, psi0))
    traj = integrate_schrodinger(drive, psi0, 7.0, 100)
    got = traj.states[-1] * np.exp(traj.log_norm[-1])
    assert np.max(np.abs(got - exact)) < 1e-12 * np.linalg.norm(exact)


def test_cf4_observed_order():
    # halving h cuts the final-state error 16-fold for a fourth-order
    # method; the factor order of each step decides it (the reversed
    # order is second order)
    drive = ring_drive(Gamma=0.3, r=2.0, T=10.0, center=(15.0, 0.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)

    def final(steps):
        traj = integrate_schrodinger(drive, psi0, 10.0, steps)
        return traj.states[-1] * np.exp(traj.log_norm[-1])

    ref = final(6400)
    errors = [np.linalg.norm(final(steps) - ref) for steps in (100, 200, 400)]
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert orders.min() >= 3.5, orders


@pytest.mark.parametrize("T", [150.0, 8e4])
def test_block_composition_equals_stepwise_evolution(monkeypatch, T):
    # 3 steps per record interval composed into one block (T = 150) or, where
    # h rate ~ 6.5 caps the blocks at 2 steps, into blocks of 2 and 1
    # (T = 8e4), against one step per block
    from epkit import dynamics

    drive = coldatom_drive(T)
    x0, _, _ = initial_state_on_branch(drive, "quasi_steady")
    steps = 3 * 4096
    blocks = integrate_liouvillian(drive, x0, T, steps)
    monkeypatch.setattr(dynamics, "BLOCK_RATE", 0.0)
    stepwise = integrate_liouvillian(drive, x0, T, steps)
    assert np.max(np.abs(blocks.states - stepwise.states)) < 1e-13
    assert np.max(np.abs(blocks.log_norm - stepwise.log_norm)) < 1e-12 * max(
        1.0, np.abs(stepwise.log_norm).max()
    )


def test_step_doubling_fails_on_nan_drift(monkeypatch):
    # A diverged (nan) doubled run must fail the check; max(0.0, nan) is 0.0,
    # so a running maximum would let it pass.
    from epkit import dynamics

    original = dynamics._integrate

    def diverged(drive, x0, T, steps):
        times, states, log_norms = original(drive, x0, T, steps)
        if steps == 400:
            states = np.full_like(states, np.nan)
        return times, states, log_norms

    monkeypatch.setattr(dynamics, "_integrate", diverged)
    drive = ring_drive()
    x0, _, _ = initial_state_on_branch(drive, 0)
    with pytest.raises(StepTooCoarse):
        integrate_schrodinger(drive, x0, 100.0, 200, check_steps=True)


def test_gauge_invariance_of_fidelities():
    drive = ring_drive()
    x0, dec0, _ = initial_state_on_branch(drive, 0)
    traj1 = integrate_schrodinger(drive, x0, 100.0, 2000)
    traj2 = integrate_schrodinger(drive, np.exp(0.37j) * x0, 100.0, 2000)
    decT = linalg.eig(drive.matrix(100.0))
    for b in (0, 1):
        f1 = state_branch_fidelity(decT, traj1.states[-1], b, "schrodinger")
        f2 = state_branch_fidelity(decT, traj2.states[-1], b, "schrodinger")
        assert abs(f1 - f2) < 1e-12


def test_ring_chirality_ccw_switches_cw_returns():
    # One loop around the degeneracy: starting on the larger-real-part
    # branch, the counterclockwise run hands the state to the other branch
    # while the clockwise one brings it home.
    report = chirality(ring_drive(), 100.0, "upper")
    assert report.verdict == "chiral"
    assert report.ccw_final_fidelity_to_initial_branch < 0.1
    assert report.ccw_final_fidelity_to_other_branch > 0.9
    assert report.cw_final_fidelity_to_initial_branch > 0.9
    assert report.adiabaticity.dimensionless_ratio > 10.0


# -- Liouvillian integration -----------------------------------------------------


def test_full_lindblad_trace_and_positivity():
    drive = basic_drive(J=1.0, Gamma=1.0)
    rho0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    traj = integrate_liouvillian(drive, rho0, 30.0, 6000)
    for k in range(len(traj.times)):
        rho = linalg.unvec_row(traj.states[k]) * traj.norm[k]
        assert abs(np.trace(rho).real - 1.0) < 1e-9
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-10
        assert np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)).min() > -1e-8


def test_full_lindblad_reaches_null_space_steady_state():
    drive = basic_drive(J=1.0, Gamma=1.0)
    rho0 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
    traj = integrate_liouvillian(drive, rho0, 50.0, 10000)
    dec = linalg.eig(basic_liouvillian(1.0, 1.0))
    k0 = int(np.argmin(np.abs(dec.eigenvalues)))
    rho_ss = hermitize_density(dec.right[:, k0])
    rho_fin = linalg.unvec_row(traj.states[-1] * traj.norm[-1])
    assert np.max(np.abs(rho_fin - rho_ss)) < 1e-8


def test_relaxation_rate_matches_slow_eigenvalue():
    # || rho(t) - rho_ss || decays like exp(-Gamma t / 2): the slowest
    # nonzero mode of the generator.
    J, Gamma = 1.0, 1.0
    drive = basic_drive(J, Gamma)
    rho0 = np.array([[0.2, 0.1 - 0.05j], [0.1 + 0.05j, 0.8]], dtype=complex)
    traj = integrate_liouvillian(drive, rho0, 30.0, 6000)
    dec = linalg.eig(basic_liouvillian(J, Gamma))
    k0 = int(np.argmin(np.abs(dec.eigenvalues)))
    rho_ss = hermitize_density(dec.right[:, k0])
    ts, ds = [], []
    for k in range(len(traj.times)):
        if 10.0 <= traj.times[k] <= 25.0:
            rho = linalg.unvec_row(traj.states[k] * traj.norm[k])
            ts.append(traj.times[k])
            ds.append(np.linalg.norm(rho - rho_ss))
    rate = -np.polyfit(ts, np.log(ds), 1)[0]
    assert abs(rate - Gamma / 2) < 0.05 * (Gamma / 2)


def test_trace_monotone_under_post_selection():
    drive = coldatom_drive(T=150.0)
    x0, _, _ = initial_state_on_branch(drive, "quasi_steady")
    traj = integrate_liouvillian(drive, x0, 150.0, 3000)
    assert np.all(np.diff(traj.log_norm) < 1e-12)


def test_resolve_branch_names_and_indices():
    # initial_state_on_branch resolves a branch name or index at t = 0
    drive = coldatom_drive(T=150.0)  # 4x4 generator

    def state(spec):
        return initial_state_on_branch(drive, spec)[0]

    assert np.array_equal(state("upper"), state(0))
    assert np.array_equal(state("lower"), state(3))
    assert np.array_equal(state("3"), state(3))
    assert not np.array_equal(state(3), state(0))
    assert initial_state_on_branch(drive, "lower")[2] == 3
    for bad in ("4", 7, -1, "-1", "1.0", "middle"):
        with pytest.raises(ValueError, match="index below 4"):
            initial_state_on_branch(drive, bad)


def test_chirality_report_keeps_the_judged_runs():
    drive = ring_drive()
    start = initial_state_on_branch(drive, "upper")
    report = classify_chirality(drive, 100.0, start, 2000)
    x0 = start[0]
    for direction in ("ccw", "cw"):
        again = integrate_schrodinger(drive.with_direction(direction), x0, 100.0, 2000)
        assert np.array_equal(report.runs[direction].states, again.states)
    # the runs take no part in equality or repr
    assert report == dataclasses.replace(report, runs={})
    assert "runs" not in repr(report)


@pytest.mark.parametrize("loop", ["ring", "coldatom"])
def test_chirality_is_judged_on_the_start_decomposition(monkeypatch, loop):
    # A closed loop ends at its start: both directions' final states are
    # judged on the t = 0 decomposition the start carries, and judging
    # decomposes nothing.
    drive, T, branch = {"ring": (ring_drive(), 100.0, "upper"),
                        "coldatom": (coldatom_drive(150.0), 150.0, "quasi_steady")}[loop]
    start = initial_state_on_branch(drive, branch)
    calls = []
    original = linalg.eig

    def spy(mats):
        calls.append(np.shape(mats))
        return original(mats)

    monkeypatch.setattr(linalg, "eig", spy)
    report = classify_chirality(drive, T, start, 2000)
    assert calls == []
    _, dec0, index = start
    for d in ("ccw", "cw"):
        traj = report.runs[d]
        fid = [state_branch_fidelity(dec0, traj.states[-1], j, traj.kind)
               for j in range(dec0.dim)]
        assert getattr(report, f"{d}_final_fidelity_to_initial_branch") == fid[index]
        assert getattr(report, f"{d}_final_fidelity_to_other_branch") == max(
            f for j, f in enumerate(fid) if j != index)


def test_scan_periods_decomposes_the_start_once(monkeypatch):
    # A loop's t = 0 point is its phase0 whatever its period, so one t = 0
    # decomposition starts every period and judges both directions of each
    # loop, which returns to it.  Every report is the one a start resolved
    # for its own period gives, bit for bit.
    drive, periods = ring_drive(), (50.0, 100.0, 200.0)
    calls = []
    original = linalg.eig

    def spy(mats):
        calls.append(mats)
        return original(mats)

    monkeypatch.setattr(linalg, "eig", spy)
    results = scan_periods(drive, periods, "upper")
    assert len(calls) == 1
    assert [T for T, _ in results] == list(periods)
    for T, report in results:
        loop = dataclasses.replace(drive, path=dataclasses.replace(drive.path, period=T))
        alone = chirality(loop, T, "upper")
        assert report == alone
        for direction in ("ccw", "cw"):
            assert np.array_equal(report.runs[direction].states, alone.runs[direction].states)


def test_liouvillian_adiabatic_loop_returns_both_ways():
    report = chirality(coldatom_drive(T=10000.0), 10000.0, "quasi_steady")
    assert report.verdict == "non_chiral"
    assert report.ccw_final_fidelity_to_initial_branch > 0.9
    assert report.cw_final_fidelity_to_initial_branch > 0.9


def test_liouvillian_intermediate_loop_is_chiral():
    report = chirality(coldatom_drive(T=150.0), 150.0, "quasi_steady")
    assert report.verdict == "chiral"


# -- projection -------------------------------------------------------------------


def test_projection_on_instantaneous_eigenstate():
    drive = ring_drive()
    # prepare exactly the instantaneous eigenstate at every sample: the
    # projection must return that branch eigenvalue exactly
    times = np.linspace(0.0, 100.0, 201)
    track = track_sheets(times, decomposed(drive, times))
    for k in (0, 57, 123, 200):
        dec = linalg.eig(drive.matrix(track.times[k]))
        psi = track.rights[k][:, 0]
        weights = np.abs(track.lefts[k].conj().T @ psi) ** 2
        proj = (weights @ track.values[k]) / weights.sum()
        assert abs(proj - track.values[k][0]) < 1e-10


def test_projection_weighted_mean_matches_direct_formula():
    # equal-weight superposition at fixed parameters: the projection is the
    # |<chi|psi>|^2-weighted mean of the two branch energies
    from epkit.models import PTParams, pt_hamiltonian

    h = pt_hamiltonian(PTParams(J=1.0, Gamma=1.0))
    dec = linalg.eig(h)
    psi = (dec.right[:, 0] + dec.right[:, 1])
    psi /= np.linalg.norm(psi)
    w = np.array([abs(np.vdot(dec.left[:, i], psi)) ** 2 for i in range(2)])
    expected = (w @ dec.eigenvalues) / w.sum()
    # same formula through the trajectory machinery on a static drive
    path = EncirclePath(center=(1.0, 1.0), radius=0.0, period=10.0, plane="J-Gamma")
    drive = PathDrive(model=get_model("pt"), path=path, fixed={})
    traj = integrate_schrodinger(drive, psi, 10.0, 1000)
    traj = project_trajectory(traj, decomposed(drive, traj.times))
    assert abs(traj.projected[0] - expected) < 1e-10


def test_projection_fig2_loop_lands_on_other_sheet():
    drive = ring_drive()
    x0, _, _ = initial_state_on_branch(drive, 0)

    # counterclockwise: adiabatic following on the SMOOTH sheet, which the
    # loop permutes onto the other static branch -> projection ends on the
    # other eigenvalue
    traj = integrate_schrodinger(drive, x0, 100.0, 2000)
    traj = project_trajectory(traj, decomposed(drive, traj.times))
    track = track_sheets(traj.times, decomposed(drive, traj.times))
    assert traj.sheet_index[0] == 0
    assert traj.sheet_index[-1] == 0  # no non-adiabatic jump this way
    assert track.permutation[0] == 1  # but the sheet winds onto branch 1
    assert abs(traj.projected[0] - traj.projected[-1]) > 0.1

    # clockwise: a non-adiabatic jump flips the smooth sheet mid-loop, so
    # the final projection returns to the starting eigenvalue
    cw = drive.with_direction("cw")
    traj2 = integrate_schrodinger(cw, x0, 100.0, 2000)
    traj2 = project_trajectory(traj2, decomposed(cw, traj2.times))
    assert traj2.sheet_index[0] == 0
    assert traj2.sheet_index[-1] == 1
    assert abs(traj2.projected[0] - traj2.projected[-1]) < 1e-2


def test_record_grid_dense_for_any_step_count():
    # prime-ish step counts must not collapse the record grid
    from epkit.dynamics import _record_indices

    for steps in (999983, 1999465, 54321):
        idx = _record_indices(steps)
        assert idx[0] == 0 and idx[-1] == steps
        assert len(idx) > 2000


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("convention", ["cos-sin", "sin-cos"])
def test_cw_generator_is_ccw_run_backwards(model, convention):
    # The shared sheet-tracking pass rests on cw(t) = ccw(T - t): the two
    # angles differ by a whole turn, so the path points agree to a few ulps
    # and the generators to a few ulps of their largest entry (entries that
    # cancel, such as J - delta, lose some).  Checked at T - t and at the
    # ccw steps (steps - rec[k]) % steps that project_loop reads for cw
    # record k, on a symmetric and two asymmetric record grids.
    from epkit.dynamics import _record_indices

    spec = get_model(model)
    fixed = {name: 0.3 + 0.1 * i for i, name in enumerate(spec.params[2:])}
    T = 150.0
    times = np.arange(4097) * (T / 4096)
    pairs = [(T - times, times)]
    for steps in (4096, 10000, 10007):
        rec = _record_indices(steps)
        pairs.append(((steps - rec) % steps * (T / steps), rec * (T / steps)))
    for phase0 in (0.0, -np.pi / 6, 2 * np.pi / 3 - 0.02, 2 * np.pi / 3 + 0.02,
                   -np.arctan(9 / 4) + 0.02, 3.0):
        path = EncirclePath(center=(0.4, 0.3), radius=0.25, period=T, phase0=phase0,
                            plane="-".join(spec.params[:2]), convention=convention)
        drive = PathDrive(model=spec, path=path, fixed=fixed)
        eps = np.finfo(float).eps
        back = drive.with_direction("cw")
        for ccw_times, cw_times in pairs:
            for a, b in zip(path.point(ccw_times), back.path.point(cw_times)):
                assert np.max(np.abs(a - b)) <= 4 * eps
            ccw, cw = drive.matrices(ccw_times), back.matrices(cw_times)
            scale = np.abs(ccw).max(axis=(-2, -1))
            assert np.all(np.abs(cw - ccw).max(axis=(-2, -1)) <= 16 * eps * scale)


def test_default_step_counts_give_symmetric_record_grids():
    # Every default step count records on a grid symmetric under
    # k -> N - k, where the cw records read the ccw records and the shared
    # sheet-tracking decomposition holds no more points than one direction.
    from epkit.dynamics import _record_indices

    for rate, T in ((1.0, 10.0), (0.3, 150.0), (0.06, 1e4), (2.0, 5e4), (40.0, 1e5)):
        steps = default_steps(rate, T)
        rec = _record_indices(steps)
        assert np.array_equal(rec, steps - rec[::-1]), steps
    for grids in range(1, 200):
        rec = _record_indices(4096 * grids)
        assert np.array_equal(rec, 4096 * grids - rec[::-1])


def _per_direction(report, drive):
    """Each direction projected on its own drive at its own record times."""
    alone = {}
    for d in ("ccw", "cw"):
        traj = dataclasses.replace(report.runs[d])
        alone[d] = project_trajectory(traj, decomposed(drive.with_direction(d), traj.times))
    return alone


def _project_counting_eig(monkeypatch, report, drive, steps, directions):
    """project_loop's counters, the shapes of its linalg.eig calls and the
    path times it samples."""
    calls, times = [], []
    original, matrices = linalg.eig, PathDrive.matrices

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    def sampled(self, t):
        times.append(np.asarray(t))
        return matrices(self, t)

    with monkeypatch.context() as patch:
        patch.setattr(linalg, "eig", counted)
        patch.setattr(PathDrive, "matrices", sampled)
        counters = project_loop(report, drive, steps, directions)
    return counters, calls, np.concatenate(times)


def _assert_matches_alone(runs, alone):
    # Both directions agree to rounding with their own passes.  ccw is
    # bit-identical but for its last record, which reads step 0, the exact
    # loop start, where its own pass reads t = T.
    for d, traj in runs.items():
        assert np.max(np.abs(traj.projected - alone[d].projected)) <= 1e-12
        assert np.max(np.abs(traj.populations - alone[d].populations)) <= 1e-12
        assert np.array_equal(traj.sheet_index, alone[d].sheet_index)
    if "ccw" in runs:
        for name in ("projected", "populations", "sheet_index"):
            assert np.array_equal(getattr(runs["ccw"], name)[:-1],
                                  getattr(alone["ccw"], name)[:-1])


@pytest.mark.parametrize("loop, steps", [("ring", 2000), ("coldatom", 4096), ("coldatom", 8192)])
def test_shared_pass_matches_projecting_each_direction(monkeypatch, loop, steps):
    # One decomposition at the ccw records serves cw, whose records are
    # the same ccw steps run backwards on a symmetric grid.  Every loop
    # ends at its start, step 0, and step ``steps`` is never decomposed:
    # the coldatom loop's conjugate pair is ordered by rounding at t = 0,
    # so the ends must read the exact loop start, not the t = T point.
    drive, T, branch = {"ring": (ring_drive(), 100.0, "upper"),
                        "coldatom": (coldatom_drive(150.0), 150.0, "quasi_steady")}[loop]
    report = classify_chirality(drive, T, initial_state_on_branch(drive, branch), steps)
    alone = _per_direction(report, drive)
    counters, calls, times = _project_counting_eig(monkeypatch, report, drive, steps,
                                                   ("ccw", "cw"))
    assert calls == [(len(report.runs["ccw"].times) - 1, *drive.matrix(0.0).shape)]
    assert times.min() == 0.0 and times.max() < T
    assert counters == {"track_sheets.ambiguous":
                        alone["ccw"].ambiguous + alone["cw"].ambiguous}
    _assert_matches_alone(report.runs, alone)


def test_asymmetric_grid_decomposes_each_direction(monkeypatch):
    # 10,007 steps record every third step and the last: cw record k is
    # ccw step 10,007 - 3k, no ccw record, so the one decomposition covers
    # the 3,336 ccw records below step 10,007 and their 3,335 mirrors other
    # than step 0.  A cw-only run decomposes the mirrors and step 0 alone.
    drive = ring_drive()
    report = classify_chirality(drive, 100.0, initial_state_on_branch(drive, "upper"), 10007)
    alone = _per_direction(report, drive)
    for directions, points in ((("ccw", "cw"), 6671), (("cw",), 3336)):
        runs = {d: dataclasses.replace(report.runs[d]) for d in directions}
        judged = dataclasses.replace(report, runs=runs)
        counters, calls, times = _project_counting_eig(monkeypatch, judged, drive, 10007,
                                                       directions)
        assert [shape[0] for shape in calls] == [points]
        assert times.min() == 0.0 and times.max() < 100.0
        assert counters == {"track_sheets.ambiguous": sum(alone[d].ambiguous for d in directions)}
        _assert_matches_alone(runs, alone)


def test_projection_works_with_decimated_records():
    drive = ring_drive()
    x0, _, _ = initial_state_on_branch(drive, 0)
    traj = integrate_schrodinger(drive, x0, 100.0, 10007)  # prime step count
    traj = project_trajectory(traj, decomposed(drive, traj.times))
    assert len(traj.times) > 2000
    assert traj.sheet_index is not None


# -- sheet tracking ---------------------------------------------------------------


def test_track_swap_around_ep():
    drive = ring_drive()
    times = np.linspace(0.0, 100.0, 401)
    track = track_sheets(times, decomposed(drive, times))
    assert not np.array_equal(track.permutation, np.arange(2))
    assert set(track.permutation) == {0, 1}


def test_track_identity_away_from_ep():
    drive = ring_drive(center=(1.5, 0.8), r=0.1)
    times = np.linspace(0.0, 100.0, 401)
    track = track_sheets(times, decomposed(drive, times))
    assert np.array_equal(track.permutation, np.arange(2))


def test_track_matches_square_root_closed_form():
    Gamma, r, T = 1.0, 0.1, 100.0
    drive = ring_drive(Gamma=Gamma, r=r, T=T)
    times = np.linspace(0.0, T, 501)
    track = track_sheets(times, decomposed(drive, times))
    w = 2 * np.pi / T
    # continuous square root: half the unwrapped angle of the radicand
    z = r**2 + Gamma * r * np.exp(1j * w * track.times)
    ang = np.unwrap(np.angle(z))
    root = np.sqrt(np.abs(z)) * np.exp(0.5j * ang)
    # identify which tracked branch starts at +root
    b = 0 if abs(track.values[0, 0] - root[0]) < abs(track.values[0, 1] - root[0]) else 1
    assert np.max(np.abs(track.values[:, b] - root)) < 1e-9
    assert np.max(np.abs(track.values[:, 1 - b] + root)) < 1e-9


def test_track_makes_no_eigendecomposition(monkeypatch):
    # Tracking reads the decomposition its caller made and makes none.
    times = np.linspace(0.0, 100.0, 401)
    dec = decomposed(ring_drive(), times)
    calls = []
    original = linalg.eig

    def counted(m):
        calls.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(linalg, "eig", counted)
    track = track_sheets(times, dec)
    assert calls == []
    assert track.values.shape == (401, 2)


@pytest.mark.parametrize("make", [ring_drive, lambda: coldatom_drive(150.0)])
def test_track_matches_sample_by_sample_reference(make):
    # Reference: one eigendecomposition per sample and one assignment per
    # step on the previous sample's tracked order, as sheet tracking was
    # defined before it was batched.
    drive = make()
    times = np.linspace(0.0, drive.path.period, 301)
    track = track_sheets(times, decomposed(drive, times))
    mats = drive.matrices(track.times)
    decs = [linalg.eig(m) for m in mats]
    vals, rights, lefts = decs[0].eigenvalues, decs[0].right, decs[0].left
    scale = 1.0 + max(np.abs(d.eigenvalues).max() for d in decs)
    for k, dec in enumerate(decs):
        if k:
            cost = np.abs(vals[:, None] - dec.eigenvalues[None, :]) / scale
            overlap = np.abs(rights.conj().T @ dec.right)
            cols = linalg.assign(cost + 1e-9 * (1.0 - overlap))
            vals, rights, lefts = dec.eigenvalues[cols], dec.right[:, cols], dec.left[:, cols]
        assert np.array_equal(track.values[k], vals)
        assert np.array_equal(track.rights[k], rights)
        assert np.array_equal(track.lefts[k], lefts)


def test_track_rejects_coarse_sampling():
    drive = ring_drive()
    times = np.linspace(0.0, 100.0, 51)
    with pytest.raises(SampleTooCoarse):
        track_sheets(times, decomposed(drive, times))
    # a trajectory recorded as coarsely cannot be projected
    traj = integrate_schrodinger(drive, initial_state_on_branch(drive, 0)[0], 100.0, 100)
    short = dataclasses.replace(traj, times=traj.times[:51], states=traj.states[:51])
    with pytest.raises(SampleTooCoarse):
        project_trajectory(short, decomposed(drive, short.times))


# -- nonadiabatic couplings --------------------------------------------------------


def test_coupling_ode_reproduces_full_populations():
    # Integrate the two-level coefficient equations in the smoothly tracked
    # biorthogonal frame and compare population fractions with the full
    # state-vector integration.
    Gamma, r, T = 1.0, 0.1, 100.0
    drive = ring_drive(Gamma=Gamma, r=r, T=T)
    n_grid = 4000
    times = np.linspace(0.0, T, n_grid + 1)
    track = track_sheets(times, decomposed(drive, times))
    h = times[1] - times[0]

    # phase-smooth the frame along the path (positive overlap chaining)
    rights = track.rights.copy()
    lefts = track.lefts.copy()
    for k in range(1, len(times)):
        for j in range(2):
            ov = np.vdot(rights[k - 1][:, j], rights[k][:, j])
            ph = ov.conjugate() / abs(ov)
            rights[k][:, j] *= ph
            lefts[k][:, j] *= ph
    # biorthonormalize: <chi_n|psi_n> = 1
    for k in range(len(times)):
        for j in range(2):
            lefts[k][:, j] /= np.vdot(lefts[k][:, j], rights[k][:, j]).conjugate()

    dpsi = np.gradient(rights, times, axis=0)
    K = np.einsum("kin,kim->knm", lefts.conj(), dpsi)
    E = track.values

    def rhs(k_frac, c):
        k0 = min(int(k_frac), len(times) - 2)
        w = k_frac - k0
        e = (1 - w) * E[k0] + w * E[k0 + 1]
        kk = (1 - w) * K[k0] + w * K[k0 + 1]
        return -1j * e * c - kk @ c

    c = np.array([1.0, 0.0], dtype=complex)
    for k in range(len(times) - 1):
        kf = float(k)
        k1 = rhs(kf, c)
        k2 = rhs(kf + 0.5, c + 0.5 * h * k1)
        k3 = rhs(kf + 0.5, c + 0.5 * h * k2)
        k4 = rhs(kf + 1.0, c + h * k3)
        c = c + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    p_ode = np.abs(c) ** 2
    p_ode /= p_ode.sum()

    psi0 = rights[0][:, 0]
    traj = integrate_schrodinger(drive, psi0, T, 4000)
    cf = lefts[-1].conj().T @ traj.states[-1]
    p_full = np.abs(cf) ** 2
    p_full /= p_full.sum()
    assert np.max(np.abs(p_ode - p_full)) < 1e-4


# -- fidelity helpers ---------------------------------------------------------------


def test_hermitize_density_rejects_zero_hermitian_part():
    # an anti-Hermitian coherence has neither trace nor Hermitian part
    assert hermitize_density(np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2)) is None


def test_uhlmann_agrees_with_pure_state_overlap():
    rng = np.random.default_rng(5)
    a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    b /= np.linalg.norm(b)
    ra = np.outer(a, a.conj())
    rb = np.outer(b, b.conj())
    assert abs(uhlmann_fidelity_2x2(ra, rb) - abs(np.vdot(a, b)) ** 2) < 1e-12


def test_branch_populations_sum_to_one():
    dec = linalg.eig(basic_liouvillian(0.7, 1.3))
    rng = np.random.default_rng(9)
    psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    p = branch_populations(dec, psi / np.linalg.norm(psi))
    assert abs(p.sum() - 1.0) < 1e-12
    assert np.all(p >= 0)
