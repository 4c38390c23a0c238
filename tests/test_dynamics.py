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
    nonadiabatic_couplings,
    project_trajectory,
    resolve_branch,
    state_branch_fidelity,
    track_sheets,
    uhlmann_fidelity_2x2,
    _match_values,
)
from epkit.errors import SampleTooCoarse, StepTooCoarse
from epkit.models import (
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
    x0, _ = initial_state_on_branch(drive, 0)
    steps = default_steps(drive, 100.0)
    integrate_schrodinger(drive, x0, 100.0, steps, check_steps=True)


def test_step_doubling_flag_raises_when_coarse():
    # fast coherent precession with far too few steps: the relative phase
    # between the superposed branches drifts between the two resolutions
    drive = ring_drive(Gamma=0.0, r=2.0, T=10.0, center=(15.0, 0.0))
    psi0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(StepTooCoarse):
        integrate_schrodinger(drive, psi0, 10.0, 100, check_steps=True)


def test_gauge_invariance_of_fidelities():
    drive = ring_drive()
    x0, dec0 = initial_state_on_branch(drive, 0)
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
    report = classify_chirality(ring_drive(), 100.0, "upper")
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
    b = resolve_branch(drive, "quasi_steady")
    x0, _ = initial_state_on_branch(drive, b)
    traj = integrate_liouvillian(drive, x0, 150.0, 3000)
    assert np.all(np.diff(traj.log_norm) < 1e-12)


def test_resolve_branch_names_and_indices():
    drive = coldatom_drive(T=150.0)  # 4x4 generator
    assert resolve_branch(drive, "upper") == 0
    assert resolve_branch(drive, "lower") == 3
    assert resolve_branch(drive, "3") == resolve_branch(drive, 3) == 3
    for bad in ("4", 7, -1, "-1", "1.0", "middle"):
        with pytest.raises(ValueError, match="index below 4"):
            resolve_branch(drive, bad)


def test_chirality_report_keeps_the_judged_runs():
    drive = ring_drive()
    report = classify_chirality(drive, 100.0, "upper", steps=2000)
    x0, _ = initial_state_on_branch(drive, 0)
    for direction in ("ccw", "cw"):
        again = integrate_schrodinger(drive.with_direction(direction), x0, 100.0, 2000)
        assert np.array_equal(report.runs[direction].states, again.states)
    # the runs take no part in equality or repr
    assert report == dataclasses.replace(report, runs={})
    assert "runs" not in repr(report)


def test_liouvillian_adiabatic_loop_returns_both_ways():
    report = classify_chirality(coldatom_drive(T=10000.0), 10000.0, "quasi_steady")
    assert report.verdict == "non_chiral"
    assert report.ccw_final_fidelity_to_initial_branch > 0.9
    assert report.cw_final_fidelity_to_initial_branch > 0.9


def test_liouvillian_intermediate_loop_is_chiral():
    report = classify_chirality(coldatom_drive(T=150.0), 150.0, "quasi_steady")
    assert report.verdict == "chiral"


# -- projection -------------------------------------------------------------------


def test_projection_on_instantaneous_eigenstate():
    drive = ring_drive()
    # prepare exactly the instantaneous eigenstate at every sample: the
    # projection must return that branch eigenvalue exactly
    track = track_sheets(drive, 100.0, 200)
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
    traj = project_trajectory(traj, drive)
    assert abs(traj.projected[0] - expected) < 1e-10


def test_projection_fig2_loop_lands_on_other_sheet():
    drive = ring_drive()
    x0, _ = initial_state_on_branch(drive, 0)

    # counterclockwise: adiabatic following on the SMOOTH sheet, which the
    # loop permutes onto the other static branch -> projection ends on the
    # other eigenvalue
    traj = integrate_schrodinger(drive, x0, 100.0, 2000)
    traj = project_trajectory(traj, drive)
    track = track_sheets(drive, 100.0, 2000)
    assert traj.sheet_index[0] == 0
    assert traj.sheet_index[-1] == 0  # no non-adiabatic jump this way
    assert track.permutation[0] == 1  # but the sheet winds onto branch 1
    assert abs(traj.projected[0] - traj.projected[-1]) > 0.1

    # clockwise: a non-adiabatic jump flips the smooth sheet mid-loop, so
    # the final projection returns to the starting eigenvalue
    cw = drive.with_direction("cw")
    traj2 = project_trajectory(integrate_schrodinger(cw, x0, 100.0, 2000), cw)
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


def test_projection_works_with_decimated_records():
    drive = ring_drive()
    x0, _ = initial_state_on_branch(drive, 0)
    traj = integrate_schrodinger(drive, x0, 100.0, 10007)  # prime step count
    traj = project_trajectory(traj, drive)
    assert len(traj.times) > 2000
    assert traj.sheet_index is not None


# -- sheet tracking ---------------------------------------------------------------


def test_track_swap_around_ep():
    drive = ring_drive()
    track = track_sheets(drive, 100.0, 400)
    assert not np.array_equal(track.permutation, np.arange(2))
    assert set(track.permutation) == {0, 1}


def test_track_identity_away_from_ep():
    drive = ring_drive(center=(1.5, 0.8), r=0.1)
    track = track_sheets(drive, 100.0, 400)
    assert np.array_equal(track.permutation, np.arange(2))


def test_track_matches_square_root_closed_form():
    Gamma, r, T = 1.0, 0.1, 100.0
    drive = ring_drive(Gamma=Gamma, r=r, T=T)
    track = track_sheets(drive, T, 500)
    w = 2 * np.pi / T
    # continuous square root: half the unwrapped angle of the radicand
    z = r**2 + Gamma * r * np.exp(1j * w * track.times)
    ang = np.unwrap(np.angle(z))
    root = np.sqrt(np.abs(z)) * np.exp(0.5j * ang)
    # identify which tracked branch starts at +root
    b = 0 if abs(track.values[0, 0] - root[0]) < abs(track.values[0, 1] - root[0]) else 1
    assert np.max(np.abs(track.values[:, b] - root)) < 1e-9
    assert np.max(np.abs(track.values[:, 1 - b] + root)) < 1e-9


def test_track_rejects_coarse_sampling():
    drive = ring_drive()
    with pytest.raises(SampleTooCoarse):
        track_sheets(drive, 100.0, 50)


# -- nonadiabatic couplings --------------------------------------------------------


def test_couplings_vanish_for_static_model():
    drive = ring_drive(r=0.0, center=(0.9, 0.3))
    k = nonadiabatic_couplings(drive, 5.0, 1e-4)
    assert np.max(np.abs(k)) < 1e-8


def test_coupling_ode_reproduces_full_populations():
    # Integrate the two-level coefficient equations in the smoothly tracked
    # biorthogonal frame and compare population fractions with the full
    # state-vector integration.
    Gamma, r, T = 1.0, 0.1, 100.0
    drive = ring_drive(Gamma=Gamma, r=r, T=T)
    n_grid = 4000
    track = track_sheets(drive, T, n_grid)
    times = track.times
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


def test_coupling_grows_toward_ep():
    # the peak coupling magnitude grows as the loop passes closer to the
    # degeneracy (offset-center family with shrinking closest approach)
    peaks = []
    for y0 in (0.4, 0.25, 0.15):
        drive = ring_drive(r=0.1, center=(0.5, y0))
        mags = []
        for t in np.linspace(1.0, 99.0, 40):
            k = nonadiabatic_couplings(drive, t, 1e-5)
            mags.append(np.max(np.abs(k - np.diag(np.diag(k)))))
        peaks.append(max(mags))
    assert peaks[0] < peaks[1] < peaks[2]


# -- fidelity helpers ---------------------------------------------------------------


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
