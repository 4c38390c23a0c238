"""Time integration along parametric paths, sheet tracking and chirality.

The integrators use fixed-step fourth-order Runge-Kutta for bit-reproducible
trajectories.  For the linear equations of motion handled here the RK4 step
is a matrix acting on the state, so the per-step propagators for an entire
time grid are assembled in bulk (three stage evaluations of the generator,
batched matrix products); the remaining strictly-sequential work is one
small matrix-vector product per step.

States are stored unit-normalized with the accumulated log-norm kept
separately: post-selected evolution shrinks the norm by hundreds of orders
of magnitude over slow loops, far past double-precision underflow, while
every readout quantity (fidelities, projections, populations) only needs
the direction of the state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from . import linalg
from .errors import (
    GaugeDiscontinuity,
    ProjectionUndefined,
    SampleTooCoarse,
    StepTooCoarse,
)
from .models import PathDrive, pick_index
from .spectra import quasi_steady_index

# Largest number of recorded samples per trajectory; integration runs at
# full step resolution regardless.
MAX_RECORDS = 4097

# Step-doubling agreement required on recorded state directions.
STEP_DOUBLING_TOL = 1e-6


@dataclass
class TrajectoryRecord:
    """Recorded time series of an integration run.

    states holds unit-normalized snapshots; norm[i] = exp(log_norm[i]) is
    the true state norm (0.0 after underflow, by design).  projected,
    sheet_index and populations are filled by project_trajectory.
    """

    times: np.ndarray
    states: np.ndarray  # (n, dim), unit rows
    norm: np.ndarray
    log_norm: np.ndarray
    kind: str  # "schrodinger" | "liouvillian"
    projected: np.ndarray | None = None  # weighted spectral projection
    sheet_index: np.ndarray | None = None
    populations: np.ndarray | None = None  # biorthogonal coefficients (n, dim)


@dataclass(frozen=True)
class AdiabaticityEstimate:
    """Slow-drive diagnostic: (loop period) x (minimal branch gap)."""

    min_real_gap: float
    dimensionless_ratio: float


@dataclass(frozen=True)
class ChiralityReport:
    """Final-state fidelities of both loop directions and the verdict.

    runs holds the judged trajectory of each direction, keyed "ccw"/"cw".
    """

    ccw_final_fidelity_to_initial_branch: float
    ccw_final_fidelity_to_other_branch: float
    cw_final_fidelity_to_initial_branch: float
    cw_final_fidelity_to_other_branch: float
    verdict: str  # "chiral" | "non_chiral" | "ambiguous"
    adiabaticity: AdiabaticityEstimate
    runs: dict = field(compare=False, repr=False)


def _record_indices(steps: int) -> np.ndarray:
    """Record indices including 0 and steps; the last gap may be shorter."""
    if steps + 1 <= MAX_RECORDS:
        return np.arange(steps + 1)
    stride = int(math.ceil(steps / (MAX_RECORDS - 1)))
    idx = np.arange(0, steps + 1, stride)
    if idx[-1] != steps:
        idx = np.append(idx, steps)
    return idx


def _step_propagators(drive: PathDrive, t0: float, h: float, count: int) -> np.ndarray:
    """RK4 one-step propagators M_k for steps starting at t0 + k h.

    For x' = A(t) x the classical RK4 update is linear in x:
        K1 = A1, K2 = A2 (I + h/2 K1), K3 = A2 (I + h/2 K2),
        K4 = A3 (I + h K3),  M = I + h/6 (K1 + 2 K2 + 2 K3 + K4),
    with A1, A2, A3 the generator at t, t + h/2, t + h.
    """
    times = t0 + h * np.arange(count)
    a1 = _generators(drive, times)
    a2 = _generators(drive, times + 0.5 * h)
    a3 = _generators(drive, times + h)
    dim = a1.shape[-1]
    eye = np.eye(dim, dtype=complex)
    k1 = a1
    k2 = a2 + (0.5 * h) * (a2 @ k1)
    k3 = a2 + (0.5 * h) * (a2 @ k2)
    k4 = a3 + h * (a3 @ k3)
    return eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _generators(drive: PathDrive, times: np.ndarray) -> np.ndarray:
    mats = drive.matrices(times)
    if drive.model.kind == "hamiltonian":
        return -1j * mats
    return mats


def _integrate(drive: PathDrive, x0: np.ndarray, T: float, steps: int):
    """Fixed-step RK4 with per-chunk propagator assembly.

    Returns (record times, unit states, log norms).
    """
    h = T / steps
    rec = _record_indices(steps)
    rec_set = {int(i): k for k, i in enumerate(rec)}
    dim = x0.shape[0]
    states = np.empty((len(rec), dim), dtype=complex)
    log_norms = np.empty(len(rec))

    x = np.array(x0, dtype=complex)
    n0 = np.linalg.norm(x)
    x /= n0
    log_norm = math.log(n0)
    states[0] = x
    log_norms[0] = log_norm

    chunk = 32768
    for s0 in range(0, steps, chunk):
        count = min(chunk, steps - s0)
        props = _step_propagators(drive, s0 * h, h, count)
        for k in range(count):
            x = props[k] @ x
            step_index = s0 + k + 1
            if step_index % 256 == 0:
                n = np.linalg.norm(x)
                if n < 1e-6 or n > 1e6:
                    x /= n
                    log_norm += math.log(n)
            pos = rec_set.get(step_index)
            if pos is not None:
                n = np.linalg.norm(x)
                states[pos] = x / n
                log_norms[pos] = log_norm + math.log(n)
    return rec * h, states, log_norms


def integrate_schrodinger(
    drive: PathDrive, psi0: np.ndarray, T: float, steps: int, check_steps: bool = False
) -> TrajectoryRecord:
    """Schrodinger evolution i d/dt psi = H(t) psi (hbar = 1) by RK4."""
    return _evolve("schrodinger", drive, psi0, T, steps, check_steps)


def integrate_liouvillian(
    drive: PathDrive, rho0: np.ndarray, T: float, steps: int, check_steps: bool = False
) -> TrajectoryRecord:
    """Master-equation evolution d/dt vec(rho) = L(t) vec(rho) by RK4.

    ``rho0`` is a vectorized state or a density matrix, which is validated
    and vectorized first.
    """
    return _evolve("liouvillian", drive, rho0, T, steps, check_steps)


def _evolve(
    kind: str, drive: PathDrive, x0, T: float, steps: int, check_steps: bool
) -> TrajectoryRecord:
    """One RK4 run of a record kind, optionally checked by step doubling."""
    model_kind = "hamiltonian" if kind == "schrodinger" else "liouvillian"
    if drive.model.kind != model_kind:
        raise ValueError(f"integrate_{kind} requires a {model_kind} model")
    if steps < 100:
        raise ValueError("steps must be >= 100")
    x0 = np.asarray(x0, dtype=complex)
    if kind == "liouvillian" and x0.ndim == 2:
        _validate_density(x0)
        x0 = linalg.vec_row(x0)
    times, states, log_norms = _integrate(drive, x0, T, steps)
    if check_steps:
        times2, states2, _ = _integrate(drive, x0, T, 2 * steps)
        _check_step_doubling(times, states, times2, states2)
    return TrajectoryRecord(
        times=times,
        states=states,
        norm=_safe_exp(log_norms),
        log_norm=log_norms,
        kind=kind,
    )


def _safe_exp(log_norms: np.ndarray) -> np.ndarray:
    with np.errstate(over="raise", under="ignore"):
        return np.exp(np.minimum(log_norms, 700.0))


def _validate_density(rho: np.ndarray) -> None:
    if np.max(np.abs(rho - rho.conj().T)) > 1e-9:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho) - 1.0) > 1e-9:
        raise ValueError("rho0 must have unit trace")
    if np.linalg.eigvalsh(rho).min() < -1e-9:
        raise ValueError("rho0 must be positive semidefinite")


def _check_step_doubling(times1, states1, times2, states2) -> None:
    """Compare state directions at every time both runs recorded."""
    lookup = {round(float(t), 12): k for k, t in enumerate(times2)}
    worst = 0.0
    matched = 0
    for k, t in enumerate(times1):
        j = lookup.get(round(float(t), 12))
        if j is None:
            continue
        matched += 1
        worst = max(worst, 1.0 - abs(np.vdot(states1[k], states2[j])))
    if matched < 2:
        raise StepTooCoarse("step-doubling runs share too few record times")
    if worst > STEP_DOUBLING_TOL:
        raise StepTooCoarse(
            f"step-doubling drift {worst:.2e} exceeds {STEP_DOUBLING_TOL:.0e}"
        )


# -- sheet tracking ------------------------------------------------------------


@dataclass
class SheetTrack:
    """Smooth branch labeling along a sampled path.

    values[k, j] is the eigenvalue of branch j at sample k, continuous in k.
    rights/lefts hold the correspondingly ordered eigenvectors (columns).
    permutation maps the branch labels at the final sample onto the labels
    at the first sample (identity when the loop does not wind a branch
    point, a swap when it does).
    """

    times: np.ndarray
    values: np.ndarray
    rights: np.ndarray
    lefts: np.ndarray
    permutation: np.ndarray
    defective_samples: np.ndarray


def track_sheets(
    drive: PathDrive, T: float, samples: int, times: np.ndarray | None = None
) -> SheetTrack:
    """Match eigenvalue branches continuously along the drive path."""
    if samples < 100:
        raise SampleTooCoarse("need at least 100 samples per period")
    if times is None:
        times = np.linspace(0.0, T, samples + 1)
    mats = drive.matrices(times)
    vals, rights = linalg.eig_batch(mats)
    dim = vals.shape[-1]
    lefts = np.empty_like(rights)

    # Left eigenvectors per sample, paired to the right ones.
    for k in range(len(times)):
        dec = linalg.eig(mats[k])
        # map canonical-order decomposition onto this sample's batch order
        perm = _match_values(dec.eigenvalues, vals[k])
        rights[k] = dec.right[:, perm]
        lefts[k] = dec.left[:, perm]
        vals[k] = dec.eigenvalues[perm]

    order = np.arange(dim)
    defective = np.zeros(len(times), dtype=bool)
    out_vals = np.empty_like(vals)
    out_r = np.empty_like(rights)
    out_l = np.empty_like(lefts)
    out_vals[0] = vals[0]
    out_r[0] = rights[0]
    out_l[0] = lefts[0]

    scale = 1.0 + np.abs(vals).max()
    for k in range(1, len(times)):
        prev_v = out_vals[k - 1]
        prev_r = out_r[k - 1]
        cost = np.abs(prev_v[:, None] - vals[k][None, :]) / scale
        overlap = np.abs(prev_r.conj().T @ rights[k])
        # eigenvalue distance decides; overlap breaks near-ties
        rows, cols = linear_sum_assignment(cost + 1e-9 * (1.0 - overlap))
        assignment = np.empty(dim, dtype=int)
        assignment[rows] = cols
        # ambiguity diagnostic: two candidates within 1e-12 and overlaps tied
        for i in range(dim):
            d = np.sort(cost[i])
            if d.size > 1 and d[1] - d[0] < 1e-12 / scale:
                ov = np.sort(overlap[i])[::-1]
                if ov.size > 1 and abs(ov[0] - ov[1]) < 1e-6:
                    defective[k] = True
        out_vals[k] = vals[k][assignment]
        out_r[k] = rights[k][:, assignment]
        out_l[k] = lefts[k][:, assignment]

    if defective.sum() > max(3, samples // 20):
        raise SampleTooCoarse(
            f"{int(defective.sum())} ambiguous samples out of {samples + 1}"
        )

    # Closing permutation: branch j at the end corresponds to the branch
    # whose eigenvalue at the start matches out_vals[-1, j].
    permutation = _match_values(out_vals[-1], out_vals[0])
    return SheetTrack(
        times=times,
        values=out_vals,
        rights=out_r,
        lefts=out_l,
        permutation=permutation,
        defective_samples=defective,
    )


def _match_values(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Permutation p with dst[p[j]] closest to src[j], one-to-one."""
    cost = np.abs(np.asarray(src)[:, None] - np.asarray(dst)[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(len(dst), dtype=int)
    perm[rows] = cols
    return perm


# -- projection ----------------------------------------------------------------


def project_trajectory(traj: TrajectoryRecord, drive: PathDrive) -> TrajectoryRecord:
    """Fill spectral projection, biorthogonal populations and sheet indices.

    The projection is the overlap-weighted mean of instantaneous
    eigenvalues, sum_i |<chi_i|psi>|^2 E_i / sum_i |<chi_i|psi>|^2, with
    chi_i the left eigenvectors.  Populations come from the biorthogonal
    expansion in the smoothly tracked frame; the sheet index is the branch
    with maximal population weight.
    """
    T = float(traj.times[-1])
    if len(traj.times) < 101:
        raise SampleTooCoarse("trajectory has too few records for sheet tracking")
    track = track_sheets(drive, T, len(traj.times) - 1, times=traj.times)

    n = len(traj.times)
    dim = traj.states.shape[1]
    projected = np.empty(n, dtype=complex)
    populations = np.empty((n, dim), dtype=complex)
    sheet = np.empty(n, dtype=int)
    for k in range(n):
        psi = traj.states[k]
        lw = track.lefts[k]
        weights = np.abs(lw.conj().T @ psi) ** 2
        total = weights.sum()
        if total < 1e-14:
            raise ProjectionUndefined(f"all branch overlaps vanish at t={traj.times[k]}")
        projected[k] = (weights @ track.values[k]) / total
        # biorthogonal coefficients: c_j = <chi_j|psi> / <chi_j|psi_j>
        denom = np.einsum("ij,ij->j", lw.conj(), track.rights[k])
        raw = lw.conj().T @ psi
        coeff = np.where(np.abs(denom) > 1e-14, raw / denom, 0.0)
        populations[k] = coeff
        sheet[k] = int(np.argmax(np.abs(coeff)))
    traj.projected = projected
    traj.populations = populations
    traj.sheet_index = sheet
    return traj


# -- couplings -----------------------------------------------------------------


def nonadiabatic_couplings(drive: PathDrive, t: float, dt: float) -> np.ndarray:
    """Coupling matrix K[n, m] = <chi_n(t)| d/dt |psi_m(t)> by central FD.

    The frames at t - dt, t, t + dt are branch-matched and phase-aligned
    (positive overlap with the center frame) before differencing, and the
    left eigenvectors are rescaled so <chi_n|psi_n> = 1.
    """
    mats = drive.matrices(np.array([t - dt, t, t + dt]))
    decs = [linalg.eig(m) for m in mats]
    center = decs[1]
    frames = []
    for dec in (decs[0], decs[2]):
        perm = _match_values(center.eigenvalues, dec.eigenvalues)
        r = dec.right[:, perm]
        # phase alignment against the center frame
        for j in range(r.shape[1]):
            ov = np.vdot(center.right[:, j], r[:, j])
            if abs(ov) < 0.1:
                raise GaugeDiscontinuity(
                    f"branch {j} changes too fast across dt={dt}"
                )
            r[:, j] *= ov.conjugate() / abs(ov)
        frames.append(r)
    dpsi = (frames[1] - frames[0]) / (2.0 * dt)
    chi = center.left.copy()
    for j in range(chi.shape[1]):
        denom = np.vdot(chi[:, j], center.right[:, j])
        if abs(denom) < 1e-14:
            raise GaugeDiscontinuity(f"biorthogonal norm vanishes for branch {j}")
        chi[:, j] /= denom.conjugate()
    return chi.conj().T @ dpsi


# -- fidelities and chirality ----------------------------------------------------


def uhlmann_fidelity_2x2(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Closed-form Uhlmann fidelity for 2x2 density matrices."""
    t = float(np.trace(rho @ sigma).real)
    d = float(np.linalg.det(rho).real) * float(np.linalg.det(sigma).real)
    return float(np.clip(t + 2.0 * math.sqrt(max(d, 0.0)), 0.0, 1.0))


def hermitize_density(vec4: np.ndarray):
    """Hermitian, unit-trace, PSD-clamped matrix from a vectorized state.

    Returns None when the Hermitized matrix is effectively traceless, in
    which case it cannot represent a physical state.
    """
    r = linalg.unvec_row(vec4)
    r = 0.5 * (r + r.conj().T)
    tr = float(np.trace(r).real)
    if abs(tr) < 1e-9 * np.linalg.norm(r):
        return None
    r = r / tr
    w, v = np.linalg.eigh(r)
    w = np.clip(w, 0.0, None)
    r = (v * w) @ v.conj().T
    return r / float(np.trace(r).real)


def branch_populations(dec: linalg.SpectralDecomposition, psi: np.ndarray) -> np.ndarray:
    """Normalized biorthogonal weights |c_n|^2 / sum |c_m|^2."""
    c = np.empty(dec.dim, dtype=complex)
    for j in range(dec.dim):
        denom = np.vdot(dec.left[:, j], dec.right[:, j])
        c[j] = np.vdot(dec.left[:, j], psi) / denom if abs(denom) > 1e-14 else 0.0
    p = np.abs(c) ** 2
    total = p.sum()
    if total <= 0:
        raise ProjectionUndefined("state has no weight on any branch")
    return p / total


def state_branch_fidelity(
    dec: linalg.SpectralDecomposition, state: np.ndarray, branch: int, kind: str
) -> float:
    """How much the (unit) state looks like the given instantaneous branch.

    Hamiltonian runs use the normalized biorthogonal population, the only
    basis-consistent weight when the branches are non-orthogonal.
    Liouvillian runs use the Uhlmann fidelity between the trace-normalized
    state and the Hermitized branch eigenmatrix; branches that are
    effectively traceless cannot host a physical state and score zero.
    """
    if kind == "schrodinger":
        return float(branch_populations(dec, state)[branch])
    rho = hermitize_density(state)
    target = hermitize_density(dec.right[:, branch])
    if rho is None or target is None:
        return 0.0
    return uhlmann_fidelity_2x2(rho, target)


def adiabaticity_estimate(drive: PathDrive, T: float, samples: int = 720) -> AdiabaticityEstimate:
    ts = np.linspace(0.0, T, samples + 1)
    vals, _ = linalg.eig_batch(drive.matrices(ts))
    dim = vals.shape[-1]
    gap = np.full(len(ts), np.inf)
    for i in range(dim):
        for j in range(i + 1, dim):
            gap = np.minimum(gap, np.abs(vals[:, i] - vals[:, j]))
    min_gap = float(gap.min())
    return AdiabaticityEstimate(
        min_real_gap=min_gap, dimensionless_ratio=float(T * min_gap)
    )


def initial_state_on_branch(drive: PathDrive, branch: int):
    """Instantaneous eigenstate (or Hermitized eigenmatrix) at t = 0."""
    dec = linalg.eig(drive.matrix(0.0))
    if drive.model.kind == "hamiltonian":
        return dec.right[:, branch], dec
    rho = hermitize_density(dec.right[:, branch])
    if rho is None:
        raise ValueError(f"branch {branch} is traceless; cannot prepare a state")
    return linalg.vec_row(rho), dec


def resolve_branch(drive: PathDrive, spec_name) -> int:
    """Branch selector: 'upper'/'lower' by real part, 'quasi_steady', or an index."""
    dec = linalg.eig(drive.matrix(0.0))
    # canonical order sorts by descending real part
    named = {"upper": 0, "lower": dec.dim - 1, "quasi_steady": quasi_steady_index(dec)}
    return pick_index(spec_name, named, dec.dim, "branch")


def classify_chirality(
    drive: PathDrive,
    T: float,
    initial_branch,
    steps: int | None = None,
    check_steps: bool = False,
) -> ChiralityReport:
    """Run one full loop both ways and compare final states against branches.

    The path period is set to T (a single cycle).  The verdict is chiral
    when one direction returns to the initial branch with fidelity > 0.9
    while the other leaves it below 0.5; non-chiral when both return above
    0.9; ambiguous otherwise.  The report keeps both runs, so callers that
    also want the trajectories never integrate a loop again.
    """
    import dataclasses

    drive = dataclasses.replace(
        drive, path=dataclasses.replace(drive.path, period=T)
    )
    branch = resolve_branch(drive, initial_branch)
    x0, dec0 = initial_state_on_branch(drive, branch)
    if steps is None:
        steps = default_steps(drive, T)

    results = {}
    runs = {}
    for direction in ("ccw", "cw"):
        d = drive.with_direction(direction)
        if drive.model.kind == "hamiltonian":
            traj = integrate_schrodinger(d, x0, T, steps, check_steps=check_steps)
        else:
            traj = integrate_liouvillian(d, x0, T, steps, check_steps=check_steps)
        runs[direction] = traj
        final = traj.states[-1]
        dec_T = linalg.eig(d.matrix(T))
        # identify "the initial branch" at the returning parameter point by
        # eigenvalue proximity to the t=0 labels
        perm = _match_values(dec0.eigenvalues, dec_T.eigenvalues)
        fid = [
            state_branch_fidelity(dec_T, final, perm[j], traj.kind)
            for j in range(dec_T.dim)
        ]
        fid_initial = fid[branch]
        others = [f for j, f in enumerate(fid) if j != branch]
        results[direction] = (fid_initial, max(others))

    ccw_i, ccw_o = results["ccw"]
    cw_i, cw_o = results["cw"]
    if (ccw_i > 0.9 and cw_i < 0.5) or (cw_i > 0.9 and ccw_i < 0.5):
        verdict = "chiral"
    elif ccw_i > 0.9 and cw_i > 0.9:
        verdict = "non_chiral"
    else:
        verdict = "ambiguous"
    return ChiralityReport(
        ccw_final_fidelity_to_initial_branch=ccw_i,
        ccw_final_fidelity_to_other_branch=ccw_o,
        cw_final_fidelity_to_initial_branch=cw_i,
        cw_final_fidelity_to_other_branch=cw_o,
        verdict=verdict,
        adiabaticity=adiabaticity_estimate(drive, T),
        runs=runs,
    )


def default_steps(drive: PathDrive, T: float) -> int:
    """Step count keeping h at or below 0.05 in inverse-rate units.

    The rate scale is the largest generator entry magnitude along the path.
    The factor is calibrated so the step-doubling drift of recorded state
    directions stays below 1e-6 for every bundled scenario; halving it
    again changes nothing at that tolerance and quintuples the cost of the
    slow-loop scans.
    """
    probe = drive.matrices(np.linspace(0.0, T, 65))
    rate = float(np.max(np.abs(probe)))
    h_max = min(0.05 / max(rate, 1e-12), 0.1)
    return max(100, int(math.ceil(T / h_max)))


def scan_periods(
    drive: PathDrive,
    periods,
    initial_branch,
    steps_per_period: float | None = None,
) -> list[tuple[float, ChiralityReport]]:
    """Chirality classification over a list of loop periods."""
    out = []
    for T in periods:
        steps = None
        if steps_per_period is not None:
            steps = max(100, int(T * steps_per_period))
        out.append((float(T), classify_chirality(drive, T, initial_branch, steps=steps)))
    return out
