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
from dataclasses import dataclass, field, replace

import numpy as np

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
    sheet_index: np.ndarray | None = None  # mean-field runs: the population
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
        _check_step_doubling(steps, states, _integrate(drive, x0, T, 2 * steps)[1])
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


def _check_step_doubling(steps: int, states1, states2) -> None:
    """Compare state directions at every step both runs recorded.

    Step i of the run at ``steps`` is step 2i of the doubled run; a
    non-finite drift fails.
    """
    _, k1, k2 = np.intersect1d(
        2 * _record_indices(steps), _record_indices(2 * steps), return_indices=True
    )
    if len(k1) < 2:
        raise StepTooCoarse("step-doubling runs share too few record times")
    overlaps = np.einsum("ij,ij->i", states1[k1].conj(), states2[k2])
    worst = float(np.max(1.0 - np.abs(overlaps)))
    if not worst <= STEP_DOUBLING_TOL:
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
    """Match eigenvalue branches continuously along the drive path.

    One stacked eigendecomposition and one batched assignment cover every
    sample; only the composition of the matchings runs sample by sample.
    """
    if samples < 100:
        raise SampleTooCoarse("need at least 100 samples per period")
    if times is None:
        times = np.linspace(0.0, T, samples + 1)
    dec = linalg.eig(drive.matrices(times))
    vals, rights = dec.eigenvalues, dec.right

    # cost[k - 1, a, j]: branch a at sample k - 1 against branch j at sample k
    scale = 1.0 + np.abs(vals).max()
    cost = np.abs(vals[:-1, :, None] - vals[1:, None, :]) / scale
    overlap = np.abs(rights[:-1].conj().swapaxes(-1, -2) @ rights[1:])
    # eigenvalue distance decides; overlap breaks near-ties
    step = linalg.assign(cost + 1e-9 * (1.0 - overlap))
    # ambiguity diagnostic: two candidates within 1e-12 and overlaps tied
    d, ov = np.sort(cost, axis=-1), np.sort(overlap, axis=-1)
    tied = (d[..., 1:2] - d[..., :1] < 1e-12 / scale) & (
        np.abs(ov[..., -1:] - ov[..., -2:-1]) < 1e-6
    )
    defective = np.concatenate([[False], tied.any(axis=(-2, -1))])
    if defective.sum() > max(3, samples // 20):
        raise SampleTooCoarse(
            f"{int(defective.sum())} ambiguous samples out of {samples + 1}"
        )

    # order[k, i]: the sample-k index of the branch labelled i at sample 0
    order = np.empty(vals.shape, dtype=int)
    order[0] = np.arange(vals.shape[-1])
    for k in range(1, len(times)):
        order[k] = step[k - 1][order[k - 1]]
    out_vals = np.take_along_axis(vals, order, axis=-1)

    # Closing permutation: branch j at the end corresponds to the branch
    # whose eigenvalue at the start matches out_vals[-1, j].
    permutation = _match_values(out_vals[-1], out_vals[0])
    return SheetTrack(
        times=times,
        values=out_vals,
        rights=np.take_along_axis(rights, order[:, None, :], axis=-1),
        lefts=np.take_along_axis(dec.left, order[:, None, :], axis=-1),
        permutation=permutation,
        defective_samples=defective,
    )


def _match_values(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Permutation p with dst[p[j]] closest to src[j], one-to-one; broadcasts."""
    return linalg.assign(np.abs(np.asarray(src)[..., :, None] - np.asarray(dst)[..., None, :]))


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

    # raw[k, j] = <chi_j|psi> at sample k
    raw = (track.lefts.conj().swapaxes(-1, -2) @ traj.states[..., None])[..., 0]
    weights = np.abs(raw) ** 2
    total = weights.sum(axis=-1)
    if (total < 1e-14).any():
        t = traj.times[np.argmax(total < 1e-14)]
        raise ProjectionUndefined(f"all branch overlaps vanish at t={t}")
    traj.projected = (weights[:, None, :] @ track.values[..., None])[:, 0, 0] / total
    # biorthogonal coefficients: c_j = <chi_j|psi> / <chi_j|psi_j>
    denom = np.einsum("kij,kij->kj", track.lefts.conj(), track.rights)
    traj.populations = np.where(np.abs(denom) > 1e-14, raw / denom, 0.0)
    traj.sheet_index = np.argmax(np.abs(traj.populations), axis=-1)
    return traj


# -- couplings -----------------------------------------------------------------


def nonadiabatic_couplings(drive: PathDrive, t: float, dt: float) -> np.ndarray:
    """Coupling matrix K[n, m] = <chi_n(t)| d/dt |psi_m(t)> by central FD.

    The frames at t - dt, t, t + dt are branch-matched and phase-aligned
    (positive overlap with the center frame) before differencing, and the
    left eigenvectors are rescaled so <chi_n|psi_n> = 1.
    """
    dec = linalg.eig(drive.matrices(np.array([t - dt, t, t + dt])))
    center = dec.right[1]
    perms = _match_values(dec.eigenvalues[1], dec.eigenvalues[[0, 2]])
    frames = np.take_along_axis(dec.right[[0, 2]], perms[:, None, :], axis=-1)
    # phase alignment against the center frame
    ov = np.einsum("ij,kij->kj", center.conj(), frames)
    if (np.abs(ov) < 0.1).any():
        j = int(np.argmax((np.abs(ov) < 0.1).any(axis=0)))
        raise GaugeDiscontinuity(f"branch {j} changes too fast across dt={dt}")
    frames = frames * (ov.conj() / np.abs(ov))[:, None, :]
    dpsi = (frames[1] - frames[0]) / (2.0 * dt)
    denom = np.einsum("ij,ij->j", dec.left[1].conj(), center)
    if (np.abs(denom) < 1e-14).any():
        j = int(np.argmax(np.abs(denom) < 1e-14))
        raise GaugeDiscontinuity(f"biorthogonal norm vanishes for branch {j}")
    chi = dec.left[1] / denom.conj()
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
    i, j = np.triu_indices(vals.shape[-1], 1)
    min_gap = float(np.abs(vals[:, i] - vals[:, j]).min(initial=np.inf))
    return AdiabaticityEstimate(
        min_real_gap=min_gap, dimensionless_ratio=float(T * min_gap)
    )


def initial_state_on_branch(drive: PathDrive, branch):
    """Eigenstate (or Hermitized eigenmatrix) at t = 0 on a branch spec."""
    dec = linalg.eig(drive.matrix(0.0))
    branch = _branch_index(dec, branch)
    if drive.model.kind == "hamiltonian":
        return dec.right[:, branch], dec
    rho = hermitize_density(dec.right[:, branch])
    if rho is None:
        raise ValueError(f"branch {branch} is traceless; cannot prepare a state")
    return linalg.vec_row(rho), dec


def resolve_branch(drive: PathDrive, spec_name) -> int:
    """Branch selector: 'upper'/'lower' by real part, 'quasi_steady', or an index."""
    return _branch_index(linalg.eig(drive.matrix(0.0)), spec_name)


def _branch_index(dec, spec_name) -> int:
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
    drive = replace(drive, path=replace(drive.path, period=T))
    x0, dec0 = initial_state_on_branch(drive, initial_branch)
    branch = _branch_index(dec0, initial_branch)
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
