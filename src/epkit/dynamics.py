"""Time integration along parametric paths, sheet tracking and chirality.

The linear equations of motion x' = A(t) x are integrated by the fixed-step
fourth-order commutator-free Magnus method (CF4) for bit-reproducible
trajectories.  Each step is a product of two matrix exponentials of the
generator sampled at the step's Gauss points, so the step propagators of a
whole stretch of the path come from one batched exponential, and those of
each record interval are composed in log depth; the remaining
strictly-sequential work is one small matrix-vector product per block.
The default step count keeps h rate <= STEP_RATE and records at the times
k T / (MAX_RECORDS - 1).

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
from .errors import ProjectionUndefined, SampleTooCoarse, StepTooCoarse
from .models import BLOCH, PathDrive, pick_index
from .spectra import quasi_steady_index

# Largest number of recorded samples per trajectory; integration runs at
# full step resolution regardless.
MAX_RECORDS = 4097

# Step-doubling agreement required on recorded state directions.
STEP_DOUBLING_TOL = 1e-6

# Gauss-Legendre nodes of a step and the weights a1, a2 of the fourth-order
# commutator-free Magnus integrator (Blanes and Moan, Appl. Numer. Math. 56,
# 2006).
_GAUSS = np.array([0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0])
_CF4_WEIGHTS = ((3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0)
_LN2 = math.log(2.0)

# Default steps keep h rate <= STEP_RATE, rate the largest generator entry
# along the path.  CF4 converges while h ||A|| < pi; calibrated by step
# doubling (see default_steps).
STEP_RATE = 2.5

# A composed block spans at most this much len h rate (rate the largest
# generator entry), which bounds how far the modes of one block propagator
# can grow apart; the state is renormalized after every block.
BLOCK_RATE = 16.0

# Steps whose propagators are held at once: whole record intervals up to
# this many steps make one chunk.
CHUNK_STEPS = 4096


@dataclass
class TrajectoryRecord:
    """Recorded time series of an integration run.

    states holds unit-normalized snapshots; norm[i] = exp(log_norm[i]) is
    the true state norm (0.0 after underflow, by design).  projected,
    sheet_index, populations and the count of ambiguous sheet-tracking
    samples are filled by project_trajectory.  A
    "meanfield" run (``rydberg.transfer_verdict``) holds the states
    (rho22, rho21) as integrated, their hypot as norm, log_norm 0 and
    rho22 as sheet_index.  steps counts the steps integrated, a check's
    rerun included: three times the run's steps under CF4 step doubling,
    the attempts of both runs of a mean-field loop.  drift is the check's.
    """

    times: np.ndarray
    states: np.ndarray  # (n, dim), unit rows
    norm: np.ndarray
    log_norm: np.ndarray
    kind: str  # "schrodinger" | "liouvillian" | "meanfield"
    projected: np.ndarray | None = None  # weighted spectral projection
    sheet_index: np.ndarray | None = None  # mean-field runs: the population
    populations: np.ndarray | None = None  # biorthogonal coefficients (n, dim)
    steps: int | None = None
    drift: float | None = None  # None when unchecked
    ambiguous: int | None = None


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


def _generators(drive: PathDrive, times: np.ndarray) -> np.ndarray:
    mats = drive.matrices(times)
    if drive.model.kind == "hamiltonian":
        return -1j * mats
    return mats


def _integrate(drive: PathDrive, x0: np.ndarray, T: float, steps: int):
    """Fixed-step CF4, walked one block of composed steps at a time.

    Returns (record times, unit states, log norms).
    """
    h = T / steps
    rec = _record_indices(steps)
    states = np.empty((len(rec), x0.shape[0]), dtype=complex)
    log_norms = np.empty(len(rec))

    x = np.array(x0, dtype=complex)
    n0 = np.linalg.norm(x)
    x /= n0
    log_norm = math.log(n0)
    states[0] = x
    log_norms[0] = log_norm

    # whole record intervals per chunk; rec[1] is the record stride
    per_chunk = max(1, CHUNK_STEPS // int(rec[1]))
    for i0 in range(0, len(rec) - 1, per_chunk):
        blocks, exps, ends = _cf4_blocks(drive, h, rec[i0:i0 + per_chunk + 1])
        for block, k, pos in zip(blocks, exps.tolist(), ends.tolist()):
            x = block @ x
            sq = np.vdot(x, x).real
            if not 1e-200 < sq < 1e200:
                top = float(np.abs(x).max())
                # dividing by a subnormal top overflows: the state is lost
                if not np.finfo(float).tiny <= top < math.inf:
                    raise StepTooCoarse(
                        f"the state vanished within {steps} steps; take more steps"
                    )
                x /= top
                k += math.log2(top)
                sq = np.vdot(x, x).real
            n = math.sqrt(sq)
            x /= n
            log_norm += math.log(n) + k * _LN2
            if pos:
                states[i0 + pos] = x
                log_norms[i0 + pos] = log_norm
    return rec * h, states, log_norms


def _cf4_blocks(drive: PathDrive, h: float, bounds: np.ndarray):
    """Composed CF4 propagators between consecutive record indices ``bounds``.

    Each step is exp(h(a1 A1 + a2 A2)) exp(h(a2 A1 + a1 A2)) with A1, A2 the
    generator at the Gauss points of the step; the factor weighted towards
    A1 acts first.  Each record interval is cut into blocks of at most
    BLOCK_RATE / (h rate) steps, rate the largest generator entry, and a
    block's propagator is the log-depth product of its step factors.
    Returns the block propagators and their power-of-two exponents in time
    order, and for each block the position in ``bounds`` of the record it
    ends on (0 for none).
    """
    s0, s1 = int(bounds[0]), int(bounds[-1])
    gens = _generators(drive, h * (np.arange(s0, s1)[:, None] + _GAUSS).ravel())
    dim = gens.shape[-1]
    gens = gens.reshape(-1, 2, dim, dim)
    h_rate = h * float(np.abs(gens).max())
    if not h_rate * dim < 1e300:
        raise StepTooCoarse(f"step {h:.3g} is too coarse for generator entries {h_rate / h:.3g}")
    g1, g2 = gens[:, 0], gens[:, 1]
    a1, a2 = _CF4_WEIGHTS
    factors, fexps = linalg.expm_batch_scaled(
        h * np.stack([a2 * g1 + a1 * g2, a1 * g1 + a2 * g2], axis=1)
    )
    factors, fexps = factors.reshape(-1, dim, dim), fexps.reshape(-1)  # in order of action

    count = s1 - s0
    size = count if h_rate * count <= BLOCK_RATE else max(1, int(BLOCK_RATE / h_rate))
    lo, hi = bounds[:-1], bounds[1:]
    per = -(-(hi - lo) // size)  # blocks in each record interval
    first_block = np.cumsum(per) - per
    starts = np.repeat(lo, per) + size * (np.arange(per.sum()) - np.repeat(first_block, per))
    lengths = np.minimum(starts + size, np.repeat(hi, per)) - starts
    blocks = np.empty((len(starts), dim, dim), dtype=complex)
    exps = np.empty(len(starts))
    for length in sorted(set(lengths.tolist())):
        sel = lengths == length
        idx = 2 * (starts[sel] - s0)[:, None] + np.arange(2 * length)
        blocks[sel], exps[sel] = linalg.chain_batch(factors[idx], fexps[idx])
    ends = np.zeros(len(starts), dtype=int)
    ends[first_block + per - 1] = np.arange(1, len(bounds))
    return blocks, exps, ends


def integrate_schrodinger(
    drive: PathDrive, psi0: np.ndarray, T: float, steps: int, check_steps: bool = False
) -> TrajectoryRecord:
    """Schrodinger evolution i d/dt psi = H(t) psi (hbar = 1) by CF4."""
    return _evolve("schrodinger", drive, psi0, T, steps, check_steps)


def integrate_liouvillian(
    drive: PathDrive, rho0: np.ndarray, T: float, steps: int, check_steps: bool = False
) -> TrajectoryRecord:
    """Master-equation evolution d/dt vec(rho) = L(t) vec(rho) by CF4.

    ``rho0`` is a vectorized state or a density matrix, which is validated
    and vectorized first.
    """
    return _evolve("liouvillian", drive, rho0, T, steps, check_steps)


def _evolve(
    kind: str, drive: PathDrive, x0, T: float, steps: int, check_steps: bool
) -> TrajectoryRecord:
    """One CF4 run of a record kind, optionally checked by step doubling."""
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
    drift = None
    if check_steps:
        drift = _check_step_doubling(steps, states, _integrate(drive, x0, T, 2 * steps)[1])
    return TrajectoryRecord(
        times=times,
        states=states,
        norm=_safe_exp(log_norms),
        log_norm=log_norms,
        kind=kind,
        steps=3 * steps if check_steps else steps,  # the rerun takes 2 * steps
        drift=drift,
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


def _check_step_doubling(steps: int, states1, states2) -> float:
    """Compare state directions at every step both runs recorded.

    Step i of the run at ``steps`` is step 2i of the doubled run; a
    non-finite drift fails.  Returns the worst drift 1 - |<a|b>|.
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
    return worst


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


def track_sheets(times: np.ndarray, dec: linalg.SpectralDecomposition) -> SheetTrack:
    """Match eigenvalue branches continuously along sampled path points.

    ``dec`` is the stacked eigendecomposition at ``times``.  One batched
    assignment covers every sample; only the composition of the matchings
    runs sample by sample.
    """
    samples = len(times) - 1
    if samples < 100:
        raise SampleTooCoarse("need at least 100 samples per period")
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
    # whose eigenvalue at the start is closest to out_vals[-1, j].
    permutation = linalg.assign(np.abs(out_vals[-1][:, None] - out_vals[0][None, :]))
    return SheetTrack(
        times=times,
        values=out_vals,
        rights=np.take_along_axis(rights, order[:, None, :], axis=-1),
        lefts=np.take_along_axis(dec.left, order[:, None, :], axis=-1),
        permutation=permutation,
        defective_samples=defective,
    )


# -- projection ----------------------------------------------------------------


def _coefficients(lefts: np.ndarray, rights: np.ndarray, psi: np.ndarray):
    """Overlaps <chi_j|psi> and biorthogonal coefficients
    c_j = <chi_j|psi> / <chi_j|psi_j> (0 where the denominator is below
    1e-14), eigenvectors in columns; broadcasts over leading axes."""
    raw = (lefts.conj().swapaxes(-1, -2) @ np.asarray(psi)[..., None])[..., 0]
    denom = np.einsum("...ij,...ij->...j", lefts.conj(), rights)
    big = np.abs(denom) > 1e-14
    return raw, np.divide(raw, denom, out=np.zeros_like(raw), where=big)


def project_trajectory(
    traj: TrajectoryRecord, dec: linalg.SpectralDecomposition
) -> TrajectoryRecord:
    """Fill spectral projection, biorthogonal populations and sheet indices.

    ``dec`` is the stacked eigendecomposition at the record times.  The
    projection is the overlap-weighted mean of instantaneous eigenvalues,
    sum_i |<chi_i|psi>|^2 E_i / sum_i |<chi_i|psi>|^2, with chi_i the left
    eigenvectors.  Populations come from the biorthogonal expansion in the
    smoothly tracked frame; the sheet index is the branch with maximal
    population weight.
    """
    track = track_sheets(traj.times, dec)
    traj.ambiguous = int(track.defective_samples.sum())

    raw, traj.populations = _coefficients(track.lefts, track.rights, traj.states)
    weights = np.abs(raw) ** 2
    total = weights.sum(axis=-1)
    if (total < 1e-14).any():
        t = traj.times[np.argmax(total < 1e-14)]
        raise ProjectionUndefined(f"all branch overlaps vanish at t={t}")
    traj.projected = (weights[:, None, :] @ track.values[..., None])[:, 0, 0] / total
    traj.sheet_index = np.argmax(np.abs(traj.populations), axis=-1)
    return traj


def decompose_path(drive: PathDrive, times) -> linalg.SpectralDecomposition:
    """The stacked eigendecomposition of the drive at ``times``, with its
    vectors in the basis the states are integrated in.

    A Liouvillian is solved on its real Bloch form, where LAPACK returns
    exact conjugate pairs and exactly real eigenvalues, so the canonical
    order of a pair is defined rather than left to rounding; its right and
    left vectors are then mapped back to the row-major basis by the unitary
    BLOCH^dag, which keeps every overlap and every |<chi|psi>|^2.
    """
    if drive.model.kind == "hamiltonian":
        return linalg.eig(drive.matrices(times))
    dec = linalg.eig(drive.bloch_matrices(times))
    back = BLOCH.conj().T
    return replace(dec, right=back @ dec.right, left=back @ dec.left)


def project_loop(report: ChiralityReport, drive: PathDrive, steps: int, directions) -> dict:
    """Project the judged runs of ``directions`` in place; returns the
    manifest counters of their sheet tracking.

    The loop ends at its start, and cw(t) = ccw(T - t) with T the drive's
    period, so record k of either direction reads the ccw generator at step
    (+-rec[k]) % steps: one decomposition (``decompose_path``) at the ccw
    steps the records need serves every direction, and both ends of each
    loop take step 0, the exact start.  Step ``steps`` equals it only to
    rounding; it is never decomposed.
    """
    rec = _record_indices(steps)
    need = {d: (rec if d == "ccw" else -rec) % steps for d in directions}
    at = np.sort(np.concatenate(list(need.values())))
    at = at[np.diff(at, prepend=-1) > 0]
    dec = decompose_path(drive.with_direction("ccw"), at * (drive.path.period / steps))
    for direction, idx in need.items():
        k = np.searchsorted(at, idx)
        project_trajectory(report.runs[direction], replace(
            dec, eigenvalues=dec.eigenvalues[k], right=dec.right[k], left=dec.left[k],
            frobenius=dec.frobenius[k]))
    return {"track_sheets.ambiguous": sum(report.runs[d].ambiguous for d in directions)}


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
    if not abs(tr) > 1e-9 * np.linalg.norm(r):  # a zero Hermitian part too
        return None
    r = r / tr
    w, v = np.linalg.eigh(r)
    w = np.clip(w, 0.0, None)
    r = (v * w) @ v.conj().T
    return r / float(np.trace(r).real)


def branch_populations(dec: linalg.SpectralDecomposition, psi: np.ndarray) -> np.ndarray:
    """Normalized biorthogonal weights |c_n|^2 / sum |c_m|^2."""
    p = np.abs(_coefficients(dec.left, dec.right, psi)[1]) ** 2
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


def adiabaticity_estimate(drive: PathDrive) -> AdiabaticityEstimate:
    """Smallest eigenvalue gap at 721 times of one period, and that gap times the period."""
    T = drive.path.period
    vals = linalg.eigvals_batch(drive.matrices(np.linspace(0.0, T, 721)))
    i, j = np.triu_indices(vals.shape[-1], 1)
    min_gap = float(np.abs(vals[:, i] - vals[:, j]).min(initial=np.inf))
    return AdiabaticityEstimate(
        min_real_gap=min_gap, dimensionless_ratio=float(T * min_gap)
    )


def initial_state_on_branch(drive: PathDrive, branch):
    """Start of a loop on a branch spec (a name, or an index in canonical
    order, by descending real part): the eigenstate (or Hermitized
    eigenmatrix) at t = 0, the t = 0 decomposition and the branch index."""
    dec = linalg.eig(drive.matrix(0.0))
    named = {"upper": 0, "lower": dec.dim - 1, "quasi_steady": quasi_steady_index(dec)}
    index = pick_index(branch, named, dec.dim, "branch")
    if drive.model.kind == "hamiltonian":
        return dec.right[:, index], dec, index
    rho = hermitize_density(dec.right[:, index])
    if rho is None:
        raise ValueError(f"branch {index} is traceless; cannot prepare a state")
    return linalg.vec_row(rho), dec, index


def classify_chirality(
    drive: PathDrive, start, steps: int, check_steps: bool = False
) -> ChiralityReport:
    """Run one full loop both ways and compare final states against branches.

    ``start`` is the loop start that ``initial_state_on_branch`` resolves,
    and ``steps`` the steps per direction.  Each run takes one period of
    the path.  A closed loop ends at its start, so both directions'
    final states are judged on the start's t = 0 decomposition, and the
    judgement decomposes nothing.  The verdict is chiral when one direction
    returns to the initial branch with fidelity > 0.9 while the other leaves
    it below 0.5; non-chiral when both return above 0.9; ambiguous
    otherwise.  The report keeps both runs, so callers that also want the
    trajectories never integrate a loop again.
    """
    T = drive.path.period
    x0, dec0, branch = start
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
        fid = [state_branch_fidelity(dec0, final, j, traj.kind) for j in range(dec0.dim)]
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
        adiabaticity=adiabaticity_estimate(drive),
        runs=runs,
    )


def step_rate(drive: PathDrive) -> float:
    """Rate that sets the default step count: the largest generator entry
    magnitude over 65 samples of one period of the drive's path."""
    return float(np.max(np.abs(drive.matrices(np.linspace(0.0, drive.path.period, 65)))))


def default_steps(rate: float, T: float) -> int:
    """Step count keeping h rate at or below STEP_RATE, in whole record grids.

    The count is a multiple of MAX_RECORDS - 1, so a default run records at
    the times k T / (MAX_RECORDS - 1) and its step-doubling check compares
    every record.
    """
    grid = MAX_RECORDS - 1
    return grid * max(1, math.ceil(T * rate / (STEP_RATE * grid)))


def scan_periods(
    drive: PathDrive, periods, initial_branch
) -> list[tuple[float, ChiralityReport]]:
    """Chirality classification over a list of loop periods, each at its
    default step count.  The start is resolved once: a loop's t = 0 point
    is its phase0 whatever its period, and it is also the point where each
    loop's verdict is judged."""
    start = initial_state_on_branch(drive, initial_branch)
    loops = [(T, replace(drive, path=replace(drive.path, period=T))) for T in periods]
    return [(float(T), classify_chirality(d, start, default_steps(step_rate(d), T)))
            for T, d in loops]
