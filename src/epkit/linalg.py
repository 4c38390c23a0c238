"""Dense linear algebra for small complex or real matrices (dim <= 16).

Provides the full right/left eigendecomposition with biorthogonal pairing,
coalescence diagnostics for locating non-diagonalizable (exceptional) points,
the characteristic polynomial, row-major vectorization helpers used to
represent superoperators as matrices, and batched matrix exponentials and
chain products for the time integrators.

Conventions
-----------
* Eigenvalues are sorted by descending real part, ties by ascending
  imaginary part, so the slowest-decaying mode of a generator comes first.
* Right and left eigenvectors have unit Euclidean norm and the first
  significant component rotated onto the positive real axis, which makes
  outputs deterministic across runs.
* Left eigenvectors are right eigenvectors of the conjugate transpose,
  index-matched to the right ones by maximal |<l|r>| (eigenvalue proximity
  breaks ties).  ``assign`` is the one assignment solver.
* ``eig`` takes one matrix or a stack; a stacked matrix gets exactly the
  result of a lone call, as LAPACK solves every stacked matrix on its own.
* ``eig_batch`` and ``eigvals_batch`` keep a ``float`` stack real, so LAPACK
  runs its real solver (dgeev) and returns exact conjugate pairs, which the
  tie rule orders by ascending imaginary part; every other input is solved
  as complex.  Both return complex arrays.
* ``expm_batch_scaled`` and ``chain_batch`` return a matrix M as a pair
  (E, k) with M = 2**k E and the largest |Re| or |Im| of E in [0.5, 1):
  products of many exponentials neither overflow nor underflow, and the
  power-of-two rescaling is exact.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooLarge, NonConvergence

MAX_DIM = 16

# Clusters closer than EIG_CLUSTER_TOL * (1 + ||m||_F) with eigenvector
# overlap above 1 - COALESCENCE_TOL are flagged defective; this matches the
# accuracy attainable in double precision near a square-root branch point.
EIG_CLUSTER_TOL = 1e-7
COALESCENCE_TOL = 1e-6

# ep_condition = 1/sigma_min of the right-eigenvector matrix, capped here.
EP_CONDITION_CAP = 1e16

# The permutations of range(n) in lexicographic order, for n <= 4.
_PERMUTATIONS = {n: np.array(list(itertools.permutations(range(n))), dtype=int) for n in range(5)}


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues with paired right/left eigenvectors and EP diagnostics.

    A stacked decomposition carries its input's leading axes on every field.

    Attributes:
        eigenvalues: shape (dim,), canonical order (Re desc, Im asc).
        right: shape (dim, dim), right eigenvectors as columns.
        left: shape (dim, dim), left eigenvectors as columns; left[:, i]
            satisfies m^dag @ left[:, i] = conj(eigenvalues[i]) * left[:, i].
        frobenius: ||m||_F, the scale of the ``defective`` tolerance.
    """

    eigenvalues: np.ndarray
    right: np.ndarray
    left: np.ndarray
    frobenius: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[-1]

    @property
    def defective(self) -> np.ndarray:
        """Shape (dim,) bools, True for members of a coalescing eigenvalue
        cluster: a pair with close eigenvalues and near-parallel right
        vectors.  Computed when read."""
        vals, vecs = self.eigenvalues, self.right
        tol = EIG_CLUSTER_TOL * (1.0 + self.frobenius)[..., None, None]
        gap = vals[..., :, None] - vals[..., None, :]
        gram = vecs.conj().swapaxes(-1, -2) @ vecs
        pairs = np.triu((np.hypot(gap.real, gap.imag) < tol)
                        & (np.hypot(gram.real, gram.imag) > 1.0 - COALESCENCE_TOL), k=1)
        return pairs.any(axis=-1) | pairs.any(axis=-2)

    @property
    def ep_condition(self):
        """Inverse of the minimal singular value of ``right``, capped at
        EP_CONDITION_CAP; large values signal proximity to an exceptional
        point.  One value per matrix, computed (by an SVD) when read."""
        smin = np.linalg.svd(self.right, compute_uv=False)[..., -1]
        with np.errstate(divide="ignore"):
            cond = np.minimum(1.0 / smin, EP_CONDITION_CAP)
        return cond if cond.ndim else float(cond)


def _require_finite(m: np.ndarray, what: str = "matrix") -> None:
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{what} contains NaN or Inf entries")


def as_matrix(m) -> np.ndarray:
    """Validate and return a square complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    _require_finite(a)
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product; satisfies vec_row(A X B) = (A kron B^T) vec_row(X)."""
    return np.kron(as_matrix(a), as_matrix(b))


def vec_row(rho) -> np.ndarray:
    """Row-major vectorization: a 2x2 matrix maps to (r11, r12, r21, r22)."""
    a = np.asarray(rho, dtype=complex)
    return a.reshape(-1)


def unvec_row(v) -> np.ndarray:
    """Inverse of vec_row."""
    a = np.asarray(v, dtype=complex).reshape(-1)
    d = int(round(np.sqrt(a.size)))
    if d * d != a.size:
        raise ValueError(f"vector length {a.size} is not a perfect square")
    return a.reshape(d, d)


def canonical_order(values: np.ndarray) -> np.ndarray:
    """Index array sorting eigenvalues by Re descending, then Im ascending."""
    return np.lexsort((values.imag, -values.real), axis=-1)


def fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its first significant component is real positive.

    Columns are assumed unit-norm; ``vectors`` may be stacked (..., n, m).
    "Significant" means at least 1e-8 of the largest component, so the
    anchor does not jump under tiny perturbations.
    """
    v = np.array(vectors, dtype=complex)
    mags = np.abs(v)
    anchor = np.argmax(mags >= 1e-8 * mags.max(axis=-2, keepdims=True), axis=-2)
    a = np.take_along_axis(v, anchor[..., None, :], axis=-2)
    # |a| by hypot rounds like the scalar abs(); np.abs on arrays may not
    size = np.hypot(a.real, a.imag)
    v *= np.divide(a.conj(), size, out=np.ones_like(a), where=size > 0)
    return v


def char_poly(m) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first.

    ``m`` is one matrix or a stack (..., n, n); the coefficients of each
    matrix lie on the last axis, and a stacked matrix gets exactly the
    result of a lone call.  Uses the Faddeev-LeVerrier recursion; exact in
    rational arithmetic, and well conditioned for the small dimensions
    supported here.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack, got shape {a.shape}")
    _require_finite(a)
    n = a.shape[-1]
    if n > MAX_DIM:
        raise DimensionTooLarge(f"dim {n} exceeds the supported maximum {MAX_DIM}")
    coeffs = np.empty(a.shape[:-2] + (n + 1,), dtype=complex)
    coeffs[..., 0] = 1.0
    aux = np.zeros_like(a)
    eye = np.eye(n, dtype=complex)
    for k in range(1, n + 1):
        aux = a @ aux + coeffs[..., k - 1, None, None] * eye
        coeffs[..., k] = -np.trace(a @ aux, axis1=-2, axis2=-1) / k
    return coeffs


def eig(m) -> SpectralDecomposition:
    """Full right/left eigendecomposition with coalescence diagnostics.

    ``m`` is one matrix or a stack (..., n, n).  Eigenvectors come from the
    LAPACK Hessenberg-QR path, which meets the residual contract
    ||m v - lambda v|| <= 1e-9 (1 + ||m||_F) for all non-defective
    eigenpairs.
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack, got shape {a.shape}")
    _require_finite(a)
    n = a.shape[-1]
    if n > MAX_DIM:
        raise DimensionTooLarge(f"dim {n} exceeds the supported maximum {MAX_DIM}")

    # Left vectors come from a second eigensolve of m^dag, not from the rows
    # of the inverse of the right-vector matrix: at an exceptional point
    # that matrix is singular (exactly so for a Jordan block), while the
    # second solve still gives finite unit vectors within the residual bound.
    try:
        vals_r, vecs_r = eig_batch(a)
        vals_l, vecs_l = np.linalg.eig(a.conj().swapaxes(-1, -2))
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    vecs_r = fix_phase(vecs_r)

    # Pair left eigenvectors to right ones: maximal overlap wins, eigenvalue
    # proximity acts as a tie-break (both go into one assignment cost).
    overlap = np.abs(vecs_l.conj().swapaxes(-1, -2) @ vecs_r)
    scale = 1.0 + np.abs(vals_r).max(axis=-1)[..., None, None]
    dist = np.abs(vals_l.conj()[..., :, None] - vals_r[..., None, :]) / scale
    # assign maps each left vector to a right one; its inverse orders them
    perm = np.argsort(assign((1.0 - overlap) + 1e-6 * dist), axis=-1)
    vecs_l = fix_phase(np.take_along_axis(vecs_l, perm[..., None, :], axis=-1))
    # ||a||_F of a scaled by 2^-k, k the exponent of each matrix's largest |Re| or |Im|:
    # the scaling is exact, and no square overflows
    k = np.frexp(np.maximum(np.abs(a.real), np.abs(a.imag)).max(axis=(-2, -1)))[1]
    scaled = np.empty_like(a)
    scaled.real, scaled.imag = (np.ldexp(v, -k[..., None, None]) for v in (a.real, a.imag))
    return SpectralDecomposition(
        eigenvalues=vals_r,
        right=vecs_r,
        left=vecs_l,
        frobenius=np.ldexp(np.linalg.norm(scaled, axis=(-2, -1)), k),
    )


def assign(cost) -> np.ndarray:
    """Minimum-cost assignment of rows to columns, batched over leading axes.

    ``cost`` has shape (..., n, n).  Returns ``cols`` of shape (..., n):
    row i takes column ``cols[..., i]``, one entry per row and per column,
    and the sum of the taken entries is minimal.  For n <= 4 every
    permutation is enumerated and ties go to the lexicographically first
    one; larger n (up to MAX_DIM) runs shortest augmenting paths per lane.
    """
    c = np.asarray(cost, dtype=float)
    n = c.shape[-1]
    if c.ndim < 2 or c.shape[-2] != n:
        raise ValueError(f"expected square cost matrices, got shape {c.shape}")
    if n > MAX_DIM:
        raise DimensionTooLarge(f"dim {n} exceeds the supported maximum {MAX_DIM}")
    if n in _PERMUTATIONS:
        perms = _PERMUTATIONS[n]
        totals = c[..., np.arange(n), perms].sum(axis=-1)
        return perms[np.argmin(totals, axis=-1)]
    lanes = [_augmenting_paths(lane) for lane in c.reshape(-1, n, n)]
    return np.array(lanes, dtype=int).reshape(c.shape[:-1])


def _augmenting_paths(c: np.ndarray) -> np.ndarray:
    """One lane of ``assign`` by shortest augmenting paths, O(n^3).

    Rows enter one at a time; a Dijkstra sweep over the reduced costs
    c[i, j] - u[i] - v[j] reaches a free column, the duals u, v absorb its
    length and the alternating path flips (Kuhn 1955; Jonker and Volgenant,
    Computing 38, 1987).  Column 0 is the root; indices count from 1.
    """
    n = len(c)
    u, v = np.zeros(n + 1), np.zeros(n + 1)
    owner = np.zeros(n + 1, dtype=int)  # row holding each column, 0 = free
    for i in range(1, n + 1):
        owner[0], j = i, 0
        way, dist = np.zeros(n + 1, dtype=int), np.full(n + 1, np.inf)
        done = np.zeros(n + 1, dtype=bool)
        while owner[j]:
            done[j] = True
            row = owner[j]
            reduced = np.where(done, np.inf, np.r_[0.0, c[row - 1]] - u[row] - v)
            better = reduced < dist
            dist[better], way[better] = reduced[better], j
            j = int(np.argmin(np.where(done, np.inf, dist)))
            delta = dist[j]
            u[owner[done]] += delta
            v[done] -= delta
            dist[~done] -= delta
        while j:
            owner[j], j = owner[way[j]], way[j]
    cols = np.empty(n, dtype=int)
    cols[owner[1:] - 1] = np.arange(n)
    return cols


def coalescence_measure(d: SpectralDecomposition, i: int, j: int) -> float:
    """|<right_i|right_j>| for unit-norm eigenvectors; 1 means coalescence."""
    return float(abs(np.vdot(d.right[:, i], d.right[:, j])))


def biorthogonal_matrix(d: SpectralDecomposition) -> np.ndarray:
    """<left_i|right_j> rescaled so the diagonal is one.

    Away from defective clusters this is the identity within 1e-8; near an
    exceptional point the off-diagonal entries blow up together with
    ``ep_condition``.
    """
    b = d.left.conj().T @ d.right
    diag = np.diagonal(b).copy()
    diag[np.abs(diag) < 1e-300] = 1.0
    return b / diag[:, None]


def _lapack_stack(mats) -> np.ndarray:
    """A ``float`` stack as it is (real LAPACK), anything else as complex."""
    a = np.asarray(mats)
    return a if a.dtype == np.float64 else np.asarray(a, dtype=complex)


def eig_batch(mats: np.ndarray):
    """Eigenvalues and right eigenvectors for a stacked array of matrices.

    Returns complex (values, vectors) with values sorted in the canonical
    order per matrix.  This is the bulk path used by the parameter-plane
    scanners; no left vectors or defect diagnostics are computed here.
    """
    vals, vecs = np.linalg.eig(_lapack_stack(mats))
    vals, vecs = vals.astype(complex, copy=False), vecs.astype(complex, copy=False)
    order = canonical_order(vals)
    vals = np.take_along_axis(vals, order, axis=-1)
    vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
    return vals, vecs


def eigvals_batch(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of a stacked array of matrices, canonical order per matrix.

    The values of ``eig_batch`` without its eigenvectors, which LAPACK then
    skips computing.
    """
    vals = np.linalg.eigvals(_lapack_stack(mats)).astype(complex, copy=False)
    return np.take_along_axis(vals, canonical_order(vals), axis=-1)


# Truncated Taylor series of expm_batch: (degree m, block size p, theta_m).
# theta_m is the largest norm with ||X||^(m+1)/(m+1)! / (1 - ||X||/(m+2))
# <= 2**-53, a bound on the series tail; the Paterson-Stockmeyer scheme
# evaluates degree m = p q in (p - 1) + (q - 1) matrix products.
_TAYLOR = ((6, 3, 0.01776), (9, 3, 0.1148), (12, 4, 0.3352), (16, 4, 0.8245))

# Complex entries per operand of the batched products.  At 32,768 entries
# (512 kB) the operands stay in a core's L2 cache: on a Xeon with 2 MB of L2
# per core, a product of 2,048 4x4 matrices took 0.15 us per matrix, one of
# 8,192 took 0.46 us.
_CACHE_ENTRIES = 32768


def expm_batch(x) -> np.ndarray:
    """Matrix exponentials of a stack (..., n, n), numpy only.

    Scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26, 2005) around
    a truncated Taylor series; the degree and the number of squarings follow
    from the largest 1-norm in the stack.
    """
    e, k = expm_batch_scaled(x)
    return e * np.exp2(k)[..., None, None]


def expm_batch_scaled(x):
    """``expm_batch`` as (E, k) with exp(x) = 2**k E, for any finite norm."""
    a = np.asarray(x, dtype=complex)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    norm = float(np.abs(flat).sum(axis=-2).max(initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("matrix contains NaN or Inf entries, or its norm overflows")
    # the fewest products, series and squarings together; ties go to the
    # higher degree, which squares less
    best = None
    for m, p, theta in _TAYLOR:
        s = math.ceil(math.log2(norm / theta)) if norm > theta else 0
        cost = (p - 1) + (m // p - 1) + s
        if best is None or cost <= best[0]:
            best = (cost, m, p, s)
    _, m, p, s = best
    e, k = np.empty_like(flat), np.empty(len(flat))
    size = max(1, _CACHE_ENTRIES // (n * n))
    for i in range(0, len(flat), size):
        y = np.ascontiguousarray(flat[i:i + size].transpose(1, 2, 0))
        ei, ki = _normalize(_taylor(y * 2.0**-s, m, p))
        for _ in range(s):
            ei, ex = _normalize(_mm(ei, ei))
            ki = 2.0 * ki + ex
        e[i:i + size], k[i:i + size] = ei.transpose(2, 0, 1), ki
    return e.reshape(a.shape), k.reshape(a.shape[:-2])


def chain_batch(mats, exps):
    """Products of chains (..., L, n, n) of scaled matrices, in log depth.

    ``mats[..., j, :, :]`` acts after ``mats[..., j - 1, :, :]``, so later
    factors multiply from the left; ``exps`` (..., L) holds their power-of-two
    exponents.  Returns (E, k) for the products, as ``expm_batch_scaled``.
    """
    a = np.asarray(mats, dtype=complex)
    length, n = a.shape[-3], a.shape[-1]
    flat = a.reshape(-1, length, n, n)
    kflat = np.asarray(exps, dtype=float).reshape(-1, length)
    e, k = np.empty((len(flat), n, n), dtype=complex), np.empty(len(flat))
    size = max(1, _CACHE_ENTRIES // (n * n * length))
    for i in range(0, len(flat), size):
        mi = np.ascontiguousarray(flat[i:i + size].transpose(2, 3, 1, 0))
        ki = kflat[i:i + size].T
        while mi.shape[2] > 1:
            half = mi.shape[2] // 2
            prod, ex = _normalize(_mm(mi[:, :, 1:2 * half:2], mi[:, :, 0:2 * half:2]))
            ex += ki[1:2 * half:2] + ki[0:2 * half:2]
            if mi.shape[2] % 2:  # the latest factor waits for the next level
                prod = np.concatenate([prod, mi[:, :, -1:]], axis=2)
                ex = np.concatenate([ex, ki[-1:]])
            mi, ki = prod, ex
        e[i:i + size], k[i:i + size] = mi[:, :, 0].transpose(2, 0, 1), ki[0]
    return e.reshape(a.shape[:-3] + (n, n)), k.reshape(a.shape[:-3])


def _mm(a, b) -> np.ndarray:
    """a @ b for matrices stored batch-last, (n, n, ...): a sum over the
    inner index of broadcast column-times-row products.  On stacks of 2x2
    and 4x4 matrices this runs several times faster than np.matmul."""
    out = a[:, :1] * b[None, 0]
    for j in range(1, a.shape[1]):
        out += a[:, j:j + 1] * b[None, j]
    return out


def _normalize(e):
    """(E, k) with e = 2**k E, the largest |Re| or |Im| of each batch-last
    matrix E in [0.5, 1); the rescaling by a power of two is exact."""
    top = np.maximum(np.abs(e.real), np.abs(e.imag)).max(axis=(0, 1))
    # a subnormal top is not raised past the largest power of two
    ex = np.maximum(np.frexp(top)[1], -1021)
    e *= np.ldexp(1.0, -ex)
    return e, ex.astype(float)


def _taylor(y, m: int, p: int) -> np.ndarray:
    """sum_{j <= m} y^j / j! by Paterson-Stockmeyer, y batch-last (n, n, ...)."""
    coef = [1.0 / math.factorial(j) for j in range(m + 1)]
    powers = [None, y]
    for _ in range(p - 1):
        powers.append(_mm(powers[-1], y))

    def block(j):  # sum_{i < p} coef[j p + i] y^i
        b = coef[j * p + 1] * y
        for i in range(2, p):
            b += coef[j * p + i] * powers[i]
        for d in range(y.shape[0]):
            b[d, d] += coef[j * p]
        return b

    q = m // p
    acc = block(q - 1) + coef[m] * powers[p]
    for j in range(q - 2, -1, -1):
        acc = _mm(powers[p], acc)
        acc += block(j)
    return acc
