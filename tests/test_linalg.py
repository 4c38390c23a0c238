"""Eigensolver, assignment, characteristic polynomial and vectorization contracts."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epkit import linalg
from epkit.dynamics import _coefficients
from epkit.errors import DimensionTooLarge
from epkit.models import SIGMA_X, SIGMA_Z, basic_liouvillian, pt_hamiltonian, PTParams


def random_complex(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def det_bruteforce(a):
    """Permutation-sum determinant; independent of any LAPACK path (dim<=4)."""
    import itertools

    n = a.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = sign
        for i in range(n):
            term = term * a[i, perm[i]]
        total += term
    return total


# -- kron and vec -----------------------------------------------------------


def test_kron_identity_case():
    eye2 = np.eye(2, dtype=complex)
    assert np.array_equal(linalg.kron(eye2, eye2), np.eye(4, dtype=complex))


def test_vec_row_product_identity_random_triples():
    # vec_row(A X B) == (A kron B^T) vec_row(X), checked against direct
    # matrix products for 50 random 2x2 triples.
    rng = np.random.default_rng(1234)
    for _ in range(50):
        a, x, b = (random_complex(rng, 2, 2) for _ in range(3))
        lhs = linalg.vec_row(a @ x @ b)
        rhs = linalg.kron(a, b.T) @ linalg.vec_row(x)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_unvec_round_trip():
    rng = np.random.default_rng(0)
    x = random_complex(rng, 3, 3)
    assert np.array_equal(linalg.unvec_row(linalg.vec_row(x)), x)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(2, 3),
    st.integers(2, 3),
    st.floats(-3, 3),
    st.floats(-3, 3),
    st.integers(0, 2**31 - 1),
)
def test_kron_bilinearity_property(da, db, s, t, seed):
    rng = np.random.default_rng(seed)
    a1, a2 = random_complex(rng, da, da), random_complex(rng, da, da)
    b = random_complex(rng, db, db)
    lhs = linalg.kron(s * a1 + t * a2, b)
    rhs = s * linalg.kron(a1, b) + t * linalg.kron(a2, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-10 * (1 + np.max(np.abs(rhs)))


# -- eig --------------------------------------------------------------------


def test_eig_diagonal_case():
    d = linalg.eig(np.diag([1.0, 2.0j]))
    by_val = {complex(v): i for i, v in enumerate(d.eigenvalues)}
    assert set(by_val) == {1.0 + 0j, 2.0j}
    for val, i in by_val.items():
        e = np.zeros(2, dtype=complex)
        e[0 if val == 1.0 else 1] = 1.0
        assert np.max(np.abs(d.right[:, i] - e)) < 1e-12


def test_eig_pt_hamiltonian_real_pair():
    # J=1, Gamma=1 sits in the unbroken regime: eigenvalues +-sqrt(3)/2.
    d = linalg.eig(pt_hamiltonian(PTParams(J=1.0, Gamma=1.0)))
    expected = np.sqrt(3.0) / 2.0
    assert abs(d.eigenvalues[0] - expected) < 1e-12
    assert abs(d.eigenvalues[1] + expected) < 1e-12
    assert not d.defective.any()


def test_eig_liouvillian_defective_pair():
    # Gamma = 8J makes the two fast modes coalesce: {0, -1/2, -3/4, -3/4}
    # with the -3/4 pair defective.
    d = linalg.eig(basic_liouvillian(J=0.125, Gamma=1.0))
    expected = np.array([0.0, -0.5, -0.75, -0.75])
    assert np.max(np.abs(np.sort(d.eigenvalues.real)[::-1] - np.sort(expected)[::-1])) < 1e-6
    assert np.max(np.abs(d.eigenvalues.imag)) < 1e-6
    pair = [i for i, v in enumerate(d.eigenvalues) if abs(v + 0.75) < 1e-4]
    assert len(pair) == 2
    assert d.defective[pair].all()
    assert not d.defective[[i for i in range(4) if i not in pair]].any()
    assert d.ep_condition > 1e6


@pytest.mark.parametrize("m", [
    *(lam * np.eye(k) + np.eye(k, k=1) for k in (2, 3, 4) for lam in (0.0, 1.0 - 0.5j)),
    pt_hamiltonian(PTParams(J=0.5, Gamma=1.0)),
], ids=["jordan2", "jordan2_shifted", "jordan3", "jordan3_shifted", "jordan4",
        "jordan4_shifted", "pt_at_ep"])
def test_eig_left_vectors_at_exact_exceptional_points(m):
    # The right-vector matrix is singular here, so its inverse has no rows to
    # give; the left vectors of the second eigensolve stay finite, unit norm
    # and within the residual bound of a non-defective pair.
    d = linalg.eig(m)
    assert d.defective.all()
    assert np.isfinite(d.left).all()
    assert np.allclose(np.linalg.norm(d.left, axis=0), 1.0)
    tol = 1e-9 * (1.0 + np.linalg.norm(m))
    for i in range(len(m)):
        w = d.left[:, i]
        assert np.linalg.norm(m.conj().T @ w - d.eigenvalues[i].conjugate() * w) <= tol


def test_eig_rejects_large_and_nonfinite():
    with pytest.raises(DimensionTooLarge):
        linalg.eig(np.eye(17))
    with pytest.raises(ValueError):
        linalg.eig(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        linalg.eig(np.array([[np.inf, 0], [0, 1]]))


def test_eig_frobenius_is_the_norm_and_does_not_overflow():
    # Scaled by a power of two per matrix, the norm is np.linalg.norm's bit
    # for bit on ordinary stacks, and finite (no warning) past 1e154
    rng = np.random.default_rng(7)
    a = rng.normal(size=(40, 4, 4)) + 1j * rng.normal(size=(40, 4, 4))
    a *= np.logspace(-3, 3, 40)[:, None, None]
    assert linalg.eig(a).frobenius.tobytes() == np.linalg.norm(a, axis=(-2, -1)).tobytes()
    big = linalg.eig(a * 1e200).frobenius
    assert np.allclose(big / 1e200, np.linalg.norm(a, axis=(-2, -1)), rtol=1e-15, atol=0)
    huge = linalg.eig(np.diag([1e308, 5e307 + 5e307j])).frobenius
    assert huge == pytest.approx(np.hypot(1e308, np.hypot(5e307, 5e307)), rel=1e-15)
    assert linalg.eig(np.zeros((3, 3))).frobenius == 0.0


def test_eig_deterministic_output():
    rng = np.random.default_rng(7)
    m = random_complex(rng, 5, 5)
    d1, d2 = linalg.eig(m), linalg.eig(m)
    assert np.array_equal(d1.eigenvalues, d2.eigenvalues)
    assert np.array_equal(d1.right, d2.right)
    assert np.array_equal(d1.left, d2.left)


def test_eig_phase_convention():
    rng = np.random.default_rng(11)
    m = random_complex(rng, 4, 4)
    d = linalg.eig(m)
    for mat in (d.right, d.left):
        for j in range(4):
            col = mat[:, j]
            mags = np.abs(col)
            anchor = np.argmax(mags >= 1e-8 * mags.max())
            assert abs(col[anchor].imag) < 1e-12
            assert col[anchor].real > 0


# -- invariants on random ensembles ----------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 4, 8])
def test_eig_residuals_trace_det_biorthogonality(dim):
    rng = np.random.default_rng(100 + dim)
    for _ in range(250):
        m = random_complex(rng, dim, dim)
        d = linalg.eig(m)
        fro = np.linalg.norm(m)
        tol = 1e-9 * (1.0 + fro)
        for i in range(dim):
            if d.defective[i]:
                continue
            v = d.right[:, i]
            assert np.linalg.norm(m @ v - d.eigenvalues[i] * v) <= tol
            w = d.left[:, i]
            assert (
                np.linalg.norm(m.conj().T @ w - d.eigenvalues[i].conjugate() * w)
                <= tol
            )
        assert abs(d.eigenvalues.sum() - np.trace(m)) <= 1e-9 * (1.0 + fro)
        if dim <= 4:
            det = det_bruteforce(m)
            assert abs(np.prod(d.eigenvalues) - det) <= 1e-8 * (1.0 + abs(det))
        if not d.defective.any() and d.ep_condition < 1e6:
            b = _coefficients(d.left, d.right, d.right.T)[1].T
            assert np.max(np.abs(b - np.eye(dim))) < 1e-8


# -- char_poly ---------------------------------------------------------------


def test_char_poly_identity():
    # (lambda - 1)^2 = lambda^2 - 2 lambda + 1
    c = linalg.char_poly(np.eye(2))
    assert np.max(np.abs(c - np.array([1.0, -2.0, 1.0]))) < 1e-14


def test_char_poly_pt_hamiltonian():
    # lambda^2 - (J^2 - Gamma^2/4)
    J, Gamma = 0.8, 1.1
    c = linalg.char_poly(J * SIGMA_X - 0.5j * Gamma * SIGMA_Z)
    expected = np.array([1.0, 0.0, -(J**2 - Gamma**2 / 4.0)])
    assert np.max(np.abs(c - expected)) < 1e-12


def test_char_poly_matches_principal_minors():
    # Coefficient of lambda^(n-k) is (-1)^k * (sum of k x k principal minors).
    import itertools

    rng = np.random.default_rng(42)
    m = random_complex(rng, 4, 4)
    c = linalg.char_poly(m)
    for k in range(1, 5):
        total = 0.0 + 0.0j
        for rows in itertools.combinations(range(4), k):
            sub = m[np.ix_(rows, rows)]
            total += det_bruteforce(sub)
        assert abs(c[k] - (-1) ** k * total) < 1e-10 * (1 + abs(total))


def test_char_poly_small_at_eigenvalues():
    rng = np.random.default_rng(5)
    for dim in (2, 4, 8):
        m = random_complex(rng, dim, dim)
        c = linalg.char_poly(m)
        d = linalg.eig(m)
        bound = 1e-8 * (1.0 + np.linalg.norm(m)) ** dim
        for lam in d.eigenvalues:
            assert abs(np.polyval(c, lam)) <= bound


def test_char_poly_stack_matches_lone_calls():
    # A stacked matrix gets exactly the coefficients of a lone call.
    rng = np.random.default_rng(8)
    for dim in (1, 2, 4, 8):
        m = random_complex(rng, 3, 5, dim, dim)
        c = linalg.char_poly(m)
        assert c.shape == (3, 5, dim + 1)
        alone = np.array([[linalg.char_poly(m[i, j]) for j in range(5)] for i in range(3)])
        assert np.array_equal(c, alone)


# -- coalescence ------------------------------------------------------------


def test_coalescence_hermitian_orthogonal():
    rng = np.random.default_rng(3)
    a = random_complex(rng, 3, 3)
    h = a + a.conj().T
    d = linalg.eig(h)
    for i in range(3):
        for j in range(i + 1, 3):
            assert linalg.coalescence_measure(d, i, j) < 1e-10


def test_coalescence_at_ep_limit():
    # Just off the exceptional point J = Gamma/2 the eigenvectors are fully
    # aligned to within the offset itself.
    for off in (1 + 1e-9, 1 - 1e-9):
        d = linalg.eig(pt_hamiltonian(PTParams(J=0.5 * off, Gamma=1.0)))
        assert linalg.coalescence_measure(d, 0, 1) > 1.0 - 1e-6


def test_coalescence_analytic_value():
    # |<psi_+|psi_->| = Gamma / (2 J) away from the EP.
    d = linalg.eig(pt_hamiltonian(PTParams(J=1.0, Gamma=1.0)))
    assert abs(linalg.coalescence_measure(d, 0, 1) - 0.5) < 1e-12


# -- batch path --------------------------------------------------------------


def test_eig_batch_matches_scalar_order():
    rng = np.random.default_rng(17)
    mats = random_complex(rng, 10, 4, 4)
    vals, vecs = linalg.eig_batch(mats)
    for k in range(10):
        d = linalg.eig(mats[k])
        assert np.max(np.abs(vals[k] - d.eigenvalues)) < 1e-12
        # residuals of the batch vectors under the batch values
        for i in range(4):
            r = mats[k] @ vecs[k][:, i] - vals[k][i] * vecs[k][:, i]
            assert np.linalg.norm(r) < 1e-9 * (1 + np.linalg.norm(mats[k]))


def test_eig_batch_real_stack_gives_exact_conjugate_pairs():
    # a float stack runs the real solver: complex results, in which every
    # non-real eigenvalue sits next to its exact conjugate, -Im first, and
    # so do the eigenvectors
    rng = np.random.default_rng(29)
    mats = rng.normal(size=(300, 4, 4))
    vals, vecs = linalg.eig_batch(mats)
    assert vals.dtype == complex and vecs.dtype == complex
    assert np.array_equal(linalg.eigvals_batch(mats), vals)
    pairs = 0
    for k in range(len(mats)):
        assert np.array_equal(linalg.canonical_order(vals[k]), np.arange(4))
        for i in np.flatnonzero(vals[k].imag < 0):
            assert vals[k, i + 1] == vals[k, i].conjugate()
            assert np.array_equal(vecs[k, :, i + 1], vecs[k, :, i].conj())
            pairs += 1
        assert (vals[k].imag > 0).sum() == (vals[k].imag < 0).sum()
        r = mats[k] @ vecs[k] - vecs[k] * vals[k]
        assert np.abs(r).max() < 1e-12 * (1 + np.linalg.norm(mats[k]))
    assert pairs > 100
    # the same matrices as complex input run the complex solver, whose
    # rounding may order the members of a pair either way
    cvals = linalg.eigvals_batch(mats.astype(complex))
    assert np.abs(cvals[:, :, None] - vals[:, None, :]).min(axis=-1).max() < 1e-12


def test_eig_real_stack_stays_real():
    # A float stack runs the real solver for both solves (m^dag = m^T):
    # right and left vectors meet the residual contract, every non-real
    # eigenvalue sits next to its exact conjugate (-Im first) with exactly
    # conjugate vectors, the rest have Im exactly 0, and eigenvalues and
    # vectors agree with the complex-cast solve after matching by value.
    rng = np.random.default_rng(31)
    mats = rng.normal(size=(300, 4, 4))
    d, c = linalg.eig(mats), linalg.eig(mats.astype(complex))
    assert d.eigenvalues.dtype == d.right.dtype == d.left.dtype == complex
    assert np.allclose(d.frobenius, np.linalg.norm(mats, axis=(-2, -1)), rtol=1e-15, atol=0)
    pairs = 0
    for k, m in enumerate(mats):
        vals, right, left = d.eigenvalues[k], d.right[k], d.left[k]
        tol = 1e-9 * (1.0 + np.linalg.norm(m))
        live = ~d.defective[k]
        assert np.linalg.norm(m @ right - right * vals, axis=0)[live].max() <= tol
        assert np.linalg.norm(m.T @ left - left * vals.conj(), axis=0)[live].max() <= tol
        below = np.flatnonzero(vals.imag < 0)
        for i in below:
            assert vals[i + 1] == vals[i].conjugate()
            assert np.array_equal(right[:, i + 1], right[:, i].conj())
            assert np.array_equal(left[:, i + 1], left[:, i].conj())
        assert np.count_nonzero(vals.imag) == 2 * len(below)
        pairs += len(below)
        match = np.argmin(np.abs(vals[:, None] - c.eigenvalues[k][None, :]), axis=-1)
        assert sorted(match) == list(range(4))
        assert np.abs(vals - c.eigenvalues[k][match]).max() < 1e-12
        assert np.abs(right - c.right[k][:, match]).max() < 1e-12
        assert np.abs(left - c.left[k][:, match]).max() < 1e-12
    assert pairs > 100


def test_eig_stacked_equals_per_matrix():
    # A stack (..., n, n) gives every matrix exactly its lone result,
    # defective and near-EP members included.
    rng = np.random.default_rng(23)
    stacks = [
        np.concatenate([
            random_complex(rng, 5, 2, 2),
            [pt_hamiltonian(PTParams(J=0.5 + 1e-9, Gamma=1.0)),
             pt_hamiltonian(PTParams(J=0.5, Gamma=1.0))],
        ]),
        np.concatenate([
            random_complex(rng, 5, 4, 4),
            [basic_liouvillian(J=0.125, Gamma=1.0), basic_liouvillian(J=0.3, Gamma=1.0)],
        ]),
        random_complex(rng, 6, 5, 5).reshape(2, 3, 5, 5),
    ]
    for mats in stacks:
        stacked = linalg.eig(mats)
        assert stacked.ep_condition.shape == mats.shape[:-2]
        for idx in np.ndindex(*mats.shape[:-2]):
            lone = linalg.eig(mats[idx])
            for name in ("eigenvalues", "right", "left", "defective"):
                assert np.array_equal(getattr(stacked, name)[idx], getattr(lone, name))
            assert stacked.ep_condition[idx] == lone.ep_condition
    assert linalg.eig(stacks[1]).defective[5].sum() == 2


# -- assignment -------------------------------------------------------------


def brute_force_min(c):
    n = c.shape[0]
    perms = np.array(list(itertools.permutations(range(n))), dtype=int)
    return c[np.arange(n), perms].sum(axis=1).min()


@pytest.mark.parametrize("n", range(1, 9))
def test_assign_optimal_on_both_paths(n):
    # assign enumerates permutations for n <= 4 and runs shortest augmenting
    # paths above; the augmenting-path lane solver is checked at every n.
    rng = np.random.default_rng(100 + n)
    for trial in range(12):
        c = rng.random((n, n))
        if trial % 2:
            c = np.round(3.0 * c)  # integer costs: many tied optima
        best = brute_force_min(c)
        for cols in (linalg.assign(c), linalg._augmenting_paths(c)):
            assert sorted(cols.tolist()) == list(range(n))
            assert abs(c[np.arange(n), cols].sum() - best) <= 1e-12


def test_assign_ties_take_lexicographically_first():
    assert linalg.assign(np.zeros((4, 4))).tolist() == [0, 1, 2, 3]
    # the two zero-cost derangements tie; (1, 2, 0) precedes (2, 0, 1)
    assert linalg.assign(np.eye(3)).tolist() == [1, 2, 0]


@pytest.mark.parametrize("n", [3, 6])
def test_assign_batched_lanes_equal_single_lanes(n):
    rng = np.random.default_rng(n)
    costs = rng.random((2, 5, n, n))
    costs[0, 1] = np.round(3.0 * costs[0, 1])
    batched = linalg.assign(costs)
    assert batched.shape == (2, 5, n)
    for idx in np.ndindex(2, 5):
        assert np.array_equal(batched[idx], linalg.assign(costs[idx]))


def test_assign_rejects_bad_shapes():
    with pytest.raises(ValueError):
        linalg.assign(np.zeros((2, 3)))
    with pytest.raises(DimensionTooLarge):
        linalg.assign(np.zeros((17, 17)))


# -- matrix exponentials ------------------------------------------------------------


def _diagonalizable_stack(rng, count, n, norm):
    """Random V diag(w) V^-1 with well-conditioned V, scaled to a 1-norm."""
    v = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    v += 3.0 * np.eye(n)
    w = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
    x = v @ (w[..., :, None] * np.linalg.inv(v))
    scale = norm / np.abs(x).sum(axis=-2).max(axis=-1)
    return x * scale[:, None, None], v, w * scale[:, None]


def _expm(x):
    """exp(x) from the (E, k) of ``expm_batch_scaled``."""
    e, k = linalg.expm_batch_scaled(x)
    return e * np.exp2(k)[..., None, None]


@pytest.mark.parametrize("n", [2, 4])
@pytest.mark.parametrize("norm", [1e-9, 1e-3, 0.5, 3.0, 40.0, 300.0])
def test_expm_batch_matches_eigendecomposition(n, norm):
    # from norms the series handles alone to norms that need squaring
    rng = np.random.default_rng(int(norm * 1e9) % 2**32 + n)
    x, v, w = _diagonalizable_stack(rng, 50, n, norm)
    ref = v @ (np.exp(w)[..., :, None] * np.linalg.inv(v))
    got = _expm(x)
    scale = np.abs(ref).max(axis=(-2, -1))
    assert np.max(np.abs(got - ref).max(axis=(-2, -1)) / scale) < 1e-12


def test_expm_batch_of_zero_is_identity():
    assert np.array_equal(_expm(np.zeros((3, 4, 4))), np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_expm_batch_inverse_pairs():
    rng = np.random.default_rng(7)
    x = (rng.standard_normal((40, 4, 4)) + 1j * rng.standard_normal((40, 4, 4))) * 0.7
    prod = _expm(x) @ _expm(-x)
    assert np.max(np.abs(prod - np.eye(4))) < 1e-12


def test_expm_batch_scaled_reaches_past_overflow():
    # exp(diag(800, -800, 1j)) overflows and underflows a double; the scaled
    # form carries the magnitude in a power-of-two exponent
    e, k = linalg.expm_batch_scaled(np.diag([800.0, -800.0, 1j])[None])
    assert k.shape == (1,) and 0.5 <= np.abs(e).max() < 1.0
    assert abs(k[0] * np.log(2.0) + np.log(e[0, 0, 0].real) - 800.0) < 1e-9
    assert e[0, 1, 1] == 0.0 and abs(e[0, 2, 2]) < 1e-300


def test_expm_batch_rejects_nonfinite():
    with pytest.raises(ValueError):
        linalg.expm_batch_scaled(np.full((1, 2, 2), np.nan))


@pytest.mark.parametrize("length", [1, 2, 5, 8])
def test_chain_batch_equals_sequential_products(length):
    # later factors multiply from the left; exponents add up
    rng = np.random.default_rng(length)
    m = rng.standard_normal((3, length, 4, 4)) + 1j * rng.standard_normal((3, length, 4, 4))
    k = rng.integers(-50, 50, size=(3, length)).astype(float)
    e, kk = linalg.chain_batch(m, k)
    for lane in range(3):
        ref = np.eye(4, dtype=complex)
        for j in range(length):
            ref = m[lane, j] @ ref
        got = e[lane] * 2.0 ** (kk[lane] - k[lane].sum())
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.abs(ref).max()
