"""Generator catalog: matrix layouts, closed-form spectra, symmetries."""

import itertools
from dataclasses import replace

import numpy as np
import pytest

from epkit import linalg
from epkit.errors import DimensionMismatch
from epkit.models import (
    BLOCH,
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    ColdAtomParams,
    EncirclePath,
    JumpTerm,
    MODELS,
    PTParams,
    PathDrive,
    PerturbParams,
    basic_liouvillian,
    build_liouvillian,
    coldatom_heff,
    coldatom_liouvillian,
    detuned_liouvillian,
    encircle_model,
    get_model,
    perturbed_ep_splitting,
    pt_hamiltonian,
)

MACHEPS = np.finfo(float).eps


def printed_basic(J, Gamma):
    """The decaying two-level Liouvillian, entered by hand row by row."""
    return np.array(
        [
            [0, 1j * J, -1j * J, Gamma],
            [1j * J, -Gamma / 2, 0, -1j * J],
            [-1j * J, 0, -Gamma / 2, 1j * J],
            [0, -1j * J, 1j * J, -Gamma],
        ],
        dtype=complex,
    )


def printed_detuned(J, Gamma, delta):
    m = printed_basic(J, Gamma)
    m[1, 1] = -Gamma / 2 - 1j * delta
    m[2, 2] = -Gamma / 2 + 1j * delta
    return m


def printed_coldatom(J, Gamma, gamma, delta):
    """Post-selected generator: no refill of the ground population."""
    return np.array(
        [
            [0, 1j * J, -1j * J, 0],
            [1j * J, -1j * delta - (Gamma + gamma) / 2, 0, -1j * J],
            [-1j * J, 0, 1j * delta - (Gamma + gamma) / 2, 1j * J],
            [0, -1j * J, 1j * J, -Gamma],
        ],
        dtype=complex,
    )


def closed_form_spectrum(J, Gamma):
    s = np.sqrt(complex(Gamma**2 - 64 * J**2))
    return np.array([0.0, -Gamma / 2, (-3 * Gamma + s) / 4, (-3 * Gamma - s) / 4])


def match_sets(a, b, atol):
    """Greedy min-distance matching of two eigenvalue multisets."""
    b = list(b)
    for x in a:
        k = min(range(len(b)), key=lambda i: abs(b[i] - x))
        assert abs(b[k] - x) <= atol, (x, b[k])
        del b[k]


# -- pt ----------------------------------------------------------------------


def test_pt_zero_params():
    assert np.array_equal(pt_hamiltonian(PTParams(0.0, 0.0)), np.zeros((2, 2)))


def test_pt_unbroken_and_broken_eigenvalues():
    d = linalg.eig(pt_hamiltonian(PTParams(J=1.0, Gamma=1.0)))
    match_sets(d.eigenvalues, [np.sqrt(3) / 2, -np.sqrt(3) / 2], 1e-12)
    d = linalg.eig(pt_hamiltonian(PTParams(J=0.4, Gamma=1.0)))
    match_sets(d.eigenvalues, [0.3j, -0.3j], 1e-12)


def test_pt_symmetry_entrywise():
    # P = sx, T = complex conjugation: sx conj(H) sx == H.
    h = pt_hamiltonian(PTParams(J=0.7, Gamma=1.3))
    assert np.array_equal(SIGMA_X @ h.conj() @ SIGMA_X, h)


# -- encircle ----------------------------------------------------------------


def test_encircle_start_point():
    path = EncirclePath(center=(0.5, 0.0), radius=0.1, period=100.0)
    h = encircle_model(*path.point(0.0), 1.0)
    expected = 0.6 * SIGMA_X - (0.0 + 0.5j) * SIGMA_Z
    assert np.max(np.abs(h - expected)) < 1e-15


def test_encircle_eigenvalues_match_square_root_form():
    # E_pm = +-sqrt(r^2 + Gamma r e^{i w t}) along the ring centred on the EP.
    Gamma, r, T = 1.0, 0.1, 100.0
    path = EncirclePath(center=(Gamma / 2, 0.0), radius=r, period=T)
    for t in np.linspace(0.0, T, 23):
        vals = linalg.eig(encircle_model(*path.point(t), Gamma)).eigenvalues
        w = 2 * np.pi / T
        e = np.sqrt(r**2 + Gamma * r * np.exp(1j * w * t))
        match_sets(vals, [e, -e], 1e-10)


def test_encircle_zero_radius_is_defective():
    path = EncirclePath(center=(0.5, 0.0), radius=0.0, period=10.0)
    d = linalg.eig(encircle_model(*path.point(3.0), 1.0))
    assert d.defective.all()


def test_encircle_direction_and_phase():
    path = EncirclePath(center=(0.0, 0.0), radius=1.0, period=4.0, phase0=0.0)
    x, y = path.point(1.0)  # quarter turn ccw
    assert abs(x) < 1e-12 and abs(y - 1.0) < 1e-12
    x, y = replace(path, direction="cw").point(1.0)
    assert abs(x) < 1e-12 and abs(y + 1.0) < 1e-12


# -- coldatom_heff -----------------------------------------------------------


def test_coldatom_heff_hermitian_when_lossless():
    h = coldatom_heff(ColdAtomParams(delta=0.3, coupling=0.8, Gamma=0.0))
    assert np.max(np.abs(h - h.conj().T)) == 0.0


def test_coldatom_heff_equals_no_jump_reduction():
    # H - (i/2) L^dag L with H = (delta/2) sz - Omega sx and the loss jump
    # acting on state 2; the lost level never appears explicitly.
    p = ColdAtomParams(delta=-0.4, coupling=0.9, Gamma=0.37)
    h0 = 0.5 * p.delta * SIGMA_Z - p.coupling * SIGMA_X
    ldl = p.Gamma * np.array([[0, 0], [0, 1]], dtype=complex)
    assert np.max(np.abs(coldatom_heff(p) - (h0 - 0.5j * ldl))) < 1e-15


def test_coldatom_heff_ep_at_quarter_gamma():
    # At delta=0 the eigenvalue splitting closes at coupling = Gamma/4;
    # located here by scanning the splitting with the eig oracle.
    Gamma = 0.8
    couplings = np.linspace(0.05, 0.4, 351)
    split = []
    for om in couplings:
        vals = linalg.eig(
            coldatom_heff(ColdAtomParams(delta=0.0, coupling=om, Gamma=Gamma))
        ).eigenvalues
        split.append(abs(vals[0] - vals[1]))
    k = int(np.argmin(split))
    assert abs(couplings[k] - Gamma / 4) < 2e-3


# -- build_liouvillian --------------------------------------------------------


def test_build_liouvillian_printed_matrix():
    J, Gamma = 0.37, 1.21
    got = basic_liouvillian(J, Gamma)
    assert np.max(np.abs(got - printed_basic(J, Gamma))) <= 4 * MACHEPS * (1 + Gamma)


def test_build_liouvillian_detuned_printed_matrix():
    J, Gamma, delta = 0.52, 0.93, -0.27
    got = detuned_liouvillian(J, Gamma, delta)
    assert np.max(np.abs(got - printed_detuned(J, Gamma, delta))) <= 4 * MACHEPS * 2


def test_build_liouvillian_closed_system_imaginary_spectrum():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    h = a + a.conj().T
    lv = build_liouvillian(h, [])
    energies = np.linalg.eigvalsh(h)
    expected = [
        -1j * (ea - eb) for ea in energies for eb in energies
    ]
    vals = linalg.eig(lv).eigenvalues
    assert np.max(np.abs(vals.real)) < 1e-12
    match_sets(vals, expected, 1e-10)


def test_build_liouvillian_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        build_liouvillian(np.eye(2), [JumpTerm(np.eye(3))])


def test_trace_preservation_left_null_vector():
    # vec(I)^dag annihilates the generator when every recycling term is kept.
    rng = np.random.default_rng(21)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = a + a.conj().T
    jump = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    lv = build_liouvillian(h, [JumpTerm(jump)])
    tr = linalg.vec_row(np.eye(2)).conj()
    assert np.max(np.abs(tr @ lv)) < 1e-12


def test_drop_recycling_changes_only_recycling_entries():
    J, Gamma = 0.4, 1.0
    keep = build_liouvillian(J * SIGMA_X, [JumpTerm(np.sqrt(Gamma) * SIGMA_MINUS)])
    drop = build_liouvillian(
        J * SIGMA_X, [JumpTerm(np.sqrt(Gamma) * SIGMA_MINUS, drop_recycling=True)]
    )
    diff = keep - drop
    expected = linalg.kron(np.sqrt(Gamma) * SIGMA_MINUS, np.sqrt(Gamma) * SIGMA_MINUS.conj())
    assert np.array_equal(diff, expected)


def test_closed_form_spectrum_random_params():
    rng = np.random.default_rng(77)
    for _ in range(100):
        J, Gamma = rng.uniform(0.01, 2.0, 2)
        vals = linalg.eig(basic_liouvillian(J, Gamma)).eigenvalues
        match_sets(vals, closed_form_spectrum(J, Gamma), 1e-10)


# -- coldatom_liouvillian ------------------------------------------------------


def test_coldatom_liouvillian_printed_matrix():
    p = ColdAtomParams(delta=0.31, coupling=0.62, Gamma=1 / 20, gamma=1 / 100)
    got = coldatom_liouvillian(p)
    want = printed_coldatom(p.coupling, p.Gamma, p.gamma, p.delta)
    assert np.max(np.abs(got - want)) <= 4 * MACHEPS


def test_coldatom_liouvillian_closed_limit():
    p = ColdAtomParams(delta=0.2, coupling=0.5, Gamma=0.0, gamma=0.0)
    vals = linalg.eig(coldatom_liouvillian(p)).eigenvalues
    assert np.max(np.abs(vals.real)) < 1e-12


def test_coldatom_liouvillian_zero_eigenvalue_restored_without_loss():
    # With the loss channel off, dephasing alone is trace preserving and a
    # true steady state (lambda = 0) reappears.
    p = ColdAtomParams(delta=0.1, coupling=0.4, Gamma=0.0, gamma=0.02)
    vals = linalg.eig(coldatom_liouvillian(p)).eigenvalues
    assert np.min(np.abs(vals)) < 1e-12


def test_coldatom_liouvillian_no_zero_eigenvalue_with_loss():
    p = ColdAtomParams(delta=0.1, coupling=0.4, Gamma=1 / 20, gamma=1 / 100)
    vals = linalg.eig(coldatom_liouvillian(p)).eigenvalues
    assert np.min(np.abs(vals)) > 1e-10


# -- perturbed splitting -------------------------------------------------------


def test_perturbed_splitting_zero():
    a, b = perturbed_ep_splitting(PTParams(J=0.5, Gamma=1.0), PerturbParams(0.0))
    assert abs(a) < 1e-8 and abs(b) < 1e-8


def test_perturbed_splitting_value():
    J, eps = 0.5, 1e-4
    a, b = perturbed_ep_splitting(PTParams(J=J, Gamma=1.0), PerturbParams(eps))
    expected = np.sqrt(eps * (2 * J + eps))
    assert abs(a - expected) < 1e-9 * expected + 1e-12
    assert abs(b + expected) < 1e-9 * expected + 1e-12


def test_perturbed_splitting_square_root_exponent():
    J = 0.5
    epss = np.logspace(-8, -2, 25)
    gaps = []
    for eps in epss:
        a, b = perturbed_ep_splitting(PTParams(J=J, Gamma=1.0), PerturbParams(eps))
        gaps.append(abs(a - b))
    slope = np.polyfit(np.log(epss), np.log(gaps), 1)[0]
    assert abs(slope - 0.5) < 0.01


# -- catalog -----------------------------------------------------------------


def test_catalog_names():
    assert set(MODELS) == {
        "pt",
        "encircle",
        "coldatom_heff",
        "basic_liouvillian",
        "detuned_liouvillian",
        "coldatom_liouvillian",
    }


# The public builder of every catalog model, from the catalog's parameters.
PUBLIC_BUILDERS = {
    "pt": lambda J, Gamma: pt_hamiltonian(PTParams(J=J, Gamma=Gamma)),
    "encircle": encircle_model,
    "coldatom_heff": lambda delta, coupling, Gamma: coldatom_heff(
        ColdAtomParams(delta=delta, coupling=coupling, Gamma=Gamma)
    ),
    "basic_liouvillian": basic_liouvillian,
    "detuned_liouvillian": detuned_liouvillian,
    "coldatom_liouvillian": lambda delta, coupling, Gamma, gamma: coldatom_liouvillian(
        ColdAtomParams(delta=delta, coupling=coupling, Gamma=Gamma, gamma=gamma)
    ),
}


def test_catalog_batch_matches_scalar():
    # Scalar and stacked catalog matrices are both built as
    # base + sum_p p * basis_p; check them against the public builders.
    assert set(PUBLIC_BUILDERS) == set(MODELS)
    rng = np.random.default_rng(3)
    for name, spec in MODELS.items():
        vals = {p: rng.uniform(0.05, 1.5, size=6) for p in spec.params}
        batch = spec.matrix(**vals)
        assert batch.shape == (6, spec.dim, spec.dim)
        for k in range(6):
            point = {p: float(vals[p][k]) for p in spec.params}
            single = spec.matrix(**point)
            assert single.shape == (spec.dim, spec.dim)
            public = PUBLIC_BUILDERS[name](**point)
            assert np.max(np.abs(single - public)) < 1e-14, name
            assert np.max(np.abs(batch[k] - public)) < 1e-14, name


def test_each_generator_has_one_definition():
    # pt is the encircle model at Omega = 0, and basic_liouvillian the
    # detuned Liouvillian at delta = 0: in the scalar builders and in the
    # catalog, in both forms of a Liouvillian.
    rng = np.random.default_rng(20)
    J, Gamma = rng.uniform(0.0, 1.5, size=(2, 50))
    for j, g in zip(J.tolist(), Gamma.tolist()):
        assert np.array_equal(pt_hamiltonian(PTParams(J=j, Gamma=g)), encircle_model(j, 0.0, g))
        assert np.array_equal(basic_liouvillian(j, g), detuned_liouvillian(j, g, 0.0))
    for name, general, at in (("pt", "encircle", {"Omega": 0.0}),
                              ("basic_liouvillian", "detuned_liouvillian", {"delta": 0.0})):
        for form in ("matrix", "bloch_matrix"):
            build, general_build = getattr(MODELS[name], form), getattr(MODELS[general], form)
            if MODELS[name].kind == "hamiltonian" and form == "bloch_matrix":
                assert build is None and general_build is None
                continue
            assert np.array_equal(build(J=J, Gamma=Gamma), general_build(J=J, Gamma=Gamma, **at))


def _same_multiset(a, b):
    """Largest deviation between the eigenvalue rows of a and b (..., n)
    under the best matching of each row; n is at most 4."""
    n = a.shape[-1]
    return np.minimum.reduce([np.abs(a[..., list(p)] - b).max(axis=-1)
                              for p in itertools.permutations(range(n))])


def test_bloch_form_is_real_with_the_same_spectrum():
    # Every catalog Liouvillian preserves Hermiticity, so its Bloch form is
    # real, and a unitary similarity of the row-major matrix.
    rng = np.random.default_rng(19)
    for name, spec in MODELS.items():
        if spec.kind == "hamiltonian":
            assert spec.bloch_matrix is None, name
            continue
        vals = {p: rng.uniform(0.0, 1.5, size=200) for p in spec.params}
        row_major, bloch = spec.matrix(**vals), spec.bloch_matrix(**vals)
        assert bloch.dtype == np.float64 and bloch.shape == row_major.shape, name
        fro = np.linalg.norm(row_major, axis=(-2, -1))
        assert np.allclose(np.linalg.norm(bloch, axis=(-2, -1)), fro, rtol=1e-14, atol=0), name
        assert np.abs(BLOCH @ row_major @ BLOCH.conj().T - bloch).max() < 1e-14 * (1 + fro.max())
        dev = _same_multiset(linalg.eigvals_batch(row_major), linalg.eigvals_batch(bloch))
        assert (dev <= 1e-14 * (1.0 + fro)).all(), name
        # defaults and parameter checks are those of ``matrix``
        point = {p: float(v[0]) for p, v in vals.items()}
        assert np.array_equal(spec.bloch_matrix(**point), bloch[0])
        with pytest.raises(ValueError):
            spec.bloch_matrix(bogus=1.0, **point)


def test_path_drive_matrices():
    spec = get_model("encircle")
    path = EncirclePath(center=(0.5, 0.0), radius=0.1, period=100.0, plane="J-Omega")
    drive = PathDrive(model=spec, path=path, fixed={"Gamma": 1.0})
    ts = np.linspace(0, 100.0, 7)
    ms = drive.matrices(ts)
    assert ms.shape == (7, 2, 2)
    for k, t in enumerate(ts):
        assert np.max(np.abs(ms[k] - encircle_model(*path.point(t), 1.0))) < 1e-14
