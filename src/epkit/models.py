"""Catalog of two-level Hamiltonians, jump operators and Liouvillians.

All generators used by the scanners and integrators live here:

* ``pt``: the parity-time symmetric two-level Hamiltonian
  J*sx - i(Gamma/2)*sz, with its exceptional point at J = Gamma/2.
* ``encircle``: the same model with an extra real sz coefficient, so a
  circle in the (J, Omega) plane can wind around the exceptional point.
* ``coldatom_heff``: effective non-Hermitian Hamiltonian of a laser-lossy
  Raman-coupled pair of levels (no-jump reduction).
* ``basic_liouvillian`` / ``detuned_liouvillian``: full Lindblad generator
  of the decaying two-level system, vectorized row-major.
* ``coldatom_liouvillian``: post-selected generator with loss (recycling
  term dropped) plus dephasing (recycling term kept).

Vectorization is row-major throughout: rho -> (r11, r12, r21, r22).  The
column-stacking alternative would transpose the coherence blocks of every
superoperator; the row-major choice is normative for all serialized output.
Every Liouvillian here preserves Hermiticity, so each also has a real form
in the Pauli basis (``BLOCH``, ``ModelSpec.bloch_matrix``), derived from the
same definition; every eigenvalue solve of a map or a spectrum and the sheet
tracking of a Liouvillian loop run on it, in real arithmetic.  The
integrators and the decomposition at a loop's start use the row-major form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DimensionMismatch, UnknownModel
from .linalg import as_matrix, eig, kron

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)

# Lowering operator |1><2|: decay lands in state 1.  This placement fixes
# the sign/row layout of every Liouvillian below.
SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
PROJ_2 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)

# Rows conj(vec_row(s))/sqrt(2) for s = 1, sx, sy, sz: the unitary onto the
# orthonormal Pauli basis, where a Hermitian density matrix has real
# components (its Bloch vector and trace).  A generator that preserves
# Hermiticity is therefore real there: BLOCH L BLOCH^dag is its
# Bloch-equation form, with the spectrum of L closed under conjugation.
BLOCH = np.array([
    s.reshape(-1).conj() for s in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
]) / math.sqrt(2.0)


@dataclass(frozen=True)
class PTParams:
    """Coupling J and loss rate Gamma of the PT-symmetric two-level model."""

    J: float
    Gamma: float

    def __post_init__(self):
        if not (math.isfinite(self.J) and math.isfinite(self.Gamma)):
            raise ValueError("PTParams requires finite J and Gamma")
        if self.J < 0 or self.Gamma < 0:
            raise ValueError("PTParams requires J >= 0 and Gamma >= 0")


@dataclass(frozen=True)
class PerturbParams:
    """Strength of the sx perturbation applied at the exceptional point."""

    epsilon: float

    def __post_init__(self):
        if not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be finite")


@dataclass(frozen=True)
class ColdAtomParams:
    """Raman detuning, coupling, loss rate and dephasing rate.

    ``coupling`` is the Rabi term; the effective-Hamiltonian form and the
    post-selected Liouvillian name it differently (Omega vs J), the catalog
    exposes the single name with aliases in MODEL parameter tables.
    """

    delta: float
    coupling: float
    Gamma: float
    gamma: float = 0.0

    def __post_init__(self):
        for v in (self.delta, self.coupling, self.Gamma, self.gamma):
            if not math.isfinite(v):
                raise ValueError("ColdAtomParams requires finite values")
        if self.coupling < 0 or self.Gamma < 0 or self.gamma < 0:
            raise ValueError("rates must be non-negative")


@dataclass(frozen=True)
class JumpTerm:
    """A Lindblad jump operator; drop_recycling drops the L rho L^dag term.

    Dropping the recycling term post-selects the no-jump evolution; only the
    anticommutator (damping) part of the dissipator remains.
    """

    operator: np.ndarray
    drop_recycling: bool = False


@dataclass(frozen=True)
class EncirclePath:
    """A circle traversed in a 2-D parameter plane.

    With the default "cos-sin" convention the point at time t is
        x(t) = center[0] + radius * cos(theta),
        y(t) = center[1] + radius * sin(theta);
    the "sin-cos" convention swaps cos and sin, which lets paths published
    as (x, y) = (sin, cos) pairs keep their printed phase offset verbatim.
    ``direction`` is geometric: "ccw"/"cw" in the standard orientation of
    the plane, independent of the convention (the angle runs backwards in
    time for sin-cos ccw).
    """

    center: tuple[float, float]
    radius: float
    period: float
    direction: str = "ccw"
    phase0: float = 0.0
    plane: str = "J-Omega"
    convention: str = "cos-sin"

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (*self.center, self.phase0)):
            raise ValueError("path center and phase0 must be finite")
        if not (math.isfinite(self.radius) and self.radius >= 0):
            raise ValueError("radius must be finite and non-negative")
        if not (math.isfinite(self.period) and self.period > 0 and math.isfinite(self.omega)):
            raise ValueError("period must be positive and 2 pi / period finite")
        if self.direction not in ("ccw", "cw"):
            raise ValueError("direction must be 'ccw' or 'cw'")
        if self.convention not in ("cos-sin", "sin-cos"):
            raise ValueError("convention must be 'cos-sin' or 'sin-cos'")

    @property
    def sign(self) -> float:
        """Sign of d(theta)/dt realizing the requested orientation."""
        ccw = self.direction == "ccw"
        if self.convention == "cos-sin":
            return 1.0 if ccw else -1.0
        return -1.0 if ccw else 1.0

    @property
    def omega(self) -> float:
        return 2.0 * math.pi / self.period

    def point(self, t):
        """Plane coordinates (x, y) at time t; t may be an array."""
        theta = self.phase0 + self.sign * self.omega * np.asarray(t, dtype=float)
        if self.convention == "cos-sin":
            return (
                self.center[0] + self.radius * np.cos(theta),
                self.center[1] + self.radius * np.sin(theta),
            )
        return (
            self.center[0] + self.radius * np.sin(theta),
            self.center[1] + self.radius * np.cos(theta),
        )


def pick_index(spec, named: dict, count: int, what: str) -> int:
    """``named[spec]``, or ``spec`` itself when it is an index below count.

    An index may be an int or a digit string, as config values arrive.
    """
    index = named.get(spec, spec)
    if not (str(index).isdigit() and int(index) < count):
        names = ", ".join(f"'{name}'" for name in named)
        raise ValueError(
            f"{what} spec '{spec}' is not {names} or an index below {count}"
        )
    return int(index)


def pt_hamiltonian(p: PTParams) -> np.ndarray:
    """J*sx - i(Gamma/2)*sz: the encircle model at Omega = 0."""
    return encircle_model(p.J, 0.0, p.Gamma)


def encircle_model(J, Omega, Gamma) -> np.ndarray:
    """J*sx - (Omega + i Gamma/2)*sz, the plane model hosting the EP ring."""
    return J * SIGMA_X - (Omega + 0.5j * Gamma) * SIGMA_Z


def coldatom_heff(p: ColdAtomParams) -> np.ndarray:
    """(delta/2)*sz - coupling*sx - i(Gamma/4)(1 - sz)."""
    return (
        0.5 * p.delta * SIGMA_Z
        - p.coupling * SIGMA_X
        - 0.25j * p.Gamma * (IDENTITY_2 - SIGMA_Z)
    )


def build_liouvillian(h, jumps: list[JumpTerm]) -> np.ndarray:
    """Lindblad generator acting on the row-major vectorized density matrix.

    Returns
        -i (h kron I - I kron h^T)
        + sum over jumps of
            (L kron L*) * (recycling kept)
            - 1/2 (L^dag L kron I) - 1/2 (I kron (L^dag L)^T).
    """
    hm = as_matrix(h)
    d = hm.shape[0]
    eye = np.eye(d, dtype=complex)
    out = -1j * (kron(hm, eye) - kron(eye, hm.T))
    for term in jumps:
        op = as_matrix(term.operator)
        if op.shape[0] != d:
            raise DimensionMismatch(
                f"jump operator dim {op.shape[0]} != system dim {d}"
            )
        ldl = op.conj().T @ op
        if not term.drop_recycling:
            out = out + kron(op, op.conj())
        out = out - 0.5 * kron(ldl, eye) - 0.5 * kron(eye, ldl.T)
    return out


def basic_liouvillian(J: float, Gamma: float) -> np.ndarray:
    """Full Lindblad generator of H = J*sx with decay sqrt(Gamma)|1><2|:
    the detuned Liouvillian at delta = 0."""
    return detuned_liouvillian(J, Gamma, 0.0)


def detuned_liouvillian(J: float, Gamma: float, delta: float) -> np.ndarray:
    """Full Lindblad generator of H = J*sx + (delta/2)*sz with decay
    sqrt(Gamma)|1><2|."""
    return build_liouvillian(
        J * SIGMA_X + 0.5 * delta * SIGMA_Z,
        [JumpTerm(np.sqrt(Gamma) * SIGMA_MINUS)],
    )


def coldatom_liouvillian(p: ColdAtomParams) -> np.ndarray:
    """Post-selected generator: loss without recycling, dephasing with it.

    The loss jump empties state 2 into an unobserved bystander level, so only
    its damping part acts on the retained two-level block (drop_recycling);
    the dephasing jump sqrt(gamma)|2><2| keeps its recycling term, which
    cancels on the population diagonal and leaves the printed -Gamma there.
    """
    return build_liouvillian(
        p.coupling * SIGMA_X + 0.5 * p.delta * SIGMA_Z,
        [
            JumpTerm(np.sqrt(p.Gamma) * SIGMA_MINUS, drop_recycling=True),
            JumpTerm(np.sqrt(p.gamma) * PROJ_2, drop_recycling=False),
        ],
    )


def perturbed_ep_splitting(p: PTParams, q: PerturbParams):
    """Eigenvalue pair of the EP Hamiltonian perturbed by epsilon*sx.

    Requires J = Gamma/2 (the exceptional point).  The splitting follows
    +-sqrt(eps (2J + eps)), i.e. a square-root lift of the degeneracy.
    """
    if abs(p.J - 0.5 * p.Gamma) > 1e-12 * (1.0 + abs(p.J)):
        raise ValueError("perturbed_ep_splitting requires J = Gamma/2")
    d = eig(pt_hamiltonian(p) + q.epsilon * SIGMA_X)
    return d.eigenvalues[0], d.eigenvalues[1]


# --------------------------------------------------------------------------
# Model catalog: named builders for the scanners and the CLI.


@dataclass(frozen=True)
class ModelSpec:
    """A named generator family with a declared parameter list.

    ``build`` takes scalar or broadcastable array values for every parameter
    in ``params`` and returns a (..., dim, dim) array.  ``kind`` is
    "hamiltonian" or "liouvillian"; it decides which equation of motion the
    integrators apply and how trajectories are read out.  A Liouvillian also
    has ``bloch_build``, its real Bloch form (see ``bloch_matrix``).
    """

    name: str
    dim: int
    kind: str
    params: tuple[str, ...]
    defaults: dict = field(default_factory=dict)
    build: Callable = None
    bloch_build: Callable = None

    def _merged(self, values: dict) -> dict:
        unknown = set(values) - set(self.params)
        if unknown:
            raise ValueError(f"unknown parameters for {self.name}: {sorted(unknown)}")
        merged = dict(self.defaults)
        merged.update(values)
        missing = [p for p in self.params if p not in merged]
        if missing:
            raise ValueError(f"missing parameters for {self.name}: {missing}")
        return merged

    def matrix(self, **values) -> np.ndarray:
        return self.build(**self._merged(values))

    @property
    def bloch_matrix(self):
        """``matrix`` in the real Bloch form BLOCH L BLOCH^dag, as a callable
        that returns a ``float`` stack with the same spectrum; None for the
        Hamiltonian models, which have no real form."""
        if self.bloch_build is None:
            return None
        return lambda **values: self.bloch_build(**self._merged(values))


def _affine(base: np.ndarray, basis: dict, dtype):
    """base + sum_p p * basis_p over broadcast parameter arrays; scalar
    values take the same path and give a single matrix."""

    def build(**values):
        arrays = {p: np.asarray(values[p], dtype=float) for p in basis}
        shape = np.broadcast_shapes(*(a.shape for a in arrays.values()))
        out = np.zeros(shape + base.shape, dtype=dtype)
        out += base
        for p, a in arrays.items():
            out += a[..., None, None] * basis[p]
        return out

    return build


def _to_bloch(m: np.ndarray) -> np.ndarray:
    """BLOCH m BLOCH^dag, real to rounding for a Hermiticity-preserving m."""
    b = BLOCH @ m @ BLOCH.conj().T
    if np.abs(b.imag).max() > 1e-14 * (1.0 + np.abs(b).max()):
        raise ValueError("generator does not preserve Hermiticity")
    return b.real


def _linear_batch(scalar_build: Callable, params: tuple[str, ...], kind: str):
    """Lift a scalar builder that is linear in every parameter to arrays.

    All catalog generators are linear in their parameters, so the stacked
    matrix is  base + sum_p p * basis_p  with basis matrices extracted from
    the scalar builder once.  Returns that builder and, for a Liouvillian,
    the builder of its real Bloch form from the same base and basis mapped
    through BLOCH (None for a Hamiltonian).
    """
    zeros = {p: 0.0 for p in params}
    base = scalar_build(**zeros)
    basis = {p: scalar_build(**{**zeros, p: 1.0}) - base for p in params}
    build = _affine(base, basis, complex)
    if kind != "liouvillian":
        return build, None
    return build, _affine(_to_bloch(base), {p: _to_bloch(b) for p, b in basis.items()}, float)


MODELS: dict[str, ModelSpec] = {}


def _register(name, dim, kind, params, scalar, defaults=None):
    build, bloch_build = _linear_batch(scalar, params, kind)
    MODELS[name] = ModelSpec(
        name=name,
        dim=dim,
        kind=kind,
        params=params,
        defaults=defaults or {},
        build=build,
        bloch_build=bloch_build,
    )


_register(
    "pt", 2, "hamiltonian", ("J", "Gamma"),
    lambda J, Gamma: pt_hamiltonian(PTParams(J=J, Gamma=Gamma)),
)
_register(
    "encircle", 2, "hamiltonian", ("J", "Omega", "Gamma"), encircle_model,
    defaults={"Omega": 0.0},
)
_register(
    "coldatom_heff", 2, "hamiltonian", ("delta", "coupling", "Gamma"),
    lambda delta, coupling, Gamma: coldatom_heff(
        ColdAtomParams(delta=delta, coupling=coupling, Gamma=Gamma)
    ),
)
_register("basic_liouvillian", 4, "liouvillian", ("J", "Gamma"), basic_liouvillian)
_register(
    "detuned_liouvillian", 4, "liouvillian", ("J", "Gamma", "delta"),
    detuned_liouvillian,
)
_register(
    "coldatom_liouvillian", 4, "liouvillian", ("delta", "coupling", "Gamma", "gamma"),
    lambda delta, coupling, Gamma, gamma: coldatom_liouvillian(
        ColdAtomParams(delta=delta, coupling=coupling, Gamma=Gamma, gamma=gamma)
    ),
)

# Parameter aliases accepted in configs; the printed post-selected generator
# calls the Rabi term J while the effective Hamiltonian calls it Omega.
PARAM_ALIASES = {
    "coldatom_liouvillian": {"J": "coupling", "Omega": "coupling"},
    "coldatom_heff": {"J": "coupling", "Omega": "coupling"},
}


def get_model(name: str) -> ModelSpec:
    try:
        return MODELS[name]
    except KeyError:
        raise UnknownModel(f"unknown model '{name}'; known: {sorted(MODELS)}") from None


def resolve_params(model: ModelSpec, values: dict) -> dict:
    """Apply per-model aliases and reject unknown parameter names."""
    aliases = PARAM_ALIASES.get(model.name, {})
    out = {}
    for key, val in values.items():
        canon = aliases.get(key, key)
        if canon not in model.params:
            raise ValueError(
                f"model '{model.name}' has no parameter '{key}'"
                f" (expected {list(model.params)})"
            )
        out[canon] = val
    return out


@dataclass(frozen=True)
class PathDrive:
    """A catalog model driven along an EncirclePath in two of its parameters.

    The path's plane string "x-y" names which parameters the path
    coordinates feed; the rest stay fixed.  Calling ``matrices(times)``
    evaluates the stacked generators for a whole time grid at once, and
    ``bloch_matrices(times)`` a Liouvillian's real Bloch form.
    """

    model: ModelSpec
    path: EncirclePath
    fixed: dict

    def __post_init__(self):
        object.__setattr__(self, "fixed", resolve_params(self.model, self.fixed))
        x_name, y_name = self.axis_names
        if x_name == y_name:
            raise ValueError("x_name and y_name name the same parameter")
        for nm in (x_name, y_name):
            if nm not in self.model.params:
                raise ValueError(
                    f"plane axis '{nm}' is not a parameter of model "
                    f"'{self.model.name}'"
                )

    @property
    def axis_names(self) -> tuple[str, str]:
        parts = self.path.plane.split("-")
        if len(parts) != 2:
            raise ValueError(f"plane '{self.path.plane}' is not of the form 'x-y'")
        aliases = PARAM_ALIASES.get(self.model.name, {})
        return aliases.get(parts[0], parts[0]), aliases.get(parts[1], parts[1])

    def with_direction(self, direction: str) -> "PathDrive":
        return replace(self, path=replace(self.path, direction=direction))

    def _values(self, times) -> dict:
        """The model's parameter values at the path points of ``times``."""
        x, y = self.path.point(times)
        x_name, y_name = self.axis_names
        return {**self.fixed, x_name: x, y_name: y}

    def matrices(self, times) -> np.ndarray:
        return self.model.matrix(**self._values(times))

    def bloch_matrices(self, times) -> np.ndarray:
        """``matrices`` of a Liouvillian in its real Bloch form, a ``float``
        stack with the same spectrum (``ModelSpec.bloch_matrix``)."""
        if self.model.bloch_matrix is None:
            raise ValueError(f"model '{self.model.name}' has no real Bloch form")
        return self.model.bloch_matrix(**self._values(times))

    def matrix(self, t: float) -> np.ndarray:
        return self.matrices(float(t))
