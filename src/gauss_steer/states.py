"""Gaussian states at the covariance-matrix level.

A state is a real symmetric covariance matrix plus a displacement vector
over a mode partition; validity and A -> B unsteerability are both
positive-semidefiniteness certificates.  Displacements never enter either
predicate.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DimensionError, InvalidParameterError, InvalidStateError
from .symplectic import (
    TOL,
    ModePartition,
    direct_sum,
    hermitian_part,
    is_psd,
    min_eigenvalue,
    omega,
    omega_hat,
    random_orthosymplectic,
)

# Random generators shift eigenvalues to at least this distance from the
# PSD boundary so property sweeps never sit on it.
GENERATOR_MARGIN = 1e-3


@dataclass(frozen=True, eq=False)
class GaussianState:
    """Covariance matrix ``cm`` (2N x 2N) and displacement ``d`` over a partition.

    Construction validates shapes and symmetry only; physicality is a
    separate certificate (:func:`is_valid_state`) because several oracles
    need to represent candidate matrices that may fail it.
    """

    partition: ModePartition
    cm: np.ndarray
    d: Optional[np.ndarray] = None

    def __post_init__(self):
        dim = self.partition.dim
        cm = np.array(self.cm, dtype=float)
        if cm.shape != (dim, dim):
            raise DimensionError(
                f"covariance matrix shape {cm.shape} does not match 2N = {dim}"
            )
        cm = hermitian_part(cm, "covariance matrix")
        cm.setflags(write=False)
        d = np.zeros(dim) if self.d is None else np.array(self.d, dtype=float)
        if d.shape != (dim,):
            raise DimensionError(f"displacement shape {d.shape}, expected ({dim},)")
        d.setflags(write=False)
        object.__setattr__(self, "cm", cm)
        object.__setattr__(self, "d", d)


def is_valid_state(state: GaussianState, tol: float = TOL) -> bool:
    """Physicality certificate: cm + i omega(N) >= 0."""
    return bool(is_psd(state.cm + 1j * omega(state.partition.modes), tol))


def is_unsteerable(state: GaussianState, tol: float = TOL) -> bool:
    """A -> B unsteerability certificate: cm + i omega_hat >= 0.

    Requires a valid state; displacements are ignored.
    """
    if not is_valid_state(state, tol):
        raise InvalidStateError("unsteerability is only defined for valid states")
    return bool(is_psd(state.cm + 1j * omega_hat(state.partition), tol))


@dataclass(frozen=True)
class StandardFormParams:
    """Entries (a, b, c, d) of the canonical two-mode covariance matrix."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        slack = 1e-9 * max(1.0, abs(self.a * self.b))
        if self.a < 1.0 - 1e-9 or self.b < 1.0 - 1e-9:
            raise InvalidParameterError(
                f"need a, b >= 1, got a={self.a}, b={self.b}"
            )
        if self.a * self.b - self.c**2 < 1.0 - slack:
            raise InvalidParameterError("need a*b - c^2 >= 1")
        if self.a * self.b - self.d**2 < 1.0 - slack:
            raise InvalidParameterError("need a*b - d^2 >= 1")


def standard_two_mode(
    params: StandardFormParams, d: Optional[np.ndarray] = None
) -> GaussianState:
    """Two-mode state in standard form over the (1, 1) partition."""
    a, b, c, dd = params.a, params.b, params.c, params.d
    cm = np.array(
        [
            [a, 0.0, c, 0.0],
            [0.0, a, 0.0, dd],
            [c, 0.0, b, 0.0],
            [0.0, dd, 0.0, b],
        ]
    )
    return GaussianState(ModePartition(1, 1), cm, d)


def two_mode_squeezed(r: float) -> GaussianState:
    """Pure two-mode squeezed state with squeezing parameter r (det cm = 1)."""
    if not np.isfinite(r):
        raise InvalidParameterError("squeezing parameter must be finite")
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    return standard_two_mode(StandardFormParams(ch, ch, sh, -sh))


def vacuum(partition: ModePartition) -> GaussianState:
    return GaussianState(partition, np.eye(partition.dim))


def random_state(partition: ModePartition, seed: int) -> GaussianState:
    """Deterministic random valid state: G^T G eigen-shifted past the boundary.

    The shift is the smallest one restoring cm + i omega >= 0, plus the
    generator margin, so results are valid but typically close to the
    physicality boundary (which is where interesting steering inputs live).
    """
    cm = _random_valid_cm(np.random.default_rng(seed), omega(partition.modes))
    return GaussianState(partition, cm)


def _random_valid_cm(rng: np.random.Generator, om: np.ndarray) -> np.ndarray:
    dim = om.shape[0]
    g = rng.standard_normal((dim, dim))
    cm = g.T @ g
    lam = min_eigenvalue(cm + 1j * om)
    return cm + (max(0.0, -lam) + GENERATOR_MARGIN) * np.eye(dim)


def random_unsteerable_state(partition: ModePartition, seed: int) -> GaussianState:
    """Deterministic random state that is both valid and A -> B unsteerable.

    Uses the decomposition cm = (0 oplus Q) + P with Q + i omega(n) >= 0 and
    P = B B^T >= 0.  Unsteerability alone does not bound the A block, so P
    additionally absorbs (1 + margin) I on the A side, which is exactly
    enough to dominate i omega(m) there and make the state valid.
    """
    rng = np.random.default_rng(seed)
    m, n = partition.m, partition.n
    q0 = rng.standard_normal((2 * n, 2 * n))
    q = 0.5 * (q0 + q0.T)
    lam = min_eigenvalue(q + 1j * omega(n))
    q = q + (max(0.0, -lam) + GENERATOR_MARGIN) * np.eye(2 * n)
    b = rng.standard_normal((partition.dim, partition.dim))
    p = b @ b.T
    if m > 0:
        p[: 2 * m, : 2 * m] += (1.0 + GENERATOR_MARGIN) * np.eye(2 * m)
        cm = direct_sum(np.zeros((2 * m, 2 * m)), q) + p
    else:
        cm = q + p
    return GaussianState(partition, cm)


def random_pure_state(partition: ModePartition, seed: int) -> GaussianState:
    """Deterministic random pure state cm = S S^T with S symplectic.

    S = O1 * squeeze * O2 with passive orthosymplectic factors and per-mode
    squeezing drawn from [0, 2].  Pure states sit on the physicality
    boundary and carry strong intermode correlations, which makes them the
    probes of choice for steering falsifiers.
    """
    rng = np.random.default_rng(seed)
    return GaussianState(partition, _random_pure_cm(partition, rng))


def _random_pure_cm(partition: ModePartition, rng: np.random.Generator) -> np.ndarray:
    n_modes = partition.modes
    o1 = random_orthosymplectic(n_modes, rng)
    o2 = random_orthosymplectic(n_modes, rng)
    z = rng.uniform(0.0, 2.0, n_modes)
    squeeze = np.diag(np.stack([np.exp(z), np.exp(-z)], axis=1).ravel())
    s = o1 @ squeeze @ o2
    return s @ s.T


def swap_subsystems(state: GaussianState) -> GaussianState:
    """Exchange the A and B sides, turning A -> B questions into B -> A ones."""
    part = state.partition
    perm = _swap_permutation(part)
    return GaussianState(part.swapped(), perm @ state.cm @ perm.T, perm @ state.d)


def _swap_permutation(partition: ModePartition) -> np.ndarray:
    dim = partition.dim
    cut = 2 * partition.m
    perm = np.zeros((dim, dim))
    perm[: dim - cut, cut:] = np.eye(dim - cut)
    perm[dim - cut :, :cut] = np.eye(cut)
    return perm
