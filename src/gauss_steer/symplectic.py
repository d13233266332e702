"""Symplectic-form primitives and Hermitian positive-semidefinite certificates.

Everything in this package uses the interleaved quadrature ordering
(q1, p1, ..., qN, pN), so an N-mode object is a 2N x 2N matrix whose
2x2 diagonal blocks belong to individual modes.
"""

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

import numpy as np

from .errors import DimensionError, NotHermitianError, SingularBlockError

# The one relative tolerance, applied through :func:`threshold`.  The
# classification criteria are exact inequalities; inputs are floating point.
TOL = 1e-8

_SINGLE_MODE_FORM = np.array([[0.0, 1.0], [-1.0, 0.0]])


@dataclass(frozen=True)
class ModePartition:
    """An (m + n) split of an N-mode system into subsystems A and B.

    Subsystem A holds the first m modes, B the remaining n.  All steering
    predicates in this package are directional A -> B; use the swap helpers
    in :mod:`gauss_steer.states` / :mod:`gauss_steer.channels` for the
    reverse direction.
    """

    m: int
    n: int

    def __post_init__(self):
        if not (isinstance(self.m, int) and isinstance(self.n, int)):
            raise DimensionError("mode counts must be integers")
        if self.m < 0 or self.n < 1:
            raise DimensionError(
                f"need m >= 0 and n >= 1, got (m, n) = ({self.m}, {self.n})"
            )

    @property
    def modes(self) -> int:
        return self.m + self.n

    @property
    def dim(self) -> int:
        """Side length of matrices over this system (2 per mode)."""
        return 2 * (self.m + self.n)

    def swapped(self) -> "ModePartition":
        if self.m < 1:
            raise DimensionError("cannot swap a partition with an empty A side")
        return ModePartition(self.n, self.m)


def omega(n_modes: int) -> np.ndarray:
    """Symplectic form on ``n_modes`` modes: block diagonal [[0, 1], [-1, 0]]."""
    if n_modes < 1:
        raise DimensionError("omega needs at least one mode")
    return np.kron(np.eye(n_modes), _SINGLE_MODE_FORM)


def omega_hat(partition: ModePartition) -> np.ndarray:
    """Partial symplectic form: zeros on the A block, omega(n) on the B block.

    This is the matrix at the heart of every steering criterion here: a
    state is A -> B unsteerable exactly when its covariance matrix plus
    i times this form is positive semidefinite.
    """
    out = np.zeros((partition.dim, partition.dim))
    out[2 * partition.m :, 2 * partition.m :] = omega(partition.n)
    return out


@functools.lru_cache(maxsize=64)
def forms(partition: ModePartition) -> Mapping[str, np.ndarray]:
    """Read-only ``omega``, ``omega_hat`` and ``zero`` of a partition, built once.

    They fill the slots of every criterion, and building one with ``np.kron``
    (about 30 us) costs more than a whole PSD check on two modes.
    """
    out = {
        "omega": omega(partition.modes),
        "omega_hat": omega_hat(partition),
        "zero": np.zeros((partition.dim, partition.dim)),
    }
    for form in out.values():
        form.setflags(write=False)
    return MappingProxyType(out)


def sigma(n_modes: int) -> np.ndarray:
    """Momentum-flip matrix diag(1, -1, 1, -1, ...) on ``n_modes`` modes."""
    if n_modes < 1:
        raise DimensionError("sigma needs at least one mode")
    return np.kron(np.eye(n_modes), np.diag([1.0, -1.0]))


def direct_sum(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    sizes = [b.shape[0] for b in blocks]
    total = sum(sizes)
    dtype = np.result_type(*[b.dtype for b in blocks])
    out = np.zeros((total, total), dtype=dtype)
    pos = 0
    for b, s in zip(blocks, sizes):
        out[pos : pos + s, pos : pos + s] = b
        pos += s
    return out


def _as_square(h) -> np.ndarray:
    h = np.asarray(h)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {h.shape}")
    return h


def _opnorm(h: np.ndarray) -> float:
    """Max-row-sum norm; cheap and adequate for relative thresholds."""
    if h.size == 0:
        return 0.0
    return float(np.abs(h).sum(axis=1).max())


def threshold(x: np.ndarray, tol: float = TOL) -> float:
    """The one tolerance rule: tol * (1 + ||X||), in the max-row-sum norm.

    Every verdict compares against it.  A PSD certificate passes when its
    smallest eigenvalue is at least minus this; a quantified condition holds
    when its value is at least minus the larger threshold of its pencil's
    two corners; a symmetry, orthogonality or equality residual fails when
    it exceeds it.
    """
    return tol * (1.0 + _opnorm(x))


def check_symmetry(h: np.ndarray, name: str, anti: bool = False) -> None:
    """Reject ``h`` unless H^dag = H (or -H when ``anti``) up to ``threshold(h)``.

    Asymmetry beyond that is treated as an input error rather than silently
    averaged away.  For real matrices Hermitian means symmetric.  The error
    names ``name``.
    """
    adj = h.conj().T
    dev = _opnorm(h + adj if anti else h - adj)
    if dev > threshold(h):
        kind = "anti-Hermitian" if anti else "Hermitian"
        raise NotHermitianError(
            f"{name} deviates from {kind} by {dev:.3e} (norm {_opnorm(h):.3e})"
        )


def hermitian_part(h, name: str = "matrix") -> np.ndarray:
    """Return (H + H^dag)/2 after :func:`check_symmetry` accepts H."""
    h = _as_square(h)
    check_symmetry(h, name)
    return 0.5 * (h + h.conj().T)


def min_eigenvalue(h) -> float:
    """Smallest eigenvalue of the Hermitian part of ``h``.

    Deterministic for a fixed input (LAPACK dense solver, no iteration
    seeds involved).
    """
    return float(np.linalg.eigvalsh(hermitian_part(h))[0])


@dataclass(frozen=True)
class PsdCheck:
    """Outcome of a positive-semidefiniteness certificate.

    ``witness`` is the eigenvector of the most negative eigenvalue and is
    present exactly when the check fails.
    """

    ok: bool
    min_eigenvalue: float
    threshold: float
    witness: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.ok


def is_psd(h, tol: float = TOL) -> PsdCheck:
    """Certify H >= 0: its smallest eigenvalue is at least -threshold(H, tol).

    The relative form keeps boundary objects (pure lossy channels, the
    identity channel) on the PSD side when they evaluate to exact zeros
    perturbed by rounding.
    """
    sym = hermitian_part(h)
    vals, vecs = np.linalg.eigh(sym)
    lam = float(vals[0])
    bound = threshold(sym, tol)
    if lam >= -bound:
        return PsdCheck(True, lam, bound)
    return PsdCheck(False, lam, bound, witness=vecs[:, 0].copy())


def schur_complement(w, head: int) -> np.ndarray:
    """Schur complement W11 - W12 W22^{-1} W12^dag for a 2x2 block split.

    ``head`` is the side length of the leading block W11.  A numerically
    singular trailing block raises :class:`SingularBlockError`.
    """
    w = _as_square(np.asarray(w, dtype=complex))
    d = w.shape[0]
    if not 0 < head < d:
        raise DimensionError(f"block split {head} out of range for size {d}")
    w11 = w[:head, :head]
    w12 = w[:head, head:]
    w22 = w[head:, head:]
    if np.linalg.cond(w22) > 1e12:
        raise SingularBlockError("trailing block is numerically singular")
    return w11 - w12 @ np.linalg.inv(w22) @ w12.conj().T


def random_orthosymplectic(n_modes: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random matrix that is both orthogonal and symplectic.

    Built from a random N x N unitary U = X + iY via the interleaved
    2x2-block embedding [[X, -Y], [Y, X]] per mode pair, the real
    representation of the passive (beam-splitter/phase) group.
    """
    z = rng.standard_normal((n_modes, n_modes)) + 1j * rng.standard_normal(
        (n_modes, n_modes)
    )
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    u = q * phases.conj()
    out = np.zeros((2 * n_modes, 2 * n_modes))
    x, y = u.real, u.imag
    out[0::2, 0::2] = x
    out[0::2, 1::2] = -y
    out[1::2, 0::2] = y
    out[1::2, 1::2] = x
    return out
