"""Exact decision of universally quantified quadratic-form conditions.

The conditions decided here all share one shape:

    for all complex w:   w^dag H w  +  |w^dag S w|  >=  |w^dag T w|

with H real symmetric, S and T real antisymmetric, and the plus term S
optional.  Each |.| is the modulus of a purely imaginary number, so the gap

    g(w) = w^dag H w + |w^dag S w| - |w^dag T w|

is real and homogeneous of degree two.  Writing |s| = max_{|t| <= 1} t s
and -|tau| = min_{sigma = +-1} (-sigma tau) turns g into a min-max of
Hermitian forms, and the joint numerical range of two Hermitian matrices
is convex (Toeplitz-Hausdorff), so the minimax swap is exact:

    min_{|w| = 1} g(w) = min_sigma max_{t in [-1, 1]} lambda_min(P(sigma, t)),
    P(sigma, t) = H + i sigma T - i t S.

lambda_min is concave in t, so a fixed-length bisection on the sign of its
slope finds each inner maximum; there is no budget to tune and no undecided
outcome.
"""

import enum
import functools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionError, InvalidParameterError
from .symplectic import TOL, check_symmetry, hermitian_part, threshold

_GRID_MAX_DIM = 4  # complex dimension cap for the brute-force sphere sweep
_BLOCK_ROWS = 4096  # rows per block in evaluate_many

# Bisection steps over t in [-1, 1]: 60 halvings shrink the bracket below
# the spacing of doubles.
_BISECTION_STEPS = 60


class VerdictState(enum.Enum):
    HOLDS = "HOLDS"
    VIOLATED = "VIOLATED"


@dataclass(frozen=True, eq=False)
class Verdict:
    """Outcome of a quantified check.

    ``value`` is the minimum of the gap over the unit sphere.  ``witness``
    is a unit vector achieving ``value`` and is present exactly when
    VIOLATED; it always re-evaluates to ``value``.  Truthy exactly when it
    holds, as :class:`~gauss_steer.symplectic.PsdCheck` is.
    """

    state: VerdictState
    value: float
    witness: Optional[np.ndarray] = None

    @property
    def holds(self) -> bool:
        return self.state is VerdictState.HOLDS

    @property
    def violated(self) -> bool:
        return self.state is VerdictState.VIOLATED

    def __bool__(self) -> bool:
        return self.holds


class QuantifiedCondition:
    """Data of one quantified inequality: H, at most one added |.| term, subtracted |.| term.

    H is symmetrized on construction; the antisymmetric terms are validated
    by the same symmetry check as every other input and stored as given.
    """

    def __init__(self, h, plus_terms: Sequence[np.ndarray], minus_term):
        self.h = hermitian_part(np.asarray(h, dtype=float), "H")
        if len(plus_terms) > 1:
            raise InvalidParameterError(
                f"at most one plus term is supported, got {len(plus_terms)}"
            )
        self.h.setflags(write=False)
        self.plus_terms = tuple(
            self._check_antisymmetric(s, "plus term") for s in plus_terms
        )
        self.minus_term = self._check_antisymmetric(minus_term, "minus term")
        self.dim = self.h.shape[0]

    def _check_antisymmetric(self, s, what: str) -> np.ndarray:
        s = np.array(s, dtype=float)
        if s.shape != self.h.shape:
            raise DimensionError(f"{what} shape {s.shape} != H shape {self.h.shape}")
        check_symmetry(s, what, anti=True)
        s.setflags(write=False)
        return s


def evaluate(cond: QuantifiedCondition, w) -> float:
    """Gap g(w) at a single vector.  Raises on the zero vector."""
    w = np.asarray(w, dtype=complex).ravel()
    if w.shape[0] != cond.dim:
        raise DimensionError(f"w has length {w.shape[0]}, expected {cond.dim}")
    if not np.any(w):
        raise InvalidParameterError("g is undefined at the zero vector")
    v = w.conj()
    total = float(np.real(v @ cond.h @ w))
    for s in cond.plus_terms:
        total += abs(float(np.imag(v @ s @ w)))
    total -= abs(float(np.imag(v @ cond.minus_term @ w)))
    return total


def evaluate_many(cond: QuantifiedCondition, vectors: np.ndarray) -> np.ndarray:
    """Vectorized g over the rows of ``vectors`` (no normalization applied).

    With w = a + i b and real matrices, w^dag H w = a^T H a + b^T H b and
    Im(w^dag S w) = 2 a^T S b, so everything runs in real arithmetic, in
    blocks of rows small enough to stay in cache.
    """
    w = np.asarray(vectors, dtype=complex)

    def quad(mat, x, y):
        return np.einsum("ij,ij->i", x @ mat, y)

    out = np.empty(w.shape[0])
    for i in range(0, w.shape[0], _BLOCK_ROWS):
        # contiguous copies: matmul on the strided views is about 100x slower
        a = np.ascontiguousarray(w[i : i + _BLOCK_ROWS].real)
        b = np.ascontiguousarray(w[i : i + _BLOCK_ROWS].imag)
        g = quad(cond.h, a, a) + quad(cond.h, b, b)
        for s in cond.plus_terms:
            g += 2.0 * np.abs(quad(s, a, b))
        g -= 2.0 * np.abs(quad(cond.minus_term, a, b))
        out[i : i + _BLOCK_ROWS] = g
    return out


def _unit_rows(w: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    keep = norms[:, 0] > 1e-12
    return w[keep] / norms[keep]


def _max_lambda_min(base: np.ndarray, slope: np.ndarray):
    """Per-sign maximum over t in [-1, 1] of lambda_min(base[k] + t * slope).

    ``base`` stacks one Hermitian matrix per sign.  lambda_min is concave in
    t and u^dag slope u, with u its eigenvector, is a supergradient
    (Hellmann-Feynman), so bisecting on its sign brackets the maximizer to
    machine precision for all signs at once.  Bisecting on values instead
    (golden section) stalls near sqrt(machine epsilon) on a smooth maximum,
    whose values there differ only by rounding.  Returns (t*, value).
    """
    n = base.shape[0]
    lo, hi = np.full(n, -1.0), np.full(n, 1.0)
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        _, vecs = np.linalg.eigh(base + mid[:, None, None] * slope)
        u = vecs[:, :, 0]
        rising = np.einsum("ki,ij,kj->k", u.conj(), slope, u).real > 0.0
        lo = np.where(rising, mid, lo)
        hi = np.where(rising, hi, mid)
    ts = np.stack([np.full(n, -1.0), 0.5 * (lo + hi), np.ones(n)])
    fs = np.stack(
        [np.linalg.eigvalsh(base + t[:, None, None] * slope)[:, 0] for t in ts]
    )
    best = np.argmax(fs, axis=0)
    cols = np.arange(n)
    return ts[best, cols], fs[best, cols]


def _witness(cond: QuantifiedCondition, pencil, slope, t: float):
    """Unit vector scoring the minimum, from the lambda_min eigenspace at t.

    A vector u of that eigenspace scores at most lambda_min + |mu| - t mu,
    with mu = u^dag (-iS) u, so it reaches lambda_min when t mu = |mu|.  A
    simple eigenvalue at an interior maximum has mu = 0, and at t = +-1 the
    maximizer's supergradient t mu is non-negative.  When lambda_min is
    degenerate, let u1, u2 be the eigenvectors of the compression of -iS
    with the smallest and largest eigenvalues mu1 <= mu2.  At t = +1 (-1)
    u2 (u1) is the candidate; at an interior kink with mu1 <= 0 <= mu2 it is
    the mix w = sqrt(mu2 / (mu2 - mu1)) u1 + sqrt(-mu1 / (mu2 - mu1)) u2,
    whose mu vanishes.
    """
    lam, vecs = np.linalg.eigh(pencil)
    candidates = [vecs[:, 0]]
    near = lam - lam[0] <= 1e-9 * (1.0 + np.abs(lam).max())
    if near.sum() > 1:
        u = vecs[:, near]
        mu, y = np.linalg.eigh(u.conj().T @ slope @ u)
        lo, hi = mu[0], mu[-1]
        if abs(t) >= 1.0:
            candidates.append(u @ y[:, -1 if t > 0.0 else 0])
        elif lo <= 0.0 <= hi and hi > lo:
            w = np.sqrt(hi / (hi - lo)) * (u @ y[:, 0])
            w = w + np.sqrt(-lo / (hi - lo)) * (u @ y[:, -1])
            candidates.append(w / np.linalg.norm(w))
    scores = [evaluate(cond, w) for w in candidates]
    i = int(np.argmin(scores))
    return scores[i], candidates[i]


def decide(cond: QuantifiedCondition, tol: float = TOL) -> Verdict:
    """Decide a quantified condition exactly: HOLDS or VIOLATED(witness).

    The value is min over sigma = +-1 of max over t in [-1, 1] of
    lambda_min(H + i sigma T - i t S), the exact minimum of the gap on the
    unit sphere.  HOLDS iff it is at least minus the largest
    :func:`~gauss_steer.symplectic.threshold` of the pencil's corners
    H + i(T -+ S), the PSD rows a quantified row is paired with; otherwise
    the verdict carries a lambda_min eigenvector at the minimizing
    (sigma, t*) and reports that vector's own gap as its value.
    """
    base = np.stack(
        [cond.h + 1j * cond.minus_term, cond.h - 1j * cond.minus_term]
    )
    s = cond.plus_terms[0] if cond.plus_terms else np.zeros_like(cond.h)
    slope = -1j * s
    ts, values = _max_lambda_min(base, slope)
    k = int(np.argmin(values))
    value = float(values[k]) + 0.0  # so an exact zero never prints as -0.0
    # is_psd's threshold of each corner H + i(T -+ S), on its Hermitian part
    corners = base[0] + np.stack([slope, -slope])
    bound = max(threshold(0.5 * (c + c.conj().T), tol) for c in corners)
    if value >= -bound:
        return Verdict(VerdictState.HOLDS, value)
    t = float(ts[k])
    score, w = _witness(cond, base[k] + t * slope, slope, t)
    return Verdict(VerdictState.VIOLATED, score, witness=w)


# Holds one sample per mode count the grid supports (1 to 4).
@functools.lru_cache(maxsize=_GRID_MAX_DIM)
def _sphere(dim: int, n_bits: int) -> np.ndarray:
    """Unit rows of an unscrambled Sobol sequence mapped through the normal quantile."""
    from scipy.stats import norm, qmc

    u = qmc.Sobol(d=2 * dim, scramble=False).random_base2(n_bits)
    x = norm.ppf(u)
    # the first Sobol point is all zeros and maps to -inf; the filter drops it
    x = x[np.all(np.isfinite(x), axis=1)]
    w = _unit_rows(x[:, 0::2] + 1j * x[:, 1::2])
    w.setflags(write=False)
    return w


def falsify_grid(
    cond: QuantifiedCondition, resolution: int = 100000
) -> Optional[np.ndarray]:
    """Brute-force low-discrepancy sweep of the unit sphere (desk-scale oracle).

    Only available up to complex dimension 4 (8 real dimensions).  Returns
    the most negative point if the sweep finds any g < 0, else None.  Uses
    an unscrambled Sobol sequence mapped through the normal quantile, so the
    sweep is deterministic and independent of every code path in
    :func:`decide`.  The sample is built once per (dimension, size).

    The minimum is compared with 0.0 exactly, so on a gap that is
    identically zero (such as a superchannel ``cond_pre`` whose E preserves
    omega_hat) rounding can return a vector scoring about -3e-16.  Callers
    that want a counterexample re-score it with :func:`evaluate` against
    their own floor.
    """
    if cond.dim > 2 * _GRID_MAX_DIM:
        raise DimensionError(
            f"grid oracle supports complex dimension <= {_GRID_MAX_DIM}, "
            f"got {cond.dim}"
        )
    if resolution < 1:
        raise InvalidParameterError("resolution must be positive")
    w = _sphere(cond.dim, int(np.ceil(np.log2(max(resolution, 2)))))
    vals = evaluate_many(cond, w)
    i = int(np.argmin(vals))
    if vals[i] < 0.0:
        return w[i].copy()
    return None
