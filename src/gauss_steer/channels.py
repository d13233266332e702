"""Gaussian channels as (K, M, d) triples and their steering classification.

A channel acts on covariance matrices as cm -> K cm K^T + M and on
displacements as d -> K d + d0.  Four classification predicates are
provided, each with machine-checkable evidence:

* unsteerable:            M + i omega_hat - K (i omega_hat) K^T >= 0
* sa_sufficient:          M + i omega_hat - i K omega K^T >= 0
                          (sufficient for steering-annihilating, not necessary)
* steering-annihilating:  every Gaussian input maps to an unsteerable output;
                          equivalent to a quantified quadratic-form inequality
                          decided by :mod:`gauss_steer.quantifier`
* maximal unsteerable:    every unsteerable input maps to an unsteerable
                          output; same machinery with the K-sandwiched form
                          replaced by the partial one
* steering-breaking:      M - i K omega K^T >= 0; equivalent to the channel's
                          squeezed-probe output being unsteerable in the
                          infinite-squeezing limit

Displacements never influence any predicate.
"""

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from .errors import (
    DimensionError,
    GaussSteerError,
    InvalidChannelError,
    InvalidParameterError,
    InvalidStateError,
)
from .quantifier import QuantifiedCondition, Verdict, decide
from .states import (
    GENERATOR_MARGIN,
    GaussianState,
    _random_pure_cm,
    _random_valid_cm,
    _swap_permutation,
    is_valid_state,
)
from .symplectic import (
    TOL,
    ModePartition,
    PsdCheck,
    criterion_matrix,
    direct_sum,
    hermitian_part,
    is_psd,
    min_eigenvalue,
    omega,
    omega_hat,
    sigma,
)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Channel data (K, M, d) over a mode partition.

    M must be symmetric; complete positivity is a separate certificate
    (:func:`is_valid_channel`) so that rejected candidates can still be
    represented and reported on.
    """

    partition: ModePartition
    K: np.ndarray
    M: np.ndarray
    d: Optional[np.ndarray] = None

    def __post_init__(self):
        dim = self.partition.dim
        k = np.array(self.K, dtype=float)
        m = np.array(self.M, dtype=float)
        if k.shape != (dim, dim):
            raise DimensionError(f"K shape {k.shape} does not match 2N = {dim}")
        if m.shape != (dim, dim):
            raise DimensionError(f"M shape {m.shape} does not match 2N = {dim}")
        m = hermitian_part(m, "M")
        d = np.zeros(dim) if self.d is None else np.array(self.d, dtype=float)
        if d.shape != (dim,):
            raise DimensionError(f"displacement shape {d.shape}, expected ({dim},)")
        for arr in (k, m, d):
            arr.setflags(write=False)
        object.__setattr__(self, "K", k)
        object.__setattr__(self, "M", m)
        object.__setattr__(self, "d", d)

    def __call__(self, state: GaussianState) -> GaussianState:
        return apply(self, state)


def cp_check(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    """Complete-positivity certificate M + i omega - i K omega K^T >= 0."""
    om = omega(channel.partition.modes)
    return is_psd(criterion_matrix(channel.M, om, channel.K, om), tol)


def is_valid_channel(channel: GaussianChannel, tol: float = TOL) -> bool:
    return bool(cp_check(channel, tol))


def _require_cp(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    check = cp_check(channel, tol)
    if not check:
        raise InvalidChannelError(
            "completely positive condition violated "
            f"(min eigenvalue {check.min_eigenvalue:.6e})"
        )
    return check


def apply(channel: GaussianChannel, state: GaussianState) -> GaussianState:
    """Push a valid state through a CP-valid channel."""
    if channel.partition.modes != state.partition.modes:
        raise DimensionError("channel and state mode counts differ")
    _require_cp(channel)
    if not is_valid_state(state):
        raise InvalidStateError("input covariance matrix is not a valid state")
    cm = channel.K @ state.cm @ channel.K.T + channel.M
    d = channel.K @ state.d + channel.d
    return GaussianState(state.partition, cm, d)


def compose(outer: GaussianChannel, inner: GaussianChannel) -> GaussianChannel:
    """Channel running ``inner`` first, then ``outer``."""
    if outer.partition.dim != inner.partition.dim:
        raise DimensionError("cannot compose channels of different sizes")
    return GaussianChannel(
        inner.partition,
        outer.K @ inner.K,
        outer.K @ inner.M @ outer.K.T + outer.M,
        outer.K @ inner.d + outer.d,
    )


def identity_channel(partition: ModePartition) -> GaussianChannel:
    dim = partition.dim
    return GaussianChannel(partition, np.eye(dim), np.zeros((dim, dim)))


def attenuator(theta: float, n_th: float = 1.0) -> GaussianChannel:
    """Single-mode attenuator: K = cos(theta) I, M = sin^2(theta) n_th I.

    ``n_th`` is the thermal occupation (>= 1); n_th = 1 is the pure lossy
    channel, which sits exactly on the complete-positivity boundary.
    """
    if n_th < 1.0:
        raise InvalidParameterError(f"thermal noise must be >= 1, got {n_th}")
    k = np.cos(theta) * np.eye(2)
    m = np.sin(theta) ** 2 * n_th * np.eye(2)
    return GaussianChannel(ModePartition(0, 1), k, m)


def constant_channel(target: GaussianState) -> GaussianChannel:
    """Channel mapping every input to ``target``: K = 0, M = target cm."""
    if not is_valid_state(target):
        raise InvalidStateError("constant channel target must be a valid state")
    dim = target.partition.dim
    return GaussianChannel(target.partition, np.zeros((dim, dim)), target.cm, target.d)


def tensor_with_identity(
    channel: GaussianChannel, extra_modes: int, side: str = "B"
) -> GaussianChannel:
    """Extend a channel with untouched identity modes on the given side.

    ``side="B"`` appends the identity modes as subsystem B (the original
    channel becomes the A side); ``side="A"`` prepends them.
    """
    if extra_modes < 1:
        raise DimensionError("need at least one extra mode")
    dim = channel.partition.dim
    eye = np.eye(2 * extra_modes)
    zero = np.zeros((2 * extra_modes, 2 * extra_modes))
    if side == "B":
        part = ModePartition(channel.partition.modes, extra_modes)
        k = direct_sum(channel.K, eye)
        m = direct_sum(channel.M, zero)
        d = np.concatenate([channel.d, np.zeros(2 * extra_modes)])
    elif side == "A":
        part = ModePartition(extra_modes, channel.partition.modes)
        k = direct_sum(eye, channel.K)
        m = direct_sum(zero, channel.M)
        d = np.concatenate([np.zeros(2 * extra_modes), channel.d])
    else:
        raise InvalidParameterError(f"side must be 'A' or 'B', got {side!r}")
    return GaussianChannel(part, k, m, d)


def swap_subsystems(channel: GaussianChannel) -> GaussianChannel:
    """Exchange the A and B sides of a channel."""
    perm = _swap_permutation(channel.partition)
    return GaussianChannel(
        channel.partition.swapped(),
        perm @ channel.K @ perm.T,
        perm @ channel.M @ perm.T,
        perm @ channel.d,
    )


# ---------------------------------------------------------------------------
# classification predicates
# ---------------------------------------------------------------------------


def unsteerable_check(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    _require_cp(channel, tol)
    oh = omega_hat(channel.partition)
    return is_psd(criterion_matrix(channel.M, oh, channel.K, oh), tol)


def is_unsteerable_channel(channel: GaussianChannel, tol: float = TOL) -> bool:
    """Unsteerable-channel certificate: M + i omega_hat - K (i omega_hat) K^T >= 0."""
    return bool(unsteerable_check(channel, tol))


def sa_sufficient_check(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    _require_cp(channel, tol)
    part = channel.partition
    matrix = criterion_matrix(channel.M, omega_hat(part), channel.K, omega(part.modes))
    return is_psd(matrix, tol)


def sa_sufficient(channel: GaussianChannel, tol: float = TOL) -> bool:
    """Sufficient (not necessary) PSD certificate for steering annihilation.

    Note the asymmetry: the full symplectic form sits inside the K sandwich
    while only the partial form appears outside.
    """
    return bool(sa_sufficient_check(channel, tol))


def steering_breaking_check(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    _require_cp(channel, tol)
    om = omega(channel.partition.modes)
    return is_psd(criterion_matrix(channel.M, 0.0, channel.K, om), tol)


def is_steering_breaking(channel: GaussianChannel, tol: float = TOL) -> bool:
    """Steering-breaking certificate: M - i K omega K^T >= 0."""
    return bool(steering_breaking_check(channel, tol))


def sa_condition(channel: GaussianChannel) -> QuantifiedCondition:
    """Quantified form whose nonnegativity is equivalent to steering annihilation."""
    part = channel.partition
    return QuantifiedCondition(
        channel.M,
        [channel.K @ omega(part.modes) @ channel.K.T],
        omega_hat(part),
    )


def mus_condition(channel: GaussianChannel) -> QuantifiedCondition:
    """Quantified form equivalent to maximal unsteerability.

    Differs from :func:`sa_condition` only in the matrix inside the K
    sandwich (partial instead of full symplectic form); both run against the
    same solver so the two criteria cannot drift apart.
    """
    oh = omega_hat(channel.partition)
    return QuantifiedCondition(channel.M, [channel.K @ oh @ channel.K.T], oh)


def is_steering_annihilating(channel: GaussianChannel) -> Verdict:
    _require_cp(channel)
    return decide(sa_condition(channel))


def is_maximal_unsteerable(channel: GaussianChannel) -> Verdict:
    _require_cp(channel)
    return decide(mus_condition(channel))


def choi_state(channel: GaussianChannel, r: float) -> GaussianState:
    """Output of (channel x identity) on N two-mode squeezed probe pairs.

    The covariance matrix is
    [[cosh(2r) K K^T + M, sinh(2r) K Sigma], [sinh(2r) Sigma K^T, cosh(2r) I]]
    over the (N, N) partition with the channel output on the A side.  Its
    unsteerability at large r decides steering breaking; the Schur
    complement of cm + i omega_hat onto the A block equals
    M - i K omega K^T identically in r.
    """
    if not np.isfinite(r):
        raise InvalidParameterError("squeezing parameter must be finite")
    _require_cp(channel)
    n = channel.partition.modes
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    sig = sigma(n)
    top = np.hstack([ch * channel.K @ channel.K.T + channel.M, sh * channel.K @ sig])
    bottom = np.hstack([sh * sig @ channel.K.T, ch * np.eye(2 * n)])
    return GaussianState(ModePartition(n, n), np.vstack([top, bottom]))


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """All classification flags for one channel, with per-flag evidence.

    ``evidence`` maps each PSD-backed flag name to its :class:`PsdCheck`;
    the two quantified flags carry their evidence inside the verdicts.
    """

    cp_valid: bool
    unsteerable: bool
    sa_sufficient: bool
    steering_breaking: bool
    steering_annihilating: Verdict
    maximal_unsteerable: Verdict
    evidence: Dict[str, PsdCheck]

    def check_consistency(self) -> None:
        """Raise if the flags contradict the known set inclusions."""
        if self.sa_sufficient and self.steering_annihilating.violated:
            raise GaussSteerError(
                "inconsistent report: PSD-sufficient condition holds but the "
                "steering-annihilating verdict is VIOLATED"
            )
        if self.unsteerable and self.maximal_unsteerable.violated:
            raise GaussSteerError(
                "inconsistent report: unsteerable channel with a VIOLATED "
                "maximal-unsteerable verdict"
            )
        if self.steering_annihilating.holds and self.maximal_unsteerable.violated:
            raise GaussSteerError(
                "inconsistent report: steering-annihilating channel with a "
                "VIOLATED maximal-unsteerable verdict"
            )


def classify(channel: GaussianChannel, tol: float = TOL) -> ClassificationReport:
    """Run every classification predicate and assemble a consistent report.

    Raises :class:`InvalidChannelError` for non-CP input (the individual
    predicates are undefined there).
    """
    cp = _require_cp(channel, tol)
    us = unsteerable_check(channel, tol)
    eq_sa = sa_sufficient_check(channel, tol)
    sb = steering_breaking_check(channel, tol)
    report = ClassificationReport(
        cp_valid=bool(cp),
        unsteerable=bool(us),
        sa_sufficient=bool(eq_sa),
        steering_breaking=bool(sb),
        steering_annihilating=decide(sa_condition(channel)),
        maximal_unsteerable=decide(mus_condition(channel)),
        evidence={
            "cp_valid": cp,
            "unsteerable": us,
            "sa_sufficient": eq_sa,
            "steering_breaking": sb,
        },
    )
    report.check_consistency()
    return report


@dataclass(frozen=True, eq=False)
class FalsifierResult:
    """Outcome of the Monte-Carlo steering-annihilation falsifier.

    ``counterexample``/``output`` are set when some sampled input produced a
    steerable output.  A clean pass only means "no violation in N trials";
    it cannot certify the channel.
    """

    trials: int
    counterexample: Optional[GaussianState] = None
    output: Optional[GaussianState] = None
    trial_index: Optional[int] = None

    @property
    def violation_found(self) -> bool:
        return self.counterexample is not None


def monte_carlo_sa_oracle(
    channel: GaussianChannel,
    trials: int,
    seed: int,
    tol: float = TOL,
) -> FalsifierResult:
    """Search for a valid input whose image under the channel is steerable.

    Alternates generic random states with random pure squeezed probes; the
    pure probes sit on the physicality boundary, where steerable outputs
    are easiest to provoke.  Deterministic per seed and independent of the
    quantified-condition solver, which it exists to cross-check.
    """
    _require_cp(channel, tol)
    part = channel.partition
    rng = np.random.default_rng(seed)
    om = omega(part.modes)
    oh = omega_hat(part)
    for t in range(trials):
        if t % 2 == 0:
            cm = _random_valid_cm(rng, om)
        else:
            cm = _random_pure_cm(part, rng)
        out = channel.K @ cm @ channel.K.T + channel.M
        if not is_psd(out + 1j * oh, tol):
            return FalsifierResult(
                trials=trials,
                counterexample=GaussianState(part, cm),
                output=GaussianState(part, out),
                trial_index=t,
            )
    return FalsifierResult(trials=trials)


def random_channel(partition: ModePartition, seed: int) -> GaussianChannel:
    """Deterministic random CP-valid channel.

    K has entries uniform in [-1.5, 1.5]; M starts from G G^T and is
    eigen-shifted just past the complete-positivity boundary, which spreads
    samples across both sides of every classification boundary.
    """
    rng = np.random.default_rng(seed)
    dim = partition.dim
    k = rng.uniform(-1.5, 1.5, (dim, dim))
    g = rng.standard_normal((dim, dim))
    m = g @ g.T
    om = omega(partition.modes)
    lam = min_eigenvalue(criterion_matrix(m, om, k, om))
    m = m + max(0.0, -lam + GENERATOR_MARGIN) * np.eye(dim)
    return GaussianChannel(partition, k, m)
