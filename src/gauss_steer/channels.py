"""Gaussian channels as (K, M, d) triples and their steering classification.

A channel acts on covariance matrices as cm -> K cm K^T + M and on
displacements as d -> K d + d0.  Every class is one row of :data:`CRITERIA`,
(kind, outer, inner), posed on the pair (K, X) = (K, M) by :func:`pose`:

* a ``psd`` row tests        X + i outer - i K inner K^T >= 0;
* a ``quantified`` row asks  w^dag X w + |w^dag K inner K^T w| >= |w^dag outer w|
  for every complex w, decided by :mod:`gauss_steer.quantifier`.

The rows are complete positivity, unsteerable, the PSD sufficient condition
for steering annihilation, steering-breaking (equivalently, the squeezed
probe's output is unsteerable in the infinite-squeezing limit),
steering-annihilating (every Gaussian input maps to an unsteerable output)
and maximal unsteerable (every unsteerable input does).  :func:`check`
gives one row's evidence for a channel and :func:`classify` every row's;
:data:`INCLUSIONS` lists the set inclusions every report must respect.  The
superchannel certificates pose the same rows on their own factors.

Displacements never influence any predicate.
"""

from dataclasses import dataclass
from typing import Optional

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
    direct_sum,
    forms,
    hermitian_part,
    is_psd,
    min_eigenvalue,
    omega,
    omega_hat,
    sigma,
)

PSD, QUANTIFIED = "psd", "quantified"

# name -> (kind, outer, inner); the slots name entries of symplectic.forms.
CRITERIA = {
    "cp_valid": (PSD, "omega", "omega"),
    "unsteerable": (PSD, "omega_hat", "omega_hat"),
    "sa_sufficient": (PSD, "omega_hat", "omega"),
    "steering_breaking": (PSD, "zero", "omega"),
    "steering_annihilating": (QUANTIFIED, "omega_hat", "omega"),
    "maximal_unsteerable": (QUANTIFIED, "omega_hat", "omega_hat"),
}

# (subclass, superclass) pairs: a report in the first and not the second is
# inconsistent.
INCLUSIONS = (
    ("sa_sufficient", "steering_annihilating"),
    ("unsteerable", "maximal_unsteerable"),
    ("steering_annihilating", "maximal_unsteerable"),
)


def pose(name: str, partition: ModePartition, k, x):
    """Row ``name`` of :data:`CRITERIA` on the pair (K, X).

    A PSD row gives its matrix X + i outer - i K inner K^T, a quantified row
    its :class:`QuantifiedCondition`.
    """
    kind, outer, inner = CRITERIA[name]
    f = forms(partition)
    if kind == PSD:
        return x + 1j * f[outer] - 1j * k @ f[inner] @ k.T
    return QuantifiedCondition(x, [k @ f[inner] @ k.T], f[outer])


def _posed(name: str, channel: "GaussianChannel"):
    return pose(name, channel.partition, channel.K, channel.M)


@dataclass(frozen=True, eq=False)
class GaussianChannel:
    """Channel data (K, M, d) over a mode partition.

    M must be symmetric; complete positivity is a separate certificate
    (:func:`cp_check`) so that rejected candidates can still be
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
    """Complete-positivity certificate, row ``cp_valid``; truthy when it holds."""
    return check("cp_valid", channel, tol)


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


def _evidence(name: str, channel: GaussianChannel, tol: float):
    posed = _posed(name, channel)
    return is_psd(posed, tol) if CRITERIA[name][0] == PSD else decide(posed, tol)


def check(name: str, channel: GaussianChannel, tol: float = TOL):
    """Evidence for row ``name`` of :data:`CRITERIA` on the channel.

    A psd row gives a :class:`PsdCheck`, a quantified row a :class:`Verdict`;
    either is truthy exactly when the row holds.  Every row but ``cp_valid``
    is defined on CP channels only, so CP is certified first and
    :class:`InvalidChannelError` raised when it fails.
    """
    if name != "cp_valid":
        _require_cp(channel, tol)
    return _evidence(name, channel, tol)


def unsteerable_check(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    """Unsteerable-channel certificate, row ``unsteerable``."""
    return check("unsteerable", channel, tol)


def sa_sufficient_check(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    """Sufficient (not necessary) certificate for steering annihilation.

    Row ``sa_sufficient``: the full symplectic form sits inside the K
    sandwich while only the partial form appears outside.
    """
    return check("sa_sufficient", channel, tol)


def steering_breaking_check(channel: GaussianChannel, tol: float = TOL) -> PsdCheck:
    """Steering-breaking certificate, row ``steering_breaking``."""
    return check("steering_breaking", channel, tol)


def sa_condition(channel: GaussianChannel) -> QuantifiedCondition:
    """Quantified form equivalent to steering annihilation."""
    return _posed("steering_annihilating", channel)


def mus_condition(channel: GaussianChannel) -> QuantifiedCondition:
    """Quantified form equivalent to maximal unsteerability."""
    return _posed("maximal_unsteerable", channel)


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
    """The evidence of every row of :data:`CRITERIA` for one channel.

    The fields are the rows, in table order: a :class:`PsdCheck` for a psd
    row, a :class:`Verdict` for a quantified one, each truthy exactly when
    its row holds.
    """

    cp_valid: PsdCheck
    unsteerable: PsdCheck
    sa_sufficient: PsdCheck
    steering_breaking: PsdCheck
    steering_annihilating: Verdict
    maximal_unsteerable: Verdict

    def check_consistency(self) -> None:
        """Raise if the rows contradict one of :data:`INCLUSIONS`."""
        for sub, sup in INCLUSIONS:
            if getattr(self, sub) and not getattr(self, sup):
                raise GaussSteerError(
                    f"inconsistent report: {sub} holds but {sup} is VIOLATED"
                )


def classify(channel: GaussianChannel, tol: float = TOL) -> ClassificationReport:
    """The evidence of every row of :data:`CRITERIA`, as a consistent report.

    CP is certified once, first; :class:`InvalidChannelError` is raised for
    non-CP input, where the other rows are undefined.
    """
    cp = _require_cp(channel, tol)
    report = ClassificationReport(
        **{
            name: cp if name == "cp_valid" else _evidence(name, channel, tol)
            for name in CRITERIA
        }
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
    lam = min_eigenvalue(pose("cp_valid", partition, k, m))
    m = m + max(0.0, -lam + GENERATOR_MARGIN) * np.eye(dim)
    return GaussianChannel(partition, k, m)
