"""Gaussian superchannels: maps sending Gaussian channels to Gaussian channels.

A superchannel is represented by (A, E, Y, nu) with E orthogonal and acts as

    K -> A K Sigma E^T Sigma,   M -> A M A^T + Y,   d -> A d + nu.

It always factors as post-channel (A, Y, nu) after pre-channel
(Sigma E^T Sigma, 0, 0).  The two certified classes here are the free
operations of the steering resource picture: unsteerable superchannels
(send unsteerable channels to unsteerable channels; a PSD plus an equality
condition suffices) and maximal unsteerable superchannels (send maximal
unsteerable channels to maximal unsteerable channels; two quantified
conditions suffice).  Both certificates are sufficient only, so a failed
check never proves a superchannel is outside the class.
"""

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .channels import GaussianChannel, pose
from .errors import DimensionError, InvalidSuperchannelError
from .quantifier import QuantifiedCondition, Verdict, VerdictState, decide
from .states import GENERATOR_MARGIN
from .symplectic import (
    TOL,
    ModePartition,
    _opnorm,
    forms,
    hermitian_part,
    is_psd,
    min_eigenvalue,
    random_orthosymplectic,
    sigma,
    threshold,
)


@dataclass(frozen=True, eq=False)
class GaussianSuperchannel:
    """Superchannel data (A, E, Y, nu) over a mode partition.

    Construction checks shapes and the symmetry of Y only; orthogonality of
    E and the admissibility inequalities are a separate certificate
    (:func:`is_valid_superchannel`).
    """

    partition: ModePartition
    A: np.ndarray
    E: np.ndarray
    Y: np.ndarray
    nu: Optional[np.ndarray] = None

    def __post_init__(self):
        dim = self.partition.dim
        a = np.array(self.A, dtype=float)
        e = np.array(self.E, dtype=float)
        y = np.array(self.Y, dtype=float)
        for name, arr in (("A", a), ("E", e), ("Y", y)):
            if arr.shape != (dim, dim):
                raise DimensionError(f"{name} shape {arr.shape} != 2N = {dim}")
        y = hermitian_part(y, "Y")
        nu = np.zeros(dim) if self.nu is None else np.array(self.nu, dtype=float)
        if nu.shape != (dim,):
            raise DimensionError(f"nu shape {nu.shape}, expected ({dim},)")
        for arr in (a, e, y, nu):
            arr.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "E", e)
        object.__setattr__(self, "Y", y)
        object.__setattr__(self, "nu", nu)


def identity_superchannel(partition: ModePartition) -> GaussianSuperchannel:
    dim = partition.dim
    return GaussianSuperchannel(
        partition, np.eye(dim), np.eye(dim), np.zeros((dim, dim))
    )


def is_valid_superchannel(sc: GaussianSuperchannel, tol: float = TOL) -> bool:
    """Admissibility: E orthogonal plus the CP row on (A, Y) and on (E, 0)."""
    part = sc.partition
    if _opnorm(sc.E @ sc.E.T - np.eye(part.dim)) > threshold(sc.E, tol):
        return False
    if not is_psd(pose("cp_valid", part, sc.A, sc.Y), tol):
        return False
    return bool(is_psd(pose("cp_valid", part, sc.E, 0.0), tol))


def _require_valid(sc: GaussianSuperchannel, tol: float = TOL) -> None:
    if not is_valid_superchannel(sc, tol):
        raise InvalidSuperchannelError(
            "superchannel fails its admissibility conditions"
        )


def apply_to_channel(
    sc: GaussianSuperchannel, channel: GaussianChannel
) -> GaussianChannel:
    """Image of a channel under the superchannel."""
    if sc.partition.dim != channel.partition.dim:
        raise DimensionError("superchannel and channel sizes differ")
    _require_valid(sc)
    sig = sigma(sc.partition.modes)
    return GaussianChannel(
        channel.partition,
        sc.A @ channel.K @ sig @ sc.E.T @ sig,
        sc.A @ channel.M @ sc.A.T + sc.Y,
        sc.A @ channel.d + sc.nu,
    )


def decompose(
    sc: GaussianSuperchannel,
) -> Tuple[GaussianChannel, GaussianChannel]:
    """Canonical (pre, post) channel pair realizing the superchannel.

    Applying the superchannel equals composing post after the input channel
    after pre, exactly, for every input channel.
    """
    _require_valid(sc)
    part = sc.partition
    sig = sigma(part.modes)
    dim = part.dim
    pre = GaussianChannel(part, sig @ sc.E.T @ sig, np.zeros((dim, dim)))
    post = GaussianChannel(part, sc.A, sc.Y, sc.nu)
    return pre, post


def _us_evidence(sc: GaussianSuperchannel, tol: float):
    """(PsdCheck, residual, verdict) of the US certificate, admissibility presumed.

    For callers that have already certified admissibility once.
    """
    psd = is_psd(pose("unsteerable", sc.partition, sc.A, sc.Y), tol)
    oh = forms(sc.partition)["omega_hat"]
    residual = float(np.abs(oh - sc.E @ oh @ sc.E.T).max())
    return psd, residual, bool(psd) and residual <= threshold(sc.E, tol)


def us_check(sc: GaussianSuperchannel, tol: float = TOL):
    """Evidence pair for the unsteerable-superchannel certificate.

    Returns (PsdCheck of the unsteerable row on (A, Y), max-abs residual of
    omega_hat - E omega_hat E^T).  The second condition is an equality: the
    PSD form of the E condition involves a traceless Hermitian matrix, which
    is positive semidefinite only when it vanishes.  The two legs are the
    unsteerable-channel conditions of the post and pre channels of
    :func:`decompose`.
    """
    _require_valid(sc, tol)
    return _us_evidence(sc, tol)[:2]


def us_sufficient(sc: GaussianSuperchannel, tol: float = TOL) -> bool:
    """Sufficient certificate for an unsteerable superchannel.

    Both legs of :func:`us_check` pass: the PSD check, and the residual is at
    most threshold(E, tol).
    """
    _require_valid(sc, tol)
    return _us_evidence(sc, tol)[2]


def mus_conditions(
    sc: GaussianSuperchannel,
) -> Tuple[QuantifiedCondition, QuantifiedCondition]:
    """The two quantified conditions certifying a maximal unsteerable superchannel.

    They are the maximal-unsteerable rows on the post and pre channels of
    :func:`decompose`, (A, Y) and (Sigma E^T Sigma, 0), in that order.
    """
    part = sc.partition
    sig = sigma(part.modes)
    return (
        pose("maximal_unsteerable", part, sc.A, sc.Y),
        pose("maximal_unsteerable", part, sig @ sc.E.T @ sig, np.zeros_like(sc.Y)),
    )


def mus_sufficient(sc: GaussianSuperchannel, tol: float = TOL) -> Verdict:
    """Sufficient certificate for a maximal unsteerable superchannel.

    HOLDS only when both quantified conditions hold; otherwise the first
    violated one (post, then pre) is reported with its witness.
    """
    _require_valid(sc, tol)
    verdicts = [decide(cond, tol) for cond in mus_conditions(sc)]
    for v in verdicts:
        if v.violated:
            return v
    return Verdict(VerdictState.HOLDS, min(v.value for v in verdicts))


def random_superchannel(partition: ModePartition, seed: int) -> GaussianSuperchannel:
    """Deterministic random valid superchannel.

    E is drawn orthosymplectic: admissibility forces i omega - i E omega E^T
    to be both PSD and traceless, hence zero, so E must preserve the
    symplectic form on top of being orthogonal.  Y is eigen-shifted past its
    PSD condition with the usual generator margin.
    """
    rng = np.random.default_rng(seed)
    dim = partition.dim
    a = rng.uniform(-1.5, 1.5, (dim, dim))
    e = random_orthosymplectic(partition.modes, rng)
    g = rng.standard_normal((dim, dim))
    y = g @ g.T
    lam = min_eigenvalue(pose("cp_valid", partition, a, y))
    y = y + max(0.0, -lam + GENERATOR_MARGIN) * np.eye(dim)
    nu = rng.standard_normal(dim)
    return GaussianSuperchannel(partition, a, e, y, nu)
