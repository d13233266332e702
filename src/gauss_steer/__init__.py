"""Covariance-matrix calculus for Gaussian states, channels and superchannels.

The package decides membership in the steering-related channel classes
(unsteerable, maximal unsteerable, steering-annihilating, steering-breaking)
and superchannel classes (unsteerable, maximal unsteerable), always with a
certificate: a minimum eigenvalue for the PSD-shaped criteria, or a
re-checkable witness vector for the quantified ones.
"""

__version__ = "0.6.0"

from .symplectic import (
    ModePartition,
    PsdCheck,
    is_psd,
    min_eigenvalue,
    omega,
    omega_hat,
    schur_complement,
    sigma,
)
from .states import (
    GaussianState,
    StandardFormParams,
    is_unsteerable,
    is_valid_state,
    random_pure_state,
    random_state,
    random_unsteerable_state,
    standard_two_mode,
    two_mode_squeezed,
    vacuum,
)
from .quantifier import (
    QuantifiedCondition,
    Verdict,
    VerdictState,
    decide,
    evaluate,
    falsify_grid,
)
from .channels import (
    ClassificationReport,
    FalsifierResult,
    GaussianChannel,
    attenuator,
    check,
    choi_state,
    classify,
    compose,
    constant_channel,
    cp_check,
    identity_channel,
    monte_carlo_sa_oracle,
    random_channel,
    sa_sufficient_check,
    steering_breaking_check,
    tensor_with_identity,
    unsteerable_check,
)
from .superchannels import (
    GaussianSuperchannel,
    apply_to_channel,
    decompose,
    identity_superchannel,
    is_valid_superchannel,
    mus_sufficient,
    random_superchannel,
    us_sufficient,
)

__all__ = [
    "__version__",
    "ModePartition",
    "PsdCheck",
    "is_psd",
    "min_eigenvalue",
    "omega",
    "omega_hat",
    "schur_complement",
    "sigma",
    "GaussianState",
    "StandardFormParams",
    "is_unsteerable",
    "is_valid_state",
    "random_pure_state",
    "random_state",
    "random_unsteerable_state",
    "standard_two_mode",
    "two_mode_squeezed",
    "vacuum",
    "QuantifiedCondition",
    "Verdict",
    "VerdictState",
    "decide",
    "evaluate",
    "falsify_grid",
    "ClassificationReport",
    "FalsifierResult",
    "GaussianChannel",
    "attenuator",
    "check",
    "choi_state",
    "classify",
    "compose",
    "constant_channel",
    "cp_check",
    "identity_channel",
    "monte_carlo_sa_oracle",
    "random_channel",
    "sa_sufficient_check",
    "steering_breaking_check",
    "tensor_with_identity",
    "unsteerable_check",
    "GaussianSuperchannel",
    "apply_to_channel",
    "decompose",
    "identity_superchannel",
    "is_valid_superchannel",
    "mus_sufficient",
    "random_superchannel",
    "us_sufficient",
]
