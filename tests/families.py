"""Channel families near the steering boundaries, shared by the test modules."""

import numpy as np

from gauss_steer import channels as ch
from gauss_steer.symplectic import min_eigenvalue, omega, random_orthosymplectic


def symplectic_channel(partition, seed: int) -> ch.GaussianChannel:
    """K = sqrt(eta) S with S symplectic; M small noise plus the minimal CP shift.

    Most of these channels violate SA and MUS, since a lossy symplectic K
    passes steering through.  Adding nu I to M keeps the channel CP for
    nu >= 0 and moves the SA and MUS values by exactly nu, so any margin
    can be planted.
    """
    rng = np.random.default_rng(seed)
    modes, dim = partition.modes, partition.dim
    eta = rng.uniform(0.3, 1.0)
    z = rng.uniform(-1.0, 1.0, modes)
    squeeze = np.diag(np.stack([np.exp(z), np.exp(-z)], axis=1).ravel())
    s = (
        random_orthosymplectic(modes, rng)
        @ squeeze
        @ random_orthosymplectic(modes, rng)
    )
    k = np.sqrt(eta) * s
    g = 0.1 * rng.standard_normal((dim, dim))
    m = g @ g.T
    om = omega(modes)
    lam = min_eigenvalue(m + 1j * om - 1j * k @ om @ k.T)
    return ch.GaussianChannel(partition, k, m + max(0.0, -lam) * np.eye(dim))


def with_noise(channel: ch.GaussianChannel, nu: float) -> ch.GaussianChannel:
    """The same channel with nu I added to M."""
    dim = channel.partition.dim
    return ch.GaussianChannel(channel.partition, channel.K, channel.M + nu * np.eye(dim))
