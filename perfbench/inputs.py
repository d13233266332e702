"""Seeded benchmark inputs, built with numpy alone.

Every matrix and every JSON document the benchmark feeds the library comes
from here.  The library's own ``random_*`` generators and ``jsonio.*_to_dict``
writers stay off this path, so a change to the library cannot change the
workload it is measured on.  The same seed gives the same inputs.

Interleaved quadrature ordering (q1, p1, ..., qN, pN), as in the library.
"""

import json

import numpy as np

# Partitions cycle in a fixed order, so each run has the same mix of sizes.
PARTITIONS = ((1, 1), (1, 2), (2, 2))

# Distance kept from every PSD boundary the generators shift past.
MARGIN = 1e-3

# Malformed-document kinds, in equal shares, in the order they cycle.
BAD_KINDS = ("schema", "nan", "shape", "noncp")

# Ingest: every MALFORMED_EVERY-th document is malformed.  The well-formed
# ones alternate channel and superchannel: no source fixes their ratio, so
# neither path is favoured.
MALFORMED_EVERY = 10

# Region family: cos(theta) is stratified over this many strata so every
# run holds the same share of HOLDS and VIOLATED points; every third point
# sits on the pure-loss boundary n_th = 1.
REGION_STRATA = 8


def omega(modes):
    return np.kron(np.eye(modes), np.array([[0.0, 1.0], [-1.0, 0.0]]))


def omega_hat(m, n):
    dim = 2 * (m + n)
    out = np.zeros((dim, dim))
    out[2 * m :, 2 * m :] = omega(n)
    return out


def min_eig(h):
    """Smallest eigenvalue of a Hermitian matrix."""
    return float(np.linalg.eigvalsh(h)[0])


def _sym(a):
    # a + a.T is exactly symmetric in floating point, so the library's own
    # symmetrisation leaves the matrix unchanged bit for bit.
    return 0.5 * (a + a.T)


def _shift_past(base, forms):
    """Add the smallest multiple of I that makes every base + form PSD, plus MARGIN."""
    lam = min(min_eig(base + f) for f in forms)
    return base + max(0.0, MARGIN - lam) * np.eye(base.shape[0])


def orthosymplectic(rng, modes):
    """Random matrix that is orthogonal and symplectic (real form of a unitary)."""
    z = rng.standard_normal((modes, modes)) + 1j * rng.standard_normal((modes, modes))
    q, r = np.linalg.qr(z)
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r))).conj()
    out = np.zeros((2 * modes, 2 * modes))
    out[0::2, 0::2] = u.real
    out[0::2, 1::2] = -u.imag
    out[1::2, 0::2] = u.imag
    out[1::2, 1::2] = u.real
    return out


def certify_channel(rng, m, n):
    """Random CP channel (K, M) whose quantified SA and MUS conditions hold.

    K is uniform in [-1.5, 1.5].  M = G G^T is shifted just past the
    complete-positivity, SA-sufficient and unsteerable PSD boundaries, so
    SA-sufficient => SA and unsteerable => MUS make both conditions hold
    while the channel stays close to its boundaries.
    """
    dim = 2 * (m + n)
    k = rng.uniform(-1.5, 1.5, (dim, dim))
    g = rng.standard_normal((dim, dim))
    om, oh = omega(m + n), omega_hat(m, n)
    kok = k @ om @ k.T
    forms = (1j * om - 1j * kok, 1j * oh - 1j * kok, 1j * oh - 1j * k @ oh @ k.T)
    return k, _sym(_shift_past(_sym(g @ g.T), forms))


def steerable_pure_cm(rng, m, n):
    """Pure state cm = S S^T that is A -> B steerable by a clear margin.

    Returns the covariance matrix and the minimum eigenvalue of
    cm + i omega_hat, which is below -0.05.
    """
    modes = m + n
    oh = omega_hat(m, n)
    while True:
        z = rng.uniform(0.5, 2.0, modes)
        squeeze = np.diag(np.stack([np.exp(z), np.exp(-z)], axis=1).ravel())
        s = orthosymplectic(rng, modes) @ squeeze @ orthosymplectic(rng, modes)
        cm = _sym(s @ s.T)
        lam = min_eig(cm + 1j * oh)
        if lam < -0.05:
            return cm, lam


def region_channel(rng, index):
    """Attenuator on A (x) identity on B at one point of the (cos theta, n_th) map."""
    cos_t = (index % REGION_STRATA + rng.uniform()) / REGION_STRATA
    n_th = 1.0 if index % 3 == 0 else rng.uniform(1.0, 3.0)
    noise = (1.0 - cos_t**2) * n_th
    return np.diag([cos_t, cos_t, 1.0, 1.0]), np.diag([noise, noise, 0.0, 0.0])


def superchannel(rng, m, n):
    """Random valid superchannel (A, E, Y, nu) that is certified unsteerable.

    E is orthosymplectic on A and on B separately, so it preserves omega_hat;
    Y is shifted past the admissibility and the unsteerable PSD boundaries.
    Both quantified MUS conditions therefore hold.
    """
    dim = 2 * (m + n)
    a = rng.uniform(-1.5, 1.5, (dim, dim))
    e = np.zeros((dim, dim))
    e[: 2 * m, : 2 * m] = orthosymplectic(rng, m)
    e[2 * m :, 2 * m :] = orthosymplectic(rng, n)
    g = rng.standard_normal((dim, dim))
    om, oh = omega(m + n), omega_hat(m, n)
    forms = (1j * om - 1j * a @ om @ a.T, 1j * oh - 1j * a @ oh @ a.T)
    y = _sym(_shift_past(_sym(g @ g.T), forms))
    return a, e, y, rng.standard_normal(dim)


def channel_doc(m, n, k, mm, d):
    return json.dumps(
        {"m": m, "n": n, "K": k.tolist(), "M": mm.tolist(), "d": d.tolist()}
    )


def superchannel_doc(m, n, a, e, y, nu):
    return json.dumps(
        {
            "m": m,
            "n": n,
            "A": a.tolist(),
            "E": e.tolist(),
            "Y": y.tolist(),
            "nu": nu.tolist(),
        }
    )


def malformed_doc(rng, kind):
    """A (1, 1) channel document that the library must reject."""
    k, mm = certify_channel(rng, 1, 1)
    obj = {"m": 1, "n": 1, "K": k.tolist(), "M": mm.tolist(), "d": [0.0] * 4}
    if kind == "schema":
        obj["K"][0][0] = str(obj["K"][0][0])
    elif kind == "nan":
        obj["M"][1][1] = float("nan")
    elif kind == "shape":
        k6, mm6 = certify_channel(rng, 1, 2)
        obj["K"], obj["M"] = k6.tolist(), mm6.tolist()
    elif kind == "noncp":
        # M = 0 and K = s I + noise with s >= 1.5: M + i omega - i K omega K^T
        # is close to (1 - s^2) i omega, whose eigenvalues reach -(s^2 - 1).
        scale = rng.uniform(1.5, 2.5)
        obj["K"] = (scale * np.eye(4) + 0.01 * rng.standard_normal((4, 4))).tolist()
        obj["M"] = np.zeros((4, 4)).tolist()
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return json.dumps(obj)


class Stream:
    """Deterministic request stream of one workload, drawn in batches.

    Each request is ``(kind, data)``.  Kinds cycle in a fixed order so every
    run, whatever its seed, sees the same mix.
    """

    def __init__(self, workload, seed, purpose=0):
        # ``purpose`` keeps warm-up inputs apart from the measured ones.
        self.workload = workload
        self.rng = np.random.default_rng([seed, purpose])
        self.count = 0
        self.counters = {}

    def _next_of(self, kind):
        i = self.counters.get(kind, 0)
        self.counters[kind] = i + 1
        return i

    def take(self, size):
        return [self._next() for _ in range(size)]

    def _next(self):
        rng = self.rng
        slot = self.count
        self.count += 1
        if self.workload == "cli":
            kind = ("classify", "super", "repro")[slot % 3]
            if kind == "classify":
                return kind, _channel_request(rng, 1, 1)
            return kind, _superchannel_request(rng) if kind == "super" else {}
        if self.workload == "sweep":
            kind = ("region", "certify", "refute")[slot % 3]
            i = self._next_of(kind)
            if kind == "region":
                k, mm = region_channel(rng, i)
                return kind, {"part": (1, 1), "K": k, "M": mm}
            m, n = PARTITIONS[i % len(PARTITIONS)]
            if kind == "certify":
                k, mm = certify_channel(rng, m, n)
                return kind, {"part": (m, n), "K": k, "M": mm}
            cm, lam = steerable_pure_cm(rng, m, n)
            dim = 2 * (m + n)
            return kind, {"part": (m, n), "K": np.zeros((dim, dim)), "M": cm, "lam": lam}
        if self.workload == "ingest":
            if slot % MALFORMED_EVERY == MALFORMED_EVERY - 1:
                kind = "malformed"
            else:
                kind = ("channel", "superchannel")[(slot - slot // MALFORMED_EVERY) % 2]
            i = self._next_of(kind)
            if kind == "channel":
                return kind, _channel_request(rng, *PARTITIONS[i % len(PARTITIONS)])
            if kind == "superchannel":
                return kind, _superchannel_request(rng)
            return kind, {"text": malformed_doc(rng, BAD_KINDS[i % len(BAD_KINDS)])}
        raise ValueError(f"unknown workload {self.workload!r}")


def _channel_request(rng, m, n):
    k, mm = certify_channel(rng, m, n)
    d = rng.standard_normal(2 * (m + n))
    return {"text": channel_doc(m, n, k, mm, d), "K": k, "M": mm, "d": d}


def _superchannel_request(rng):
    a, e, y, nu = superchannel(rng, 1, 1)
    return {"text": superchannel_doc(1, 1, a, e, y, nu), "A": a, "E": e, "Y": y, "nu": nu}
