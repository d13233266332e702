"""Bundled reference examples with independently known classification facts.

Each row recomputes one published reference value or verdict from scratch
and compares against the expected outcome; the CLI surfaces the rows as a
pass/fail table.  The fixtures double as regression anchors for the test
suite.
"""

from dataclasses import dataclass
from typing import Any, Dict, List

import numpy as np

from . import channels as ch
from . import superchannels as sch
from .states import two_mode_squeezed, vacuum
from .symplectic import TOL, ModePartition, min_eigenvalue, omega_hat, schur_complement


def amplifying_lossy_channel() -> ch.GaussianChannel:
    """(1+1)-mode channel amplifying the A mode and strongly damping B.

    K = diag(1.03, 1.03, 0.1, 0.1), M = I.  Known facts: CP-valid,
    steering-annihilating, yet it fails both the PSD sufficient condition
    for annihilation and the steering-breaking test.
    """
    return ch.GaussianChannel(
        ModePartition(1, 1), np.diag([1.03, 1.03, 0.1, 0.1]), np.eye(4)
    )


def attenuator_on_a() -> ch.GaussianChannel:
    """Attenuator with cos(theta) = 1/2 on mode A, identity on mode B.

    Known facts: satisfies the PSD sufficient condition for steering
    annihilation (boundary case) but is not steering-breaking.
    """
    return ch.tensor_with_identity(ch.attenuator(np.arccos(0.5), 1.0), 1, side="B")


def steerable_constant_channel() -> ch.GaussianChannel:
    """Constant channel onto the two-mode squeezed state at r = 2.

    Known facts: steering-breaking (constant channels always are) but
    neither steering-annihilating nor maximal unsteerable, because the
    fixed output state is itself steerable.
    """
    return ch.constant_channel(two_mode_squeezed(2.0))


def unsteerable_constant_channel() -> ch.GaussianChannel:
    """Constant channel onto the vacuum: free under every classification."""
    return ch.constant_channel(vacuum(ModePartition(1, 1)))


def mixing_superchannel() -> sch.GaussianSuperchannel:
    """4x4 reference superchannel with E = I and a dense mixing matrix A.

    Known facts: valid; certified maximal unsteerable by the quantified
    conditions; fails the PSD unsteerable-superchannel condition, which
    separates the two superchannel classes.
    """
    a = np.array(
        [
            [0.170929, -0.942009, -0.609808, -0.108889],
            [1.301268, 0.599464, 0.666952, -0.800351],
            [-0.151061, -0.241749, 0.938864, 1.130728],
            [0.441668, 1.125889, -1.767416, 0.418528],
        ]
    )
    y = np.array(
        [
            [5.890063, -1.845370, 2.502275, -1.763982],
            [-1.845370, 5.297160, -2.573896, -2.759869],
            [2.502275, -2.573896, 4.270381, 0.944184],
            [-1.763982, -2.759869, 0.944184, 3.732230],
        ]
    )
    return sch.GaussianSuperchannel(ModePartition(1, 1), a, np.eye(4), y)


@dataclass(frozen=True)
class ReproRow:
    name: str
    passed: bool
    detail: str
    evidence: Dict[str, Any]


def _row(name, passed, detail, **evidence) -> ReproRow:
    return ReproRow(name, bool(passed), detail, dict(evidence))


def run_reference_suite(tol: float = TOL, seed: int = 0) -> List[ReproRow]:
    """Recompute every bundled reference fact; one row per assertion.

    ``seed`` drives the Monte-Carlo input oracle, the only sampled check.
    """
    rows: List[ReproRow] = []

    # --- amplifying/lossy channel ---
    amp = amplifying_lossy_channel()
    cp = ch.cp_check(amp, tol)
    expected_cp = np.eye(4, dtype=complex)
    expected_cp[0, 1], expected_cp[1, 0] = -0.0609j, 0.0609j
    expected_cp[2, 3], expected_cp[3, 2] = 0.99j, -0.99j
    cp_matrix = ch.pose("cp_valid", amp.partition, amp.K, amp.M)
    rows.append(
        _row(
            "amplifying-lossy: CP matrix entries and positivity",
            np.abs(cp_matrix - expected_cp).max() < 1e-12 and cp.ok,
            f"max entry deviation {np.abs(cp_matrix - expected_cp).max():.2e}, "
            f"min eigenvalue {cp.min_eigenvalue:.6f}",
            min_eigenvalue=cp.min_eigenvalue,
        )
    )
    sa_psd = ch.sa_sufficient_check(amp, tol)
    rows.append(
        _row(
            "amplifying-lossy: PSD sufficient condition fails at -0.0609",
            (not sa_psd.ok) and abs(sa_psd.min_eigenvalue + 0.0609) < 1e-9,
            f"min eigenvalue {sa_psd.min_eigenvalue:.10f}",
            min_eigenvalue=sa_psd.min_eigenvalue,
        )
    )
    sa = ch.is_steering_annihilating(amp, tol)
    rows.append(
        _row(
            "amplifying-lossy: steering-annihilating verdict HOLDS",
            sa.holds,
            f"verdict {sa.state.value}, margin {sa.value:.6f}",
            verdict=sa.state.value,
            value=sa.value,
        )
    )
    mc = ch.monte_carlo_sa_oracle(amp, 10000, seed=seed, tol=tol)
    rows.append(
        _row(
            "amplifying-lossy: no steerable output in 10000 sampled states",
            not mc.violation_found,
            f"trials {mc.trials}, violation_found {mc.violation_found}",
            trials=mc.trials,
        )
    )
    sb = ch.steering_breaking_check(amp, tol)
    rows.append(
        _row(
            "amplifying-lossy: not steering-breaking",
            not sb.ok,
            f"min eigenvalue {sb.min_eigenvalue:.6f}",
            min_eigenvalue=sb.min_eigenvalue,
        )
    )

    # --- attenuator tensored with identity ---
    att = attenuator_on_a()
    sa_psd = ch.sa_sufficient_check(att, tol)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[1, 1] = 0.75
    expected[0, 1], expected[1, 0] = -0.25j, 0.25j
    sa_matrix = ch.pose("sa_sufficient", att.partition, att.K, att.M)
    rows.append(
        _row(
            "attenuator-on-A: PSD sufficient condition holds with displayed blocks",
            np.abs(sa_matrix - expected).max() < 1e-12 and sa_psd.ok,
            f"max entry deviation {np.abs(sa_matrix - expected).max():.2e}, "
            f"min eigenvalue {sa_psd.min_eigenvalue:.3e}",
            min_eigenvalue=sa_psd.min_eigenvalue,
        )
    )
    sb = ch.steering_breaking_check(att, tol)
    rows.append(
        _row(
            "attenuator-on-A: not steering-breaking, min eigenvalue -1",
            (not sb.ok) and abs(sb.min_eigenvalue + 1.0) < 1e-9,
            f"min eigenvalue {sb.min_eigenvalue:.10f}",
            min_eigenvalue=sb.min_eigenvalue,
        )
    )

    # --- constant channels ---
    const = steerable_constant_channel()
    sb = ch.steering_breaking_check(const, tol)
    sa = ch.is_steering_annihilating(const, tol)
    mus = ch.is_maximal_unsteerable(const, tol)
    rows.append(
        _row(
            "constant(steerable): steering-breaking but SA and MUS violated",
            sb.ok and sa.violated and mus.violated,
            f"SB min eigenvalue {sb.min_eigenvalue:.3e}, SA {sa.state.value} "
            f"({sa.value:.4f}), MUS {mus.state.value} ({mus.value:.4f})",
            sb_min_eigenvalue=sb.min_eigenvalue,
            sa_value=sa.value,
            mus_value=mus.value,
        )
    )
    const_free = unsteerable_constant_channel()
    sb2 = ch.steering_breaking_check(const_free, tol)
    sa2 = ch.is_steering_annihilating(const_free, tol)
    mus2 = ch.is_maximal_unsteerable(const_free, tol)
    rows.append(
        _row(
            "constant(unsteerable): all three verdicts non-negative",
            sb2.ok and not sa2.violated and not mus2.violated,
            f"SB ok {sb2.ok}, SA {sa2.state.value}, MUS {mus2.state.value}",
        )
    )

    # --- reference superchannel ---
    sc = mixing_superchannel()
    mus_v = sch.mus_sufficient(sc, tol)  # certifies admissibility, or raises
    us_psd, residual, us_ok = sch._us_evidence(sc, tol)
    rows.append(
        _row(
            "mixing superchannel: maximal-unsteerable certificate HOLDS",
            mus_v.holds,
            f"verdict {mus_v.state.value}, margin {mus_v.value:.6f}",
            value=mus_v.value,
        )
    )
    rows.append(
        _row(
            "mixing superchannel: unsteerable certificate fails",
            (not us_ok) and us_psd.min_eigenvalue < 0.0,
            f"PSD min eigenvalue {us_psd.min_eigenvalue:.3e}, "
            f"E residual {residual:.3e}",
            min_eigenvalue=us_psd.min_eigenvalue,
        )
    )

    # --- squeezed-probe limit for steering breaking ---
    lossy = ch.attenuator(np.pi / 4.0, 1.0)
    probe = ch.choi_state(lossy, 8.0)
    oh1 = omega_hat(probe.partition)
    w = probe.cm.astype(complex) + 1j * oh1
    sc_block = schur_complement(w, 2 * lossy.partition.modes)
    direct = ch.pose("steering_breaking", lossy.partition, lossy.K, lossy.M)
    diff = abs(min_eigenvalue(sc_block) - min_eigenvalue(direct))
    rows.append(
        _row(
            "pure lossy: squeezed-probe Schur limit matches direct criterion",
            ch.steering_breaking_check(lossy, tol).ok and diff < 1e-3,
            f"min-eigenvalue difference {diff:.2e}",
            difference=diff,
        )
    )
    return rows
