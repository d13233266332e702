"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the table.
Tolerances are fixed here, not calibrated: PSD checks and quantified
decisions at tol 1e-8 unless a criterion states otherwise, a grid floor of
1e-7 for refuting a HOLDS verdict, entry matches at
1e-12, eigenvalue anchors at 1e-9, probe-limit agreement at 1e-3 with a
1e-5 boundary exclusion band.
"""

import numpy as np
import pytest

from families import symplectic_channel, with_noise
from gauss_steer import channels as ch
from gauss_steer import superchannels as sch
from gauss_steer.quantifier import decide, evaluate, falsify_grid
from gauss_steer.repro import (
    amplifying_lossy_channel,
    attenuator_on_a,
    mixing_superchannel,
    steerable_constant_channel,
    unsteerable_constant_channel,
)
from gauss_steer.states import random_state
from gauss_steer.symplectic import (
    ModePartition,
    is_psd,
    min_eigenvalue,
    omega,
    omega_hat,
    schur_complement,
)

TOL = 1e-8
P11 = ModePartition(1, 1)


def report(num: int, ok: bool, detail: str, failures=()):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, f"criterion {num} failed: {'; '.join(failures)}"


def test_criterion_1_amplifying_lossy_reproduction():
    c = amplifying_lossy_channel()
    failures = []
    om = omega(2)
    oh = omega_hat(P11)

    cp_matrix = c.M + 1j * om - 1j * c.K @ om @ c.K.T
    expected_cp = np.eye(4, dtype=complex)
    expected_cp[0, 1], expected_cp[1, 0] = -0.0609j, 0.0609j
    expected_cp[2, 3], expected_cp[3, 2] = 0.99j, -0.99j
    if np.abs(cp_matrix - expected_cp).max() >= 1e-12:
        failures.append("CP matrix entries deviate beyond 1e-12")
    if not is_psd(cp_matrix, TOL):
        failures.append("CP matrix not PSD")

    sa_matrix = c.M + 1j * oh - 1j * c.K @ om @ c.K.T
    if abs(sa_matrix[0, 1] - (-1.0609j)) >= 1e-12:
        failures.append("annihilation-sufficient matrix lacks the 1.0609i block")
    lam = min_eigenvalue(sa_matrix)
    if abs(lam + 0.0609) >= 1e-9:
        failures.append(f"min eigenvalue {lam} not within 1e-9 of -0.0609")
    if is_psd(sa_matrix, TOL):
        failures.append("annihilation-sufficient matrix unexpectedly PSD")

    sa = ch.is_steering_annihilating(c)
    if not sa.holds:
        failures.append(f"SA verdict {sa.state.value}, expected HOLDS")

    mc = ch.monte_carlo_sa_oracle(c, 10000, seed=1, tol=TOL)
    if mc.violation_found:
        failures.append(f"Monte-Carlo oracle found a violation at {mc.trial_index}")

    if ch.steering_breaking_check(c, TOL):
        failures.append("channel unexpectedly steering-breaking")

    report(
        1,
        not failures,
        f"amplifying-lossy channel: CP ok, SA {sa.state.value} "
        f"(margin {sa.value:.2e}), oracle clean over {mc.trials} states",
        failures,
    )


def test_criterion_2_attenuator_tensor_identity():
    c = attenuator_on_a()
    failures = []
    oh = omega_hat(P11)
    om = omega(2)

    sa_matrix = c.M + 1j * oh - 1j * c.K @ om @ c.K.T
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 0] = expected[1, 1] = 0.75
    expected[0, 1], expected[1, 0] = -0.25j, 0.25j
    if np.abs(sa_matrix - expected).max() >= 1e-12:
        failures.append("displayed block form missed beyond 1e-12")
    if not is_psd(sa_matrix, TOL):
        failures.append("annihilation-sufficient matrix not PSD")

    sb_matrix = c.M - 1j * c.K @ om @ c.K.T
    lam = min_eigenvalue(sb_matrix)
    if abs(lam + 1.0) >= 1e-9:
        failures.append(f"breaking-test eigenvalue {lam} not within 1e-9 of -1")
    if is_psd(sb_matrix, TOL):
        failures.append("breaking-test matrix unexpectedly PSD")

    rep = ch.classify(c, TOL)
    if not rep.sa_sufficient or rep.steering_annihilating.violated:
        failures.append("channel not classified steering-annihilating")
    if rep.steering_breaking:
        failures.append("channel wrongly classified steering-breaking")

    report(
        2,
        not failures,
        "attenuator (x) identity: annihilating-but-not-breaking, "
        f"boundary eigenvalues ({min_eigenvalue(sa_matrix):.1e}, {lam:.6f})",
        failures,
    )


def test_criterion_3_constant_channel_region():
    failures = []
    steer = steerable_constant_channel()
    if not ch.steering_breaking_check(steer, TOL):
        failures.append("steerable-target constant channel not steering-breaking")
    sa = ch.is_steering_annihilating(steer)
    mus = ch.is_maximal_unsteerable(steer)
    if not sa.violated:
        failures.append(f"SA verdict {sa.state.value}, expected VIOLATED")
    if not mus.violated:
        failures.append(f"MUS verdict {mus.state.value}, expected VIOLATED")

    free = unsteerable_constant_channel()
    sa2 = ch.is_steering_annihilating(free)
    mus2 = ch.is_maximal_unsteerable(free)
    if not ch.steering_breaking_check(free, TOL):
        failures.append("unsteerable-target constant channel not steering-breaking")
    if sa2.violated or mus2.violated:
        failures.append("unsteerable-target constant channel wrongly violated")

    report(
        3,
        not failures,
        f"constant channels: steerable target (SB, SA {sa.state.value} "
        f"{sa.value:.3f}, MUS {mus.state.value}), unsteerable target all clear",
        failures,
    )


def test_criterion_4_reference_superchannel():
    s = mixing_superchannel()
    failures = []
    v = sch.mus_sufficient(s)
    if not v.holds:
        failures.append(f"MUS certificate {v.state.value}")
    again = sch.mus_sufficient(s)
    if (again.state, again.value) != (v.state, v.value):
        failures.append("MUS certificate differs between two identical calls")
    psd, residual = sch.us_check(s, TOL)
    if sch.us_sufficient(s, TOL):
        failures.append("US certificate unexpectedly passed")
    if not psd.min_eigenvalue < 0.0:
        failures.append(f"US PSD min eigenvalue {psd.min_eigenvalue} not negative")

    report(
        4,
        not failures,
        f"reference superchannel: MUS {v.state.value} (margin {v.value:.6f}), "
        f"US condition fails at {psd.min_eigenvalue:.3e}",
        failures,
    )


def _choi_unsteerable_via_schur(c, r, tol):
    probe = ch.choi_state(c, r)
    head = 2 * c.partition.modes
    w = probe.cm.astype(complex) + 1j * omega_hat(probe.partition)
    w22_ok = bool(is_psd(w[head:, head:], tol))
    comp = schur_complement(w, head)
    return (w22_ok and bool(is_psd(comp, tol))), comp


def test_criterion_5_breaking_equivalence_at_desk_scale():
    failures = []
    part = ModePartition(0, 1)
    om = omega(1)
    kept = 0
    for seed in range(2000, 2050):
        c = ch.random_channel(part, seed)
        direct = c.M - 1j * c.K @ om @ c.K.T
        lam_direct = min_eigenvalue(direct)
        if abs(lam_direct) < 1e-5:
            continue  # boundary case, excluded
        kept += 1
        sb = ch.steering_breaking_check(c, TOL).ok

        probe_ok, comp = _choi_unsteerable_via_schur(c, 8.0, TOL)
        lam_comp = min_eigenvalue(comp)
        if abs(lam_comp - lam_direct) >= 1e-3:
            failures.append(
                f"seed {seed}: probe evidence {lam_comp} vs direct {lam_direct}"
            )
        if probe_ok != sb:
            failures.append(f"seed {seed}: probe verdict {probe_ok} vs breaking {sb}")

        extended = ch.tensor_with_identity(c, 1, side="B")
        oh = omega_hat(extended.partition)
        steerable_seen = False
        for t in range(100):
            sigma_in = random_state(extended.partition, 100000 + 100 * seed + t)
            out = extended.K @ sigma_in.cm @ extended.K.T + extended.M
            if not is_psd(out + 1j * oh, TOL):
                steerable_seen = True
                break
        if sb and steerable_seen:
            failures.append(f"seed {seed}: breaking channel steered an input")

    report(
        5,
        not failures and kept >= 40,
        f"breaking equivalence on {kept} random single-mode channels "
        "(direct test, squeezed-probe limit, 100-state falsifier)",
        failures or [f"only {kept} channels kept"],
    )


def test_criterion_6_solver_vs_grid_and_oracle():
    failures = []
    delta = 1e-7
    for seed in range(1000, 1050):
        c = ch.random_channel(P11, seed)
        for name, cond in (
            ("annihilating", ch.sa_condition(c)),
            ("maximal-unsteerable", ch.mus_condition(c)),
        ):
            verdict = decide(cond)
            witness = falsify_grid(cond, 100000)
            grid_val = None if witness is None else evaluate(cond, witness)
            if verdict.holds and grid_val is not None and grid_val < -delta:
                failures.append(
                    f"seed {seed} {name}: HOLDS but grid found {grid_val}"
                )
            if verdict.violated:
                recheck = evaluate(cond, verdict.witness)
                if abs(recheck - verdict.value) > 1e-10 or recheck >= -delta:
                    failures.append(f"seed {seed} {name}: witness does not re-check")

        sa = decide(ch.sa_condition(c))
        if abs(sa.value) < 1e-6:
            continue
        mc = ch.monte_carlo_sa_oracle(c, 10000, seed=seed, tol=TOL)
        if sa.holds and mc.violation_found:
            failures.append(f"seed {seed}: SA HOLDS but oracle found a violation")
        if sa.violated and not mc.violation_found:
            failures.append(f"seed {seed}: SA VIOLATED but oracle found nothing")

    report(
        6,
        not failures,
        "solver vs 131072-point grid and 10^4-state oracle on 50 channels: "
        "no contradiction",
        failures,
    )


def test_criterion_7_implication_suite():
    failures = []
    pool = [ch.random_channel(P11, seed) for seed in range(200)]
    flags = []
    for c in pool:
        flags.append(
            (
                ch.sa_sufficient_check(c, TOL).ok,
                ch.unsteerable_check(c, TOL).ok,
                ch.steering_breaking_check(c, TOL).ok,
            )
        )

    sa_holds_channels = []
    n_eq_sa = n_us = 0
    for c, (eq_sa, us, _) in zip(pool, flags):
        if eq_sa:
            n_eq_sa += 1
            v = decide(ch.sa_condition(c))
            if v.violated:
                failures.append("PSD-sufficient channel with VIOLATED SA verdict")
            if v.holds:
                sa_holds_channels.append(c)
        if us:
            n_us += 1
            v = decide(ch.mus_condition(c))
            if v.violated:
                failures.append("unsteerable channel with VIOLATED MUS verdict")
    if n_eq_sa == 0 or n_us == 0:
        failures.append("random pool never hit the PSD conditions")

    for c in sa_holds_channels[:20]:
        if decide(ch.mus_condition(c)).violated:
            failures.append("SA HOLDS channel with VIOLATED MUS verdict")

    sb_channels = [c for c, (_, _, sb) in zip(pool, flags) if sb]
    partners = [ch.random_channel(P11, 5000 + k) for k in range(2)]
    for c in sb_channels:
        for psi in partners:
            if not ch.steering_breaking_check(ch.compose(c, psi), TOL):
                failures.append("breaking property lost under post-composition")
            if not ch.steering_breaking_check(ch.compose(psi, c), TOL):
                failures.append("breaking property lost under pre-composition")

    for c in sa_holds_channels[:10]:
        for psi in partners:
            if decide(ch.sa_condition(ch.compose(c, psi))).violated:
                failures.append("annihilating property lost under pre-composition")

    report(
        7,
        not failures,
        f"implications on 200 random channels (PSD-sufficient hits: {n_eq_sa}, "
        f"unsteerable hits: {n_us}, breaking hits: {len(sb_channels)}): all hold",
        failures,
    )


def test_criterion_8_orthogonality_equality_remark():
    failures = []
    oh = omega_hat(P11)
    rng = np.random.default_rng(8)
    psd_true = 0
    for k in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        d = 1j * oh - 1j * q @ oh @ q.T
        zero = np.abs(d).max() < 1e-10
        psd = bool(is_psd(d, 1e-10))
        if psd != zero:
            failures.append(f"sample {k}: PSD {psd} but zero-norm {zero}")
        psd_true += psd
    # structured samples exercising the equality side
    from gauss_steer.symplectic import direct_sum, random_orthosymplectic

    for e in (
        np.eye(4),
        direct_sum(random_orthosymplectic(1, rng), random_orthosymplectic(1, rng)),
    ):
        d = 1j * oh - 1j * e @ oh @ e.T
        if not (bool(is_psd(d, 1e-10)) and np.abs(d).max() < 1e-10):
            failures.append("structured symplectic-orthogonal sample failed")

    report(
        8,
        not failures,
        f"200 random orthogonal conjugations: PSD iff zero "
        f"(random PSD hits: {psd_true}, structured equality cases pass)",
        failures,
    )


def test_criterion_9_superchannel_algebra():
    failures = []
    for seed in range(100):
        s = sch.random_superchannel(P11, seed)
        c = ch.random_channel(P11, 30000 + seed)
        direct = sch.apply_to_channel(s, c)
        pre, post = sch.decompose(s)
        chained = ch.compose(post, ch.compose(c, pre))
        if (
            np.abs(chained.K - direct.K).max() > 1e-10
            or np.abs(chained.M - direct.M).max() > 1e-10
            or np.abs(chained.d - direct.d).max() > 1e-10
        ):
            failures.append(f"seed {seed}: decomposition route deviates")
        if not ch.cp_check(direct, TOL):
            failures.append(f"seed {seed}: output channel lost CP validity")

    report(
        9,
        not failures,
        "100 random superchannel/channel pairs: action equals "
        "decompose-then-compose to 1e-10, CP validity preserved",
        failures,
    )


# Planted margin for criterion 10.  Measured grid detection rate of planted
# SA and MUS violations on the 48-seed pool below: 5/84 at -0.001, 25/83 at
# -0.01, 51/82 at -0.02, 62/81 at -0.03, 74/79 at -0.04 and 78/78 at -0.05,
# so 0.05 is the smallest tested margin the grid resolves every time.  The
# 10^4-state Monte-Carlo oracle found 32 of the 33 SA violations at -0.05,
# so it takes no part here.
PLANTED = 0.05


def test_criterion_10_planted_margin():
    failures = []
    counts = {PLANTED: 0, -PLANTED: 0}
    for seed in range(48):
        c = symplectic_channel(P11, seed)
        for name, build in (("SA", ch.sa_condition), ("MUS", ch.mus_condition)):
            base = decide(build(c)).value
            for delta in (PLANTED, -PLANTED):
                nu = delta - base
                if nu < 0.0:
                    continue  # lowering M could break complete positivity
                counts[delta] += 1
                cond = build(with_noise(c, nu))
                verdict = decide(cond)
                witness = falsify_grid(cond, 100000)
                found = witness is not None and evaluate(cond, witness) < 0.0
                tag = f"seed {seed} {name} delta {delta:+g}"
                if abs(verdict.value - delta) > 1e-9:
                    failures.append(f"{tag}: value {verdict.value} after the shift")
                if delta > 0.0 and (not verdict.holds or found):
                    failures.append(f"{tag}: {verdict.state.value}, grid found {found}")
                if delta < 0.0 and (not verdict.violated or not found):
                    failures.append(f"{tag}: {verdict.state.value}, grid found {found}")
    if min(counts.values()) < 40:
        failures.append(f"too few planted conditions: {counts}")

    report(
        10,
        not failures,
        f"planted margins +-{PLANTED} on symplectic (1,1) channels: "
        f"{counts[PLANTED]} HOLDS unrefuted, {counts[-PLANTED]} VIOLATED found by the grid",
        failures,
    )


# Criterion 7's SA => MUS check on channels one planted margin inside SA.
# SA is a subset of MUS by definition, and Monte-Carlo inputs into such a
# channel give unsteerable outputs, yet the MUS condition comes out VIOLATED
# on almost all of them: the condition is stronger than the class.  Criterion
# 7's random pool never reaches this region.
@pytest.mark.xfail(strict=True, reason="MUS condition too strong on SA-interior channels")
def test_sa_implies_mus_on_planted_sa_channels():
    failures = []
    checked = 0
    for modes in ((1, 1), (1, 2), (2, 2)):
        for seed in range(12):
            c = symplectic_channel(ModePartition(*modes), seed)
            nu = PLANTED - decide(ch.sa_condition(c)).value
            if nu < 0.0:
                continue  # lowering M could break complete positivity
            c = with_noise(c, nu)
            if not decide(ch.sa_condition(c)).holds:
                failures.append(f"{modes} seed {seed}: planted SA margin not HOLDS")
                continue
            checked += 1
            v = decide(ch.mus_condition(c))
            if v.violated:
                failures.append(f"{modes} seed {seed}: MUS VIOLATED at {v.value:.3g}")
    assert checked >= 30, f"only {checked} planted channels"
    assert not failures, f"{len(failures)} of {checked}: " + "; ".join(failures)


@pytest.mark.parametrize(
    "big, lam", [(20.0, 1.5e-7), (100.0, 5e-7), (1000.0, 9e-6)]
)
def test_tolerance_policies_agree_at_default_flags(big, lam):
    # CP, unsteerable and SA-sufficient pass at lambda >= -1e-8 * (1 + ||X||)
    # with lambda well below any absolute 1e-7.  The quantified rows use the
    # same relative rule, so SA and MUS hold too and the report is consistent.
    c = ch.GaussianChannel(P11, np.eye(4), np.diag([big, big, big, -lam]))
    assert ch.cp_check(c, TOL) and ch.sa_sufficient_check(c, TOL)
    assert lam > 1e-7
    rep = ch.classify(c, TOL)
    assert rep.steering_annihilating.holds and rep.maximal_unsteerable.holds
