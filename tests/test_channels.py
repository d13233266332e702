import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from families import symplectic_channel, with_noise
from gauss_steer import channels as ch
from gauss_steer.errors import (
    GaussSteerError,
    InvalidChannelError,
    InvalidParameterError,
    InvalidStateError,
)
from gauss_steer.repro import (
    amplifying_lossy_channel,
    attenuator_on_a,
    steerable_constant_channel,
    unsteerable_constant_channel,
)
from gauss_steer.states import (
    GaussianState,
    StandardFormParams,
    is_unsteerable,
    is_valid_state,
    random_state,
    standard_two_mode,
    two_mode_squeezed,
    vacuum,
)
from gauss_steer.quantifier import decide
from gauss_steer.symplectic import (
    ModePartition,
    direct_sum,
    is_psd,
    min_eigenvalue,
    random_orthosymplectic,
)

P11 = ModePartition(1, 1)


class TestValidity:
    def test_identity_channel_valid(self):
        assert ch.cp_check(ch.identity_channel(P11))

    def test_amplifying_lossy_cp_matrix(self):
        c = amplifying_lossy_channel()
        assert ch.cp_check(c)
        check = ch.cp_check(c)
        assert check.min_eigenvalue == pytest.approx(0.01, abs=1e-12)

    def test_uniform_amplifier_invalid(self):
        c = ch.GaussianChannel(P11, 2.0 * np.eye(4), np.zeros((4, 4)))
        check = ch.cp_check(c)
        assert not check
        assert check.min_eigenvalue == pytest.approx(-3.0, abs=1e-12)


class TestApply:
    def test_identity_fixes_everything(self):
        s = random_state(P11, 1)
        out = ch.apply(ch.identity_channel(P11), s)
        np.testing.assert_allclose(out.cm, s.cm)
        np.testing.assert_allclose(out.d, s.d)

    def test_callable_sugar(self):
        s = vacuum(P11)
        out = ch.identity_channel(P11)(s)
        np.testing.assert_allclose(out.cm, s.cm)

    def test_amplifying_lossy_entry_pattern(self):
        a, b, c, d = 1.7, 2.1, 0.9, -0.4
        s = standard_two_mode(StandardFormParams(a, b, c, d))
        out = ch.apply(amplifying_lossy_channel(), s)
        assert out.cm[0, 0] == pytest.approx(1.0609 * a + 1.0)
        assert out.cm[0, 2] == pytest.approx(0.103 * c)
        assert out.cm[1, 3] == pytest.approx(0.103 * d)
        assert out.cm[2, 2] == pytest.approx(0.01 * b + 1.0)

    def test_constant_channel_overwrites_input(self):
        target = two_mode_squeezed(0.5)
        const = ch.constant_channel(target)
        out = ch.apply(const, random_state(P11, 2))
        np.testing.assert_allclose(out.cm, target.cm)
        np.testing.assert_allclose(out.d, target.d)

    def test_rejects_invalid_input_state(self):
        with pytest.raises(InvalidStateError):
            ch.apply(ch.identity_channel(P11), GaussianState(P11, 0.1 * np.eye(4)))

    def test_output_always_valid(self):
        for seed in range(40):
            c = ch.random_channel(P11, seed)
            out = ch.apply(c, random_state(P11, 500 + seed))
            assert is_valid_state(out)


class TestCompose:
    def test_identity_neutral(self):
        c = ch.random_channel(P11, 3)
        comp = ch.compose(ch.identity_channel(P11), c)
        np.testing.assert_allclose(comp.K, c.K)
        np.testing.assert_allclose(comp.M, c.M)
        np.testing.assert_allclose(comp.d, c.d)

    def test_constant_absorbs(self):
        target = two_mode_squeezed(1.0)
        const = ch.constant_channel(target)
        comp = ch.compose(const, ch.random_channel(P11, 4))
        np.testing.assert_allclose(comp.K, np.zeros((4, 4)))
        np.testing.assert_allclose(comp.M, target.cm)

    def test_attenuator_semigroup(self):
        t1, t2 = 0.3, 1.1
        comp = ch.compose(ch.attenuator(t2), ch.attenuator(t1))
        merged = ch.attenuator(np.arccos(np.cos(t1) * np.cos(t2)))
        np.testing.assert_allclose(comp.K, merged.K, atol=1e-12)
        np.testing.assert_allclose(comp.M, merged.M, atol=1e-12)

    def test_functoriality(self):
        # apply(compose(c2, c1), s) == apply(c2, apply(c1, s))
        for seed in range(200):
            c1 = ch.random_channel(P11, 2 * seed)
            c2 = ch.random_channel(P11, 2 * seed + 1)
            s = random_state(P11, 10000 + seed)
            lhs = ch.apply(ch.compose(c2, c1), s)
            rhs = ch.apply(c2, ch.apply(c1, s))
            np.testing.assert_allclose(lhs.cm, rhs.cm, atol=1e-10)
            np.testing.assert_allclose(lhs.d, rhs.d, atol=1e-10)


class TestConstructors:
    def test_attenuator_zero_angle_is_identity(self):
        c = ch.attenuator(0.0)
        np.testing.assert_allclose(c.K, np.eye(2))
        np.testing.assert_allclose(c.M, np.zeros((2, 2)))

    def test_pure_lossy_sits_on_cp_boundary(self):
        c = ch.attenuator(0.6, n_th=1.0)
        check = ch.cp_check(c)
        assert check.ok
        assert abs(check.min_eigenvalue) < 1e-12

    def test_attenuator_right_angle(self):
        c = ch.attenuator(np.pi / 2.0, n_th=2.0)
        np.testing.assert_allclose(c.K, np.zeros((2, 2)), atol=1e-15)
        np.testing.assert_allclose(c.M, 2.0 * np.eye(2))

    def test_attenuator_rejects_cold_noise(self):
        with pytest.raises(InvalidParameterError):
            ch.attenuator(0.5, n_th=0.5)

    def test_constant_channel_needs_valid_target(self):
        with pytest.raises(InvalidStateError):
            ch.constant_channel(GaussianState(P11, 0.1 * np.eye(4)))

    def test_tensor_with_identity_layout(self):
        c = ch.tensor_with_identity(ch.attenuator(np.arccos(0.5), 1.0), 1, side="B")
        np.testing.assert_allclose(c.K, np.diag([0.5, 0.5, 1.0, 1.0]), atol=1e-15)
        np.testing.assert_allclose(c.M, np.diag([0.75, 0.75, 0.0, 0.0]), atol=1e-15)
        assert c.partition == P11

    def test_tensor_identity_with_identity(self):
        c = ch.tensor_with_identity(ch.identity_channel(ModePartition(0, 1)), 1)
        np.testing.assert_allclose(c.K, np.eye(4))
        np.testing.assert_allclose(c.M, np.zeros((4, 4)))

    def test_tensor_preserves_cp(self):
        for seed in range(100):
            c = ch.random_channel(ModePartition(0, 1), seed)
            for side in ("A", "B"):
                assert ch.cp_check(ch.tensor_with_identity(c, 1, side))

    def test_swap_subsystems_roundtrip(self):
        c = ch.random_channel(P11, 8)
        back = ch.swap_subsystems(ch.swap_subsystems(c))
        np.testing.assert_allclose(back.K, c.K)
        np.testing.assert_allclose(back.M, c.M)


class TestPsdPredicates:
    def test_identity_is_unsteerable_channel(self):
        assert ch.unsteerable_check(ch.identity_channel(P11))

    def test_attenuator_on_a_unsteerable(self):
        assert ch.unsteerable_check(attenuator_on_a())

    def test_amplifying_lossy_sa_sufficient_fails(self):
        check = ch.sa_sufficient_check(amplifying_lossy_channel())
        assert not check.ok
        assert check.min_eigenvalue == pytest.approx(-0.0609, abs=1e-12)

    def test_attenuator_on_a_sa_sufficient(self):
        assert ch.sa_sufficient_check(attenuator_on_a())

    def test_constant_with_unsteerable_target_sa_sufficient(self):
        assert ch.sa_sufficient_check(unsteerable_constant_channel())

    def test_steering_breaking_examples(self):
        assert ch.steering_breaking_check(steerable_constant_channel())
        att = attenuator_on_a()
        check = ch.steering_breaking_check(att)
        assert not check.ok
        assert check.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        # witness lives on the untouched B side, whose -i*omega block fails
        assert np.linalg.norm(check.witness[:2]) < 1e-8
        assert np.linalg.norm(check.witness[2:]) == pytest.approx(1.0)
        assert not ch.steering_breaking_check(amplifying_lossy_channel())

    def test_predicates_require_cp(self):
        bad = ch.GaussianChannel(P11, 2.0 * np.eye(4), np.zeros((4, 4)))
        for fn in (
            ch.unsteerable_check,
            ch.sa_sufficient_check,
            ch.steering_breaking_check,
        ):
            with pytest.raises(InvalidChannelError):
                fn(bad)


class TestQuantifiedPredicates:
    def test_identity_sa_violated_with_mixing_witness(self):
        v = ch.is_steering_annihilating(ch.identity_channel(P11))
        assert v.violated
        assert v.value <= -0.49
        # witness mixes A and B modes
        assert np.linalg.norm(v.witness[:2]) > 0.1
        assert np.linalg.norm(v.witness[2:]) > 0.1

    def test_identity_mus_holds(self):
        assert ch.is_maximal_unsteerable(ch.identity_channel(P11)).holds

    def test_amplifying_lossy_sa_holds(self):
        v = ch.is_steering_annihilating(amplifying_lossy_channel())
        assert v.holds
        assert v.value == pytest.approx(0.009338, abs=1e-4)

    def test_constant_steerable_verdicts(self):
        const = steerable_constant_channel()
        assert ch.is_steering_annihilating(const).violated
        assert ch.is_maximal_unsteerable(const).violated


class TestTolReachesValidation:
    def test_cp_gate_follows_tol(self):
        # CP only up to 1e-6, so valid at tol 1e-3 and not at the default
        c = ch.GaussianChannel(P11, np.eye(4), np.diag([0.0, 0.0, 0.0, -1e-6]))
        calls = (
            lambda tol: ch.is_steering_annihilating(c, tol),
            lambda tol: ch.is_maximal_unsteerable(c, tol),
        )
        for call in calls:
            with pytest.raises(InvalidChannelError):
                call(ch.TOL)
            call(1e-3)


class TestChoiState:
    def test_identity_probe_is_two_mode_squeezed(self):
        probe = ch.choi_state(ch.identity_channel(ModePartition(0, 1)), 1.3)
        np.testing.assert_allclose(probe.cm, two_mode_squeezed(1.3).cm, atol=1e-12)

    def test_zero_squeezing_gives_product_state(self):
        c = ch.random_channel(ModePartition(0, 1), 5)
        probe = ch.choi_state(c, 0.0)
        np.testing.assert_allclose(probe.cm[:2, 2:], np.zeros((2, 2)), atol=1e-15)
        assert is_unsteerable(probe)

    def test_probe_validity(self):
        for seed in range(20):
            c = ch.random_channel(ModePartition(0, 1), seed)
            assert is_valid_state(ch.choi_state(c, 2.0))

    def test_pure_lossy_probe_agrees_with_direct_criterion(self):
        c = ch.attenuator(np.pi / 4.0, 1.0)
        probe = ch.choi_state(c, 2.0)
        assert is_unsteerable(probe) == ch.steering_breaking_check(c).ok


class TestClassify:
    def test_amplifying_lossy_report(self):
        rep = ch.classify(amplifying_lossy_channel())
        assert rep.cp_valid
        assert not rep.sa_sufficient
        assert rep.steering_annihilating.holds
        assert not rep.steering_breaking

    def test_attenuator_sa_not_sb(self):
        rep = ch.classify(attenuator_on_a())
        assert rep.sa_sufficient
        assert not rep.steering_breaking
        assert not rep.steering_annihilating.violated

    def test_composition_lands_in_intersection(self):
        # annihilating-after-breaking is simultaneously both
        comp = ch.compose(amplifying_lossy_channel(), steerable_constant_channel())
        rep = ch.classify(comp)
        assert rep.steering_breaking
        assert not rep.steering_annihilating.violated

    def test_classify_rejects_non_cp(self):
        bad = ch.GaussianChannel(P11, 2.0 * np.eye(4), np.zeros((4, 4)))
        with pytest.raises(InvalidChannelError):
            ch.classify(bad)

    def test_displacement_never_enters_flags(self):
        c = ch.random_channel(P11, 17)
        shifted = ch.GaussianChannel(P11, c.K, c.M, np.array([5.0, -2.0, 1.0, 3.0]))
        r1 = ch.classify(c)
        r2 = ch.classify(shifted)
        assert (r1.unsteerable, r1.sa_sufficient, r1.steering_breaking) == (
            r2.unsteerable,
            r2.sa_sufficient,
            r2.steering_breaking,
        )
        assert r1.steering_annihilating.state == r2.steering_annihilating.state
        assert r1.maximal_unsteerable.state == r2.maximal_unsteerable.state

    def test_one_cp_certificate_per_classify(self, monkeypatch):
        calls = {"is_psd": 0, "cp_check": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(ch, "is_psd", counted("is_psd", ch.is_psd))
        monkeypatch.setattr(ch, "cp_check", counted("cp_check", ch.cp_check))
        ch.classify(amplifying_lossy_channel())
        assert calls == {"is_psd": 4, "cp_check": 1}

    def test_report_consistency_guard(self):
        from gauss_steer.quantifier import Verdict, VerdictState

        rep = ch.classify(attenuator_on_a())
        bad = ch.ClassificationReport(
            cp_valid=True,
            unsteerable=True,
            sa_sufficient=rep.sa_sufficient,
            steering_breaking=rep.steering_breaking,
            steering_annihilating=rep.steering_annihilating,
            maximal_unsteerable=Verdict(VerdictState.VIOLATED, -1.0, np.ones(4)),
            evidence=rep.evidence,
        )
        with pytest.raises(GaussSteerError):
            bad.check_consistency()


class TestMonteCarloOracle:
    def test_amplifying_lossy_clean(self):
        res = ch.monte_carlo_sa_oracle(amplifying_lossy_channel(), 2000, seed=0)
        assert not res.violation_found

    def test_identity_channel_falsified_fast(self):
        # the squeezed probes in the trial mix expose the identity channel
        res = ch.monte_carlo_sa_oracle(ch.identity_channel(P11), 100, seed=0)
        assert res.violation_found
        assert is_valid_state(res.counterexample)
        assert not is_unsteerable(res.output)

    def test_constant_unsteerable_clean(self):
        res = ch.monte_carlo_sa_oracle(unsteerable_constant_channel(), 500, seed=1)
        assert not res.violation_found

    def test_deterministic(self):
        a = ch.monte_carlo_sa_oracle(ch.identity_channel(P11), 100, seed=3)
        b = ch.monte_carlo_sa_oracle(ch.identity_channel(P11), 100, seed=3)
        assert a.trial_index == b.trial_index


class TestRandomChannel:
    def test_deterministic_and_cp(self):
        c1 = ch.random_channel(P11, 23)
        c2 = ch.random_channel(P11, 23)
        np.testing.assert_array_equal(c1.K, c2.K)
        np.testing.assert_array_equal(c1.M, c2.M)
        assert all(
            ch.cp_check(ch.random_channel(P11, seed)) for seed in range(200)
        )

    def test_sa_sufficient_channels_never_falsified(self):
        # the PSD sufficient condition really is sufficient
        hits = 0
        for seed in range(200):
            c = ch.random_channel(P11, seed)
            if ch.sa_sufficient_check(c):
                hits += 1
                res = ch.monte_carlo_sa_oracle(c, 100, seed=seed)
                assert not res.violation_found, seed
        assert hits > 0


class TestEq7ImpliesMus:
    def test_unsteerable_channels_never_mus_violated(self):
        checked = 0
        for seed in range(60):
            c = ch.random_channel(P11, seed)
            if ch.unsteerable_check(c):
                checked += 1
                assert not ch.is_maximal_unsteerable(c).violated
            if checked >= 20:
                break
        assert checked > 0


class TestInclusionsAtValueLevel:
    """A quantified row's value is at least lambda_min of the PSD row with its forms.

    With s = w^dag outer w and t = w^dag K inner K^T w (both imaginary), the
    PSD row at w and at conj(w) gives w^dag M w >= lambda + |t - s| for unit
    w, and |s| <= |t - s| + |t|, so the gap w^dag M w + |t| - |s| is at
    least lambda.  This is the value form of SA-sufficient => SA and
    unsteerable => MUS.  The PSD row is the corner H + i(T - S) of the
    quantified row's pencil, and decide passes a value down to minus the
    larger is_psd threshold of the corners H + i(T -+ S), so a PSD pass is a
    quantified HOLDS at every tolerance.
    """

    @pytest.mark.parametrize("modes", [(1, 1), (1, 2), (2, 2), (0, 2), (2, 1)])
    def test_quantified_value_bounds_psd_row(self, modes):
        pairs = [
            (q, p)
            for q in ch.QUANTIFIED_ROWS
            for p in ch.PSD_ROWS
            if ch.CRITERIA[q][1:] == ch.CRITERIA[p][1:]
        ]
        assert sorted(pairs) == [
            ("maximal_unsteerable", "unsteerable"),
            ("steering_annihilating", "sa_sufficient"),
        ]
        part = ModePartition(*modes)
        pool = [ch.random_channel(part, seed) for seed in range(9)]
        pool += [
            with_noise(symplectic_channel(part, seed), nu)
            for seed in range(12)
            for nu in (0.0, 0.05, 0.3)
        ]
        for c in pool:
            for q, p in pairs:
                psd = is_psd(ch.pose(p, part, c.K, c.M))
                cond = ch.pose(q, part, c.K, c.M)
                value = decide(cond).value
                assert value >= psd.min_eigenvalue - 1e-12, (q, p, value, psd)
                base = cond.h + 1j * cond.minus_term
                slope = -1j * cond.plus_terms[0]
                corners = [is_psd(base + t * slope).threshold for t in (1.0, -1.0)]
                assert max(corners) >= psd.threshold, (q, p, corners, psd)
                # the PSD row planted half its threshold below zero passes,
                # and so must the quantified row, at any tol
                for tol in (ch.TOL, 1e-3):
                    nu = -0.5 * psd.threshold * tol / ch.TOL - psd.min_eigenvalue
                    m = with_noise(c, nu).M
                    assert is_psd(ch.pose(p, part, c.K, m), tol), (q, p, tol)
                    assert decide(ch.pose(q, part, c.K, m), tol).holds, (q, p, tol)


PSD_PREDICATES = (
    ch.cp_check,
    ch.unsteerable_check,
    ch.sa_sufficient_check,
    ch.steering_breaking_check,
)


def local_passive(partition: ModePartition, rng) -> np.ndarray:
    """O_A (+) O_B with orthosymplectic blocks; it fixes omega and omega_hat."""
    sides = (partition.m, partition.n)
    return direct_sum(*[random_orthosymplectic(k, rng) for k in sides if k > 0])


class TestLocalPassiveInvariance:
    """K -> O2 K O1, M -> O2 M O2^T conjugates every criterion matrix by O2.

    So every PSD minimum eigenvalue and both quantified values are unchanged.
    The predicates are called directly: classify also checks consistency,
    which fails on some of these channels (see the acceptance suite).
    """

    @given(
        family=st.sampled_from(["sa 0", "sa +0.05", "sa -0.05", "random"]),
        modes=st.sampled_from([(1, 1), (1, 2), (2, 2), (0, 2)]),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=160, deadline=None, derandomize=True)
    def test_verdicts_unchanged(self, family, modes, seed):
        part = ModePartition(*modes)
        if family == "random":
            c = ch.random_channel(part, seed)
        else:
            c = symplectic_channel(part, seed)
            nu = float(family.split()[1]) - decide(ch.sa_condition(c)).value
            assume(nu >= 0.0)  # lowering M could break complete positivity
            c = with_noise(c, nu)
        rng = np.random.default_rng(seed)
        o_in, o_out = local_passive(part, rng), local_passive(part, rng)
        moved = ch.GaussianChannel(part, o_out @ c.K @ o_in, o_out @ c.M @ o_out.T)
        for predicate in PSD_PREDICATES:
            before, after = predicate(c), predicate(moved)
            assert after.ok == before.ok
            assert after.min_eigenvalue == pytest.approx(before.min_eigenvalue, abs=1e-9)
        for build in (ch.sa_condition, ch.mus_condition):
            before, after = decide(build(c)), decide(build(moved))
            assert after.state is before.state
            assert after.value == pytest.approx(before.value, abs=1e-9)
