import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from families import symplectic_channel, with_noise
from gauss_steer import channels as ch
from gauss_steer import superchannels as sch
from gauss_steer.errors import DimensionError, InvalidParameterError
from gauss_steer.quantifier import (
    QuantifiedCondition,
    VerdictState,
    decide,
    evaluate,
    evaluate_many,
    falsify_grid,
)
from gauss_steer.symplectic import ModePartition, is_psd, omega, omega_hat

OMH = omega_hat(ModePartition(1, 1))
OM2 = omega(2)


def circular_b() -> np.ndarray:
    return np.array([0, 0, 1, 1j]) / np.sqrt(2)


def circular_a() -> np.ndarray:
    return np.array([1, 1j, 0, 0]) / np.sqrt(2)


class TestEvaluate:
    def test_b_circular_vector_saturates(self):
        cond = QuantifiedCondition(np.eye(4), [], OMH)
        assert evaluate(cond, circular_b()) == pytest.approx(0.0, abs=1e-12)

    def test_real_vectors_kill_antisymmetric_forms(self):
        cond = QuantifiedCondition(np.eye(4), [], OMH)
        w = np.array([0.3, -1.2, 0.5, 0.9])
        w = w / np.linalg.norm(w)
        assert evaluate(cond, w) == pytest.approx(1.0)

    def test_plus_term_counts_positively(self):
        cond = QuantifiedCondition(np.zeros((4, 4)), [OM2], OMH)
        assert evaluate(cond, circular_a()) == pytest.approx(1.0, abs=1e-12)

    def test_zero_vector_rejected(self):
        cond = QuantifiedCondition(np.eye(4), [], OMH)
        with pytest.raises(InvalidParameterError):
            evaluate(cond, np.zeros(4))

    @given(
        st.integers(min_value=0, max_value=50),
        st.complex_numbers(
            min_magnitude=1e-3, max_magnitude=10, allow_nan=False, allow_infinity=False
        ),
    )
    @settings(max_examples=60)
    def test_scale_invariance(self, seed, lam):
        rng = np.random.default_rng(seed)
        h0 = rng.standard_normal((4, 4))
        cond = QuantifiedCondition(h0 + h0.T, [OM2], OMH)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert evaluate(cond, lam * w) == pytest.approx(
            abs(lam) ** 2 * evaluate(cond, w), rel=1e-10, abs=1e-10
        )

    @given(st.floats(min_value=-np.pi, max_value=np.pi))
    @settings(max_examples=40)
    def test_phase_invariance(self, alpha):
        rng = np.random.default_rng(1)
        cond = QuantifiedCondition(np.eye(4), [OM2], OMH)
        w = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert evaluate(cond, np.exp(1j * alpha) * w) == pytest.approx(
            evaluate(cond, w), rel=1e-10
        )

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(2)
        cond = QuantifiedCondition(np.eye(4), [OM2], OMH)
        ws = rng.standard_normal((16, 4)) + 1j * rng.standard_normal((16, 4))
        batch = evaluate_many(cond, ws)
        for row, expected in zip(ws, batch):
            assert evaluate(cond, row) == pytest.approx(expected)


class TestConditionValidation:
    def test_symmetric_h_required(self):
        from gauss_steer.errors import NotHermitianError

        with pytest.raises(NotHermitianError):
            QuantifiedCondition(np.array([[0.0, 1.0], [0.0, 0.0]]), [], np.zeros((2, 2)))

    def test_antisymmetric_terms_required(self):
        from gauss_steer.errors import NotHermitianError

        with pytest.raises(NotHermitianError):
            QuantifiedCondition(np.eye(2), [np.eye(2)], np.zeros((2, 2)))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            QuantifiedCondition(np.eye(4), [], np.zeros((2, 2)))


class TestDecide:
    def test_pure_minus_term_violated(self):
        cond = QuantifiedCondition(np.zeros((4, 4)), [], OMH)
        v = decide(cond)
        assert v.state is VerdictState.VIOLATED
        assert v.value == pytest.approx(-1.0, abs=1e-9)
        # witness must re-evaluate to the reported value
        assert evaluate(cond, v.witness) == pytest.approx(v.value, abs=1e-10)
        # and is concentrated on the B mode
        assert np.linalg.norm(v.witness[:2]) < 1e-6
        assert not v

    def test_verdict_truthy_exactly_when_it_holds(self):
        assert decide(QuantifiedCondition(np.eye(4), [], OMH))
        assert not decide(QuantifiedCondition(np.zeros((4, 4)), [], OMH))

    def test_boundary_holds(self):
        # second term cancels the subtracted one exactly: gap is identically 0
        cond = QuantifiedCondition(np.zeros((4, 4)), [OMH], OMH)
        v = decide(cond)
        assert v.holds
        assert v.value == pytest.approx(0.0, abs=1e-12)

    def test_psd_reducible_case_matches_eigensolver(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            h0 = rng.standard_normal((4, 4))
            h = h0 + h0.T
            cond = QuantifiedCondition(h, [], np.zeros((4, 4)))
            v = decide(cond)
            lam = float(np.linalg.eigvalsh(h)[0])
            assert v.value == pytest.approx(lam, abs=1e-7)
            # with S = T = 0 both corners are H: decide and is_psd are one rule
            assert v.holds == is_psd(h).ok

    def test_tiny_minus_term_still_holds(self):
        cond = QuantifiedCondition(np.eye(4), [], 1e-12 * OMH)
        assert decide(cond).holds

    def test_deterministic_per_seed(self):
        # decide draws no random numbers, so one condition always gets one verdict
        rng = np.random.default_rng(6)
        h0 = rng.standard_normal((4, 4))
        cond = QuantifiedCondition(h0 + h0.T, [OM2], OMH)
        a = decide(cond)
        b = decide(cond)
        assert a.state == b.state
        assert a.value == b.value

    def test_identity_shift_never_flips_holds(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            h0 = rng.standard_normal((4, 4))
            h = h0 + h0.T
            cond = QuantifiedCondition(h, [OM2], OMH)
            base = decide(cond)
            if base.holds:
                bumped = QuantifiedCondition(h + 0.5 * np.eye(4), [OM2], OMH)
                assert not decide(bumped).violated

    def test_candidates_include_complex_vectors(self):
        # g degenerates to w^T H w = 1 on real vectors, so the violation
        # (-1, at a circular vector) is only found off the real subspace.
        cond = QuantifiedCondition(np.eye(4), [], 2.0 * OMH)
        v = decide(cond)
        assert v.violated
        assert v.value == pytest.approx(-1.0, abs=1e-9)
        assert np.abs(v.witness.imag).max() > 0.1


class TestFalsifyGrid:
    def test_dimension_cap(self):
        big = QuantifiedCondition(np.eye(10), [], np.zeros((10, 10)))
        with pytest.raises(DimensionError):
            falsify_grid(big)

    def test_finds_pure_minus_violation(self):
        cond = QuantifiedCondition(np.zeros((4, 4)), [], OMH)
        w = falsify_grid(cond, 100000)
        assert w is not None
        assert evaluate(cond, w) < -0.5

    def test_none_on_strictly_positive(self):
        cond = QuantifiedCondition(2.0 * np.eye(4), [], OMH)
        assert falsify_grid(cond, 100000) is None

    def test_agreement_with_decide(self):
        # No instance may be declared HOLDS while the independent sweep
        # uncovers a genuine violation.
        rng = np.random.default_rng(10)
        for k in range(20):
            h0 = rng.standard_normal((4, 4))
            scale = rng.uniform(0.05, 1.5)
            cond = QuantifiedCondition(
                scale * (h0 @ h0.T), [OM2 * rng.uniform(0, 1.5)], OMH
            )
            verdict = decide(cond)
            witness = falsify_grid(cond, 100000)
            if verdict.holds:
                grid_val = (
                    evaluate(cond, witness) if witness is not None else np.inf
                )
                assert grid_val >= -1e-7
            if verdict.violated:
                assert evaluate(cond, verdict.witness) == pytest.approx(
                    verdict.value, abs=1e-10
                )


def _dual_bound(cond) -> float:
    """min over sigma of max over t of lambda_min, by scipy's bounded scalar search.

    An independent route to the exact value: weak duality makes it a lower
    bound on the gap of every unit vector.
    """
    from scipy.optimize import minimize_scalar

    s = cond.plus_terms[0]
    best = np.inf
    for sig in (1.0, -1.0):

        def neg_lam(t):
            pencil = cond.h + 1j * sig * cond.minus_term - 1j * t * s
            return -np.linalg.eigvalsh(pencil)[0]

        res = minimize_scalar(
            neg_lam, bounds=(-1.0, 1.0), method="bounded", options={"xatol": 1e-12}
        )
        best = min(best, max(-res.fun, -neg_lam(-1.0), -neg_lam(1.0)))
    return best


class TestExactDecider:
    def test_more_than_one_plus_term_rejected(self):
        with pytest.raises(InvalidParameterError):
            QuantifiedCondition(np.eye(4), [OM2, OMH], OMH)

    @pytest.mark.parametrize("modes", [(1, 1), (1, 2), (2, 2)])
    def test_shift_identity(self, modes):
        # g contains w^dag M w, so on the unit sphere M + nu I shifts the
        # value by exactly nu, on either side of the decision.
        part = ModePartition(*modes)
        for seed in range(4):
            c = symplectic_channel(part, seed)
            for build in (ch.sa_condition, ch.mus_condition):
                base = decide(build(c)).value
                for nu in (0.37, -0.2):
                    moved = decide(build(with_noise(c, nu))).value
                    assert moved == pytest.approx(base + nu, abs=1e-9)

    def test_violated_witnesses_reach_the_exact_value(self):
        channels = [
            symplectic_channel(ModePartition(*modes), seed)
            for modes in ((1, 1), (1, 2), (2, 2))
            for seed in range(8)
        ]
        conds = [
            cond for c in channels for cond in (ch.sa_condition(c), ch.mus_condition(c))
        ]
        # superchannel MUS legs, many maximized at t = +-1 on a degenerate
        # lambda_min eigenspace
        conds += [
            cond
            for modes in ((1, 1), (1, 2), (2, 1))
            for seed in range(60)
            for cond in sch.mus_conditions(
                sch.random_superchannel(ModePartition(*modes), seed)
            )
        ]
        interior = violated = 0
        for cond in conds:
            v = decide(cond)
            if not v.violated:
                continue
            violated += 1
            assert evaluate(cond, v.witness) == pytest.approx(v.value, abs=1e-10)
            assert v.value == pytest.approx(_dual_bound(cond), abs=1e-9)
            s_form = np.imag(v.witness.conj() @ cond.plus_terms[0] @ v.witness)
            interior += abs(s_form) < 1e-9
        assert violated >= 150
        # many maxima over t are interior, where the S-form of the witness vanishes
        assert interior >= 10

    def test_degenerate_interior_maximum_mixes_the_eigenspace(self):
        # lambda_min(t) = -1 - |t| on mode A: a kink at t* = 0 whose
        # eigenvectors there are circular, with gap 0 instead of -1.  The
        # mixed witness is real on mode A and reaches -1.
        cond = QuantifiedCondition(np.diag([-1.0, -1.0, 1.0, 1.0]), [OM2], 0.5 * OMH)
        v = decide(cond)
        assert v.violated
        assert v.value == pytest.approx(-1.0, abs=1e-12)
        assert evaluate(cond, v.witness) == pytest.approx(v.value, abs=1e-10)
        assert np.linalg.norm(v.witness[2:]) < 1e-9
