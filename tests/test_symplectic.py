import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gauss_steer.errors import (
    DimensionError,
    NotHermitianError,
    SingularBlockError,
)
from gauss_steer.channels import GaussianChannel
from gauss_steer.quantifier import QuantifiedCondition
from gauss_steer.repro import run_reference_suite
from gauss_steer.symplectic import (
    TOL,
    ModePartition,
    check_symmetry,
    is_psd,
    min_eigenvalue,
    omega,
    omega_hat,
    random_orthosymplectic,
    schur_complement,
    sigma,
)

SINGLE = np.array([[0.0, 1.0], [-1.0, 0.0]])


class TestForms:
    def test_omega_single_mode(self):
        np.testing.assert_array_equal(omega(1), SINGLE)

    def test_omega_two_modes_block_structure(self):
        om = omega(2)
        np.testing.assert_array_equal(om[:2, :2], SINGLE)
        np.testing.assert_array_equal(om[2:, 2:], SINGLE)
        np.testing.assert_array_equal(om[:2, 2:], np.zeros((2, 2)))

    def test_omega_squares_to_minus_identity(self):
        om = omega(3)
        np.testing.assert_array_equal(om @ om, -np.eye(6))

    @given(st.integers(min_value=1, max_value=6))
    def test_omega_antisymmetric(self, n):
        om = omega(n)
        np.testing.assert_array_equal(om.T, -om)

    def test_omega_hat_balanced(self):
        oh = omega_hat(ModePartition(1, 1))
        np.testing.assert_array_equal(oh[:2, :2], np.zeros((2, 2)))
        np.testing.assert_array_equal(oh[2:, 2:], SINGLE)

    def test_omega_hat_empty_a_side(self):
        np.testing.assert_array_equal(omega_hat(ModePartition(0, 1)), omega(1))

    def test_omega_hat_two_by_two(self):
        oh = omega_hat(ModePartition(2, 2))
        assert oh.shape == (8, 8)
        np.testing.assert_array_equal(oh[:4, :4], np.zeros((4, 4)))
        np.testing.assert_array_equal(oh[4:, 4:], omega(2))

    @given(st.integers(min_value=0, max_value=4), st.integers(min_value=1, max_value=4))
    def test_omega_hat_antisymmetric(self, m, n):
        oh = omega_hat(ModePartition(m, n))
        np.testing.assert_array_equal(oh.T, -oh)

    def test_sigma_single_mode(self):
        np.testing.assert_array_equal(sigma(1), np.diag([1.0, -1.0]))

    def test_sigma_squares_to_identity(self):
        np.testing.assert_array_equal(sigma(3) @ sigma(3), np.eye(6))

    def test_sigma_conjugation_flips_omega(self):
        # exact on integer matrices
        s, om = sigma(2), omega(2)
        np.testing.assert_array_equal(s @ om @ s, -om)

    def test_antisymmetric_form_purely_imaginary(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = rng.integers(1, 5)
            s0 = rng.standard_normal((2 * n, 2 * n))
            s = s0 - s0.T
            w = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
            assert abs(np.real(w.conj() @ s @ w)) < 1e-12 * (1 + np.abs(s).max())


class TestPartition:
    def test_rejects_bad_counts(self):
        with pytest.raises(DimensionError):
            ModePartition(-1, 1)
        with pytest.raises(DimensionError):
            ModePartition(1, 0)

    def test_dims(self):
        p = ModePartition(2, 3)
        assert p.modes == 5
        assert p.dim == 10

    def test_swapped(self):
        assert ModePartition(2, 1).swapped() == ModePartition(1, 2)
        with pytest.raises(DimensionError):
            ModePartition(0, 1).swapped()


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0)

    def test_mild_off_diagonal_block(self):
        h = np.array([[1.0, -0.0609j], [0.0609j, 1.0]])
        assert min_eigenvalue(h) == pytest.approx(0.9391, abs=1e-12)

    def test_strong_off_diagonal_block(self):
        h = np.array([[1.0, -1.0609j], [1.0609j, 1.0]])
        assert min_eigenvalue(h) == pytest.approx(-0.0609, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            min_eigenvalue(np.zeros((2, 3)))

    def test_rejects_gross_asymmetry(self):
        with pytest.raises(NotHermitianError):
            min_eigenvalue(np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestIsPsd:
    def test_zero_matrix(self):
        assert is_psd(np.zeros((4, 4)))

    def test_boundary_block(self):
        h = np.array([[1.0, 0.99j], [-0.99j, 1.0]])
        assert is_psd(h)

    def test_failure_carries_witness(self):
        h = np.diag([1.0, -0.5])
        check = is_psd(h)
        assert not check
        assert check.min_eigenvalue == pytest.approx(-0.5)
        w = check.witness
        assert np.real(w.conj() @ h @ w) == pytest.approx(-0.5)

    @given(st.integers(min_value=0, max_value=100))
    @settings(max_examples=30)
    def test_monotone_under_identity_shift(self, seed):
        rng = np.random.default_rng(seed)
        h0 = rng.standard_normal((4, 4))
        h = h0 + h0.T
        t = float(rng.uniform(0, 3))
        if is_psd(h):
            assert is_psd(h + t * np.eye(4))


class TestTolerance:
    def test_defaults_are_tol(self):
        for fn in (is_psd, run_reference_suite):
            assert inspect.signature(fn).parameters["tol"].default == TOL

    def test_psd_threshold_is_relative(self):
        # lambda >= -tol * (1 + ||X||), with ||X|| the max row sum
        h = np.diag([-1.5 * TOL, 1.0])
        check = is_psd(h)
        assert check.ok and check.threshold == pytest.approx(2.0 * TOL)
        assert not is_psd(np.diag([-2.5 * TOL, 1.0]))

    def test_symmetry_rule(self):
        near = np.array([[1.0, 1.0], [1.0 + 1.5 * TOL, 1.0]])  # norm about 2
        check_symmetry(near, "X")
        with pytest.raises(NotHermitianError, match="X"):
            check_symmetry(np.array([[1.0, 1.0], [1.0 + 4.0 * TOL, 1.0]]), "X")
        check_symmetry(SINGLE, "S", anti=True)
        with pytest.raises(NotHermitianError, match="S"):
            check_symmetry(SINGLE, "S")

    def test_errors_name_the_field(self):
        asym = np.eye(4)
        asym[0, 1] = 1.0
        with pytest.raises(NotHermitianError, match="M"):
            GaussianChannel(ModePartition(1, 1), np.eye(4), asym)
        with pytest.raises(NotHermitianError, match="minus term"):
            QuantifiedCondition(np.eye(4), [], asym)


class TestSchurComplement:
    def test_identity(self):
        np.testing.assert_allclose(schur_complement(np.eye(4), 2), np.eye(2))

    def test_two_by_two(self):
        w = np.array([[2.0, 1.0], [1.0, 1.0]])
        np.testing.assert_allclose(schur_complement(w, 1), [[1.0]])

    def test_singular_block_raises(self):
        w = np.eye(4)
        w[2, 2] = w[3, 3] = 0.0
        with pytest.raises(SingularBlockError):
            schur_complement(w, 2)

    def test_bad_split(self):
        with pytest.raises(DimensionError):
            schur_complement(np.eye(4), 4)

    @pytest.mark.parametrize("seed", range(12))
    def test_psd_equivalence(self, seed):
        # W >= 0  iff  W22 >= 0 and the complement onto the leading block >= 0
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        h = a @ a.conj().T if seed % 2 == 0 else a + a.conj().T
        h = h + 1e-6 * np.eye(5)  # keep the trailing block invertible
        lhs = bool(is_psd(h, 1e-10))
        w22_ok = bool(is_psd(h[2:, 2:], 1e-10))
        rhs = w22_ok and bool(is_psd(schur_complement(h, 2), 1e-10))
        assert lhs == rhs

    def test_squeezed_probe_limit(self):
        # At strong squeezing the complement of the probe output's steering
        # matrix reproduces M - i K omega K^T to well under 1e-3.
        from gauss_steer.channels import choi_state, random_channel
        from gauss_steer.symplectic import omega_hat as oh

        c = random_channel(ModePartition(0, 1), seed=3)
        probe = choi_state(c, 8.0)
        w = probe.cm.astype(complex) + 1j * oh(probe.partition)
        sc = schur_complement(w, 2)
        direct = c.M - 1j * c.K @ omega(1) @ c.K.T
        assert np.abs(sc - direct).max() < 1e-3


class TestRandomOrthosymplectic:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orthogonal_and_symplectic(self, n):
        e = random_orthosymplectic(n, np.random.default_rng(5))
        np.testing.assert_allclose(e @ e.T, np.eye(2 * n), atol=1e-12)
        np.testing.assert_allclose(e @ omega(n) @ e.T, omega(n), atol=1e-12)
