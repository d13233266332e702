import numpy as np
import pytest

from gauss_steer import channels as ch
from gauss_steer import superchannels as sch
from gauss_steer.errors import InvalidSuperchannelError
from gauss_steer.repro import mixing_superchannel
from gauss_steer.states import GENERATOR_MARGIN, two_mode_squeezed
from gauss_steer.symplectic import (
    ModePartition,
    is_psd,
    min_eigenvalue,
    omega,
    omega_hat,
    random_orthosymplectic,
)

P11 = ModePartition(1, 1)


def block_swap_superchannel() -> sch.GaussianSuperchannel:
    """E exchanges the two modes: orthogonal and symplectic, but it moves
    the B-side symplectic form onto A, destroying the equality condition."""
    e = np.zeros((4, 4))
    e[:2, 2:] = np.eye(2)
    e[2:, :2] = np.eye(2)
    return sch.GaussianSuperchannel(P11, np.eye(4), e, np.zeros((4, 4)))


def unsteerable_superchannel(seed: int) -> sch.GaussianSuperchannel:
    """Random superchannel shifted to satisfy the unsteerable certificate."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.5, 1.5, (4, 4))
    g = rng.standard_normal((4, 4))
    y = g @ g.T
    om, oh = omega(2), omega_hat(P11)
    shift = 0.0
    for form in (om, oh):
        lam = min_eigenvalue(y + 1j * form - 1j * a @ form @ a.T)
        shift = max(shift, -lam + GENERATOR_MARGIN)
    y = y + shift * np.eye(4)
    return sch.GaussianSuperchannel(P11, a, np.eye(4), y)


def unsteerable_channel(seed: int) -> ch.GaussianChannel:
    """Random channel shifted to satisfy both CP and the unsteerable test."""
    rng = np.random.default_rng(seed)
    k = rng.uniform(-1.5, 1.5, (4, 4))
    g = rng.standard_normal((4, 4))
    m = g @ g.T
    om, oh = omega(2), omega_hat(P11)
    shift = 0.0
    for sandwiched, outer in ((om, om), (oh, oh)):
        lam = min_eigenvalue(m + 1j * outer - 1j * k @ sandwiched @ k.T)
        shift = max(shift, -lam + GENERATOR_MARGIN)
    return ch.GaussianChannel(P11, k, m + shift * np.eye(4))


class TestValidity:
    def test_identity_superchannel(self):
        assert sch.is_valid_superchannel(sch.identity_superchannel(P11))

    def test_reference_superchannel(self):
        assert sch.is_valid_superchannel(mixing_superchannel())

    def test_non_orthogonal_e_invalid(self):
        rng = np.random.default_rng(0)
        s = sch.GaussianSuperchannel(
            P11, np.eye(4), rng.standard_normal((4, 4)), 10.0 * np.eye(4)
        )
        assert not sch.is_valid_superchannel(s)

    def test_orthogonal_but_not_symplectic_e_invalid(self):
        # orthogonality alone is not enough: the E condition is traceless,
        # so PSD forces E to preserve the symplectic form too
        e = np.eye(4)
        e[1, 1] = -1.0  # reflection, orthogonal, not symplectic
        s = sch.GaussianSuperchannel(P11, np.eye(4), e, 10.0 * np.eye(4))
        assert not sch.is_valid_superchannel(s)

    def test_random_superchannels_valid(self):
        assert all(
            sch.is_valid_superchannel(sch.random_superchannel(P11, seed))
            for seed in range(100)
        )

    def test_mus_sufficient_validates_at_caller_tol(self):
        e = np.eye(4)
        e[0, 0] = 1.0 + 1e-6  # admissible at tol 1e-3, not at the default
        s = sch.GaussianSuperchannel(P11, np.eye(4), e, np.zeros((4, 4)))
        with pytest.raises(InvalidSuperchannelError):
            sch.mus_sufficient(s, sch.TOL)
        sch.mus_sufficient(s, 1e-3)


class TestApplyToChannel:
    def test_identity_superchannel_neutral(self):
        s = sch.identity_superchannel(P11)
        c = ch.random_channel(P11, 1)
        out = sch.apply_to_channel(s, c)
        np.testing.assert_allclose(out.K, c.K)
        np.testing.assert_allclose(out.M, c.M)
        np.testing.assert_allclose(out.d, c.d)

    def test_unit_e_on_identity_channel(self):
        s = sch.random_superchannel(P11, 2)
        s = sch.GaussianSuperchannel(P11, s.A, np.eye(4), s.Y, s.nu)
        out = sch.apply_to_channel(s, ch.identity_channel(P11))
        np.testing.assert_allclose(out.K, s.A)
        np.testing.assert_allclose(out.M, s.Y)
        np.testing.assert_allclose(out.d, s.nu)

    def test_cp_preserved_on_random_pairs(self):
        for seed in range(200):
            s = sch.random_superchannel(P11, seed)
            c = ch.random_channel(P11, 10000 + seed)
            assert ch.cp_check(sch.apply_to_channel(s, c))

    def test_rejects_invalid_superchannel(self):
        bad = sch.GaussianSuperchannel(
            P11, np.eye(4), 2.0 * np.eye(4), np.zeros((4, 4))
        )
        with pytest.raises(InvalidSuperchannelError):
            sch.apply_to_channel(bad, ch.identity_channel(P11))


class TestDecompose:
    def test_identity_decomposition(self):
        pre, post = sch.decompose(sch.identity_superchannel(P11))
        for c in (pre, post):
            np.testing.assert_allclose(c.K, np.eye(4))
            np.testing.assert_allclose(c.M, np.zeros((4, 4)))

    def test_unit_e_gives_identity_pre_channel(self):
        s = mixing_superchannel()
        pre, post = sch.decompose(s)
        np.testing.assert_allclose(pre.K, np.eye(4))
        np.testing.assert_allclose(post.K, s.A)
        np.testing.assert_allclose(post.M, s.Y)

    def test_matches_apply_on_random_pairs(self):
        for seed in range(100):
            s = sch.random_superchannel(P11, seed)
            c = ch.random_channel(P11, 20000 + seed)
            pre, post = sch.decompose(s)
            direct = sch.apply_to_channel(s, c)
            chained = ch.compose(post, ch.compose(c, pre))
            np.testing.assert_allclose(chained.K, direct.K, atol=1e-10)
            np.testing.assert_allclose(chained.M, direct.M, atol=1e-10)
            np.testing.assert_allclose(chained.d, direct.d, atol=1e-10)


class TestUsSufficient:
    def test_identity_passes(self):
        assert sch.us_sufficient(sch.identity_superchannel(P11))

    def test_reference_superchannel_fails(self):
        s = mixing_superchannel()
        psd, residual = sch.us_check(s)
        assert not sch.us_sufficient(s)
        assert psd.min_eigenvalue < 0.0
        assert residual < 1e-12  # E = I; the PSD leg is what fails

    def test_block_swap_breaks_equality(self):
        s = block_swap_superchannel()
        assert sch.is_valid_superchannel(s)
        psd, residual = sch.us_check(s)
        assert residual > 0.5
        assert not sch.us_sufficient(s)

    def test_constructed_unsteerable_superchannels_pass(self):
        assert all(sch.us_sufficient(unsteerable_superchannel(s)) for s in range(30))

    def test_equality_residual_follows_tol(self):
        # identity superchannel except for a beam splitter at angle 5e-9
        # between A and B: omega_hat is missed by about 5e-9
        eps = 5e-9
        e = np.block(
            [
                [np.cos(eps) * np.eye(2), np.sin(eps) * np.eye(2)],
                [-np.sin(eps) * np.eye(2), np.cos(eps) * np.eye(2)],
            ]
        )
        s = sch.GaussianSuperchannel(P11, np.eye(4), e, np.zeros((4, 4)))
        assert sch.is_valid_superchannel(s, tol=1e-10)
        _, residual = sch.us_check(s)
        assert 1e-9 < residual < 1e-8
        assert sch.us_sufficient(s)
        assert not sch.us_sufficient(s, tol=1e-10)

    def test_preserves_unsteerable_channels(self):
        # certified superchannels map certified channels into the class
        s = unsteerable_superchannel(1)
        for seed in range(100):
            c = unsteerable_channel(seed)
            assert ch.unsteerable_check(c)
            assert ch.unsteerable_check(sch.apply_to_channel(s, c))


class TestMusSufficient:
    def test_identity_holds(self):
        assert sch.mus_sufficient(sch.identity_superchannel(P11)).holds

    def test_reference_superchannel_holds(self):
        v = sch.mus_sufficient(mixing_superchannel())
        assert v.holds

    def test_degenerate_post_channel_violated(self):
        # A = 0 with a steerable Y reduces the first condition to the
        # unsteerability of Y itself
        y = two_mode_squeezed(2.0).cm
        s = sch.GaussianSuperchannel(P11, np.zeros((4, 4)), np.eye(4), y)
        assert sch.is_valid_superchannel(s)
        v = sch.mus_sufficient(s)
        assert v.violated
        assert v.witness is not None

    def test_class_separation_at_desk_scale(self):
        # the reference superchannel shows MUS certification without US
        s = mixing_superchannel()
        assert sch.mus_sufficient(s).holds
        assert not sch.us_sufficient(s)

    def test_certified_superchannel_preserves_mus(self):
        s = unsteerable_superchannel(5)
        assert sch.mus_sufficient(s).holds
        checked = 0
        for seed in range(50):
            c = unsteerable_channel(seed)
            if not ch.check("maximal_unsteerable", c):
                continue
            checked += 1
            out = sch.apply_to_channel(s, c)
            assert not ch.check("maximal_unsteerable", out).violated
            if checked >= 15:
                break
        assert checked > 0


def chain_verdicts(s: sch.GaussianSuperchannel):
    """Certify through the canonical decomposition: both factor channels free.

    Returns (both factors unsteerable, [post, pre] maximal-unsteerable
    verdicts), the route the direct certificates must agree with.
    """
    pre, post = sch.decompose(s)
    us = ch.unsteerable_check(pre).ok and ch.unsteerable_check(post).ok
    return us, [ch.check("maximal_unsteerable", c) for c in (post, pre)]


class TestChainSufficient:
    def test_identity_both_modes(self):
        s = sch.identity_superchannel(P11)
        us, mus = chain_verdicts(s)
        assert us and sch.us_sufficient(s)
        assert all(v.holds for v in mus) and sch.mus_sufficient(s).holds

    def test_attenuator_data_us_holds(self):
        att = ch.tensor_with_identity(ch.attenuator(np.arccos(0.5), 1.0), 1, "B")
        s = sch.GaussianSuperchannel(P11, att.K, np.eye(4), att.M)
        assert sch.is_valid_superchannel(s)
        assert chain_verdicts(s)[0]
        assert sch.us_sufficient(s)

    def test_reference_superchannel_us_chain_violated(self):
        s = mixing_superchannel()
        assert not chain_verdicts(s)[0]
        assert not sch.us_sufficient(s)

    def test_direct_certificates_match_the_chain(self):
        pool = [sch.random_superchannel(P11, seed) for seed in range(10)]
        pool += [mixing_superchannel(), block_swap_superchannel()]
        pool += [unsteerable_superchannel(seed) for seed in range(3)]
        steerable_y = two_mode_squeezed(2.0).cm
        for e in (np.eye(4), block_swap_superchannel().E):
            # A = 0: the post condition fails; with the block swap, both fail
            pool.append(sch.GaussianSuperchannel(P11, np.zeros((4, 4)), e, steerable_y))
        for s in pool:
            us, mus = chain_verdicts(s)
            assert sch.us_sufficient(s) == us
            direct = sch.mus_sufficient(s)
            violated = [v for v in mus if v.violated]
            if violated:
                assert direct.violated
                assert direct.value == violated[0].value
            else:
                assert direct.holds
                assert direct.value == min(v.value for v in mus)


class TestEqualityFormEquivalence:
    def test_psd_iff_zero_for_orthogonal_e(self):
        # the E condition matrix is traceless Hermitian, so PSD <=> zero
        from gauss_steer.symplectic import direct_sum

        oh = omega_hat(P11)
        rng = np.random.default_rng(123)
        structured = [
            np.eye(4),
            direct_sum(
                random_orthosymplectic(1, rng), random_orthosymplectic(1, rng)
            ),
        ]
        for k in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            d = 1j * oh - 1j * q @ oh @ q.T
            assert bool(is_psd(d, 1e-10)) == (np.abs(d).max() < 1e-10)
        for e in structured:
            d = 1j * oh - 1j * e @ oh @ e.T
            assert bool(is_psd(d, 1e-10)) and np.abs(d).max() < 1e-10


class TestNuIrrelevance:
    def test_shifting_nu_changes_no_verdict(self):
        base = sch.random_superchannel(P11, 9)
        shifted = sch.GaussianSuperchannel(
            P11, base.A, base.E, base.Y, base.nu + np.array([4.0, -1.0, 0.5, 2.0])
        )
        assert sch.us_sufficient(base) == sch.us_sufficient(shifted)
        assert (
            sch.mus_sufficient(base).state
            == sch.mus_sufficient(shifted).state
        )
