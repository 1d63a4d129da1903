"""Tests of the complex-erfc machinery behind the Ewald method."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfc as erfc_real
from scipy.special import wofz

from repro.greens.ewald import EwaldConfig
from repro.greens.special import (
    _exp_erfc,
    erfc_complex,
    erfc_scaled_pair,
    erfc_scaled_pair_with_derivative,
    ewald_spectral_brackets,
)


def _bracket(x, q, split):
    return ewald_spectral_brackets(x, q, split)[0]


def _bracket_minus(x, q, split):
    return ewald_spectral_brackets(x, q, split)[1]


class TestErfcComplex:
    def test_matches_scipy_on_real_axis(self):
        x = np.linspace(-5, 5, 41)
        got = erfc_complex(x.astype(complex))
        np.testing.assert_allclose(got.real, erfc_real(x), rtol=1e-12,
                                   atol=1e-300)
        np.testing.assert_allclose(got.imag, 0.0, atol=1e-12)

    def test_known_value(self):
        # erfc(1 + 1j) from standard tables.
        got = complex(erfc_complex(np.array(1.0 + 1.0j)))
        assert got == pytest.approx(-0.31615128169795 - 0.190453469237835j,
                                    rel=1e-10)

    @given(st.floats(-8, 8), st.floats(-8, 8))
    @settings(max_examples=60, deadline=None)
    def test_reflection_identity(self, re, im):
        z = complex(re, im)
        a = complex(erfc_complex(np.array(z)))
        b = complex(erfc_complex(np.array(-z)))
        # erfc(z) + erfc(-z) = 2 whenever both are finite.
        if np.isfinite(a) and np.isfinite(b):
            scale = max(1.0, abs(a), abs(b))
            assert abs(a + b - 2.0) / scale < 1e-9

    def test_scalar_shape_preserved(self):
        out = erfc_complex(np.array(0.5 + 0.5j))
        assert out.shape == ()


class TestSpatialBracket:
    """bracket(r) = e^{jkr} erfc(rE + jk/2E) + e^{-jkr} erfc(rE - jk/2E)."""

    def _direct(self, r, k, e):
        cp = lambda z: complex(erfc_complex(np.array(z)))
        return (np.exp(1j * k * r) * cp(r * e + 1j * k / (2 * e))
                + np.exp(-1j * k * r) * cp(r * e - 1j * k / (2 * e)))

    @pytest.mark.parametrize("k", [0.8 + 0.0j, (1 + 1j) / 0.9, 2.0 + 0.3j])
    def test_matches_direct_formula(self, k):
        e = 0.4
        r = np.linspace(0.05, 4.0, 17)
        got = erfc_scaled_pair(r, k, e)
        want = np.array([self._direct(ri, k, e) for ri in r])
        np.testing.assert_allclose(got, want, rtol=1e-10)

    def test_value_at_zero_is_two(self):
        # bracket(0) = erfc(c) + erfc(-c) = 2.
        got = complex(erfc_scaled_pair(np.array(0.0), (1 + 1j) / 1.3, 0.35))
        assert got == pytest.approx(2.0, abs=1e-10)

    def test_derivative_matches_finite_difference(self):
        k = (1 + 1j) / 0.7
        e = 0.5
        r = np.linspace(0.1, 3.0, 9)
        h = 1e-6
        fd = (erfc_scaled_pair(r + h, k, e)
              - erfc_scaled_pair(r - h, k, e)) / (2 * h)
        got = erfc_scaled_pair_with_derivative(r, k, e)[1]
        np.testing.assert_allclose(got, fd, rtol=1e-6)

    def test_large_lossy_r_no_overflow(self):
        # Individually enormous terms must combine to a finite value.
        k = (1 + 1j) / 0.1
        got = erfc_scaled_pair(np.array([50.0]), k, 0.35)
        assert np.all(np.isfinite(got))


class TestSpectralBracket:
    def test_limit_large_split_gives_exact_kernel(self):
        """E -> infinity: bracket -> 2 exp(j q |x|) (O(1/E) approach)."""
        q = 1.5 + 0.8j
        x = np.linspace(-2, 2, 11)
        got = _bracket(x, q, split=2.0e4)
        want = 2.0 * np.exp(1j * q * np.abs(x))
        np.testing.assert_allclose(got, want, rtol=2e-4, atol=1e-6)

    def test_limit_small_split_vanishes(self):
        """E -> 0: the spectral part vanishes for Im(q^2) decaying modes.

        (q with Re(q^2) < 0, i.e. evanescent-dominated — the only regime
        small splits are used in; see the Ewald module notes.)
        """
        q = 0.5 + 1.2j
        x = np.linspace(-2, 2, 11)
        got = _bracket(x, q, split=0.05)
        np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_even_in_x(self):
        q = 0.9 + 1.1j
        x = np.linspace(0.1, 2.0, 7)
        a = _bracket(x, q, 0.5)
        b = _bracket(-x, q, 0.5)
        np.testing.assert_allclose(a, b, rtol=1e-12)

    def test_minus_is_derivative_over_jq(self):
        """d/dx bracket = j q * bracket_minus (closed-form gradient)."""
        q = 1.2 + 0.6j
        x = np.linspace(-1.5, 1.5, 13)
        h = 1e-6
        fd = (_bracket(x + h, q, 0.45)
              - _bracket(x - h, q, 0.45)) / (2 * h)
        got = 1j * q * _bracket_minus(x, q, 0.45)
        np.testing.assert_allclose(got, fd, rtol=1e-5, atol=1e-8)

    def test_evanescent_mode_decays(self):
        """Strongly evanescent gamma: the exact kernel limit decays in |x|.

        At a large split the bracket approaches ``2 e^{j q |x|}``, which
        for q = 8j is ``2 e^{-8 |x|}``.
        """
        q = 8.0j
        vals = np.abs(_bracket(np.array([0.0, 1.0, 2.0]), q, 50.0))
        assert vals[1] < vals[0] * 1e-2
        assert vals[2] < vals[1]


class TestFusedPasses:
    """One Faddeeva pass per term serves both members of each bracket
    pair, and one image/mode loop the Ewald value and gradient. The
    fused helpers return the bits of the separate formulas (same terms,
    same combine order), the reflection branch (Re b < 0) included."""

    KS = (0.1047 + 0.0j, 1.2 + 1.1j, 3.5 + 3.3j)

    @staticmethod
    def _separate_terms(r, k, e):
        """``exp(+-jkr) erfc(rE +- jk/2E)``, one term at a time, as
        separate value and derivative passes would compute them."""
        c = 1j * k / (2.0 * e)
        shared = k * k / (4.0 * e * e) - (r * e) ** 2
        terms = []
        for sign in (1.0, -1.0):
            b = r * e + sign * c
            out = np.empty(b.shape, dtype=np.complex128)
            neg = b.real < 0.0
            out[~neg] = np.exp(shared[~neg]) * wofz(1j * b[~neg])
            out[neg] = (2.0 * np.exp(sign * 1j * k * r[neg])
                        - np.exp(shared[neg]) * wofz(-1j * b[neg]))
            terms.append(out)
        return terms, shared

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("split", [0.35, 0.9])
    def test_spatial_pair(self, k, split):
        r = np.abs(np.random.default_rng(0).normal(0.0, 5.0, 200))
        r[0] = 0.0
        (plus, minus), shared = self._separate_terms(r, k, split)
        if k.imag:  # a lossy medium reaches the reflection branch
            assert np.any((r * split + 1j * k / (2.0 * split)).real < 0.0)
        gauss = (4.0 * split / np.sqrt(np.pi)) * np.exp(shared)
        value, deriv = erfc_scaled_pair_with_derivative(r, k, split)
        np.testing.assert_array_equal(value, plus + minus)
        np.testing.assert_array_equal(deriv,
                                      1j * k * (plus - minus) - gauss)
        np.testing.assert_array_equal(value, erfc_scaled_pair(r, k, split))

    @pytest.mark.parametrize("k", KS)
    @pytest.mark.parametrize("split", [0.35, 0.9])
    def test_spectral_pair(self, k, split):
        x = np.random.default_rng(1).normal(0.0, 3.0, 200)
        c = 1j * k / (2.0 * split)
        shared = k * k / (4.0 * split * split) - (x * split) ** 2
        t1 = _exp_erfc(1j * k * x, -x * split - c, shared)
        t2 = _exp_erfc(-1j * k * x, x * split - c, shared)
        plus, minus = ewald_spectral_brackets(x, k, split)
        np.testing.assert_array_equal(plus, t1 + t2)
        np.testing.assert_array_equal(minus, t1 - t2)

    def test_scalar_shapes(self):
        value, deriv = erfc_scaled_pair_with_derivative(1.5, 1.0 + 0.5j, 0.4)
        assert np.shape(value) == np.shape(deriv) == ()
        plus, minus = ewald_spectral_brackets(0.3, 1.0 + 0.5j, 0.4)
        assert np.shape(plus) == np.shape(minus) == ()

    def test_ewald_runs_each_loop_once(self, monkeypatch):
        """The exact evaluator's value and gradient come from one pass:
        one spatial bracket pair per image, one spectral pair per mode."""
        from repro.greens import special
        from repro.swm.fastkernel import EwaldKernel

        calls = {"spatial": 0, "spectral": 0}
        for name, key in (("_scaled_pair_terms", "spatial"),
                          ("_spectral_bracket_terms", "spectral")):
            def counted(*args, _fn=getattr(special, name), _key=key):
                calls[_key] += 1
                return _fn(*args)
            monkeypatch.setattr(special, name, counted)
        cfg = EwaldConfig(period=5.0, n_images=2, n_modes=2)
        kern = EwaldKernel(1.2 + 1.1j, cfg)
        calls.update(spatial=0, spectral=0)
        rng = np.random.default_rng(2)
        g, gx, gy, gz = kern.evaluate(*(rng.uniform(-2.5, 2.5, 40)
                                        for _ in range(3)))
        assert calls == {"spatial": 25, "spectral": 25}
        assert g.shape == gx.shape == gy.shape == gz.shape == (40,)
