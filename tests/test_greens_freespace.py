"""The free-space evaluators: the 3D phase ``exp(jkr)`` from real
passes against an extended-precision reference, and the fused 2D
evaluator against ``scipy.special.hankel1``.

:func:`~repro.greens.freespace.green2d_and_gradient` returns ``G =
(j/4) H0(k rho)`` and ``(1/rho) dG/drho``, from a small-argument series
inside ``|k rho| <= SERIES_RADIUS`` and from ``hankel1`` beyond it. The
bound here is 1e-13 of ``max(1, |exact|)`` per element, for ``G`` and
for ``dG/drho = -(j k / 4) H1(k rho)``, on the conductor's 45-degree
line and the dielectric's real line, from ``rho = 1e-3`` out past the
series radius.
"""

import numpy as np
import pytest
from scipy.special import hankel1

from repro.constants import GHZ, METER_TO_UM
from repro.greens.freespace import (SERIES_RADIUS, exp_jkr, exp_jkr_parts,
                                    green2d, green2d_and_gradient, green3d)
from repro.materials import PAPER_SYSTEM


def _media():
    """The paper's dielectric (real k) and conductor (k on the 45-degree
    line) at 1 and 5 GHz, in 1/um."""
    out = []
    for f_ghz in (1, 5):
        f = f_ghz * GHZ
        out += [PAPER_SYSTEM.k1(f) / METER_TO_UM,
                PAPER_SYSTEM.k2(f) / METER_TO_UM]
    return out


MEDIA = _media()


def _rho(k, count=4001):
    """From 1e-3 to twice the series radius, with the radius itself."""
    rho = np.geomspace(1e-3, 2.0 * SERIES_RADIUS / abs(k), count)
    return np.sort(np.append(rho, SERIES_RADIUS / abs(k)))


def _evaluate(rho, k):
    return green2d_and_gradient(rho * rho, np.log(rho), k)


def _past_radius(rho, k):
    """The evaluator's own test: ``rho^2 > (SERIES_RADIUS / |k|)^2``."""
    return rho * rho > (SERIES_RADIUS / abs(k)) ** 2


class TestAgainstHankel:
    def test_media_lie_on_their_lines(self):
        dielectric, conductor = MEDIA[:2]
        assert dielectric.imag == 0.0
        assert conductor.real == pytest.approx(conductor.imag, rel=1e-12)

    @pytest.mark.parametrize("k", MEDIA)
    def test_within_bound_on_both_sides_of_the_radius(self, k):
        rho = _rho(k)
        g, dg = _evaluate(rho, k)
        g_ref = 0.25j * hankel1(0, k * rho)
        dgdr_ref = -0.25j * k * hankel1(1, k * rho)
        past = _past_radius(rho, k)
        assert past.any() and not past.all()
        assert np.all(np.abs(g - g_ref)
                      <= 1e-13 * np.maximum(1.0, np.abs(g_ref)))
        assert np.all(np.abs(dg * rho - dgdr_ref)
                      <= 1e-13 * np.maximum(1.0, np.abs(dgdr_ref)))

    @pytest.mark.parametrize("k", MEDIA)
    def test_fallback_returns_hankel_bits(self, k):
        """Past the radius, the bits of ``hankel1`` at ``sqrt(rho2)``
        (the distance the plan's ``rho2`` stands for)."""
        rho = _rho(k)
        rho = rho[_past_radius(rho, k)]
        g, dg = _evaluate(rho, k)
        rho = np.sqrt(rho * rho)
        h1 = hankel1(1, k * rho)
        np.testing.assert_array_equal(g, green2d(rho, k))
        np.testing.assert_array_equal(dg, (-0.25j * k * h1) / rho)


class TestBitIdentity:
    @pytest.mark.parametrize("k", MEDIA[2:])
    def test_stack_equals_one_sample_calls(self, k):
        """A ``(B, E, q)`` call returns each sample's one-sample bits,
        with elements on both sides of the radius."""
        rng = np.random.default_rng(4)
        reach = 1.5 * SERIES_RADIUS / abs(k)
        rho = rng.uniform(1e-3, reach, (5, 7, 8))
        assert _past_radius(rho, k).any()
        g, dg = _evaluate(rho, k)
        for b in range(rho.shape[0]):
            g_one, dg_one = _evaluate(rho[b:b + 1], k)
            np.testing.assert_array_equal(g[b:b + 1], g_one)
            np.testing.assert_array_equal(dg[b:b + 1], dg_one)


#: Wavenumbers (1/um) for ``exp_jkr``: a dielectric-like real k, the
#: conductor's ``(1 + j) / delta`` at skin depths 0.3 and 2.1 um, a
#: generic lossy k and a large real k.
PHASE_KS = [2.1e-4, (1 + 1j) / 0.3, (1 + 1j) / 2.1, 2.5 + 0.7j, 40.0]


def _pole_distances(k, poles=40, ulps=4):
    """Distances where ``Re(k) r / 2`` is within a few ulps of ``pi/2 +
    m pi``, the tangent's poles, for the first ``poles`` values of m."""
    centres = (2 * np.arange(poles) + 1) * np.pi / complex(k).real
    steps = np.arange(-ulps, ulps + 1)
    return np.concatenate([c + steps * np.spacing(c) for c in centres])


def _reference_phase(k, r):
    """``exp(a) (cos b + j sin b)`` in extended precision, from the
    float64 arguments ``a = r * -Im(k)`` and ``b = r * Re(k)`` that
    ``np.exp(1j * k * r)`` also forms. (``np.exp`` of a ``clongdouble``
    is not accurate enough to serve here.) Returns the real part, the
    imaginary part and the modulus."""
    k = complex(k)
    a = (r * -k.imag).astype(np.longdouble)
    b = (r * k.real).astype(np.longdouble)
    modulus = np.exp(a)
    return modulus * np.cos(b), modulus * np.sin(b), modulus


def _bits(a):
    """The raw bits of an array, whatever its strides (zero signs
    included, which ``==`` ignores)."""
    return np.ascontiguousarray(a).view(np.uint64)


class TestExpJkr:
    @pytest.mark.parametrize("k", PHASE_KS)
    def test_within_1e_15_of_extended_reference(self, k):
        """Over ``r`` in [0, 60] and at the tangent's poles, finite and
        within 1e-15 of ``|exp(jkr)|``."""
        r = np.concatenate([np.linspace(0.0, 60.0, 20001),
                            _pole_distances(k)])
        assert np.max(np.abs(np.tan(r * complex(k).real / 2.0))) > 1e14
        got = exp_jkr(k, r)
        assert np.all(np.isfinite(got))
        re, im, modulus = _reference_phase(k, r)
        err = np.hypot(got.real - re, got.imag - im) / modulus
        assert np.max(err) <= 1e-15

    @pytest.mark.parametrize("k", PHASE_KS)
    def test_layout_never_changes_a_bit(self, k):
        """A slice, a strided view, a transposed view and a 0-d element
        return the bits of the whole array's call, as parts, as one
        complex array and inside ``green3d``."""
        r = np.random.default_rng(7).uniform(0.0, 12.0, (33, 40))
        views = [np.s_[5:19], np.s_[:, ::3], np.s_[::-2, 7:]]
        for func in (exp_jkr, lambda k_, r_: green3d(r_, k_)):
            whole = func(k, r)
            for at in views + [np.s_[4, 9]]:
                np.testing.assert_array_equal(_bits(func(k, r[at])),
                                              _bits(whole[at]))
            np.testing.assert_array_equal(_bits(func(k, r.T)),
                                          _bits(whole.T))
        parts = exp_jkr_parts(k, r)
        np.testing.assert_array_equal(_bits(exp_jkr_parts(k, r[:, ::3])),
                                      _bits(parts[:, :, ::3]))
        phase = exp_jkr(k, r)
        np.testing.assert_array_equal(_bits(phase.real), _bits(parts[0]))
        np.testing.assert_array_equal(_bits(phase.imag), _bits(parts[1]))

    def test_green3d_is_the_phase_over_4_pi_r(self):
        k = (1 + 1j) / 0.7
        r = np.linspace(0.05, 9.0, 501)
        want = np.exp(1j * k * r) / (4.0 * np.pi * r)
        np.testing.assert_allclose(green3d(r, k), want, rtol=1e-15,
                                   atol=0.0)
