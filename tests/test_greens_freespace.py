"""The fused 2D free-space evaluator against ``scipy.special.hankel1``.

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
from repro.greens.freespace import (SERIES_RADIUS, green2d,
                                    green2d_and_gradient)
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
