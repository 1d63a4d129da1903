"""Free-space scalar Green's functions in 3D and 2D.

3D: ``G(r) = exp(j*k*r) / (4*pi*r)`` — the paper's eq. (4).
2D: ``G(rho) = (j/4) * H0^(1)(k*rho)`` (line source), used by the 2D SWM
formulation of Fig. 6.

Both use the ``exp(-j*omega*t)`` convention: ``Im(k) >= 0`` gives decay.

**The 3D phase.** :func:`exp_jkr_parts` forms ``exp(jkr)`` at real
distances from real, vectorized passes (one ``tan`` of the half angle
and, for a lossy medium, one real ``exp``), as separate real and
imaginary planes; :func:`green3d`, the 3D assembly plan's near pass and
the kernel tables' radial tables all take their phase from it.

**The fused 2D evaluator.** :func:`green2d_and_gradient` returns ``G``
and its gradient factor ``(1/rho) dG/drho = -(j k / 4) H1(k rho) / rho``
together (the Cartesian gradient is that factor times the separation).
Within ``|k rho| <= R`` (:data:`SERIES_RADIUS`, 2.5) it sums the
small-argument series of ``H0`` and ``H1``::

    G             = A(rho^2) + ln(rho) B(rho^2)
    (1/rho) G'    = -1 / (2 pi rho^2) + Q(rho^2) + ln(rho) R(rho^2)

four polynomials of :data:`SERIES_TERMS` (14) terms whose complex
coefficients depend on ``k`` alone (one coefficient vector per medium,
cached), evaluated by Horner in ``rho^2`` on their real and imaginary
parts in real arithmetic. ``rho^2`` and ``ln rho`` do not depend on
``k``, so a caller holding several media (the 2D assembly plan's two
media x F stacked frequencies) computes them once. Beyond ``R`` an
element takes :func:`scipy.special.hankel1`, with the same bits as
:func:`green2d`. The choice is made per element from ``rho^2`` and
``k``, so an element's value does not depend on the array it sits in.
Both outputs stay within 1e-13 of ``max(1, |exact|)`` against
``hankel1`` (measured: at most 6e-16, truncation included, on the
conductor's 45-degree line and the dielectric's real line).
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache

import numpy as np
from scipy.special import hankel1

#: ``|k rho|`` up to which :func:`green2d_and_gradient` sums the series.
#: It covers the near pairs of every bench-scale profile (at most 2.09).
SERIES_RADIUS = 2.5

#: Terms per series polynomial: the first omitted one is below 3e-17
#: at ``|k rho| = SERIES_RADIUS``.
SERIES_TERMS = 14

#: Euler-Mascheroni constant (for the small-argument Hankel expansion).
EULER_GAMMA = 0.5772156649015329


def exp_jkr_parts(k: complex, r: np.ndarray) -> np.ndarray:
    """The real and imaginary parts of ``exp(jkr)`` at real ``r``, as a
    ``(2,) + r.shape`` stack, from real passes only.

    With ``t = tan(Re(k) r / 2)``::

        exp(jkr) = exp(-Im(k) r) ((1 - t^2) + 2jt) / (1 + t^2)

    one ``tan``, one real ``exp`` (skipped when ``Im k == 0``),
    products and two divisions, each a contiguous pass over one plane
    of the stack or one float temporary. numpy's complex ``exp`` runs
    one element at a time, while its float64 ``tan`` and ``exp`` are
    vectorized where numpy dispatches its AVX-512 loops (an AVX2-only
    host falls back to libm for ``tan``, unmeasured). Every operation is
    elementwise and ``tan`` and ``exp`` run on fresh contiguous
    buffers, so an element's bits do not depend on the shape or strides
    of ``r``. Against ``exp``, ``cos`` and ``sin`` of the same
    float64 arguments ``r * -Im(k)`` and ``r * Re(k)`` in extended
    precision it stays within 1e-15 of ``|exp(jkr)|`` (measured: 4.0e-16
    over ``r`` in [0, 60] for conductor- and dielectric-like ``k``;
    numpy's complex ``exp`` 2.6e-16), and it stays finite where ``Re(k) r / 2`` meets a pole of
    the tangent: ``(1 - t^2) / (1 + t^2)`` tends to -1 and ``2t / (1 +
    t^2)`` to 0 as ``|t|`` grows.
    """
    k = complex(k)
    r = np.asarray(r, dtype=np.float64)
    parts = np.empty((2,) + r.shape)
    re, im = parts[0, ...], parts[1, ...]
    denom = np.empty(r.shape)
    np.multiply(r, 0.5 * k.real, out=im)
    np.tan(im, out=im)
    np.multiply(im, im, out=re)
    np.add(re, 1.0, out=denom)
    np.subtract(1.0, re, out=re)
    np.add(im, im, out=im)
    np.divide(parts, denom, out=parts)
    if k.imag != 0.0:
        np.multiply(r, -k.imag, out=denom)
        np.exp(denom, out=denom)
        np.multiply(parts, denom, out=parts)
    return parts


def complex_from_parts(parts: np.ndarray) -> np.ndarray:
    """A complex array from a ``(2, ...)`` stack of its real and
    imaginary parts (exact copies)."""
    out = np.empty(parts.shape[1:], dtype=np.complex128)
    out.real, out.imag = parts
    return out


def exp_jkr(k: complex, r: np.ndarray) -> np.ndarray:
    """``exp(jkr)`` at real ``r``: :func:`exp_jkr_parts` as one complex
    array."""
    return complex_from_parts(exp_jkr_parts(k, r))


def green3d(r: np.ndarray, k: complex) -> np.ndarray:
    """3D scalar Green's function ``exp(jkr)/(4 pi r)`` for distances ``r``.

    ``r`` must be positive; the caller handles the self-term singularity.
    The phase comes from :func:`exp_jkr_parts`, the half-angle identity
    ``exp(jkr) = exp(-Im(k) r) ((1 - t^2) + 2jt) / (1 + t^2)`` with ``t =
    tan(Re(k) r / 2)`` in real passes, within 1e-15 of ``|exp(jkr)|``
    (4.0e-16 measured against an extended-precision reference, where
    numpy's complex ``exp`` reads 2.6e-16); both of its parts are then
    divided by ``4 pi r``.
    """
    r = np.asarray(r, dtype=np.float64)
    parts = exp_jkr_parts(k, r)
    np.divide(parts, 4.0 * np.pi * r, out=parts)
    return complex_from_parts(parts)


def green3d_radial_derivative(r: np.ndarray, k: complex) -> np.ndarray:
    """dG/dr for the 3D Green's function: ``(jk - 1/r) * G``."""
    r = np.asarray(r, dtype=np.float64)
    # Materialized like the Hankel terms below: multiplying the call's
    # freshly returned buffer lets numpy elide the temporary and round
    # the final ulp by alignment (RPR002).
    g = green3d(r, k)
    return (1j * k - 1.0 / r) * g


def green2d(rho: np.ndarray, k: complex) -> np.ndarray:
    """2D scalar Green's function ``(j/4) H0^(1)(k rho)``."""
    rho = np.asarray(rho, dtype=np.float64)
    # The Hankel result is bound to a name before the scalar multiply.
    # A bare `0.25j * hankel1(...)` lets numpy elide the temporary and
    # multiply in place, and the in-place inner loop can round a final
    # ulp differently from the out-of-place one depending on buffer
    # alignment — which made the same separations produce different
    # bits in (N, N) per-sample and (B, N, N) batched assemblies.
    h0 = hankel1(0, k * rho)
    return 0.25j * h0


@lru_cache(maxsize=64)
def _series_coefficients(k: complex) -> np.ndarray:
    """Series coefficients of one ``k``, as real polynomials in
    ``rho^2``.

    With ``a_n = (-k^2/4)^n / (n!)^2`` (the ``J0`` series), the harmonic
    numbers ``H_n`` and ``alpha = j/4 - (ln(k/2) + gamma_E) / (2 pi)``:
    ``A_n = a_n (alpha + H_n / (2 pi))``, ``B_n = -a_n / (2 pi)``, and
    for the gradient factor ``Q_{n-1} = 2n A_n - a_n / (2 pi)``,
    ``R_{n-1} = 2n B_n``. Returns the rows ``Re A, Re B, Im A, Im B,
    Re Q, Re R, Im Q, Im R`` of :data:`SERIES_TERMS` coefficients each,
    in increasing powers, read-only.
    """
    inv_2pi = 1.0 / (2.0 * math.pi)
    a, harmonic = [1.0 + 0j], [0.0]
    for n in range(1, SERIES_TERMS):
        a.append(a[-1] * (-k * k / 4.0) / (n * n))
        harmonic.append(harmonic[-1] + 1.0 / n)
    alpha = 0.25j - (cmath.log(k / 2.0) + EULER_GAMMA) * inv_2pi
    big_a = [an * (alpha + hn * inv_2pi) for an, hn in zip(a, harmonic)]
    big_b = [-an * inv_2pi for an in a]
    # Q and R have one term fewer; a zero top coefficient pads them.
    big_q = [2 * n * big_a[n] - a[n] * inv_2pi
             for n in range(1, SERIES_TERMS)] + [0j]
    big_r = [2 * n * big_b[n] for n in range(1, SERIES_TERMS)] + [0j]
    coef = np.array([part(poly) for pair in ((big_a, big_b), (big_q, big_r))
                     for part in (np.real, np.imag) for poly in pair])
    coef.setflags(write=False)
    return coef


def green2d_and_gradient(rho2: np.ndarray, log_rho: np.ndarray,
                         k: complex) -> tuple[np.ndarray, np.ndarray]:
    """``G = (j/4) H0(k rho)`` and its gradient factor ``(1/rho)
    dG/drho`` at squared distances ``rho2 > 0``, with ``log_rho = ln
    rho`` of the same shape.

    Elements with ``rho2 <= (SERIES_RADIUS / |k|)^2`` sum the series of
    the module docstring, all eight real polynomial parts in one Horner
    pass over an ``(8, elements)`` stack; the others call ``hankel1``
    and return the bits of :func:`green2d` and of ``-(j k / 4) H1(k rho)
    / rho`` at ``rho = sqrt(rho2)``. Every operation is elementwise, so
    an element's values do not depend on the shape of the call.
    """
    k = complex(k)
    rho2 = np.asarray(rho2, dtype=np.float64)
    x = rho2.reshape(-1)
    coef = _series_coefficients(k)
    acc = np.empty((coef.shape[0], x.size))
    acc[:] = coef[:, -1:]
    for j in range(coef.shape[1] - 2, -1, -1):
        np.multiply(acc, x, out=acc)
        np.add(acc, coef[:, j:j + 1], out=acc)
    # Even rows are the polynomial parts of Re G, Im G, Re G'/rho and
    # Im G'/rho, odd rows their ln(rho) factors; then the line source's
    # 1/rho gradient singularity, -1/(2 pi rho^2).
    parts = acc[0::2] + np.reshape(log_rho, (1, -1)) * acc[1::2]
    parts[2] -= (1.0 / (2.0 * math.pi)) / x
    g = np.empty(x.size, dtype=np.complex128)
    dg = np.empty(x.size, dtype=np.complex128)
    g.real, g.imag, dg.real, dg.imag = parts

    far = np.flatnonzero(x > (SERIES_RADIUS / abs(k)) ** 2)
    if far.size:
        rho = np.sqrt(x[far])
        h0 = hankel1(0, k * rho)
        h1 = hankel1(1, k * rho)
        g[far] = 0.25j * h0
        dg[far] = (-0.25j * k * h1) / rho
    return g.reshape(rho2.shape), dg.reshape(rho2.shape)
