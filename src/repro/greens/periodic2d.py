"""1D-periodic Green's function for the 2D scalar problem (Fig. 6's 2D SWM).

A row of 2D line sources with period ``L`` along x. Exact spectral
representation::

    g(dx, dz) = (j / (2 L)) * sum_m  exp(j k_m dx + j gamma_m |dz|) / gamma_m

with ``k_m = 2 pi m / L`` and ``gamma_m = sqrt(k^2 - k_m^2)``
(``Im gamma >= 0``). On the surface (``dz ~ 0``) the series converges only
like ``1/|m|``; we accelerate it with a Kummer transformation, subtracting
the quasi-static asymptote ``exp(-|k_m| |dz|) / (j |k_m|)`` whose lattice
sum has the closed form::

    sum_{m>=1} exp(-m a) cos(m b) / m = -(1/2) ln(1 - 2 exp(-a) cos(b) + exp(-2a))

(``a = 2 pi |dz| / L``, ``b = 2 pi dx / L``). The residual terms decay like
``1/|m|^3`` even at ``dz = 0``. The closed-form log term carries the
free-space ``-(1/2 pi) ln(rho)`` singularity, which is what the self-term
regularization subtracts.

The kernel is the sum of two parts:

- the *mode residual*, the truncated mode sum minus its quasi-static
  asymptote. Each mode ``m >= 1`` is a product of a per-mode *node
  term* in ``|dz|`` (:func:`mode_terms`; :func:`zero_mode` for ``m =
  0``) and a k-independent *offset factor* in ``dx``
  (:func:`mode_factors`: ``2 cos(m b)`` and ``-2 k_m sin(m b)``, from
  the Chebyshev angle-addition recurrence seeded by :func:`mode_seed`,
  four multiply-adds per mode after one cos/sin pass). The exact sum
  :func:`periodic_green2d_pair` contracts the mode axis in a loop on
  its pairs; a table build (:mod:`repro.swm.fastkernel2d`) contracts it
  with one matrix product per quantity on its ``(nodes, offsets)``
  grid. Both read the same node terms and factors, so there is one
  definition of ``gamma_m``, of the evanescent branch and of the
  asymptote subtraction;
- :func:`log_remainder`, the closed-form lattice sum of the asymptotes,
  real and k-independent, which carries the line-source singularity.

:func:`periodic_green2d_pair` adds them (value and gradient, any number
of wavenumbers), and :func:`periodic_green2d` /
:func:`periodic_green2d_gradient` are its one-wavenumber cases.

Evanescent modes of a lossless medium run in real arithmetic. For real
``k`` and ``k_m > |k|``, ``gamma_m = j beta_m`` with ``beta_m > 0``, so
the mode's value and x-gradient node term is ``j`` times a real
quantity and its z-gradient term is real: both come from a real
``np.exp``. Every ``m >= 1`` mode of the lossless dielectric takes this
branch; the conductor (complex ``k``) and any propagating mode keep the
complex one. The branch is chosen per ``(k, m)`` from the wavenumber
alone. The z-gradient sums accumulate without their ``sign(dz)``
factor, which multiplies once at the end (exact, since the sign is -1,
0 or 1).

The 2D assembly plan (:class:`repro.swm.plan.AssemblyPlan2D`) reads the
*total* kernel (``exclude_primary=False``) on its collocation pairs,
none of which has zero separation, so the free-space term is needed
only at the near pairs, where the plan subtracts it to feed its
sub-segment quadrature. Its default evaluator tabulates the mode
residual per x-offset against ``|dz|`` and adds :func:`log_remainder`
exactly per pair; :func:`periodic_green2d_pair` is the exact reference.
Both subtract the free-space term with the fused small-argument
evaluator :func:`~repro.greens.freespace.green2d_and_gradient` (series
inside ``|k rho| <= 2.5``, within 1e-13 of ``hankel1``; ``hankel1``
beyond).

Lengths are dimensionless (micrometers in practice).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from .freespace import EULER_GAMMA, green2d, green2d_and_gradient


def _gamma(k: complex, km):
    """``gamma_m = sqrt(k^2 - k_m^2)`` with ``Im gamma_m >= 0``,
    elementwise over the mode wavenumbers ``km``."""
    g = np.sqrt(np.complex128(k * k) - km * km)
    return np.where(g.imag < 0.0, -g, g)


def mode_seed(dx: np.ndarray, period: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(cos b, sin b)`` of the fundamental mode phase ``b = 2 pi dx / L``.

    Seeds the angle-addition recurrence ``cos((m+1)b) = cos(mb) cos b -
    sin(mb) sin b`` (and the sine analog) of :func:`mode_factors`: every
    further mode costs four multiply-adds instead of a transcendental
    pass. The factors depend only on ``dx`` — in the batched assembly
    that is the shared pair x-offsets while ``dz`` carries the sample
    axis, so they are also built B times less often than the per-mode
    ``cos``/``sin`` they replace.
    """
    b = 2.0 * math.pi * dx / period
    return np.cos(b), np.sin(b)


def mode_wavenumbers(period: float, m_max: int) -> np.ndarray:
    """``k_m = 2 pi m / L`` of the modes ``m = 1 .. m_max``."""
    return 2.0 * math.pi * np.arange(1, m_max + 1) / period


def mode_factors(c1: np.ndarray, s1: np.ndarray, km: np.ndarray):
    """Yield each mode's k-independent offset factors ``(2 cos(m b),
    -2 k_m sin(m b))``, ``m = 1, 2, ...`` (one per entry of ``km``), on
    the shape of the seeds ``(c1, s1)`` of :func:`mode_seed`.

    ``2 cos(m b)`` weights a mode's value and z-gradient node terms,
    ``-2 k_m sin(m b)`` its x-gradient (the ``+m`` and ``-m`` modes
    combined; :func:`zero_mode` carries ``m = 0`` with weight 1).
    """
    c, s = c1, s1
    for kk in km:
        yield 2.0 * c, -2.0 * kk * s
        c, s = c * c1 - s * s1, s * c1 + c * s1


def zero_mode(adz: np.ndarray, k: complex) -> tuple[np.ndarray, np.ndarray]:
    """Node terms of the ``m = 0`` mode, which has no asymptote:
    ``(e^{j gamma_0 |dz|} / gamma_0, e^{j gamma_0 |dz|})``."""
    g0 = _gamma(k, 0.0)
    eg0 = np.exp(1j * g0 * adz)
    return eg0 / g0, eg0


def mode_terms(adz: np.ndarray, ks: "Sequence[complex]", km: np.ndarray
               ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-mode node terms of the Kummer residual at ``|dz| = adz``.

    ``km`` is a 1-D array of increasing mode wavenumbers on the last
    axis, which ``adz`` broadcasts against (a trailing length-1 axis).
    Returns one ``(d, e)`` pair per wavenumber in ``ks``::

        d = e^{j gamma_m |dz|} / gamma_m - e^{-k_m |dz|} / (j k_m)
        e = e^{j gamma_m |dz|} - e^{-k_m |dz|}

    the mode minus its quasi-static asymptote (weighting the value and
    x-gradient) and its ``|dz|`` derivative over ``j`` (the z-gradient,
    without ``sign(dz)``). The evanescent modes of a lossless medium
    (real ``k``, ``k_m > |k|``: the tail of ``km``) take the real
    branch ``d = j (e^{-k_m |dz|} / k_m - e^{-beta_m |dz|} / beta_m)``,
    ``e = e^{-beta_m |dz|} - e^{-k_m |dz|}``. A medium's terms do not
    depend on the other media of the call.
    """
    km = np.asarray(km, dtype=np.float64)
    em = np.exp(-km * adz)
    terms = []
    for k in ks:
        k = complex(k)
        cut = (km.size if k.imag != 0.0
               else int(np.count_nonzero(km <= abs(k))))
        d = np.empty(em.shape, dtype=np.complex128)
        e = np.empty(em.shape, dtype=np.complex128)
        if cut:
            kp, ep = km[:cut], em[..., :cut]
            gm = _gamma(k, kp)
            egm = np.exp(1j * gm * adz)
            d[..., :cut] = egm / gm - ep / (1j * kp)
            e[..., :cut] = egm - ep
        if cut < km.size:
            kt, et = km[cut:], em[..., cut:]
            beta = np.sqrt(kt * kt - k.real * k.real)
            eb = np.exp(-beta * adz)
            diff = et / kt - eb / beta
            d[..., cut:] = 1j * diff
            e[..., cut:] = eb - et
        terms.append((d, e))
    return terms


def periodic_green2d(dx: np.ndarray, dz: np.ndarray, k: complex,
                     period: float, m_max: int = 64,
                     exclude_primary: bool = False) -> np.ndarray:
    """1D-periodic 2D Green's function at separations ``(dx, dz)``.

    With ``exclude_primary=True`` the free-space line-source singularity
    ``(j/4) H0(k rho)`` is subtracted; the result is then smooth at zero
    separation, where the analytic limit is returned. The one-wavenumber
    value of :func:`periodic_green2d_pair`.
    """
    return periodic_green2d_pair(dx, dz, (k,), period, m_max,
                                 exclude_primary)[0][0]


def periodic_green2d_gradient(dx: np.ndarray, dz: np.ndarray, k: complex,
                              period: float, m_max: int = 64,
                              exclude_primary: bool = False
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Gradient ``(d/d dx, d/d dz)`` of :func:`periodic_green2d`.

    At ``dz == 0`` the ``|dz|``-type kinks are resolved in the
    principal-value sense (``sign(0) = 0``), which is the correct
    interpretation for the double-layer MOM kernel. With
    ``exclude_primary=True``, the free-space gradient is subtracted and
    the zero-separation value is the PV limit 0. The one-wavenumber
    gradient of :func:`periodic_green2d_pair`.
    """
    _, gx, gz = periodic_green2d_pair(dx, dz, (k,), period, m_max,
                                      exclude_primary)[0]
    return gx, gz


def periodic_green2d_pair(dx: np.ndarray, dz: np.ndarray,
                          ks: "Sequence[complex]", period: float,
                          m_max: int = 64, exclude_primary: bool = False
                          ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Value + gradient of the periodic kernel for several media.

    One pass over the modes serves every wavenumber in ``ks`` *and*
    both the Green's function and its gradient, sharing each
    k-independent intermediate: the offset factors of
    :func:`mode_factors` (evaluated on ``dx``'s own shape, not the
    broadcast one — in the batched assembly ``dx`` holds the shared
    pair offsets while ``dz`` is ``(B, M)``), the asymptotes
    ``exp(-k_m |dz|)``, the closed-form log remainder, ``rho^2``,
    ``ln rho`` and the zero-separation mask. The mode axis is contracted
    one mode at a time. Each wavenumber's sums are independent of the
    others, so a medium's result does not depend on which media share
    the call.

    Returns a list of ``(g, gx, gz)`` triples aligned with ``ks``.
    Raises :class:`~repro.errors.ConfigurationError` for a nonpositive
    period, ``m_max < 1``, or a zero separation without
    ``exclude_primary=True``.
    """
    if period <= 0.0:
        raise ConfigurationError(f"period must be positive, got {period}")
    if m_max < 1:
        raise ConfigurationError(f"m_max must be >= 1, got {m_max}")
    dx = np.asarray(dx, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    rho2 = dx * dx + dz * dz
    zero = rho2 == 0.0
    any_zero = bool(np.any(zero))
    if any_zero and not exclude_primary:
        raise ConfigurationError(
            "periodic 2D kernel evaluated at zero separation without "
            "exclude_primary=True"
        )
    adz = np.abs(dz)
    lat = float(period)
    ks = [complex(k) for k in ks]
    c1, s1 = mode_seed(dx, lat)
    shape = rho2.shape

    # Per medium: complex sums of the value, x-gradient and z-gradient
    # node terms (the last without its common j sign(dz) factor).
    sums = []
    for kk in ks:
        d0, e0 = zero_mode(adz, kk)
        t = np.zeros(shape, dtype=np.complex128)
        t += d0
        gz = np.zeros(shape, dtype=np.complex128)
        gz += e0
        sums.append((t, np.zeros(shape, dtype=np.complex128), gz))
    km = mode_wavenumbers(lat, m_max)
    adz_m = adz[..., None]
    for m, (cf, sf) in enumerate(mode_factors(c1, s1, km)):
        for (t, gx, gz), (d, e) in zip(sums,
                                       mode_terms(adz_m, ks, km[m:m + 1])):
            d, e = d[..., 0], e[..., 0]
            t += cf * d
            gx += sf * d
            gz += cf * e

    log_g, log_gx, log_gz = log_remainder(c1, s1, adz, lat, zero)
    sgn = np.sign(dz)
    if exclude_primary:
        safe_rho2 = np.where(zero, 1.0, rho2)
        log_rho = 0.5 * np.log(safe_rho2)

    # The sums are named arrays when multiplied by the complex j/2L, so
    # numpy never elides that multiply into an in-place one (which can
    # round differently): a value does not depend on the array's size.
    half = 0.5 / lat
    results = []
    for kk, (t, gx, gz) in zip(ks, sums):
        modes = t * (1j * half)
        g = modes + log_g
        gx = gx * (1j * half) + log_gx
        gz = (gz * -half + log_gz) * sgn
        if exclude_primary:
            g0, dg0 = green2d_and_gradient(safe_rho2, log_rho, kk)
            g = g - g0
            if any_zero:
                limit = (-math.log(2.0 * math.pi / lat) / (2.0 * math.pi)
                         + (np.log(kk / 2.0) + EULER_GAMMA) / (2.0 * math.pi)
                         - 0.25j)
                g = np.where(zero, modes + limit, g)
            gx = np.where(zero, 0.0, gx - dg0 * dx)
            gz = np.where(zero, 0.0, gz - dg0 * dz)
        results.append((g, gx, gz))
    return results


def log_remainder(c1: np.ndarray, s1: np.ndarray, adz: np.ndarray,
                  period: float, zero: np.ndarray | None = None
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form Kummer remainder and its gradient, in real arithmetic.

    ``(j/2L) sum_{m!=0} e^{j k_m dx} e^{-|k_m||dz|}/(j |k_m|) =
    -(1/4pi) ln(1 - 2 e^{-a} cos(b) + e^{-2a})``, with ``a = 2 pi |dz| /
    L`` and the mode seeds ``(c1, s1) = (cos b, sin b)``. It is
    k-independent and carries the line-source singularity. Returns
    ``(g, gx, gz)``, the z-gradient without its ``sign(dz)`` factor;
    entries where ``zero`` is set (zero separation) are finite
    placeholders the caller replaces.
    """
    a = 2.0 * math.pi * adz / period
    ea = np.exp(-a)
    d_arg = 1.0 - 2.0 * ea * c1 + ea * ea
    if zero is not None:
        d_arg = np.where(zero, 1.0, d_arg)
    scale = 2.0 * math.pi / period
    log_g = -np.log(d_arg) / (4.0 * math.pi)
    log_gx = -(2.0 * ea * s1 * scale) / (4.0 * math.pi * d_arg)
    log_gz = -((2.0 * ea * c1 - 2.0 * ea * ea) * scale) / (4.0 * math.pi
                                                          * d_arg)
    return log_g, log_gx, log_gz


def periodic_green2d_direct(dx: np.ndarray, dz: np.ndarray, k: complex,
                            period: float, n_images: int = 200) -> np.ndarray:
    """Brute-force Hankel image sum (reference; requires ``Im k > 0``)."""
    if complex(k).imag <= 0.0:
        raise ConfigurationError(
            "direct image summation requires a lossy wavenumber (Im k > 0)"
        )
    dx = np.asarray(dx, dtype=np.float64)
    dz = np.asarray(dz, dtype=np.float64)
    dx, dz = np.broadcast_arrays(dx, dz)
    total = np.zeros(dx.shape, dtype=np.complex128)
    for p in range(-n_images, n_images + 1):
        rho = np.sqrt((dx - p * period) ** 2 + dz * dz)
        total += green2d(rho, k)
    return total
