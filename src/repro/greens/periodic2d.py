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

The kernel is the sum of two parts with their own helpers:

- :func:`mode_residual`, the one Kummer mode loop: the truncated mode
  sum minus its quasi-static asymptote, for any number of wavenumbers,
  sharing every k-independent intermediate. Its transcendental work runs
  on each argument's own shape: the mode factors ``cos(k_m dx)`` /
  ``sin(k_m dx)`` on the x-offsets, from the Chebyshev angle-addition
  recurrence seeded by :func:`mode_seed` (one cos/sin pair of
  transcendental passes total, four multiply-adds per further mode), the
  exponentials on ``|dz|``;
- :func:`log_remainder`, the closed-form lattice sum of the asymptotes,
  real and k-independent, which carries the line-source singularity.

:func:`periodic_green2d_pair` adds them (value and gradient, any number
of wavenumbers), and :func:`periodic_green2d` /
:func:`periodic_green2d_gradient` are its one-wavenumber cases.

Evanescent modes of a lossless medium run in real arithmetic. For real
``k`` and ``k_m > |k|``, ``gamma_m = j beta_m`` with ``beta_m > 0``, so
the mode's value, x-gradient and z-gradient terms are each ``j`` times a
real quantity: they accumulate in float64 with a real ``np.exp``, and
``j`` is applied once after the loop. Every ``m >= 1`` mode of the
lossless dielectric takes this path; the conductor (complex ``k``) and
any propagating mode keep the complex path. The path is chosen per
``(k, m)`` from the wavenumber alone. The z-gradient sums likewise
accumulate without their ``sign(dz)`` factor, which multiplies once at
the end (exact, since the sign is -1, 0 or 1).

The 2D assembly plan (:class:`repro.swm.plan.AssemblyPlan2D`) reads the
*total* kernel (``exclude_primary=False``) on its collocation pairs,
none of which has zero separation, so Hankel functions are needed only
at the near pairs, where the plan subtracts the free-space term to feed
its sub-segment quadrature. Its default evaluator tabulates the mode
residual per x-offset against ``|dz|``
(:mod:`repro.swm.fastkernel2d`, built by :func:`mode_residual` on the
``(nodes, offsets)`` grid) and adds :func:`log_remainder` exactly per
pair; :func:`periodic_green2d_pair` is the exact reference.

Lengths are dimensionless (micrometers in practice).
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ConfigurationError
from .freespace import green2d, green2d_radial_derivative

#: Euler-Mascheroni constant (for the small-argument Hankel expansion).
EULER_GAMMA = 0.5772156649015329


def _gamma_m(k: complex, km: float) -> complex:
    g = complex(np.sqrt(np.complex128(k * k - km * km)))
    if g.imag < 0.0:
        g = -g
    return g


def mode_seed(dx: np.ndarray, period: float
               ) -> tuple[np.ndarray, np.ndarray]:
    """``(cos b, sin b)`` of the fundamental mode phase ``b = 2 pi dx / L``.

    Seeds the angle-addition recurrence ``cos((m+1)b) = cos(mb) cos b -
    sin(mb) sin b`` (and the sine analog): every further mode costs four
    multiply-adds instead of a transcendental pass. The factors depend
    only on ``dx`` — in the batched assembly that is the shared pair
    x-offsets while ``dz`` carries the sample axis, so they are also
    built B times less often than the per-mode ``cos``/``sin`` they
    replace.
    """
    b = 2.0 * math.pi * dx / period
    return np.cos(b), np.sin(b)


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

    One pass of the Kummer mode loop serves every wavenumber in ``ks``
    *and* both the Green's function and its gradient, sharing each
    k-independent intermediate: the recurrence-built ``cos(k_m dx)`` /
    ``sin(k_m dx)`` mode factors (evaluated on ``dx``'s own shape, not
    the broadcast one — in the batched assembly ``dx`` holds the shared
    pair offsets while ``dz`` is ``(B, M)``), the quasi-static
    asymptotes ``exp(-k_m |dz|)``, the closed-form log remainder,
    ``rho`` and the zero-separation mask. Each wavenumber's sums are
    independent of the others, so a medium's result does not depend on
    which media share the call.

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
    rho = np.sqrt(dx * dx + dz * dz)
    zero = rho == 0.0
    any_zero = bool(np.any(zero))
    if any_zero and not exclude_primary:
        raise ConfigurationError(
            "periodic 2D kernel evaluated at zero separation without "
            "exclude_primary=True"
        )
    adz = np.abs(dz)
    lat = float(period)
    ks = list(ks)
    c1, s1 = mode_seed(dx, lat)
    residuals = mode_residual(c1, s1, adz, ks, lat, m_max)
    log_g, log_gx, log_gz = log_remainder(c1, s1, adz, lat, zero)
    sgn = np.sign(dz)
    safe_rho = np.where(zero, 1.0, rho)

    results = []
    for kk, (modes, gx, gz) in zip(ks, residuals):
        g = modes + log_g
        gx = gx + log_gx
        gz = (gz + log_gz) * sgn
        if exclude_primary:
            g = g - green2d(safe_rho, kk)
            if any_zero:
                limit = (-math.log(2.0 * math.pi / lat) / (2.0 * math.pi)
                         + (np.log(kk / 2.0) + EULER_GAMMA) / (2.0 * math.pi)
                         - 0.25j)
                g = np.where(zero, modes + limit, g)
            dgdr_rho = green2d_radial_derivative(safe_rho, kk) / safe_rho
            gx = np.where(zero, 0.0, gx - dgdr_rho * dx)
            gz = np.where(zero, 0.0, gz - dgdr_rho * dz)
        results.append((g, gx, gz))
    return results


def mode_residual(c1: np.ndarray, s1: np.ndarray, adz: np.ndarray,
                  ks: "Sequence[complex]", period: float, m_max: int
                  ) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The Kummer mode residual: the truncated mode sum minus its
    quasi-static asymptote, the part of the kernel the closed-form
    :func:`log_remainder` does not carry.

    ``(c1, s1)`` are the mode seeds of :func:`mode_seed` at the x-offsets
    and ``adz = |dz|``; the shapes broadcast, and the transcendental work
    runs on each argument's own shape (``m_max`` passes over ``adz`` per
    medium, one seed pass over the offsets). Returns one ``(g, gx, gz)``
    triple per wavenumber, the z-gradient without its ``sign(dz)``
    factor. Each medium's sums are independent of the others'.
    """
    shape = np.broadcast_shapes(c1.shape, adz.shape)

    # Per medium: complex sums of the value, x-gradient and z-gradient
    # (the last without its common j sign(dz) factor), and real sums of
    # the evanescent lossless modes, each j times its complex analog.
    sums = []
    for kk in ks:
        g0 = _gamma_m(kk, 0.0)
        eg0 = np.exp(1j * g0 * adz)
        t = np.zeros(shape, dtype=np.complex128)
        t += eg0 / g0
        gz = np.zeros(shape, dtype=np.complex128)
        gz += eg0
        sums.append((t, np.zeros(shape, dtype=np.complex128), gz,
                     np.zeros(shape), np.zeros(shape), np.zeros(shape)))

    c, s = c1, s1
    for m in range(1, m_max + 1):
        km = 2.0 * math.pi * m / period
        em = np.exp(-km * adz)
        ek = em / km
        asym = None
        gc = 2.0 * c
        ax = -2.0 * km * s
        for kk, (t, gx, gz, tr, gxr, gzr) in zip(ks, sums):
            gm = _gamma_m(kk, km)
            if kk.imag == 0.0 and km > abs(kk):
                # gamma_m = j beta: propag - asym = j (ek - eb / beta).
                beta = gm.imag
                eb = np.exp(-beta * adz)
                diff = ek - eb / beta
                tr += gc * diff
                gxr += ax * diff
                gzr += gc * (eb - em)
            else:
                if asym is None:
                    asym = em / (1j * km)
                egm = np.exp(1j * gm * adz)
                diff = egm / gm - asym
                t += gc * diff
                gx += ax * diff
                gz += gc * (egm - em)
        c, s = c * c1 - s * s1, s * c1 + c * s1

    # The sums are named arrays when multiplied by the complex j/2L, so
    # numpy never elides that multiply into an in-place one (which can
    # round differently): a value does not depend on the array's size.
    half = 0.5 / period
    out = []
    for t, gx, gz, tr, gxr, gzr in sums:
        t += 1j * tr
        gx += 1j * gxr
        out.append((t * (1j * half), gx * (1j * half), (gz + gzr) * -half))
    return out


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
