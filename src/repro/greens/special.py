"""Special functions needed by the periodic Green's function machinery.

The Ewald representation requires the complementary error function of a
*complex* argument, which ``scipy.special.erfc`` does not provide. We build
it from the Faddeeva function ``w(z) = exp(-z^2) * erfc(-j*z)``
(``scipy.special.wofz``), which is accurate over the whole complex plane:

    erfc(z) = exp(-z^2) * w(j*z)

For ``Re(z) < 0`` the direct formula overflows (``exp(-z^2)`` is huge while
``w`` is tiny), so we use the reflection ``erfc(z) = 2 - erfc(-z)``.
"""

from __future__ import annotations

import numpy as np
from scipy.special import wofz


def erfc_complex(z: np.ndarray | complex) -> np.ndarray:
    """Complementary error function for complex arguments.

    Vectorized over numpy arrays. Matches ``scipy.special.erfc`` on the
    real axis and satisfies ``erfc(z) + erfc(-z) == 2`` everywhere.
    """
    z = np.asarray(z, dtype=np.complex128)
    out = np.empty_like(z)
    neg = z.real < 0.0
    pos = ~neg
    zp = z[pos]
    out[pos] = np.exp(-zp * zp) * wofz(1j * zp)
    zn = -z[neg]
    out[neg] = 2.0 - np.exp(-zn * zn) * wofz(1j * zn)
    return out


def _scaled_pair_terms(r: np.ndarray, k: complex, split: float):
    """The two terms ``exp(+-j*k*r) * erfc(r*E +- c)`` of
    :func:`erfc_scaled_pair` (``c = j*k/(2E)``), their shared exponent
    and ``r``'s shape: one Faddeeva pass per term, which the value and
    the derivative both combine."""
    shape = np.shape(r)
    r = np.atleast_1d(np.asarray(r, dtype=np.float64))
    e = float(split)
    c = 1j * k / (2.0 * e)
    shared = k * k / (4.0 * e * e) - (r * e) ** 2

    def _term(sign: float) -> np.ndarray:
        # exp(sign*j*k*r) * erfc(r*E + sign*c)
        b = r * e + sign * c
        out = np.empty(b.shape, dtype=np.complex128)
        neg = b.real < 0.0
        pos = ~neg
        out[pos] = np.exp(shared[pos]) * wofz(1j * b[pos])
        # Reflection: exp(a)*erfc(b) = 2*exp(a) - exp(a)*erfc(-b)
        #            = 2*exp(a) - exp(a - b^2) * w(-j*b)
        if np.any(neg):
            a = sign * 1j * k * r[neg]
            out[neg] = 2.0 * np.exp(a) - np.exp(shared[neg]) * wofz(-1j * b[neg])
        return out

    return _term(1.0), _term(-1.0), shared, shape


def erfc_scaled_pair(r: np.ndarray, k: complex, split: float) -> np.ndarray:
    """The Ewald *spatial*-sum bracket, computed overflow-safely.

    Returns ``f(r) = exp(j*k*r) * erfc(r*E + j*k/(2E))
    + exp(-j*k*r) * erfc(r*E - j*k/(2E))`` for ``r >= 0`` and splitting
    parameter ``E = split``. The two terms are individually enormous when
    ``Im(k)`` is large; we evaluate each as
    ``exp(a) * erfc(b) = exp(a - b^2) * w(j*b)`` with the exponents
    combined analytically, which is finite whenever the *product* is.

    Notes
    -----
    With ``b = r*E + j*k/(2E)`` we have
    ``a - b^2 = j*k*r - (r*E)^2 + k^2/(4E^2) - j*k*r = k^2/(4E^2) - r^2E^2``
    so both terms share the same combined exponent
    ``exp(k^2/(4E^2) - r^2 E^2)``; only the Faddeeva factor differs.
    For ``Re(b) < 0`` we apply the reflection formula term-wise.
    """
    plus, minus, _, shape = _scaled_pair_terms(r, k, split)
    return (plus + minus).reshape(shape)


def erfc_scaled_pair_with_derivative(r: np.ndarray, k: complex,
                                     split: float
                                     ) -> tuple[np.ndarray, np.ndarray]:
    """``(f, f')`` of :func:`erfc_scaled_pair` from one Faddeeva pass per
    term (the value is bit-identical to :func:`erfc_scaled_pair`'s).

    The derivative, for the gradient of the Ewald spatial sum, is
    analytically::

        f'(r) = j*k * [exp(j*k*r)*erfc(r*E + c) - exp(-j*k*r)*erfc(r*E - c)]
                - (4E/sqrt(pi)) * exp(k^2/(4E^2) - r^2*E^2)

    where ``c = j*k/(2E)`` (the two Gaussian boundary terms combine).
    """
    plus, minus, shared, shape = _scaled_pair_terms(r, k, split)
    e = float(split)
    # diff is a named array, so the complex multiply below is never
    # elided into an in-place one (which can round differently).
    diff = plus - minus
    gauss = (4.0 * e / np.sqrt(np.pi)) * np.exp(shared)
    return ((plus + minus).reshape(shape),
            (1j * k * diff - gauss).reshape(shape))


def _exp_erfc(a: np.ndarray, b: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Overflow-safe ``exp(a) * erfc(b)`` given ``shared = a - b**2``.

    The identity ``exp(a)*erfc(b) = exp(a - b^2) * w(j*b)`` is stable for
    ``Re(b) >= 0``; for ``Re(b) < 0`` the reflection
    ``exp(a)*erfc(b) = 2*exp(a) - exp(a - b^2)*w(-j*b)`` is used, which is
    safe because in every Ewald use-case ``Re(a) <= 0`` on that branch.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    shared = np.asarray(shared, dtype=np.complex128)
    a, b, shared = np.broadcast_arrays(a, b, shared)
    out = np.empty(b.shape, dtype=np.complex128)
    neg = b.real < 0.0
    pos = ~neg
    out[pos] = np.exp(shared[pos]) * wofz(1j * b[pos])
    if np.any(neg):
        out[neg] = 2.0 * np.exp(a[neg]) - np.exp(shared[neg]) * wofz(-1j * b[neg])
    return out


def _spectral_bracket_terms(x: np.ndarray, q: complex, split: float):
    """The two terms ``e^{+-jqx} erfc(-+xE - jq/(2E))`` of
    :func:`ewald_spectral_brackets` and ``x``'s shape, one Faddeeva pass
    each."""
    shape = np.shape(x)
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    e = float(split)
    c = 1j * q / (2.0 * e)
    shared = q * q / (4.0 * e * e) - (x * e) ** 2
    t1 = _exp_erfc(1j * q * x, -x * e - c, shared)
    t2 = _exp_erfc(-1j * q * x, x * e - c, shared)
    return t1, t2, shape


def ewald_spectral_brackets(x: np.ndarray, q: complex, split: float
                            ) -> tuple[np.ndarray, np.ndarray]:
    """The Ewald *spectral*-sum bracket and its difference variant, from
    one Faddeeva pass per term.

    Returns ``(plus, minus)`` with ``e^{jqx} erfc(-xE - jq/(2E)) +- e^{-jqx}
    erfc(xE - jq/(2E))`` for real ``x`` (any sign) and mode wavenumber
    ``q`` (``Im q >= 0``). Both terms share the combined exponent
    ``q^2/(4E^2) - x^2 E^2``.

    ``d/dx plus = j*q * minus`` (the Gaussian boundary terms cancel
    exactly), which gives the z-part of the Ewald gradient in closed
    form. Limits used in validation: E -> 0 gives ``plus = 0``; E ->
    infinity gives ``plus = 2 e^{j q |x|}`` (the exact spectral
    representation's kernel).
    """
    t1, t2, shape = _spectral_bracket_terms(x, q, split)
    return (t1 + t2).reshape(shape), (t1 - t2).reshape(shape)
