"""Spatial mode profiles and the residue entering the slab Green tensor.

The TM vector-potential profile of a converged mode has one exponential in
each cladding and two counter-decaying partials inside the film.  All field
quantities downstream (quantization weights, magnetic field means, the
resonant part of the Green tensor) are built from the same two-component
bracket ``(b_x(z), b_z(z))``; the full profile just multiplies it by the
in-plane phase ``exp(i*k_spp*x)``, and :func:`h_field_bracket_of` gives
its magnetic-type combination.  :func:`bracket_of` holds the bracket's
formulas, once: it returns the bracket of one mode as a function of depth,
``bracket_of(sol)(z)`` at one depth as at many.

``normalization`` evaluates, in closed form, the unconjugated pairing of the
profile with its transverse-flipped self, weighted by the local
permittivity.  This is the quantity whose reciprocal scales the pole
contribution of the Green tensor; it stays meaningful (complex) in the
presence of loss and gain, unlike an |u|^2 norm.
"""

from __future__ import annotations

import cmath
from typing import Callable, NamedTuple

from .dispersion import ModeSolution

__all__ = [
    "DegenerateResidue",
    "bracket_of",
    "h_field_bracket_of",
    "normalization",
    "GreenCoefficient",
    "green_coefficient",
    "green_tensor",
]


class DegenerateResidue(ValueError):
    """Refusal: the Green tensor's pole strength is numerically undefined."""


def bracket_of(sol: ModeSolution
               ) -> Callable[[float], tuple[complex, complex]]:
    """The two-component (x, z) profile bracket of ``sol`` as a function of z.

    Returns ``z -> (b_x, b_z)``, without exp(ikx), as Python complex numbers,
    not an array: the quadrature oracles call it once per integration node,
    where building an array would cost more than the arithmetic.  The
    per-mode factors of b_z are formed once, here, with the operands and
    order each has in a per-depth evaluation, so every value keeps the
    rounding it had when the factors were formed on each call.

    Tangential component and the magnetic-type combination are continuous
    across both interfaces by construction.
    """
    k = sol.k_spp
    nu0 = sol.nu0
    num = sol.num
    a = sol.amplitude
    pm = sol.parity.pm
    d = sol.geom.d
    lower = -1j * k / nu0
    film = a * (1j * k / num)
    upper = pm * (1j * k / nu0)
    exp = cmath.exp

    def bracket(z: float) -> tuple[complex, complex]:
        if z < 0.0:
            e = exp(nu0 * z)
            return e, lower * e
        if z <= d:
            e1 = exp(-num * z)
            e2 = exp(num * (z - d))
            return a * (e1 + pm * e2), film * (e1 - pm * e2)
        e = exp(-nu0 * (z - d))
        return pm * e, upper * e

    return bracket


def h_field_bracket_of(sol: ModeSolution) -> Callable[[float], complex]:
    """The magnetic-type bracket d(b_x)/dz - i k b_z of ``sol`` against z.

    Returns ``z -> complex``, as :func:`bracket_of` returns the profile:
    the per-mode factors are formed once, here, with the operands and order
    each has in a per-depth evaluation, so every value keeps the rounding it
    had when the factors were formed on each call.
    """
    k = sol.k_spp
    nu0 = sol.nu0
    num = sol.num
    a = sol.amplitude
    pm = sol.parity.pm
    d = sol.geom.d
    lower = nu0 - k * k / nu0
    film_down = -num + k * k / num
    film_up = pm * (num - k * k / num)
    upper = pm * (-nu0 + k * k / nu0)
    exp = cmath.exp

    def h_bracket(z: float) -> complex:
        if z < 0.0:
            return lower * exp(nu0 * z)
        if z <= d:
            return a * (film_down * exp(-num * z)
                        + film_up * exp(num * (z - d)))
        return upper * exp(-nu0 * (z - d))

    return h_bracket


def normalization(sol: ModeSolution) -> complex:
    """Closed-form permittivity-weighted self-pairing of the profile.

    Integrates eps(z) * (b_x^2 - b_z^2) over the whole z axis (no complex
    conjugation -- the pairing flips the sign of the transverse component
    instead, which reduces to the usual energy-like norm when all media are
    lossless).
    """
    k = sol.k_spp
    nu0 = sol.nu0
    num = sol.num
    pm = sol.parity.pm
    d = sol.geom.d
    a2 = sol.amplitude * sol.amplitude
    eps_d = sol.media.eps_d
    eps_m = sol.media.eps_m
    kk = k * k
    cladding = (eps_d / nu0) * (1.0 + kk / (nu0 * nu0))
    kk_num2 = kk / (num * num)
    direct = (1.0 + kk_num2) * (1.0 - cmath.exp(-2.0 * num * d)) / num
    cross = 2.0 * pm * d * (1.0 - kk_num2) * cmath.exp(-num * d)
    return cladding + eps_m * a2 * (direct + cross)


class GreenCoefficient(NamedTuple):
    """Pole strength of the resonant Green-tensor term.

    ``d_value`` multiplies ``exp(i*k_spp*|x - x'|)`` times the outer product
    of the profile brackets; ``n_prime`` is the normalization it came from.
    """

    d_value: complex
    n_prime: complex


def green_coefficient(sol: ModeSolution) -> GreenCoefficient:
    """Residue coefficient of the bound-mode pole.

    Equals ``-eps_m / (4 * N' * k_spp)`` where N' is :func:`normalization`;
    raises :class:`DegenerateResidue` if the denominator underflows (a mode
    sitting exactly on a normalization zero, e.g. at a parity degeneracy).
    """
    n_prime = normalization(sol)
    denom = 4.0 * n_prime * sol.k_spp
    if abs(denom) < 1e-30:
        raise DegenerateResidue(
            f"normalization * k_spp underflow ({denom!r}); "
            "pole strength undefined"
        )
    return GreenCoefficient(-sol.media.eps_m / denom, n_prime)


def green_tensor(sol: ModeSolution, r: tuple[float, float],
                 r_prime: tuple[float, float]
                 ) -> tuple[tuple[complex, complex], tuple[complex, complex]]:
    """Resonant (bound-mode) part of the Green tensor between two points.

    ``r`` and ``r_prime`` are ``(x, z)`` pairs; the result is the 2x2 block
    over the (x, z) components as two rows of Python complex numbers,
    ``g[i][j]``.  Symmetric under simultaneous swap and transpose
    (reciprocity).
    """
    coeff = green_coefficient(sol)
    x, z = r
    xp, zp = r_prime
    scale = -1j * coeff.d_value * cmath.exp(1j * sol.k_spp * abs(x - xp))
    bracket = bracket_of(sol)
    bx, bz = bracket(z)
    bx_p, bz_p = bracket(zp)
    return ((scale * (bx * bx_p), scale * (bx * bz_p)),
            (scale * (bz * bx_p), scale * (bz * bz_p)))
