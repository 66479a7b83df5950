"""Quantization weights and commutation checks for propagating slab modes.

Launching the quantized mode along +x or -x with Langevin noise sources in
the lossy/amplifying media yields ladder operators whose commutators close
only if the noise-overlap weight (``beta_prime``) and the gain/loss overlap
weight (``gamma_prime``) agree.  Both reduce to the same pair of region
overlap integrals of |bracket|^2, evaluated here in closed form:

    T_cladding = (1 + |k|^2/|nu0|^2) / Re(nu0)            (both half spaces)
    T_film     = |A|^2 [ (1 + |k|^2/|num|^2) (1 - e^{-2 Re(num) d})/Re(num)
                         + pm (1 - |k|^2/|num|^2) 2 d e^{-Re(num) d}
                           * sin(Im(num) d)/(Im(num) d) ]

The film cross term is evaluated through sin(x)/x so it passes smoothly
through Im(num) -> 0 (real decay constants) without any regularization.

Sign conventions: the noise weight carries |Im eps| (a variance), whereas
gamma_prime and the Green-function overlap identity carry signed Im eps.
The commutation ratio :func:`ccr_check` weights the overlaps with |Im eps|.
The residue |D|^2 and the bracket profile cancel from that identity, so
:func:`green_identity_check` compares gamma_prime times the x-overlap.
"""

from __future__ import annotations

import cmath
import math

from . import oracles
from .media import EPS0, HBAR, MediumSet
from .dispersion import ModeSolution

__all__ = [
    "SAME_DIRECTION",
    "CROSS_DIRECTION",
    "overlap_terms",
    "beta_prime",
    "gamma_prime",
    "excess_noise_factor",
    "ThresholdCancellation",
    "ccr_check",
    "commutator",
    "commutator_numeric",
    "green_identity_check",
]

SAME_DIRECTION = "same_direction"
CROSS_DIRECTION = "cross_direction"

# the largest excess-noise factor at which green_identity_check compares:
# its relative error is ~3e-16 times the factor, so 100x below its 1e-6 gate
_NOISE_FACTOR_MAX = 3e7


class ThresholdCancellation(ValueError):
    """Refusal: gamma_prime cancels too far for the comparison to resolve."""


def _sinc(x: float) -> float:
    # sin(x)/x, series below 1e-3 where the direct quotient loses digits
    if abs(x) < 1e-3:
        x2 = x * x
        return 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return math.sin(x) / x


def overlap_terms(sol: ModeSolution) -> tuple[float, float]:
    """Region integrals of |bracket|^2: (both claddings, film).

    These are the only two geometric quantities entering beta_prime and
    gamma_prime; sharing a single code path makes their ratio exact.
    """
    nu0 = sol.nu0
    num = sol.num
    k2 = abs(sol.k_spp) ** 2
    a0 = nu0.real
    am = num.real
    bm = num.imag
    d = sol.geom.d
    t_clad = (1.0 + k2 / abs(nu0) ** 2) / a0
    amp2 = abs(sol.amplitude) ** 2
    k2_num2 = k2 / abs(num) ** 2
    direct = (1.0 + k2_num2) * (-math.expm1(-2.0 * am * d)) / am
    cross = (sol.parity.pm * (1.0 - k2_num2)
             * 2.0 * d * math.exp(-am * d) * _sinc(bm * d))
    t_film = amp2 * (direct + cross)
    return t_clad, t_film


def beta_prime(sol: ModeSolution) -> float:
    """Noise-overlap weight: integral of |alpha(z)| |bracket(z)|^2 over z.

    Each medium's Langevin noise amplitude ``2*hbar*omega^2*eps0*|Im eps|``
    weights its own region: a magnitude, since the noise variance is
    insensitive to whether the medium absorbs or amplifies.  Real and
    strictly positive for any bound mode with at least one non-transparent
    medium.
    """
    return _noise_weight(sol.media, overlap_terms(sol))


def gamma_prime(sol: ModeSolution) -> float:
    """Gain/loss overlap weight: integral of Im eps(z) |bracket(z)|^2.

    The cladding term carries Im(eps_d) and the film term Im(eps_m), signed:
    each medium weights its own region, the only assignment for which
    :func:`ccr_check`, which weights the same regions with |Im eps|, closes.
    """
    media = sol.media
    return _loss_weight(media.eps_d.imag, media.eps_m.imag, overlap_terms(sol))


def excess_noise_factor(sol: ModeSolution) -> float:
    """Excess-noise factor of the launched mode, from one overlap_terms call.

    ``F = (|Im eps_d| T_clad + |Im eps_m| T_film) / |gamma_prime|``, with
    the region integrals of :func:`overlap_terms`; it equals
    ``beta_prime/(2 hbar eps0 omega^2 |gamma_prime|)``, the noise the
    mode's sources add per unit of net gain or loss.  It is at least 1,
    equal to 1 when one medium alone absorbs or amplifies, and grows
    without bound at the loss-compensation threshold, where cladding gain
    cancels the metal's loss in gamma_prime; so it also measures the
    conditioning of every comparison whose closed side is gamma_prime.
    ``inf`` where gamma_prime is 0.
    """
    return _excess_noise(sol.media, overlap_terms(sol))


def _excess_noise(media: MediumSet, terms: tuple[float, float]) -> float:
    # the |Im eps|-weighted overlaps over the signed ones
    gamma = abs(_loss_weight(media.eps_d.imag, media.eps_m.imag, terms))
    if gamma == 0.0:
        return math.inf
    return _loss_weight(abs(media.eps_d.imag), abs(media.eps_m.imag),
                        terms) / gamma


def _noise_weight(media: MediumSet, terms: tuple[float, float]) -> float:
    # each medium's noise amplitude weights its own region's overlap
    scale = 2.0 * HBAR * media.omega**2 * EPS0
    return _loss_weight(scale * abs(media.eps_d.imag),
                        scale * abs(media.eps_m.imag), terms)


def _loss_weight(w_d: float, w_m: float,
                 terms: tuple[float, float]) -> float:
    # each medium's weight (signed or |Im eps|, or its noise amplitude)
    # weights its own region's overlap
    t_clad, t_film = terms
    return w_d * t_clad + w_m * t_film


def _launch_weight(media: MediumSet, terms: tuple[float, float]) -> float:
    # the noise weight, which the launched-mode commutators divide by; it is
    # 0 only where neither medium absorbs or amplifies, and refused there
    beta = _noise_weight(media, terms)
    if beta == 0.0:
        raise ValueError("beta_prime = 0: a mode whose media neither absorb "
                         "nor amplify has no launch normalization")
    return beta


def ccr_check(sol: ModeSolution) -> float:
    """Equal-point commutator of the launched mode operator.

    Returns beta_prime / (2 hbar eps0 omega^2 gamma_prime) with gamma_prime
    weighted by |Im eps| instead of signed Im eps.  The overlap terms are
    taken once and weighted by the helpers those two functions use, by
    ``2 hbar eps0 omega^2 |Im eps|`` and by ``|Im eps|``, so the ratio is 1
    by construction, regardless of loss or gain: it tests the rounding of
    that assembly only, not the overlap terms, the mode or the residue ``D``.
    Raises ``ValueError`` where beta_prime is 0 (transparent media).
    """
    media = sol.media
    terms = overlap_terms(sol)
    beta = _launch_weight(media, terms)
    gamma = _loss_weight(abs(media.eps_d.imag), abs(media.eps_m.imag), terms)
    return beta / (2.0 * HBAR * EPS0 * media.omega**2 * gamma)


# ---------------------------------------------------------------------------
# spatial ladder-operator commutators
# ---------------------------------------------------------------------------

def commutator(kind: str, x: float, x_prime: float,
               sol: ModeSolution) -> complex:
    """Closed-form spatial commutator kernel (delta(omega-omega') factored out).

    ``same_direction``:  [a_+(x), a_+^dag(x')] for co-propagating operators,
    equal to exp(i Re(k) (x-x') - Im(k)|x-x'|); unity at coincident points.

    ``cross_direction``: [a_+(x), a_-^dag(x')], nonzero only for x > x'
    (the only sources both operators share), equal to
    (2 Im(k)/Re(k)) e^{-Im(k)(x-x')} sin(Re(k)(x-x')).
    """
    k = sol.k_spp
    delta = x - x_prime
    if kind == SAME_DIRECTION:
        return cmath.exp(complex(-k.imag * abs(delta), k.real * delta))
    if kind == CROSS_DIRECTION:
        if delta <= 0.0:
            return 0j
        return complex((2.0 * k.imag / k.real) * math.exp(-k.imag * delta)
                       * math.sin(k.real * delta))
    raise ValueError(f"unknown commutator kind {kind!r}")


def commutator_numeric(kind: str, x: float, x_prime: float,
                       sol: ModeSolution,
                       z_terms: tuple[float, float]) -> complex:
    """Commutator from the defining source integrals, by quadrature.

    ``z_terms`` are the mode's region integrals of |bracket|^2 by
    quadrature, ``oracles.weighted_abs2_quadrature(sol)``; they are weighted
    here with the noise amplitudes, as :func:`beta_prime` weights the closed
    forms.  The x integral over the shared source region is evaluated
    numerically: for ``same_direction`` it is the semi-infinite tail
    ``oracles.signed_tail_integral(k.imag)`` (for an amplified mode the
    integral on the reflected ray, i.e. the analytic continuation the
    closed form represents); ``cross_direction`` integrates its finite
    region.  Used to cross-check :func:`commutator`.  Raises ``ValueError``
    where beta_prime is 0, as :func:`ccr_check` does, before the x-tail is
    taken, so a neutral mode of transparent media is refused for its launch
    weight.

    Closed forms it leans on: it divides by the closed-form beta_prime,
    ``_launch_weight(sol.media, overlap_terms(sol))``, so it tests the
    quadrature overlaps against :func:`overlap_terms`; ``z_terms``
    integrates the closed-form bracket profile of :mod:`slabspp.modes`.
    """
    z_quad = _noise_weight(sol.media, z_terms)
    beta = _launch_weight(sol.media, overlap_terms(sol))
    k = sol.k_spp
    two_ki = 2.0 * k.imag
    if kind == SAME_DIRECTION:
        m = min(x, x_prime)
        phase = cmath.exp(1j * k * (x - m)) * cmath.exp(
            -1j * k.conjugate() * (x_prime - m))
        x_quad = oracles.signed_tail_integral(k.imag)
        return (two_ki / beta) * z_quad * phase * x_quad
    if kind == CROSS_DIRECTION:
        if x <= x_prime:
            return 0j
        # the source phase advances at 2 Re(k); chunk the interval so the
        # heavy cross-cycle cancellation cannot defeat the adaptive rule
        x_quad = oracles.complex_quad_chunked(
            _x_overlap_integrand(k, x, x_prime), x_prime, x, 2.0 * k.real)
        return (two_ki / beta) * z_quad * x_quad
    raise ValueError(f"unknown commutator kind {kind!r}")


# ---------------------------------------------------------------------------
# Green-tensor overlap identity
# ---------------------------------------------------------------------------

def green_identity_check(sol: ModeSolution,
                         z_terms: tuple[float, float]) -> float:
    """Verify the medium-overlap identity of the resonant Green tensor.

    The integral of Im(eps(s)) G(r, s) G^*(s, r') over the source plane
    factorizes into gamma_prime (signed) times an exactly integrable
    x-profile.  The residue ``|D|^2`` and the bracket outer product
    ``b(z) b^*(z')`` multiply both sides and cancel, so this compares what
    remains: gamma_prime times the x-overlap, by quadrature -- z from
    ``z_terms``, the region integrals ``oracles.weighted_abs2_quadrature(sol)``
    weighted with signed Im eps as :func:`gamma_prime` weights the closed
    forms; x semi-analytically, with ``oracles.signed_tail_integral(k.imag)``
    for each semi-infinite end (continued for amplified modes) -- against
    the closed form.  Returns the worst relative deviation over three
    source separations, up to a few decay lengths along x.

    So it tests gamma_prime's overlaps and the x-profile, not ``D``: no
    check tests ``D`` yet (ROADMAP item 7).  ``z_terms`` integrates the
    closed-form bracket profile of :mod:`slabspp.modes`.  The relative
    deviation is ~3e-16 times :func:`excess_noise_factor`, since signed Im
    eps cancels in gamma_prime near the loss-compensation threshold; where
    that factor exceeds 3e7, 100x below the check's 1e-6 gate, it raises
    :class:`ThresholdCancellation`, naming the factor, after the neutral
    mode's refusal.
    """
    k = sol.k_spp
    kr, ki = k.real, k.imag
    media = sol.media
    terms = overlap_terms(sol)
    gamma_closed = _loss_weight(media.eps_d.imag, media.eps_m.imag, terms)
    gamma_quad = _loss_weight(media.eps_d.imag, media.eps_m.imag, z_terms)
    tail = oracles.signed_tail_integral(ki)
    factor = _excess_noise(media, terms)
    if factor > _NOISE_FACTOR_MAX:
        raise ThresholdCancellation(
            f"excess-noise factor F = {factor:.3g} > {_NOISE_FACTOR_MAX:g}: "
            "gamma_prime cancels near the loss-compensation threshold "
            "beyond what the comparison resolves")
    ell = 1.0 / max(abs(ki), abs(kr) / 20.0)

    worst = 0.0
    for xa, xb in ((0.0, 0.0), (0.8 * ell, 0.0), (0.3 * ell, 1.7 * ell)):
        lhs = gamma_quad * _x_overlap_numeric(k, xa, xb, tail)
        delta = abs(xa - xb)
        braces = (cmath.exp(1j * k * delta) / k
                  + cmath.exp(-1j * k.conjugate() * delta) / k.conjugate())
        rhs = gamma_closed * abs(k) ** 2 / (2.0 * kr * ki) * braces
        if rhs == 0.0:
            raise ValueError("degenerate sample pair: closed form vanished")
        worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst


def _x_overlap_numeric(k: complex, x: float, x_prime: float,
                       tail: float) -> complex:
    """Quadrature of exp(ik|x-s| - ik*|s-x'|) over the source line.

    The finite middle integrates :func:`_x_overlap_integrand`, one
    exponential per node.  ``tail`` is
    ``oracles.signed_tail_integral(k.imag)``, the integral of each
    semi-infinite end, which the caller takes once for all its pairs.
    """
    lo, hi = (x, x_prime) if x <= x_prime else (x_prime, x)
    ik, mik_conj = 1j * k, -1j * k.conjugate()
    c_lo = cmath.exp(ik * (x - lo)) * cmath.exp(mik_conj * (x_prime - lo))
    c_hi = cmath.exp(ik * (hi - x)) * cmath.exp(mik_conj * (hi - x_prime))
    total = (c_lo + c_hi) * tail
    if hi > lo:
        total += oracles.complex_quad_chunked(
            _x_overlap_integrand(k, x, x_prime), lo, hi, 2.0 * k.real)
    return total


def _x_overlap_integrand(k: complex, x: float, x_prime: float):
    """exp(ik|x-s| - ik*|s-x'|) as a function of ``s`` between x and x'.

    One ``cmath.exp`` of the summed exponent per node.  Between ``x`` and
    ``x'`` the signs of both differences are known, so no ``abs`` is taken:
    for ``x >= x'`` this is the cross-direction commutator's integrand
    ``exp(ik(x-s)) exp(-ik*(s-x'))``, and for ``x < x'`` both exponent
    factors are negated instead of the differences.
    """
    ik, mik_conj = 1j * k, -1j * k.conjugate()
    if x < x_prime:
        ik, mik_conj = -ik, -mik_conj

    def integrand(s):
        return cmath.exp(ik * (x - s) + mik_conj * (s - x_prime))
    return integrand
