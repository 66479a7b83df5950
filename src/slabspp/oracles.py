"""Independent numerical cross-checks for the closed-form quantities.

Everything here recomputes some result of the package by brute force --
adaptive quadrature of the defining integrals, finite differences of the
defining derivatives, explicit thick-film limits, or contour integrals that
locate the dispersion roots without the root finder -- sharing as little
code as possible with the formulas under test.  The test suite runs all of
them; the ``verify`` CLI subcommand runs all but the contour root oracle.

The quadrature integrands are scalar Python (``complex``, ``cmath``, the
tuple from :func:`profile_bracket`): scipy calls them once per node, where
numpy scalars and arrays cost more than the arithmetic.  The tail
substitutions of :func:`normalization_quadrature` and the central
difference of :func:`curl_consistency_error` multiply by a reciprocal
instead of dividing, the way numpy divides a complex by a real, so their
values keep the rounding of the earlier numpy-scalar integrands bit for bit.

This is the package's only scipy importer: ``quantization`` and ``cli``
import it inside the functions that run quadrature, so the rest of the
package starts without loading scipy.
"""

from __future__ import annotations

import cmath
import math
import warnings

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .dispersion import (
    ANTISYMMETRIC,
    SYMMETRIC,
    ModeSolution,
    SlabGeometry,
    single_interface_root,
    solve_dispersion,
)
from .media import MediumSet, make_medium_set
from .modes import profile_bracket

__all__ = [
    "QuadratureError",
    "complex_quad",
    "complex_quad_chunked",
    "signed_tail_integral",
    "weighted_abs2_quadrature",
    "normalization_quadrature",
    "curl_consistency_error",
    "thick_film_degeneracy",
    "ContourError",
    "contour_slab_roots",
]

_QUAD_OPTS = dict(epsabs=0.0, epsrel=1e-11, limit=300)


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its target accuracy."""


def complex_quad(f, a, b) -> complex:
    """Adaptive quadrature of a complex integrand with relative control.

    scipy's own tolerance warnings are suppressed (a vanishing real or
    imaginary part can never meet a relative target); the returned error
    estimate is checked against the combined value instead.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, complex_func=True, **_QUAD_OPTS)
    if abs(val) > 0.0 and abs(err) > 1e-8 * abs(val):
        raise QuadratureError(
            f"quadrature error {abs(err):.2e} too large for value {val!r}")
    return val


def _real_quad(f, a, b) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = quad(f, a, b, **_QUAD_OPTS)
    if abs(val) > 0.0 and err > 1e-8 * abs(val):
        raise QuadratureError(
            f"quadrature error {err:.2e} too large for value {val!r}")
    return val


def complex_quad_chunked(f, a, b, phase_rate: float) -> complex:
    """Quadrature of a rapidly oscillating complex integrand on [a, b].

    ``phase_rate`` bounds |d(arg f)/ds|; the interval is split at roughly
    half-period granularity so the adaptive rule never has to resolve
    cancellation across many cycles itself.  Accumulated error estimates are
    checked against the (possibly strongly cancelled) total.
    """
    if b <= a:
        return 0j
    n = int(min(40000, max(1, math.ceil((b - a) * abs(phase_rate) / math.pi))))
    edges = np.linspace(a, b, n + 1)
    total = 0j
    err_sum = 0.0
    mass = 0.0  # un-cancelled magnitude, sets the absolute noise floor
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        for lo, hi in zip(edges[:-1], edges[1:]):
            val, err = quad(f, lo, hi, complex_func=True, **_QUAD_OPTS)
            total += val
            err_sum += abs(err)
            mass += abs(val)
    if err_sum > max(1e-7 * abs(total), 1e-12 * mass):
        raise QuadratureError(
            f"accumulated quadrature error {err_sum:.2e} too large for "
            f"cancelled total {total!r}")
    return total


def signed_tail_integral(k_im: float) -> float:
    """Integral of exp(-2*k_im*t) over t in [0, inf), numerically.

    For k_im < 0 the defining integral diverges; its analytic continuation
    (integration along the reflected ray) is the negative of the convergent
    mirror integral, which is what this returns.
    """
    if k_im == 0.0:
        raise ValueError("neutral mode: semi-infinite overlap diverges")
    rate = 2.0 * abs(k_im)
    # substitute u = rate*t so the adaptive rule integrates on an O(1) scale
    val = _real_quad(lambda u: math.exp(-u) / rate, 0.0, np.inf)
    return math.copysign(val, k_im)


def weighted_abs2_quadrature(sol: ModeSolution, w_d: float,
                             w_m: float) -> float:
    """Quadrature of w(z) |bracket(z)|^2 with per-region constant weights.

    ``w_d`` applies in both claddings, ``w_m`` in the film.  The infinite
    tails are integrated as such (no analytic shortcut), after rescaling z
    by the cladding decay rate so the transformed integrand has O(1)
    support -- the raw meter-scale variable would underflow the adaptive
    rule's initial mesh.
    """
    d = sol.geom.d
    s = 2.0 * sol.nu0.real  # |bracket|^2 decay rate in the claddings

    def dens(z):
        bx, bz = profile_bracket(sol, z)
        return abs(bx) ** 2 + abs(bz) ** 2

    total = 0.0
    if w_d != 0.0:
        lower = _real_quad(lambda u: dens(u / s) / s, -np.inf, 0.0)
        upper = _real_quad(lambda u: dens(d + u / s) / s, 0.0, np.inf)
        total += w_d * (lower + upper)
    if w_m != 0.0:
        total += w_m * _real_quad(dens, 0.0, d)
    return total


def normalization_quadrature(sol: ModeSolution) -> complex:
    """Quadrature of eps(z) * (b_x(z)^2 - b_z(z)^2) over the z axis.

    The unconjugated pairing that the closed-form normalization claims to
    equal; tails integrated numerically (rescaled by the decay rate so the
    adaptive rule sees O(1) support).
    """
    d = sol.geom.d
    eps_d = sol.media.eps_d
    eps_m = sol.media.eps_m
    s = 2.0 * sol.nu0.real

    def pair(z):
        bx, bz = profile_bracket(sol, z)
        return bx * bx - bz * bz

    return (eps_d * complex_quad(lambda u: pair(u / s) * (1.0 / s),
                                 -np.inf, 0.0)
            + eps_m * complex_quad(pair, 0.0, d)
            + eps_d * complex_quad(lambda u: pair(d + u / s) * (1.0 / s),
                                   0.0, np.inf))


def curl_consistency_error(sol: ModeSolution, z: float,
                           h: float = 1e-12) -> float:
    """Relative mismatch between the magnetic bracket and a finite difference.

    Differentiates the tangential profile component centrally with step
    ``h`` (meters) and combines it with the transverse component; ``z`` must
    sit at least ``h`` away from both interfaces so the stencil stays in one
    region.
    """
    from .fields import h_field_operator_bracket

    d = sol.geom.d
    if min(abs(z), abs(z - d)) <= h:
        raise ValueError(f"z={z!r} too close to an interface for step h={h!r}")
    bx_p, _ = profile_bracket(sol, z + h)
    bx_m, _ = profile_bracket(sol, z - h)
    _, bz = profile_bracket(sol, z)
    fd = (bx_p - bx_m) * (1.0 / (2.0 * h)) - 1j * sol.k_spp * bz
    ref = h_field_operator_bracket(sol, sol.geom, z)
    if ref == 0:
        # e.g. the exact midplane of the symmetric mode; a relative error
        # is meaningless there and the finite difference is pure noise
        raise ValueError(f"magnetic bracket has a node at z={z!r}; "
                         "pick a different sample depth")
    return abs(fd - ref) / abs(ref)


def thick_film_degeneracy(metal, dielectric, omega: float,
                          d: float = 2e-6) -> dict:
    """Parity splitting of a film thick enough to decouple its surfaces.

    Solves both parities at thickness ``d`` and compares them with each
    other and with the single-interface mode.  All three should coincide to
    within the solver tolerance once exp(-Re(num) d) underflows the
    splitting scale.
    """
    media = make_medium_set(metal, dielectric, omega)
    geom = SlabGeometry(d=d)
    sym = solve_dispersion(SYMMETRIC, geom, media)
    anti = solve_dispersion(ANTISYMMETRIC, geom, media)
    k_si = single_interface_root(media)
    scale = abs(sym.k_spp)
    return {
        "k_symmetric": sym.k_spp,
        "k_antisymmetric": anti.k_spp,
        "k_single_interface": k_si,
        "rel_split": abs(sym.k_spp - anti.k_spp) / scale,
        "rel_offset_symmetric": abs(sym.k_spp - k_si) / abs(k_si),
        "rel_offset_antisymmetric": abs(anti.k_spp - k_si) / abs(k_si),
    }


# trapezoid nodes on the contour; the rule converges geometrically for the
# periodic analytic integrand, at a rate set by the zeros (inside, at about
# half the radius) and branch points (outside, at twice the radius or more)
_CONTOUR_NODES = 256


class ContourError(RuntimeError):
    """The argument-principle contour does not isolate the two slab modes."""


def _continued_sqrt(k, beta: complex, center: complex):
    """sqrt(k**2 - beta**2), analytic on a disk about ``center`` free of +-beta.

    Each factor (k -+ beta)/(center -+ beta) stays in the right half plane on
    such a disk, so the principal roots never meet their cut; the branch is
    fixed by Re >= 0 at the center.
    """
    s_c = cmath.sqrt(center * center - beta * beta)
    if s_c.real < 0.0:
        s_c = -s_c
    return (s_c * np.sqrt((k - beta) / (center - beta))
            * np.sqrt((k + beta) / (center + beta)))


def contour_slab_roots(geom: SlabGeometry, media: MediumSet,
                       radius: float | None = None) -> dict[str, complex]:
    """Both bound slab modes from argument-principle moments of D(k).

    Locates the zeros of the three-layer Fresnel pole condition

        D(k) = (eps_m*nu0 + eps_d*num)**2
               - (eps_m*nu0 - eps_d*num)**2 * exp(-2*num*d)

    inside the circle of ``radius`` around the single-interface root
    ``k0*sqrt(eps_m*eps_d/(eps_m + eps_d))``.  ``D`` is the product of the
    parity factors ``f = (eps_m*nu0 + eps_d*num) -+ (eps_m*nu0 -
    eps_d*num)*exp(-num*d)`` (upper sign: symmetric), so its moments
    ``s_p = (1/2 pi i) * contour integral of k**p D'/D`` are the sums of the
    factors' moments.  Each factor's ``s_0`` counts its zeros and, when that
    count is 1, its ``s_1`` is the zero itself (Delves & Lyness, *Math.
    Comp.* 21, 1967); splitting ``D`` this way keeps full precision when
    the two modes nearly coincide (thick films).  The contour integrals use
    the trapezoidal rule in the scaled variable ``z = (k - center)/radius``.
    No seed, Newton or Muller step and no tanh form is involved, so the
    result is independent of :func:`solve_dispersion`.

    ``radius`` defaults to half the distance from the center to the nearest
    branch point ``+-n*k0``, ``+-sqrt(eps_m)*k0``.  Raises
    :class:`ContourError` if a branch point lies in the closed disk, if the
    zero count of ``D`` differs from 2 -- one zero per factor -- by more
    than 1e-6 in total, or if a zero is not bound (``Re(nu0) <= 0``).

    Returns ``{"symmetric": k, "antisymmetric": k}``.
    """
    k0 = media.k0
    eps_d, eps_m = media.eps_d, media.eps_m
    d = geom.d
    center = k0 * cmath.sqrt(eps_m * eps_d / (eps_m + eps_d))
    betas = (k0 * cmath.sqrt(eps_d), k0 * cmath.sqrt(eps_m))
    clearance = min(abs(center - s * b) for b in betas for s in (1, -1))
    if radius is None:
        radius = 0.5 * clearance
    if radius >= clearance:
        raise ContourError(
            f"disk of radius {radius:.4e} around {center:.6e} holds a branch "
            f"point of nu0 or num (nearest at distance {clearance:.4e})")

    z = np.exp(2j * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES)
    k = center + radius * z
    nu0 = _continued_sqrt(k, betas[0], center)
    num = _continued_sqrt(k, betas[1], center)
    p = eps_m * nu0 + eps_d * num
    m = eps_m * nu0 - eps_d * num
    e = np.exp(-num * d)
    dp = k * (eps_m / nu0 + eps_d / num)
    dme = (k * (eps_m / nu0 - eps_d / num) - d * (k / num) * m) * e  # (m*e)'
    moments = {}
    for parity, sign in ((SYMMETRIC, -1.0), (ANTISYMMETRIC, 1.0)):
        # z * (df/dz) / f on |z| = 1, with k = center + radius*z
        w = radius * z * (dp + sign * dme) / (p + sign * m * e)
        moments[parity.name] = (complex(np.mean(w)), complex(np.mean(w * z)))
    counts = {name: s0 for name, (s0, _) in moments.items()}
    if not sum(abs(s0 - 1.0) for s0 in counts.values()) <= 1e-6:
        raise ContourError(
            f"argument principle counts {counts} zeros in the disk of radius "
            f"{radius:.4e} around {center:.6e}, expected one per parity")
    roots = {}
    for name, (_, s1) in moments.items():
        root = center + radius * s1
        if not _continued_sqrt(root, betas[0], center).real > 0.0:
            raise ContourError(f"{name} zero {root!r} is not bound: "
                               "Re(nu0) <= 0")
        roots[name] = root
    return roots
