"""Independent numerical cross-checks for the closed-form quantities.

Everything here recomputes some result of the package by brute force --
adaptive quadrature of the defining integrals, finite differences of the
defining derivatives, explicit thick-film limits, or contour integrals that
locate the dispersion roots without the root finder -- sharing as little
code as possible with the formulas under test.  The test suite runs all of
them; the verify pass (:mod:`slabspp.verify`) runs all but the contour root
oracle.  :func:`weighted_abs2_quadrature` returns the region integrals of
|bracket|^2 unweighted, so one quadrature of a mode serves every weighting
its callers apply.

The semi-infinite tails are integrated in a decay variable ``u`` (``u =
2*|Im k|*t`` for the x-tail, ``u = 2*Re(nu0)*|z - interface|`` for the
cladding tails), in which the modulus of each tail integrand is exactly
its value at the interface times ``exp(-u)``.  The tails are therefore
integrated over the finite window ``0 <= u <= 40`` with the 21-point
rule: the part left out is at most ``exp(-40)``, about 4.2e-18, of the
interface value, seven orders below the quadrature's ``1e-11`` target.
The x-tail is ``exp(-u)/(2*|Im k|)`` for every mode, so its shape is
integrated once, at import (``_UNIT_TAIL``).  Both cladding tails decay at
the same rate in ``u``, and every caller sums them, so the two z-oracles
integrate both cladding tails in one window, as one integrand that
evaluates the lower and the upper cladding at every node.  Bisecting the
window from ``[0, 40]`` always rejects its steps over ``[0, 40]`` and
``[0, 20]``, so the cladding tails start from the leaves it reaches,
``[0, 10]``, ``[10, 20]`` and ``[20, 40]`` (``_TAIL_EDGES``), as QUADPACK's
dqagpe starts from given break points.

The x-overlaps of the cross-direction commutator and of the Green-tensor
identity between two finite points are pure oscillations
``C*exp(-+2i*Re(k)*s)``, one ``cmath.exp`` per node
(:func:`slabspp.quantization._x_overlap_integrand`).
:func:`complex_quad_chunked` cuts them into chunks of at most 1.9*pi of
phase, just under a period, which the 21-point rule meets in one step each,
and gates the summed error estimates on the cancelled total.  A default
verify pass takes 51 rule steps, the benchmark's 30 verify configs 2093.

The adaptive quadrature is :func:`quad`, QUADPACK's globally adaptive
Gauss-Kronrod scheme in pure Python: it integrates a real or a complex
integrand in one pass, so each node is evaluated once, and an interval whose
first step meets the target returns without the adaptive loop's bookkeeping.
A non-finite value or error estimate is refused by :func:`complex_quad` and
:func:`complex_quad_chunked`.
The integrands are scalar Python (``complex``, ``cmath``, the tuple of the
mode's :func:`~slabspp.modes.bracket_of`, taken once per oracle), one flat
closure per region, where numpy scalars and arrays or extra call layers
would cost more than the arithmetic.  Every quadrature calls the
module-global :func:`quad`, so replacing it replaces them all.  The tail
substitutions of :func:`normalization_quadrature` and the central difference
of :func:`curl_consistency_error` multiply by a reciprocal instead of
dividing, the way numpy divides a complex by a real, so their values keep
the rounding of the earlier numpy-scalar integrands bit for bit.  The
contour root oracle :func:`contour_slab_roots` sums its trapezoid nodes one
by one in ``cmath`` as well.

Nothing here needs numpy or scipy, so importing this module loads neither.
"""

from __future__ import annotations

import cmath
import heapq
import math
import sys
from operator import mul

from .dispersion import (
    ANTISYMMETRIC,
    SYMMETRIC,
    ModeSolution,
    SlabGeometry,
    linspace,
    single_interface_root,
    solve_dispersion,
)
from .media import MediumSet
from .modes import bracket_of, h_field_bracket_of

__all__ = [
    "QuadratureError",
    "quad",
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

# QUADPACK's 21-point Gauss-Kronrod rule (dqk21; Piessens et al.,
# *QUADPACK*, Springer 1983): abscissae of the Kronrod rule on [0, 1],
# largest first and ending at the center, its weights, and the weights of
# the embedded 10-point Gauss rule, whose nodes are every second abscissa
# from the second on.  It is the only rule: every oracle integrates finite
# intervals, its tails included, and :func:`quad` refuses infinite limits.
_XK21 = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0)
_WK21 = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821)
_WG10 = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)

# (nodes on [-1, 1] ascending, Kronrod weights, Gauss weights of the odd
# positions); the G10 rule has no center node
_K21 = (tuple(-x for x in _XK21[:-1]) + _XK21[::-1], _WK21 + _WK21[-2::-1],
        _WG10 + _WG10[::-1])

_EPS = sys.float_info.epsilon
_UFLOW = sys.float_info.min
_EPSREL = 1e-11  # relative target of every quadrature
_LIMIT = 300     # most subintervals of one quadrature
_FD_STEP = 1e-12  # central-difference step of curl_consistency_error (m)
_TAIL = 40.0      # window 0 <= u <= _TAIL of the tails' decay variable
# the cladding tails' start mesh: the leaves that bisecting the window
# reaches before any of them is kept
_TAIL_EDGES = (0.0, _TAIL / 4, _TAIL / 2, _TAIL)


class QuadratureError(ValueError):
    """Refusal: adaptive quadrature failed to reach its target accuracy."""


def _kronrod(f, a: float, b: float) -> tuple:
    """One 21-point Gauss-Kronrod step on [a, b]: (value, error estimate)."""
    nodes, wk, wg = _K21
    center = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fv = [f(center + half * t) for t in nodes]
    resk = sum(map(mul, wk, fv))
    resg = sum(map(mul, wg, fv[1::2]))
    mean = 0.5 * resk
    width = abs(half)
    resabs = width * sum(map(mul, wk, map(abs, fv)))
    resasc = width * sum(map(mul, wk, [abs(y - mean) for y in fv]))
    err = abs((resk - resg) * half)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if resabs > _UFLOW / (50.0 * _EPS):
        err = max(50.0 * _EPS * resabs, err)
    return resk * half, err


def quad(f, *edges: float) -> tuple:
    """Globally adaptive Gauss-Kronrod quadrature of ``f`` over its edges.

    QUADPACK's dqage scheme without extrapolation, started like dqagpe
    from the intervals between the given ``edges`` (``quad(f, a, b)``
    integrates over [a, b] alone): the subinterval with the largest error
    estimate is bisected until the summed estimate is at most ``1e-11``
    times the modulus of the summed value, or until 300 subintervals.  A
    first step over [a, b] that already meets the target is returned as it
    is, and so is a start mesh of several intervals that does.  ``f`` may
    return real or complex values; the value comes back as the same type,
    with a float error estimate.  Every step is the 21-point rule.  There
    must be at least two edges, all finite: fewer, or an infinite or NaN
    edge, raises ``ValueError`` before ``f`` is called (the oracles
    integrate their tails over finite windows).  Nothing is raised when
    the target is missed: the caller judges the returned error estimate.
    """
    if len(edges) < 2:
        raise ValueError(f"quad needs two or more edges, got {list(edges)!r}")
    if not all(map(math.isfinite, edges)):
        raise ValueError(f"quad needs finite limits, got {list(edges)!r}")
    if len(edges) == 2:
        a, b = edges
        val, err = _kronrod(f, a, b)
        if not err > _EPSREL * abs(val):
            # the loop's own test, met by the first step: what the sums over
            # a one-entry heap give, down to the sign of a zero
            return 0 + val, 0 + err
        heap = [(-err, a, b, val)]
        total, err_sum = val, err
    else:
        heap = []
        total = err_sum = 0
        for lo, hi in zip(edges, edges[1:]):
            val, err = _kronrod(f, lo, hi)
            heap.append((-err, lo, hi, val))
            total += val
            err_sum += err
        heapq.heapify(heap)
    while err_sum > _EPSREL * abs(total) and len(heap) < _LIMIT:
        neg_err, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        v1, e1 = _kronrod(f, lo, mid)
        v2, e2 = _kronrod(f, mid, hi)
        heapq.heappush(heap, (-e1, lo, mid, v1))
        heapq.heappush(heap, (-e2, mid, hi, v2))
        total += (v1 + v2) - v
        err_sum += (e1 + e2) + neg_err
    return sum(v for *_, v in heap), sum(-e for e, *_ in heap)


def _refuse_non_finite(val, err) -> None:
    if not (cmath.isfinite(val) and math.isfinite(err)):
        raise QuadratureError(
            f"non-finite value or error estimate: {val!r} +- {err!r}")


def complex_quad(f, *edges: float) -> complex:
    """:func:`quad` of a real or complex integrand, gated on its error.

    The error estimate is checked against the modulus of the value, so a
    vanishing real or imaginary part needs no relative accuracy of its own.
    A non-finite value or error estimate is refused.
    """
    val, err = quad(f, *edges)
    _refuse_non_finite(val, err)
    if abs(val) > 0.0 and err > 1e-8 * abs(val):
        raise QuadratureError(
            f"quadrature error {err:.2e} too large for value {val!r}")
    return val


def complex_quad_chunked(f, a, b, phase_rate: float) -> complex:
    """Quadrature of a rapidly oscillating complex integrand on [a, b].

    ``phase_rate`` bounds |d(arg f)/ds|.  The interval is cut into
    ``n = ceil((b - a)*|phase_rate| / (1.9*pi))`` equal chunks, so each
    spans at most 1.9*pi of phase, just under one period, and each goes
    through :func:`quad`; the adaptive rule never has to resolve
    cancellation across many cycles itself.  On the verify pass's pure
    oscillations ``C*exp(-+2i*Re(k)*s)`` the 21-point rule meets its target
    on every chunk in its first step, with an error estimate on its
    ``50*eps*resabs`` floor.  A chunk stays below a full period on purpose:
    over a whole period the integral is ~0, so :func:`quad`'s relative
    target cannot be met and it bisects to its 300-subinterval limit, and
    from about 2.8*pi on the rule's error estimate leaves its floor.

    The summed error estimates are gated on the (possibly strongly
    cancelled) total: at most ``max(1e-7*|total|, 1e-12*mass)``, where
    ``mass`` is the sum of the moduli of the chunk values, the un-cancelled
    magnitude at this chunk width.  A chunk of nearly a period cancels
    partly within itself, so ``mass`` is smaller than with shorter chunks,
    while the summed estimates stay on the same floor per width of
    interval: wider chunks make the gate stricter, never looser.  A span
    that needs more than 40000 chunks is refused with a
    :class:`QuadratureError` before any rule step.
    """
    if b <= a:
        return 0j
    chunks = (b - a) * abs(phase_rate) / (1.9 * math.pi)
    if not chunks <= 40000:  # an infinite or NaN span too
        needed = math.ceil(chunks) if math.isfinite(chunks) else chunks
        raise QuadratureError(
            f"oscillating integrand needs {needed} chunks of 1.9*pi in "
            f"phase, more than 40000")
    n = max(1, math.ceil(chunks))
    edges = linspace(a, b, n + 1)
    total = 0j
    err_sum = 0.0
    mass = 0.0  # un-cancelled magnitude, sets the absolute noise floor
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = quad(f, lo, hi)
        total += val
        err_sum += err
        mass += abs(val)
    _refuse_non_finite(total, err_sum)
    if err_sum > max(1e-7 * abs(total), 1e-12 * mass):
        raise QuadratureError(
            f"accumulated quadrature error {err_sum:.2e} too large for "
            f"cancelled total {total!r}")
    return total


# the x-tail's shape in its decay variable, the same for every mode; from
# the one interval it sums to exactly 1.0, from _TAIL_EDGES one ulp above
_UNIT_TAIL = complex_quad(lambda u: math.exp(-u), 0.0, _TAIL)


def signed_tail_integral(k_im: float) -> float:
    """Integral of exp(-2*k_im*t) over t in [0, inf), numerically.

    For k_im < 0 the defining integral diverges; its analytic continuation
    (integration along the reflected ray) is the negative of the convergent
    mirror integral, which is what this returns.  In ``u = 2*|k_im|*t`` it
    is ``_UNIT_TAIL``, exp(-u) over ``0 <= u <= 40``, over ``2*|k_im|``.
    """
    if k_im == 0.0:
        raise ValueError("neutral mode: semi-infinite overlap diverges")
    return math.copysign(_UNIT_TAIL / (2.0 * abs(k_im)), k_im)


def weighted_abs2_quadrature(sol: ModeSolution) -> tuple[float, float]:
    """Region integrals of |bracket(z)|^2 by quadrature: (claddings, film).

    The first term is the lower plus the upper cladding, the second the
    film: the numerical twin of :func:`slabspp.quantization.overlap_terms`.
    Callers weight the two terms per region themselves.  The cladding tails
    are integrated numerically (no analytic shortcut) in ``u =
    2*Re(nu0)*|z - interface|``, where each integrand's modulus is its
    interface value times ``exp(-u)``: both cladding tails in one window
    ``0 <= u <= 40``, as one integrand that evaluates the lower cladding at
    ``z = -u/(2*Re(nu0))`` and the upper at ``z = d + u/(2*Re(nu0))`` at
    every node, leaving out at most ``exp(-40)`` (about 4.2e-18) of the
    interface value.  The raw meter-scale variable would underflow the
    adaptive rule's initial mesh.  It leans on the closed-form profile
    :func:`~slabspp.modes.bracket_of`.
    """
    d = sol.geom.d
    s = 2.0 * sol.nu0.real  # |bracket|^2 decay rate in the claddings
    bracket = bracket_of(sol)

    def tails(u):  # the lower cladding at z = -u/s, the upper at d + u/s
        bx, bz = bracket(-u / s)
        cx, cz = bracket(d + u / s)
        return ((abs(bx) ** 2 + abs(bz) ** 2)
                + (abs(cx) ** 2 + abs(cz) ** 2)) / s

    def film(z):
        bx, bz = bracket(z)
        return abs(bx) ** 2 + abs(bz) ** 2

    return complex_quad(tails, *_TAIL_EDGES), complex_quad(film, 0.0, d)


def normalization_quadrature(sol: ModeSolution) -> complex:
    """Quadrature of eps(z) * (b_x(z)^2 - b_z(z)^2) over the z axis.

    The unconjugated pairing that the closed-form normalization claims to
    equal.  The cladding tails are integrated numerically in ``u =
    2*Re(nu0)*|z - interface|``, where each integrand's modulus is its
    interface value times ``exp(-u)``: both cladding tails in one window
    ``0 <= u <= 40``, as one integrand that evaluates both claddings at
    every node and is weighted with ``eps_d`` once, leaving out at most
    ``exp(-40)`` (about 4.2e-18) of the interface value.  It leans on the
    closed-form profile
    :func:`~slabspp.modes.bracket_of`: it checks the integral, not that
    ``1/N'`` is the strength of the Green tensor's pole (ROADMAP item 7).
    """
    d = sol.geom.d
    eps_d = sol.media.eps_d
    eps_m = sol.media.eps_m
    s = 2.0 * sol.nu0.real
    inv_s = 1.0 / s
    bracket = bracket_of(sol)

    def tails(u):  # the lower cladding at z = -u/s, the upper at d + u/s
        bx, bz = bracket(-u / s)
        cx, cz = bracket(d + u / s)
        return ((bx * bx - bz * bz) + (cx * cx - cz * cz)) * inv_s

    def film(z):
        bx, bz = bracket(z)
        return bx * bx - bz * bz

    return (eps_d * complex_quad(tails, *_TAIL_EDGES)
            + eps_m * complex_quad(film, 0.0, d))


def curl_consistency_error(sol: ModeSolution, depths) -> float:
    """Worst relative mismatch of the magnetic bracket and a finite difference.

    At each of the sample ``depths``, differentiates the tangential profile
    component centrally with a 1e-12 m step and combines it with the
    transverse component; every depth must sit more than one step away from
    both interfaces so the stencil stays in one region, and off a node of
    the magnetic bracket.  The mode's two brackets are built once for all
    depths.  Raises ``ValueError`` for an empty ``depths``, and at the
    first depth that breaks either rule.  It leans on two closed forms: the
    profile :func:`~slabspp.modes.bracket_of` it differentiates and the
    magnetic bracket :func:`~slabspp.modes.h_field_bracket_of` it compares
    with.
    """
    h = _FD_STEP
    d = sol.geom.d
    ik = 1j * sol.k_spp
    inv_2h = 1.0 / (2.0 * h)
    bracket = bracket_of(sol)
    h_bracket = h_field_bracket_of(sol)
    errors = []
    for z in depths:
        if min(abs(z), abs(z - d)) <= h:
            raise ValueError(
                f"z={z!r} too close to an interface for step h={h!r}")
        bx_p, _ = bracket(z + h)
        bx_m, _ = bracket(z - h)
        _, bz = bracket(z)
        fd = (bx_p - bx_m) * inv_2h - ik * bz
        ref = h_bracket(z)
        if ref == 0:
            # e.g. the exact midplane of the symmetric mode; a relative error
            # is meaningless there and the finite difference is pure noise
            raise ValueError(f"magnetic bracket has a node at z={z!r}; "
                             "pick a different sample depth")
        errors.append(abs(fd - ref) / abs(ref))
    if not errors:
        raise ValueError("no sample depth given")
    return max(errors)


def thick_film_degeneracy(media: MediumSet, d: float) -> dict:
    """Parity splitting of a film thick enough to decouple its surfaces.

    Solves both parities of ``media`` at thickness ``d`` and compares them
    with each other and with the single-interface mode.  All three should
    coincide to within the solver tolerance once exp(-Re(num) d) underflows
    the splitting scale.  It leans on the solver: both modes come from
    :func:`~slabspp.dispersion.solve_dispersion`, the reference from
    :func:`~slabspp.dispersion.single_interface_root`.
    """
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


class ContourError(ValueError):
    """Refusal: the argument-principle contour does not isolate both modes."""


def _continued_sqrt(k: complex, beta: complex, center: complex) -> complex:
    """sqrt(k**2 - beta**2), analytic on a disk about ``center`` free of +-beta.

    Each factor (k -+ beta)/(center -+ beta) stays in the right half plane on
    such a disk, so the principal roots never meet their cut; the branch is
    fixed by Re >= 0 at the center.
    """
    s_c = cmath.sqrt(center * center - beta * beta)
    if s_c.real < 0.0:
        s_c = -s_c
    return (s_c * cmath.sqrt((k - beta) / (center - beta))
            * cmath.sqrt((k + beta) / (center + beta)))


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
    the trapezoidal rule in the scaled variable ``z = (k - center)/radius``,
    summed node by node in ``cmath``.  No seed, Newton step and no tanh
    form is involved, so the result is independent of
    :func:`solve_dispersion`.

    ``radius`` defaults to half the distance from the center to the nearest
    branch point ``+-n*k0``, ``+-sqrt(eps_m)*k0``.  Raises
    :class:`ContourError` where ``eps_m + eps_d == 0`` (no center), if a
    branch point lies in the closed disk, if the zero count of ``D``
    differs from 2 -- one zero per factor -- by more than 1e-6 in total, or
    if a zero is not bound (``Re(nu0) <= 0``).

    Returns ``{"symmetric": k, "antisymmetric": k}``.
    """
    k0 = media.k0
    eps_d, eps_m = media.eps_d, media.eps_m
    d = geom.d
    if eps_m + eps_d == 0:
        raise ContourError("eps_m + eps_d == 0: no single-interface center")
    center = k0 * cmath.sqrt(eps_m * eps_d / (eps_m + eps_d))
    betas = (k0 * cmath.sqrt(eps_d), k0 * cmath.sqrt(eps_m))
    clearance = min(abs(center - s * b) for b in betas for s in (1, -1))
    if radius is None:
        radius = 0.5 * clearance
    if radius >= clearance:
        raise ContourError(
            f"disk of radius {radius:.4e} around {center:.6e} holds a branch "
            f"point of nu0 or num (nearest at distance {clearance:.4e})")

    signs = {SYMMETRIC.name: -1.0, ANTISYMMETRIC.name: 1.0}
    sums = {name: [0j, 0j] for name in signs}
    for j in range(_CONTOUR_NODES):
        z = cmath.exp(2j * math.pi * j / _CONTOUR_NODES)
        k = center + radius * z
        nu0 = _continued_sqrt(k, betas[0], center)
        num = _continued_sqrt(k, betas[1], center)
        p = eps_m * nu0 + eps_d * num
        m = eps_m * nu0 - eps_d * num
        e = cmath.exp(-num * d)
        dp = k * (eps_m / nu0 + eps_d / num)
        # (m*e)'
        dme = (k * (eps_m / nu0 - eps_d / num) - d * (k / num) * m) * e
        for name, sign in signs.items():
            # z * (df/dz) / f on |z| = 1, with k = center + radius*z
            w = radius * z * (dp + sign * dme) / (p + sign * m * e)
            sums[name][0] += w
            sums[name][1] += w * z
    moments = {name: (s0 / _CONTOUR_NODES, s1 / _CONTOUR_NODES)
               for name, (s0, s1) in sums.items()}
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
