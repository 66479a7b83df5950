import cmath
import math
import warnings
from collections import Counter
from functools import partial

import numpy as np
import pytest

from slabspp import (
    ANTISYMMETRIC,
    EPS0,
    HBAR,
    PARITIES,
    SYMMETRIC,
    DielectricSpec,
    DrudeMetalSpec,
    MediumSet,
    SlabGeometry,
    make_medium_set,
    overlap_terms,
    solve_dispersion,
)
from slabspp import oracles
from slabspp.modes import (
    bracket_of,
    green_coefficient,
    h_field_bracket_of,
    normalization,
)
from slabspp.quantization import (
    _x_overlap_numeric,
    gamma_prime,
    green_identity_check,
)
from slabspp.oracles import (
    ContourError,
    QuadratureError,
    complex_quad,
    contour_slab_roots,
    complex_quad_chunked,
    curl_consistency_error,
    normalization_quadrature,
    quad,
    signed_tail_integral,
    thick_film_degeneracy,
    weighted_abs2_quadrature,
)

METAL = DrudeMetalSpec(14.02e15, 6.25e13)
GEOM = SlabGeometry(60e-9)


def _mode(parity=SYMMETRIC, kappa=-0.08):
    media = make_medium_set(METAL, DielectricSpec(0.9726, kappa), 4.8e15)
    return solve_dispersion(parity, GEOM, media)


def _noise_amplitudes(media):
    """Each medium's noise amplitude 2*hbar*omega^2*eps0*|Im eps|, (d, m)."""
    scale = 2.0 * HBAR * media.omega**2 * EPS0
    return scale * abs(media.eps_d.imag), scale * abs(media.eps_m.imag)


_RULES = pytest.mark.parametrize(
    "rule, degree_k, degree_g",
    [(oracles._K21, 31, 19)], ids=("K21",))


@_RULES
def test_rule_weights_sum_to_two(rule, degree_k, degree_g):
    nodes, wk, wg = rule
    assert len(nodes) == len(wk) and len(wg) == len(nodes) // 2
    assert math.fsum(wk) == pytest.approx(2.0, abs=1e-15)
    assert math.fsum(wg) == pytest.approx(2.0, abs=1e-15)


@_RULES
def test_rules_exact_for_monomials(rule, degree_k, degree_g):
    # a (2n+1)-point Kronrod extension of an n-point Gauss rule integrates
    # polynomials of degree 3n+1 exactly, the Gauss rule those of 2n-1
    nodes, wk, wg = rule
    for points, weights, degree in ((nodes, wk, degree_k),
                                    (nodes[1::2], wg, degree_g)):
        assert list(points) == sorted(points)
        for p in range(degree + 1):
            exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
            approx = math.fsum(w * x ** p for w, x in zip(weights, points))
            assert approx == pytest.approx(exact, abs=2e-16), p


_STEPS = [
    (math.exp, 0.0, 1.0),
    (lambda u: 1.0 / (1.0 + u * u), 0.0, 5.0),
    (lambda u: u ** 20, -1.0, 1.0),
    (math.sqrt, 0.0, 1.0),
    (lambda u: math.cos(30.0 * u), 0.0, 1.0),
]


@pytest.mark.parametrize("f, a, b", _STEPS, ids=range(len(_STEPS)))
def test_first_step_matches_quadpack(f, a, b):
    # with limit=1, QUADPACK returns its first dqk21 step: value and error
    # estimate
    import scipy.integrate as scipy_integrate

    step = oracles._kronrod(f, a, b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy_integrate.IntegrationWarning)
        reference = scipy_integrate.quad(f, a, b, epsabs=0.0, epsrel=1e-11,
                                         limit=1)
    assert step[0] == pytest.approx(reference[0], rel=1e-14)
    assert step[1] == pytest.approx(reference[1], rel=1e-10)


@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (-math.inf, math.inf), (0.0, math.nan),
                                  (math.nan, 1.0)],
                         ids=("0-inf", "-inf-0", "-inf-inf", "0-nan",
                              "nan-1"))
def test_quad_refuses_non_finite_limits(a, b):
    nodes = []
    with pytest.raises(ValueError, match="quad needs finite limits"):
        quad(nodes.append, a, b)
    assert nodes == []


@pytest.mark.parametrize("edge", (math.inf, -math.inf, math.nan))
def test_quad_refuses_a_non_finite_interior_edge(edge):
    nodes = []
    with pytest.raises(ValueError, match="quad needs finite limits"):
        quad(nodes.append, 0.0, edge, 1.0)
    assert nodes == []


def test_quad_refuses_fewer_than_two_edges():
    nodes = []
    for edges in ((), (0.0,)):
        with pytest.raises(ValueError, match="quad needs two or more edges"):
            quad(nodes.append, *edges)
    assert nodes == []


_INTEGRANDS = [
    (math.exp, math.e - 1.0),
    (lambda u: cmath.exp((1.0 + 2.0j) * u),
     (cmath.exp(1.0 + 2.0j) - 1.0) / (1.0 + 2.0j)),
]


@pytest.mark.parametrize("f, exact", _INTEGRANDS, ids=("real", "complex"))
@pytest.mark.parametrize("edges", [(0.0, 1.0), (0.0, 0.25, 0.5, 1.0)],
                         ids=("one", "three"))
def test_quad_returns_a_start_mesh_that_meets_the_target(monkeypatch, edges,
                                                         f, exact):
    """A start mesh whose steps meet the target is returned as their sums,
    in edge order from 0; no interval is bisected."""
    parts = [oracles._kronrod(f, lo, hi) for lo, hi in zip(edges, edges[1:])]
    steps = _counted_steps(monkeypatch)
    val, err = quad(f, *edges)
    assert steps == list(zip(edges[:-1], edges[1:]))
    # the edge-order sums 0 + v0 + v1 + ...
    value, error = sum(v for v, _ in parts), sum(e for _, e in parts)
    assert not error > 1e-11 * abs(value)
    assert (val, err) == (value, error)
    assert abs(val - exact) <= 1e-15 * abs(exact)


def test_quad_of_zero_over_a_reversed_interval_is_positive_zero():
    def zero(u):
        return 0.0

    # the step itself gives -0.0 (a zero sum times a negative half-width)
    assert math.copysign(1.0, oracles._kronrod(zero, 1.0, 0.0)[0]) == -1.0
    val, err = quad(zero, 1.0, 0.0)
    assert math.copysign(1.0, val) == 1.0
    assert (val, err) == (0.0, 0.0)


def test_quad_keeps_the_integrand_type():
    val, err = quad(math.cos, 0.0, 1.0)
    assert type(val) is float and type(err) is float
    assert val == pytest.approx(math.sin(1.0), rel=1e-14)
    val, err = quad(lambda u: cmath.exp(1j * u), 0.0, 1.0)
    assert type(val) is complex and type(err) is float


def test_quad_evaluates_complex_integrand_once_per_node():
    nodes = []

    def f(u):
        nodes.append(u)
        return cmath.exp(1j * u)

    quad(f, 0.0, 1.0)
    # one 21-point step meets the target for this entire integrand
    assert len(nodes) == len(set(nodes)) == 21


def test_quad_stops_at_the_interval_limit():
    calls = []
    rng = np.random.default_rng(7)
    noise = rng.normal(size=4096)

    def f(u):
        calls.append(u)
        return noise[int(u * 4096.0) % 4096] * math.sin(1e6 * u)

    val, err = quad(f, 0.0, 1.0)
    assert err > 1e-8 * abs(val)
    # the first step, then two per bisection up to 300 subintervals
    assert len(calls) == 21 * (1 + 2 * 299)


def test_complex_quad_analytic():
    val = complex_quad(lambda u: cmath.exp(1j * u), 0.0, 1.0)
    assert val == pytest.approx((cmath.exp(1j) - 1.0) / 1j, rel=1e-12)


_NON_FINITE = pytest.mark.parametrize(
    "f", (lambda u: math.nan, lambda u: complex(math.inf, 0.0),
          lambda u: math.inf if u > 0.5 else 1.0),
    ids=("nan", "inf", "inf-half"))


@_NON_FINITE
def test_complex_quad_refuses_a_non_finite_result(f):
    with pytest.raises(QuadratureError,
                       match="non-finite value or error estimate"):
        complex_quad(f, 0.0, 1.0)
    with pytest.raises(QuadratureError,
                       match="non-finite value or error estimate"):
        complex_quad(f, 0.0, 0.5, 1.0)


@_NON_FINITE
def test_complex_quad_chunked_refuses_a_non_finite_result(f):
    with pytest.raises(QuadratureError,
                       match="non-finite value or error estimate"):
        complex_quad_chunked(f, 0.0, 1.0, 20.0)


def test_complex_quad_chunked_matches_plain():
    omega = 240.0
    f = lambda u: cmath.exp(1j * omega * u) * (1.0 + u)
    chunked = complex_quad_chunked(f, 0.0, 2.0, omega)
    exact = ((1.0 + 2.0) * cmath.exp(2j * omega) - 1.0) / (1j * omega) \
        - (cmath.exp(2j * omega) - 1.0) / (1j * omega) ** 2
    assert chunked == pytest.approx(exact, rel=1e-10)


def test_complex_quad_chunked_refuses_an_understated_phase_rate():
    """Told a rate of 1 for e^{10000 i s} on [0, 1], it integrates ~1600
    periods as one chunk; the summed error estimate fails the gate on the
    cancelled total.  The true rate passes it."""
    omega = 1e4
    f = lambda u: cmath.exp(1j * omega * u)
    with pytest.raises(QuadratureError,
                       match="accumulated quadrature error .* too large"):
        complex_quad_chunked(f, 0.0, 1.0, 1.0)
    exact = (cmath.exp(1j * omega) - 1.0) / (1j * omega)
    assert complex_quad_chunked(f, 0.0, 1.0, omega) == pytest.approx(
        exact, rel=1e-9)


def test_complex_quad_chunked_empty_interval():
    assert complex_quad_chunked(lambda u: 1.0 + 0j, 1.0, 1.0, 5.0) == 0j
    assert complex_quad_chunked(lambda u: 1.0 + 0j, 2.0, 1.0, 5.0) == 0j


def _counted_steps(monkeypatch) -> list:
    """The (a, b) of every Gauss-Kronrod step taken from now on."""
    steps = []
    kronrod = oracles._kronrod

    def counted(*args):
        steps.append(args[1:3])
        return kronrod(*args)

    monkeypatch.setattr(oracles, "_kronrod", counted)
    return steps


def test_complex_quad_chunked_takes_one_rule_step_per_chunk(monkeypatch):
    """A pure oscillation over 1-60 whole periods and over spans between
    them: chunks of at most 1.9*pi in phase, each met by the first step of
    the 21-point rule.  A chunk of a whole period integrates to ~0 and
    bisects to the subinterval limit, so a rule of wider chunks fails
    here."""
    steps = _counted_steps(monkeypatch)
    a = 0.37
    for rate in (2.0, -2.0):
        f = partial(lambda r, s: cmath.exp(1j * r * s), rate)
        for periods in [*range(1, 61), 0.2, 0.95, 1.5, 2.6, 9.99, 33.3,
                        59.95]:
            b = a + periods * 2.0 * math.pi / abs(rate)
            steps.clear()
            val = complex_quad_chunked(f, a, b, rate)
            n = math.ceil((b - a) * abs(rate) / (1.9 * math.pi))
            edges = oracles.linspace(a, b, n + 1)
            assert steps == list(zip(edges[:-1], edges[1:])), periods
            exact = (f(b) - f(a)) / (1j * rate)
            # b - a is the integral of |f|
            assert abs(val - exact) <= 1e-13 * (b - a), periods


def test_complex_quad_chunked_refuses_more_than_40000_chunks(monkeypatch):
    steps = _counted_steps(monkeypatch)
    f = lambda s: cmath.exp(1j * s)
    with pytest.raises(QuadratureError, match=r"needs 167532 chunks of "
                       r"1\.9\*pi in phase, more than 40000"):
        complex_quad_chunked(f, 0.0, 1e6, 1.0)
    with pytest.raises(QuadratureError, match="needs 40001 chunks"):
        complex_quad_chunked(f, 0.0, 40000.5 * 1.9 * math.pi, 1.0)
    for rate in (math.inf, math.nan):
        with pytest.raises(QuadratureError, match=f"needs {rate} chunks"):
            complex_quad_chunked(f, 0.0, 1.0, rate)
    assert steps == []


def test_signed_tail_integral(monkeypatch):
    assert signed_tail_integral(3.0e4) == pytest.approx(1.0 / 6.0e4,
                                                        rel=1e-10)
    # amplified continuation: odd in the decay rate
    assert signed_tail_integral(-3.0e4) == pytest.approx(-1.0 / 6.0e4,
                                                         rel=1e-10)
    # the one tail shape, integrated at import, over each mode's rate: bit
    # for bit, with no rule step of its own
    steps = _counted_steps(monkeypatch)
    for rate in (10.0 ** (e / 4) for e in range(-12, 49)):  # 1e-3 to 1e12
        for k_im in (rate, -rate):
            assert signed_tail_integral(k_im) == math.copysign(
                oracles._UNIT_TAIL / (2 * abs(k_im)), k_im), k_im
    assert steps == []
    with pytest.raises(ValueError, match="neutral mode: semi-infinite "
                       "overlap diverges"):
        signed_tail_integral(0.0)


def test_curl_consistency_away_from_interfaces():
    for parity in PARITIES:
        sol = _mode(parity)
        depths = np.concatenate([
            -np.linspace(0.05, 1.5, 7) / sol.nu0.real,
            np.linspace(0.11, 0.93, 7) * GEOM.d,  # avoids the midplane node
            GEOM.d + np.linspace(0.05, 1.5, 7) / sol.nu0.real,
        ])
        worst = curl_consistency_error(sol, depths)
        assert worst < 1e-7


def test_curl_consistency_rejects_interface_and_node():
    sol = _mode(SYMMETRIC)
    with pytest.raises(ValueError, match="too close to an interface"):
        curl_consistency_error(sol, [0.0])
    with pytest.raises(ValueError, match="too close to an interface"):
        curl_consistency_error(sol, [0.3 * GEOM.d, GEOM.d + 5e-13])
    with pytest.raises(ValueError, match="has a node"):
        # the symmetric magnetic bracket has an exact node at the midplane
        curl_consistency_error(sol, [0.3 * GEOM.d, 0.5 * GEOM.d])
    with pytest.raises(ValueError, match="no sample depth"):
        curl_consistency_error(sol, [])


def test_thick_film_degeneracy_report():
    report = thick_film_degeneracy(
        make_medium_set(METAL, DielectricSpec(1.9726, -0.081), 4.8e15), 2e-6)
    assert report["rel_split"] < 1e-10
    assert report["rel_offset_symmetric"] < 1e-12
    assert report["rel_offset_antisymmetric"] < 1e-12
    # all three wavenumbers really are present and close together
    ks = (report["k_symmetric"], report["k_antisymmetric"],
          report["k_single_interface"])
    assert max(abs(a - b) for a in ks for b in ks) < 1e-6 * abs(ks[0])


def test_contour_roots_thick_film_single_interface_limit():
    # a 2 um film decouples its surfaces: both modes sit on the textbook
    # single-interface root k0*sqrt(eps_m*eps_d/(eps_m + eps_d))
    for n_real, kappa in ((0.9726, -0.08), (1.9726, -0.081), (0.9726, 0.02)):
        media = make_medium_set(METAL, DielectricSpec(n_real, kappa), 4.8e15)
        textbook = media.k0 * cmath.sqrt(
            media.eps_m * media.eps_d / (media.eps_m + media.eps_d))
        roots = contour_slab_roots(SlabGeometry(2e-6), media)
        assert set(roots) == {p.name for p in PARITIES}
        for k in roots.values():
            assert abs(k - textbook) <= 1e-9 * abs(textbook)


def test_contour_roots_refuse_uncertified_disks():
    media = make_medium_set(METAL, DielectricSpec(0.9726, -0.08), 4.8e15)
    # at eps_d == 0 the center and the cladding branch point are both 0, so
    # the disk has zero clearance
    with pytest.raises(ContourError, match="branch point"):
        contour_slab_roots(GEOM, MediumSet(4.8e15, 0j, media.eps_m))
    # a 20 nm film pushes both modes out of the default disk
    with pytest.raises(ContourError, match="counts"):
        contour_slab_roots(SlabGeometry(20e-9), media)
    # at eps_m + eps_d == 0 the disk has no center
    with pytest.raises(ContourError, match="no single-interface center"):
        contour_slab_roots(GEOM, MediumSet(4.8e15, 2.25 + 0.1j, -2.25 - 0.1j))


def test_quadrature_error_raised_for_hopeless_integrand():
    # sign-flipping noise with huge cancellation defeats the error gate
    rng = np.random.default_rng(7)
    noise = rng.normal(size=4096)

    def f(u):
        return noise[int(u * 4096.0) % 4096] * math.sin(1e6 * u)

    with pytest.raises(QuadratureError):
        complex_quad(f, 0.0, 1.0)


# Reference for the scalar integrands: the ndarray bracket and numpy-scalar
# integrand arithmetic the oracles used before.  The oracles must reproduce
# it bit for bit, so the verify report cannot drift with the rewrite.  As in
# the oracles, the two cladding tails are summed at each node of the decay
# variable and integrated over the one window, from the oracles' start mesh.

_TAIL = 40.0
_TAIL_EDGES = (0.0, 10.0, 20.0, 40.0)

def _ndarray_bracket(sol, z):
    k = sol.k_spp
    nu0 = sol.nu0
    num = sol.num
    pm = sol.parity.pm
    d = sol.geom.d
    if z < 0.0:
        e = cmath.exp(nu0 * z)
        return np.array([e, (-1j * k / nu0) * e])
    if z <= d:
        a = sol.amplitude
        e1 = cmath.exp(-num * z)
        e2 = cmath.exp(num * (z - d))
        bx = a * (e1 + pm * e2)
        bz = a * (1j * k / num) * (e1 - pm * e2)
        return np.array([bx, bz])
    e = cmath.exp(-nu0 * (z - d))
    return np.array([pm * e, pm * (1j * k / nu0) * e])


def _python(f, kind):
    """``f`` with its numpy-scalar value handed to the rule as ``kind``.

    The conversion is exact; it keeps the rule's own arithmetic (sums,
    moduli) out of the comparison, which is about the integrand's values.
    """
    return lambda u: kind(f(u))


def _reference_weighted_abs2(sol, w_d, w_m):
    d = sol.geom.d
    s = 2.0 * sol.nu0.real

    def dens(z):
        b = _ndarray_bracket(sol, z)
        return abs(b[0]) ** 2 + abs(b[1]) ** 2

    total = 0.0
    if w_d != 0.0:
        tails = complex_quad(
            _python(lambda u: (dens(-u / s) + dens(d + u / s)) / s, float),
            *_TAIL_EDGES)
        total += w_d * tails
    if w_m != 0.0:
        total += w_m * complex_quad(_python(dens, float), 0.0, d)
    return total


def _reference_normalization(sol):
    d = sol.geom.d
    eps_d = sol.media.eps_d
    eps_m = sol.media.eps_m
    s = 2.0 * sol.nu0.real

    def pair(z):
        b = _ndarray_bracket(sol, z)
        return b[0] * b[0] - b[1] * b[1]

    return (eps_d * complex_quad(
                _python(lambda u: (pair(-u / s) + pair(d + u / s)) / s,
                        complex), *_TAIL_EDGES)
            + eps_m * complex_quad(_python(pair, complex), 0.0, d))


def _reference_h_bracket(sol, z):
    """The magnetic-type bracket, every factor formed at each depth."""
    k = sol.k_spp
    if z < 0.0:
        nu0 = sol.nu0
        return (nu0 - k * k / nu0) * cmath.exp(nu0 * z)
    pm = sol.parity.pm
    d = sol.geom.d
    if z <= d:
        num = sol.num
        a = sol.amplitude
        e1 = cmath.exp(-num * z)
        e2 = cmath.exp(num * (z - d))
        return a * ((-num + k * k / num) * e1 + pm * (num - k * k / num) * e2)
    nu0 = sol.nu0
    return pm * (-nu0 + k * k / nu0) * cmath.exp(-nu0 * (z - d))


def _reference_curl_error(sol, z, h=1e-12):
    bx_p = _ndarray_bracket(sol, z + h)[0]
    bx_m = _ndarray_bracket(sol, z - h)[0]
    bz = _ndarray_bracket(sol, z)[1]
    fd = (bx_p - bx_m) / (2.0 * h) - 1j * sol.k_spp * bz
    ref = _reference_h_bracket(sol, z)
    return abs(fd - ref) / abs(ref)


_CLADDINGS = pytest.mark.parametrize("kappa", (-0.063, 0.02),
                                     ids=("gain", "loss"))
_PARITIES = pytest.mark.parametrize("parity", PARITIES,
                                    ids=lambda p: p.name)


@_CLADDINGS
@_PARITIES
def test_normalization_quadrature_matches_ndarray_reference(parity, kappa):
    sol = _mode(parity, kappa)
    assert normalization_quadrature(sol) == _reference_normalization(sol)


@_CLADDINGS
@_PARITIES
def test_weighted_abs2_matches_ndarray_reference(parity, kappa):
    sol = _mode(parity, kappa)
    t_clad, t_film = weighted_abs2_quadrature(sol)
    for w_d, w_m in (_noise_amplitudes(sol.media),
                     (sol.media.eps_d.imag, sol.media.eps_m.imag)):
        assert (w_d * t_clad + w_m * t_film
                == _reference_weighted_abs2(sol, w_d, w_m))


@_CLADDINGS
@_PARITIES
def test_weighted_abs2_matches_overlap_terms(parity, kappa):
    """The quadrature twin of the closed-form region integrals, term by term."""
    sol = _mode(parity, kappa)
    for numeric, closed in zip(weighted_abs2_quadrature(sol),
                               overlap_terms(sol), strict=True):
        assert numeric > 0.0
        assert numeric == pytest.approx(closed, rel=1e-10)


@_CLADDINGS
@_PARITIES
@pytest.mark.parametrize("cladding", ("lower", "upper"))
def test_merged_tails_see_each_cladding(monkeypatch, cladding, parity, kappa):
    """The one tail window integrates both claddings: a profile scaled by
    1 + 1e-6 in one cladding alone moves both z-oracles off their closed
    forms, which they otherwise meet to 1e-10."""
    sol = _mode(parity, kappa)
    d = sol.geom.d

    def scaled_bracket_of(mode):
        bracket = bracket_of(mode)

        def scaled(z):
            bx, bz = bracket(z)
            if (z < 0.0) if cladding == "lower" else (z > d):
                return bx * (1.0 + 1e-6), bz * (1.0 + 1e-6)
            return bx, bz
        return scaled

    monkeypatch.setattr(oracles, "bracket_of", scaled_bracket_of)
    t_clad, _ = weighted_abs2_quadrature(sol)
    assert abs(t_clad / overlap_terms(sol)[0] - 1.0) > 1e-7
    assert abs(normalization_quadrature(sol) / normalization(sol) - 1.0) > 1e-7


@_CLADDINGS
@_PARITIES
def test_curl_consistency_matches_ndarray_reference(parity, kappa):
    sol = _mode(parity, kappa)
    zc = 1.0 / sol.nu0.real
    # the verify depth grid, 20 depths per region: a rounding change in the
    # finite difference shows at a few of them, not at any chosen one
    depths = np.concatenate([
        -np.linspace(0.05, 2.0, 20) * zc,
        np.linspace(0.0321, 0.9679, 20) * GEOM.d,
        GEOM.d + np.linspace(0.05, 2.0, 20) * zc,
    ])
    reference = [_reference_curl_error(sol, z) for z in depths]
    for z, expected in zip(depths, reference):
        assert curl_consistency_error(sol, [z]) == expected
    assert curl_consistency_error(sol, depths) == max(reference)


@_CLADDINGS
@_PARITIES
def test_h_field_bracket_of_matches_per_depth_reference(parity, kappa):
    """The hoisted per-mode factors keep every bit of the per-depth form,
    in both claddings, on both interfaces and inside the film."""
    sol = _mode(parity, kappa)
    h_bracket = h_field_bracket_of(sol)
    zc = 1.0 / sol.nu0.real
    depths = ([-t * zc for t in (3.0, 1.0, 0.05)]
              + [0.0, 1e-12, 0.3 * GEOM.d, 0.5 * GEOM.d, 0.97 * GEOM.d, GEOM.d]
              + [GEOM.d + t * zc for t in (1e-4, 0.7, 2.5)])
    for z in depths:
        value = h_bracket(z)
        reference = _reference_h_bracket(sol, z)
        assert (value.real.hex(), value.imag.hex()) == (
            reference.real.hex(), reference.imag.hex()), z


@_CLADDINGS
@_PARITIES
def test_bracket_of_matches_ndarray_reference(parity, kappa):
    """The hoisted per-mode factors keep every bit of the per-depth form."""
    sol = _mode(parity, kappa)
    bracket = bracket_of(sol)
    zc = 1.0 / sol.nu0.real
    depths = ([-t * zc for t in (3.0, 1.0, 0.05)]
              + [0.0, 1e-12, 0.3 * GEOM.d, 0.5 * GEOM.d, 0.97 * GEOM.d, GEOM.d]
              + [GEOM.d + t * zc for t in (1e-4, 0.7, 2.5)])
    for z in depths:
        reference = tuple(_ndarray_bracket(sol, z))
        assert bracket(z) == reference, z


# Reference for the rule: scipy's QUADPACK ``quad`` (complex integrands in
# separate real and imaginary passes), with the tolerances ``quad`` uses.
# The oracles run their own integrands through it in place of ``quad``.

def _scipy_quad(f, *edges):
    from scipy.integrate import IntegrationWarning
    from scipy.integrate import quad as scipy_quad

    a, *interior, b = edges
    probe = f(a if math.isfinite(a) else b)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, err = scipy_quad(f, a, b, complex_func=isinstance(probe, complex),
                              points=interior or None, epsabs=0.0,
                              epsrel=1e-11, limit=300)
    return val, abs(err)


def _oracle_values(sol):
    """Every quadrature oracle of the verify pass for one mode."""
    alpha_d, alpha_m = _noise_amplitudes(sol.media)
    t_clad, t_film = weighted_abs2_quadrature(sol)
    k = sol.k_spp
    ell = min(1.0 / abs(k.imag), 400.0 * math.pi / k.real)
    x, x_prime = 1.531 * ell, 0.214 * ell  # the verify cross-direction pair
    ik, mik_conj = 1j * k, -1j * k.conjugate()

    def cross(s):
        return cmath.exp(ik * (x - s)) * cmath.exp(mik_conj * (s - x_prime))

    return {
        "normalization": normalization_quadrature(sol),
        "noise_weights": alpha_d * t_clad + alpha_m * t_film,
        "im_eps_weights": (sol.media.eps_d.imag * t_clad
                           + sol.media.eps_m.imag * t_film),
        "cross_x_integral": complex_quad_chunked(cross, x_prime, x,
                                                 2.0 * k.real),
    }


# the benchmark's verify configurations: n_real 0.9726, two claddings
_VERIFY_POINTS = [(omega, d) for omega in (2e15, 3e15, 4.8e15, 6e15, 7e15)
                  for d in (20e-9, 60e-9, 200e-9)]


@_CLADDINGS
@pytest.mark.parametrize("omega, d", _VERIFY_POINTS,
                         ids=[f"{w:.2g}-{d * 1e9:.0f}nm"
                              for w, d in _VERIFY_POINTS])
def test_oracles_match_scipy_quadpack(monkeypatch, omega, d, kappa):
    media = make_medium_set(METAL, DielectricSpec(0.9726, kappa), omega)
    for parity in PARITIES:
        sol = solve_dispersion(parity, SlabGeometry(d), media)
        native = _oracle_values(sol)
        with monkeypatch.context() as m:
            m.setattr(oracles, "quad", _scipy_quad)
            reference = _oracle_values(sol)
        for name, value in native.items():
            assert value == pytest.approx(reference[name], rel=1e-12,
                                          abs=0), (parity.name, name)


# The window against the whole tail: the same integrands, each tail
# integrated by scipy's ``quad`` (QUADPACK's dqagie on a semi-infinite
# interval, through ``_scipy_quad``) in place of the package's, at both
# parities of the benchmark's verify configurations and of their 2 um thick
# film.  The part the window leaves out is at most exp(-40) of the
# integrand at the interface.

_THICK_POINTS = [(omega, 2e-6) for omega in dict.fromkeys(
    omega for omega, _ in _VERIFY_POINTS)]


def _tail_oracles(sol):
    t_clad, t_film = weighted_abs2_quadrature(sol)
    return {
        "claddings": t_clad,
        "film": t_film,
        "normalization": normalization_quadrature(sol),
    }


@_CLADDINGS
@pytest.mark.parametrize("omega, d", _VERIFY_POINTS + _THICK_POINTS,
                         ids=[f"{w:.2g}-{d * 1e9:.0f}nm"
                              for w, d in _VERIFY_POINTS + _THICK_POINTS])
def test_tail_window_matches_semi_infinite_quad(monkeypatch, omega, d,
                                                 kappa):
    assert oracles._TAIL_EDGES == _TAIL_EDGES
    media = make_medium_set(METAL, DielectricSpec(0.9726, kappa), omega)
    for parity in PARITIES:
        sol = solve_dispersion(parity, SlabGeometry(d), media)
        window = _tail_oracles(sol)
        with monkeypatch.context() as m:
            m.setattr(oracles, "_TAIL_EDGES", (0.0, math.inf))
            m.setattr(oracles, "quad", _scipy_quad)
            whole = _tail_oracles(sol)
        for name, value in window.items():
            assert value == pytest.approx(whole[name], rel=1e-14,
                                          abs=0), (parity.name, name)


@_PARITIES
@pytest.mark.parametrize("oracle", (weighted_abs2_quadrature,
                                    normalization_quadrature),
                         ids=("weighted_abs2", "normalization"))
def test_tail_start_mesh_drops_only_the_rejected_steps(monkeypatch, oracle,
                                                       parity):
    """The start mesh holds the leaves that bisecting the whole window
    reaches first: starting there takes the same steps as starting from
    [0, 40], but for the two the adaptive loop would reject."""
    assert oracles._TAIL_EDGES == _TAIL_EDGES
    assert _TAIL_EDGES == (0.0, _TAIL / 4, _TAIL / 2, _TAIL)
    sol = _mode(parity, -0.063)  # the default verify mode
    steps = _counted_steps(monkeypatch)
    value = oracle(sol)
    meshed = list(steps)
    steps.clear()
    monkeypatch.setattr(oracles, "_TAIL_EDGES", (0.0, _TAIL))
    assert oracle(sol) == pytest.approx(value, rel=1e-15, abs=0)
    whole = list(steps)
    rejected = [(0.0, _TAIL), (0.0, _TAIL / 2)]
    assert all(step in whole for step in rejected)
    assert Counter(whole) - Counter(rejected) == Counter(meshed)
    assert len(whole) - len(meshed) == 2


def test_unit_tail_matches_scipy_quad():
    """The x-tail's shape, integrated once at import, against scipy's
    ``quad`` over the same window, as every oracle is checked, and over the
    whole semi-infinite tail, as the windowed tails are."""
    def f(u):
        return math.exp(-u)

    assert oracles._UNIT_TAIL == pytest.approx(
        _scipy_quad(f, 0.0, _TAIL)[0], rel=1e-12, abs=0)
    assert oracles._UNIT_TAIL == pytest.approx(
        _scipy_quad(f, 0.0, math.inf)[0], rel=1e-14, abs=0)


# Reference copies of the ndarray code two oracles ran before they became
# scalar Python: the vectorised contour sum of ``contour_slab_roots`` and the
# ``np.outer``/``np.linalg.norm`` form of ``green_identity_check``.  numpy's
# complex products and sums round differently from Python's, so the two
# agree to rounding, not bit for bit.

def _ndarray_continued_sqrt(k, beta, center):
    s_c = cmath.sqrt(center * center - beta * beta)
    if s_c.real < 0.0:
        s_c = -s_c
    return (s_c * np.sqrt((k - beta) / (center - beta))
            * np.sqrt((k + beta) / (center + beta)))


def _reference_contour_roots(geom, media):
    k0 = media.k0
    eps_d, eps_m = media.eps_d, media.eps_m
    d = geom.d
    center = k0 * cmath.sqrt(eps_m * eps_d / (eps_m + eps_d))
    betas = (k0 * cmath.sqrt(eps_d), k0 * cmath.sqrt(eps_m))
    radius = 0.5 * min(abs(center - s * b) for b in betas for s in (1, -1))
    z = np.exp(2j * np.pi * np.arange(256) / 256)
    k = center + radius * z
    nu0 = _ndarray_continued_sqrt(k, betas[0], center)
    num = _ndarray_continued_sqrt(k, betas[1], center)
    p = eps_m * nu0 + eps_d * num
    m = eps_m * nu0 - eps_d * num
    e = np.exp(-num * d)
    dp = k * (eps_m / nu0 + eps_d / num)
    dme = (k * (eps_m / nu0 - eps_d / num) - d * (k / num) * m) * e
    roots = {}
    for parity, sign in ((SYMMETRIC, -1.0), (ANTISYMMETRIC, 1.0)):
        w = radius * z * (dp + sign * dme) / (p + sign * m * e)
        roots[parity.name] = center + radius * complex(np.mean(w * z))
    return roots


@_CLADDINGS
@pytest.mark.parametrize("n_real, d", [(0.9726, 60e-9), (1.9726, 60e-9),
                                       (0.9726, 2e-6)],
                         ids=["n0.97-60nm", "n1.97-60nm", "n0.97-2um"])
def test_contour_roots_match_ndarray_reference(n_real, d, kappa):
    geom = SlabGeometry(d)
    media = make_medium_set(METAL, DielectricSpec(n_real, kappa), 4.8e15)
    roots = contour_slab_roots(geom, media)
    reference = _reference_contour_roots(geom, media)
    assert set(roots) == set(reference) == {p.name for p in PARITIES}
    for name, k in roots.items():
        assert abs(k - reference[name]) <= 1e-13 * abs(reference[name]), name


def _reference_green_identity(sol, z_terms):
    k = sol.k_spp
    kr, ki = k.real, k.imag
    dsq = abs(green_coefficient(sol).d_value) ** 2
    gamma_closed = gamma_prime(sol)
    t_clad, t_film = z_terms
    gamma_quad = sol.media.eps_d.imag * t_clad + sol.media.eps_m.imag * t_film
    tail = signed_tail_integral(ki)
    ell = 1.0 / max(abs(ki), abs(kr) / 20.0)
    zc = 0.4 / sol.nu0.real
    d = sol.geom.d
    samples = [
        ((0.0, -zc), (0.0, 0.5 * d)),
        ((0.8 * ell, 0.5 * d), (0.0, d + zc)),
        ((0.3 * ell, d + 0.7 * zc), (1.7 * ell, -0.5 * zc)),
        ((0.2 * ell, 0.25 * d), (0.2 * ell, 0.75 * d)),
    ]
    bracket = bracket_of(sol)
    worst = 0.0
    for (xa, za), (xb, zb) in samples:
        outer = np.outer(bracket(za), np.conj(bracket(zb)))
        lhs = dsq * gamma_quad * _x_overlap_numeric(k, xa, xb, tail) * outer
        delta = abs(xa - xb)
        braces = (cmath.exp(1j * k * delta) / k
                  + cmath.exp(-1j * k.conjugate() * delta) / k.conjugate())
        rhs = (dsq * gamma_closed * abs(k) ** 2 / (2.0 * kr * ki)
               * braces) * outer
        worst = max(worst, np.linalg.norm(lhs - rhs) / np.linalg.norm(rhs))
    return worst


@_CLADDINGS
@_PARITIES
@pytest.mark.parametrize("omega, d", _VERIFY_POINTS + _THICK_POINTS,
                         ids=[f"{w:.2g}-{d * 1e9:.0f}nm"
                              for w, d in _VERIFY_POINTS + _THICK_POINTS])
def test_green_identity_matches_ndarray_reference(omega, d, parity, kappa):
    """The scalar check equals the tensor form, with ``D`` and all four
    (x, z) pairs, over the benchmark's verify modes and their thick films."""
    media = make_medium_set(METAL, DielectricSpec(0.9726, kappa), omega)
    sol = solve_dispersion(parity, SlabGeometry(d), media)
    z_terms = weighted_abs2_quadrature(sol)
    assert green_identity_check(sol, z_terms) == pytest.approx(
        _reference_green_identity(sol, z_terms), rel=0, abs=1e-15)
