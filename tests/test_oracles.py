import cmath
import math

import numpy as np
import pytest

from slabspp import (
    ANTISYMMETRIC,
    PARITIES,
    SYMMETRIC,
    DielectricSpec,
    DrudeMetalSpec,
    SlabGeometry,
    h_field_operator_bracket,
    make_medium_set,
    noise_amplitudes,
    solve_dispersion,
)
from slabspp.oracles import (
    ContourError,
    QuadratureError,
    _real_quad,
    complex_quad,
    contour_slab_roots,
    complex_quad_chunked,
    curl_consistency_error,
    normalization_quadrature,
    signed_tail_integral,
    thick_film_degeneracy,
    weighted_abs2_quadrature,
)

METAL = DrudeMetalSpec(14.02e15, 6.25e13)
GEOM = SlabGeometry(60e-9)


def _mode(parity=SYMMETRIC, kappa=-0.08):
    media = make_medium_set(METAL, DielectricSpec(0.9726, kappa), 4.8e15)
    return solve_dispersion(parity, GEOM, media)


def test_complex_quad_analytic():
    val = complex_quad(lambda u: cmath.exp(1j * u), 0.0, 1.0)
    assert val == pytest.approx((cmath.exp(1j) - 1.0) / 1j, rel=1e-12)


def test_complex_quad_chunked_matches_plain():
    omega = 240.0
    f = lambda u: cmath.exp(1j * omega * u) * (1.0 + u)
    chunked = complex_quad_chunked(f, 0.0, 2.0, omega)
    exact = ((1.0 + 2.0) * cmath.exp(2j * omega) - 1.0) / (1j * omega) \
        - (cmath.exp(2j * omega) - 1.0) / (1j * omega) ** 2
    assert chunked == pytest.approx(exact, rel=1e-10)


def test_complex_quad_chunked_empty_interval():
    assert complex_quad_chunked(lambda u: 1.0 + 0j, 1.0, 1.0, 5.0) == 0j
    assert complex_quad_chunked(lambda u: 1.0 + 0j, 2.0, 1.0, 5.0) == 0j


def test_signed_tail_integral():
    assert signed_tail_integral(3.0e4) == pytest.approx(1.0 / 6.0e4,
                                                        rel=1e-10)
    # amplified continuation: odd in the decay rate
    assert signed_tail_integral(-3.0e4) == pytest.approx(-1.0 / 6.0e4,
                                                         rel=1e-10)
    with pytest.raises(ValueError):
        signed_tail_integral(0.0)


def test_weighted_abs2_positive_and_scales():
    sol = _mode()
    one = weighted_abs2_quadrature(sol, 1.0, 1.0)
    scaled = weighted_abs2_quadrature(sol, 2.0, 2.0)
    assert one > 0.0
    assert scaled == pytest.approx(2.0 * one, rel=1e-10)
    clad_only = weighted_abs2_quadrature(sol, 1.0, 0.0)
    film_only = weighted_abs2_quadrature(sol, 0.0, 1.0)
    assert clad_only + film_only == pytest.approx(one, rel=1e-10)


def test_curl_consistency_away_from_interfaces():
    for parity in PARITIES:
        sol = _mode(parity)
        depths = np.concatenate([
            -np.linspace(0.05, 1.5, 7) / sol.nu0.real,
            np.linspace(0.11, 0.93, 7) * GEOM.d,  # avoids the midplane node
            GEOM.d + np.linspace(0.05, 1.5, 7) / sol.nu0.real,
        ])
        worst = max(curl_consistency_error(sol, z) for z in depths)
        assert worst < 1e-7


def test_curl_consistency_rejects_interface_and_node():
    sol = _mode(SYMMETRIC)
    with pytest.raises(ValueError):
        curl_consistency_error(sol, 0.0)
    with pytest.raises(ValueError):
        # the symmetric magnetic bracket has an exact node at the midplane
        curl_consistency_error(sol, 0.5 * GEOM.d)


def test_thick_film_degeneracy_report():
    report = thick_film_degeneracy(METAL, DielectricSpec(1.9726, -0.081),
                                   4.8e15, d=2e-6)
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
    k_si = media.k0 * cmath.sqrt(
        media.eps_m * media.eps_d / (media.eps_m + media.eps_d))
    light_line = media.k0 * cmath.sqrt(media.eps_d)  # cladding branch point
    with pytest.raises(ContourError, match="branch point"):
        contour_slab_roots(GEOM, media, radius=1.01 * abs(k_si - light_line))
    # a 20 nm film pushes both modes out of the default disk
    with pytest.raises(ContourError, match="counts"):
        contour_slab_roots(SlabGeometry(20e-9), media)


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
# it bit for bit, so the verify report cannot drift with the rewrite.

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


def _reference_weighted_abs2(sol, w_d, w_m):
    d = sol.geom.d
    s = 2.0 * sol.nu0.real

    def dens(z):
        b = _ndarray_bracket(sol, z)
        return abs(b[0]) ** 2 + abs(b[1]) ** 2

    total = 0.0
    if w_d != 0.0:
        lower = _real_quad(lambda u: dens(u / s) / s, -np.inf, 0.0)
        upper = _real_quad(lambda u: dens(d + u / s) / s, 0.0, np.inf)
        total += w_d * (lower + upper)
    if w_m != 0.0:
        total += w_m * _real_quad(dens, 0.0, d)
    return total


def _reference_normalization(sol):
    d = sol.geom.d
    eps_d = sol.media.eps_d
    eps_m = sol.media.eps_m
    s = 2.0 * sol.nu0.real

    def pair(z):
        b = _ndarray_bracket(sol, z)
        return b[0] * b[0] - b[1] * b[1]

    return (eps_d * complex_quad(lambda u: pair(u / s) / s, -np.inf, 0.0)
            + eps_m * complex_quad(pair, 0.0, d)
            + eps_d * complex_quad(lambda u: pair(d + u / s) / s, 0.0, np.inf))


def _reference_curl_error(sol, z, h=1e-12):
    bx_p = _ndarray_bracket(sol, z + h)[0]
    bx_m = _ndarray_bracket(sol, z - h)[0]
    bz = _ndarray_bracket(sol, z)[1]
    fd = (bx_p - bx_m) / (2.0 * h) - 1j * sol.k_spp * bz
    ref = h_field_operator_bracket(sol, sol.geom, z)
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
    amps = noise_amplitudes(sol.media)
    for w_d, w_m in ((amps.alpha_d, amps.alpha_m),
                     (sol.media.eps_d.imag, sol.media.eps_m.imag)):
        assert (weighted_abs2_quadrature(sol, w_d, w_m)
                == _reference_weighted_abs2(sol, w_d, w_m))


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
    for z in depths:
        assert curl_consistency_error(sol, z) == _reference_curl_error(sol, z)
