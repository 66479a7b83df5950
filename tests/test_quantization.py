import cmath
import json
import math
from pathlib import Path

import pytest

from slabspp import oracles
from slabspp import (
    CROSS_DIRECTION,
    EPS0,
    HBAR,
    PARITIES,
    SAME_DIRECTION,
    SYMMETRIC,
    DielectricSpec,
    DrudeMetalSpec,
    SlabGeometry,
    beta_prime,
    ccr_check,
    commutator,
    commutator_numeric,
    excess_noise_factor,
    gamma_prime,
    green_identity_check,
    make_medium_set,
    overlap_terms,
    parity_from_name,
    solve_dispersion,
)
from slabspp.oracles import weighted_abs2_quadrature
from slabspp.quantization import _x_overlap_integrand

METAL = DrudeMetalSpec(14.02e15, 6.25e13)
GEOM = SlabGeometry(60e-9)


def _mode(kappa=-0.08, parity=SYMMETRIC, omega=4.8e15):
    media = make_medium_set(METAL, DielectricSpec(0.9726, kappa), omega)
    return solve_dispersion(parity, GEOM, media), media


def _gamma_magnitudes(sol):
    """gamma_prime with |Im eps| for signed Im eps, as ccr_check weights it."""
    t_clad, t_film = overlap_terms(sol)
    return (abs(sol.media.eps_d.imag) * t_clad
            + abs(sol.media.eps_m.imag) * t_film)


def test_overlap_terms_frozen():
    sol, _ = _mode()
    t_clad, t_film = overlap_terms(sol)
    assert t_clad == pytest.approx(1.1221238857727994e-06, rel=1e-12)
    assert t_film == pytest.approx(2.6849819945116405e-08, rel=1e-12)
    assert t_clad > 0 and t_film > 0


def test_beta_prime_matches_quadrature():
    for kappa in (0.0, -0.08):
        for parity in PARITIES:
            sol, media = _mode(kappa, parity)
            scale = 2.0 * HBAR * media.omega**2 * EPS0
            closed = beta_prime(sol)
            t_clad, t_film = weighted_abs2_quadrature(sol)
            quad = (scale * abs(media.eps_d.imag) * t_clad
                    + scale * abs(media.eps_m.imag) * t_film)
            assert closed == pytest.approx(quad, rel=1e-9)


def test_beta_prime_frozen():
    sol, _ = _mode()
    assert beta_prime(sol) == pytest.approx(7.641638269517958e-21, rel=1e-12)


def test_gamma_prime_flavors():
    sol, _ = _mode()
    mag = _gamma_magnitudes(sol)
    signed = gamma_prime(sol)
    assert mag == pytest.approx(1.77602516068208e-07, rel=1e-12)
    assert signed == pytest.approx(-1.7163834514863186e-07, rel=1e-12)
    # with a gain cladding the two flavors genuinely differ
    assert mag != signed


def test_ccr_exact_on_grid():
    for omega in (2e15, 4.8e15):
        for kappa in (0.0, -0.063, -0.08):
            for parity in PARITIES:
                sol, _ = _mode(kappa, parity, omega)
                assert abs(ccr_check(sol) - 1.0) <= 1e-14


def test_ccr_ratio_of_frozen_weights():
    sol, media = _mode()
    beta = beta_prime(sol)
    gamma = _gamma_magnitudes(sol)
    assert beta == pytest.approx(7.641638269517958e-21, rel=1e-12)
    assert gamma == pytest.approx(1.77602516068208e-07, rel=1e-12)
    ratio = beta / (2.0 * HBAR * EPS0 * media.omega**2 * gamma)
    assert ratio == pytest.approx(1.0, abs=1e-14)
    assert ccr_check(sol) == ratio


def test_ccr_check_is_exactly_the_ratio_of_the_weights():
    """``ccr_check`` weights one ``overlap_terms`` exactly as ``beta_prime``
    and ``gamma_prime`` do, on a gain and a loss cladding and on every root
    pinned in ``tests/golden/solver_roots.json``."""
    sols = [_mode(kappa)[0] for kappa in (-0.063, 0.02)]
    pinned = json.loads((Path(__file__).with_name("golden")
                         / "solver_roots.json").read_text())["points"]
    for entry in pinned:
        if "error" in entry["output"]:
            continue
        p = entry["input"]
        media = make_medium_set(
            METAL, DielectricSpec(p["n_real"], p["n_imag"]), p["omega"])
        sols.append(solve_dispersion(parity_from_name(p["parity"]),
                                     SlabGeometry(p["d"]), media))
    assert len(sols) > 70
    for sol in sols:
        gamma = _gamma_magnitudes(sol)
        ratio = beta_prime(sol) / (
            2.0 * HBAR * EPS0 * sol.media.omega**2 * gamma)
        assert ccr_check(sol) == ratio, sol


def test_same_direction_commutator_at_zero_separation():
    sol, _ = _mode()
    assert commutator(SAME_DIRECTION, 1.3e-7, 1.3e-7, sol) == 1.0 + 0.0j


def test_cross_direction_vanishes_backward(monkeypatch):
    """For ``x <= x'`` the cross-direction source region is empty: both
    commutators are ``0j``, and the quadrature one runs no quadrature."""
    sol, _ = _mode()

    def no_quadrature(*args):
        raise AssertionError("quadrature over an empty source region")

    monkeypatch.setattr(oracles, "complex_quad_chunked", no_quadrature)
    for x_prime in (1.0e-7, 2.0e-7):
        assert commutator(CROSS_DIRECTION, 1.0e-7, x_prime, sol) == 0.0
        value = commutator_numeric(CROSS_DIRECTION, 1.0e-7, x_prime, sol,
                                   overlap_terms(sol))
        assert value == 0j and type(value) is complex


def test_commutator_frozen_values():
    sol, _ = _mode()
    same = commutator(SAME_DIRECTION, 3.1e-7, 1.17e-7, sol)
    cross = commutator(CROSS_DIRECTION, 3.1e-7, 1.17e-7, sol)
    assert same == pytest.approx(-1.3520385303529285 - 0.16639407959071625j,
                                 rel=1e-12)
    assert cross == pytest.approx(0.03151754082155566 + 0j, rel=1e-12)


def test_commutator_closed_vs_numeric():
    for kappa in (0.0, -0.08):
        sol, _ = _mode(kappa)
        z_terms = weighted_abs2_quadrature(sol)
        ell = min(1.0 / abs(sol.k_spp.imag), 400 * math.pi / sol.k_spp.real)
        for (x, xp) in ((0.93 * ell, 0.317 * ell), (1.21 * ell, 0.43 * ell)):
            for kind in (SAME_DIRECTION, CROSS_DIRECTION):
                closed = commutator(kind, x, xp, sol)
                numeric = commutator_numeric(kind, x, xp, sol, z_terms)
                assert abs(closed - numeric) <= 1e-9 * max(
                    abs(closed), abs(numeric)), (kappa, kind)


def test_transparent_mode_is_refused_by_the_launch_weights():
    """beta_prime is 0 when neither medium absorbs nor amplifies; the
    commutators divided by it are refused instead of being 0/0."""
    media = make_medium_set(DrudeMetalSpec(14.02e15, 0.0),
                            DielectricSpec(0.9726, 0.0), 4.8e15)
    sol = solve_dispersion(SYMMETRIC, GEOM, media)
    assert beta_prime(sol) == 0.0
    message = "beta_prime = 0: a mode whose media neither absorb nor amplify"
    with pytest.raises(ValueError, match=message):
        ccr_check(sol)
    # the mode is neutral, so its x-tail is refused too, but only after the
    # launch weight
    for kind in (SAME_DIRECTION, CROSS_DIRECTION):
        with pytest.raises(ValueError, match=message):
            commutator_numeric(kind, 2e-7, 1e-7, sol, overlap_terms(sol))


def test_unknown_kind_rejected():
    sol, _ = _mode()
    with pytest.raises(ValueError):
        commutator("sideways", 1e-7, 0.0, sol)
    with pytest.raises(ValueError, match="unknown commutator kind 'sideways'"):
        commutator_numeric("sideways", 1e-7, 0.0, sol, overlap_terms(sol))


def test_green_identity_gain_and_loss():
    for kappa in (-0.08, 0.063):
        for parity in PARITIES:
            sol, _ = _mode(kappa, parity)
            z_terms = weighted_abs2_quadrature(sol)
            assert green_identity_check(sol, z_terms) < 1e-10


def test_excess_noise_factor_is_the_noise_per_net_gain():
    """F = beta_prime/(2 hbar eps0 omega^2 |gamma_prime|): at least 1, and
    exactly 1 where the metal alone absorbs."""
    for kappa in (-0.08, -0.02, 0.0, 0.063):
        for parity in PARITIES:
            sol, media = _mode(kappa, parity)
            factor = excess_noise_factor(sol)
            expected = beta_prime(sol) / (2.0 * HBAR * EPS0 * media.omega**2
                                          * abs(gamma_prime(sol)))
            assert factor == pytest.approx(expected, rel=1e-14)
            assert factor >= 1.0
            if kappa == 0.0:
                assert factor == 1.0


def test_excess_noise_factor_of_transparent_media_is_infinite():
    media = make_medium_set(DrudeMetalSpec(14.02e15, 0.0),
                            DielectricSpec(0.9726, 0.0), 4.8e15)
    sol = solve_dispersion(SYMMETRIC, GEOM, media)
    assert gamma_prime(sol) == 0.0
    assert excess_noise_factor(sol) == math.inf



@pytest.mark.parametrize("order", ("x>x'", "x<x'"))
def test_x_overlap_integrand_matches_its_abs_form(order):
    """Between x and x' the integrand negates its exponent factors where
    the differences are negative; every value is the one the ``abs`` of
    each difference gives."""
    sol, _ = _mode()
    k = sol.k_spp
    x, x_prime = (1.7e-6, 0.3e-6) if order == "x>x'" else (0.3e-6, 1.7e-6)
    ik, mik_conj = 1j * k, -1j * k.conjugate()
    integrand = _x_overlap_integrand(k, x, x_prime)
    lo, hi = min(x, x_prime), max(x, x_prime)
    for j in range(1, 200):
        s = lo + (hi - lo) * j / 200
        assert integrand(s) == cmath.exp(ik * abs(x - s)
                                         + mik_conj * abs(s - x_prime)), s
