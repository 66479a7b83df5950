import cmath

import numpy as np
import pytest

from slabspp import (
    ANTISYMMETRIC,
    PARITIES,
    SYMMETRIC,
    DegenerateResidue,
    DielectricSpec,
    DrudeMetalSpec,
    ModeSolution,
    SlabGeometry,
    green_coefficient,
    green_tensor,
    make_medium_set,
    bracket_of,
    normalization,
    solve_dispersion,
)
from slabspp.oracles import normalization_quadrature

METAL = DrudeMetalSpec(14.02e15, 6.25e13)
GEOM = SlabGeometry(60e-9)


def _solution(parity=SYMMETRIC, kappa=-0.08):
    media = make_medium_set(METAL, DielectricSpec(0.9726, kappa), 4.8e15)
    return solve_dispersion(parity, GEOM, media)


def test_tangential_component_continuous():
    for parity in PARITIES:
        sol = _solution(parity)
        pm = parity.pm
        bracket = bracket_of(sol)
        # cladding-side limits are (1, .) below and (pm, .) above
        assert bracket(0.0)[0] == pytest.approx(1.0, rel=1e-13)
        assert bracket(GEOM.d)[0] == pytest.approx(pm, rel=1e-13)


def test_displacement_component_continuous():
    """eps(z) * b_z must match across both interfaces at a true root."""
    for parity in PARITIES:
        sol = _solution(parity)
        eps_d = sol.media.eps_d
        eps_m = sol.media.eps_m
        k = sol.k_spp
        below = eps_d * (-1j * k / sol.nu0)  # cladding value at z -> 0-
        at0 = eps_m * bracket_of(sol)(0.0)[1]
        assert at0 == pytest.approx(below, rel=1e-12)
        above = eps_d * parity.pm * (1j * k / sol.nu0)  # z -> d+
        atd = eps_m * bracket_of(sol)(GEOM.d)[1]
        assert atd == pytest.approx(above, rel=1e-12)


def test_parity_reflection_symmetry():
    """b_x is even/odd about the midplane, b_z the opposite."""
    for parity in PARITIES:
        sol = _solution(parity)
        pm = parity.pm
        bracket = bracket_of(sol)
        for dz in (0.1 * GEOM.d, 0.27 * GEOM.d, 0.44 * GEOM.d):
            lo = bracket(0.5 * GEOM.d - dz)
            hi = bracket(0.5 * GEOM.d + dz)
            assert hi[0] == pytest.approx(pm * lo[0], rel=1e-12)
            assert hi[1] == pytest.approx(-pm * lo[1], rel=1e-12)


def test_normalization_frozen():
    n = normalization(_solution())
    assert n == pytest.approx(8.44733644531343e-07 + 1.2096675739551472e-07j,
                              rel=1e-12)


def test_normalization_against_quadrature():
    for parity in PARITIES:
        for kappa in (0.0, -0.08):
            sol = _solution(parity, kappa)
            closed = normalization(sol)
            quad = normalization_quadrature(sol)
            assert abs(closed - quad) <= 1e-10 * abs(quad)


def test_green_coefficient_frozen():
    sol = _solution()
    gc = green_coefficient(sol)
    assert gc.d_value == pytest.approx(
        0.12961519147473613 - 0.00811895821586082j, rel=1e-12)
    # defining algebra, not just the frozen number
    assert gc.d_value == pytest.approx(
        -sol.media.eps_m / (4.0 * gc.n_prime * sol.k_spp), rel=1e-14)


def test_green_tensor_reciprocity():
    sol = _solution(ANTISYMMETRIC)
    r = (1.7e-7, -2.1e-8)
    rp = (4.4e-7, 3.3e-8)
    g = np.array(green_tensor(sol, r, rp))
    g_swapped = np.array(green_tensor(sol, rp, r))
    assert np.allclose(g, g_swapped.T, rtol=1e-13, atol=0)
    assert g.shape == (2, 2)


def test_green_tensor_separable():
    sol = _solution()
    r = (2.0e-7, 1.0e-8)
    rp = (5.0e-8, 4.0e-8)
    g = np.array(green_tensor(sol, r, rp))
    gc = green_coefficient(sol)
    b = bracket_of(sol)(r[1])
    bp = bracket_of(sol)(rp[1])
    phase = cmath.exp(1j * sol.k_spp * abs(r[0] - rp[0]))
    expected = -1j * gc.d_value * phase * np.outer(b, bp)
    assert np.allclose(g, expected, rtol=1e-13, atol=0)


def test_degenerate_residue_guard():
    good = _solution()
    broken = ModeSolution(
        parity=good.parity, k_spp=0j, nu0=good.nu0,
        num=good.num, amplitude=good.amplitude, residual=good.residual,
        media=good.media, geom=good.geom)
    with pytest.raises(DegenerateResidue):
        green_coefficient(broken)
