"""Root finder and sweep behavior.

Frozen reference roots below were produced by this package's own solver and
cross-checked against the scaled-residual gate and the quadrature oracles;
they pin down regressions, not external truth.
"""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from slabspp import dispersion
from slabspp import (
    ANTISYMMETRIC,
    PARITIES,
    SYMMETRIC,
    BranchViolation,
    DielectricSpec,
    DispersionPole,
    DrudeMetalSpec,
    SlabGeometry,
    classify_mode,
    decay_constants,
    dispersion_residual,
    dispersion_sweep,
    gain_sweep,
    make_medium_set,
    parity_from_name,
    single_interface_root,
    solve_dispersion,
)
from slabspp.oracles import contour_slab_roots

METAL = DrudeMetalSpec(14.02e15, 6.25e13)
GEOM = SlabGeometry(60e-9)
OMEGA = 4.8e15

# (n_imag, parity) -> k_spp at omega=4.8e15, d=60nm, n_real=0.9726
FROZEN_ROOTS = {
    (0.0, "symmetric"): 16936692.69641577 + 27836.265266144055j,
    (0.0, "antisymmetric"): 16425785.102482336 + 10292.525895303297j,
    (-0.063, "symmetric"): 16922678.246713705 - 1255701.2777872316j,
    (-0.063, "antisymmetric"): 16413523.832970446 - 1180807.1571628132j,
    (-0.08, "symmetric"): 16912155.14176136 - 1601708.2499931862j,
    (-0.08, "antisymmetric"): 16405157.826380763 - 1501828.3562253641j,
}


def _media(kappa, n_real=0.9726, omega=OMEGA):
    return make_medium_set(METAL, DielectricSpec(n_real, kappa), omega)


def test_frozen_roots():
    for (kappa, parity_name), expected in FROZEN_ROOTS.items():
        sol = solve_dispersion(parity_from_name(parity_name), GEOM,
                               _media(kappa))
        assert sol.k_spp == pytest.approx(expected, rel=1e-12), (kappa,
                                                                 parity_name)
        assert sol.residual <= 1e-10


def test_residual_contract_at_root():
    # |f(k)| stays far below 1e-10 * |exp(nu_m d)| for a converged root
    sol = solve_dispersion(SYMMETRIC, GEOM, _media(-0.08))
    f = dispersion_residual(sol.k_spp, GEOM, sol.media, SYMMETRIC)
    gate = 1e-10 * abs(cmath.exp(sol.num * GEOM.d))
    assert abs(f) < gate


def test_solution_fields_consistent():
    sol = solve_dispersion(SYMMETRIC, GEOM, _media(-0.08))
    nu0, num = decay_constants(sol.k_spp, sol.media)
    assert sol.nu0 == nu0 and sol.num == num
    assert nu0.real > 0 and num.real > 0
    # amplitude is the slab matching factor 1/(1 + pm*exp(-nu_m d))
    pm = sol.parity.pm
    expected_a = 1.0 / (1.0 + pm * cmath.exp(-num * GEOM.d))
    assert sol.amplitude == pytest.approx(expected_a, rel=1e-14)
    assert sol.omega == OMEGA
    assert sol.geom.d == GEOM.d


def test_decay_constant_squares():
    media = _media(-0.063)
    k = 1.6e7 + 1e5j
    nu0, num = decay_constants(k, media)
    assert nu0 * nu0 == pytest.approx(k * k - media.eps_d * media.k0**2,
                                      rel=1e-14)
    assert num * num == pytest.approx(k * k - media.eps_m * media.k0**2,
                                      rel=1e-14)


def test_single_interface_root_balances():
    media = _media(-0.081, n_real=1.9726)
    k = single_interface_root(media)
    assert k == pytest.approx(45262241.83347206 - 3491245.885171195j,
                              rel=1e-13)
    nu0, num = decay_constants(k, media)
    assert abs(media.eps_m * nu0 + media.eps_d * num) < 1e-8 * abs(
        media.eps_m * nu0)


def test_parity_separation():
    """The high-k branch is the symmetric one for a thin film."""
    for kappa in (0.0, -0.063, -0.08):
        ks = solve_dispersion(SYMMETRIC, GEOM, _media(kappa)).k_spp
        ka = solve_dispersion(ANTISYMMETRIC, GEOM, _media(kappa)).k_spp
        assert ks.real > ka.real


def test_conjugate_media_conjugate_root():
    media = _media(-0.063)
    conj_media = make_medium_set(media.eps_m.conjugate(),
                                 media.eps_d.conjugate(), media.omega)
    for parity in PARITIES:
        k = solve_dispersion(parity, GEOM, media).k_spp
        kc = solve_dispersion(parity, GEOM, conj_media,
                              guess=k.conjugate()).k_spp
        assert kc == pytest.approx(k.conjugate(), rel=1e-12)


def test_lossless_root_is_real():
    eps_m_re = complex((1.0 - 14.02e15**2 / (4.8e15**2 + 6.25e13 * 4.8e15 * 1j)).real, 0.0)
    media = make_medium_set(eps_m_re, DielectricSpec(0.9726, 0.0), OMEGA)
    sol = solve_dispersion(SYMMETRIC, GEOM, media)
    assert sol.k_spp.imag == 0.0
    assert sol.regime == "neutral"
    assert sol.k_spp.real == pytest.approx(16937222.243914288, rel=1e-12)


def test_classify_mode():
    assert classify_mode(1e7 + 1.0j) == "attenuated"
    assert classify_mode(1e7 - 1.0j) == "amplified"
    assert classify_mode(complex(1e7, 0.0)) == "neutral"


def test_thin_film_guard():
    with pytest.raises(ValueError):
        SlabGeometry(0.0)
    with pytest.raises(ValueError):
        solve_dispersion(SYMMETRIC, SlabGeometry(1e-11), _media(0.0))


def test_dispersion_pole_guard():
    # engineered media where eps_m*nu0 == -eps_d*nu_m exactly in floats:
    # k=2, k0=1  =>  nu0^2=2, nu_m^2=8 exactly, nu_m = 2*nu0 bit-for-bit,
    # so r = (-4*nu0)/(2*nu_m) = -1 and the mirror-ratio denominator vanishes.
    from slabspp.media import C_LIGHT

    media = make_medium_set(complex(-4.0, 0.0), complex(2.0, 0.0), C_LIGHT)
    nu0, num = decay_constants(2.0 + 0j, media)
    assert num == 2.0 * nu0  # precondition for the exact pole
    with pytest.raises(DispersionPole):
        dispersion_residual(2.0 + 0j, GEOM, media, SYMMETRIC)


def test_thick_film_degenerates_to_single_interface():
    media = _media(-0.081, n_real=1.9726)
    thick = SlabGeometry(2e-6)
    ks = solve_dispersion(SYMMETRIC, thick, media).k_spp
    ka = solve_dispersion(ANTISYMMETRIC, thick, media).k_spp
    ksi = single_interface_root(media)
    assert abs(ks - ka) / abs(ks) < 1e-8
    assert abs(ks - ksi) / abs(ksi) < 1e-9
    assert abs(ka - ksi) / abs(ksi) < 1e-9


def test_sweep_no_failures_and_continuity():
    omegas = np.linspace(2e15, 6e15, 33)
    rows = dispersion_sweep(PARITIES, GEOM, METAL, DielectricSpec(0.9726, -0.063),
                            omegas)
    assert len(rows) == 2 * len(omegas)
    by_parity = {p.name: [] for p in PARITIES}
    for row in rows:
        assert row.error is None
        assert row.solution.residual <= 1e-10
        by_parity[row.parity.name].append(row.solution.k_spp)
    for ks in by_parity.values():
        ks = np.array(ks)
        # smooth branch: successive steps stay small and Re(k) increases
        steps = np.abs(np.diff(ks)) / np.abs(ks[:-1])
        assert steps.max() < 0.2
        assert np.all(np.diff(ks.real) > 0)


def test_sweep_direction_independent():
    omegas = np.linspace(2e15, 6e15, 17)
    fwd = dispersion_sweep((SYMMETRIC,), GEOM, METAL,
                           DielectricSpec(0.9726, -0.063), omegas)
    rev = dispersion_sweep((SYMMETRIC,), GEOM, METAL,
                           DielectricSpec(0.9726, -0.063), omegas[::-1])
    fwd_map = {row.x: row.solution.k_spp for row in fwd}
    for row in rev:
        assert row.solution.k_spp == pytest.approx(fwd_map[row.x], rel=1e-9)


def test_gain_sweep_finds_sign_crossings():
    kappas = np.linspace(-0.01, 0.0, 21)
    result = gain_sweep(PARITIES, GEOM, METAL, 0.9726, kappas, OMEGA)
    assert len(result.rows) == 2 * len(kappas)
    for parity in PARITIES:
        crossing = result.crossings[parity.name]
        assert crossing is not None
        assert kappas[0] < crossing.kappa_star < kappas[-1]
        # at the reported crossing the growth rate really is (nearly) zero
        media = _media(crossing.kappa_star)
        sol = solve_dispersion(parity, GEOM, media,
                               guess=crossing.k_at_crossing)
        assert abs(sol.k_spp.imag) < 1e-3 * abs(
            solve_dispersion(parity, GEOM, _media(-0.01)).k_spp.imag)
    # regimes flip across the crossing
    first = [r for r in result.rows if r.parity is SYMMETRIC][0]
    last = [r for r in result.rows if r.parity is SYMMETRIC][-1]
    assert first.solution.regime == "amplified"
    assert last.solution.regime == "attenuated"


@pytest.mark.parametrize("n_real", [0.9726, 1.9726])
def test_gain_sweep_crossings_match_contour_oracle(n_real):
    """Refined crossings agree with the oracle's threshold to 1e-12."""
    kappas = np.linspace(-0.1, 0.0, 41)
    result = gain_sweep(PARITIES, GEOM, METAL, n_real, kappas, OMEGA)
    for parity in PARITIES:
        crossing = result.crossings[parity.name]
        assert crossing is not None, parity.name

        def im_k(kappa):
            roots = contour_slab_roots(GEOM, _media(kappa, n_real=n_real))
            return roots[parity.name].imag

        i = np.searchsorted(kappas, crossing.kappa_star)
        threshold = brentq(im_k, kappas[i - 1], kappas[i], xtol=1e-15)
        dev = abs(crossing.kappa_star - threshold) / abs(threshold)
        assert dev <= 1e-12, (parity.name, dev)
        k = crossing.k_at_crossing
        assert abs(k.imag) <= 1e-12 * k.real, (parity.name, k)


def test_gain_sweep_solve_count(monkeypatch):
    """Refining both crossings costs at most ten solves per parity."""
    calls = []
    real_solve = dispersion.solve_dispersion

    def counting_solve(*args, **kwargs):
        calls.append(args)
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(dispersion, "solve_dispersion", counting_solve)
    kappas = np.linspace(-0.1, 0.0, 41)
    result = gain_sweep(PARITIES, GEOM, METAL, 0.9726, kappas, OMEGA)
    assert all(c is not None for c in result.crossings.values())
    assert len(calls) <= 2 * len(kappas) + 2 * 10


def test_muller_fallback_root(monkeypatch):
    """A point where Newton fails from every seed and Muller converges."""
    calls = []
    real_muller = dispersion._muller

    def counting_muller(*args):
        calls.append(args)
        return real_muller(*args)

    monkeypatch.setattr(dispersion, "_muller", counting_muller)
    media = make_medium_set(
        METAL, DielectricSpec(2.239514158245674, 0.10237423201714438),
        8213894388051735.0)
    sol = solve_dispersion(SYMMETRIC, SlabGeometry(7.41448047205626e-07),
                           media)
    assert calls
    assert sol.residual <= 1e-10
    assert (sol.nu0, sol.num) == decay_constants(sol.k_spp, sol.media)


def test_gain_sweep_without_crossing():
    kappas = np.linspace(-0.08, -0.05, 7)
    result = gain_sweep((SYMMETRIC,), GEOM, METAL, 0.9726, kappas, OMEGA)
    assert result.crossings["symmetric"] is None
    assert all(r.solution.regime == "amplified" for r in result.rows)


def test_guess_is_respected():
    media = _media(0.0)
    ref = solve_dispersion(ANTISYMMETRIC, GEOM, media)
    sol = solve_dispersion(ANTISYMMETRIC, GEOM, media,
                           guess=ref.k_spp * (1 + 1e-4))
    assert sol.k_spp == pytest.approx(ref.k_spp, rel=1e-12)


def test_branch_violation_message_type():
    assert issubclass(BranchViolation, Exception)
    assert issubclass(DispersionPole, Exception)


@settings(deadline=None, max_examples=20)
@given(kappa=st.floats(-0.09, 0.09), d_nm=st.floats(30.0, 150.0))
def test_root_property(kappa, d_nm):
    geom = SlabGeometry(d_nm * 1e-9)
    media = _media(kappa)
    sol = solve_dispersion(SYMMETRIC, geom, media)
    assert sol.residual <= 1e-10
    assert sol.nu0.real > 0 and sol.num.real > 0
    assert sol.k_spp.real > 0
