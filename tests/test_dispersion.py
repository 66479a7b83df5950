"""Root finder and sweep behavior.

Frozen reference roots below were produced by this package's own solver and
cross-checked against the scaled-residual gate and the quadrature oracles;
they pin down regressions, not external truth.
"""

import cmath
import json
import math
import random
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.optimize import brentq

from slabspp import dispersion
from slabspp import (
    ANTISYMMETRIC,
    PARITIES,
    SYMMETRIC,
    BranchViolation,
    C_LIGHT,
    DielectricSpec,
    DispersionError,
    DrudeMetalSpec,
    MediumSet,
    SlabGeometry,
    beta_prime,
    ccr_check,
    dielectric_epsilon,
    dispersion_sweep,
    gain_sweep,
    gamma_prime,
    green_coefficient,
    make_medium_set,
    parity_from_name,
    single_interface_root,
    solve_dispersion,
)
from slabspp.cli import load_config
from slabspp.dispersion import linspace
from slabspp.fields import auto_x_max
from slabspp.oracles import contour_slab_roots

from scan_box import box_point

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


def _principal_decay(k, media):
    """``(nu0, num)``: principal roots of ``k*k - eps*k0**2``, cladding, film.

    The principal root has ``Re >= 0``, the bound-mode branch, so this shares
    no code with the solver's branch choice.
    """
    k0sq = media.k0 * media.k0
    return (cmath.sqrt(k * k - media.eps_d * k0sq),
            cmath.sqrt(k * k - media.eps_m * k0sq))


def _exp_residual(k, geom, media, parity):
    """The exponential characteristic function, independent of the solver's.

    ``exp(num*d) - pm*(r - 1)/(r + 1)`` with ``r = eps_m*nu0/(eps_d*num)``;
    it overflows for films several microns thick, which is why the solver
    uses the bounded tanh form.
    """
    nu0, num = _principal_decay(k, media)
    r = (media.eps_m * nu0) / (media.eps_d * num)
    return cmath.exp(num * geom.d) - parity.pm * (r - 1.0) / (r + 1.0)


def test_residual_contract_at_root():
    # |f(k)| stays far below 1e-10 * |exp(nu_m d)| for a converged root
    sol = solve_dispersion(SYMMETRIC, GEOM, _media(-0.08))
    f = _exp_residual(sol.k_spp, GEOM, sol.media, SYMMETRIC)
    gate = 1e-10 * abs(cmath.exp(sol.num * GEOM.d))
    assert abs(f) < gate


def test_solution_fields_consistent():
    sol = solve_dispersion(SYMMETRIC, GEOM, _media(-0.08))
    nu0, num = _principal_decay(sol.k_spp, sol.media)
    assert sol.nu0 == nu0 and sol.num == num
    assert nu0.real > 0 and num.real > 0
    # the decay constants square back to k**2 - eps*k0**2
    k, k0sq = sol.k_spp, sol.media.k0 ** 2
    assert nu0 * nu0 == pytest.approx(k * k - sol.media.eps_d * k0sq,
                                      rel=1e-14)
    assert num * num == pytest.approx(k * k - sol.media.eps_m * k0sq,
                                      rel=1e-14)
    # amplitude is the slab matching factor 1/(1 + pm*exp(-nu_m d))
    pm = sol.parity.pm
    expected_a = 1.0 / (1.0 + pm * cmath.exp(-num * GEOM.d))
    assert sol.amplitude == pytest.approx(expected_a, rel=1e-14)
    assert sol.media.omega == OMEGA
    assert sol.geom.d == GEOM.d


def test_single_interface_root_balances():
    media = _media(-0.081, n_real=1.9726)
    k = single_interface_root(media)
    assert k == pytest.approx(45262241.83347206 - 3491245.885171195j,
                              rel=1e-13)
    nu0, num = _principal_decay(k, media)
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
    conj_media = MediumSet(media.omega, media.eps_d.conjugate(),
                           media.eps_m.conjugate())
    for parity in PARITIES:
        k = solve_dispersion(parity, GEOM, media).k_spp
        kc = solve_dispersion(parity, GEOM, conj_media,
                              guess=k.conjugate()).k_spp
        assert kc == pytest.approx(k.conjugate(), rel=1e-12)


def test_lossless_root_is_real():
    eps_m_re = complex((1.0 - 14.02e15**2 / (4.8e15**2 + 6.25e13 * 4.8e15 * 1j)).real, 0.0)
    media = MediumSet(OMEGA, dielectric_epsilon(DielectricSpec(0.9726, 0.0)),
                      eps_m_re)
    sol = solve_dispersion(SYMMETRIC, GEOM, media)
    assert sol.k_spp.imag == 0.0
    assert sol.regime == "neutral"
    assert sol.k_spp.real == pytest.approx(16937222.243914288, rel=1e-12)


def test_classify_mode():
    """``ModeSolution.regime`` classifies a mode by the sign of Im k."""
    sol = solve_dispersion(SYMMETRIC, GEOM, _media(-0.063))
    assert sol._replace(k_spp=1e7 + 1.0j).regime == "attenuated"
    assert sol._replace(k_spp=1e7 - 1.0j).regime == "amplified"
    assert sol._replace(k_spp=complex(1e7, 0.0)).regime == "neutral"


def test_thin_film_guard():
    with pytest.raises(ValueError):
        SlabGeometry(0.0)
    with pytest.raises(ValueError):
        solve_dispersion(SYMMETRIC, SlabGeometry(1e-11), _media(0.0))


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


@pytest.mark.parametrize("alt_offset, keeps", [(0.5, "retry"),
                                               (500.0, "first")])
def test_sweep_branch_hop_keeps_root_closer_to_prediction(monkeypatch,
                                                          alt_offset, keeps):
    """A root far from the extrapolation is re-solved without a guess, from
    the solver's own seeds; the row keeps whichever root lies closer to
    it."""
    omegas = [1e15, 2e15, 3e15, 4e15]
    step = 1e7 * (1 + 0.1j)  # the tracked branch: k = step * omega / 1e15
    guesses, roots = [], {}

    def stub_solve(parity, geom, media, guess=None):
        # the first point has no prediction either; the retry is a call
        # without a guess at a point already solved
        retry = guess is None and (media.omega, False) in roots
        guesses.append(guess)
        on_branch = step * (media.omega / 1e15)
        if retry:
            k = on_branch + alt_offset * abs(step)
        elif media.omega == 3e15:
            k = on_branch + 100.0 * abs(step)  # hop to a far root
        else:
            k = on_branch
        roots[media.omega, retry] = SimpleNamespace(k_spp=k)
        return roots[media.omega, retry]

    monkeypatch.setattr(dispersion, "solve_dispersion", stub_solve)
    rows = dispersion_sweep((SYMMETRIC,), GEOM, METAL,
                            DielectricSpec(0.9726, -0.063), omegas)
    assert [g is None for g in guesses] == [True, False, False, True, False]
    assert list(roots) == [(1e15, False), (2e15, False), (3e15, False),
                           (3e15, True), (4e15, False)]
    kept = roots[3e15, keeps == "retry"]
    assert [r.solution for r in rows] == [
        roots[1e15, False], roots[2e15, False], kept, roots[4e15, False]]
    # the next row is predicted from the kept root
    assert guesses[-1] == kept.k_spp + (kept.k_spp - 2 * step)


def _linear_gain_sweep(monkeypatch, kappas, refused=None):
    """``gain_sweep`` of one parity whose stub solver gives Im k = 1e6*kappa,
    with the gain of each solve, grid rows and refining iterates alike; the
    solve numbered ``refused`` (from 0), if any, is refused."""
    solved = []

    def stub_solve(parity, geom, dielectric, guess=None):
        solved.append(dielectric.n_imag)
        if len(solved) - 1 == refused:
            raise dispersion.NonConvergence("injected")
        return SimpleNamespace(k_spp=complex(1e7, 1e6 * dielectric.n_imag))

    monkeypatch.setattr(dispersion, "solve_dispersion", stub_solve)
    # the stub solver reads the cladding gain off the DielectricSpec itself
    monkeypatch.setattr(dispersion, "make_medium_set",
                        lambda metal, dielectric, omega: dielectric)
    return gain_sweep((SYMMETRIC,), GEOM, METAL, 0.9726, kappas, OMEGA), solved


@pytest.mark.parametrize("kappas", [[-0.2, -0.1, 0.0, 0.1], [-0.2, -0.1, 0.0]],
                         ids=["zero-row-inside", "zero-last-row"])
def test_gain_sweep_crossing_on_an_exact_zero_is_that_row(monkeypatch,
                                                          kappas):
    """A traced row with Im k == 0.0 is the crossing itself, with its own
    root and no refining solve, whether a row follows it or not."""
    result, solved = _linear_gain_sweep(monkeypatch, kappas)
    assert solved == kappas
    zero_row = result.rows[2]
    assert zero_row.solution.k_spp.imag == 0.0
    assert result.crossings["symmetric"] == (SYMMETRIC, 0.0,
                                             zero_row.solution.k_spp)


def test_gain_sweep_refines_a_sign_change_before_an_exact_zero_row(
        monkeypatch):
    """The scan meets the rows in grid order: a sign change before a row
    with Im k == 0.0 is refined from its bracket, not skipped for the zero
    row (which would take no solve beyond the grid)."""
    kappas = [-0.2, 0.1, 0.0]
    result, solved = _linear_gain_sweep(monkeypatch, kappas)
    assert solved[:3] == kappas
    assert len(solved) == 4  # one false-position solve beyond the grid
    crossing = result.crossings["symmetric"]
    assert crossing.kappa_star == 0.0
    assert crossing.k_at_crossing == complex(1e7, 1e6 * solved[3])


def test_gain_sweep_reports_a_failed_refinement_as_an_error(monkeypatch):
    """A refused refining solve leaves no crossing, and the error names the
    bracket it was refining; it is not "no sign change in the grid"."""
    kappas = [-0.2, -0.1, 0.1, 0.2]
    result, solved = _linear_gain_sweep(monkeypatch, kappas, refused=4)
    assert solved[:4] == kappas and len(solved) == 5
    assert all(row.solution is not None for row in result.rows)
    assert result.crossings == {"symmetric": None}
    assert result.crossing_errors == {
        "symmetric": "refinement failed in [-0.1, 0.1]: NonConvergence: "
                     "injected"}
    with pytest.raises(TypeError):
        result.crossing_errors["symmetric"] = ""
    result, _ = _linear_gain_sweep(monkeypatch, kappas)
    assert result.crossings["symmetric"].kappa_star == 0.0
    assert result.crossing_errors == {}


def test_newton_halves_a_step_that_lands_on_a_branch_point():
    """A trial step where a decay constant vanishes is halved, not fatal."""
    root = 2.0 + 1.0j
    calls = []

    def system(k):
        calls.append(k)
        if len(calls) == 2:  # the first full step
            raise ZeroDivisionError("decay constant vanished")
        return k - root, 1.0, 1.0, 1.0

    k, values = dispersion._newton(1.0 + 0.0j, 1.0, system)
    assert calls[1] == root  # the full step from 1 lands on the root
    assert calls[2] == 1.0 + 0.5 * (root - 1.0)
    assert k == root and values[0] == 0


def test_newton_gives_up_after_the_full_step_and_seven_halvings():
    """A line search where |F| never falls evaluates the seed, then the
    trial points at lam = 1, 1/2, ..., 1/128, and returns None."""
    calls = []

    def system(k):
        calls.append(k)
        return complex(len(calls), 1.0), 1.0 - 2.0j, 1.0, 1.0

    seed = 1.0 + 1.0j
    assert dispersion._newton(seed, 1.0, system) is None
    step = -complex(1, 1.0) / (1.0 - 2.0j)
    assert calls == [seed] + [seed + 0.5 ** i * step for i in range(8)]


@pytest.mark.parametrize("miss, calls", [(1e-17, 1), (1e-15, 2)],
                         ids=["below-rounding", "above-rounding"])
def test_newton_stops_before_a_correction_below_the_rounding_of_k(miss,
                                                                    calls):
    """A correction of at most ``_EPS*|k|`` returns the seed with the
    values it was evaluated to, at no further evaluation; a larger one is
    taken and stops on the step test after it."""
    root = complex(1.0, miss)
    evaluated = []

    def system(k):
        evaluated.append(k)
        return k - root, 1.0, 1.0, 1.0

    assert 1e-17 < dispersion._EPS < 1e-15
    k, values = dispersion._newton(1.0 + 0.0j, 1.0, system)
    assert len(evaluated) == calls
    assert k == evaluated[-1] == (1.0 if calls == 1 else root)
    assert values[0] == (-1j * miss if calls == 1 else 0)


def test_solve_from_its_own_root_takes_one_evaluation(monkeypatch):
    """The default ``field`` mode, solved again from its own root: one
    residual evaluation, and the same root to the bit."""
    media = _media(-0.063)
    sol = solve_dispersion(SYMMETRIC, GEOM, media)
    evaluated = _counted_evaluations(monkeypatch)
    again = solve_dispersion(SYMMETRIC, GEOM, media, guess=sol.k_spp)
    assert evaluated == [sol.k_spp]
    assert [repr(v) for v in again[1:6]] == [repr(v) for v in sol[1:6]]


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


def _counted_media_builds(monkeypatch):
    """Count ``make_medium_set`` calls of the sweeps: returns the list that
    each call's arguments are appended to."""
    built = []
    real_build = dispersion.make_medium_set

    def counting_build(*args):
        built.append(args)
        return real_build(*args)

    monkeypatch.setattr(dispersion, "make_medium_set", counting_build)
    return built


def test_dispersion_sweep_builds_each_frequency_media_once(monkeypatch):
    """Both parities share the media of each grid frequency."""
    built = _counted_media_builds(monkeypatch)
    omegas = np.linspace(2e15, 6e15, 9)
    rows = dispersion_sweep(PARITIES, GEOM, METAL,
                            DielectricSpec(0.9726, -0.063), omegas)
    assert len(rows) == 2 * len(omegas)
    assert all(row.error is None for row in rows)
    assert len(built) == len(omegas)


def test_gain_sweep_builds_each_gain_media_once(monkeypatch):
    """Both parities share the media of each grid gain; each false-position
    iterate of a crossing builds its own."""
    built = _counted_media_builds(monkeypatch)
    iterates = []
    real_find = dispersion._find_crossing

    def counting_find(parity, prows, media_of, geom):
        def counted(x):
            iterates.append(x)
            return media_of(x)
        return real_find(parity, prows, counted, geom)

    monkeypatch.setattr(dispersion, "_find_crossing", counting_find)
    kappas = np.linspace(-0.1, 0.0, 41)
    result = gain_sweep(PARITIES, GEOM, METAL, 0.9726, kappas, OMEGA)
    assert all(c is not None for c in result.crossings.values())
    assert iterates
    assert len(built) == len(kappas) + len(iterates)


@pytest.mark.parametrize("sweep, message", [
    (lambda grid: dispersion_sweep(PARITIES, GEOM, METAL,
                                   DielectricSpec(0.9726, -0.063), grid),
     "omega_grid is empty"),
    (lambda grid: gain_sweep(PARITIES, GEOM, METAL, 0.9726, grid, OMEGA),
     "kappa_grid is empty"),
], ids=["dispersion", "gain"])
def test_sweep_refuses_an_empty_grid_before_building_media(monkeypatch,
                                                           sweep, message):
    built = _counted_media_builds(monkeypatch)
    with pytest.raises(ValueError) as info:
        sweep([])
    assert str(info.value) == message
    assert built == []


def test_refused_media_give_each_parity_the_same_error_row():
    """A grid point whose media are refused is an error row in every
    parity, and the continuation carries on past it."""
    omegas = [4.0e15, -1.0, 4.8e15]
    rows = dispersion_sweep(PARITIES, GEOM, METAL,
                            DielectricSpec(0.9726, -0.063), omegas)
    assert [(row.x, row.parity) for row in rows] == [
        (w, p) for p in PARITIES for w in omegas]
    for row in rows:
        if row.x == -1.0:
            assert row.solution is None
            assert row.error == "ValueError: omega must be positive, got -1.0"
        else:
            assert row.error is None and row.solution.residual <= 1e-10


# a point where Newton fails from every seed; a Muller fallback, since
# removed, returned a backward wrong-branch root here
MULLER_POINT = {"parity": "symmetric", "n_real": 2.239514158245674,
                "n_imag": 0.10237423201714438, "omega": 8213894388051735.0,
                "d": 7.41448047205626e-07}
# residual evaluations and refusals of the 500 solves of _box_sample(500)
BOX_EVALUATIONS = 2990
BOX_REFUSED = 36
# a point of the benchmark's scan pool where Newton fails from every seed
NO_ROOT_POINT = {"parity": "symmetric", "n_real": 1.8661914523852046,
                 "n_imag": -0.11638233679455903, "omega": 8338336064035265.0,
                 "d": 2.7351368950349566e-06}


def _point_system(point):
    """(parity, geometry, media) of a point given as in :data:`MULLER_POINT`."""
    media = make_medium_set(
        METAL, DielectricSpec(point["n_real"], point["n_imag"]),
        point["omega"])
    return (parity_from_name(point["parity"]), SlabGeometry(point["d"]),
            media)


def test_refused_where_newton_fails_from_every_seed():
    """At :data:`MULLER_POINT` Newton fails from both seeds, and no other
    method steps in: the solve raises the refusal that
    ``solver_roots.json`` pins, naming the two seeds in order."""
    parity, geom, media = _point_system(MULLER_POINT)
    seeds = [single_interface_root(media),
             1.05 * media.k0 * cmath.sqrt(media.eps_d)]
    message = (f"symmetric mode: no root from seeds {seeds!r} "
               f"at omega={media.omega!r}")
    pinned = next(entry["output"] for entry in
                  json.loads(SOLVER_ROOTS.read_text())["points"]
                  if entry["input"] == MULLER_POINT)
    assert pinned == {"error": "NonConvergence", "message": message}
    with pytest.raises(dispersion.NonConvergence) as info:
        solve_dispersion(parity, geom, media)
    assert str(info.value) == message


def test_nonconvergence_names_every_seed_in_order(monkeypatch):
    """Seeds are generated one at a time, yet a refusal lists them all, in
    the order Newton tried them."""
    tried = []

    def failing(seed, *args):
        tried.append(seed)
        return None

    monkeypatch.setattr(dispersion, "_newton", failing)
    media = _media(-0.063)
    guess = 1.6e7 + 1e5j
    seeds = [guess, single_interface_root(media),
             1.05 * media.k0 * cmath.sqrt(media.eps_d)]
    with pytest.raises(dispersion.NonConvergence) as info:
        solve_dispersion(SYMMETRIC, GEOM, media, guess=guess)
    assert tried == seeds
    assert str(info.value) == (f"symmetric mode: no root from seeds "
                               f"{seeds!r} at omega={media.omega!r}")


def _long_range_seed(media, d):
    """The thin-film limit of the antisymmetric residual, as a seed."""
    k0sq = media.k0 ** 2
    eps_d, eps_m = media.eps_d, media.eps_m
    nu0 = -eps_d * (eps_d - eps_m) * k0sq * d / (2.0 * eps_m)
    return cmath.sqrt(eps_d * k0sq + nu0 * nu0)


@pytest.mark.parametrize("parity, thin, guess", [
    (ANTISYMMETRIC, True, None),
    (SYMMETRIC, True, None),
    (ANTISYMMETRIC, True, 1.6e7 + 1e5j),
    (ANTISYMMETRIC, False, None),
], ids=["thin-antisymmetric", "thin-symmetric", "thin-antisymmetric-guess",
        "thick-antisymmetric"])
def test_long_range_seed_goes_first_for_thin_antisymmetric_films(
        monkeypatch, parity, thin, guess):
    """Without a guess, a thin antisymmetric film below the band is seeded
    first from its long-range limit; every other solve keeps the order
    guess, single-interface root, light-line seed."""
    if thin:  # the 14.2 nm film of solver_roots.json entry 1
        _, geom, media = _point_system(_solver_points()[1])
    else:
        geom, media = GEOM, _media(-0.063)
    assert dispersion._below_band(media)
    tried = []
    monkeypatch.setattr(dispersion, "_newton",
                        lambda seed, *args: tried.append(seed))
    with pytest.raises(dispersion.NonConvergence):
        solve_dispersion(parity, geom, media, guess=guess)
    seeds = [single_interface_root(media),
             1.05 * media.k0 * cmath.sqrt(media.eps_d)]
    if guess is not None:
        seeds.insert(0, guess)
    if parity is ANTISYMMETRIC and thin and guess is None:
        assert tried[0] == pytest.approx(_long_range_seed(media, geom.d),
                                         rel=1e-14)
        tried = tried[1:]
    assert tried == seeds


def test_later_seeds_are_not_computed_once_newton_converges(monkeypatch):
    def unreachable(media):
        raise AssertionError("second seed computed after the first converged")

    media = _media(-0.063)
    ref = solve_dispersion(SYMMETRIC, GEOM, media)
    monkeypatch.setattr(dispersion, "single_interface_root", unreachable)
    sol = solve_dispersion(SYMMETRIC, GEOM, media, guess=ref.k_spp)
    assert sol.k_spp == pytest.approx(ref.k_spp, rel=1e-12)


@pytest.mark.parametrize("parity", PARITIES, ids=lambda p: p.name)
def test_seed_on_a_branch_point_moves_on_to_the_next_seed(parity):
    """A guess where nu0 = 0 fails that seed alone: the solve returns the
    root found without a guess, bit for bit."""
    media = _media(0.0)
    guess = cmath.sqrt(media.eps_d * media.k0 ** 2)
    sol = solve_dispersion(parity, GEOM, media, guess=guess)
    ref = solve_dispersion(parity, GEOM, media)
    assert [repr(v) for v in (sol.k_spp, sol.nu0, sol.num, sol.amplitude,
                              sol.residual)] == [
        repr(v) for v in (ref.k_spp, ref.nu0, ref.num, ref.amplitude,
                          ref.residual)]


_LOSSLESS = MediumSet(OMEGA, complex(2.25, 0.0), complex(-20.0, 0.0))
_INSIDE_LIGHT_CONE = 0.5 * _LOSSLESS.k0  # nu0's radicand is a negative real
_INF, _NAN = math.inf, math.nan


def _decaying_sqrt(z):
    """Square root on the decaying branch: ``Re >= 0``, ties toward
    ``Im >= 0``."""
    r = cmath.sqrt(z)
    if r.real < 0.0 or (r.real == 0.0 and r.imag < 0.0):
        r = -r
    return r


@pytest.mark.parametrize("media, k", [
    (_LOSSLESS, complex(_INSIDE_LIGHT_CONE, 0.0)),
    (_LOSSLESS, complex(_INSIDE_LIGHT_CONE, -0.0)),
    (_LOSSLESS, complex(-_INSIDE_LIGHT_CONE, 0.0)),
    (MediumSet(OMEGA, complex(_INF, 1.0), complex(-_INF, -1.0)), 1 + 0j),
    (MediumSet(OMEGA, complex(_NAN, 0.0), complex(0.0, _NAN)), 1 + 0j),
    (_LOSSLESS, complex(-1e-200, 1e200)),  # radicands -inf - 2j
    (_LOSSLESS, complex(0.0, _INF)),
    (_LOSSLESS, complex(_INF, _INF)),
    (_LOSSLESS, complex(_NAN, 0.0)),
], ids=["-re+0j", "-re-0j", "-k", "inf", "nan", "-inf-2j", "k-inf",
        "k-inf-inf", "k-nan"])
def test_closure_decay_constants_are_decaying_sqrt(media, k):
    """On tie and non-finite radicands the residual closure's ``nu0`` is
    the decaying branch bit for bit, and its ``num`` is ``cmath.sqrt`` as
    it comes, whose real part is never negative; the sign of ``num`` moves
    no Newton step (the test after :func:`_tanh_form`)."""
    k0sq = media.k0 * media.k0
    system = dispersion._scaled_system(GEOM.d, media, SYMMETRIC.pm, k0sq)
    nu0, num = system(k)[2:]
    kk = k * k
    assert repr(nu0) == repr(_decaying_sqrt(kk - media.eps_d * k0sq))
    assert repr(num) == repr(cmath.sqrt(kk - media.eps_m * k0sq))
    assert not num.real < 0.0


def _tanh_form(k, nu0, num, media, d, pm):
    """``(F, dF/dk)`` of the tanh-form slab residual at the given decay
    constants, in the closure's order of operations."""
    eps_d, eps_m = media.eps_d, media.eps_m
    t = cmath.tanh(num * (d / 2.0))
    k_num, k_nu0 = k / num, k / nu0
    dt = (1.0 - t * t) * (d / 2.0) * k_num
    if pm < 0:
        return (t * (eps_d * num) + eps_m * nu0,
                dt * (eps_d * num) + t * eps_d * k_num + eps_m * k_nu0)
    return (t * (eps_m * nu0) + eps_d * num,
            dt * (eps_m * nu0) + t * eps_m * k_nu0 + eps_d * k_num)


# real permittivities and k where num's radicand is a negative real with a
# negative zero imaginary part: cmath.sqrt gives Re(num) == 0, Im(num) < 0
_DENSER_FILM = MediumSet(OMEGA, complex(2.25, 0.0), complex(4.0, 0.0))
_NUM_TIES = [
    (_LOSSLESS, complex(-0.0, 5.0 * _LOSSLESS.k0)),
    (_LOSSLESS, complex(0.0, -5.0 * _LOSSLESS.k0)),
    (_DENSER_FILM, complex(0.5 * _DENSER_FILM.k0, -0.0)),
    (_DENSER_FILM, complex(1.8 * _DENSER_FILM.k0, -0.0)),
]


@pytest.mark.parametrize("parity", PARITIES, ids=lambda p: p.name)
@pytest.mark.parametrize("media, k", _NUM_TIES,
                         ids=["-0+ik", "+0-ik", "nu0-tie-too", "num-tie"])
def test_newton_step_is_the_same_for_either_sign_of_num(media, k, parity):
    """``F`` and ``dF/dk`` are both even in ``num`` (antisymmetric) or both
    odd (symmetric), so on a tie of ``num`` the step ``-F/F'`` and ``|F|``
    that Newton reads are the same whichever root is taken."""
    system = dispersion._scaled_system(GEOM.d, media, parity.pm,
                                       media.k0 * media.k0)
    f, df, nu0, num = system(k)
    assert num.real == 0.0 and num.imag < 0.0
    assert repr((f, df)) == repr(_tanh_form(k, nu0, num, media, GEOM.d,
                                            parity.pm))
    f_flip, df_flip = _tanh_form(k, nu0, -num, media, GEOM.d, parity.pm)
    assert -f_flip / df_flip == -f / df
    assert abs(f_flip) == abs(f)


def test_solve_from_a_negated_guess_gives_the_same_root():
    """The residual depends on ``k`` only through ``k*k``, so Newton from
    ``-g`` mirrors Newton from ``g`` and the ``Re k < 0`` flip reports one
    root: the same ``k_spp``, ``nu0``, ``num`` bits, or a refusal of the
    same class, at both parities of 250 scan-box systems."""
    solved = refused = 0
    for point in _box_sample(250):
        _, geom, media = _point_system(point)
        guess = 1.01 * single_interface_root(media)
        for parity in PARITIES:
            records = []
            for g in (guess, -guess):
                try:
                    sol = solve_dispersion(parity, geom, media, guess=g)
                    records.append(repr((sol.k_spp, sol.nu0, sol.num)))
                except DispersionError as exc:
                    records.append(type(exc))
            assert records[0] == records[1], (point, parity)
            if isinstance(records[0], type):
                refused += 1
            else:
                solved += 1
    assert solved and refused  # both outcomes are exercised


# k0 = 2**23 exactly, so each radicand below is formed without rounding
_EXACT = MediumSet(2.0 ** 23 * C_LIGHT, complex(2.25, 0.0),
                   complex(-16.0, 0.0))


@pytest.mark.parametrize("parity", PARITIES, ids=lambda p: p.name)
@pytest.mark.parametrize("k, zero", [
    (complex(1.5 * 2.0 ** 23, 0.0), "nu0"),
    (complex(0.0, 4.0 * 2.0 ** 23), "num"),
], ids=["nu0", "num"])
def test_closure_raises_where_a_decay_constant_vanishes(parity, k, zero):
    """Where ``nu0`` or ``num`` is exactly 0 the closure's own division
    raises ``ZeroDivisionError``, and Newton from that seed gives up."""
    media = _EXACT
    assert media.k0 == 2.0 ** 23
    k0sq = media.k0 * media.k0
    eps = media.eps_d if zero == "nu0" else media.eps_m
    assert k * k - eps * k0sq == 0
    system = dispersion._scaled_system(GEOM.d, media, parity.pm, k0sq)
    with pytest.raises(ZeroDivisionError):
        system(k)
    assert dispersion._newton(k, GEOM.d, system) is None


def test_closure_breaks_the_tie_toward_positive_imaginary_part():
    """Both signed zeros of a negative-real radicand give ``Im nu0 > 0``."""
    system = dispersion._scaled_system(GEOM.d, _LOSSLESS, SYMMETRIC.pm,
                                       _LOSSLESS.k0 * _LOSSLESS.k0)
    plus = system(complex(_INSIDE_LIGHT_CONE, 0.0))[2]
    minus = system(complex(_INSIDE_LIGHT_CONE, -0.0))[2]
    assert plus.real == minus.real == 0.0
    assert plus.imag == minus.imag > 0.0


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


@settings(deadline=None, max_examples=20)
@given(kappa=st.floats(-0.09, 0.09), d_nm=st.floats(30.0, 150.0))
def test_root_property(kappa, d_nm):
    geom = SlabGeometry(d_nm * 1e-9)
    media = _media(kappa)
    sol = solve_dispersion(SYMMETRIC, geom, media)
    assert sol.residual <= 1e-10
    assert sol.nu0.real > 0 and sol.num.real > 0
    assert sol.k_spp.real > 0


# -- the solver, bit for bit on the scan box ---------------------------------

SOLVER_ROOTS = Path(__file__).with_name("golden") / "solver_roots.json"


def _solver_points():
    """The pinned solver inputs, drawn with ``random.Random(13)``.

    68 points over the benchmark's scan box (``perfbench`` ``Scan``: n_real
    in [0.9, 2.5], n_imag in [-0.15, 0.15], omega in [1e15, 9e15] rad/s and
    a log-uniform d in [3 nm, 3 um]), then 12 films under 12 nm, alternating
    the parity, and last :data:`MULLER_POINT` and :data:`NO_ROOT_POINT`.
    """
    rng = random.Random(13)
    points = [box_point(rng, i, 3e-6 if i < 68 else 12e-9) for i in range(80)]
    return points + [MULLER_POINT, NO_ROOT_POINT]


def _box_sample(n):
    """The first ``n`` points of one fixed draw, ``random.Random(17)``,
    over the whole scan box."""
    rng = random.Random(17)
    return [box_point(rng, i) for i in range(n)]


def _solver_record(point):
    """``repr`` of what the solver returns at ``point``, or its refusal."""
    try:
        sol = solve_dispersion(*_point_system(point))
    except DispersionError as exc:
        return {"error": type(exc).__name__, "message": str(exc)}
    return {name: repr(value) for name, value in (
        ("k_spp", sol.k_spp), ("nu0", sol.nu0), ("num", sol.num),
        ("amplitude", sol.amplitude), ("residual", sol.residual),
        ("d_value", green_coefficient(sol).d_value),
        ("ccr", ccr_check(sol)))}


def test_solver_roots_bit_for_bit():
    """Every root, residue and refusal on the pinned points, as recorded.

    A change to the solver that is not meant to move any root leaves
    ``tests/golden/solver_roots.json`` as it is.  ROADMAP item 1a (keep
    trying seeds after a stalled root, add a quasi-static seed) is meant to
    turn refusal entries into roots; it regenerates the file with

        PYTHONPATH=src python tests/test_dispersion.py

    and states in CHANGES.md which entries moved.
    """
    frozen = json.loads(SOLVER_ROOTS.read_text())["points"]
    assert [entry["input"] for entry in frozen] == _solver_points()
    assert sum(p["d"] < 12e-9 for p in _solver_points()) >= 10
    for entry in frozen:
        assert _solver_record(entry["input"]) == entry["output"], entry


def _counted_evaluations(monkeypatch):
    """Count the solver's residual evaluations from here on: returns the
    list that each evaluated ``k`` is appended to."""
    evaluated = []
    real_system = dispersion._scaled_system

    def counting_system(*args):
        system = real_system(*args)

        def counted(k):
            evaluated.append(k)
            return system(k)
        return counted

    monkeypatch.setattr(dispersion, "_scaled_system", counting_system)
    return evaluated


def _evaluations_of_solve(monkeypatch, point):
    """Residual evaluations one solve at ``point`` makes, and its outcome."""
    evaluated = _counted_evaluations(monkeypatch)
    try:
        outcome = solve_dispersion(*_point_system(point))
    except DispersionError as exc:
        outcome = exc
    return len(evaluated), outcome


def test_residual_evaluations_per_solve(monkeypatch):
    """Pinned counts, so that a change that adds evaluations shows: the
    default ``field`` mode, a thin antisymmetric film seeded from its
    long-range limit (the 14.2 nm entry of ``solver_roots.json``), and the
    first stalled refusal of ``solver_roots.json`` (a 3 nm film)."""
    field_mode = {"parity": "symmetric", "n_real": 0.9726, "n_imag": -0.063,
                  "omega": OMEGA, "d": GEOM.d}
    count, sol = _evaluations_of_solve(monkeypatch, field_mode)
    assert count == 5 and sol.residual <= 1e-10
    count, sol = _evaluations_of_solve(monkeypatch, _solver_points()[1])
    assert count == 4 and sol.residual <= 1e-10
    stalled = _solver_points()[34]
    count, exc = _evaluations_of_solve(monkeypatch, stalled)
    assert count == 25
    assert isinstance(exc, dispersion.NonConvergence)
    assert "iteration stalled" in str(exc)


def test_residual_evaluations_over_the_scan_box(monkeypatch):
    """The residual evaluations of 500 solves over the scan box, pinned.

    A change that makes each evaluation cheaper leaves this count as it
    is; a change that adds or saves evaluations (ROADMAP item 1a, say)
    moves it, and states in CHANGES.md by how much.  No timing is read.
    """
    evaluated = _counted_evaluations(monkeypatch)
    refused = 0
    for point in _box_sample(500):
        try:
            solve_dispersion(*_point_system(point))
        except DispersionError:
            refused += 1
    assert (len(evaluated), refused) == (BOX_EVALUATIONS, BOX_REFUSED)


def test_below_band_admits_no_point_at_or_above_095_omega_sp():
    """Over ``_box_sample(2000)``, with ``omega_sp = omega_p/sqrt(1 + Re
    eps_d)``, the band test admits no point at or above 0.95 omega_sp and
    misses the pinned few below it."""
    below = missed = 0
    for point in _box_sample(2000):
        media = _point_system(point)[2]
        omega_sp = METAL.omega_p / math.sqrt(1.0 + media.eps_d.real)
        if media.omega < 0.95 * omega_sp:
            below += 1
            missed += not dispersion._below_band(media)
        else:
            assert not dispersion._below_band(media), point
    assert (below, missed) == (1474, 17)


def test_long_range_seed_reaches_the_single_interface_zero(monkeypatch):
    """Every thin antisymmetric point of ``_box_sample(2000)`` below the
    band (``|exp(-num*d)| > 0.3`` at the single-interface root) is solved
    from the long-range seed, to the zero that Newton from the
    single-interface root alone reaches, within 1e-9."""
    first_seeds = []
    real_newton = dispersion._newton

    def newton(seed, *args):
        first_seeds.append(seed)
        return real_newton(seed, *args)

    moved = []
    for point in _box_sample(2000):
        parity, geom, media = _point_system(point)
        if parity is not ANTISYMMETRIC or not dispersion._below_band(media):
            continue
        k_si = single_interface_root(media)
        system = dispersion._scaled_system(geom.d, media, parity.pm,
                                           media.k0 * media.k0)
        if not abs(cmath.exp(-system(k_si)[3] * geom.d)) > 0.3:
            continue
        ref, _ = dispersion._newton(k_si, geom.d, system)
        ref = -ref if ref.real < 0.0 else ref
        first_seeds.clear()
        with monkeypatch.context() as patch:
            patch.setattr(dispersion, "_newton", newton)
            k = solve_dispersion(parity, geom, media).k_spp
        assert first_seeds[0] == pytest.approx(
            _long_range_seed(media, geom.d), rel=1e-14), point
        moved.append(abs(k - ref) / abs(ref))
    assert len(moved) == 214
    assert max(moved) <= 1e-9


def _mode_record(parity, geom, media):
    """The scan's numbers of one system, or the class of its refusal."""
    try:
        sol = solve_dispersion(parity, geom, media)
        return (sol.k_spp, sol.nu0, sol.num, sol.amplitude,
                green_coefficient(sol).d_value, sol.residual,
                beta_prime(sol), ccr_check(sol), gamma_prime(sol))
    except ValueError as exc:
        return type(exc)


def test_gain_loss_mirror_on_the_scan_box():
    """Conjugating both permittivities trades gain for loss exactly.

    On 2000 points of the scan box, the system with ``conj(eps_d)`` and
    ``conj(eps_m)`` (built directly: its metal has gain) has the conjugate
    ``k_spp``, ``nu0``, ``num``, ``amplitude`` and ``d_value``, the same
    ``residual``, ``beta_prime`` and ``ccr_check`` and the negated
    ``gamma_prime``, bit for bit, and is refused where the original is,
    with the same class.
    """
    mismatched = []
    refused = 0
    for point in _box_sample(2000):
        parity, geom, media = _point_system(point)
        mirror = MediumSet(media.omega, media.eps_d.conjugate(),
                           media.eps_m.conjugate())
        record = _mode_record(parity, geom, media)
        if isinstance(record, type):
            expected = record
            refused += 1
        else:
            expected = (*(v.conjugate() for v in record[:5]), *record[5:8],
                        -record[8])
        if repr(_mode_record(parity, geom, mirror)) != repr(expected):
            mismatched.append(point)
    assert not mismatched, mismatched[:3]
    assert 0 < refused < 400  # both outcomes are exercised


def regenerate_solver_roots() -> None:
    """Rewrite ``solver_roots.json`` from the current solver."""
    points = [{"input": p, "output": _solver_record(p)}
              for p in _solver_points()]
    SOLVER_ROOTS.write_text(json.dumps({"points": points}, indent=1) + "\n")


# -- grids ------------------------------------------------------------------

def _bits(values):
    """Exact identity of a float list: sign of zero and NaNs included."""
    return [float(v).hex() for v in values]


def _numpy_linspace(a, b, n):
    with np.errstate(all="ignore"):  # b - a may overflow to inf
        return np.linspace(a, b, n).tolist()


@settings(deadline=None, max_examples=300)
@given(a=st.floats(allow_nan=False, allow_infinity=False),
       b=st.floats(allow_nan=False, allow_infinity=False),
       n=st.integers(0, 2000))
@example(a=1.5, b=1.5, n=7)            # a == b
@example(a=1.0, b=2.0, n=0)             # no point
@example(a=-0.0, b=-0.0, n=1)
@example(a=3.0, b=-2.0, n=2000)        # a > b
@example(a=0.0, b=5e-324, n=3)         # step underflows to zero
@example(a=-1e308, b=1e308, n=5)       # b - a overflows
def test_linspace_matches_numpy_bit_for_bit(a, b, n):
    assert _bits(linspace(a, b, n)) == _bits(_numpy_linspace(a, b, n))


@pytest.mark.parametrize("n", [-1, -2000])
def test_linspace_refuses_a_negative_count_as_numpy(n):
    with pytest.raises(ValueError):
        np.linspace(0.0, 1.0, n)
    with pytest.raises(ValueError, match=f"non-negative, got {n}$"):
        linspace(0.0, 1.0, n)


def test_linspace_matches_numpy_on_default_cli_grids():
    cfg = load_config(None)
    disp, gain, field = cfg["dispersion"], cfg["gain-sweep"], cfg["field"]
    media = make_medium_set(
        DrudeMetalSpec(cfg["metal"]["omega_p"], cfg["metal"]["gamma"]),
        DielectricSpec(cfg["dielectric"]["n_real"],
                       cfg["dielectric"]["n_imag"]),
        field["omega"])
    sol = solve_dispersion(field["parity"], SlabGeometry(cfg["geometry"]["d"]),
                           media)
    grids = [
        (disp["omega_min"], disp["omega_max"], disp["omega_points"]),
        (gain["kappa_min"], gain["kappa_max"], gain["kappa_points"]),
        (field["x_min"], field["x_min"] + auto_x_max(sol),
         field["x_points"]),
    ]
    for a, b, n in grids:
        assert _bits(linspace(a, b, n)) == _bits(_numpy_linspace(a, b, n))


if __name__ == "__main__":
    regenerate_solver_roots()
