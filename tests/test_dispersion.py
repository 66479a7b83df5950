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
    DielectricSpec,
    DispersionError,
    DrudeMetalSpec,
    MediumSet,
    SlabGeometry,
    ccr_check,
    dielectric_epsilon,
    dispersion_sweep,
    gain_sweep,
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
    assert sol.omega == OMEGA
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
    """A root far from the extrapolation is re-solved from the single-
    interface seed; the row keeps whichever root lies closer to it."""
    omegas = [1e15, 2e15, 3e15, 4e15]
    step = 1e7 * (1 + 0.1j)  # the tracked branch: k = step * omega / 1e15
    seed = object()
    guesses, roots = [], {}

    def stub_solve(parity, geom, media, guess=None):
        guesses.append(guess)
        on_branch = step * (media.omega / 1e15)
        if guess is seed:
            k = on_branch + alt_offset * abs(step)
        elif media.omega == 3e15:
            k = on_branch + 100.0 * abs(step)  # hop to a far root
        else:
            k = on_branch
        roots[media.omega, guess is seed] = SimpleNamespace(k_spp=k)
        return roots[media.omega, guess is seed]

    monkeypatch.setattr(dispersion, "solve_dispersion", stub_solve)
    monkeypatch.setattr(dispersion, "single_interface_root",
                        lambda media: seed)
    rows = dispersion_sweep((SYMMETRIC,), GEOM, METAL,
                            DielectricSpec(0.9726, -0.063), omegas)
    assert [g is seed for g in guesses] == [False] * 3 + [True, False]
    kept = roots[3e15, keeps == "retry"]
    assert [r.solution for r in rows] == [
        roots[1e15, False], roots[2e15, False], kept, roots[4e15, False]]
    # the next row is predicted from the kept root
    assert guesses[-1] == kept.k_spp + (kept.k_spp - 2 * step)


@pytest.mark.parametrize("kappas", [[-0.2, -0.1, 0.0, 0.1], [-0.2, -0.1, 0.0]],
                         ids=["zero-row-inside", "zero-last-row"])
def test_gain_sweep_crossing_on_an_exact_zero_is_that_row(monkeypatch,
                                                          kappas):
    """A traced row with Im k == 0.0 is the crossing itself, with its own
    root and no refining solve, whether a row follows it or not."""
    solved = []

    def stub_solve(parity, geom, dielectric, guess=None):
        solved.append(dielectric.n_imag)
        return SimpleNamespace(k_spp=complex(1e7, 1e6 * dielectric.n_imag))

    monkeypatch.setattr(dispersion, "solve_dispersion", stub_solve)
    # the stub solver reads the cladding gain off the DielectricSpec itself
    monkeypatch.setattr(dispersion, "make_medium_set",
                        lambda metal, dielectric, omega: dielectric)
    result = gain_sweep((SYMMETRIC,), GEOM, METAL, 0.9726, kappas, OMEGA)
    assert solved == kappas
    zero_row = result.rows[2]
    assert zero_row.solution.k_spp.imag == 0.0
    assert result.crossings["symmetric"] == (SYMMETRIC, 0.0,
                                             zero_row.solution.k_spp)


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


# a point where Newton fails from every seed and Muller converges
MULLER_POINT = {"parity": "symmetric", "n_real": 2.239514158245674,
                "n_imag": 0.10237423201714438, "omega": 8213894388051735.0,
                "d": 7.41448047205626e-07}
# a point of the benchmark's scan pool where every seed fails both methods
NO_ROOT_POINT = {"parity": "symmetric", "n_real": 1.8661914523852046,
                 "n_imag": -0.11638233679455903, "omega": 8338336064035265.0,
                 "d": 2.7351368950349566e-06}


def _point_system(point):
    """(parity, geometry, media) of a point given as in ``MULLER_POINT``."""
    media = make_medium_set(
        METAL, DielectricSpec(point["n_real"], point["n_imag"]),
        point["omega"])
    return (parity_from_name(point["parity"]), SlabGeometry(point["d"]),
            media)


def test_muller_fallback_root(monkeypatch):
    """A point where Newton fails from every seed and Muller converges."""
    calls = []
    real_muller = dispersion._muller

    def counting_muller(*args):
        calls.append(args)
        return real_muller(*args)

    monkeypatch.setattr(dispersion, "_muller", counting_muller)
    sol = solve_dispersion(*_point_system(MULLER_POINT))
    assert calls
    # each call gets a seed and the solve's residual closure, nothing else
    assert all(len(args) == 2 and callable(args[1]) for args in calls)
    assert sol.residual <= 1e-10
    assert (sol.nu0, sol.num) == _principal_decay(sol.k_spp, sol.media)


def test_nonconvergence_names_every_seed_in_order(monkeypatch):
    """Seeds are generated one at a time, yet a refusal lists them all, in
    the order Newton and then Muller tried them."""
    tried = []

    def failing(method):
        def run(seed, *args):
            tried.append((method, seed))
            return None
        return run

    monkeypatch.setattr(dispersion, "_newton", failing("newton"))
    monkeypatch.setattr(dispersion, "_muller", failing("muller"))
    media = _media(-0.063)
    guess = 1.6e7 + 1e5j
    seeds = [guess, single_interface_root(media),
             1.05 * media.k0 * cmath.sqrt(media.eps_d)]
    with pytest.raises(dispersion.NonConvergence) as info:
        solve_dispersion(SYMMETRIC, GEOM, media, guess=guess)
    assert tried == ([("newton", s) for s in seeds]
                     + [("muller", s) for s in seeds])
    assert str(info.value) == (f"symmetric mode: no root from seeds "
                               f"{seeds!r} at omega={media.omega!r}")


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
    points = []
    for i in range(80):
        d_max = 3e-6 if i < 68 else 12e-9
        points.append({
            "parity": ("symmetric", "antisymmetric")[i % 2],
            "n_real": rng.uniform(0.9, 2.5),
            "n_imag": rng.uniform(-0.15, 0.15),
            "omega": rng.uniform(1e15, 9e15),
            "d": 10.0 ** rng.uniform(math.log10(3e-9), math.log10(d_max)),
        })
    return points + [MULLER_POINT, NO_ROOT_POINT]


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


def _evaluations_of_solve(monkeypatch, point):
    """Residual evaluations one solve at ``point`` makes, and its outcome."""
    evaluated = []
    real_system = dispersion._scaled_system

    def counting_system(*args):
        system = real_system(*args)

        def counted(k):
            evaluated.append(k)
            return system(k)
        return counted

    monkeypatch.setattr(dispersion, "_scaled_system", counting_system)
    try:
        outcome = solve_dispersion(*_point_system(point))
    except DispersionError as exc:
        outcome = exc
    return len(evaluated), outcome


def test_residual_evaluations_per_solve(monkeypatch):
    """Pinned counts, so that a change that adds evaluations shows: the
    default ``field`` mode, and the first stalled refusal of
    ``solver_roots.json`` (a 3 nm film)."""
    field_mode = {"parity": "symmetric", "n_real": 0.9726, "n_imag": -0.063,
                  "omega": OMEGA, "d": GEOM.d}
    count, sol = _evaluations_of_solve(monkeypatch, field_mode)
    assert count == 6 and sol.residual <= 1e-10
    stalled = _solver_points()[34]
    count, exc = _evaluations_of_solve(monkeypatch, stalled)
    assert count == 25
    assert isinstance(exc, dispersion.NonConvergence)
    assert "iteration stalled" in str(exc)


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
       n=st.integers(1, 2000))
@example(a=1.5, b=1.5, n=7)            # a == b
@example(a=-0.0, b=-0.0, n=1)
@example(a=3.0, b=-2.0, n=2000)        # a > b
@example(a=0.0, b=5e-324, n=3)         # step underflows to zero
@example(a=-1e308, b=1e308, n=5)       # b - a overflows
def test_linspace_matches_numpy_bit_for_bit(a, b, n):
    assert _bits(linspace(a, b, n)) == _bits(_numpy_linspace(a, b, n))


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
