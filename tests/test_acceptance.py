"""End-to-end acceptance checks.

One test per numbered criterion; each prints a single PASS/FAIL summary line
with the measured numbers.  Criteria 4 and 7 check the gain crossing -- both
parities turning from attenuated to amplified, at different pump levels,
and their growth rates crossing -- against references that the independent
contour-integral root oracle (:func:`slabspp.oracles.contour_slab_roots`)
computes during the test.  The fixed ``Im k`` targets and crossing these
two criteria used to assert cannot come from the documented model; they and
the analysis behind that conclusion live in
``scripts/criteria_4_7_analysis.py``.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from slabspp import (
    ANTISYMMETRIC,
    CROSS_DIRECTION,
    PARITIES,
    SAME_DIRECTION,
    SYMMETRIC,
    DielectricSpec,
    DrudeMetalSpec,
    SlabGeometry,
    SppState,
    ccr_check,
    commutator,
    commutator_numeric,
    compare_states,
    gain_sweep,
    green_identity_check,
    h_field_mean,
    make_medium_set,
    normalization,
    solve_dispersion,
)
from slabspp.oracles import (
    contour_slab_roots,
    curl_consistency_error,
    normalization_quadrature,
    thick_film_degeneracy,
    weighted_abs2_quadrature,
)

METAL = DrudeMetalSpec(14.02e15, 6.25e13)
GEOM = SlabGeometry(60e-9)
OMEGA = 4.8e15
N_REAL = 0.9726


def _media(kappa, n_real=N_REAL, omega=OMEGA):
    return make_medium_set(METAL, DielectricSpec(n_real, kappa), omega)


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} -- {detail}")


def test_criterion_1_ccr_closure():
    """``ccr_check`` divides two weightings of the same two overlap terms,
    so it is 1 by construction: this criterion tests rounding only."""
    t0 = time.monotonic()
    worst = 0.0
    for omega in (2e15, 3e15, 4e15, 4.8e15, 5.5e15):
        for kappa in (0.0, -0.063, -0.072, -0.08):
            media = _media(kappa, omega=omega)
            for parity in PARITIES:
                sol = solve_dispersion(parity, GEOM, media)
                worst = max(worst, abs(ccr_check(sol) - 1.0))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, ok, f"worst |ccr-1| = {worst:.3e} over 5x4x2 grid "
                   f"(tol 1e-12), {elapsed:.2f}s")
    assert worst <= 1e-12
    assert elapsed < 1.0


def test_criterion_2_commutator_oracle_equivalence():
    t0 = time.monotonic()
    rng = np.random.default_rng(20260814)
    worst = 0.0
    for kappa in (0.0, -0.08):  # one attenuated, one amplified mode
        sol = solve_dispersion(SYMMETRIC, GEOM, _media(kappa))
        z_terms = weighted_abs2_quadrature(sol)
        ell = min(1.0 / abs(sol.k_spp.imag),
                  400.0 * math.pi / sol.k_spp.real)
        for _ in range(10):
            lo, hi = np.sort(rng.uniform(0.05, 1.45, size=2))
            x, xp = hi * ell, lo * ell
            for kind in (SAME_DIRECTION, CROSS_DIRECTION):
                closed = commutator(kind, x, xp, sol)
                numeric = commutator_numeric(kind, x, xp, sol, z_terms)
                dev = abs(closed - numeric) / max(abs(closed), abs(numeric))
                worst = max(worst, dev)
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(2, ok, f"worst closed-vs-numeric deviation = {worst:.3e} "
                   f"(tol 1e-6), {elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_3_green_identity():
    t0 = time.monotonic()
    media = _media(-0.08)
    worst = 0.0
    for parity in PARITIES:
        sol = solve_dispersion(parity, GEOM, media)
        worst = max(worst, green_identity_check(
            sol, weighted_abs2_quadrature(sol)))
    elapsed = time.monotonic() - t0
    ok = worst < 1e-6 and elapsed < 10.0
    _report(3, ok, f"worst identity deviation = {worst:.3e} (tol 1e-6), "
                   f"{elapsed:.1f}s")
    assert worst < 1e-6
    assert elapsed < 10.0


# expected regimes (symmetric, antisymmetric) at the three oracle-placed gain
# levels of _oracle_gain_levels: below both thresholds, between them, and
# past the parity crossing.  The fixed Im(k) targets and crossing once
# asserted here (_IM_K_TARGETS, _CROSSING_KAPPA, _CROSSING_IM_K) are kept
# verbatim, next to the analysis showing the documented model cannot reach
# them, in scripts/criteria_4_7_analysis.py.
_REGIME_PATTERN = (
    ("attenuated", "attenuated"),
    ("attenuated", "amplified"),
    ("amplified", "amplified"),
)


def _oracle_gain_levels(n_real):
    """Gain thresholds, parity crossing and probe levels from the root oracle.

    Returns ``(kappa_a, kappa_s, kappa_c, levels)``: the ``n_imag`` at which
    the antisymmetric and the symmetric mode turn amplified, the ``n_imag``
    at which their growth rates cross (each the first sign change going
    down from 0 on [-0.1, 0], refined by Brent's method), and three probe
    levels -- half way to the first threshold, between the thresholds, and
    half way from the crossing to -0.1.
    """
    grid = np.linspace(0.0, -0.1, 41)

    def im_k(kappa, name):
        return contour_slab_roots(GEOM, _media(kappa, n_real))[name].imag

    def split(kappa):
        roots = contour_slab_roots(GEOM, _media(kappa, n_real))
        return roots["symmetric"].imag - roots["antisymmetric"].imag

    def first_root(g, what):
        prev_x, prev_g = grid[0], g(grid[0])
        for x in grid[1:]:
            gx = g(x)
            if (gx < 0.0) != (prev_g < 0.0):
                return brentq(g, x, prev_x, xtol=1e-15)
            prev_x, prev_g = x, gx
        raise AssertionError(f"n={n_real}: no {what} on [-0.1, 0]")

    kappa_a = first_root(lambda kap: im_k(kap, "antisymmetric"),
                         "antisymmetric threshold")
    kappa_s = first_root(lambda kap: im_k(kap, "symmetric"),
                         "symmetric threshold")
    kappa_c = first_root(split, "parity crossing")
    levels = (0.5 * kappa_a, 0.5 * (kappa_a + kappa_s),
              0.5 * (kappa_c - 0.1))
    return kappa_a, kappa_s, kappa_c, levels


def _curve_crossing(n_real):
    """kappa where the two parity growth rates coincide, by bisection."""

    def split(kappa):
        media = _media(kappa, n_real)
        ks = solve_dispersion(SYMMETRIC, GEOM, media).k_spp
        ka = solve_dispersion(ANTISYMMETRIC, GEOM, media).k_spp
        return ks.imag - ka.imag, ks.imag

    grid = np.linspace(-1e-4, -0.1, 60)
    prev_kappa, (prev_diff, _) = grid[0], split(grid[0])
    for kappa in grid[1:]:
        diff, _ = split(kappa)
        if diff == 0.0 or (diff < 0) != (prev_diff < 0):
            lo, hi = prev_kappa, kappa
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                dm, _ = split(mid)
                if (dm < 0) == (prev_diff < 0):
                    lo = mid
                else:
                    hi = mid
            mid = 0.5 * (lo + hi)
            return mid, split(mid)[1]
        prev_kappa, prev_diff = kappa, diff
    return None, None


def _rel(a, b):
    return abs(a - b) / abs(b)


def test_criterion_4_gain_crossing_targets():
    t0 = time.monotonic()
    lines = []
    problems = []
    for n_real in (0.9726, 1.9726):
        kappa_a, kappa_s, kappa_c, levels = _oracle_gain_levels(n_real)
        lines.append(f"n={n_real}: oracle thresholds kappa_a* = "
                     f"{kappa_a:.6e}, kappa_s* = {kappa_s:.6e}, crossing "
                     f"kappa_c = {kappa_c:.6e}")
        if not 0.0 > kappa_a > kappa_s > kappa_c:
            problems.append(f"n={n_real}: thresholds out of order")

        for kappa, expected in zip(levels, _REGIME_PATTERN):
            media = _media(kappa, n_real)
            oracle = contour_slab_roots(GEOM, media)
            sols = [solve_dispersion(p, GEOM, media) for p in PARITIES]
            got = tuple(sol.regime for sol in sols)
            dev = max(_rel(sol.k_spp, oracle[sol.parity.name]) for sol in sols)
            lines.append(f"n={n_real} kappa={kappa:.6e}: regimes {got}, "
                         f"expected {expected}; solver-vs-oracle k "
                         f"{dev:.2e} (tol 1e-8)")
            if got != expected:
                problems.append(f"n={n_real} kappa={kappa:.6e}: regimes {got}")
            if not dev <= 1e-8:
                problems.append(f"n={n_real} kappa={kappa:.6e}: solver k off "
                                f"the oracle by {dev:.2e}")

        sweep = gain_sweep(PARITIES, GEOM, METAL, n_real,
                           np.linspace(-0.1, 0.0, 41), OMEGA)
        found = {name: None if c is None else c.kappa_star
                 for name, c in sweep.crossings.items()}
        found["parity crossing"] = _curve_crossing(n_real)[0]
        expected = {"antisymmetric": kappa_a, "symmetric": kappa_s,
                    "parity crossing": kappa_c}
        for what, ref in expected.items():
            got = found[what]
            dev = math.inf if got is None else _rel(got, ref)
            lines.append(f"n={n_real}: {what} at kappa = {got}, oracle "
                         f"{ref:.10e}, deviation {dev:.2e} (tol 1e-6)")
            if not dev <= 1e-6:
                problems.append(f"n={n_real}: {what} off the oracle by "
                                f"{dev:.2e}")
    elapsed = time.monotonic() - t0
    ok = not problems and elapsed < 5.0
    _report(4, ok, ("thresholds, regimes and crossings match the root oracle "
                    "for n_d = 0.9726 and 1.9726" if not problems else
                    "; ".join(problems)) + f", {elapsed:.1f}s")
    for line in lines:
        print("  " + line)
    assert not problems, problems
    assert elapsed < 5.0


def test_criterion_5_thick_film_degeneracy():
    t0 = time.monotonic()
    report = thick_film_degeneracy(_media(-0.081, n_real=1.9726), 2e-6)
    split = report["rel_split"]
    offset = max(report["rel_offset_symmetric"],
                 report["rel_offset_antisymmetric"])
    elapsed = time.monotonic() - t0
    ok = split < 1e-8 and offset < 1e-9 and elapsed < 1.0
    _report(5, ok, f"parity split {split:.3e} (tol 1e-8), single-interface "
                   f"offset {offset:.3e} (tol 1e-9), {elapsed:.2f}s")
    assert split < 1e-8
    assert offset < 1e-9
    assert elapsed < 1.0


def test_criterion_6_normalization_oracle():
    t0 = time.monotonic()
    rng = np.random.default_rng(1406)
    worst = 0.0
    for i in range(10):
        n_real = rng.uniform(0.9, 2.2)
        kappa = rng.uniform(-0.09, 0.09)
        omega = rng.uniform(2.5e15, 5.5e15)
        d = rng.uniform(40e-9, 120e-9)
        geom = SlabGeometry(d)
        media = _media(kappa, n_real, omega)
        sol = solve_dispersion(PARITIES[i % 2], geom, media)
        closed = normalization(sol)
        quad = normalization_quadrature(sol)
        worst = max(worst, abs(closed - quad) / abs(quad))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-8 and elapsed < 5.0
    _report(6, ok, f"worst closed-vs-quadrature deviation = {worst:.3e} "
                   f"(tol 1e-8) on 10 random modes, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


# expected at the three levels of _REGIME_PATTERN: decay for both below the
# thresholds (symmetric faster), decay/growth split between them, growth for
# both past the parity crossing (symmetric faster)
_ENVELOPE_EXPECTATION = (
    lambda im_s, im_a: im_s > im_a > 0,
    lambda im_s, im_a: im_s > 0 > im_a,
    lambda im_s, im_a: im_s < im_a < 0,
)


def test_criterion_7_field_propagation():
    t0 = time.monotonic()
    state = SppState(alpha_mag=math.sqrt(7.0), alpha_phase=1.5)
    worst_slope = 0.0
    envelope_ok = True
    lines = []
    levels = _oracle_gain_levels(N_REAL)[3]
    for kappa, expectation in zip(levels, _ENVELOPE_EXPECTATION):
        media = _media(kappa)
        ims = {}
        for parity in PARITIES:
            sol = solve_dispersion(parity, GEOM, media)
            samples = h_field_mean(sol, state)
            slope = np.polyfit(samples.xs,
                               np.log(np.abs(samples.values[:, 0])), 1)[0]
            rel = abs(slope + sol.k_spp.imag) / abs(sol.k_spp.imag)
            worst_slope = max(worst_slope, rel)
            ims[parity.name] = sol.k_spp.imag
        this_ok = expectation(ims["symmetric"], ims["antisymmetric"])
        envelope_ok &= this_ok
        lines.append(f"kappa={kappa:.6e}: Im k (sym, anti) = "
                     f"({ims['symmetric']:.4e}, {ims['antisymmetric']:.4e}), "
                     f"envelope ordering {'ok' if this_ok else 'MISMATCH'}")
    elapsed = time.monotonic() - t0
    ok = worst_slope <= 1e-3 and envelope_ok and elapsed < 1.0
    _report(7, ok, f"worst slope error {worst_slope:.3e} (tol 1e-3); "
                   f"envelope ordering {'ok' if envelope_ok else 'MISMATCH'}"
                   f", {elapsed:.2f}s")
    for line in lines:
        print("  " + line)
    assert worst_slope <= 1e-3
    assert envelope_ok, (
        "envelope ordering differs from the expected pattern at the "
        "oracle-placed gain levels -- see the printed table")
    assert elapsed < 1.0


def test_criterion_8_curl_consistency():
    t0 = time.monotonic()
    worst = 0.0
    for parity in PARITIES:
        sol = solve_dispersion(parity, GEOM, _media(-0.08))
        zc = 1.0 / sol.nu0.real
        depths = np.concatenate([
            -np.linspace(0.05, 2.0, 20) * zc,
            np.linspace(0.03, 0.97, 20) * GEOM.d,  # stays off the midplane
            GEOM.d + np.linspace(0.05, 2.0, 20) * zc,
        ])
        worst = max(worst, curl_consistency_error(sol, depths))
    elapsed = time.monotonic() - t0
    ok = worst <= 1e-6 and elapsed < 1.0
    _report(8, ok, f"worst finite-difference mismatch = {worst:.3e} "
                   f"(tol 1e-6) at 20 depths per region, {elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 1.0


def test_criterion_9_state_reduction_and_growth():
    t0 = time.monotonic()
    sol = solve_dispersion(SYMMETRIC, GEOM, _media(-0.08))
    coherent = SppState(alpha_mag=math.sqrt(7.0), alpha_phase=1.5)
    unsqueezed = SppState(alpha_mag=math.sqrt(7.0), alpha_phase=1.5,
                          xi_mag=0.0, xi_phase=0.7)
    squeezed = SppState(alpha_mag=math.sqrt(7.0), alpha_phase=1.5,
                        xi_mag=1.0, xi_phase=0.0)

    base = h_field_mean(sol, coherent)
    zero = compare_states(sol, coherent, unsqueezed)
    scale = np.abs(base.values).max()
    reduction = np.abs(zero.values).max() / scale

    diff = compare_states(sol, coherent, squeezed)
    mags = np.abs(diff.values[:, 0])
    nonzero = mags[0] > 0
    growing = bool(np.all(np.diff(mags) > 0))
    elapsed = time.monotonic() - t0
    ok = reduction <= 1e-12 and nonzero and growing and elapsed < 1.0
    _report(9, ok, f"xi=0 reduction residual = {reduction:.3e} (tol 1e-12); "
                   f"squeezed-vs-coherent difference nonzero={nonzero}, "
                   f"growing={growing}, {elapsed:.2f}s")
    assert reduction <= 1e-12
    assert nonzero and growing
    assert elapsed < 1.0
