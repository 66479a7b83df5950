"""Why acceptance criteria 4 and 7 do not assert fixed Im(k) targets.

Criteria 4 and 7 once compared the slab modes at cladding gains n_imag =
-0.063, -0.072 and -0.08 with six Im(k) targets and a parity crossing, kept
verbatim below.  No document in the repository gives their source.  This
script shows that the documented model -- a Drude metal film (omega_p =
1.402e16 rad/s, gamma = 6.25e13 rad/s, d = 60 nm) between claddings
eps_d = n**2, at omega = 4.8e15 rad/s -- cannot produce them:

1. the solved and oracle Im(k) next to the targets, for n_real = 0.9726 and
   1.9726, and the solved gain thresholds and parity crossing next to the
   target crossing;
2. the size and the gain slope of the targets against what the same media
   give;
3. a scan of unit and 2*pi reinterpretations of the inputs;
4. a least-squares fit that frees a constant complex eps_m and d.

The misfit of a parameter set is the RMS over the six targets of
|Im k - target| / |target|; Im k = 0 everywhere scores 1.  The worst of the
six terms and the number within 5% (the tolerance criterion 4 used) are
printed too.  The script takes no arguments:

    PYTHONPATH=src python scripts/criteria_4_7_analysis.py

It runs in a few seconds.  If the paper's own gain model (for instance a
frequency-dependent gain) is added with its source, the targets can come
back as a test of that model.
"""

import cmath
import itertools
import math
import time

import numpy as np
from scipy.optimize import least_squares

from slabspp import (
    PARITIES,
    DielectricSpec,
    DrudeMetalSpec,
    MediumSet,
    SlabGeometry,
    dielectric_epsilon,
    drude_epsilon,
    gain_sweep,
    make_medium_set,
    solve_dispersion,
)
from slabspp.dispersion import DispersionError
from slabspp.oracles import contour_slab_roots

OMEGA_P = 14.02e15
GAMMA = 6.25e13
OMEGA = 4.8e15
D = 60e-9
N_REALS = (0.9726, 1.9726)

# the targets criteria 4 and 7 used to assert, verbatim: Im(k) in rad/m of
# the (symmetric, antisymmetric) mode keyed by cladding n_imag, and the
# parity crossing (n_imag, common Im k)
_REGIME_PATTERN = {
    -0.063: ("attenuated", "attenuated"),
    -0.072: ("attenuated", "amplified"),
    -0.08: ("amplified", "amplified"),
}
_IM_K_TARGETS = {
    -0.063: (7.8029e7, 2.7617e6),
    -0.072: (2.5858e7, -1.96e6),
    -0.08: (-1.8673e7, -6.1217e6),
}
_CROSSING_KAPPA = -0.07747
_CROSSING_IM_K = -4.81e6


def im_k_pairs(eps_m, n_real, omega, d):
    """Solved (symmetric, antisymmetric) Im(k) at the three target gains,
    for a film of permittivity ``eps_m`` at ``omega``."""
    geom = SlabGeometry(d)
    out = []
    for kappa in _IM_K_TARGETS:
        eps_d = dielectric_epsilon(DielectricSpec(n_real, kappa))
        media = MediumSet(omega, eps_d, eps_m)
        out.append(tuple(solve_dispersion(p, geom, media).k_spp.imag
                         for p in PARITIES))
    return out


def misfit_terms(pairs):
    return [(got - tgt) / abs(tgt)
            for got_pair, tgt_pair in zip(pairs, _IM_K_TARGETS.values())
            for got, tgt in zip(got_pair, tgt_pair)]


def rms(terms):
    return math.sqrt(sum(t * t for t in terms) / len(terms))


def describe(terms):
    return (f"RMS miss {rms(terms):.3f}, worst {max(map(abs, terms)):.3f}, "
            f"{sum(abs(t) <= 0.05 for t in terms)} of 6 within 5%")


def measured_vs_target():
    print("1. Solved and oracle Im k against the targets "
          f"(Drude metal, d = {D * 1e9:g} nm, omega = {OMEGA:g} rad/s)")
    metal = DrudeMetalSpec(OMEGA_P, GAMMA)
    geom = SlabGeometry(D)
    for n_real in N_REALS:
        print(f"  n_real = {n_real}")
        print("    n_imag   parity         solver Im k   oracle Im k"
              "      target Im k   regime      target regime")
        for kappa, targets in _IM_K_TARGETS.items():
            media = make_medium_set(metal, DielectricSpec(n_real, kappa),
                                    OMEGA)
            oracle = contour_slab_roots(geom, media)
            for parity, tgt, tgt_regime in zip(PARITIES, targets,
                                               _REGIME_PATTERN[kappa]):
                sol = solve_dispersion(parity, geom, media)
                print(f"    {kappa:<8} {parity.name:<14} "
                      f"{sol.k_spp.imag:12.4e}  "
                      f"{oracle[parity.name].imag:12.4e}  "
                      f"{tgt:15.4e}   {sol.regime:<11} {tgt_regime}")
        sweep = gain_sweep(PARITIES, geom, metal, n_real,
                           np.linspace(-0.1, 0.0, 401), OMEGA)
        for name, crossing in sweep.crossings.items():
            where = "none in [-0.1, 0]" if crossing is None else \
                f"n_imag = {crossing.kappa_star:.6g}"
            print(f"    {name} mode turns amplified at {where}")
        print(f"    parity crossing: {parity_crossing(metal, n_real)}; "
              f"target n_imag = {_CROSSING_KAPPA}, Im k = {_CROSSING_IM_K:g}")


def parity_crossing(metal, n_real):
    """First n_imag below 0 where the two growth rates cross, by bisection."""
    geom = SlabGeometry(D)

    def split(kappa):
        media = make_medium_set(metal, DielectricSpec(n_real, kappa), OMEGA)
        im_s, im_a = (solve_dispersion(p, geom, media).k_spp.imag
                      for p in PARITIES)
        return im_s - im_a, im_s

    grid = np.linspace(0.0, -0.1, 401)
    start = split(grid[0])[0] < 0.0
    for prev, kappa in zip(grid, grid[1:]):
        if (split(kappa)[0] < 0.0) != start:
            lo, hi = prev, kappa
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                if (split(mid)[0] < 0.0) == start:
                    lo = mid
                else:
                    hi = mid
            return f"n_imag = {lo:.6g}, common Im k = {split(lo)[1]:.4g}"
    return "none in [-0.1, 0]"


def scale_check():
    print("\n2. Size and gain slope of the targets")
    metal = DrudeMetalSpec(OMEGA_P, GAMMA)
    kappas = list(_IM_K_TARGETS)
    for n_real in N_REALS:
        media = make_medium_set(metal, DielectricSpec(n_real, kappas[0]),
                                OMEGA)
        k_si = media.k0 * cmath.sqrt(media.eps_m * media.eps_d
                                     / (media.eps_m + media.eps_d))
        tgt = _IM_K_TARGETS[kappas[0]][0]
        print(f"  n_real = {n_real}: symmetric target Im k at n_imag = "
              f"{kappas[0]} is {tgt:.4g} rad/m, {tgt / abs(k_si):.2f} x "
              f"|k| of the single-interface mode ({abs(k_si):.4g} rad/m)")
        pairs = im_k_pairs(drude_epsilon(metal, OMEGA), n_real, OMEGA, D)
        span = kappas[-1] - kappas[0]
        for i, parity in enumerate(PARITIES):
            slope_tgt = (_IM_K_TARGETS[kappas[-1]][i]
                         - _IM_K_TARGETS[kappas[0]][i]) / span
            slope_got = (pairs[-1][i] - pairs[0][i]) / span
            print(f"    {parity.name}: d(Im k)/d(n_imag) over "
                  f"[{kappas[-1]}, {kappas[0]}]: target {slope_tgt:.3g}, "
                  f"solved {slope_got:.3g} rad/m per unit "
                  f"({slope_tgt / slope_got:.0f} x)")


def rescaling_scan():
    print("\n3. Unit and 2*pi reinterpretations of the inputs")
    two_pi = 2.0 * math.pi
    factors = {
        "omega_p": (1.0, two_pi, 1.0 / two_pi),
        "gamma": (1.0, two_pi, 1.0 / two_pi, 10.0, 0.1),
        "omega": (1.0, two_pi, 1.0 / two_pi),
    }
    thicknesses = (6e-9, 10e-9, 20e-9, 30e-9, 60e-9)
    n_reals = (0.97, 1.0, 1.5, 1.97)
    results = []
    failed = 0
    for f_p, f_g, f_w, d, n_real in itertools.product(
            *factors.values(), thicknesses, n_reals):
        metal = DrudeMetalSpec(OMEGA_P * f_p, GAMMA * f_g)
        try:
            pairs = im_k_pairs(drude_epsilon(metal, OMEGA * f_w), n_real,
                               OMEGA * f_w, d)
        except (DispersionError, ValueError):
            failed += 1
            continue
        terms = misfit_terms(pairs)
        results.append((rms(terms), terms, f_p, f_g, f_w, d, n_real))
    results.sort(key=lambda r: r[0])
    print(f"  {len(results) + failed} combinations: omega_p and omega x "
          "{1, 2pi, 1/2pi}, gamma x {1, 2pi, 1/2pi, 10, 1/10}, d in "
          f"{[round(d * 1e9) for d in thicknesses]} nm, n_real in "
          f"{list(n_reals)}; {failed} without a solution")
    print(f"  with every target within 100%: "
          f"{sum(max(map(abs, r[1])) <= 1.0 for r in results)}; with any "
          f"within 5%: {sum(min(map(abs, r[1])) <= 0.05 for r in results)}; "
          "closest five by RMS:")
    for _, terms, f_p, f_g, f_w, d, n_real in results[:5]:
        print(f"    omega_p x {f_p:.4g}, gamma x {f_g:.4g}, omega x "
              f"{f_w:.4g}, d = {d * 1e9:g} nm, n_real = {n_real}: "
              f"{describe(terms)}")


def free_fit():
    print("\n4. Least-squares fit of a constant complex eps_m and d "
          f"(omega = {OMEGA:g} rad/s)")
    penalty = [10.0] * 6

    def residuals(x, n_real):
        eps_m = complex(x[0], x[1])
        try:
            return misfit_terms(im_k_pairs(eps_m, n_real, OMEGA, x[2] * 1e-9))
        except (DispersionError, ValueError, ZeroDivisionError):
            return penalty

    for n_real in N_REALS:
        starts = sorted(
            (rms(residuals(x, n_real)), x) for x in itertools.product(
                (-20.0, -8.0, -3.0, -1.5, -1.1, -0.9),
                (0.05, 0.3, 1.0, 3.0),
                (15.0, 30.0, 66.0, 150.0)))
        best = None
        for _, x0 in starts[:6]:
            fit = least_squares(residuals, x0, args=(n_real,),
                                bounds=([-50.0, 0.0, 2.0], [0.0, 20.0, 500.0]),
                                x_scale=(1.0, 0.1, 10.0))
            miss = rms(residuals(fit.x, n_real))
            if best is None or miss < best[0]:
                best = (miss, fit.x)
        re, im, d_nm = best[1]
        print(f"  n_real = {n_real}: best at eps_m = {re:.4g}{im:+.4g}i, "
              f"d = {d_nm:.4g} nm: {describe(residuals(best[1], n_real))}")


def main():
    t0 = time.monotonic()
    measured_vs_target()
    scale_check()
    rescaling_scan()
    free_fit()
    print(f"\n({time.monotonic() - t0:.1f} s)")


if __name__ == "__main__":
    main()
