"""The verify pass as a library call, and the CLI report written from it."""

import math
import random
from collections import Counter
from pathlib import Path

from slabspp import (DielectricSpec, DrudeMetalSpec, NonConvergence,
                     SlabGeometry, make_medium_set, oracles)
from slabspp.cli import load_config, main
from slabspp.verify import run_checks

from scan_box import box_point

# each check with its default tolerance, in report order
_PER_PARITY = (("ccr_closure", 1e-12), ("commutator_same_direction", 1e-6),
               ("commutator_cross_direction", 1e-6), ("green_identity", 1e-6),
               ("normalization_quadrature", 1e-8), ("curl_consistency", 1e-6))
_ORDER = ([(check, parity, tol) for parity in ("symmetric", "antisymmetric")
           for check, tol in _PER_PARITY]
          + [("thick_film_parity_split", "both", 1e-8),
             ("thick_film_single_interface", "both", 1e-9)])


def _default_checks(d=None):
    cfg = load_config(None)
    media = make_medium_set(
        DrudeMetalSpec(cfg["metal"]["omega_p"], cfg["metal"]["gamma"]),
        DielectricSpec(cfg["dielectric"]["n_real"],
                       cfg["dielectric"]["n_imag"]),
        cfg["verify"]["omega"])
    return run_checks(media,
                      SlabGeometry(cfg["geometry"]["d"] if d is None else d),
                      cfg["verify"]["thick_d"])


def _report_rows(path):
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("#")]
    assert lines[0] == "check,parity,omega_rad_s,value,tolerance,status,note"
    return [line.split(",") for line in lines[1:]]


def _row(record):
    return [record.check, record.parity, f"{record.omega:.17g}",
            f"{record.value:.17g}", f"{record.tolerance:.17g}",
            "pass" if record.passed else "FAIL", record.note]


def test_default_pass_runs_every_check_in_order(tmp_path):
    records = _default_checks()
    assert [(r.check, r.parity, r.tolerance) for r in records] == _ORDER
    assert all(r.passed and r.note == "" for r in records)
    out = tmp_path / "report.csv"
    assert main(["--out", str(out), "verify"]) == 0
    assert _report_rows(out) == [_row(r) for r in records]


def test_unsolvable_film_fails_each_parity(tmp_path):
    records = _default_checks(d=5e-11)  # below the solver's thickness floor
    assert [(r.check, r.parity, r.passed) for r in records] == [
        ("solve", "symmetric", False), ("solve", "antisymmetric", False),
        ("thick_film_parity_split", "both", True),
        ("thick_film_single_interface", "both", True)]
    for r in records[:2]:
        assert math.isnan(r.value)
        assert r.note.startswith("ValueError: film thickness")
    config = tmp_path / "thin.ini"
    config.write_text("[geometry]\nd = 5e-11\n")
    out = tmp_path / "report.csv"
    assert main(["--config", str(config), "--out", str(out), "verify"]) == 1
    assert [row[:2] + row[5:6] for row in _report_rows(out)] == [
        ["solve", "symmetric", "FAIL"], ["solve", "antisymmetric", "FAIL"],
        ["thick_film_parity_split", "both", "pass"],
        ["thick_film_single_interface", "both", "pass"]]


def test_each_mode_integrates_its_regions_once(monkeypatch):
    """One verify pass: one |b|^2 region quadrature per mode."""
    z_calls = []
    z_quadrature = oracles.weighted_abs2_quadrature

    def counted_z(sol):
        z_calls.append(sol.parity.name)
        return z_quadrature(sol)

    monkeypatch.setattr(oracles, "weighted_abs2_quadrature", counted_z)
    records = _default_checks()
    assert all(r.passed for r in records)
    assert sorted(z_calls) == ["antisymmetric", "symmetric"]


def _neighbours(value, n):
    """The ``n`` floats below ``value`` and the ``n`` above it."""
    out = []
    for toward in (-math.inf, math.inf):
        x = value
        for _ in range(n):
            x = math.nextafter(x, toward)
            out.append(x)
    return out


def test_green_identity_around_the_threshold_passes_or_is_refused():
    """Around the default gain sweep's symmetric crossing gamma_prime
    cancels, and the Green identity's relative error grows as ~3e-16
    times the excess-noise factor F: at the 12 float neighbours of the
    golden kappa*, each of its records passes or is refused for F, and
    none fails on a value."""
    golden = Path(__file__).parent / "golden" / "gain_sweep.csv"
    prefix = "# crossing symmetric: kappa_star = "
    line = next(line for line in golden.read_text().splitlines()
                if line.startswith(prefix))
    kappa_star = float(line[len(prefix):].split(",")[0])
    assert kappa_star == -0.0013660624440627993
    cfg = load_config(None)
    metal = DrudeMetalSpec(cfg["metal"]["omega_p"], cfg["metal"]["gamma"])
    refused = 0
    for kappa in _neighbours(kappa_star, 6):
        media = make_medium_set(
            metal, DielectricSpec(cfg["dielectric"]["n_real"], kappa),
            cfg["gain-sweep"]["omega"])
        for r in run_checks(media, SlabGeometry(cfg["geometry"]["d"]),
                            cfg["verify"]["thick_d"]):
            if r.check != "green_identity" or r.passed:
                continue
            assert math.isnan(r.value), (kappa, r)
            prefix = "ThresholdCancellation: excess-noise factor F = "
            assert r.note.startswith(prefix), (kappa, r)
            assert float(r.note[len(prefix):].split()[0]) > 3e7, (kappa, r)
            refused += 1
    assert refused > 0


def test_rule_steps_of_the_default_pass(monkeypatch):
    """Pinned Gauss-Kronrod steps of one default verify pass, so that a
    change that adds or saves quadrature work shows; no timing is read."""
    steps = []
    kronrod = oracles._kronrod

    def counted(*args):
        steps.append(args[1:3])
        return kronrod(*args)

    monkeypatch.setattr(oracles, "_kronrod", counted)
    assert all(r.passed for r in _default_checks())
    assert len(steps) == 51


def test_failed_region_quadrature_fails_its_three_checks(monkeypatch,
                                                         tmp_path):
    """The quadrature runs once per mode; its error fails all three."""
    calls = []

    def fail(sol):
        calls.append(sol.parity.name)
        raise oracles.QuadratureError("injected")

    monkeypatch.setattr(oracles, "weighted_abs2_quadrature", fail)
    weighted = {"commutator_same_direction", "commutator_cross_direction",
                "green_identity"}
    records = _default_checks()
    assert calls == ["symmetric", "antisymmetric"]
    assert [(r.check, r.parity) for r in records] == [
        (check, parity) for check, parity, _ in _ORDER]
    for r in records:
        if r.check in weighted:
            assert not r.passed and math.isnan(r.value)
            assert r.note == "QuadratureError: injected"
        else:
            assert r.passed and r.note == ""
    out = tmp_path / "report.csv"
    assert main(["--out", str(out), "verify"]) == 1
    assert _report_rows(out) == [_row(r) for r in records]


def test_unsolvable_thick_film_fails_its_two_checks(monkeypatch, tmp_path):
    config = tmp_path / "thin.ini"
    config.write_text("[verify]\nthick_d = 5e-11\n")  # below the solver floor
    out = tmp_path / "report.csv"
    assert main(["--config", str(config), "--out", str(out), "verify"]) == 1
    rows = _report_rows(out)
    assert [row[:2] for row in rows] == [
        [check, parity] for check, parity, _ in _ORDER]
    assert all(row[5] == "pass" for row in rows[:-2])
    for row in rows[-2:]:
        assert (row[3], row[5]) == ("nan", "FAIL")
        assert row[6].startswith("ValueError: film thickness 5e-11 m")

    calls = []

    def fail(media, d):
        calls.append(d)
        raise NonConvergence("injected")

    monkeypatch.setattr(oracles, "thick_film_degeneracy", fail)
    records = _default_checks()
    assert calls == [2e-6]  # one solve serves, and fails, both checks
    assert [r.note for r in records[-2:]] == ["NonConvergence: injected"] * 2
    assert all(r.passed for r in records[:-2])
    assert not any(r.passed for r in records[-2:])


# FAIL and refused records per check of the verify box draws below: ROADMAP
# item 8's gate; a change that moves them says so in CHANGES.md
BOX_COUNTS = {
    "solve": (0, 3),
    "ccr_closure": (0, 0),
    "commutator_same_direction": (0, 0),
    "commutator_cross_direction": (0, 0),
    "green_identity": (0, 0),
    "normalization_quadrature": (0, 0),
    "curl_consistency": (0, 0),
    "thick_film_parity_split": (0, 0),
    "thick_film_single_interface": (0, 0),
}
BOX_COUNTS_ABOVE = {
    "solve": (0, 38),
    "ccr_closure": (0, 0),
    "commutator_same_direction": (0, 0),
    "commutator_cross_direction": (0, 0),
    "green_identity": (0, 0),
    "normalization_quadrature": (0, 2),
    "curl_consistency": (1, 0),
    "thick_film_parity_split": (44, 7),
    "thick_film_single_interface": (45, 7),
}


def _box_draw(n, metal, below):
    """The first ``n`` systems of one fixed draw, ``random.Random(8)``, over
    the benchmark's scan box (:func:`scan_box.box_point`) that lie below
    0.95 omega_sp of their own cladding (``below``), or at or above it."""
    rng = random.Random(8)
    systems = []
    while len(systems) < n:
        point = box_point(rng, 0)  # run_checks takes both parities
        omega = point["omega"]
        media = make_medium_set(
            metal, DielectricSpec(point["n_real"], point["n_imag"]), omega)
        omega_sp = metal.omega_p / math.sqrt(1.0 + media.eps_d.real)
        if (omega < 0.95 * omega_sp) == below:
            systems.append((media, SlabGeometry(point["d"])))
    return systems


def _box_counts(n, below):
    """(FAIL, refused) records per check of the verify pass over a draw."""
    cfg = load_config(None)
    metal = DrudeMetalSpec(cfg["metal"]["omega_p"], cfg["metal"]["gamma"])
    fails, refused = Counter(), Counter()
    for media, geom in _box_draw(n, metal, below):
        for r in run_checks(media, geom, cfg["verify"]["thick_d"]):
            refused[r.check] += bool(r.note)
            fails[r.check] += not r.note and not r.passed
    return {check: (fails[check], refused[check]) for check in refused}


def test_verify_box_below_the_surface_plasmon_frequency():
    """The verify pass at 150 scan-box systems below 0.95 omega_sp: the
    FAIL and refused records of each check, pinned as the draw holds them.

    Today the only ones are solver refusals (ROADMAP item 1a); every other
    check passes.  The sample is fixed: a change that moves a count changes
    it here and says why, and never re-draws the sample.
    """
    assert _box_counts(150, below=True) == BOX_COUNTS


def test_verify_box_above_the_surface_plasmon_frequency():
    """The verify pass at the first 100 systems of the same draw at or above
    0.95 omega_sp, pinned as the draw holds them.

    The thick-film FAILs are the 2 um film's evanescent roots, which are not
    the SPP (ROADMAP item 8), and its refusals are points where Newton fails
    from every seed; the solve and normalization refusals and the curl FAIL
    are the solver's and the oracles' (items 1, 3 and 8).  A change
    that moves a count changes it here and says why, and never re-draws the
    sample.
    """
    assert _box_counts(100, below=False) == BOX_COUNTS_ABOVE
