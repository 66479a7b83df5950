"""The verify pass as a library call, and the CLI report written from it."""

import math

from slabspp import (DielectricSpec, DrudeMetalSpec, NonConvergence,
                     SlabGeometry, make_medium_set, oracles)
from slabspp.cli import load_config, main
from slabspp.verify import run_checks

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


def test_each_mode_integrates_its_regions_and_x_tail_once(monkeypatch):
    """One verify pass: one |b|^2 region quadrature and one x-tail per mode."""
    z_calls, tail_calls = [], []
    z_quadrature = oracles.weighted_abs2_quadrature
    tail_integral = oracles.signed_tail_integral

    def counted_z(sol):
        z_calls.append(sol.parity.name)
        return z_quadrature(sol)

    def counted_tail(k_im):
        tail_calls.append(k_im)
        return tail_integral(k_im)

    monkeypatch.setattr(oracles, "weighted_abs2_quadrature", counted_z)
    monkeypatch.setattr(oracles, "signed_tail_integral", counted_tail)
    records = _default_checks()
    assert all(r.passed for r in records)
    assert sorted(z_calls) == ["antisymmetric", "symmetric"]
    # each parity's mode has its own Im k
    assert len(tail_calls) == len(set(tail_calls)) == 2


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
    assert len(steps) == 119


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
