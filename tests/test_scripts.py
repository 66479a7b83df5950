"""Smoke tests for the analysis scripts under ``scripts/``."""

import os
import subprocess
import sys
from pathlib import Path

import slabspp

ROOT = Path(__file__).resolve().parents[1]


def test_criteria_4_7_analysis_runs():
    src = str(Path(slabspp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "criteria_4_7_analysis.py")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for n_real in ("0.9726", "1.9726"):
        assert f"\n  n_real = {n_real}\n" in proc.stdout
    assert proc.stdout.count("mode turns amplified at n_imag") == 4


def test_scan_ab_tree_against_itself_is_identical():
    src = str(Path(slabspp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_ab.py"), src, src,
         "--points", "300"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert ("\nidentical: (k_spp, nu0, num, amplitude, residual, d_value, "
            "ccr) at ") in proc.stdout
    assert "speedup (old time / new time): median " in proc.stdout


def test_verify_ab_tree_against_itself_is_identical():
    src = str(Path(slabspp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_ab.py"), src, src,
         "--rounds", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "\nidentical: 420 check records, on every round\n" in proc.stdout
    assert "speedup (old time / new time): median " in proc.stdout


def test_sweep_ab_tree_against_itself_is_identical():
    src = str(Path(slabspp.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "sweep_ab.py"), src, src,
         "--rounds", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "\nidentical: 1446 rows and 30 crossings, on every round\n" \
        in proc.stdout
    for kind in ("gain", "dispersion"):
        assert f"\n{kind} speedup (old time / new time): median " \
            in proc.stdout
