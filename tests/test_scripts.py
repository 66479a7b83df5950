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
