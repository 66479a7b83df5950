"""Smoke tests for the analysis scripts under ``scripts/``."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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


def _ab(*args):
    """Run ``scripts/ab.py`` with ``args``; the finished process."""
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab.py"), *map(str, args)],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("mode, identical, noun, work", [
    pytest.param("scan", "18646 points and 1354 refusals",
                 "residual evaluations", {"scan": 125373}, id="scan"),
    pytest.param("sweeps", "1446 rows and 30 crossings",
                 "residual evaluations", {"gain": 5194, "dispersion": 1115},
                 id="sweeps"),
    pytest.param("verify", "420 records", "Kronrod steps", {"verify": 2093},
                 id="verify"),
])
def test_ab_tree_against_itself_is_identical(mode, identical, noun, work):
    """One round; each copy prints the same work per group, pinned here."""
    src = Path(slabspp.__file__).resolve().parents[1]
    proc = _ab(src, src, mode, "--rounds", 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.endswith(f"\nidentical: {identical}, on every round\n")
    for group, count in work.items():
        assert f"\n{group} speedup (old time / new time): median " \
            in proc.stdout
        printed = re.findall(
            rf"^  {group} (slabspp_old|slabspp_new) \(.*\): median \S+ "
            rf"ms\(ref\)/\w+, (\d+) {noun}$", proc.stdout, re.MULTILINE)
        assert printed == [("slabspp_old", str(count)),
                           ("slabspp_new", str(count))], proc.stdout


def test_ab_verify_tables_the_checks_of_differing_trees(tmp_path):
    src = Path(slabspp.__file__).resolve().parents[1]
    shutil.copytree(src / "slabspp", tmp_path / "slabspp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    oracles = tmp_path / "slabspp" / "oracles.py"
    text = oracles.read_text()
    assert "\n_FD_STEP = 1e-12 " in text
    # a 100x coarser curl step fails the curl check of every mode
    oracles.write_text(text.replace("\n_FD_STEP = 1e-12 ",
                                    "\n_FD_STEP = 1e-10 "))
    proc = _ab(src, tmp_path, "verify", "--rounds", 1)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert ("\nDIFFERENT: 60 of 420 entries; first, config 0 "
            "(omega=2000000000000000.0, d=2e-08, n_imag=-0.063), entry 5:\n"
            in proc.stdout)
    rows = {line.split()[0]: line.split()[1:]
            for line in proc.stdout.splitlines()[-9:]}
    assert rows.pop("check") == ["changed", "worst", "old", "worst", "new",
                                 "max", "|Δ|", "flips"]
    curl = rows.pop("curl_consistency")
    assert curl[0] == "60/60" and curl[4:] == ["60", "pass->FAIL"]
    assert float(curl[1]) < 1e-6 < float(curl[2])
    # the old values are tiny beside the worst new one, so the largest move
    # is that value, to the column's three digits
    assert float(curl[3]) == pytest.approx(float(curl[2]), rel=1e-2)
    assert len(rows) == 7
    for check, (changed, old, new, move, flips) in rows.items():
        assert changed.startswith("0/") and old == new and flips == "none"
        assert move == "0"


def test_ab_scan_counts_each_kind_of_change(tmp_path):
    src = Path(slabspp.__file__).resolve().parents[1]
    shutil.copytree(src / "slabspp", tmp_path / "slabspp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    dispersion = tmp_path / "slabspp" / "dispersion.py"
    text = dispersion.read_text()
    assert "\nD_MIN = 1e-10\n" in text
    # a 3.5 nm solver floor refuses the pool's thinnest films, solved or not
    dispersion.write_text(text.replace("\nD_MIN = 1e-10\n",
                                       "\nD_MIN = 3.5e-9\n"))
    proc = _ab(src, tmp_path, "scan", "--rounds", 1)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "\nDIFFERENT: 422 of 20000 entries; first, slice 0 " in proc.stdout
    assert proc.stdout.endswith(
        "\nby kind: 286 point -> refusal, 136 refusal -> refusal\n")


@pytest.mark.parametrize("scale, value, beyond", [
    ("2**-40", 2**-40, 0), ("2**-20", 2**-20, 18646)],
    ids=["bits", "another-zero"])
def test_ab_scan_measures_how_far_roots_moved(tmp_path, scale, value,
                                              beyond):
    """A copy that scales every accepted root by ``1 + scale``, after the
    refusal tests, moves each root by that much, relative: ``2**-40`` is
    bits, ``2**-20`` (9.5e-7) lies beyond the 1e-9 bar of another zero."""
    src = Path(slabspp.__file__).resolve().parents[1]
    shutil.copytree(src / "slabspp", tmp_path / "slabspp",
                    ignore=shutil.ignore_patterns("__pycache__"))
    dispersion = tmp_path / "slabspp" / "dispersion.py"
    text = dispersion.read_text()
    accept = "\n    return ModeSolution(parity, root, "
    assert accept in text
    dispersion.write_text(text.replace(
        accept, f"\n    root *= 1 + {scale}{accept}"))
    proc = _ab(src, tmp_path, "scan", "--rounds", 1)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    *_, kinds, moved = proc.stdout.splitlines()
    assert kinds == "by kind: 18646 point -> point"
    largest, tail = re.fullmatch(
        r"roots moved: 18646, largest relative \|Δk\| (\S+), (.*)",
        moved).groups()
    assert float(largest) == pytest.approx(value, rel=1e-2)
    assert tail == f"{beyond} beyond 1e-9 (another zero)"


def test_ab_usage_errors_exit_2(tmp_path):
    src = Path(slabspp.__file__).resolve().parents[1]
    for args, message in [
            ((tmp_path, src, "scan"), f"{tmp_path} holds no slabspp package"),
            ((src, src, "cli"), "argument mode: invalid choice: 'cli' "),
            ((src, src, "verify", "--rounds", 0),
             "--rounds 0 gives the verify group fewer than the 2 pairs its "
             "quartiles need")]:
        proc = _ab(*args)
        assert proc.returncode == 2 and proc.stdout == "", proc.stderr
        *usage, last = proc.stderr.splitlines()
        assert last.startswith(f"ab.py: error: {message}"), proc.stderr
        assert usage and all(line.startswith(("usage:", " "))
                             for line in usage), proc.stderr


def test_verify_box_counts_by_check_and_band():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "verify_box.py"),
         "--points", "40"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("verify box: first 40 points of the seed-0 "
                               "pool, both parities, 2e-06 m thick film, ")
    assert lines[1].split()[1:] == ["<", "0.95", "0.95-1.35", ">", "1.35"]
    assert lines[2].split()[0] == "points"
    assert sum(map(int, lines[2].split()[1:])) == 40
    assert lines[3] == "  check (FAIL / refused)"
    counts = {line.split()[0]: line.split()[1:] for line in lines[4:]}
    assert {"ccr_closure", "normalization_quadrature", "curl_consistency",
            "thick_film_parity_split"} <= set(counts)
    for cells in counts.values():
        assert len(cells) == 9 and cells[1::3] == ["/"] * 3
