"""The verify pass over the benchmark's scan box: FAILs and refusals.

    python scripts/verify_box.py [--points N]

Runs ``verify.run_checks`` of this checkout's ``src`` at the first ``N``
points of the benchmark's seed-0 scan pool, built by
``perfbench/phases.build`` (imported, never edited).  Each point gives its
film, cladding and frequency; ``run_checks`` checks both parities there, and
the thick film is the CLI's default 2 um.

Prints, per check and per frequency band, how many records FAIL and how
many were refused.  A refused record holds the error that stopped its check
(a ``solve`` record is a parity the solver refused); a FAIL is any other
record over its tolerance.  The bands are ``omega/omega_sp`` below 0.95,
from 0.95 to 1.35 and above 1.35, with ``omega_sp = omega_p/sqrt(1 + Re
eps_d)`` of the point's own cladding.
"""

from __future__ import annotations

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
THICK_D = 2e-6  # the CLI's [verify] thick_d
BANDS = ("< 0.95", "0.95-1.35", "> 1.35")


def _band(omega: float, omega_p: float, eps_d: complex) -> int:
    """Index in ``BANDS`` of ``omega`` relative to the cladding's omega_sp."""
    ratio = omega / (omega_p / math.sqrt(1.0 + eps_d.real))
    return 0 if ratio < 0.95 else 1 if ratio <= 1.35 else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Count the verify pass's FAILs and refusals over the "
                    "first points of the benchmark's scan pool.")
    parser.add_argument("--points", type=int, default=2000,
                        help="first N points of the seed-0 scan pool")
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error("--points must be positive")

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import phases
    from slabspp import media, verify

    with tempfile.TemporaryDirectory() as tmp:
        paths = phases.build(ROOT, 0, phases.Sizes(), Path(tmp))
    pool = next(p for p in paths if p.name == "scan").points
    points = pool[:args.points]

    counted = [0, 0, 0]             # points per band
    fails: dict[str, list] = {}     # check -> [FAILs per band]
    refused: dict[str, list] = {}   # check -> [refusals per band]
    start = time.perf_counter()
    for _, geom, diel, omega in points:
        medium = media.make_medium_set(phases.METAL, diel, omega)
        band = _band(omega, phases.METAL.omega_p, medium.eps_d)
        counted[band] += 1
        for r in verify.run_checks(medium, geom, THICK_D):
            fails.setdefault(r.check, [0, 0, 0])
            refused.setdefault(r.check, [0, 0, 0])
            if r.note:
                refused[r.check][band] += 1
            elif not r.passed:
                fails[r.check][band] += 1
    elapsed = time.perf_counter() - start

    print(f"verify box: first {len(points)} points of the seed-0 pool, both "
          f"parities, {THICK_D:g} m thick film, {elapsed:.1f} s")
    print(f"  {'omega/omega_sp':28s}"
          + "".join(f"{band:>16s}" for band in BANDS))
    print(f"  {'points':28s}" + "".join(f"{n:16d}" for n in counted))
    print("  check (FAIL / refused)")
    for check in fails:
        print(f"  {check:28s}" + "".join(
            f"{f'{f} / {r}':>16s}"
            for f, r in zip(fails[check], refused[check])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
