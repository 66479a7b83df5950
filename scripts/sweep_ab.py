"""A/B timing of the benchmark's sweeps between two source trees.

    python scripts/sweep_ab.py OLD_SRC NEW_SRC [--rounds N]

The sweep counterpart of ``scan_ab.py`` and ``verify_ab.py``: ``OLD_SRC``
and ``NEW_SRC`` are ``src`` directories, each holding a ``slabspp``
package, loaded side by side as ``slabspp_old`` and ``slabspp_new`` by
``scan_ab``'s copy loader.

The sweeps are the benchmark's (``perfbench/phases``, imported, never
edited): a gain sweep over ``KAPPAS`` at every operating point of
``OP_POINTS``, and a frequency sweep over ``SWEEP_OMEGAS`` at every
thickness of ``OP_THICKNESSES``, each over both parities.  Each round times
every sweep on both copies with ``phases.timed`` (reference seconds), the
copy that goes first alternating from sweep to sweep and from round to
round, so the host's drift falls on both alike.

Prints, for the gain and the frequency sweeps apart, each copy's median
time per sweep and the median speedup (old time over new time, per sweep
pair) with its quartiles, and whether every row's ``k_spp`` or error and
every crossing is identical by ``repr`` between the copies and across
rounds.  Exits 1 if one is not.
"""

from __future__ import annotations

import argparse
import functools
import statistics
import sys
import tempfile
from pathlib import Path

from scan_ab import ROOT, _load_copy

KINDS = ("gain", "dispersion")


def _sweeps(side, phases) -> list:
    """``(kind, label, sweep)`` of every benchmark sweep, as ``side``'s
    calls that take no argument."""
    disp = side.dispersion
    cladding = side.media.DielectricSpec(phases.N_REAL, phases.N_GAIN)
    sweeps = [("gain", f"gain d={d!r} omega={omega!r}",
               functools.partial(disp.gain_sweep, disp.PARITIES,
                                 disp.SlabGeometry(d), side.metal,
                                 phases.N_REAL, phases.KAPPAS, omega))
              for omega, d in phases.OP_POINTS]
    sweeps += [("dispersion", f"dispersion d={d!r}",
                functools.partial(disp.dispersion_sweep, disp.PARITIES,
                                  disp.SlabGeometry(d), side.metal, cladding,
                                  phases.SWEEP_OMEGAS))
               for d in phases.OP_THICKNESSES]
    return sweeps


def _key(kind, result) -> tuple:
    """Every row's ``k_spp`` or error, and every crossing, by ``repr``."""
    rows, crossings = (result.rows, result.crossings) if kind == "gain" \
        else (result, {})
    return (tuple(repr(r.solution.k_spp) if r.solution else r.error
                  for r in rows),
            tuple((name, repr(c)) for name, c in crossings.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the sweeps of two slabspp source trees against "
                    "each other and compare their rows and crossings.")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--rounds", type=int, default=100,
                        help="timed passes over every sweep on each copy")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "slabspp" / "__init__.py").is_file():
            parser.error(f"{src} holds no slabspp package")
    if args.rounds < 1:
        parser.error("--rounds must be positive")

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import phases

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sys.path.insert(0, str(workdir))
        sides = [_load_copy(src.resolve(), name, workdir, phases.METAL)
                 for src, name in ((args.old_src, "slabspp_old"),
                                   (args.new_src, "slabspp_new"))]
        sweeps = [_sweeps(side, phases) for side in sides]

        first = [[_key(kind, sweep()) for kind, _, sweep in side_sweeps]
                 for side_sweeps in sweeps]
        times = {kind: ([], []) for kind in KINDS}
        speedups = {kind: [] for kind in KINDS}
        unstable = False
        for run in range(args.rounds):
            for i, (kind, _, _) in enumerate(sweeps[0]):
                elapsed = [0.0, 0.0]
                for s in ((0, 1) if (run + i) % 2 == 0 else (1, 0)):
                    result, elapsed[s] = phases.timed(sweeps[s][i][2])
                    times[kind][s].append(elapsed[s])
                    unstable = unstable or _key(kind, result) != first[s][i]
                speedups[kind].append(elapsed[0] / elapsed[1])

    print(f"sweep A/B: {len(sweeps[0])} sweeps of the benchmark, "
          f"{args.rounds} rounds")
    for kind in KINDS:
        for side, kind_times in zip(sides, times[kind]):
            print(f"  {kind} {side.label} ({side.src}): median "
                  f"{1e3 * statistics.median(kind_times):.3f} ms(ref)/sweep")
        q1, med, q3 = statistics.quantiles(speedups[kind], n=4)
        print(f"{kind} speedup (old time / new time): median {med:.3f} "
              f"(q1 {q1:.3f}, q3 {q3:.3f}) over {len(speedups[kind])} "
              f"sweep pairs")
    differ = [i for i, (a, b) in enumerate(zip(*first)) if a != b]
    if not differ and not unstable:
        rows = sum(len(rows) for rows, _ in first[0])
        crossings = sum(len(found) for _, found in first[0])
        print(f"identical: {rows} rows and {crossings} crossings, "
              f"on every round")
        return 0
    if not differ:
        print("DIFFERENT: a copy's sweeps changed between rounds")
        return 1
    i = differ[0]
    old, new = (rows + crossings for rows, crossings in (first[0][i],
                                                         first[1][i]))
    j = next(j for j, (a, b) in enumerate(zip(old, new)) if a != b)
    print(f"DIFFERENT: {len(differ)} of {len(first[0])} sweeps; first, "
          f"{sweeps[0][i][1]}, entry {j} (rows, then crossings):\n"
          f"  old {old[j]}\n  new {new[j]}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
