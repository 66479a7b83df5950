"""A/B timing of the benchmark's verify work between two source trees.

    python scripts/verify_ab.py OLD_SRC NEW_SRC [--rounds N]

The verify counterpart of ``scan_ab.py``: ``OLD_SRC`` and ``NEW_SRC`` are
``src`` directories, each holding a ``slabspp`` package, loaded side by side
as ``slabspp_old`` and ``slabspp_new`` by ``scan_ab``'s copy loader.

The configs are the benchmark's verify configs: every operating point of
``perfbench/phases.OP_POINTS`` (imported, never edited) with the gain and
the loss cladding, at the CLI's default thick film.  Each copy builds its
own ``MediumSet`` per config once; each round then times
``verify.run_checks`` over all configs on both copies with ``phases.timed``
(reference seconds), the copy that goes first alternating from round to
round, so the host's drift falls on both alike.

Prints each copy's median time per config, the median speedup (old time
over new time, per round) with its quartiles, and whether every
``CheckRecord`` is identical by ``repr`` between the copies and across
rounds.  Exits 1 if one is not.  When the copies differ, a table per check
follows: how many records changed (a record is a config's check of one
parity), the worst value of the check on each side (``nan`` if a record
of it was refused or missing) and the records whose pass/FAIL status flipped.
"""

from __future__ import annotations

import argparse
import importlib
import math
import statistics
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from scan_ab import ROOT, _load_copy

THICK_D = 2e-6  # the CLI's [verify] thick_d, which the benchmark leaves unset


def _configs(side, phases) -> list:
    """``(media, geom)`` of every benchmark verify config, as ``side``'s."""
    return [(side.media.make_medium_set(
                side.metal, side.media.DielectricSpec(phases.N_REAL, n_imag),
                omega),
             side.dispersion.SlabGeometry(d))
            for omega, d in phases.OP_POINTS
            for n_imag in (phases.N_GAIN, phases.N_LOSS)]


def _run(side, configs) -> list:
    """The check records of one pass over ``configs``, a list per config."""
    return [side.verify.run_checks(media, geom, THICK_D)
            for media, geom in configs]


def _reprs(checked) -> list:
    """The ``repr`` of every record of a pass, in order."""
    return [repr(r) for records in checked for r in records]


def _worst(values) -> float:
    """The largest value; NaN if there is none or one is NaN (refused)."""
    return (math.nan if not values or any(map(math.isnan, values))
            else max(values))


def _check_table(old_configs, new_configs) -> list[str]:
    """Per check: changed records, the worst value of each side, flips.

    Each argument holds one list of records per config.  Records are
    paired by config, check and parity; one present on a single side (a
    refused solve replaces a parity's checks) counts as changed.
    """
    sides = [{(i, r.check, r.parity): r
              for i, records in enumerate(configs) for r in records}
             for configs in (old_configs, new_configs)]
    keys = list(dict.fromkeys([*sides[0], *sides[1]]))
    lines = [f"  {'check':28s} {'changed':>9s} {'worst old':>24s} "
             f"{'worst new':>24s}  flips"]
    for check in dict.fromkeys(key[1] for key in keys):
        pairs = [(sides[0].get(key), sides[1].get(key))
                 for key in keys if key[1] == check]
        changed = sum(repr(a) != repr(b) for a, b in pairs)
        worst = [_worst([r.value for r in side if r is not None])
                 for side in zip(*pairs)]
        flips = [f"{'pass' if a.passed else 'FAIL'}->"
                 f"{'pass' if b.passed else 'FAIL'}"
                 for a, b in pairs
                 if a is not None and b is not None and a.passed != b.passed]
        flip_text = ", ".join(f"{flips.count(f)} {f}"
                              for f in dict.fromkeys(flips)) or "none"
        lines.append(f"  {check:28s} {changed:4d}/{len(pairs):<4d} "
                     f"{worst[0]:24.17g} {worst[1]:24.17g}  {flip_text}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the verify pass of two slabspp source trees "
                    "against each other and compare their records.")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--rounds", type=int, default=100,
                        help="timed passes over every config on each copy")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "slabspp" / "__init__.py").is_file():
            parser.error(f"{src} holds no slabspp package")
    if args.rounds < 2:
        parser.error("--rounds must be at least 2 (for the quartiles)")

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import phases

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sys.path.insert(0, str(workdir))
        sides = [_load_copy(src.resolve(), name, workdir, phases.METAL)
                 for src, name in ((args.old_src, "slabspp_old"),
                                   (args.new_src, "slabspp_new"))]
        for side in sides:
            side.verify = importlib.import_module(f"{side.label}.verify")
        configs = [_configs(side, phases) for side in sides]

        checked = [_run(side, cfgs) for side, cfgs in zip(sides, configs)]
        first = [_reprs(records) for records in checked]
        per_config = ([], [])
        speedups = []
        unstable = False
        for run in range(args.rounds):
            elapsed = [0.0, 0.0]
            for s in ((0, 1) if run % 2 == 0 else (1, 0)):
                records, elapsed[s] = phases.timed(_run, sides[s], configs[s])
                per_config[s].append(elapsed[s] / len(configs[s]))
                unstable = unstable or _reprs(records) != first[s]
            speedups.append(elapsed[0] / elapsed[1])

    print(f"verify A/B: {len(configs[0])} configs of the benchmark, "
          f"{args.rounds} rounds")
    for side, times in zip(sides, per_config):
        print(f"  {side.label} ({side.src}): median "
              f"{1e3 * statistics.median(times):.3f} ms(ref)/config")
    q1, med, q3 = statistics.quantiles(speedups, n=4)
    print(f"speedup (old time / new time): median {med:.3f} "
          f"(q1 {q1:.3f}, q3 {q3:.3f}) over {len(speedups)} rounds")
    differ = [(i, a, b) for i, (a, b) in
              enumerate(zip_longest(*first, fillvalue="(none)")) if a != b]
    if not differ and not unstable:
        print(f"identical: {len(first[0])} check records, on every round")
        return 0
    if not differ:
        print("DIFFERENT: a copy's records changed between rounds")
        return 1
    i, old, new = differ[0]
    print(f"DIFFERENT: {len(differ)} of {len(first[0])} check records; "
          f"first, record {i}:\n  old {old}\n  new {new}")
    print("\n".join(_check_table(*checked)))
    return 1


if __name__ == "__main__":
    sys.exit(main())
