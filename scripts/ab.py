"""A/B timing of the benchmark's work between two source trees.

    python scripts/ab.py OLD_SRC NEW_SRC {scan,sweeps,verify} [--rounds N]

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories holding a ``slabspp``
package, say the ``src`` of a ``git archive`` of the parent commit and this
checkout's.  Each is copied into a temporary directory as ``slabspp_old`` or
``slabspp_new``; relative imports and the lazy ``__init__`` let both run in
one process.  A mode builds the benchmark's inputs (``perfbench/phases``,
imported, never edited) with each copy's own classes, in timed units:

- ``scan``: the seed-0 pool of 20 000 points in 4000-point slices of
  ~0.1 s each, each point doing what ``phases.Scan`` does (6 rounds by
  default, so 30 slice pairs).
- ``sweeps``: one unit per gain sweep (group ``gain``) and per frequency
  sweep (group ``dispersion``) of the benchmark (100 rounds).
- ``verify``: one unit per verify config of the benchmark (30), each
  ``verify.run_checks`` at the thick film of the copy's default config
  (100 rounds, so 3000 unit pairs).

Each round times every unit on both copies with ``phases.timed``
(reference seconds), the copy that goes first alternating from unit to unit
and from round to round, so the host's drift falls on both alike.  Before
the timed rounds, one untimed pass over every unit (which also warms each
copy) counts each copy's work per group: Gauss-Kronrod steps
(``oracles._kronrod`` calls) for ``verify``, residual evaluations (calls of
the closures ``dispersion._scaled_system`` returns) for ``scan`` and
``sweeps``.  Prints per group each copy's median time per item beside that
count, and the median speedup (old time over new time, per unit pair) with
its quartiles.  Then ``identical``
and the count of each kind of entry of the keys, or, exiting 1, the first
entry that differs between the copies and the count of each kind of
change over all differing entries (``67 point -> refusal``, say), or a unit
whose key changed between rounds.  For scan and sweeps, where a root moved
(``point -> point``, ``row -> row``), a line follows with the largest
relative ``|Δk|`` of ``k_spp`` and how many moved by more than 1e-9, the
bar beyond which a root counts as another zero; for verify, a table per
check follows:
records changed, the worst value on each side (``nan`` if one was
refused), the largest ``|old - new|`` of a changed record (0 if none,
``nan`` if a side was refused) and pass/FAIL flips.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import math
import shutil
import statistics
import sys
import tempfile
from collections import Counter
from itertools import zip_longest
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SLICE = 4000
ITEM = {"scan": "point", "gain": "sweep", "dispersion": "sweep",
        "verify": "config"}


@functools.cache
def scan_pool(phases) -> list:
    """The benchmark's seed-0 scan pool, drawn as ``phases.build`` draws it."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = phases.build(ROOT, 0, phases.Sizes(), Path(tmp))
    return next(p for p in paths if p.name == "scan").points


def _load_copy(src: Path, name: str, workdir: Path, metal) -> SimpleNamespace:
    """Import a copy of ``src/slabspp`` as ``name``, with its own ``metal``."""
    shutil.copytree(src / "slabspp", workdir / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    side = SimpleNamespace(label=name, src=src, **{
        m: importlib.import_module(f"{name}.{m}")
        for m in ("cli", "dispersion", "media", "modes", "oracles",
                  "quantization", "verify")})
    side.metal = side.media.DrudeMetalSpec(metal.omega_p, metal.gamma)
    return side


def _scan(side, points, on_mode) -> list:
    """``phases.Scan``'s per-point work; an exception is kept as the result."""
    out = []
    for parity, geom, diel, omega in points:
        try:
            medium = side.media.make_medium_set(side.metal, diel, omega)
            sol = side.dispersion.solve_dispersion(parity, geom, medium)
            coeff = on_mode(side.modes.green_coefficient, sol)
            ccr = on_mode(side.quantization.ccr_check, sol)
            out.append((sol.k_spp, sol.nu0, sol.num, sol.amplitude,
                        sol.residual, coeff.d_value, ccr))
        except Exception as exc:  # refusals, and anything else, compared
            out.append(exc)
    return out


def _scan_units(side, phases) -> list:
    from tracer import on_mode

    disp, media = side.dispersion, side.media
    points = [(disp.parity_from_name(parity.name), disp.SlabGeometry(geom.d),
               media.DielectricSpec(diel.n_real, diel.n_imag), omega)
              for parity, geom, diel, omega in scan_pool(phases)]
    slices = [points[lo:lo + SLICE] for lo in range(0, len(points), SLICE)]
    return [("scan", f"slice {i} ({SLICE} points each)", len(part),
             functools.partial(_scan, side, part, on_mode))
            for i, part in enumerate(slices)]


def _scan_key(group, results) -> list:
    """Each point's numbers, or its refusal's type and message."""
    return [("refusal", f"{type(r).__name__}: {r}")
            if isinstance(r, Exception) else ("point", ", ".join(map(repr, r)))
            for r in results]


def _sweep_units(side, phases) -> list:
    disp = side.dispersion
    cladding = side.media.DielectricSpec(phases.N_REAL, phases.N_GAIN)
    units = [("gain", f"gain sweep d={d!r} omega={omega!r}", 1,
              functools.partial(disp.gain_sweep, disp.PARITIES,
                                disp.SlabGeometry(d), side.metal,
                                phases.N_REAL, phases.KAPPAS, omega))
             for omega, d in phases.OP_POINTS]
    return units + [("dispersion", f"dispersion sweep d={d!r}", 1,
                     functools.partial(disp.dispersion_sweep, disp.PARITIES,
                                       disp.SlabGeometry(d), side.metal,
                                       cladding, phases.SWEEP_OMEGAS))
                    for d in phases.OP_THICKNESSES]


def _sweep_key(group, result) -> list:
    """Every row's numbers, as ``scan`` keys a point, or its error; then
    every crossing."""
    rows, crossings = (result.rows, result.crossings) if group == "gain" \
        else (result, {})
    return ([("row", ", ".join(map(repr, (s.k_spp, s.nu0, s.num,
                                          s.amplitude, s.residual))))
             if (s := r.solution) else ("error", r.error)
             for r in rows]
            + [("crossing", f"{name} {c!r}") for name, c in crossings.items()])


def _verify_units(side, phases) -> list:
    media = side.media
    configs = [(omega, d, n_imag) for omega, d in phases.OP_POINTS
               for n_imag in (phases.N_GAIN, phases.N_LOSS)]
    thick_d = side.cli.load_config()["verify"]["thick_d"]
    return [("verify", f"config {i} (omega={omega!r}, d={d!r}, "
                       f"n_imag={n_imag!r})", 1,
             functools.partial(
                 side.verify.run_checks,
                 media.make_medium_set(
                     side.metal, media.DielectricSpec(phases.N_REAL, n_imag),
                     omega),
                 side.dispersion.SlabGeometry(d), thick_d))
            for i, (omega, d, n_imag) in enumerate(configs)]


def _verify_key(group, records) -> list:
    """Every check record of one config."""
    return [("record", repr(r)) for r in records]


ROOTS = ("point", "row")  # kinds of entry whose text starts with k_spp


def _root_moves(differ) -> str:
    """The line on roots that moved between the copies ("" if none did)."""
    moves = []
    for _, _, old, new in differ:
        if old and new and old[0] == new[0] in ROOTS:
            k_old, k_new = (complex(e[1].split(", ", 1)[0]) for e in (old, new))
            moves.append(abs(k_new - k_old) / abs(k_old))
    if not moves:
        return ""
    beyond = sum(move > 1e-9 for move in moves)  # another zero beyond it
    return (f"roots moved: {len(moves)}, largest relative |Δk| "
            f"{max(moves):.3g}, {beyond} beyond 1e-9 (another zero)")


def _check_table(old_checked, new_checked) -> list[str]:
    """The per-check table of two passes, each a list of records per config.

    Records pair by config, check and parity; one on a single side (a
    refused solve replaces a parity's checks) counts as changed.
    """
    sides = [{(i, r.check, r.parity): r
              for i, records in enumerate(checked) for r in records}
             for checked in (old_checked, new_checked)]
    keys = list(dict.fromkeys([*sides[0], *sides[1]]))
    lines = [f"  {'check':28s} {'changed':>9s} {'worst old':>24s} "
             f"{'worst new':>24s} {'max |Δ|':>10s}  flips"]
    for check in dict.fromkeys(key[1] for key in keys):
        pairs = [(sides[0].get(key), sides[1].get(key))
                 for key in keys if key[1] == check]
        moves = [abs(a.value - b.value) if a and b else math.nan
                 for a, b in pairs if repr(a) != repr(b)]
        changed = len(moves)
        move = (math.nan if any(map(math.isnan, moves))
                else max(moves, default=0.0))
        values = [[r.value for r in side if r is not None]
                  for side in zip(*pairs)]  # NaN: refused, or none at all
        worst = [max(v) if v and not any(map(math.isnan, v)) else math.nan
                 for v in values]
        flips = Counter("pass->FAIL" if a.passed else "FAIL->pass"
                        for a, b in pairs if a and b and a.passed != b.passed)
        flip_text = ", ".join(f"{n} {f}" for f, n in flips.items()) or "none"
        lines.append(f"  {check:28s} {changed:4d}/{len(pairs):<4d} "
                     f"{worst[0]:24.17g} {worst[1]:24.17g} {move:10.3g}  "
                     f"{flip_text}")
    return lines


def _counting_calls(real, tally):
    """``real``, counting each call in ``tally[0]``."""
    def counted(*args):
        tally[0] += 1
        return real(*args)
    return counted


def _counting_closures(real, tally):
    """``real``, whose returned closures count each call in ``tally[0]``."""
    def build(*args):
        return _counting_calls(real(*args), tally)
    return build


def _work(side, units, module, name, counting) -> Counter:
    """Per group, the calls one untimed pass over ``units`` makes of what
    ``counting`` wraps: ``module.name`` of ``side``, restored after."""
    mod = getattr(side, module)
    real = getattr(mod, name)
    tally = [0]
    work = Counter()
    setattr(mod, name, counting(real, tally))
    try:
        for group, _, _, run in units:
            before = tally[0]
            run()
            work[group] += tally[0] - before
    finally:
        setattr(mod, name, real)
    return work


RESIDUALS = ("dispersion", "_scaled_system", _counting_closures,
             "residual evaluations")
STEPS = ("oracles", "_kronrod", _counting_calls, "Kronrod steps")
# mode: (units of one copy, key of one unit's result, default rounds,
#        lines explaining the first round's results of every unit, or None,
#        work counted: (module, name, counting wrapper, what it counts))
MODES = {"scan": (_scan_units, _scan_key, 6, None, RESIDUALS),
         "sweeps": (_sweep_units, _sweep_key, 100, None, RESIDUALS),
         "verify": (_verify_units, _verify_key, 100, _check_table, STEPS)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the work of two slabspp source trees against each "
                    "other and compare their results.")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("mode", choices=MODES)
    parser.add_argument("--rounds", type=int, help="timed rounds over every "
                        "unit (default: scan 6, sweeps and verify 100)")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "slabspp" / "__init__.py").is_file():
            parser.error(f"{src} holds no slabspp package")
    build, key, rounds, explain, (*counted, noun) = MODES[args.mode]
    rounds = rounds if args.rounds is None else args.rounds

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import phases

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sys.path.insert(0, str(workdir))
        sides = [_load_copy(src.resolve(), name, workdir, phases.METAL)
                 for src, name in ((args.old_src, "slabspp_old"),
                                   (args.new_src, "slabspp_new"))]
        units = [build(side, phases) for side in sides]
        groups = Counter(group for group, *_ in units[0])
        for group, n in groups.items():
            if rounds * n < 2:
                parser.error(f"--rounds {rounds} gives the {group} group "
                             f"fewer than the 2 pairs its quartiles need")
        work = [_work(side, side_units, *counted)
                for side, side_units in zip(sides, units)]

        times = {group: [] for group in groups}  # (old, new) per unit pair
        first = ([], [])   # per copy: (result, key) of each unit in round 0
        unstable = set()   # units whose key changed on a later round
        for run in range(rounds):
            for u, pair in enumerate(zip(*units)):
                group, _, items, _ = pair[0]
                elapsed = [0.0, 0.0]
                for s in ((0, 1) if (run + u) % 2 == 0 else (1, 0)):
                    result, elapsed[s] = phases.timed(pair[s][3])
                    keys = key(group, result)
                    if run == 0:
                        first[s].append((result, keys))
                    elif keys != first[s][u][1]:
                        unstable.add(u)
                times[group].append((elapsed[0] / items, elapsed[1] / items))

    print(f"{args.mode} A/B: {rounds} round(s) of {len(units[0])} timed "
          f"unit(s)")
    for group, pairs in times.items():
        for side, t, w in zip(sides, zip(*pairs), work):
            print(f"  {group} {side.label} ({side.src}): median "
                  f"{1e3 * statistics.median(t):.4g} ms(ref)/{ITEM[group]}, "
                  f"{w[group]} {noun}")
        q1, med, q3 = statistics.quantiles([a / b for a, b in pairs], n=4)
        print(f"{group} speedup (old time / new time): median {med:.3f} "
              f"(q1 {q1:.3f}, q3 {q3:.3f}) over {len(pairs)} pairs")
    differ = [(u, j, a, b)
              for u, ((_, old), (_, new)) in enumerate(zip(*first))
              for j, (a, b) in enumerate(zip_longest(old, new)) if a != b]
    if not differ and not unstable:
        counts = Counter(kind for _, keys in first[0] for kind, _ in keys)
        print("identical: " + " and ".join(
            f"{n} {kind}s" for kind, n in counts.items()) + ", on every round")
        return 0
    if unstable:
        print(f"DIFFERENT: {len(unstable)} of {len(units[0])} units changed "
              f"between rounds; first, {units[0][min(unstable)][1]}")
    if differ:
        u, j, old, new = differ[0]
        show = ["(none)" if e is None else ": ".join(e) for e in (old, new)]
        print(f"DIFFERENT: {len(differ)} of "
              f"{sum(len(keys) for _, keys in first[0])} entries; first, "
              f"{units[0][u][1]}, entry {j}:\n  old {show[0]}\n  new {show[1]}")
        kinds = Counter(tuple("(none)" if e is None else e[0] for e in (a, b))
                        for _, _, a, b in differ)
        print("by kind: " + ", ".join(f"{n} {was} -> {now}"
                                      for (was, now), n in kinds.most_common()))
        if moved := _root_moves(differ):
            print(moved)
        if explain:
            print("\n".join(explain(*([result for result, _ in side_first]
                                       for side_first in first))))
    return 1


if __name__ == "__main__":
    sys.exit(main())
