"""A/B timing of the benchmark's scan work between two source trees.

    python scripts/scan_ab.py OLD_SRC NEW_SRC [--points N]

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories, each holding a
``slabspp`` package (for instance the ``src`` of a ``git archive`` of the
parent commit, and this checkout's ``src``).  Each package is copied under
its own name, ``slabspp_old`` and ``slabspp_new``, into a temporary
directory; the package's relative imports and its lazy ``__init__`` (which
resolves submodules through ``__name__``) let both copies run side by side
in one process.

The points are the first ``N`` of the benchmark's seed-0 scan pool, built
by ``perfbench/phases.build`` (imported, never edited) and converted into
each copy's own spec classes.  Every point does what ``phases.Scan`` does:
media, ``solve_dispersion``, ``green_coefficient`` and ``ccr_check``.
Each of four passes walks the points in 1000-point chunks and times each
chunk on both copies with ``phases.timed`` (reference seconds), the copy
that goes first alternating from chunk to chunk, so the host's drift falls
on both alike.

Prints the points per reference second of each copy, the median speedup
(old time over new time, per chunk pair) with its quartiles, and whether
every point's result is identical on every pass: the solution's ``k_spp``,
``nu0``, ``num``, ``amplitude`` and ``residual``, the residue's
``d_value`` and ``ccr``, each by ``repr``, or the refusal's type and
message.  Exits 1 if one is not.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
CHUNK = 1000
RUNS = 4


def _load_copy(src: Path, name: str, workdir: Path, metal) -> SimpleNamespace:
    """Copy ``src/slabspp`` to ``workdir/name`` and import it as ``name``;
    ``metal`` becomes that copy's own Drude spec."""
    shutil.copytree(src / "slabspp", workdir / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    mods = {m: importlib.import_module(f"{name}.{m}")
            for m in ("dispersion", "media", "modes", "quantization")}
    side = SimpleNamespace(label=name, src=src, **mods)
    side.metal = side.media.DrudeMetalSpec(metal.omega_p, metal.gamma)
    return side


def _convert(side, points) -> list:
    """The scan points as ``side``'s own parity, geometry and spec objects."""
    return [(side.dispersion.parity_from_name(parity.name),
             side.dispersion.SlabGeometry(geom.d),
             side.media.DielectricSpec(diel.n_real, diel.n_imag), omega)
            for parity, geom, diel, omega in points]


def _evaluate(side, points, on_mode) -> list:
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


def _key(result):
    """Exact identity of one point's result: ``repr`` of each number, or
    the exception's type and message."""
    if isinstance(result, Exception):
        return (type(result).__name__, str(result))
    return tuple(repr(v) for v in result)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the scan work of two slabspp source trees "
                    "against each other and compare their results.")
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--points", type=int, default=20000,
                        help="first N points of the seed-0 scan pool")
    args = parser.parse_args(argv)
    for src in (args.old_src, args.new_src):
        if not (src / "slabspp" / "__init__.py").is_file():
            parser.error(f"{src} holds no slabspp package")
    if args.points < 1:
        parser.error("--points must be positive")

    sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src")]
    import phases
    from tracer import on_mode

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        sys.path.insert(0, str(workdir))
        sides = [_load_copy(src.resolve(), name, workdir, phases.METAL)
                 for src, name in ((args.old_src, "slabspp_old"),
                                   (args.new_src, "slabspp_new"))]
        paths = phases.build(ROOT, 0, phases.Sizes(), workdir / "bench")
        pool = next(p for p in paths if p.name == "scan").points
        points = pool[:args.points]
        inputs = [_convert(side, points) for side in sides]

        for side, pts in zip(sides, inputs):
            _evaluate(side, pts[:50], on_mode)
        rates = ([], [])
        speedups = []
        keys = ([], [])      # per point, from the first pass
        unstable = set()     # points whose result changed on a later pass
        for run in range(RUNS):
            for i, lo in enumerate(range(0, len(points), CHUNK)):
                hi = min(lo + CHUNK, len(points))
                elapsed = [0.0, 0.0]
                order = (0, 1) if (run + i) % 2 == 0 else (1, 0)
                for s in order:
                    results, elapsed[s] = phases.timed(
                        _evaluate, sides[s], inputs[s][lo:hi], on_mode)
                    rates[s].append((hi - lo) / elapsed[s])
                    if run == 0:
                        keys[s].extend(_key(r) for r in results)
                    else:
                        unstable.update(
                            j for j, r in enumerate(results, lo)
                            if _key(r) != keys[s][j])
                speedups.append(elapsed[0] / elapsed[1])

    print(f"scan A/B: first {len(points)} points of the seed-0 pool, "
          f"{RUNS} passes in chunks of {CHUNK}")
    for side, rate in zip(sides, rates):
        print(f"  {side.label} ({side.src}): median "
              f"{statistics.median(rate):.0f} points/ref_s")
    q1, med, q3 = statistics.quantiles(speedups, n=4)
    print(f"speedup (old time / new time): median {med:.3f} "
          f"(q1 {q1:.3f}, q3 {q3:.3f}) over {len(speedups)} chunk pairs")
    differ = sorted(unstable.union(
        i for i, (a, b) in enumerate(zip(*keys)) if a != b))
    refused = sum(len(k) == 2 for k in keys[0])
    if not differ:
        print(f"identical: (k_spp, nu0, num, amplitude, residual, d_value, "
              f"ccr) at {len(points) - refused} points and {refused} refusal "
              f"messages, on every pass")
        return 0
    i = differ[0]
    print(f"DIFFERENT: {len(differ)} of {len(points)} points (between the "
          f"copies or between passes); first, point {i}:\n"
          f"  old {keys[0][i]}\n  new {keys[1][i]}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
