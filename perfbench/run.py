"""Benchmark of the ``slabspp`` working tree.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every run drives all four paths of :mod:`phases` (cold CLI processes, the
random scan, continuation sweeps, the verify suite), one operation at a
time from this single process (closed loop, one client, at most one
measured child process alive).  The workload names the path that gets the
run's time budget -- ``cli-cold`` or ``scan`` -- and the other paths run
their fixed minimum quota, so each run reports every end-to-end metric.
``--trace 1`` instead runs timed passes in which each path is executed once
untraced and once with every traced function wrapped (see :mod:`tracer`),
and reports the per-layer metrics and the tracing overhead of each path.

Cold-process times (``cli_*_s``, ``setup_s``) are wall seconds.  In-process
times are in reference seconds (``ref_s``): wall time scaled by the speed of
a fixed calibration loop timed just before each operation, which cancels
most of the shared host's drift (see ``phases.calibrate``).

Results: a table of every metric with its median, tail and sample count,
then, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Outputs are written
under ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("cli-cold", "scan")
CYCLES = 8

END_TO_END = {
    "cli_dispersion_s": "s",
    "cli_gain_sweep_s": "s",
    "cli_field_s": "s",
    "cli_verify_s": "s",
    "cli_peak_rss_mb": "MB",
    "scan_points_per_s": "1/ref_s",
    "scan_fail_ratio": "ratio",
    "gain_sweep_s": "ref_s",
    "dispersion_sweep_s": "ref_s",
    "verify_suite_s": "ref_s",
    "setup_s": "s",
}

# functions each path must reach; a traced pass that records no call of one
# of them on its path fails, so a missed binding cannot go unnoticed
EXPECTED_CALLS = {
    "cli-cold": ("cli.main", "dispersion.dispersion_sweep",
                 "dispersion.gain_sweep", "fields.h_field_mean"),
    "scan": ("media.make_medium_set", "dispersion.solve_dispersion",
             "modes.normalization", "modes.green_coefficient",
             "quantization.ccr_check"),
    "sweeps": ("dispersion.gain_sweep", "dispersion.dispersion_sweep",
               "dispersion.solve_dispersion", "media.make_medium_set"),
    "verify": ("cli.main", "quantization.commutator_numeric",
               "quantization.green_identity_check", "oracles.quad",
               "oracles.complex_quad_chunked",
               "oracles.normalization_quadrature",
               "oracles.weighted_abs2_quadrature",
               "oracles.thick_film_degeneracy"),
}

CALLS_AND_SELF = ("media.make_medium_set", "dispersion.solve_dispersion",
                  "modes.normalization", "modes.green_coefficient",
                  "quantization.ccr_check", "fields.h_field_mean")
SELF_ONLY = ("quantization.commutator_numeric",
             "quantization.green_identity_check",
             "oracles.complex_quad_chunked", "oracles.normalization_quadrature",
             "oracles.weighted_abs2_quadrature", "oracles.thick_film_degeneracy")


def tail(values) -> tuple[str, float]:
    """Highest of p99/p90/p75 with at least ten samples beyond it, else max."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return f"p{pct}", ordered[min(n - 1, int(n * pct / 100))]
    return "max", ordered[-1]


def load_phases():
    """Import :mod:`phases`, and with it ``slabspp`` from ``<checkout>/src``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import phases

    phases.check_working_tree(ROOT)
    return phases


def setup_probe(seed: int) -> None:
    """Child mode: time imports plus input generation, print it as JSON."""
    t0 = time.perf_counter()
    phases = load_phases()
    phases.build(ROOT, seed, phases.Sizes(), OUT / "setup-probe")
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(phases, seed: int, count: int) -> list[float]:
    env = phases.child_env(ROOT)
    log = OUT / "setup-probe.log"
    samples = []
    for _ in range(count):
        rc, _, _ = phases.spawn(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--seed", str(seed)], env, OUT / "setup-probe.json", log)
        if rc != 0:
            raise RuntimeError(f"setup probe failed: {log.read_text()[-500:]}")
        line = (OUT / "setup-probe.json").read_text().strip().splitlines()[-1]
        samples.append(json.loads(line)["setup_s"])
    return samples


def run_untraced(phases, paths, focus, seconds, seed, sizes) -> dict:
    """Spread every path's operations evenly over ``seconds``.

    The host's speed drifts by tens of percent within a second, so each
    path samples the whole run window instead of one short block: in each
    of :data:`CYCLES` slices the other paths run their share of their
    minimum quota and the focus path fills the rest of the slice.
    """
    samples = {"setup_s": measure_setup(phases, seed, sizes.setup_probes)}
    for path in paths:
        path.warm()
    start = time.perf_counter()
    for cycle in range(1, CYCLES + 1):
        for path in paths:
            if path is not focus:
                while path.steps < -(-path.min_steps * cycle // CYCLES):
                    path.step()
        end = start + seconds * cycle / CYCLES
        while (focus.steps < -(-focus.min_steps * cycle // CYCLES)
               or time.perf_counter() < end):
            focus.step()
    for path in paths:
        samples.update(path.samples())
    return samples


def trace_once(paths) -> dict:
    """One traced pass over every path; returns the per-layer values."""
    from tracer import Tracer

    values: dict = {}
    stats: dict = {}
    tracers = {}
    for path in paths:
        tracer = Tracer()
        plain, traced, extra = path.trace_pass(tracer)
        values[f"trace.{path.name}.overhead_s"] = traced - plain
        got = tracer.stats()
        missing = [f for f in EXPECTED_CALLS[path.name]
                   if got.get(f, {}).get("calls", 0) == 0]
        if missing:
            raise RuntimeError(f"traced {path.name}: no calls recorded for "
                               f"{missing}")
        for name, s in got.items():
            acc = stats.setdefault(name, {"calls": 0, "failed": 0,
                                          "total_s": 0.0, "self_s": 0.0,
                                          "durations": []})
            for key in ("calls", "failed", "total_s", "self_s"):
                acc[key] += s[key]
            acc["durations"].extend(s["durations"])
        tracers[path.name] = tracer
        for pkg, seconds in extra.items():
            values[f"cli.import.{pkg}_s"] = seconds
    main = tracers["cli-cold"].stats()["cli.main"]
    values["cli.main_s"] = main["total_s"]
    values["cli.self_s"] = main["self_s"]
    for name in CALLS_AND_SELF:
        values[f"{name}.calls"] = stats[name]["calls"]
        values[f"{name}.self_s"] = stats[name]["self_s"]
    for name in SELF_ONLY:
        values[f"{name}.self_s"] = stats[name]["self_s"]
    solve = stats["dispersion.solve_dispersion"]
    values["dispersion.solve_dispersion.failed"] = solve["failed"]
    values["dispersion.solve_dispersion.p50_us"] = (
        statistics.median(solve["durations"]) * 1e6)
    for sweep in ("dispersion.gain_sweep", "dispersion.dispersion_sweep"):
        solves = sum(t.calls_under("dispersion.solve_dispersion", sweep)
                     for t in tracers.values())
        values[f"{sweep}.solves_per_sweep"] = solves / stats[sweep]["calls"]
    values["oracles.quad.calls"] = stats["oracles.quad"]["calls"]
    values["oracles.quad.s"] = stats["oracles.quad"]["total_s"]
    return values


def run_traced(paths, seconds) -> dict:
    for path in paths:
        path.warm()
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < seconds:
        passes.append(trace_once(paths))
    return {name: [p[name] for p in passes] for name in passes[0]}


def per_layer_units(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".failed") \
            or name.endswith(".solves_per_sweep"):
        return "count"
    return "us" if name.endswith("_us") else "s"


def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes=None, references=None) -> dict:
    """Run one workload and return the result object that ``main`` prints."""
    phases = load_phases()
    sizes = sizes or phases.Sizes()
    paths = phases.build(ROOT, seed, sizes, OUT / "run", references)
    focus = next(path for path in paths if path.name == workload)
    if trace:
        samples = run_traced(paths, seconds)
    else:
        samples = run_untraced(phases, paths, focus, seconds, seed, sizes)
    errors = [e for path in paths for e in path.gate()]
    for error in errors:
        print("GATE:", error, file=sys.stderr)
    metrics = {}
    for name, values in sorted(samples.items()):
        unit = per_layer_units(name) if trace else END_TO_END[name]
        label, high = tail(values)
        print(f"{name:45s} {statistics.median(values):16.9g} {unit:6s} "
              f"{label}={high:.6g} n={len(values)}")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return {
        "correct": not errors,
        "attempted": sum(path.attempted for path in paths),
        "failed": sum(path.failed for path in paths),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.seed)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
