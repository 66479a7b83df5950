"""The four measured paths through ``slabspp`` and their correctness gates.

Every benchmark run drives all four paths, so every end-to-end metric is
measured on every workload; the workload only decides which path receives
the run's time budget while the others run their fixed minimum quota.  Each
path advances one operation per :meth:`step` (a cold process, a chunk of
scan points, one sweep, one verify pass).

* :class:`ColdCli` -- fresh ``python -m slabspp <cmd>`` processes.
* :class:`Scan` -- cold-seeded solves over a random parameter box.
* :class:`Sweeps` -- warm-started gain and frequency continuation.
* :class:`Verify` -- the full oracle suite through ``cli.main`` in-process.

Importing this module imports ``slabspp`` (and with it numpy and scipy);
the caller puts the working tree's ``src`` first on ``sys.path``.
"""

from __future__ import annotations

import cmath
import contextlib
import csv
import io
import json
import os
import signal
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.constants import c as C_LIGHT

import slabspp
from slabspp import cli, dispersion, fields, media, modes, quantization

from tracer import Tracer, on_mode

SUBCOMMANDS = ("dispersion", "gain-sweep", "field", "verify")
CSV_NAMES = {"dispersion": "dispersion.csv", "gain-sweep": "gain_sweep.csv",
             "field": "field.csv", "verify": "verify_report.csv"}

# default Drude metal and cladding index of the paper's operating point
METAL = media.DrudeMetalSpec(omega_p=1.402e16, gamma=6.25e13)
N_REAL = 0.9726
N_GAIN = -0.063
N_LOSS = 0.02

# operating points shared by the sweeps and verify paths
OP_OMEGAS = (2e15, 3e15, 4.8e15, 6e15, 7e15)
OP_THICKNESSES = (20e-9, 60e-9, 200e-9)
OP_POINTS = tuple((w, d) for w in OP_OMEGAS for d in OP_THICKNESSES)
KAPPAS = np.linspace(-0.1, 0.0, 41)
SWEEP_OMEGAS = np.linspace(1e15, 8e15, 36)

# ROADMAP item-2 scan box
SCAN_N_REAL = (0.9, 2.5)
SCAN_N_IMAG = (-0.15, 0.15)
SCAN_OMEGA = (1e15, 9e15)
SCAN_LOG10_D = (np.log10(3e-9), np.log10(3e-6))

REL_TOL = 1e-9          # CSV vs library, crossings vs recorded references
SCAN_RESIDUAL_TOL = 1e-9
CCR_TOL = 1e-12
CHILD_TIMEOUT_S = 120.0

REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Duration of :func:`calibrate` on the baseline host in its median state.
# In-process timings are scaled by CALIBRATION_REF_S / (the calibration just
# before the operation): the shared host's speed drifts by 15-45% over
# seconds to minutes, and the ratio to a fixed pure-Python loop cancels it.
CALIBRATION_REF_S = 1.4e-3


@dataclass(frozen=True)
class Sizes:
    """How much work each path does; the defaults are the benchmark's."""

    scan_pool: int = 20000        # points in one pass; fail ratio is per pass
    scan_chunk: int = 1000        # points per timed sample
    scan_trace_points: int = 2000
    op_points: int = len(OP_POINTS)
    cli_min_rounds: int = 7
    sweeps_min_rounds: int = 10
    verify_min_rounds: int = 3
    setup_probes: int = 3


def calibrate() -> float:
    """Time a fixed complex-arithmetic loop that touches no ``slabspp`` code."""
    t0 = time.perf_counter()
    z = 0.3 + 0.1j
    acc = 0j
    for _ in range(4000):
        z = cmath.tanh(z * 0.7 + 0.05j) + 0.3
        acc += cmath.sqrt(z * z - 2.0)
    return time.perf_counter() - t0


def timed(fn, *args):
    """(result, duration in reference seconds) of one in-process operation."""
    scale = CALIBRATION_REF_S / calibrate()
    t0 = time.perf_counter()
    result = fn(*args)
    return result, (time.perf_counter() - t0) * scale


def rel_err(a: complex, b: complex) -> float:
    return abs(a - b) / abs(b) if b != 0 else abs(a)


def load_references() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def check_working_tree(root: Path) -> None:
    """Refuse to measure an installed copy instead of ``<root>/src``."""
    src = (root / "src").resolve()
    pkg = Path(slabspp.__file__).resolve()
    if src not in pkg.parents:
        raise RuntimeError(f"slabspp imported from {pkg}, not from {src}")


# ---------------------------------------------------------------------------
# cold CLI processes
# ---------------------------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str((root / "src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # let the warm-up write caches
    return env


# Runs one measured child and reports (exit code, wall s, ru_maxrss KiB).  A
# child started directly from this process would inherit its large RSS as the
# starting peak (the kernel folds the old address space's high-water mark into
# ru_maxrss at exec), so the child is started from this small interpreter.
_TRAMPOLINE = """
import os, signal, sys, time
out, err, report = sys.argv[1:4]
argv = sys.argv[4:]
flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
actions = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644),
           (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
child = []
signal.signal(signal.SIGALRM, lambda *_: os.kill(child[0], signal.SIGKILL))
t0 = time.perf_counter()
child.append(os.posix_spawn(argv[0], argv, os.environ, file_actions=actions))
signal.alarm(%d)
_, status, usage = os.wait4(child[0], 0)
wall = time.perf_counter() - t0
with open(report, "w") as fh:
    fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}")
""" % int(CHILD_TIMEOUT_S)


def spawn(argv, env, stdout_path, stderr_path):
    """Run one child to completion: (exit code, wall s, peak RSS in MB).

    Only one measured child exists at a time; the trampoline that starts it
    waits blocked in ``wait4`` and is not timed.
    """
    report = Path(str(stdout_path) + ".rusage")
    tramp = [sys.executable, "-I", "-S", "-c", _TRAMPOLINE,
             str(stdout_path), str(stderr_path), str(report)] + list(argv)
    pid = os.posix_spawn(sys.executable, tramp, env)
    killer = threading.Timer(CHILD_TIMEOUT_S + 30.0, os.kill,
                             (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, _ = os.wait4(pid, 0)
    finally:
        killer.cancel()
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"trampoline for {argv[1:]} failed ({status})")
    rc, wall, maxrss_kib = report.read_text().split()
    return int(rc), float(wall), int(maxrss_kib) / 1024.0


def parse_importtime(text: str) -> dict:
    """Self time in seconds per top-level package from ``-X importtime``."""
    totals: dict = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        top = name.strip().split(".")[0]
        totals[top] = totals.get(top, 0.0) + int(self_us) * 1e-6
    return totals


class ColdCli:
    """Each operation is one fresh ``python -m slabspp`` at the default config."""

    name = "cli-cold"

    def __init__(self, root: Path, out: Path, order, sizes: Sizes):
        self.env = child_env(root)
        self.out = out
        self.order = list(order)
        self.min_steps = sizes.cli_min_rounds * len(self.order)
        self.steps = 0
        self.walls = {sub: [] for sub in SUBCOMMANDS}
        self.rss: list[float] = []
        self.first_csv: dict = {}
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _run(self, sub, importtime=False):
        argv = [sys.executable] + (["-X", "importtime"] if importtime else [])
        argv += ["-m", "slabspp", "--out", str(self.out / CSV_NAMES[sub]), sub]
        err = self.out / f"{sub}.stderr"
        rc, wall, rss = spawn(argv, self.env, self.out / f"{sub}.stdout", err)
        return rc, wall, rss, err

    def _account(self, sub, rc, err) -> None:
        self.attempted += 1
        if rc != 0:
            self.failed += 1
            self.errors.append(f"cli {sub}: exit code {rc}: "
                               f"{err.read_text()[-300:]!r}")
            return
        data = (self.out / CSV_NAMES[sub]).read_bytes()
        first = self.first_csv.setdefault(sub, data)
        if data != first:
            self.failed += 1
            self.errors.append(f"cli {sub}: CSV differs between repetitions")

    def warm(self) -> None:
        for sub in self.order:
            self._run(sub)

    def step(self) -> None:
        sub = self.order[self.steps % len(self.order)]
        self.steps += 1
        rc, wall, rss, err = self._run(sub)
        self._account(sub, rc, err)
        self.walls[sub].append(wall)
        self.rss.append(rss)

    def samples(self) -> dict:
        out = {f"cli_{sub.replace('-', '_')}_s": self.walls[sub]
               for sub in SUBCOMMANDS}
        out["cli_peak_rss_mb"] = self.rss
        return out

    def gate(self) -> list[str]:
        errors = list(self.errors)
        for sub in SUBCOMMANDS:
            if sub not in self.first_csv:
                continue
            bad = check_cli_csv(sub, self.first_csv[sub].decode())
            if bad:
                self.failed += 1
                errors.append(f"cli {sub}: {bad}")
        return errors

    # -- traced pass ----------------------------------------------------------

    def trace_pass(self, tracer: Tracer) -> tuple[float, float, dict]:
        """Plain vs ``-X importtime`` children, then ``main`` in-process."""
        plain = traced = 0.0
        imports: dict = {"scipy": [], "numpy": [], "slabspp": []}
        for sub in self.order:
            rc, wall, _, err = self._run(sub)
            self._account(sub, rc, err)
            plain += wall
            rc, wall, _, err = self._run(sub, importtime=True)
            self._account(sub, rc, err)
            traced += wall
            totals = parse_importtime(err.read_text())
            for pkg in imports:
                imports[pkg].append(totals.get(pkg, 0.0))
        plain += self._main_rotation()
        with tracer.installed():
            with tracer.span("cli-cold.rotation"):
                traced += self._main_rotation()
        return plain, traced, {pkg: statistics.median(v)
                               for pkg, v in imports.items()}

    def _main_rotation(self) -> float:
        """In-process ``main`` per subcommand; its CSV must match the cold one."""
        elapsed = 0.0
        for sub in self.order:
            path = str(self.out / ("inproc-" + CSV_NAMES[sub]))
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["--out", path, sub])
            elapsed += time.perf_counter() - t0
            self.attempted += 1
            data = Path(path).read_bytes() if rc == 0 else b""
            if data != self.first_csv.setdefault(sub, data):
                self.failed += 1
                self.errors.append(f"cli.main {sub}: exit code {rc} or CSV "
                                   "differs from the cold process's")
        return elapsed


def _csv_rows(text: str):
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _default_system():
    cfg = cli.load_config(None)
    metal = media.DrudeMetalSpec(cfg["metal"]["omega_p"], cfg["metal"]["gamma"])
    diel = media.DielectricSpec(cfg["dielectric"]["n_real"],
                                cfg["dielectric"]["n_imag"])
    return cfg, metal, diel, dispersion.SlabGeometry(cfg["geometry"]["d"])


def _check_k_rows(rows, lib_rows, key) -> str:
    if len(rows) != len(lib_rows):
        return f"{len(rows)} rows, library gives {len(lib_rows)}"
    for row, lib in zip(rows, lib_rows):
        if lib.solution is None or row["parity"] != lib.parity.name:
            return f"row {row[key]} {row['parity']} does not match the library"
        k = complex(float(row["re_k"]), float(row["im_k"]))
        if rel_err(k, lib.solution.k_spp) > REL_TOL:
            return f"k_spp {k!r} vs library {lib.solution.k_spp!r}"
    return ""


def check_cli_csv(sub: str, text: str) -> str:
    """Compare one CLI output with the library's in-process result."""
    cfg, metal, diel, geom = _default_system()
    rows = _csv_rows(text)
    if sub == "dispersion":
        sec = cfg["dispersion"]
        lib = dispersion.dispersion_sweep(
            sec["parities"], geom, metal, diel,
            np.linspace(sec["omega_min"], sec["omega_max"],
                        sec["omega_points"]))
        return _check_k_rows(rows, lib, "omega_rad_s")
    if sub == "gain-sweep":
        sec = cfg["gain-sweep"]
        lib = dispersion.gain_sweep(
            sec["parities"], geom, metal, diel.n_real,
            np.linspace(sec["kappa_min"], sec["kappa_max"],
                        sec["kappa_points"]), sec["omega"])
        problems = [_check_k_rows(rows, lib.rows, "kappa_d")]
        for name, crossing in lib.crossings.items():
            tag = f"# crossing {name}: kappa_star = "
            line = next((ln for ln in text.splitlines()
                         if ln.startswith(tag)), None)
            if crossing is None or line is None:
                problems.append(f"crossing {name} missing")
            elif rel_err(float(line[len(tag):].split(",")[0]),
                         crossing.kappa_star) > REL_TOL:
                problems.append(f"crossing {name}: {line!r} vs library "
                                f"{crossing.kappa_star!r}")
        return "; ".join(filter(None, problems))
    if sub == "field":
        sec = cfg["field"]
        sol = dispersion.solve_dispersion(
            sec["parity"], geom,
            media.make_medium_set(metal, diel, sec["omega"]))
        line = next(ln for ln in text.splitlines()
                    if ln.startswith("# k_spp = "))
        k = complex(line[len("# k_spp = "):].split()[0])
        if rel_err(k, sol.k_spp) > REL_TOL:
            return f"k_spp {k!r} vs library {sol.k_spp!r}"
        xs = {x: i for i, x in enumerate(dict.fromkeys(
            float(r["x_m"]) for r in rows))}
        zs = {z: j for j, z in enumerate(dict.fromkeys(
            float(r["z_m"]) for r in rows))}
        state = fields.SppState(sec["alpha_mag"], sec["alpha_phase"],
                                sec["xi_mag"], sec["xi_phase"])
        lib = on_mode(fields.h_field_mean, sol, state=state,
                      grid=(np.array(list(xs)), np.array(list(zs))))
        scale = float(np.max(np.abs(lib.values)))
        for r in rows:
            h = complex(float(r["re_H"]), float(r["im_H"]))
            if abs(h - lib.values[xs[float(r["x_m"])], zs[float(r["z_m"])]]
                   ) > REL_TOL * scale:
                return f"H at x={r['x_m']} z={r['z_m']} differs from library"
        return ""
    if sub == "verify":
        failing = [f"{r['check']}/{r['parity']}" for r in rows
                   if r["status"] != "pass"]
        if not rows or failing:
            return f"verify rows not passing: {failing or 'no rows'}"
        return ""
    raise ValueError(sub)


# ---------------------------------------------------------------------------
# in-process paths
# ---------------------------------------------------------------------------

def independent_root_check(parity, geom, medium, sol) -> str:
    """Re-check an accepted root without the solver's own residual code."""
    k = sol.k_spp
    k0 = medium.omega / C_LIGHT
    nu0 = cmath.sqrt(k * k - medium.eps_d * k0 * k0)
    num = cmath.sqrt(k * k - medium.eps_m * k0 * k0)
    if nu0.real <= 0.0 or num.real <= 0.0:
        return f"decay constants not bound: nu0={nu0!r} num={num!r}"
    if rel_err(sol.nu0, nu0) > REL_TOL or rel_err(sol.num, num) > REL_TOL:
        return "reported decay constants are off the decaying branch"
    t = cmath.tanh(num * geom.d / 2.0)
    a, b = medium.eps_d * num, medium.eps_m * nu0
    f = t * a + b if parity.pm < 0 else t * b + a
    residual = abs(f) / (abs(a) + abs(b))
    if residual > SCAN_RESIDUAL_TOL:
        return f"characteristic function {residual:.3e} at k={k!r}"
    return ""


class Scan:
    """Each operation is one random point: media -> solve -> residue -> ccr."""

    name = "scan"

    def __init__(self, rng, sizes: Sizes):
        n = sizes.scan_pool
        n_real = rng.uniform(*SCAN_N_REAL, n)
        n_imag = rng.uniform(*SCAN_N_IMAG, n)
        omega = rng.uniform(*SCAN_OMEGA, n)
        d = 10.0 ** rng.uniform(*SCAN_LOG10_D, n)
        parities = (dispersion.SYMMETRIC, dispersion.ANTISYMMETRIC)
        self.points = [
            (parities[i % 2], dispersion.SlabGeometry(float(d[i])),
             media.DielectricSpec(float(n_real[i]), float(n_imag[i])),
             float(omega[i]))
            for i in range(n)]
        self.chunk = sizes.scan_chunk
        self.min_steps = -(-n // self.chunk)  # one full pass
        self.steps = 0
        self.trace_points = min(sizes.scan_trace_points, n)
        self.rates: list[float] = []
        self.keys: list = []       # per point of the first pass
        self.refused = 0           # solver refusals on the first pass
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.next = 0

    def _evaluate(self, points) -> list:
        out = []
        for parity, geom, diel, omega in points:
            try:
                medium = media.make_medium_set(METAL, diel, omega)
                sol = dispersion.solve_dispersion(parity, geom, medium)
                coeff = on_mode(modes.green_coefficient, sol)
                ccr = on_mode(quantization.ccr_check, sol)
                out.append((medium, sol, coeff.d_value, ccr))
            except dispersion.DispersionError:
                out.append(None)
            except Exception as exc:  # counted as a failed operation
                out.append(exc)
        return out

    def warm(self) -> None:
        self._evaluate(self.points[:50])

    def _check(self, lo: int, results) -> None:
        """Gate one evaluated slice; the first pass is re-checked in full."""
        self.attempted += len(results)
        for i, res in enumerate(results, lo):
            key = _scan_key(res)
            if i == len(self.keys):
                self.keys.append(key)
                self.refused += res is None
                bad = _check_scan_point(self.points[i], res)
            else:
                bad = "" if key == self.keys[i] else "changed on a repeat"
            if bad:
                self.failed += 1
                self.errors.append(f"scan point {i} {self.points[i][1:]}: "
                                   f"{bad}")

    def step(self) -> None:
        self.steps += 1
        lo = self.next
        hi = min(lo + self.chunk, len(self.points))
        results, elapsed = timed(self._evaluate, self.points[lo:hi])
        self.rates.append((hi - lo) / elapsed)
        self._check(lo, results)
        self.next = hi % len(self.points)

    def fail_ratio(self) -> float:
        """Solver refusals over attempted points on the first full pass."""
        if len(self.keys) != len(self.points):
            raise RuntimeError("scan: first pass incomplete")
        return self.refused / len(self.points)

    def samples(self) -> dict:
        return {"scan_points_per_s": self.rates,
                "scan_fail_ratio": [self.fail_ratio()]}

    def gate(self) -> list[str]:
        return self.errors[:20]

    def trace_pass(self, tracer: Tracer) -> tuple[float, float, dict]:
        points = self.points[:self.trace_points]
        t0 = time.perf_counter()
        results = self._evaluate(points)
        plain = time.perf_counter() - t0
        self._check(0, results)
        results = []
        with tracer.installed():
            t0 = time.perf_counter()
            for point in points:
                with tracer.span("scan.point"):
                    results.extend(self._evaluate([point]))
            traced = time.perf_counter() - t0
        self._check(0, results)
        return plain, traced, {}


def _check_scan_point(point, res) -> str:
    if isinstance(res, Exception):
        return f"{type(res).__name__}: {res}"
    if res is None:
        return ""
    medium, sol, _, ccr = res
    bad = independent_root_check(point[0], point[1], medium, sol)
    if not bad and abs(ccr - 1.0) > CCR_TOL:
        bad = f"ccr_check {ccr!r} not within {CCR_TOL} of 1"
    return bad


def _scan_key(res):
    if res is None or isinstance(res, Exception):
        return type(res).__name__
    return (res[1].k_spp, res[2], res[3])


class Sweeps:
    """Each operation is one gain sweep or one frequency sweep."""

    name = "sweeps"

    def __init__(self, rng, sizes: Sizes, references: dict):
        points = OP_POINTS[:sizes.op_points]
        ops = [("gain", w, d) for w, d in points]
        ops += [("dispersion", None, d)
                for d in sorted({d for _, d in points})]
        self.ops = [ops[i] for i in rng.permutation(len(ops))]
        self.references = references
        self.min_steps = sizes.sweeps_min_rounds * len(self.ops)
        self.steps = 0
        self.times = {"gain": [], "dispersion": []}
        self.outcomes: list = []
        self.attempted = 0
        self.failed = 0

    def warm(self) -> None:
        run_sweep(self.ops[0])

    def step(self) -> None:
        op = self.ops[self.steps % len(self.ops)]
        self.steps += 1
        result, elapsed = timed(run_sweep, op)
        self.times[op[0]].append(elapsed)
        self.outcomes.append((op, _sweep_summary(op, result)))

    def samples(self) -> dict:
        return {"gain_sweep_s": self.times["gain"],
                "dispersion_sweep_s": self.times["dispersion"]}

    def gate(self) -> list[str]:
        errors = []
        for op, (n_errors, values) in self.outcomes:
            self.attempted += 1
            key = sweep_key(op)
            bad = f"{n_errors} error rows" if n_errors else ""
            expected = self.references.get(key)
            if expected is None:
                bad = bad or "no recorded reference"
            else:
                for name, value in values.items():
                    ref = expected.get(name)
                    if value is None or ref is None:
                        bad = bad or f"{name}: {value!r} vs reference {ref!r}"
                    elif rel_err(value, ref) > REL_TOL:
                        bad = bad or f"{name}: {value!r} vs reference {ref!r}"
            if bad:
                self.failed += 1
                errors.append(f"sweep {key}: {bad}")
        return errors[:20]

    def trace_pass(self, tracer: Tracer) -> tuple[float, float, dict]:
        t0 = time.perf_counter()
        results = [run_sweep(op) for op in self.ops]
        plain = time.perf_counter() - t0
        self.outcomes += [(op, _sweep_summary(op, result))
                          for op, result in zip(self.ops, results)]
        with tracer.installed():
            t0 = time.perf_counter()
            for op in self.ops:
                with tracer.span("sweeps." + op[0]):
                    run_sweep(op)
            traced = time.perf_counter() - t0
        return plain, traced, {}


def run_sweep(op):
    kind, omega, d = op
    geom = dispersion.SlabGeometry(d)
    if kind == "gain":
        return dispersion.gain_sweep(dispersion.PARITIES, geom, METAL,
                                     N_REAL, KAPPAS, omega)
    return dispersion.dispersion_sweep(
        dispersion.PARITIES, geom, METAL,
        media.DielectricSpec(N_REAL, N_GAIN), SWEEP_OMEGAS)


def sweep_key(op) -> str:
    kind, omega, d = op
    return f"{kind} d={d!r}" + (f" omega={omega!r}" if omega else "")


def _sweep_summary(op, result):
    """(error rows, values compared with the recorded references)."""
    if op[0] == "gain":
        rows = result.rows
        values = {f"kappa_star {p.name}": (c.kappa_star if c else None)
                  for p in dispersion.PARITIES
                  for c in [result.crossings.get(p.name)]}
    else:
        rows = result
        values = {}
        for p in dispersion.PARITIES:
            solved = [r for r in rows if r.parity == p and r.solution]
            for tag, row in (("first", solved[0] if solved else None),
                             ("last", solved[-1] if solved else None)):
                k = row.solution.k_spp if row else None
                values[f"re_k {tag} {p.name}"] = k.real if k else None
                values[f"im_k {tag} {p.name}"] = k.imag if k else None
    return sum(r.solution is None for r in rows), values


def record_references() -> dict:
    """Crossings and sweep end points of today's library, keyed by operation."""
    refs = {}
    ops = [("gain", w, d) for w, d in OP_POINTS]
    ops += [("dispersion", None, d) for d in OP_THICKNESSES]
    for op in ops:
        n_errors, values = _sweep_summary(op, run_sweep(op))
        if n_errors or any(v is None for v in values.values()):
            raise RuntimeError(f"{sweep_key(op)}: not a clean reference")
        refs[sweep_key(op)] = values
    return refs


class Verify:
    """Each operation is one verify check; a pass runs all 14 for one config."""

    name = "verify"

    def __init__(self, rng, sizes: Sizes, out: Path):
        configs = []
        for i, (omega, d) in enumerate(OP_POINTS[:sizes.op_points]):
            for n_imag in (N_GAIN, N_LOSS):
                path = out / f"op{i}_{'gain' if n_imag < 0 else 'loss'}.ini"
                path.write_text(
                    f"[dielectric]\nn_real = {N_REAL!r}\nn_imag = {n_imag!r}\n"
                    f"[geometry]\nd = {d!r}\n[verify]\nomega = {omega!r}\n")
                configs.append(path)
        self.configs = [configs[i] for i in rng.permutation(len(configs))]
        self.report = out / "verify_report.csv"
        self.min_steps = sizes.verify_min_rounds * len(self.configs)
        self.steps = 0
        self.times: list[float] = []
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0

    def _op(self, config: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(["--config", str(config), "--out",
                             str(self.report), "verify"])

    def _account(self, config: Path, rc: int) -> None:
        rows = _csv_rows(self.report.read_text())
        failing = [f"{r['check']}/{r['parity']}" for r in rows
                   if r["status"] != "pass"]
        self.attempted += max(len(rows), 1)
        self.failed += len(failing) if rows else 1
        if rc != 0 or failing or not rows:
            self.errors.append(f"verify {config.name}: exit {rc}, "
                               f"failing {failing}")

    def warm(self) -> None:
        self._op(self.configs[0])

    def step(self) -> None:
        config = self.configs[self.steps % len(self.configs)]
        self.steps += 1
        rc, elapsed = timed(self._op, config)
        self.times.append(elapsed)
        self._account(config, rc)

    def samples(self) -> dict:
        return {"verify_suite_s": self.times}

    def gate(self) -> list[str]:
        return self.errors[:20]

    def trace_pass(self, tracer: Tracer) -> tuple[float, float, dict]:
        t0 = time.perf_counter()
        for config in self.configs:
            self._account(config, self._op(config))
        plain = time.perf_counter() - t0
        with tracer.installed():
            t0 = time.perf_counter()
            for config in self.configs:
                with tracer.span("verify.config"):
                    rc = self._op(config)
                self._account(config, rc)
            traced = time.perf_counter() - t0
        return plain, traced, {}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def build(root: Path, seed: int, sizes: Sizes, out: Path,
          references: dict | None = None) -> list:
    """Generate every path's inputs from the seed; returns the path objects."""
    rng = np.random.default_rng(seed)
    for sub in ("cli", "verify"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    order = [SUBCOMMANDS[i] for i in rng.permutation(len(SUBCOMMANDS))]
    return [
        ColdCli(root, out / "cli", order, sizes),
        Scan(rng, sizes),
        Sweeps(rng, sizes,
               load_references() if references is None else references),
        Verify(rng, sizes, out / "verify"),
    ]
