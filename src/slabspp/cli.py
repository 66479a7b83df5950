"""Command-line front end.

Subcommands::

    slabspp dispersion  --config run.ini --out dispersion.csv
    slabspp gain-sweep  --config run.ini --out gain_sweep.csv
    slabspp field       --config run.ini --out field.csv [--compare]
    slabspp verify      --config run.ini --out verify_report.csv

Configuration is a flat INI file; every key has a documented default, and
unknown sections or keys are rejected.  ``--dump-config`` prints the fully
defaulted configuration that reproduces the run and exits.  Output files are
CSV with '.' decimal separator, ',' field separator, '#'-prefixed metadata
lines and 17-significant-digit floats, written atomically (temp file plus
rename) so reruns are byte-identical and never observed half-written.

Exit status: 0 on full success, 1 if any row failed to converge, any
verification check failed or the run was refused (a ``ValueError``, printed
as one ``error:`` line), 2 on usage/configuration errors (an unwritable
``--out`` included).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import stat
import sys
import tempfile

from .dispersion import (
    PARITIES,
    Parity,
    SlabGeometry,
    dispersion_sweep,
    gain_sweep,
    linspace,
    parity_from_name,
    solve_dispersion,
)
from .media import DielectricSpec, DrudeMetalSpec, make_medium_set

__all__ = ["main", "ConfigError", "load_config", "dump_config"]


class ConfigError(Exception):
    """Invalid or unknown configuration content."""


class _OutputError(Exception):
    """The output file cannot be written."""


# ---------------------------------------------------------------------------
# configuration schema: {section: {key: (parser, default-as-string)}}
# ---------------------------------------------------------------------------

def _parse_parities(text: str):
    text = text.strip().lower()
    if text == "both":
        return PARITIES
    return (parity_from_name(text),)


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def _parse_z_values(text: str):
    text = text.strip()
    if text == "interfaces":
        return text
    depths = tuple(_finite(t) for t in text.split(",") if t.strip())
    if not depths:
        raise ValueError("no depth given")
    return depths


def _positive(text: str) -> float:
    value = float(text)
    if not (value > 0.0 and math.isfinite(value)):
        raise ValueError("must be positive and finite")
    return value


def _non_negative(text: str) -> float:
    value = float(text)
    if not (value >= 0.0 and math.isfinite(value)):
        raise ValueError("must be non-negative and finite")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be at least 1")
    return value


def _parse_x_max(text: str):
    text = text.strip()
    return text if text == "auto" else _finite(text)


_SCHEMA = {
    "metal": {
        "omega_p": (_positive, "1.402e16"),
        "gamma": (_non_negative, "6.25e13"),
    },
    "dielectric": {
        "n_real": (_positive, "0.9726"),
        "n_imag": (_finite, "-0.063"),
    },
    "geometry": {
        "d": (_positive, "6e-08"),
    },
    "dispersion": {
        "omega_min": (_positive, "1e15"),
        "omega_max": (_positive, "8e15"),
        "omega_points": (_count, "36"),
        "parities": (_parse_parities, "both"),
    },
    "gain-sweep": {
        "omega": (_positive, "4.8e15"),
        "kappa_min": (_finite, "-0.1"),
        "kappa_max": (_finite, "0.0"),
        "kappa_points": (_count, "41"),
        "parities": (_parse_parities, "both"),
    },
    "field": {
        "omega": (_positive, "4.8e15"),
        "parity": (parity_from_name, "symmetric"),
        "alpha_mag": (_non_negative, "2.6457513110645907"),
        "alpha_phase": (_finite, "1.5"),
        "xi_mag": (_non_negative, "0.0"),
        "xi_phase": (_finite, "0.0"),
        "x_min": (_finite, "0.0"),
        "x_max": (_parse_x_max, "auto"),
        "x_points": (_count, "500"),
        "z_values": (_parse_z_values, "interfaces"),
    },
    "verify": {
        "omega": (_positive, "4.8e15"),
        "thick_d": (_positive, "2e-06"),
    },
}

_DEFAULT_OUT = {
    "dispersion": "dispersion.csv",
    "gain-sweep": "gain_sweep.csv",
    "field": "field.csv",
    "verify": "verify_report.csv",
}


def load_config(path=None) -> dict:
    """Parse and validate an INI config; missing keys take defaults.

    The file is read as UTF-8; a leading byte-order mark is dropped.  A
    path that does not exist or cannot be read (a directory, no
    permission), a file configparser cannot parse (no section header, a
    repeated section or key) or cannot decode is a
    :class:`ConfigError`, as is ``[DEFAULT]``: ``default_section=""`` names
    no section a file can open, so ``[DEFAULT]`` is an unknown section.
    ``configparser`` is imported only when there is a file to read; without
    one every key takes its default.
    """
    given: dict = {}  # {section: {key: raw value}} of the file
    if path is not None:
        import configparser

        cp = configparser.ConfigParser(interpolation=None, default_section="")
        try:
            with open(path, encoding="utf-8-sig") as fh:
                cp.read_file(fh, source=os.fspath(path))
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}") from None
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc.strerror}") from None
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(
                f"cannot parse {path}: {' '.join(str(exc).split())}") from None
        for section in cp.sections():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown config section [{section}]")
            given[section] = dict(cp[section])
            for key in given[section]:
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}]")

    cfg: dict = {}
    for section, keys in _SCHEMA.items():
        cfg[section] = {}
        values = given.get(section, {})
        for key, (parse, default) in keys.items():
            raw = values.get(key, default)
            try:
                cfg[section][key] = parse(raw)
            except (ValueError, TypeError) as exc:
                raise ConfigError(
                    f"bad value for {key} in [{section}]: {raw!r} ({exc})"
                ) from None
    return cfg


def _metal_of(cfg):
    return DrudeMetalSpec(**cfg["metal"])


def _dielectric_of(cfg):
    return DielectricSpec(cfg["dielectric"]["n_real"],
                          cfg["dielectric"]["n_imag"])


def _geometry_of(cfg):
    return SlabGeometry(d=cfg["geometry"]["d"])


def dump_config(cfg) -> str:
    """Re-emit the fully defaulted configuration as INI text."""
    lines = []
    for section, keys in _SCHEMA.items():
        lines.append(f"[{section}]")
        for key in keys:
            val = cfg[section][key]
            if isinstance(val, float):
                lines.append(f"{key} = {_g(val)}")
            elif isinstance(val, Parity):  # a tuple itself, so tested first
                lines.append(f"{key} = {val.name}")
            elif isinstance(val, tuple) and isinstance(val[0], float):
                lines.append(f"{key} = " + ", ".join(map(_g, val)))  # depths
            elif isinstance(val, tuple):  # parity tuple
                lines.append(f"{key} = "
                             + ("both" if len(val) > 1 else val[0].name))
            else:
                lines.append(f"{key} = {val}")
        lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# CSV helpers
# ---------------------------------------------------------------------------

def _g(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str) -> None:
    """Replace ``path`` by ``text`` through a temp file and a rename.

    An existing file keeps its mode and a new one gets the mode of a plain
    ``open(path, "w")``.  No temp file is left behind, and an ``OSError``
    becomes :class:`_OutputError`.
    """
    tmp = None
    try:
        try:
            mode = stat.S_IMODE(os.stat(path).st_mode)
        except FileNotFoundError:
            umask = os.umask(0)  # the umask can only be read by setting it
            os.umask(umask)
            mode = 0o666 & ~umask
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(os.path.abspath(path)),
                                   prefix=".slabspp-", suffix=".tmp")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except OSError as exc:
        raise _OutputError(
            f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def _text(cell: str) -> str:
    """A text cell of a CSV row: a ``,`` inside it becomes ``;``."""
    return cell.replace(",", ";")


def _write_csv(path, meta_lines, header, rows, trailer_lines=()):
    """Write the CSV: ``header`` is its column names, each of ``rows`` one
    formatted line.

    A writer formats each row with one ``%``-format, numeric cells as
    ``%.17g`` and text cells through :func:`_text`.
    """
    parts = [f"# {line}" for line in meta_lines]
    parts.append(",".join(header))
    parts.extend(rows)
    parts.extend(f"# {line}" for line in trailer_lines)
    _atomic_write(path, "\n".join(parts) + "\n")


def _media_meta(cfg):
    m = cfg["metal"]
    metal = (f"metal drude omega_p = {_g(m['omega_p'])} rad/s, "
             f"gamma = {_g(m['gamma'])} rad/s")
    diel = (f"dielectric n = {_g(cfg['dielectric']['n_real'])} "
            f"{cfg['dielectric']['n_imag']:+.17g}j")
    return [metal, diel, f"film thickness d = {_g(cfg['geometry']['d'])} m"]


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_dispersion(cfg, out_path) -> int:
    sec = cfg["dispersion"]
    omegas = linspace(sec["omega_min"], sec["omega_max"],
                      sec["omega_points"])
    rows_out = []
    failures = 0
    rows = dispersion_sweep(sec["parities"], _geometry_of(cfg),
                            _metal_of(cfg), _dielectric_of(cfg), omegas)
    for row in rows:
        if row.solution is None:
            failures += 1
            rows_out.append("%.17g,%s,nan,nan,nan,nan,nan,nan,nan,%s" % (
                row.x, _text(row.parity.name), _text(f"error: {row.error}")))
            continue
        s = row.solution
        rows_out.append(
            "%.17g,%s,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s" % (
                row.x, _text(row.parity.name), s.k_spp.real, s.k_spp.imag,
                s.nu0.real, s.nu0.imag, s.num.real, s.num.imag, s.residual,
                _text(s.regime)))
    meta = ["slabspp dispersion sweep"] + _media_meta(cfg) + [
        f"omega grid: {_g(sec['omega_min'])} .. {_g(sec['omega_max'])} rad/s, "
        f"{sec['omega_points']} points"]
    header = ["omega_rad_s", "parity", "re_k", "im_k", "re_nu0", "im_nu0",
              "re_num", "im_num", "residual", "regime"]
    _write_csv(out_path, meta, header, rows_out)
    print(f"wrote {out_path}: {len(rows_out)} rows, {failures} failed")
    return 1 if failures else 0


def _cmd_gain_sweep(cfg, out_path) -> int:
    sec = cfg["gain-sweep"]
    kappas = linspace(sec["kappa_min"], sec["kappa_max"],
                      sec["kappa_points"])
    result = gain_sweep(sec["parities"], _geometry_of(cfg), _metal_of(cfg),
                        cfg["dielectric"]["n_real"], kappas, sec["omega"])
    rows_out = []
    failures = 0
    for row in result.rows:
        if row.solution is None:
            failures += 1
            rows_out.append("%.17g,%s,nan,nan,%s" % (
                row.x, _text(row.parity.name), _text(f"error: {row.error}")))
            continue
        s = row.solution
        rows_out.append("%.17g,%s,%.17g,%.17g,%s" % (
            row.x, _text(row.parity.name), s.k_spp.real, s.k_spp.imag,
            _text(s.regime)))
    trailer = [f"continuation: kappa from {_g(kappas[0])} to {_g(kappas[-1])}"]
    for parity in sec["parities"]:
        crossing = result.crossings.get(parity.name)
        if crossing is None:
            trailer.append(f"crossing {parity.name}: none in grid")
        else:
            trailer.append(
                f"crossing {parity.name}: kappa_star = {_g(crossing.kappa_star)}"
                f", re_k = {_g(crossing.k_at_crossing.real)}"
                f", im_k = {_g(crossing.k_at_crossing.imag)}")
    meta = ["slabspp gain sweep"] + _media_meta(cfg) + [
        f"omega = {_g(sec['omega'])} rad/s (cladding n_imag swept)"]
    _write_csv(out_path, meta, ["kappa_d", "parity", "re_k", "im_k", "regime"],
               rows_out, trailer)
    for line in trailer:
        print(line)
    return 1 if failures else 0


def _cmd_field(cfg, out_path, compare: bool) -> int:
    from .fields import SppState, auto_x_max, compare_states, h_field_mean

    sec = cfg["field"]
    media = make_medium_set(_metal_of(cfg), _dielectric_of(cfg), sec["omega"])
    state = SppState(alpha_mag=sec["alpha_mag"],
                     alpha_phase=sec["alpha_phase"],
                     xi_mag=sec["xi_mag"], xi_phase=sec["xi_phase"])
    sol = solve_dispersion(sec["parity"], _geometry_of(cfg), media)
    x_max = (sec["x_min"] + auto_x_max(sol) if sec["x_max"] == "auto"
             else sec["x_max"])
    zs = sec["z_values"]
    grid = (linspace(sec["x_min"], x_max, sec["x_points"]),
            [0.0, sol.geom.d] if zs == "interfaces" else zs)
    if compare:
        coherent = SppState(alpha_mag=sec["alpha_mag"],
                            alpha_phase=sec["alpha_phase"])
        samples = compare_states(sol, coherent, state, grid=grid)
        described = f"{coherent.describe()} minus {state.describe()}"
    else:
        samples = h_field_mean(sol, state, grid=grid)
        described = state.describe()
    rows = ["%.17g,%.17g,%.17g,%.17g,%.17g" % (x, z, v.real, v.imag, abs(v))
            for x, row in zip(samples.xs, samples.rows)
            for z, v in zip(samples.zs, row)]
    meta = (["slabspp mean magnetic field"
             + (" (coherent minus squeezed)" if compare else "")]
            + _media_meta(cfg) + [
        f"omega = {_g(sec['omega'])} rad/s, parity = {sol.parity.name}",
        f"k_spp = {_g(sol.k_spp.real)}{sol.k_spp.imag:+.17g}j rad/m "
        f"({sol.regime})",
        f"state: {described}",
    ])
    _write_csv(out_path, meta, ["x_m", "z_m", "re_H", "im_H", "abs_H"], rows)
    print(f"wrote {out_path}: {len(rows)} samples, mode {sol.regime}")
    return 0


def _cmd_verify(cfg, out_path) -> int:
    from .verify import run_checks

    sec = cfg["verify"]
    media = make_medium_set(_metal_of(cfg), _dielectric_of(cfg), sec["omega"])
    records = run_checks(media, _geometry_of(cfg), sec["thick_d"])
    rows = []
    for r in records:
        status = "pass" if r.passed else "FAIL"
        rows.append("%s,%s,%.17g,%.17g,%.17g,%s,%s" % (
            _text(r.check), _text(r.parity), r.omega, r.value, r.tolerance,
            status, _text(r.note)))
        print(f"{r.check:28s} {r.parity:13s} {_g(r.value):>24s} "
              f"(tol {r.tolerance:g}) {status}")
    all_pass = all(r.passed for r in records)
    meta = ["slabspp verification report"] + _media_meta(cfg)
    header = ["check", "parity", "omega_rad_s", "value", "tolerance",
              "status", "note"]
    _write_csv(out_path, meta, header, rows)
    print(f"wrote {out_path}: {'all checks pass' if all_pass else 'FAILURES'}")
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it as
    it was, so each :func:`main` call reuses it."""
    ap = argparse.ArgumentParser(
        prog="slabspp",
        description="Quantized TM surface modes of a metal film between "
                    "identical (possibly amplifying) dielectrics.",
        epilog="Global options (--config, --out, ...) go before the "
               "subcommand: slabspp --out run.csv dispersion")
    ap.add_argument("--config", metavar="PATH",
                    help="INI configuration file (defaults used if omitted)")
    ap.add_argument("--out", metavar="PATH",
                    help="output file (per-command default otherwise)")
    ap.add_argument("--dump-config", action="store_true",
                    help="print the fully defaulted config and exit")
    sub = ap.add_subparsers(dest="command", required=True)
    sub.add_parser("dispersion", help="trace both parities over a frequency "
                                      "grid")
    sub.add_parser("gain-sweep", help="trace both parities over cladding "
                                      "gain at fixed frequency")
    fp = sub.add_parser("field", help="mean magnetic field of a launched "
                                      "state")
    fp.add_argument("--compare", action="store_true",
                    help="emit coherent-minus-squeezed difference instead")
    sub.add_parser("verify", help="run every numerical cross-check")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        sys.stdout.write(dump_config(cfg))
        return 0
    out_path = args.out or _DEFAULT_OUT[args.command]
    try:
        if args.command == "dispersion":
            return _cmd_dispersion(cfg, out_path)
        if args.command == "gain-sweep":
            return _cmd_gain_sweep(cfg, out_path)
        if args.command == "field":
            return _cmd_field(cfg, out_path, compare=args.compare)
        return _cmd_verify(cfg, out_path)
    except _OutputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
