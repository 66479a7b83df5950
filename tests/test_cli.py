import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import slabspp
from slabspp import cli, dispersion
from slabspp.cli import (ConfigError, _build_parser, dump_config, load_config,
                         main)
from slabspp.dispersion import linspace
from slabspp.media import DielectricSpec, dielectric_epsilon


def _run(*argv):
    return main(list(argv))


# -- configuration ----------------------------------------------------------

def test_defaults_without_file():
    cfg = load_config(None)
    assert cfg["geometry"]["d"] == 60e-9
    assert cfg["dielectric"]["n_real"] == 0.9726
    assert cfg["field"]["x_max"] == "auto"
    assert len(cfg["dispersion"]["parities"]) == 2


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.ini")


def test_unknown_section_and_key(tmp_path):
    p = tmp_path / "a.ini"
    p.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)
    p.write_text("[geometry]\nthickness = 1\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_bad_value(tmp_path):
    p = tmp_path / "a.ini"
    p.write_text("[geometry]\nd = sixty\n")
    with pytest.raises(ConfigError):
        load_config(p)


def test_dump_config_round_trip(tmp_path):
    given = tmp_path / "given.ini"
    given.write_text("[dispersion]\nparities = symmetric\n"
                     "[field]\nz_values = 0, 3e-8, -1.5e-8\n")
    dumped = tmp_path / "dumped.ini"
    for source in (None, given):
        text = dump_config(load_config(source))
        dumped.write_text(text)
        assert dump_config(load_config(dumped)) == text
    assert "parities = symmetric\n" in text
    assert "z_values = 0, 2.9999999999999997e-08, -1.4999999999999999e-08\n" \
        in text


def test_config_with_byte_order_mark_reads_as_without(tmp_path, capsys):
    text = "[geometry]\nd = 7e-8\n[field]\nxi_mag = 0.5\n"
    plain = tmp_path / "plain.ini"
    plain.write_text(text, encoding="utf-8")
    bom = tmp_path / "bom.ini"
    bom.write_text(text, encoding="utf-8-sig")
    assert bom.read_bytes() == b"\xef\xbb\xbf" + plain.read_bytes()
    dumped = []
    for path in (plain, bom):
        assert _run("--config", str(path), "--dump-config", "field") == 0
        dumped.append(capsys.readouterr().out)
    assert dumped[0] == dumped[1]
    assert "d = 7.0000000000000005e-08\n" in dumped[0]
    assert "xi_mag = 0.5\n" in dumped[0]


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_dump_config_flag(capsys):
    assert _run("--dump-config", "verify") == 0
    out = capsys.readouterr().out
    assert "[metal]" in out and "omega_p" in out


# -- subcommands ------------------------------------------------------------

def _small_config(tmp_path, extra=""):
    p = tmp_path / "run.ini"
    p.write_text(
        "[dispersion]\nomega_min = 4e15\nomega_max = 5e15\n"
        "omega_points = 5\n"
        "[gain-sweep]\nkappa_min = -0.004\nkappa_max = 0\nkappa_points = 9\n"
        "[field]\nx_points = 40\n" + extra)
    return str(p)


def test_dispersion_csv(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    out = tmp_path / "disp.csv"
    assert _run("--config", cfg, "--out", str(out), "dispersion") == 0
    lines = out.read_text().splitlines()
    header = [l for l in lines if l.startswith("omega_rad_s,")]
    assert header == ["omega_rad_s,parity,re_k,im_k,re_nu0,im_nu0,"
                      "re_num,im_num,residual,regime"]
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 10  # 5 frequencies x 2 parities
    assert all(l.endswith(("attenuated", "amplified", "neutral"))
               for l in data)


def test_dispersion_deterministic(tmp_path):
    cfg = _small_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run("--config", cfg, "--out", str(out1), "dispersion") == 0
    assert _run("--config", cfg, "--out", str(out2), "dispersion") == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_gain_sweep_reports_crossings(tmp_path, capsys):
    cfg = _small_config(tmp_path)
    out = tmp_path / "gs.csv"
    assert _run("--config", cfg, "--out", str(out), "gain-sweep") == 0
    text = out.read_text()
    assert "# crossing symmetric: kappa_star = " in text
    assert "# crossing antisymmetric: kappa_star = " in text
    data = [l for l in text.splitlines() if not l.startswith("#")][1:]
    assert len(data) == 18  # 9 kappas x 2 parities


def test_gain_sweep_no_crossing_in_narrow_window(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[gain-sweep]\nkappa_min = -0.08\nkappa_max = -0.05\n"
                 "kappa_points = 4\n")
    out = tmp_path / "gs.csv"
    assert _run("--config", str(p), "--out", str(out), "gain-sweep") == 0
    assert "crossing symmetric: none" in out.read_text()


def test_gain_sweep_reports_a_failed_refinement(tmp_path, capsys,
                                                monkeypatch):
    """A refused refining solve reads as a failure, naming its bracket, not
    as a grid with no sign change."""
    kappas = linspace(-0.004, 0.0, 9)
    grid = {dielectric_epsilon(DielectricSpec(0.9726, k)) for k in kappas}
    real_solve = dispersion.solve_dispersion

    def refine_refused(parity, geom, media, guess=None):
        if parity.name == "symmetric" and media.eps_d not in grid:
            raise dispersion.NonConvergence("injected")
        return real_solve(parity, geom, media, guess)

    monkeypatch.setattr(dispersion, "solve_dispersion", refine_refused)
    out = tmp_path / "gs.csv"
    assert _run("--config", _small_config(tmp_path), "--out", str(out),
                "gain-sweep") == 1
    trailer = [l for l in out.read_text().splitlines()
               if l.startswith("# crossing ")]
    assert trailer[1].startswith("# crossing antisymmetric: kappa_star = ")
    bracket = re.fullmatch(r"# crossing symmetric: refinement failed in "
                           r"\[(\S+), (\S+)\]: NonConvergence: injected",
                           trailer[0])
    assert bracket, trailer[0]
    assert [float(bracket[1]), float(bracket[2])] in [kappas[i:i + 2]
                                                      for i in range(8)]
    assert trailer[0][2:] + "\n" in capsys.readouterr().out


@pytest.mark.parametrize("command, n_rows, n_nan", [("dispersion", 10, 7),
                                                   ("gain-sweep", 18, 2)])
def test_sweep_below_solver_floor_writes_failed_rows(tmp_path, capsys,
                                                     command, n_rows, n_nan):
    """Every refused row is written with nan fields and an error column."""
    cfg = _small_config(tmp_path, "[geometry]\nd = 5e-11\n")
    out = tmp_path / "sweep.csv"
    assert _run("--config", cfg, "--out", str(out), command) == 1
    lines = out.read_text().splitlines()
    data = [l.split(",") for l in lines if not l.startswith("#")][1:]
    assert len(data) == n_rows
    error = ("error: ValueError: film thickness 5e-11 m below solver floor "
             "1e-10 m; the mode pair degenerates as d -> 0")
    assert all(row[2:] == ["nan"] * n_nan + [error] for row in data)
    if command == "gain-sweep":
        assert lines[-2:] == ["# crossing symmetric: none in grid",
                              "# crossing antisymmetric: none in grid"]
    else:
        assert f"{n_rows} rows, {n_rows} failed" in capsys.readouterr().out


@pytest.mark.parametrize("command, ini", [
    ("dispersion", "[dispersion]\nomega_min = 3e15\nomega_max = 3e15\n"
                   "omega_points = 3\n"),
    ("gain-sweep", "[gain-sweep]\nkappa_min = -0.05\nkappa_max = -0.05\n"
                   "kappa_points = 3\n"),
], ids=["dispersion", "gain-sweep"])
def test_sweep_over_one_repeated_point(tmp_path, command, ini):
    """Equal grid points give equal rows; the seed is not extrapolated."""
    p = tmp_path / "run.ini"
    p.write_text(ini)
    out = tmp_path / "sweep.csv"
    assert _run("--config", str(p), "--out", str(out), command) == 0
    rows = _data_rows(out)
    assert [row[1] for row in rows] == (["symmetric"] * 3
                                        + ["antisymmetric"] * 3)
    assert rows[0] == rows[1] == rows[2] != rows[3] == rows[4] == rows[5]


def test_field_csv(tmp_path):
    cfg = _small_config(tmp_path)
    out = tmp_path / "f.csv"
    assert _run("--config", cfg, "--out", str(out), "field") == 0
    lines = out.read_text().splitlines()
    assert "x_m,z_m,re_H,im_H,abs_H" in lines
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 80  # 40 x-samples x 2 interface slices


def test_field_compare_identical_states_gives_zero(tmp_path):
    cfg = _small_config(tmp_path)  # xi defaults to zero
    out = tmp_path / "c.csv"
    assert _run("--config", cfg, "--out", str(out), "field",
                "--compare") == 0
    data = [l.split(",") for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert all(row[2] == "0" and row[3] == "0" for row in data)


def test_field_explicit_grid(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[field]\nx_min = 0\nx_max = 1e-6\nx_points = 7\n"
                 "z_values = 0, 3e-8\n")
    out = tmp_path / "f.csv"
    assert _run("--config", str(p), "--out", str(out), "field") == 0
    data = [l for l in out.read_text().splitlines()
            if not l.startswith("#")][1:]
    assert len(data) == 14


def test_field_auto_window_starts_at_x_min(tmp_path):
    p = tmp_path / "run.ini"
    p.write_text("[field]\nx_min = 1e-5\nx_max = auto\nx_points = 3\n")
    out = tmp_path / "f.csv"
    assert _run("--config", str(p), "--out", str(out), "field") == 0
    xs = list(dict.fromkeys(
        float(line.split(",")[0]) for line in out.read_text().splitlines()
        if line[:1].isdigit()))
    assert len(xs) == 3
    assert xs[0] == 1e-5
    assert xs[0] < xs[1] < xs[2]


@pytest.mark.parametrize("ini, argv, message", [
    ("[field]\nx_max = 1.0\n", ("field",),
     "mean field of coherent(|a|=2.6457513110645907, phase=1.5) "
     "overflows at x = "),
    ("[field]\nxi_mag = 800\n", ("field", "--compare"),
     "mean field of squeezed(|a|=2.6457513110645907, phase=1.5, |xi|=800, "
     "xi_phase=0): the ladder mean overflows"),
], ids=["long-x-window", "huge-squeeze"])
def test_field_overflow_fails_cleanly(tmp_path, capsys, ini, argv, message):
    """An overflowing sample is one error line and no file, not inf rows."""
    p = tmp_path / "run.ini"
    p.write_text(ini)
    out = tmp_path / "f.csv"
    assert _run("--config", str(p), "--out", str(out), *argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"error: FieldOverflowError: {message}")
    assert not out.exists()


# -- refusals: a lossless Drude metal at omega_p, and a transparent system --

_LOSSLESS = "[metal]\ngamma = 0\n"
_EPS_M_ZERO = "error: ValueError: permittivities must be non-zero"


def _data_rows(path):
    return [line.split(",") for line in path.read_text().splitlines()
            if not line.startswith("#")][1:]


def test_dispersion_through_omega_p_writes_error_rows(tmp_path, capsys):
    """eps_m = 0 at the last grid point refuses that row, not the run."""
    p = tmp_path / "run.ini"
    p.write_text(_LOSSLESS + "[dispersion]\nomega_max = 1.402e16\n")
    out = tmp_path / "d.csv"
    assert _run("--config", str(p), "--out", str(out), "dispersion") == 1
    assert capsys.readouterr().err == ""
    failed = [row for row in _data_rows(out) if row[-1].startswith("error")]
    assert [row[:2] for row in failed] == [["14020000000000000", "symmetric"],
                                           ["14020000000000000",
                                            "antisymmetric"]]
    assert all(row[2:] == ["nan"] * 7 + [_EPS_M_ZERO] for row in failed)


def test_gain_sweep_at_omega_p_refuses_every_row(tmp_path, capsys):
    p = tmp_path / "run.ini"
    p.write_text(_LOSSLESS + "[gain-sweep]\nomega = 1.402e16\n")
    out = tmp_path / "gs.csv"
    assert _run("--config", str(p), "--out", str(out), "gain-sweep") == 1
    assert capsys.readouterr().err == ""
    rows = _data_rows(out)
    assert len(rows) == 82
    assert all(row[2:] == ["nan", "nan", _EPS_M_ZERO] for row in rows)
    assert out.read_text().splitlines()[-2:] == [
        "# crossing symmetric: none in grid",
        "# crossing antisymmetric: none in grid"]


def test_csv_comma_rule_applies_to_text_cells_only(tmp_path):
    """A ``,`` in a text cell becomes ``;``; metadata lines keep theirs."""
    out = tmp_path / "t.csv"
    cli._write_csv(str(out), ["seeds [1, 2]"], ["x", "note"],
                   ["%.17g,%s" % (0.1, cli._text("error: seeds [1, 2]"))],
                   ["crossing a, b"])
    assert out.read_text() == ("# seeds [1, 2]\nx,note\n"
                               "0.10000000000000001,error: seeds [1; 2]\n"
                               "# crossing a, b\n")


_TRANSPARENT = _LOSSLESS + "[dielectric]\nn_imag = 0.0\n"


@pytest.mark.parametrize("ini, command, message", [
    (_TRANSPARENT, "field", "error: NeutralModeSingularity: neutral mode: "
                            "no finite decay length to set the grid"),
    (_TRANSPARENT + "[field]\nx_max = 1e-6\n", "field",
     "error: NeutralModeSingularity: Im(k_spp) = 0.0: launch normalization "
     "diverges for a neutral mode"),
    ("[geometry]\nd = 5e-11\n", "field",  # positive, below D_MIN
     "error: ValueError: film thickness 5e-11 m below solver floor 1e-10 m; "
     "the mode pair degenerates as d -> 0"),
    (_LOSSLESS + "[field]\nomega = 1.402e16\n", "field", _EPS_M_ZERO),
    (_LOSSLESS + "[verify]\nomega = 1.402e16\n", "verify", _EPS_M_ZERO),
], ids=["field-neutral-auto-window", "field-neutral-explicit-grid",
        "field-below-solver-floor", "field-at-omega-p", "verify-at-omega-p"])
def test_refused_single_point_run_is_one_error_line(tmp_path, capsys, ini,
                                                    command, message):
    """A refused single-point run exits 1, prints its one ``error:`` line
    in full and writes no output file."""
    p = tmp_path / "run.ini"
    p.write_text(ini)
    out = tmp_path / "out.csv"
    assert _run("--config", str(p), "--out", str(out), command) == 1
    assert capsys.readouterr().err.splitlines() == [message]
    assert list(tmp_path.iterdir()) == [p]


def test_verify_of_transparent_system_fails_the_launch_checks(tmp_path):
    """Neither medium absorbs or amplifies: beta_prime = 0 and Im k = 0.

    The launch checks refuse the mode for its launch weight, before the
    x-tail is asked for; only the Green identity, which has no launch
    weight, reaches the tail and is refused for the neutral mode.
    """
    p = tmp_path / "run.ini"
    p.write_text(_LOSSLESS + "[dielectric]\nn_imag = 0\n")
    out = tmp_path / "report.csv"
    assert _run("--config", str(p), "--out", str(out), "verify") == 1
    rows = _data_rows(out)
    assert len(rows) == 14
    launch = ("ValueError: beta_prime = 0: a mode whose media neither absorb "
              "nor amplify has no launch normalization")
    refused = {"ccr_closure": launch,
               "commutator_same_direction": launch,
               "commutator_cross_direction": launch,
               "green_identity": "ValueError: neutral mode: semi-infinite "
                                 "overlap diverges"}
    for row in rows:
        if row[0] in refused:
            assert (row[3], row[5], row[6]) == ("nan", "FAIL",
                                                refused[row[0]]), row
        else:
            assert (row[5], row[6]) == ("pass", ""), row


def test_verify_passes_on_defaults(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert _run("--out", str(out), "verify") == 0
    report = out.read_text()
    assert "FAIL" not in report
    assert report.count("pass") >= 14
    stdout = capsys.readouterr().out
    assert "ccr_closure" in stdout


@pytest.mark.parametrize("tol", ["nan", "0", "-1e-6", "inf", "tiny", "1e-6"])
def test_bad_tolerance_is_usage_error(tmp_path, capsys, tol):
    """There is no ``--tolerance``: each check keeps its own gate, so any
    value, valid-looking or not, is an unrecognized argument."""
    out = tmp_path / "report.csv"
    with pytest.raises(SystemExit) as exc:
        _run(f"--tolerance={tol}", "--out", str(out), "verify")
    assert exc.value.code == 2
    assert (f"unrecognized arguments: --tolerance={tol}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_output_mode_follows_umask(tmp_path, umask):
    """A new output gets ``0o666 & ~umask``; a rerun keeps the file's mode."""
    cfg = _small_config(tmp_path)
    out = tmp_path / "disp.csv"
    old = os.umask(umask)
    try:
        assert _run("--config", cfg, "--out", str(out), "dispersion") == 0
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
        out.chmod(0o640)
        assert _run("--config", cfg, "--out", str(out), "dispersion") == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("target, reason", [
    ("a-directory", "Is a directory"),
    ("missing/out.csv", "No such file or directory"),
], ids=["out-is-directory", "parent-missing"])
def test_unwritable_out_is_usage_error(tmp_path, capsys, target, reason):
    """One error line, exit 2 and no temp file, not a traceback."""
    (tmp_path / "a-directory").mkdir()
    out = tmp_path / target
    assert _run("--config", _small_config(tmp_path), "--out", str(out),
                "dispersion") == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: cannot write {out}: {reason}"]
    assert not list(tmp_path.rglob(".slabspp-*"))


def test_unreadable_config_path_is_not_reported_missing(tmp_path, capsys):
    # a directory exists but cannot be read as a file
    out = tmp_path / "out.csv"
    assert _run("--config", str(tmp_path), "--out", str(out),
                "dispersion") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"config error: cannot read {tmp_path}: Is a directory"]
    assert not out.exists()


def test_config_error_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.ini"
    p.write_text("[metal]\nunobtainium = 1\n")
    assert _run("--config", str(p), "dispersion") == 2
    assert "config error" in capsys.readouterr().err


_BAD_CONFIGS = {
    "x_max": ("[field]\nx_max = abc\n", "field"),
    "x_points-negative": ("[field]\nx_points = -3\n", "field"),
    "x_points-zero": ("[field]\nx_points = 0\n", "field"),
    "d": ("[geometry]\nd = -1\n", "dispersion"),
    "omega_p": ("[metal]\nomega_p = -1\n", "dispersion"),
    "thick_d": ("[verify]\nthick_d = -1\n", "verify"),
    "n_imag-nan": ("[dielectric]\nn_imag = nan\n", "field"),
    "kappa_min-inf": ("[gain-sweep]\nkappa_min = -inf\n", "gain-sweep"),
    "kappa_max-nan": ("[gain-sweep]\nkappa_max = nan\n", "gain-sweep"),
    "alpha_mag-inf": ("[field]\nalpha_mag = inf\n", "field"),
    "alpha_phase-nan": ("[field]\nalpha_phase = nan\n", "field"),
    "xi_mag-nan": ("[field]\nxi_mag = nan\n", "field"),
    # moduli: a negative alpha_mag or xi_mag is refused, not written out
    "alpha_mag-negative": ("[field]\nalpha_mag = -2\n", "field"),
    "xi_mag-negative": ("[field]\nxi_mag = -1\n", "field"),
    "xi_phase-inf": ("[field]\nxi_phase = -inf\n", "field"),
    "x_min-nan": ("[field]\nx_min = nan\n", "field"),
    "x_max-inf": ("[field]\nx_max = inf\n", "field"),
    "z_values-nan": ("[field]\nz_values = 0, nan\n", "field"),
    # a parity is one of the two names (or "both" for a sweep)
    "parities-unknown": ("[dispersion]\nparities = odd\n", "dispersion"),
    "gain-parities-unknown": ("[gain-sweep]\nparities = symmetric, "
                              "antisymmetric\n", "gain-sweep"),
    "parity-unknown": ("[field]\nparity = both\n", "field"),
    # z_values is checked on load, also by a subcommand that never reads it
    "z_values-abc": ("[field]\nz_values = 0, abc\n", "dispersion"),
    "z_values-nan-dispersion": ("[field]\nz_values = 0, nan\n", "dispersion"),
    "z_values-empty": ("[field]\nz_values = ,\n", "dispersion"),
    "z_values-abc-dump": ("[field]\nz_values = 0, abc\n",
                          "--dump-config dispersion"),
    "z_values-nan-dump": ("[field]\nz_values = 0, nan\n",
                          "--dump-config dispersion"),
    "z_values-empty-dump": ("[field]\nz_values = ,\n",
                            "--dump-config dispersion"),
    # the one metal model is Drude: a fixed permittivity is an unknown key
    "eps_re": ("[metal]\neps_re = -7.5\neps_im = 0.1\n", "dispersion"),
    "default-section": ("[DEFAULT]\nfoo = 1\n", "dispersion"),
    "default-section-omega": ("[DEFAULT]\nomega = 1e15\n[field]\n",
                              "--dump-config field"),
    # a file configparser cannot read is a config error, not a traceback
    "no-section-header": ("d = 1e-8\n", "dispersion"),
    "repeated-section": ("[geometry]\nd = 1e-8\n[geometry]\nd = 2e-8\n",
                         "dispersion"),
    "repeated-key": ("[geometry]\nd = 1e-8\nd = 2e-8\n", "dispersion"),
    "percent": ("[field]\nz_values = 5%\n", "field"),
    "undecodable": (b"[geometry]\nd = 6e-8 \xff\n", "dispersion"),
}


@pytest.mark.parametrize("ini, command", _BAD_CONFIGS.values(),
                         ids=_BAD_CONFIGS.keys())
def test_bad_config_value_exits_2(tmp_path, capsys, ini, command):
    p = tmp_path / "bad.ini"
    if isinstance(ini, bytes):
        p.write_bytes(ini)
    else:
        p.write_text(ini)
    out = tmp_path / "out.csv"
    assert _run("--config", str(p), "--out", str(out), *command.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("config error: ")
    assert not out.exists()


# -- import cost ------------------------------------------------------------

# The modules no cold run needs that are loaded in this interpreter, as a
# JSON list: numpy and scipy, and ``dataclasses`` and ``inspect``, which
# the package's records, all named tuples, do not need.
_HEAVY = ("json.dumps(sorted(m for m in sys.modules if m.split('.')[0] "
          "in ('numpy', 'scipy', 'dataclasses', 'inspect')))")

# The ``slabspp`` submodules loaded in this interpreter, as a JSON list.
_OWN = ("json.dumps(sorted(m.split('.', 1)[1] for m in sys.modules "
        "if m.startswith('slabspp.')))")

# Runs ``python -m slabspp`` in a fresh interpreter and prints the exit status,
# the ``_HEAVY`` modules loaded by then, and the slabspp submodules.
_CHILD = f"""
import json, runpy, sys
sys.argv = ["slabspp", *sys.argv[1:]]
code = None
try:
    runpy.run_module("slabspp", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps(code))
print({_HEAVY})
print({_OWN})
"""

# The slabspp submodules a cold subcommand loads: what it runs, no more.
_SWEEP_MODULES = ["cli", "dispersion", "media"]
_FIELD_MODULES = ["cli", "dispersion", "fields", "media", "modes", "oracles",
                  "quantization"]
_VERIFY_MODULES = ["cli", "dispersion", "media", "modes", "oracles",
                   "quantization", "verify"]


def _child_env():
    """The environment with this checkout's ``src`` first on the path."""
    src = str(Path(slabspp.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("argv, modules", [
    (("dispersion",), _SWEEP_MODULES), (("gain-sweep",), _SWEEP_MODULES),
    (("field",), _FIELD_MODULES), (("field", "--compare"), _FIELD_MODULES),
    (("verify",), _VERIFY_MODULES),
], ids=["dispersion", "gain-sweep", "field", "field-compare", "verify"])
def test_no_subcommand_loads_scipy(tmp_path, argv, modules):
    """A cold CLI run loads no scipy, numpy, dataclasses or inspect, and
    only its own modules.

    ``verify`` and its quadratures included, and ``field``, which writes its
    samples from lists and never asks for :attr:`FieldSamples.values`.
    ``dispersion`` and ``gain-sweep`` load no ``fields`` or ``verify``,
    ``field`` no ``verify`` and ``verify`` no ``fields``.  Runs in a
    subprocess because other test modules import numpy and scipy into this
    interpreter.
    """
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, "--config", _small_config(tmp_path),
         "--out", str(out), *argv],
        env=_child_env(), capture_output=True, text=True, timeout=120,
        check=True)
    *_, code, heavy, own = proc.stdout.splitlines()
    assert json.loads(code) == 0, proc.stderr
    assert json.loads(heavy) == []
    assert json.loads(own) == modules


def test_run_without_config_loads_no_configparser(tmp_path):
    """Without ``--config`` every key takes its default, and a cold run
    does not import ``configparser``."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD + "print('configparser' in sys.modules)",
         "--out", str(tmp_path / "out.csv"), "dispersion"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
        check=True)
    *_, code, _, _, loaded = proc.stdout.splitlines()
    assert json.loads(code) == 0, proc.stderr
    assert loaded == "False"


def _modules_after(statement: str) -> tuple[list, list]:
    """``_HEAVY`` modules and slabspp submodules ``statement`` loads, fresh."""
    proc = subprocess.run(
        [sys.executable, "-c", f"import json, sys; {statement}; "
                               f"print({_HEAVY}); print({_OWN})"],
        env=_child_env(), capture_output=True, text=True, timeout=120,
        check=True)
    heavy, own = proc.stdout.splitlines()
    return json.loads(heavy), json.loads(own)


@pytest.mark.parametrize("module", sorted(
    name for _, name, _ in pkgutil.iter_modules(slabspp.__path__)))
def test_module_import_loads_no_dataclasses(module):
    """No module of the package loads ``dataclasses`` or ``inspect``, nor
    numpy or scipy, when imported on its own: the oracles, for one, run on
    the standard library."""
    assert _modules_after(f"import slabspp.{module}")[0] == []


def test_package_import_loads_no_numpy():
    """``import slabspp`` loads no numpy and no submodule either."""
    assert _modules_after("import slabspp") == ([], [])
