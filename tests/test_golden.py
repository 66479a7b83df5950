"""CLI outputs, byte for byte, against committed golden copies.

Runs ``slabspp`` in-process and compares each output file with its copy in
``tests/golden/``:

- the default configuration's ``dispersion``, ``gain-sweep``, ``field``,
  ``field --compare`` and ``verify`` outputs;
- ``field`` and ``field --compare`` for a squeezed state (``xi_mag`` 1,
  ``xi_phase`` 0.7), named ``field_squeezed`` and ``field_compare_squeezed``;
- ``verify`` at the benchmark's 30 operating points: n_real 0.9726, n_imag
  -0.063 (gain) and 0.02 (loss), omega in {2, 3, 4.8, 6, 7}e15 rad/s and
  d in {20, 60, 200} nm, named ``verify_op<i>_<gain|loss>`` in that order.

The default configuration's cases run once more without ``--out``, each
writing its documented default file into an empty working directory.

Every output is computed in scalar Python, so no copy depends on numpy's
SIMD dispatch (numpy's complex multiply fuses multiply-adds where the CPU
has FMA, and then rounds differently from Python's).

A change that is not meant to move any output value must leave every copy
as it is.  A change that is meant to move values regenerates the copies with

    PYTHONPATH=src python tests/test_golden.py

and states in CHANGES.md which outputs moved and why.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from slabspp.cli import main

GOLDEN = Path(__file__).with_name("golden")

# name -> (INI text, or None for the defaults; subcommand arguments)
_SQUEEZED = "[field]\nxi_mag = 1.0\nxi_phase = 0.7\n"
CASES = {
    "dispersion": (None, ("dispersion",)),
    "gain_sweep": (None, ("gain-sweep",)),
    "field": (None, ("field",)),
    "field_compare": (None, ("field", "--compare")),
    "field_squeezed": (_SQUEEZED, ("field",)),
    "field_compare_squeezed": (_SQUEEZED, ("field", "--compare")),
    "verify": (None, ("verify",)),
}
_OP_POINTS = [(omega, d) for omega in (2e15, 3e15, 4.8e15, 6e15, 7e15)
              for d in (20e-9, 60e-9, 200e-9)]
for _i, (_omega, _d) in enumerate(_OP_POINTS):
    for _label, _n_imag in (("gain", -0.063), ("loss", 0.02)):
        CASES[f"verify_op{_i}_{_label}"] = (
            f"[dielectric]\nn_real = 0.9726\nn_imag = {_n_imag!r}\n"
            f"[geometry]\nd = {_d!r}\n[verify]\nomega = {_omega!r}\n",
            ("verify",))


def _output(name: str, workdir: Path) -> bytes:
    """The bytes ``slabspp`` writes for case ``name``, run in ``workdir``."""
    ini, argv = CASES[name]
    options = []
    if ini is not None:
        config = workdir / f"{name}.ini"
        config.write_text(ini)
        options = ["--config", str(config)]
    out = workdir / f"{name}.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        status = main([*options, "--out", str(out), *argv])
    assert status == 0, name
    return out.read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(tmp_path, name):
    got = _output(name, tmp_path)
    want = (GOLDEN / f"{name}.csv").read_bytes()
    assert got.decode().splitlines() == want.decode().splitlines()
    assert got == want


@pytest.mark.parametrize("name, default_file", [
    ("dispersion", "dispersion.csv"),
    ("gain_sweep", "gain_sweep.csv"),
    ("field", "field.csv"),
    ("field_compare", "field.csv"),
    ("verify", "verify_report.csv"),
])
def test_default_output_file_matches_golden(tmp_path, monkeypatch, name,
                                            default_file):
    monkeypatch.chdir(tmp_path)
    ini, argv = CASES[name]
    assert ini is None
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0
    assert [p.name for p in tmp_path.iterdir()] == [default_file]
    want = (GOLDEN / f"{name}.csv").read_bytes()
    assert (tmp_path / default_file).read_bytes() == want


def regenerate() -> None:
    """Rewrite every golden copy from the current code."""
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as workdir:
        for name in CASES:
            (GOLDEN / f"{name}.csv").write_bytes(_output(name, Path(workdir)))
    print(f"wrote {len(CASES)} golden copies to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
