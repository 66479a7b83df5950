import cmath
import math
import re

import numpy as np
import pytest

from slabspp import (
    ANTISYMMETRIC,
    SYMMETRIC,
    DielectricSpec,
    DrudeMetalSpec,
    FieldOverflowError,
    MediumSet,
    NeutralModeSingularity,
    SlabGeometry,
    SppState,
    compare_states,
    default_grid,
    h_field_bracket_of,
    h_field_mean,
    ladder_mean,
    make_medium_set,
    solve_dispersion,
)
from slabspp.cli import load_config, main
from slabspp.fields import _field_prefactor

METAL = DrudeMetalSpec(14.02e15, 6.25e13)
GEOM = SlabGeometry(60e-9)

COHERENT = SppState(alpha_mag=math.sqrt(7.0), alpha_phase=1.5)
SQUEEZED = SppState(alpha_mag=math.sqrt(7.0), alpha_phase=1.5,
                    xi_mag=1.0, xi_phase=0.0)


def _amplified(parity=SYMMETRIC):
    media = make_medium_set(METAL, DielectricSpec(0.9726, -0.08), 4.8e15)
    return solve_dispersion(parity, GEOM, media)


def _attenuated():
    media = make_medium_set(METAL, DielectricSpec(0.9726, 0.0), 4.8e15)
    return solve_dispersion(SYMMETRIC, GEOM, media)


def test_ladder_mean_coherent():
    alpha = cmath.rect(math.sqrt(7.0), 1.5)
    assert ladder_mean(COHERENT) == pytest.approx(alpha, rel=1e-15)


def test_ladder_mean_squeezed_reduces_at_xi_zero():
    plain = SppState(alpha_mag=1.3, alpha_phase=0.4)
    assert ladder_mean(plain) == ladder_mean(
        SppState(alpha_mag=1.3, alpha_phase=0.4, xi_mag=0.0, xi_phase=0.9))


def test_ladder_mean_squeeze_conventions():
    alpha = cmath.rect(math.sqrt(7.0), 1.5)
    # at xi_phase=0 the squeeze contracts the displacement
    assert ladder_mean(SQUEEZED) == pytest.approx(math.exp(-1.0) * alpha,
                                                  rel=1e-13)
    # mu*alpha - nu*alpha, with nu carrying the squeeze phase
    state = SppState(alpha_mag=math.sqrt(7.0), alpha_phase=1.5,
                     xi_mag=1.0, xi_phase=0.7)
    mu, nu = math.cosh(1.0), math.sinh(1.0) * cmath.exp(0.7j)
    assert ladder_mean(state) == pytest.approx(mu * alpha - nu * alpha,
                                               rel=1e-13)


def test_default_grid():
    sol = _amplified()
    xs, zs = default_grid(sol)
    assert xs[0] == 0.0
    assert xs[-1] == pytest.approx(5.0 / abs(sol.k_spp.imag), rel=1e-15)
    assert len(xs) == 500
    assert list(zs) == [0.0, GEOM.d]


def test_field_envelope_rate_matches_mode():
    """log|<H>| must be a straight line with slope -Im(k)."""
    for sol in (_amplified(), _amplified(ANTISYMMETRIC), _attenuated()):
        samples = h_field_mean(sol, COHERENT)
        logs = np.log(np.abs(samples.values[:, 0]))
        slope = np.polyfit(samples.xs, logs, 1)[0]
        assert slope == pytest.approx(-sol.k_spp.imag, rel=1e-6)


def test_field_grows_for_amplified_mode():
    sol = _amplified()
    samples = h_field_mean(sol, COHERENT)
    mags = np.abs(samples.values[:, 0])
    assert np.all(np.diff(mags) > 0)
    assert sol.regime == "amplified"


def test_field_decays_for_attenuated_mode():
    sol = _attenuated()
    samples = h_field_mean(sol, COHERENT)
    mags = np.abs(samples.values[:, 0])
    assert np.all(np.diff(mags) < 0)


def test_field_shape_and_z_slices():
    sol = _amplified()
    grid = (np.linspace(0.0, 1e-6, 41), np.array([0.0, 3e-8, 6e-8]))
    samples = h_field_mean(sol, COHERENT, grid=grid)
    assert samples.values.shape == (41, 3)
    # the two interface rows differ only by the bracket ratio, uniformly in x
    ratio = samples.values[:, 2] / samples.values[:, 0]
    h_bracket = h_field_bracket_of(sol)
    expected = h_bracket(6e-8) / h_bracket(0.0)
    assert np.allclose(ratio, expected, rtol=1e-12)


def test_symmetric_bracket_node_at_midplane():
    sol = _amplified()
    assert h_field_bracket_of(sol)(0.5 * GEOM.d) == 0j
    anti = _amplified(ANTISYMMETRIC)
    assert h_field_bracket_of(anti)(0.5 * GEOM.d) != 0j


def _bits(rows):
    """Complex samples as hex pairs, so that equality is bit for bit."""
    return [[(v.real.hex(), v.imag.hex()) for v in row] for row in rows]


def test_values_and_field_csv_are_the_rows(tmp_path):
    """``values`` and the default ``field`` CSV carry ``rows`` unrounded."""
    cfg = load_config(None)
    sec = cfg["field"]
    media = make_medium_set(
        DrudeMetalSpec(cfg["metal"]["omega_p"], cfg["metal"]["gamma"]),
        DielectricSpec(cfg["dielectric"]["n_real"],
                       cfg["dielectric"]["n_imag"]), sec["omega"])
    sol = solve_dispersion(sec["parity"], SlabGeometry(cfg["geometry"]["d"]),
                           media)
    samples = h_field_mean(sol, SppState(sec["alpha_mag"], sec["alpha_phase"]))
    values = samples.values
    assert values.shape == (len(samples.xs), len(samples.zs)) == (500, 2)
    assert values.dtype == np.complex128
    assert _bits(values.tolist()) == _bits(samples.rows)

    out = tmp_path / "field.csv"
    assert main(["--out", str(out), "field"]) == 0
    cells = [line.split(",") for line in out.read_text().splitlines()
             if not line.startswith("#")][1:]
    assert cells == [[f"{x:.17g}", f"{z:.17g}", f"{v.real:.17g}",
                      f"{v.imag:.17g}", f"{abs(v):.17g}"]
                     for x, row in zip(samples.xs, samples.rows)
                     for z, v in zip(samples.zs, row)]


def test_overflowing_samples_raise():
    sol = _amplified()
    # e^{ikx} itself leaves the float range at x = 1 m
    with pytest.raises(FieldOverflowError, match="overflows at x = 1.0 m"):
        h_field_mean(sol, COHERENT, grid=([0.0, 1.0], [0.0]))
    # |e^{ikx}| ~ 1e299: the sample of a unit displacement is finite, that
    # of a large one is not
    x = 690.0 / abs(sol.k_spp.imag)
    grid = ([x], [0.0])
    unit = abs(h_field_mean(sol, SppState(alpha_mag=1.0), grid=grid).rows[0][0])
    assert 1e280 < unit < 1e300
    with pytest.raises(FieldOverflowError,
                       match=re.escape(f"overflows at x = {x!r} m")):
        h_field_mean(sol, SppState(alpha_mag=1e20), grid=([0.0, x], [0.0]))
    with pytest.raises(FieldOverflowError, match="ladder mean overflows"):
        compare_states(sol, COHERENT,
                       SppState(alpha_mag=1.0, xi_mag=800.0))
    # two samples of modulus 1.5e308 whose difference has modulus 2e308: at
    # xi_phase = acos(tanh r) the squeezed ladder mean is alpha (1 - i nu)/mu
    alpha = 1.5e308 / unit
    squeezed = SppState(alpha_mag=alpha, xi_mag=3.0,
                        xi_phase=math.acos(math.tanh(3.0)))
    assert abs(h_field_mean(sol, squeezed, grid=grid).rows[0][0]) < 1.6e308
    with pytest.raises(FieldOverflowError, match="minus squeezed"):
        compare_states(sol, SppState(alpha_mag=alpha), squeezed, grid=grid)


@pytest.mark.parametrize("parity", [SYMMETRIC, ANTISYMMETRIC])
def test_sample_inside_float_range_past_overflowing_phase(parity):
    """At Im(k)*x = 700, |e^{ikx}*p| ~ 1e311 but |H| ~ 1e297; at 712,
    past Im(k)*x ~ 709.8, e^{ikx} itself overflows but |H| ~ 3e302.  Both
    are finite samples, returned to within 1e-12 of
    e^{|Im k|*x + log(|pref|*|p|)}."""
    sol = _amplified(parity)
    ki = abs(sol.k_spp.imag)
    zs = [0.0, GEOM.d]
    pref = abs(_field_prefactor(sol))
    h_bracket = h_field_bracket_of(sol)
    for ki_x in (700.0, 712.0):
        x = ki_x / ki
        row = h_field_mean(sol, SppState(alpha_mag=1.0),
                           grid=([x], zs)).rows[0]
        if ki_x < 709.0:  # e^{ikx} is finite, its products with p are not
            phase = cmath.exp(1j * sol.k_spp * x)
            assert not any(math.isfinite(abs(phase * h_bracket(z)))
                           for z in zs)
        else:
            with pytest.raises(OverflowError):
                cmath.exp(1j * sol.k_spp * x)
        for z, v in zip(zs, row):
            expected = math.exp(ki * x + math.log(pref * abs(h_bracket(z))))
            assert abs(abs(v) - expected) <= 1e-12 * expected


def test_compare_states_is_pointwise_difference():
    sol = _amplified()
    grid = (np.linspace(0.0, 8e-7, 25), np.array([0.0]))
    diff = compare_states(sol, COHERENT, SQUEEZED, grid=grid)
    a = h_field_mean(sol, COHERENT, grid=grid)
    b = h_field_mean(sol, SQUEEZED, grid=grid)
    assert _bits(diff.rows) == _bits([[u - v for u, v in zip(ru, rv)]
                                      for ru, rv in zip(a.rows, b.rows)])


def test_compare_identical_states_is_zero():
    sol = _amplified()
    diff = compare_states(sol, COHERENT, COHERENT)
    assert np.all(diff.values == 0)


def test_compare_grows_along_x_when_amplified():
    sol = _amplified()
    diff = compare_states(sol, COHERENT, SQUEEZED)
    mags = np.abs(diff.values[:, 0])
    assert mags[0] > 0
    assert np.all(np.diff(mags) > 0)


def test_neutral_mode_rejected():
    lossy = make_medium_set(METAL, DielectricSpec(0.9726, 0.0), 4.8e15)
    media = MediumSet(lossy.omega, lossy.eps_d, complex(lossy.eps_m.real, 0.0))
    sol = solve_dispersion(SYMMETRIC, GEOM, media)
    assert sol.k_spp.imag == 0.0
    with pytest.raises(NeutralModeSingularity):
        h_field_mean(sol, COHERENT)
    with pytest.raises(NeutralModeSingularity):
        default_grid(sol)
    # an explicit grid needs no decay length, but the launch normalization
    # still diverges
    with pytest.raises(NeutralModeSingularity,
                       match=r"^Im\(k_spp\) = 0\.0: launch normalization "
                             "diverges"):
        h_field_mean(sol, COHERENT, grid=([0.0, 1e-7], [0.0, GEOM.d]))


def test_state_describe():
    assert "squeez" in SQUEEZED.describe().lower()
    assert "coherent" in COHERENT.describe().lower()


@pytest.mark.parametrize("state", [
    COHERENT, SppState(alpha_mag=0.1, alpha_phase=-1e-300, xi_mag=2.0 / 3.0,
                       xi_phase=math.pi)])
def test_state_describe_keeps_every_digit(state):
    numbers = [float(part.split("=")[1])
               for part in state.describe()[:-1].split("(")[1].split(", ")]
    expected = [state.alpha_mag, state.alpha_phase]
    if state.xi_mag != 0.0:
        expected += [state.xi_mag, state.xi_phase]
    assert numbers == expected
