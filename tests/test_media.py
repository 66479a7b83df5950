import cmath

import pytest
import scipy.constants
from hypothesis import given, strategies as st

from slabspp import (
    C_LIGHT,
    EPS0,
    HBAR,
    DielectricSpec,
    DrudeMetalSpec,
    MediumSet,
    dielectric_epsilon,
    drude_epsilon,
    make_medium_set,
)

SILVERISH = DrudeMetalSpec(omega_p=14.02e15, gamma=6.25e13)


def test_drude_frozen_values():
    eps = drude_epsilon(SILVERISH, 4.8e15)
    assert eps == pytest.approx(-7.529821197306772 + 0.11106538017326525j,
                                rel=1e-14)
    eps2 = drude_epsilon(SILVERISH, 2e15)
    assert eps2 == pytest.approx(-48.09215843902439 + 1.5341299512195121j,
                                 rel=1e-14)


def test_drude_is_lossy():
    for omega in (1e14, 1e15, 4.8e15, 2e16, 1e17):
        assert drude_epsilon(SILVERISH, omega).imag > 0


def test_dielectric_epsilon_exact_imag():
    """Im eps = 2*n_real*n_imag must hold to the last bit (n*n, not n**2)."""
    spec = DielectricSpec(0.9726, -0.063)
    eps = dielectric_epsilon(spec)
    assert eps.imag == 2.0 * 0.9726 * -0.063
    assert eps.real == 0.9726 * 0.9726 - 0.063 * 0.063


def test_pinned_constants_match_scipy():
    """The literals in ``media`` are scipy's CODATA 2022 values.

    Pinning them keeps ``scipy`` out of every import but the quadrature
    oracles, and keeps outputs independent of the installed scipy release:
    one still on CODATA 2018 differs in ``epsilon_0`` by 6.8e-10 relative.
    """
    assert C_LIGHT == scipy.constants.c
    assert HBAR == scipy.constants.hbar
    assert EPS0 == 8.8541878188e-12
    assert EPS0 == pytest.approx(scipy.constants.epsilon_0, rel=1e-9, abs=0)


def test_medium_set_k0():
    media = make_medium_set(SILVERISH, DielectricSpec(1.5), 3e15)
    assert media.k0 == 3e15 / C_LIGHT
    assert media.omega == 3e15


def test_validation_errors():
    with pytest.raises(ValueError):
        DrudeMetalSpec(omega_p=-1.0, gamma=1e13)
    with pytest.raises(ValueError):
        DrudeMetalSpec(omega_p=1e16, gamma=-1.0)
    with pytest.raises(ValueError):
        DielectricSpec(0.0, 0.0)
    with pytest.raises(ValueError):
        DielectricSpec(-1.2)
    with pytest.raises(ValueError):
        make_medium_set(SILVERISH, DielectricSpec(1.0), 0.0)
    # MediumSet checks omega itself, also when built from permittivities
    for omega in (0.0, -3e15, float("nan")):
        with pytest.raises(ValueError, match="omega must be positive"):
            MediumSet(omega, 2.25 + 0j, -7.5 + 0.1j)


@given(n_real=st.floats(0.1, 5.0),
       n_imag=st.one_of(st.just(0.0), st.floats(1e-6, 0.5),
                        st.floats(-0.5, -1e-6)))
def test_dielectric_imag_identity(n_real, n_imag):
    # exact only for normal-range products: a subnormal n_real*n_imag
    # rounds at reduced precision and can differ from 2*n_real*n_imag
    # by one ulp, which no physical cladding ever reaches
    eps = dielectric_epsilon(DielectricSpec(n_real, n_imag))
    assert eps.imag == 2.0 * n_real * n_imag


@given(omega=st.floats(1e13, 1e17))
def test_drude_imag_positive(omega):
    assert drude_epsilon(SILVERISH, omega).imag > 0.0


def test_sqrt_roundtrip_is_consistent():
    # the refractive index squared and back should land on itself
    spec = DielectricSpec(0.9726, -0.08)
    eps = dielectric_epsilon(spec)
    n = cmath.sqrt(eps)
    assert n == pytest.approx(complex(0.9726, -0.08), rel=1e-15)
