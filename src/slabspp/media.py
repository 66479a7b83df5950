"""Material response of the slab system.

The structure is a metal film of thickness ``d`` occupying ``0 < z < d``,
embedded between two identical dielectric half spaces.  All fields carry the
time factor ``exp(-i*omega*t)``, so a medium with ``Im(eps) > 0`` absorbs and
one with ``Im(eps) < 0`` amplifies.  The dielectric claddings are described by
a complex refractive index ``n = n_real + i*n_imag``; a negative ``n_imag``
models optical gain.
"""

from __future__ import annotations

from typing import NamedTuple

# CODATA 2022 values, as in scipy.constants; pinned here so importing the
# package does not load scipy and results do not depend on its release.
C_LIGHT = 299792458.0
EPS0 = 8.8541878188e-12
HBAR = 1.0545718176461565e-34

__all__ = [
    "C_LIGHT",
    "EPS0",
    "HBAR",
    "DrudeMetalSpec",
    "DielectricSpec",
    "MediumSet",
    "drude_epsilon",
    "dielectric_epsilon",
    "make_medium_set",
]


class DrudeMetalSpec(NamedTuple("DrudeMetalSpec", [("omega_p", float),
                                                   ("gamma", float)])):
    """Drude metal parameters.

    Parameters
    ----------
    omega_p : float
        Plasma frequency in rad/s.
    gamma : float
        Collision rate in rad/s (non-negative).
    """

    __slots__ = ()

    def __new__(cls, omega_p: float, gamma: float):
        if not omega_p > 0.0:
            raise ValueError(f"omega_p must be positive, got {omega_p!r}")
        if gamma < 0.0:
            raise ValueError(f"gamma must be non-negative, got {gamma!r}")
        return super().__new__(cls, omega_p, gamma)


class DielectricSpec(NamedTuple("DielectricSpec", [("n_real", float),
                                                   ("n_imag", float)])):
    """Cladding refractive index ``n = n_real + i*n_imag``.

    ``n_imag < 0`` describes an amplifying (pumped) dielectric, ``n_imag > 0``
    an absorbing one.
    """

    __slots__ = ()

    def __new__(cls, n_real: float, n_imag: float = 0.0):
        if not n_real > 0.0:
            raise ValueError(f"n_real must be positive, got {n_real!r}")
        return super().__new__(cls, n_real, n_imag)


class MediumSet(NamedTuple("MediumSet", [("omega", float), ("eps_d", complex),
                                         ("eps_m", complex)])):
    """Permittivities of the three-layer system at one frequency.

    Attributes
    ----------
    omega : float
        Angular frequency in rad/s.
    eps_d : complex
        Cladding permittivity (both half spaces are identical).
    eps_m : complex
        Slab (metal) permittivity.
    """

    __slots__ = ()

    def __new__(cls, omega: float, eps_d: complex, eps_m: complex):
        if not omega > 0.0:
            raise ValueError(f"omega must be positive, got {omega!r}")
        return super().__new__(cls, omega, eps_d, eps_m)

    @property
    def k0(self) -> float:
        """Vacuum wavenumber omega/c in rad/m."""
        return self.omega / C_LIGHT


def drude_epsilon(spec: DrudeMetalSpec, omega: float) -> complex:
    """Drude permittivity ``1 - omega_p**2 / (omega**2 + i*gamma*omega)``.

    With ``gamma > 0`` the imaginary part is strictly positive (ohmic loss).
    """
    if not omega > 0.0:
        raise ValueError(f"omega must be positive, got {omega!r}")
    return 1.0 - spec.omega_p**2 / (omega * (omega + 1j * spec.gamma))


def dielectric_epsilon(spec: DielectricSpec) -> complex:
    """Cladding permittivity ``n**2``.

    Computed as the complex square ``n*n`` so that
    ``Im(eps_d) == 2*n_real*n_imag`` holds exactly in floating point.
    """
    n = complex(spec.n_real, spec.n_imag)
    return n * n


def make_medium_set(metal: DrudeMetalSpec, dielectric: DielectricSpec,
                    omega: float) -> MediumSet:
    """Bundle the permittivities of both media at ``omega``.

    A system with any other pair of permittivities (a fixed complex
    ``eps_m``, say) is a :class:`MediumSet` built directly.
    """
    eps_m = drude_epsilon(metal, omega)
    eps_d = dielectric_epsilon(dielectric)
    if eps_m == 0 or eps_d == 0:
        raise ValueError("permittivities must be non-zero")
    return MediumSet(omega, eps_d, eps_m)
