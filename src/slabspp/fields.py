"""Magnetic-field expectation values of launched quantum SPP states.

A mode launched at x = 0 in a coherent or squeezed-coherent state carries a
mean magnetic field

    <H(x, z)> = i D sqrt(beta_prime / (2 Im k)) e^{i k x} <a> b_H(z)

where D is the Green-tensor residue, beta_prime the noise-overlap weight,
<a> the ladder-operator mean of the launched state, and b_H the
magnetic-type profile bracket (the y component is the only one for TM).
For an amplified mode Im k < 0 makes the square-root argument negative; the
principal branch is used, contributing a fixed overall factor i.

The mean is ill-defined for exactly neutral modes (Im k = 0): the
launch-normalization diverges.  :class:`NeutralModeSingularity` is raised
instead of returning infinities.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .dispersion import ModeSolution
from .modes import green_coefficient, h_field_operator_bracket
from .quantization import beta_prime

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NeutralModeSingularity",
    "SppState",
    "ladder_mean",
    "FieldSamples",
    "auto_x_max",
    "default_grid",
    "h_field_mean",
    "compare_states",
]

_IM_K_FLOOR = 1e-20


class NeutralModeSingularity(Exception):
    """Field normalization diverges for a mode with Im(k_spp) == 0."""


@dataclass(frozen=True)
class SppState:
    """Launched single-mode state: coherent, optionally squeezed.

    ``alpha_mag``/``alpha_phase`` give the coherent displacement
    ``alpha = alpha_mag * exp(i alpha_phase)``; ``xi_mag``/``xi_phase`` the
    squeeze parameter (zero modulus = plain coherent state).  The hyperbolic
    weights satisfy cosh^2 - |sinh e^{i phase}|^2 = 1 identically.
    """

    alpha_mag: float
    alpha_phase: float = 0.0
    xi_mag: float = 0.0
    xi_phase: float = 0.0

    def describe(self) -> str:
        if self.xi_mag == 0.0:
            return f"coherent(|a|={self.alpha_mag:g}, phase={self.alpha_phase:g})"
        return (f"squeezed(|a|={self.alpha_mag:g}, phase={self.alpha_phase:g}, "
                f"|xi|={self.xi_mag:g}, xi_phase={self.xi_phase:g})")


def ladder_mean(state: SppState, textbook_squeeze: bool = False) -> complex:
    """Mean of the launched ladder operator for the given state.

    For a squeezed state the default combination is mu*alpha - nu*alpha
    with mu = cosh|xi|, nu = sinh|xi| e^{i xi_phase}; ``textbook_squeeze``
    conjugates the displacement in the second term (mu*alpha - nu*alpha^*),
    the combination produced by squeezing the vacuum before displacing.
    Both reduce to alpha when xi_mag == 0.
    """
    alpha = state.alpha_mag * cmath.exp(1j * state.alpha_phase)
    if state.xi_mag == 0.0:
        return alpha
    mu = math.cosh(state.xi_mag)
    nu = math.sinh(state.xi_mag) * cmath.exp(1j * state.xi_phase)
    if textbook_squeeze:
        return mu * alpha - nu * alpha.conjugate()
    return mu * alpha - nu * alpha


@dataclass
class FieldSamples:
    """Mean field sampled on a separable (x, z) grid.

    ``values[i, j]`` corresponds to ``(xs[i], zs[j])``; ``meta`` carries
    scalar context (mode, state, prefactor) for CSV headers.
    """

    xs: np.ndarray
    zs: np.ndarray
    values: np.ndarray
    meta: dict = field(default_factory=dict)


def auto_x_max(sol: ModeSolution) -> float:
    """End of the automatic x window from 0: five decay lengths, 5/|Im k|."""
    ki = abs(sol.k_spp.imag)
    if ki < _IM_K_FLOOR:
        raise NeutralModeSingularity(
            "neutral mode: no finite decay length to set the grid")
    return 5.0 / ki


def default_grid(sol: ModeSolution) -> tuple[np.ndarray, np.ndarray]:
    """x over :func:`auto_x_max` at 500 samples; z at the two interfaces."""
    import numpy as np  # here, so that importing slabspp loads no numpy

    xs = np.linspace(0.0, auto_x_max(sol), 500)
    zs = np.array([0.0, sol.geom.d])
    return xs, zs


def _field_prefactor(sol: ModeSolution) -> complex:
    ki = sol.k_spp.imag
    if abs(ki) < _IM_K_FLOOR:
        raise NeutralModeSingularity(
            f"Im(k_spp) = {ki!r}: launch normalization diverges for a "
            "neutral mode")
    beta = beta_prime(sol)
    dval = green_coefficient(sol).d_value
    return 1j * dval * cmath.sqrt(complex(beta / (2.0 * ki)))


def h_field_mean(sol: ModeSolution, state: SppState, grid=None,
                 textbook_squeeze: bool = False) -> FieldSamples:
    """Mean magnetic field of the launched state on a sampling grid.

    ``grid`` is an ``(xs, zs)`` pair of 1-D arrays (defaults to
    :func:`default_grid`).  The x dependence is a single exponential, so
    |values| is monotone along x at fixed z.
    """
    import numpy as np  # here, so that importing slabspp loads no numpy

    if grid is None:
        grid = default_grid(sol)
    xs, zs = (np.asarray(g, dtype=float) for g in grid)
    pref = _field_prefactor(sol) * ladder_mean(state, textbook_squeeze)
    xphase = np.exp(1j * sol.k_spp * xs)
    zprof = np.array([h_field_operator_bracket(sol, z) for z in zs])
    values = pref * np.outer(xphase, zprof)
    meta = {
        "omega_rad_s": sol.omega,
        "parity": sol.parity.name,
        "re_k": sol.k_spp.real,
        "im_k": sol.k_spp.imag,
        "regime": sol.regime,
        "state": state.describe(),
        "textbook_squeeze": textbook_squeeze,
    }
    return FieldSamples(xs=xs, zs=zs, values=values, meta=meta)


def compare_states(sol: ModeSolution, state_a: SppState, state_b: SppState,
                   grid=None, textbook_squeeze: bool = False) -> FieldSamples:
    """Pointwise difference of the mean fields of two launched states.

    The mean is linear in the ladder mean, so the result equals the mean
    field of a fictitious state whose ladder mean is the difference of the
    two; identical states give exact zeros.
    """
    if grid is None:
        grid = default_grid(sol)
    fa = h_field_mean(sol, state_a, grid=grid,
                      textbook_squeeze=textbook_squeeze)
    fb = h_field_mean(sol, state_b, grid=grid,
                      textbook_squeeze=textbook_squeeze)
    meta = dict(fa.meta)
    meta["state"] = f"{state_a.describe()} minus {state_b.describe()}"
    return FieldSamples(xs=fa.xs, zs=fa.zs, values=fa.values - fb.values,
                        meta=meta)
