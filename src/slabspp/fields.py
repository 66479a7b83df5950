"""Magnetic-field expectation values of launched quantum SPP states.

A mode launched at x = 0 in a coherent or squeezed-coherent state carries a
mean magnetic field

    <H(x, z)> = i D sqrt(beta_prime / (2 Im k)) e^{i k x} <a> b_H(z)

where D is the Green-tensor residue, beta_prime the noise-overlap weight,
<a> the ladder-operator mean of the launched state (:func:`ladder_mean`,
mu*alpha - nu*alpha for a squeezed state), and b_H the
magnetic-type profile bracket (the y component is the only one for TM).
For an amplified mode Im k < 0 makes the square-root argument negative; the
principal branch is used, contributing a fixed overall factor i.

The mean is ill-defined for exactly neutral modes (Im k = 0): the
launch-normalization diverges.  :class:`NeutralModeSingularity` is raised
instead of returning infinities, and :class:`FieldOverflowError` (also an
``OverflowError``) where a sample of an amplified mode's growing field, or
the ladder mean of a strongly squeezed state, leaves the float range.

The samples are computed in scalar Python and kept as lists;
:attr:`FieldSamples.values` gives them as an ndarray, and is the only place
this module loads numpy.
"""

from __future__ import annotations

import cmath
import math
from functools import cached_property
from typing import TYPE_CHECKING, NamedTuple

from .dispersion import ModeSolution, linspace
from .modes import green_coefficient, h_field_operator_bracket
from .quantization import beta_prime

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "NeutralModeSingularity",
    "FieldOverflowError",
    "SppState",
    "ladder_mean",
    "FieldSamples",
    "auto_x_max",
    "default_grid",
    "h_field_mean",
    "compare_states",
]

_IM_K_FLOOR = 1e-20


class NeutralModeSingularity(ValueError):
    """Refusal: field normalization diverges for a mode with Im(k_spp) == 0."""


class FieldOverflowError(OverflowError, ValueError):
    """Refusal: a mean-field sample, or the ladder mean, is not finite."""


class SppState(NamedTuple):
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
        """The state with every number to 17 significant digits."""
        if self.xi_mag == 0.0:
            return (f"coherent(|a|={self.alpha_mag:.17g}, "
                    f"phase={self.alpha_phase:.17g})")
        return (f"squeezed(|a|={self.alpha_mag:.17g}, "
                f"phase={self.alpha_phase:.17g}, |xi|={self.xi_mag:.17g}, "
                f"xi_phase={self.xi_phase:.17g})")


def ladder_mean(state: SppState) -> complex:
    """Mean of the launched ladder operator for the given state.

    For a squeezed state this is mu*alpha - nu*alpha with mu = cosh|xi|,
    nu = sinh|xi| e^{i xi_phase}; it reduces to alpha when xi_mag == 0.
    """
    alpha = state.alpha_mag * cmath.exp(1j * state.alpha_phase)
    if state.xi_mag == 0.0:
        return alpha
    mu = math.cosh(state.xi_mag)
    nu = math.sinh(state.xi_mag) * cmath.exp(1j * state.xi_phase)
    return mu * alpha - nu * alpha


class FieldSamples:
    """Mean field sampled on a separable (x, z) grid.

    ``xs`` and ``zs`` are lists of floats and ``rows[i][j]`` is the complex
    sample at ``(xs[i], zs[j])``.
    """

    def __init__(self, xs: list[float], zs: list[float],
                 rows: list[list[complex]]):
        self.xs = xs
        self.zs = zs
        self.rows = rows

    @cached_property
    def values(self) -> np.ndarray:
        """``rows`` as a complex 2-D array: ``values[i, j] == rows[i][j]``."""
        import numpy as np  # here, so that only callers of values load it

        return np.array(self.rows, dtype=complex).reshape(len(self.xs),
                                                          len(self.zs))


def auto_x_max(sol: ModeSolution) -> float:
    """Length of the automatic x window: five decay lengths, 5/|Im k|.

    The window starts where the grid does: at 0 for :func:`default_grid`,
    at ``x_min`` for ``[field] x_max = auto``.
    """
    ki = abs(sol.k_spp.imag)
    if ki < _IM_K_FLOOR:
        raise NeutralModeSingularity(
            "neutral mode: no finite decay length to set the grid")
    return 5.0 / ki


def default_grid(sol: ModeSolution) -> tuple[list[float], list[float]]:
    """x over :func:`auto_x_max` at 500 samples; z at the two interfaces."""
    return linspace(0.0, auto_x_max(sol), 500), [0.0, sol.geom.d]


def _field_prefactor(sol: ModeSolution) -> complex:
    ki = sol.k_spp.imag
    if abs(ki) < _IM_K_FLOOR:
        raise NeutralModeSingularity(
            f"Im(k_spp) = {ki!r}: launch normalization diverges for a "
            "neutral mode")
    beta = beta_prime(sol)
    dval = green_coefficient(sol).d_value
    return 1j * dval * cmath.sqrt(complex(beta / (2.0 * ki)))


def _all_finite(row: list[complex]) -> bool:
    """Whether the modulus of every sample of ``row`` is finite.

    A sample with finite parts can still have a modulus beyond the float
    range, for which ``abs`` raises instead of returning inf.
    """
    try:
        return all(math.isfinite(abs(v)) for v in row)
    except OverflowError:
        return False


def _finite_row(row: list[complex], x: float, what: str) -> list[complex]:
    """``row``, unless the modulus of a sample at ``x`` is not finite."""
    if _all_finite(row):
        return row
    raise FieldOverflowError(f"{what} overflows at x = {x!r} m")


def _rescaled_row(ikx: complex, pref: complex,
                  zprof: list[complex]) -> list[complex]:
    """The samples ``pref*p*e^{ikx}``, each formed as ``e^{ikx + log(pref*p)}``.

    An amplified mode's ``e^{ikx}`` (or its product with ``p``) can leave
    the float range where the sample, scaled back down by a small
    ``pref``, is still inside it; this order never forms the large factor
    alone.  A zero ``pref*p`` gives a zero sample.  Raises
    ``OverflowError`` where a sample itself is beyond the float range (and
    ``ValueError`` where ``cmath`` meets an infinite argument).
    """
    exp = cmath.exp
    log = cmath.log
    row = []
    for p in zprof:
        c = pref * p
        row.append(exp(ikx + log(c)) if c else c)
    return row


def h_field_mean(sol: ModeSolution, state: SppState,
                 grid=None) -> FieldSamples:
    """Mean magnetic field of the launched state on a sampling grid.

    ``grid`` is an ``(xs, zs)`` pair of 1-D float sequences (defaults to
    :func:`default_grid`).  The x dependence is a single exponential, so
    |H| is monotone along x at fixed z.  Each sample is ``pref*(e^{ikx}*p)``;
    a row in which that order overflows is formed again by
    :func:`_rescaled_row`, so it fails only where a sample itself leaves
    the float range.  Raises :class:`FieldOverflowError`, naming the state
    and the first x that overflows, instead of returning infinite or NaN
    samples.
    """
    if grid is None:
        grid = default_grid(sol)
    xs, zs = ([float(v) for v in g] for g in grid)
    what = f"mean field of {state.describe()}"
    try:
        pref = _field_prefactor(sol) * ladder_mean(state)
    except OverflowError as exc:  # cosh/sinh of a large squeeze modulus
        raise FieldOverflowError(
            f"{what}: the ladder mean overflows ({exc})") from None
    ik = 1j * sol.k_spp
    zprof = [h_field_operator_bracket(sol, z) for z in zs]
    rows = []
    for x in xs:
        ikx = ik * x
        try:
            phase = cmath.exp(ikx)
        except OverflowError:
            row = None
        else:
            # a finite phase can still overflow the product, which is not
            # raised
            row = [pref * (phase * p) for p in zprof]
        if row is None or not _all_finite(row):
            try:
                row = _finite_row(_rescaled_row(ikx, pref, zprof), x, what)
            except (OverflowError, ValueError):  # cmath's, or _finite_row's
                raise FieldOverflowError(
                    f"{what} overflows at x = {x!r} m") from None
        rows.append(row)
    return FieldSamples(xs=xs, zs=zs, rows=rows)


def compare_states(sol: ModeSolution, state_a: SppState, state_b: SppState,
                   grid=None) -> FieldSamples:
    """Pointwise difference of the mean fields of two launched states.

    The mean is linear in the ladder mean, so the result equals the mean
    field of a fictitious state whose ladder mean is the difference of the
    two; identical states give exact zeros.
    """
    if grid is None:
        grid = default_grid(sol)
    fa = h_field_mean(sol, state_a, grid=grid)
    fb = h_field_mean(sol, state_b, grid=grid)
    what = f"mean field of {state_a.describe()} minus {state_b.describe()}"
    rows = [_finite_row([a - b for a, b in zip(ra, rb)], x, what)
            for x, ra, rb in zip(fa.xs, fa.rows, fb.rows)]
    return FieldSamples(xs=fa.xs, zs=fa.zs, rows=rows)
