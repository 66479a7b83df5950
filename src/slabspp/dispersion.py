"""Complex dispersion of TM surface modes on a metal slab.

The guided transverse-magnetic modes of a film ``0 < z < d`` with permittivity
``eps_m`` between identical half spaces ``eps_d`` split into two parities of
the vector-potential profile: modes whose tangential component is odd about
the slab midplane ("antisymmetric") and modes where it is even ("symmetric").
For a metal film the symmetric branch is the short-range, high-wavenumber,
lossier one; the antisymmetric branch hugs the cladding light line.

Everything is solved at fixed real ``omega`` for a complex in-plane
wavenumber ``k_spp``.  With the ``exp(-i*omega*t)`` convention a mode with
``Im(k_spp) > 0`` decays along +x (attenuated) and one with ``Im(k_spp) < 0``
grows (amplified, possible when the claddings are pumped).

Transverse decay constants use the square-root branch with ``Re >= 0``
(ties broken toward ``Im >= 0``) so that bound profiles decay away from the
film; a converged root whose decay constants land on ``Re <= 0`` is rejected
as unbound.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional, Sequence

from .media import (
    DielectricSpec,
    MediumSet,
    make_medium_set,
)

__all__ = [
    "AMPLIFIED",
    "ATTENUATED",
    "NEUTRAL_MODE",
    "ANTISYMMETRIC",
    "SYMMETRIC",
    "PARITIES",
    "Parity",
    "parity_from_name",
    "SlabGeometry",
    "ModeSolution",
    "DispersionError",
    "NonConvergence",
    "BranchViolation",
    "DispersionPole",
    "decay_constants",
    "dispersion_residual",
    "single_interface_root",
    "solve_dispersion",
    "classify_mode",
    "SweepRow",
    "dispersion_sweep",
    "GainCrossing",
    "GainSweepResult",
    "gain_sweep",
]

# propagation regime labels, keyed off the sign of Im(k_spp)
AMPLIFIED = "amplified"
ATTENUATED = "attenuated"
NEUTRAL_MODE = "neutral"

# smallest slab thickness the solver accepts (meters); below this the two
# film surfaces are numerically indistinguishable and the mode pair collapses
D_MIN = 1e-10

_MAX_NEWTON = 80
_MAX_MULLER = 60


class DispersionError(Exception):
    """Base class for dispersion-solver failures."""


class NonConvergence(DispersionError):
    """Root iteration failed to converge from every available seed."""


class BranchViolation(DispersionError):
    """Converged root has a non-decaying transverse profile (Re(nu) <= 0)."""


class DispersionPole(DispersionError):
    """Residual evaluated exactly on a pole of the interface ratio."""


@dataclass(frozen=True)
class Parity:
    """Mode parity of the tangential vector-potential profile.

    ``pm`` is the sign that multiplies the back-reflected partial wave inside
    the film: -1 for the antisymmetric (odd) family, +1 for the symmetric
    (even) one.
    """

    name: str
    pm: int


ANTISYMMETRIC = Parity("antisymmetric", -1)
SYMMETRIC = Parity("symmetric", +1)
PARITIES = (SYMMETRIC, ANTISYMMETRIC)

_PARITY_BY_NAME = {p.name: p for p in PARITIES}


def parity_from_name(name: str) -> Parity:
    try:
        return _PARITY_BY_NAME[name.strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown parity {name!r}; expected one of {sorted(_PARITY_BY_NAME)}"
        ) from None


@dataclass(frozen=True)
class SlabGeometry:
    """Film thickness ``d`` in meters (the film occupies ``0 < z < d``)."""

    d: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValueError(f"film thickness must be positive, got {self.d!r}")


def _decaying_sqrt(z: complex) -> complex:
    """Square root on the branch with Re >= 0, ties broken toward Im >= 0."""
    r = cmath.sqrt(z)
    if r.real < 0.0 or (r.real == 0.0 and r.imag < 0.0):
        r = -r
    return r


def decay_constants(k: complex, media: MediumSet) -> tuple[complex, complex]:
    """Transverse decay constants (cladding, film) at in-plane wavenumber k.

    Returns ``(nu0, num)`` with ``nu0**2 = k**2 - eps_d*k0**2`` and
    ``num**2 = k**2 - eps_m*k0**2``, both on the decaying branch.
    """
    k = complex(k)
    k0sq = media.k0 * media.k0
    nu0 = _decaying_sqrt(k * k - media.eps_d * k0sq)
    num = _decaying_sqrt(k * k - media.eps_m * k0sq)
    return nu0, num


def dispersion_residual(k: complex, geom: SlabGeometry, media: MediumSet,
                        parity: Parity) -> complex:
    """Characteristic function whose roots are the slab modes.

    Evaluates ``exp(num*d) -+ (r - 1)/(r + 1)`` with the interface ratio
    ``r = eps_m*nu0/(eps_d*num)`` (upper sign: antisymmetric).  Raises
    :class:`DispersionPole` if the ratio sits exactly on the pole ``r = -1``.

    Note the exponential factor overflows double precision once
    ``Re(num)*d`` exceeds ~709 (films several microns thick); the root
    finder itself uses an equivalent bounded form and is not affected.
    """
    nu0, num = decay_constants(k, media)
    r = (media.eps_m * nu0) / (media.eps_d * num)
    denom = r + 1.0
    if denom == 0:
        raise DispersionPole(
            "interface ratio eps_m*nu0/(eps_d*num) == -1; "
            "residual has a pole at this wavenumber"
        )
    return cmath.exp(num * geom.d) - parity.pm * (r - 1.0) / denom


def single_interface_root(media: MediumSet) -> complex:
    """Bound-mode wavenumber of a single metal/dielectric interface.

    ``k0*sqrt(eps_m*eps_d/(eps_m + eps_d))`` on the ``Re >= 0`` branch.  This
    is the common large-thickness limit of both slab parities and the
    canonical seed for the slab root search.
    """
    s = media.eps_m + media.eps_d
    if s == 0:
        raise ValueError("eps_m + eps_d == 0: single-interface mode undefined")
    return media.k0 * _decaying_sqrt(media.eps_m * media.eps_d / s)


def _scaled_system(k: complex, d: float, media: MediumSet, pm: int):
    """Bounded residual F at ``k`` and what the solver needs alongside it.

    Returns ``(F, dF/dk, scale, nu0, num)``: the normalization scale
    ``|eps_d*num| + |eps_m*nu0|`` and the decay constants on the branch of
    :func:`decay_constants`.

    Antisymmetric (pm=-1): F = tanh(num*d/2)*eps_d*num + eps_m*nu0
    Symmetric     (pm=+1): F = tanh(num*d/2)*eps_m*nu0 + eps_d*num

    These are algebraically equivalent to the exponential characteristic
    function but stay O(eps*nu) for arbitrarily thick films (tanh saturates
    instead of exp blowing up), which keeps Newton well conditioned.
    """
    k = complex(k)
    k0sq = media.k0 * media.k0
    nu0 = _decaying_sqrt(k * k - media.eps_d * k0sq)
    num = _decaying_sqrt(k * k - media.eps_m * k0sq)
    if nu0 == 0 or num == 0:
        raise ZeroDivisionError("decay constant vanished during iteration")
    t = cmath.tanh(num * d / 2.0)
    # d(tanh(num*d/2))/dk = (1 - t**2) * (d/2) * k/num
    dt = (1.0 - t * t) * (d / 2.0) * (k / num)
    a = media.eps_d * num
    b = media.eps_m * nu0
    if pm < 0:
        f = t * a + b
        df = dt * a + t * media.eps_d * (k / num) + media.eps_m * (k / nu0)
    else:
        f = t * b + a
        df = dt * b + t * media.eps_m * (k / nu0) + media.eps_d * (k / num)
    scale = abs(a) + abs(b)
    return f, df, scale, nu0, num


def _newton(k: complex, d: float, media: MediumSet, pm: int,
            tol: float) -> Optional[tuple[complex, tuple]]:
    """Damped Newton iteration on the bounded residual.

    Returns ``(k, system)`` with the accepted root and its
    :func:`_scaled_system` tuple, or None on failure.
    """
    system = _scaled_system(k, d, media, pm)
    f, df = system[0], system[1]
    for _ in range(_MAX_NEWTON):
        if df == 0:
            return None
        step = -f / df
        lam = 1.0
        for _ in range(8):
            k_try = k + lam * step
            try:
                system = _scaled_system(k_try, d, media, pm)
            except ZeroDivisionError:
                lam *= 0.5
                continue
            if abs(system[0]) <= abs(f) or abs(lam * step) <= tol * abs(k_try):
                break
            lam *= 0.5
        else:
            return None
        k, f, df = k_try, system[0], system[1]
        if abs(lam * step) <= tol * max(abs(k), 1.0 / d):
            return k, system
    return None


def _muller(k: complex, d: float, media: MediumSet, pm: int,
            tol: float) -> Optional[tuple[complex, tuple]]:
    """Muller's method fallback (quadratic interpolation, complex-capable).

    Returns ``(k, system)`` like :func:`_newton`, or None on failure.
    """

    def f(z):
        return _scaled_system(z, d, media, pm)[0]

    h = 1e-4 * max(abs(k), 1.0)
    x0, x1, x2 = k - h, k + h, k
    try:
        f0, f1, f2 = f(x0), f(x1), f(x2)
    except ZeroDivisionError:
        return None
    for _ in range(_MAX_MULLER):
        h1 = x1 - x0
        h2 = x2 - x1
        if h1 == 0 or h2 == 0:
            return None
        d1 = (f1 - f0) / h1
        d2 = (f2 - f1) / h2
        a = (d2 - d1) / (h2 + h1)
        b = a * h2 + d2
        disc = cmath.sqrt(b * b - 4.0 * f2 * a)
        den = b + disc if abs(b + disc) >= abs(b - disc) else b - disc
        if den == 0:
            return None
        x3 = x2 - 2.0 * f2 / den
        try:
            system = _scaled_system(x3, d, media, pm)
        except ZeroDivisionError:
            return None
        if abs(x3 - x2) <= tol * abs(x3):
            return x3, system
        x0, x1, x2 = x1, x2, x3
        f0, f1, f2 = f1, f2, system[0]
    return None


def _seed_list(media: MediumSet, guess: Optional[complex]) -> list[complex]:
    seeds = []
    if guess is not None:
        seeds.append(complex(guess))
    try:
        seeds.append(single_interface_root(media))
    except ValueError:
        pass
    # cutoff-hugging seed just outside the cladding light line; the
    # antisymmetric branch of thin films sits here
    seeds.append(1.05 * media.k0 * _decaying_sqrt(media.eps_d))
    return seeds


def classify_mode(k_spp: complex) -> str:
    """Propagation regime from the sign of Im(k_spp).

    Amplified for ``Im < 0``, attenuated for ``Im > 0``, neutral for exactly
    zero (lossless or exactly compensated systems).
    """
    im = complex(k_spp).imag
    if im < 0.0:
        return AMPLIFIED
    if im > 0.0:
        return ATTENUATED
    return NEUTRAL_MODE


@dataclass(frozen=True)
class ModeSolution:
    """One converged slab mode at fixed omega.

    ``residual`` is the bounded characteristic function at the root divided
    by its natural scale ``|eps_d*num| + |eps_m*nu0|`` (dimensionless;
    <= 1e-10 for any accepted solution).  ``amplitude`` is the internal
    partial-wave amplitude ``1/(1 + pm*exp(-num*d))`` used by the profile.
    The generating ``media`` and ``geom`` ride along so downstream
    quantities can be evaluated without re-specifying the system.
    """

    parity: Parity
    omega: float
    k_spp: complex
    nu0: complex
    num: complex
    amplitude: complex
    residual: float
    regime: str
    media: MediumSet
    geom: SlabGeometry


def solve_dispersion(parity: Parity, geom: SlabGeometry, media: MediumSet,
                     guess: Optional[complex] = None,
                     tol: float = 1e-12) -> ModeSolution:
    """Find the bound TM slab mode of the given parity.

    Seeds damped Newton (bounded tanh-form residual, analytic derivative)
    with the single-interface root, falling back to a light-line-adjacent
    seed and then to Muller's method.  Raises :class:`NonConvergence` if
    every seed fails, :class:`BranchViolation` if the converged root is not
    transversely bound.
    """
    if geom.d < D_MIN:
        raise ValueError(
            f"film thickness {geom.d!r} m below solver floor {D_MIN} m; "
            "the mode pair degenerates as d -> 0"
        )
    seeds = _seed_list(media, guess)
    found = None
    for seed in seeds:
        found = _newton(seed, geom.d, media, parity.pm, tol)
        if found is not None:
            break
    if found is None:
        for seed in seeds:
            found = _muller(seed, geom.d, media, parity.pm, tol)
            if found is not None:
                break
    if found is None:
        raise NonConvergence(
            f"{parity.name} mode: no root from seeds {seeds!r} "
            f"at omega={media.omega!r}"
        )
    root, system = found
    # keep Re(k) >= 0 (modes come in +-k pairs; report the +x-running one)
    if root.real < 0.0:
        root = -root
        system = _scaled_system(root, geom.d, media, parity.pm)
    f, _, scale, nu0, num = system
    residual = abs(f) / scale
    if residual > 1e-10:
        raise NonConvergence(
            f"{parity.name} mode: iteration stalled at scaled residual "
            f"{residual:.3e} (k ~ {root!r})"
        )
    if nu0.real <= 0.0 or num.real <= 0.0:
        raise BranchViolation(
            f"{parity.name} root {root!r} is not transversely bound: "
            f"Re(nu0)={nu0.real!r}, Re(num)={num.real!r}"
        )
    amp = 1.0 / (1.0 + parity.pm * cmath.exp(-num * geom.d))
    return ModeSolution(
        parity=parity,
        omega=media.omega,
        k_spp=root,
        nu0=nu0,
        num=num,
        amplitude=amp,
        residual=residual,
        regime=classify_mode(root),
        media=media,
        geom=geom,
    )


# ---------------------------------------------------------------------------
# parameter sweeps (continuation along a grid)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepRow:
    """One grid point of a sweep; exactly one of solution/error is set."""

    x: float                      # the swept variable (omega or kappa)
    parity: Parity
    solution: Optional[ModeSolution]
    error: Optional[str] = None


def _continuation(parity, xs, media_of, geom, canonical_seed_of):
    """March a root along grid xs, re-seeding when the branch hops."""
    rows: list[SweepRow] = []
    hist_x: list[float] = []
    hist_k: list[complex] = []
    for x in xs:
        media = media_of(x)
        if len(hist_k) >= 2:
            frac = (x - hist_x[-1]) / (hist_x[-1] - hist_x[-2])
            pred = hist_k[-1] + (hist_k[-1] - hist_k[-2]) * frac
            trend = abs(hist_k[-1] - hist_k[-2]) * abs(frac)
        elif hist_k:
            pred = hist_k[-1]
            trend = None
        else:
            pred = None
            trend = None
        try:
            sol = solve_dispersion(parity, geom, media, guess=pred)
            if trend is not None:
                dev = abs(sol.k_spp - pred)
                if dev > 10.0 * (trend + 1e-9 * abs(sol.k_spp)):
                    # suspicious jump: retry from the canonical seed and keep
                    # whichever root continues the tracked branch
                    try:
                        alt = solve_dispersion(
                            parity, geom, media, guess=canonical_seed_of(media))
                        if abs(alt.k_spp - pred) < dev:
                            sol = alt
                    except DispersionError:
                        pass
            rows.append(SweepRow(x=x, parity=parity, solution=sol))
            hist_x.append(x)
            hist_k.append(sol.k_spp)
        except (DispersionError, ValueError) as exc:
            rows.append(SweepRow(x=x, parity=parity, solution=None,
                                 error=f"{type(exc).__name__}: {exc}"))
    return rows


def dispersion_sweep(parities: Sequence[Parity], geom: SlabGeometry,
                     metal, dielectric,
                     omega_grid: Sequence[float]) -> list[SweepRow]:
    """Trace each parity across a frequency grid.

    ``metal``/``dielectric`` are specs (or fixed complex permittivities) as
    accepted by :func:`slabspp.media.make_medium_set`.  Rows that fail to
    converge carry an error string instead of aborting the sweep.
    """
    omegas = [float(w) for w in omega_grid]
    if not omegas:
        raise ValueError("omega_grid is empty")
    rows: list[SweepRow] = []
    for parity in parities:
        rows.extend(_continuation(
            parity, omegas,
            media_of=lambda w: make_medium_set(metal, dielectric, w),
            geom=geom,
            canonical_seed_of=single_interface_root,
        ))
    return rows


@dataclass(frozen=True)
class GainCrossing:
    """Cladding gain at which a parity turns from attenuated to amplified."""

    parity: Parity
    kappa_star: float
    k_at_crossing: complex


@dataclass(frozen=True)
class GainSweepResult:
    rows: list[SweepRow]
    crossings: dict[str, Optional[GainCrossing]]


def gain_sweep(parities: Sequence[Parity], geom: SlabGeometry, metal,
               n_real: float, kappa_grid: Sequence[float],
               omega: float) -> GainSweepResult:
    """Trace each parity across a cladding-gain grid at fixed frequency.

    The cladding index is ``n_real + i*kappa`` with ``kappa`` running over
    ``kappa_grid`` (negative values pump the claddings).  For every parity
    whose Im(k_spp) changes sign inside the grid, the crossing gain is
    refined by false position (to ~1e-13 relative) and reported in
    ``crossings``.
    """
    kappas = [float(k) for k in kappa_grid]
    if not kappas:
        raise ValueError("kappa_grid is empty")

    def media_of(kap):
        return make_medium_set(metal, DielectricSpec(n_real, kap), omega)

    rows: list[SweepRow] = []
    crossings: dict[str, Optional[GainCrossing]] = {}
    for parity in parities:
        prows = _continuation(parity, kappas, media_of, geom,
                              canonical_seed_of=single_interface_root)
        rows.extend(prows)
        crossings[parity.name] = _find_crossing(parity, prows, media_of, geom)
    return GainSweepResult(rows=rows, crossings=crossings)


def _find_crossing(parity, prows, media_of, geom) -> Optional[GainCrossing]:
    """Refine the first sign change of Im(k) along already-traced rows.

    Illinois false position on the bracketing pair of rows: the next gain is
    the secant root of Im(k) through the bracket ends, and an end that stays
    put twice running has its Im(k) halved so it cannot stall.  Every iterate
    is a full solve seeded by linear interpolation between the ends' roots.
    Stops at an exact zero of Im(k), or once the next gain lies within 1e-13
    (relative) of a bracket end; that end is returned with its own root.
    """
    solved = [r for r in prows if r.solution is not None]
    bracket = None
    for a, b in zip(solved, solved[1:]):
        ia = a.solution.k_spp.imag
        ib = b.solution.k_spp.imag
        if ia == 0.0:
            return GainCrossing(parity, a.x, a.solution.k_spp)
        if ia * ib < 0.0:
            bracket = (a, b)
            break
    if bracket is None:
        if solved and solved[-1].solution.k_spp.imag == 0.0:
            last = solved[-1]
            return GainCrossing(parity, last.x, last.solution.k_spp)
        return None
    (xa, ka), (xb, kb) = ((bracket[0].x, bracket[0].solution.k_spp),
                          (bracket[1].x, bracket[1].solution.k_spp))
    fa, fb = ka.imag, kb.imag
    moved = 0  # which end moved last: +1 end a, -1 end b
    for _ in range(80):
        x = xb - fb * (xb - xa) / (fb - fa)
        near_x, near_k = (xa, ka) if abs(x - xa) <= abs(x - xb) else (xb, kb)
        if abs(x - near_x) <= 1e-13 * max(abs(xa), abs(xb)):
            return GainCrossing(parity, near_x, near_k)
        seed = ka + (kb - ka) * ((x - xa) / (xb - xa))
        try:
            sol = solve_dispersion(parity, geom, media_of(x), guess=seed)
        except DispersionError:
            return None
        fx = sol.k_spp.imag
        if fx == 0.0:
            break
        if fa * fx < 0.0:
            xb, kb, fb = x, sol.k_spp, fx
            if moved == -1:
                fa *= 0.5
            moved = -1
        else:
            xa, ka, fa = x, sol.k_spp, fx
            if moved == 1:
                fb *= 0.5
            moved = 1
    return GainCrossing(parity, x, sol.k_spp)
