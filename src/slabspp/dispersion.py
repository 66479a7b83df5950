"""Complex dispersion of TM surface modes on a metal slab.

The guided transverse-magnetic modes of a film ``0 < z < d`` with permittivity
``eps_m`` between identical half spaces ``eps_d`` split into two parities of
the vector-potential profile: modes whose tangential component is odd about
the slab midplane ("antisymmetric") and modes where it is even ("symmetric").
For a metal film the symmetric branch is the short-range, high-wavenumber,
lossier one; the antisymmetric branch hugs the cladding light line.  On a
thin film below the surface-plasmon band the antisymmetric mode is the
long-range SPP (Sarid, PRL 47, 1927 (1981)), and the solver seeds it from
that thin-film limit rather than from the single-interface root.

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
import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from .media import (
    DielectricSpec,
    DrudeMetalSpec,
    MediumSet,
    make_medium_set,
)

__all__ = [
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
    "single_interface_root",
    "solve_dispersion",
    "SweepRow",
    "linspace",
    "dispersion_sweep",
    "GainCrossing",
    "GainSweepResult",
    "gain_sweep",
]

# smallest slab thickness the solver accepts (meters); below this the two
# film surfaces are numerically indistinguishable and the mode pair collapses
D_MIN = 1e-10

_MAX_NEWTON = 80
_TOL = 1e-12  # relative step size at which Newton stops
# a film is thin where |exp(-num*d)| > 0.3 at the single-interface root
_THIN = math.log(1.0 / 0.3)


class DispersionError(ValueError):
    """Base class of the solver's refusals, all of them ``ValueError``s."""


class NonConvergence(DispersionError):
    """Root iteration failed to converge from every available seed."""


class BranchViolation(DispersionError):
    """Converged root has a non-decaying transverse profile (Re(nu) <= 0)."""


class Parity(NamedTuple):
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


class SlabGeometry(NamedTuple("SlabGeometry", [("d", float)])):
    """Film thickness ``d`` in meters (the film occupies ``0 < z < d``)."""

    __slots__ = ()

    def __new__(cls, d: float):
        if not d > 0.0:
            raise ValueError(f"film thickness must be positive, got {d!r}")
        return super().__new__(cls, d)


def _decaying_sqrt(z: complex) -> complex:
    """Square root on the branch with Re >= 0, ties broken toward Im >= 0.

    ``cmath.sqrt`` is the principal root, whose real part is never negative
    (it is ``+0.0``, positive or NaN), so only the tie rule is left to
    apply: a root on the imaginary axis with ``Im < 0`` is negated.  The
    residual closure of :func:`_scaled_system` applies the same rule inline
    on its two decay constants; this function serves the seeds that
    :func:`solve_dispersion` builds, the single-interface root included.
    """
    r = cmath.sqrt(z)
    if r.real == 0.0 and r.imag < 0.0:
        r = -r
    return r


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


def _below_band(media: MediumSet) -> bool:
    """Whether the system lies below the surface-plasmon band, from its
    media alone: ``-Re(eps_m) > 1.2*Re(eps_d)``.

    The band edge is ``eps_m = -eps_d``; the margin of 1.2 keeps the test
    off the band's lower flank.  Over the benchmark's seed-0 scan pool
    (Drude metal, ``omega_sp = omega_p/sqrt(1 + Re(eps_d))``) it admits no
    point at or above ``0.95*omega_sp`` and misses 229 of the 14 773 below
    it, all within 3% of that line.
    """
    return -media.eps_m.real > 1.2 * media.eps_d.real


def _scaled_system(d: float, media: MediumSet, pm: int):
    """The bounded residual of one slab system, as a function of ``k``.

    Returns ``system(k) -> (F, dF/dk, nu0, num)``, with the decay constants
    ``nu0 = sqrt(k**2 - eps_d*k0**2)`` and ``num = sqrt(k**2 - eps_m*k0**2)``
    on the decaying branch of :func:`_decaying_sqrt`.  That function's one
    test, the tie rule ``Re == 0 and Im < 0 -> negate``, is written inline
    on each decay constant, after a ``cmath.sqrt`` bound to a local: the
    same operation on the same operand, so the same bits, without two
    Python calls per evaluation.  ``F``'s natural scale
    ``|eps_d*num| + |eps_m*nu0|`` is not formed here: only the accepted
    root needs it, and :func:`solve_dispersion` forms it there from the same
    operands.  ``system`` raises ``ZeroDivisionError`` where a decay
    constant vanishes, tested as ``not nu0 or not num``: a complex is
    false exactly where it ``== 0`` (signed zeros included, NaN excluded).

    Antisymmetric (pm=-1): F = tanh(num*d/2)*eps_d*num + eps_m*nu0
    Symmetric     (pm=+1): F = tanh(num*d/2)*eps_m*nu0 + eps_d*num

    Their zeros are the slab modes.  They are algebraically equivalent to
    the exponential form ``exp(num*d) - pm*(r - 1)/(r + 1)`` with
    ``r = eps_m*nu0/(eps_d*num)``, but stay O(eps*nu) for arbitrarily thick
    films (tanh saturates where exp overflows), which keeps Newton well
    conditioned.

    What is fixed for one solve (``eps_d*k0**2``, ``eps_m*k0**2``, ``d/2``)
    is formed once here, and ``k*k``, ``k/num``, ``k/nu0`` once per call.
    Each hoisted value has the operands and order it would have inside the
    call, except that the tanh argument is ``num*(d/2)`` for ``num*d/2``,
    which is the same number because halving is exact; so every result is
    bit for bit that of evaluating all of it per call.
    ``tests/golden/solver_roots.json`` pins the roots this gives.
    """
    eps_d = media.eps_d
    eps_m = media.eps_m
    k0sq = media.k0 * media.k0
    eps_d_k0sq = eps_d * k0sq
    eps_m_k0sq = eps_m * k0sq
    half_d = d / 2.0
    sqrt = cmath.sqrt
    tanh = cmath.tanh

    def system(k: complex):
        kk = k * k
        # the decaying branch, as _decaying_sqrt applies it
        nu0 = sqrt(kk - eps_d_k0sq)
        if nu0.real == 0.0 and nu0.imag < 0.0:
            nu0 = -nu0
        num = sqrt(kk - eps_m_k0sq)
        if num.real == 0.0 and num.imag < 0.0:
            num = -num
        if not nu0 or not num:
            raise ZeroDivisionError("decay constant vanished during iteration")
        t = tanh(num * half_d)
        k_num = k / num
        k_nu0 = k / nu0
        # d(tanh(num*d/2))/dk = (1 - t**2) * (d/2) * k/num
        dt = (1.0 - t * t) * half_d * k_num
        a = eps_d * num
        b = eps_m * nu0
        if pm < 0:
            f = t * a + b
            df = dt * a + t * eps_d * k_num + eps_m * k_nu0
        else:
            f = t * b + a
            df = dt * b + t * eps_m * k_nu0 + eps_d * k_num
        return f, df, nu0, num

    return system


def _newton(k: complex, d: float,
            system) -> Optional[tuple[complex, tuple]]:
    """Damped Newton iteration on the bounded residual ``system``.

    ``system`` is the :func:`_scaled_system` of film thickness ``d``.
    Returns ``(k, system(k))``, that is ``(k, (F, dF/dk, nu0, num))``, at the
    accepted root, or None on failure, which includes a seed on a branch
    point of a decay constant.

    A step stops the iteration once its size is at most ``_TOL*max(|k|,
    1/d)``, tested as ``size <= _TOL*(1/d) or size <= _TOL*|k|``: rounding
    a product by a positive constant keeps the order of its operands, so
    each comparison has the outcome of the ``max`` form.
    """
    try:
        values = system(k)
    except ZeroDivisionError:
        return None
    f, df = values[0], values[1]
    abs_f = abs(f)
    tol = _TOL
    tol_floor = tol * (1.0 / d)
    for _ in range(_MAX_NEWTON):
        if not df:
            return None
        step = -f / df
        for lam in (1.0, 1/2, 1/4, 1/8, 1/16, 1/32, 1/64, 1/128):
            delta = lam * step
            k_try = k + delta
            try:
                values = system(k_try)
            except ZeroDivisionError:
                continue
            abs_try = abs(values[0])
            if abs_try <= abs_f or abs(delta) <= tol * abs(k_try):
                break
        else:
            return None
        k, f, df, abs_f = k_try, values[0], values[1], abs_try
        size = abs(delta)
        if size <= tol_floor or size <= tol * abs(k):
            return k, values
    return None


class ModeSolution(NamedTuple):
    """One converged slab mode at fixed omega.

    ``residual`` is the bounded characteristic function at the root divided
    by its natural scale ``|eps_d*num| + |eps_m*nu0|`` (dimensionless;
    <= 1e-10 for any accepted solution).  ``amplitude`` is the internal
    partial-wave amplitude ``1/(1 + pm*exp(-num*d))`` used by the profile.
    The generating ``media`` and ``geom`` ride along so downstream
    quantities can be evaluated without re-specifying the system.
    """

    parity: Parity
    k_spp: complex
    nu0: complex
    num: complex
    amplitude: complex
    residual: float
    media: MediumSet
    geom: SlabGeometry

    @property
    def regime(self) -> str:
        """Propagation regime from the sign of ``Im(k_spp)``.

        ``"amplified"`` for ``Im < 0``, ``"attenuated"`` for ``Im > 0``,
        ``"neutral"`` for exactly zero (lossless or exactly compensated
        systems).
        """
        im = self.k_spp.imag
        if im < 0.0:
            return "amplified"
        if im > 0.0:
            return "attenuated"
        return "neutral"


def solve_dispersion(parity: Parity, geom: SlabGeometry, media: MediumSet,
                     guess: Optional[complex] = None) -> ModeSolution:
    """Find the bound TM slab mode of the given parity.

    Seeds damped Newton (bounded tanh-form residual, analytic derivative)
    from at most three seeds, in this order, written once in the body:
    ``guess`` if given, or else, for an antisymmetric film that is thin
    (``|exp(-num*d)| > 0.3`` at the single-interface root) and below the
    band (:func:`_below_band`), its long-range limit: ``tanh(num*d/2) ~
    num*d/2`` in the residual gives ``nu0 ~ -eps_d*(eps_d - eps_m)*k0**2*
    d/(2*eps_m)`` and ``k = sqrt(eps_d*k0**2 + nu0**2)``; then the
    single-interface root; then a light-line-adjacent seed.  Each is built
    only when Newton has failed from every seed before it.  Newton
    is the only method: no other iteration rescues a point where it fails
    from every seed.  One :func:`_scaled_system` serves the whole solve; the
    residual's scale ``|eps_d*num| + |eps_m*nu0|`` is formed once, at the
    accepted root, not on every evaluation.  Raises
    :class:`NonConvergence` if every seed fails, naming the seeds tried, or
    if the root stalls above a scaled residual of 1e-10, and
    :class:`BranchViolation` if the converged root is not transversely
    bound.
    """
    d = geom.d
    if d < D_MIN:
        raise ValueError(
            f"film thickness {d!r} m below solver floor {D_MIN} m; "
            "the mode pair degenerates as d -> 0"
        )
    system = _scaled_system(d, media, parity.pm)
    # the seeds in order, each built once Newton failed from all before it:
    # guess; for a thin antisymmetric film below the band and no guess, its
    # long-range limit; the single-interface root; then a cutoff-hugging
    # seed just outside the cladding light line
    seeds = []
    found = None
    if guess is not None:
        seeds.append(complex(guess))
        found = _newton(seeds[-1], d, system)
    if found is None:
        try:
            k_si = single_interface_root(media)
        except ValueError:
            pass
        else:
            if guess is None and parity.pm < 0 and _below_band(media):
                eps_d, eps_m = media.eps_d, media.eps_m
                k0 = media.k0
                k0sq = k0 * k0
                # thin: |exp(-num*d)| > 0.3 at k_si, written without the exp
                if cmath.sqrt(k_si * k_si - eps_m * k0sq).real * d < _THIN:
                    # tanh(num*d/2) ~ num*d/2 in the antisymmetric residual
                    nu0 = -eps_d * (eps_d - eps_m) * k0sq * d / (2.0 * eps_m)
                    seeds.append(_decaying_sqrt(eps_d * k0sq + nu0 * nu0))
                    found = _newton(seeds[-1], d, system)
            if found is None:
                seeds.append(k_si)
                found = _newton(seeds[-1], d, system)
    if found is None:
        seeds.append(1.05 * media.k0 * _decaying_sqrt(media.eps_d))
        found = _newton(seeds[-1], d, system)
    if found is None:
        raise NonConvergence(
            f"{parity.name} mode: no root from seeds {seeds!r} "
            f"at omega={media.omega!r}"
        )
    root, values = found
    # keep Re(k) >= 0 (modes come in +-k pairs; report the +x-running one);
    # F, its scale and the decay constants depend on k only through k*k
    if root.real < 0.0:
        root = -root
    f, _, nu0, num = values
    residual = abs(f) / (abs(media.eps_d * num) + abs(media.eps_m * nu0))
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
    amp = 1.0 / (1.0 + parity.pm * cmath.exp(-num * d))
    return ModeSolution(parity, root, nu0, num, amp, residual, media, geom)


# ---------------------------------------------------------------------------
# parameter sweeps (continuation along a grid)
# ---------------------------------------------------------------------------

class SweepRow(NamedTuple):
    """One grid point of a sweep; exactly one of solution/error is set."""

    x: float                      # the swept variable (omega or kappa)
    parity: Parity
    solution: Optional[ModeSolution]
    error: Optional[str] = None


def _traces(parities, geom, xs, media_of, what):
    """The step both sweeps share: ``(parity, rows)`` along ``xs`` for each
    parity, continued as the iterator reaches it.  The grid is taken as
    floats, an empty one refused (``"<what> is empty"``), and each point's
    media built once by ``media_of``, before any solve.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise ValueError(f"{what} is empty")
    grid = []
    for x in xs:
        try:
            grid.append((x, media_of(x), None))
        except ValueError as exc:
            grid.append((x, None, f"{type(exc).__name__}: {exc}"))
    return ((parity, _continuation(parity, grid, geom)) for parity in parities)


def _continuation(parity, grid, geom):
    """March a root along a :func:`_traces` grid, re-seeding on branch hops."""
    rows: list[SweepRow] = []
    # the last two solved points, (x1, k1) the newer
    x1 = x2 = k1 = k2 = None
    for x, media, error in grid:
        if error is not None:
            rows.append(SweepRow(x, parity, None, error))
            continue
        # two roots at one x give no slope; seed from the last one alone
        pred, trend = k1, None
        if k2 is not None and x1 != x2:
            frac = (x - x1) / (x1 - x2)
            pred = k1 + (k1 - k2) * frac
            trend = abs(k1 - k2) * abs(frac)
        try:
            sol = solve_dispersion(parity, geom, media, guess=pred)
            if trend is not None:
                dev = abs(sol.k_spp - pred)
                if dev > 10.0 * (trend + 1e-9 * abs(sol.k_spp)):
                    # suspicious jump: retry without the prediction, from
                    # the solver's own seeds (a thin antisymmetric film's
                    # long-range limit, else the single-interface root,
                    # first), and keep whichever root continues the branch
                    try:
                        alt = solve_dispersion(parity, geom, media)
                        if abs(alt.k_spp - pred) < dev:
                            sol = alt
                    except ValueError:
                        pass
            rows.append(SweepRow(x, parity, sol))
            x2, k2, x1, k1 = x1, k1, x, sol.k_spp
        except ValueError as exc:
            rows.append(SweepRow(x, parity, None,
                                 f"{type(exc).__name__}: {exc}"))
    return rows


def linspace(a: float, b: float, n: int) -> list[float]:
    """``n`` evenly spaced floats from ``a`` to ``b``, as ``numpy.linspace``.

    Point ``i`` is ``a + i*step`` with ``step = (b - a)/(n - 1)`` and the
    last point is exactly ``b``, bit for bit as numpy computes them
    (including numpy's fallback for a step that underflows to zero), so the
    sweep grids need no numpy.  As in numpy, ``n == 0`` gives no point and
    a negative ``n`` raises ``ValueError``.
    """
    if n < 0:
        raise ValueError(f"number of samples must be non-negative, got {n!r}")
    if n == 0:
        return []
    if n == 1:
        return [0.0 * (b - a) + a]  # numpy's sign of zero for a == -0.0
    div = n - 1
    delta = b - a
    step = delta / div
    if step:
        points = [a + i * step for i in range(div)]
    else:
        points = [a + i / div * delta for i in range(div)]
    points.append(b)
    return points


def dispersion_sweep(parities: Sequence[Parity], geom: SlabGeometry,
                     metal: DrudeMetalSpec, dielectric: DielectricSpec,
                     omega_grid: Sequence[float]) -> list[SweepRow]:
    """Trace each parity across a frequency grid.

    The media at each frequency are :func:`slabspp.media.make_medium_set` of
    ``metal`` and ``dielectric``, built once and shared by every parity
    (:func:`_traces`).  Rows that fail to converge, or whose media are
    refused, carry an error string instead of aborting the sweep.
    """
    rows: list[SweepRow] = []
    for _, prows in _traces(parities, geom, omega_grid,
                            lambda w: make_medium_set(metal, dielectric, w),
                            "omega_grid"):
        rows.extend(prows)
    return rows


class GainCrossing(NamedTuple):
    """Cladding gain at which a parity turns from attenuated to amplified."""

    parity: Parity
    kappa_star: float
    k_at_crossing: complex


class GainSweepResult(NamedTuple):
    """Each parity's rows, its crossing by name (read-only mapping), and
    the error text of each parity whose crossing refinement failed (its
    crossing is then None)."""

    rows: tuple[SweepRow, ...]
    crossings: Mapping[str, Optional[GainCrossing]]
    crossing_errors: Mapping[str, str]


def gain_sweep(parities: Sequence[Parity], geom: SlabGeometry,
               metal: DrudeMetalSpec, n_real: float,
               kappa_grid: Sequence[float], omega: float) -> GainSweepResult:
    """Trace each parity across a cladding-gain grid at fixed frequency.

    The cladding index is ``n_real + i*kappa`` with ``kappa`` running over
    ``kappa_grid`` (negative values pump the claddings).  For every parity
    whose Im(k_spp) changes sign inside the grid, the crossing gain is
    refined by false position (to ~1e-13 relative) and reported in
    ``crossings`` (:func:`_find_crossing`); where a refining solve is
    refused, the crossing is None and ``crossing_errors`` holds
    ``"refinement failed in [ka, kb]: <Type>: <message>"`` with the bracket
    it was refining.  Rows and media are as in
    :func:`dispersion_sweep` (:func:`_traces`); each false-position iterate
    builds its own media.
    """
    def media_of(kap):
        return make_medium_set(metal, DielectricSpec(n_real, kap), omega)

    rows: list[SweepRow] = []
    crossings: dict[str, Optional[GainCrossing]] = {}
    errors: dict[str, str] = {}
    for parity, prows in _traces(parities, geom, kappa_grid, media_of,
                                 "kappa_grid"):
        rows.extend(prows)
        try:
            crossings[parity.name] = _find_crossing(parity, prows, media_of,
                                                    geom)
        except ValueError as exc:
            crossings[parity.name] = None
            errors[parity.name] = str(exc)
    return GainSweepResult(rows=tuple(rows),
                           crossings=MappingProxyType(crossings),
                           crossing_errors=MappingProxyType(errors))


def _find_crossing(parity, prows, media_of, geom) -> Optional[GainCrossing]:
    """Refine the first sign change of Im(k) along rows of :func:`_traces`.

    One walk over the solved rows returns the first exact zero of Im(k), with
    its own root, unless a sign change comes first.  Illinois false position
    refines that bracketing pair: the next gain is the secant root of Im(k)
    through the bracket ends, and an end that stays put twice running has
    its Im(k) halved so it cannot stall.  Every iterate is a full solve
    seeded by linear interpolation between the ends' roots.  Stops at an
    exact zero of Im(k), or once the next gain lies within 1e-13 (relative)
    of a bracket end; that end is returned with its own root.  A refused
    iterate raises ``ValueError("refinement failed in [ka, kb]: <Type>:
    <message>")``, naming the bracket it was refining.
    """
    xa = ka = None  # x and root of the last solved row before this one
    for row in prows:
        if row.solution is None:
            continue
        xb, kb = row.x, row.solution.k_spp
        if ka is not None and ka.imag * kb.imag < 0.0:
            break
        if kb.imag == 0.0:
            return GainCrossing(parity, xb, kb)
        xa, ka = xb, kb
    else:
        return None
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
        except ValueError as exc:
            lo, hi = sorted((xa, xb))
            raise ValueError(f"refinement failed in [{lo!r}, {hi!r}]: "
                             f"{type(exc).__name__}: {exc}") from exc
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
