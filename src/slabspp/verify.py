"""The verify pass: every closed form of one system against its oracle.

At one frequency, each parity's mode is solved and checked for the
commutator closure, both spatial commutators, the Green-tensor overlap
identity, the normalization and the curl of the profile; a thick film then
checks the parity degeneracy and the single-interface limit.  Each check
gives one :class:`CheckRecord`; the ``verify`` CLI subcommand writes them
as its report.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from . import oracles
from .dispersion import PARITIES, SlabGeometry, linspace, solve_dispersion
from .media import MediumSet
from .modes import normalization
from .quantization import (
    CROSS_DIRECTION,
    SAME_DIRECTION,
    ccr_check,
    commutator,
    commutator_numeric,
    green_identity_check,
)

__all__ = ["CheckRecord", "run_checks"]


class CheckRecord(NamedTuple):
    """Outcome of one check: its value passes when at most ``tolerance``.

    ``parity`` is a parity name, or ``"both"`` for the thick-film checks;
    ``note`` holds the error that stopped a failed check (``value`` is then
    NaN).
    """

    check: str
    parity: str
    omega: float
    value: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.value <= self.tolerance


def _once(compute):
    """``compute``, run on the first call alone; each call gives its outcome.

    A ``ValueError`` is an outcome too: every call raises that same
    exception again, so a failing oracle fails each check that needs it
    without running again.
    """
    outcome = []

    def once():
        if not outcome:
            try:
                outcome.append((compute(), None))
            except ValueError as exc:
                outcome.append((None, exc))
        value, error = outcome[0]
        if error is not None:
            raise error
        return value

    return once


def run_checks(media: MediumSet, geom: SlabGeometry,
               thick_d: float) -> list[CheckRecord]:
    """Run the 14 checks of ``media`` in report order; return their records.

    ``geom`` is the film of the per-parity checks and ``thick_d`` the film
    thickness of the degeneracy checks; each check has its own tolerance.
    A parity whose mode cannot be solved gives one failed ``solve`` record
    instead of its six checks, and a thick film that cannot be solved fails
    its two checks.  Each mode's region integrals of |b|^2 are integrated
    once, for both commutator checks and the Green identity, and the thick
    film is solved once; an oracle that fails there fails each check that
    needs it, with the same error, and is not run again.
    """
    omega = media.omega
    records: list[CheckRecord] = []

    def check(name, parity, tolerance, compute):
        try:
            value, note = float(compute()), ""
        except ValueError as exc:
            value, note = math.nan, f"{type(exc).__name__}: {exc}"
        records.append(CheckRecord(name, parity, omega, value, tolerance,
                                   note))

    for parity in PARITIES:
        try:
            sol = solve_dispersion(parity, geom, media)
        except ValueError as exc:
            records.append(CheckRecord("solve", parity.name, omega, math.nan,
                                       1e-10,
                                       f"{type(exc).__name__}: {exc}"))
            continue

        # beta'/(2 hbar eps0 omega^2 gamma') with |Im eps| weights is 1 by
        # construction, so this check tests rounding only
        check("ccr_closure", parity.name, 1e-12,
              lambda: abs(ccr_check(sol) - 1.0))

        # one quadrature of the region integrals of |b|^2 serves the three
        # checks that use them; if it fails, each of them fails with it
        z_terms = _once(lambda: oracles.weighted_abs2_quadrature(sol))

        ell = min(1.0 / max(abs(sol.k_spp.imag), 1e-20),
                  400.0 * math.pi / sol.k_spp.real)
        pairs = {
            SAME_DIRECTION: (0.317 * ell, 0.93 * ell),
            CROSS_DIRECTION: (1.531 * ell, 0.214 * ell),
        }
        for kind, (x, xp) in pairs.items():
            def deviation():
                closed = commutator(kind, x, xp, sol)
                numeric = commutator_numeric(kind, x, xp, sol, z_terms())
                return abs(closed - numeric) / max(abs(closed), abs(numeric),
                                                   1e-12)
            check(f"commutator_{kind}", parity.name, 1e-6, deviation)

        check("green_identity", parity.name, 1e-6,
              lambda: green_identity_check(sol, z_terms()))

        def normalization_deviation():
            n_quad = oracles.normalization_quadrature(sol)
            return abs(normalization(sol) - n_quad) / abs(n_quad)
        check("normalization_quadrature", parity.name, 1e-8,
              normalization_deviation)

        zc = 1.0 / sol.nu0.real
        cladding = linspace(0.05, 2.0, 20)
        depths = ([-t * zc for t in cladding]
                  + [t * geom.d for t in linspace(0.0321, 0.9679, 20)]
                  + [geom.d + t * zc for t in cladding])
        check("curl_consistency", parity.name, 1e-6,
              lambda: oracles.curl_consistency_error(sol, depths))

    # one solve of the thick film serves both of its checks
    thick = _once(lambda: oracles.thick_film_degeneracy(media, thick_d))
    check("thick_film_parity_split", "both", 1e-8,
          lambda: thick()["rel_split"])
    check("thick_film_single_interface", "both", 1e-9,
          lambda: max(thick()["rel_offset_symmetric"],
                      thick()["rel_offset_antisymmetric"]))
    return records
