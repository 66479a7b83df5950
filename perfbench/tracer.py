"""Span tracer that instruments ``slabspp`` from outside.

The package is never edited: :meth:`Tracer.installed` replaces each traced
public function with a timing wrapper in *every* ``slabspp`` module namespace
that binds it, because ``cli``, ``oracles``, ``quantization`` and ``fields``
import names directly and patching only the defining module would silently
miss those calls.  The wrappers are removed again when the block exits.

Spans are kept in memory as ``(name, parent, request, t0, t1, ok)`` tuples;
``parent`` is the index of the enclosing span (-1 for a root) and ``request``
the index of the root span, so all spans of one benchmark operation share it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time

# (span name, defining module, attribute).  ``oracles.quad`` is scipy's
# adaptive quadrature as bound in ``slabspp.oracles``.
TRACED = (
    ("cli.main", "slabspp.cli", "main"),
    ("media.make_medium_set", "slabspp.media", "make_medium_set"),
    ("dispersion.solve_dispersion", "slabspp.dispersion", "solve_dispersion"),
    ("dispersion.gain_sweep", "slabspp.dispersion", "gain_sweep"),
    ("dispersion.dispersion_sweep", "slabspp.dispersion", "dispersion_sweep"),
    ("modes.normalization", "slabspp.modes", "normalization"),
    ("modes.green_coefficient", "slabspp.modes", "green_coefficient"),
    ("quantization.ccr_check", "slabspp.quantization", "ccr_check"),
    ("quantization.commutator_numeric", "slabspp.quantization",
     "commutator_numeric"),
    ("quantization.green_identity_check", "slabspp.quantization",
     "green_identity_check"),
    ("fields.h_field_mean", "slabspp.fields", "h_field_mean"),
    ("oracles.quad", "slabspp.oracles", "quad"),
    ("oracles.complex_quad_chunked", "slabspp.oracles", "complex_quad_chunked"),
    ("oracles.normalization_quadrature", "slabspp.oracles",
     "normalization_quadrature"),
    ("oracles.weighted_abs2_quadrature", "slabspp.oracles",
     "weighted_abs2_quadrature"),
    ("oracles.thick_film_degeneracy", "slabspp.oracles",
     "thick_film_degeneracy"),
)


class Tracer:
    """Collects nested spans from wrapped functions and benchmark operations."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []

    def _open(self) -> tuple[int, int, int]:
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        request = self._stack[0] if self._stack else idx
        self.spans.append(None)
        self._stack.append(idx)
        return idx, parent, request

    def _close(self, name, idx, parent, request, t0, ok) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, parent, request, t0, t1, ok)

    @contextlib.contextmanager
    def span(self, name: str):
        """Root or nested span around a block of benchmark code."""
        idx, parent, request = self._open()
        t0 = time.perf_counter()
        ok = False
        try:
            yield
            ok = True
        finally:
            self._close(name, idx, parent, request, t0, ok)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx, parent, request = self._open()
            t0 = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                self._close(name, idx, parent, request, t0, ok)
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every :data:`TRACED` function wherever ``slabspp`` binds it."""
        patched = []
        try:
            for name, module, attr in TRACED:
                original = getattr(importlib.import_module(module), attr)
                wrapper = self.wrap(name, original)
                homes = [m for key, m in list(sys.modules.items())
                         if key == "slabspp" or key.startswith("slabspp.")]
                if name == "oracles.quad":
                    # also catches a later ``from scipy.integrate import quad``
                    # executed lazily inside an oracle
                    homes.append(importlib.import_module("scipy.integrate"))
                for home in homes:
                    for key, value in list(vars(home).items()):
                        if value is original:
                            setattr(home, key, wrapper)
                            patched.append((home, key, original))
            yield self
        finally:
            for home, key, original in reversed(patched):
                setattr(home, key, original)

    # -- aggregation --------------------------------------------------------

    def stats(self) -> dict:
        """Per span name: calls, failed, total and self seconds, durations."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for i, (name, _, _, t0, t1, ok) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "failed": 0, "total_s": 0.0,
                                      "self_s": 0.0, "durations": []})
            s["calls"] += 1
            s["failed"] += 0 if ok else 1
            s["total_s"] += t1 - t0
            s["self_s"] += (t1 - t0) - child[i]
            s["durations"].append(t1 - t0)
        return out

    def calls_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        count = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[1]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = self.spans[parent][1]
        return count


@functools.lru_cache(maxsize=None)
def _parameters(fn) -> frozenset:
    return frozenset(inspect.signature(fn).parameters)


def on_mode(fn, sol, **kwargs):
    """Call ``fn(sol, ...)``, adding ``geom``/``media`` only if ``fn`` takes them.

    Several public functions still repeat the geometry and media that the
    :class:`ModeSolution` already carries; routing every such call through
    this adapter keeps the benchmark valid once those parameters are dropped.
    """
    params = _parameters(fn)
    if "geom" in params:
        kwargs["geom"] = sol.geom
    if "media" in params:
        kwargs["media"] = sol.media
    return fn(sol, **kwargs)
