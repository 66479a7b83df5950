"""Quantized TM surface modes of a metal film between amplifying dielectrics.

Workflow: build media (:mod:`slabspp.media`), solve the complex dispersion
(:mod:`slabspp.dispersion`), evaluate profiles and the Green-tensor residue
(:mod:`slabspp.modes`), quantization weights and commutators
(:mod:`slabspp.quantization`), and field expectation values
(:mod:`slabspp.fields`).  Every function downstream of the solver takes the
:class:`ModeSolution` alone, which carries the geometry and media it was
solved for.  :mod:`slabspp.oracles` recomputes the closed forms by
quadrature, :mod:`slabspp.verify` runs them all as one pass of checks, and
:mod:`slabspp.cli` wraps everything in a command line.  Every refusal is a
``ValueError`` whose subclass names why; no ``except`` here names a subclass.

``import slabspp`` loads no submodule.  ``from slabspp import X`` takes ``X``
from the ``__all__`` of the workflow module that declares it, and loads that
module on first use; the package's own ``__all__`` (what ``import *`` binds)
is the union of theirs, resolved when first asked for.
"""

__version__ = "0.1.0"

# the modules whose ``__all__`` the package exports, in workflow order
_API_MODULES = ("media", "dispersion", "modes", "quantization", "fields")


def __getattr__(name):
    """Resolve a submodule or public name on first use (PEP 562).

    A submodule name loads that submodule alone: ``from . import oracles``
    inside the package probes this function first.
    """
    import importlib.util

    if name == "__all__":
        value = globals()[name] = [attr for module_name in _API_MODULES
                                   for attr in _submodule(module_name).__all__]
        return value
    if not name.startswith("_"):
        if importlib.util.find_spec(f"{__name__}.{name}") is not None:
            return _submodule(name)
        for module_name in _API_MODULES:
            module = _submodule(module_name)
            if name in module.__all__:
                value = globals()[name] = getattr(module, name)
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _submodule(name):
    # what the import statement calls, so ``-X importtime`` reports the load
    # (``importlib.import_module`` does not); a fromlist returns the submodule
    return __import__(f"{__name__}.{name}", fromlist=["__name__"])
