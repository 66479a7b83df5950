"""Quantized TM surface modes of a metal film between amplifying dielectrics.

Workflow: build media (:mod:`slabspp.media`), solve the complex dispersion
(:mod:`slabspp.dispersion`), evaluate profiles and the Green-tensor residue
(:mod:`slabspp.modes`), quantization weights and commutators
(:mod:`slabspp.quantization`), and field expectation values
(:mod:`slabspp.fields`).  Every function downstream of the solver takes the
:class:`ModeSolution` alone, which carries the geometry and media it was
solved for.  :mod:`slabspp.oracles` recomputes the closed forms by
quadrature, :mod:`slabspp.verify` runs them all as one pass of checks, and
:mod:`slabspp.cli` wraps everything in a command line.
"""

from .media import (
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
from .dispersion import (
    ANTISYMMETRIC,
    PARITIES,
    SYMMETRIC,
    BranchViolation,
    GainSweepResult,
    ModeSolution,
    NonConvergence,
    Parity,
    SlabGeometry,
    SweepRow,
    classify_mode,
    decay_constants,
    dispersion_sweep,
    gain_sweep,
    parity_from_name,
    single_interface_root,
    solve_dispersion,
)
from .modes import (
    DegenerateResidue,
    GreenCoefficient,
    green_coefficient,
    green_tensor,
    h_field_operator_bracket,
    normalization,
    profile_bracket,
)
from .quantization import (
    CROSS_DIRECTION,
    SAME_DIRECTION,
    NoiseAmplitudes,
    beta_prime,
    ccr_check,
    commutator,
    commutator_numeric,
    gamma_prime,
    green_identity_check,
    noise_amplitudes,
    overlap_terms,
)
from .fields import (
    FieldOverflowError,
    FieldSamples,
    NeutralModeSingularity,
    SppState,
    compare_states,
    default_grid,
    h_field_mean,
    ladder_mean,
)

__version__ = "0.1.0"
