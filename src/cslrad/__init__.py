"""Collapse-noise radiation rates, detector folding, and Bayesian limits.

The pipeline: ``emission`` computes spontaneous-emission rate densities
for charged-particle systems and atoms, ``detector`` folds them through
fitted detection-efficiency polynomials into an expected-signal constant,
and ``limits`` turns observed counts into an upper bound on the collapse
rate and a bound-vs-correlation-length exclusion curve.  ``specfun``
holds the self-contained numerics (incomplete gamma, quantiles, the
exact integral of a clamped polynomial) everything else relies on.
"""

from .domain import (
    CONSTANTS,
    DEFAULT_WINDOW,
    KEV_IN_JOULES,
    M_NUCLEON,
    EnergyWindow,
    NoiseParams,
    Particle,
    ParticleSystem,
    PhysConstants,
    particle_system_from_json,
)
from .detector import (
    PAPER_TABLE_1,
    EfficiencyPoly,
    MaterialComponent,
    SignalModel,
    beta_constant,
    compute_a,
    eval_efficiency,
    signal_density,
    signal_model_from_json,
    signal_shape,
)
from .emission import (
    EmissionRegime,
    RateDensity,
    RegimeKind,
    ValidityWarning,
    atomic_amplification,
    classify_regime,
    coherence_factor,
    f_ij_point,
    j_ij_expectation,
    rate_atomic,
    rate_coherent,
    rate_general,
    rate_incoherent,
)
from .limits import (
    DEFAULT_SIGNAL_CONSTANT,
    CountingExperiment,
    ExclusionCurve,
    NoPositiveLimitError,
    UpperLimit,
    exclusion_curve,
    posterior_pdf,
    upper_limit_lambda,
    write_exclusion_csv,
)

__version__ = "0.1.0"

__all__ = [
    "CONSTANTS",
    "DEFAULT_SIGNAL_CONSTANT",
    "DEFAULT_WINDOW",
    "KEV_IN_JOULES",
    "M_NUCLEON",
    "PAPER_TABLE_1",
    "CountingExperiment",
    "EfficiencyPoly",
    "EmissionRegime",
    "EnergyWindow",
    "ExclusionCurve",
    "MaterialComponent",
    "NoPositiveLimitError",
    "NoiseParams",
    "Particle",
    "ParticleSystem",
    "PhysConstants",
    "RateDensity",
    "RegimeKind",
    "SignalModel",
    "UpperLimit",
    "ValidityWarning",
    "atomic_amplification",
    "beta_constant",
    "classify_regime",
    "coherence_factor",
    "compute_a",
    "eval_efficiency",
    "exclusion_curve",
    "f_ij_point",
    "j_ij_expectation",
    "particle_system_from_json",
    "posterior_pdf",
    "rate_atomic",
    "rate_coherent",
    "rate_general",
    "rate_incoherent",
    "signal_density",
    "signal_model_from_json",
    "signal_shape",
    "upper_limit_lambda",
    "write_exclusion_csv",
]
