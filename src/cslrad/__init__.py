"""Collapse-noise radiation rates, detector folding, and Bayesian limits.

The pipeline: ``emission`` computes spontaneous-emission rate densities
for charged-particle systems and atoms, ``detector`` folds them through
fitted detection-efficiency polynomials into an expected-signal constant,
and ``limits`` turns observed counts into an upper bound on the collapse
rate and a bound-vs-correlation-length exclusion curve.  ``specfun``
holds the self-contained numerics (incomplete gamma, quantiles, the
exact integral of a clamped polynomial) everything else relies on.

Importing the package loads none of these modules: each public name
loads its module when first looked up (PEP 562), so a caller, and each
CLI subcommand, pays only for the stages it uses.
"""

import importlib

__version__ = "0.1.0"

# Each public name, by the module that defines it.
_EXPORTS = {
    "domain": (
        "CONSTANTS", "DEFAULT_SIGNAL_CONSTANT", "DEFAULT_WINDOW", "KEV_IN_JOULES",
        "M_NUCLEON", "EnergyWindow", "NoiseParams", "Particle", "ParticleSystem",
        "PhysConstants", "particle_system_from_json",
    ),
    "detector": (
        "PAPER_TABLE_1", "EfficiencyPoly", "MaterialComponent", "SignalModel",
        "beta_constant", "compute_a", "eval_efficiency", "signal_density",
        "signal_model_from_json", "signal_shape",
    ),
    "emission": (
        "EmissionRegime", "RateDensity", "RegimeKind", "ValidityWarning",
        "atomic_amplification", "classify_regime", "coherence_factor",
        "f_ij_point", "j_ij_expectation", "rate_atomic", "rate_coherent",
        "rate_general", "rate_incoherent",
    ),
    "limits": (
        "CountingExperiment", "ExclusionCurve", "NoPositiveLimitError",
        "UpperLimit", "exclusion_curve", "posterior_pdf", "upper_limit_lambda",
        "write_exclusion_csv",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
