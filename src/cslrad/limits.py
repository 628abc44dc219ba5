"""Bayesian upper limits on the collapse rate from counting data.

Model: the observed count z_c in the analysis window is Poisson with
mean Lambda_c.  Under a flat prior the posterior for Lambda_c is a
Gamma(z_c + 1, 1) density, so the credibility-q upper bound Lambda_bar
solves reg_lower_gamma(z_c + 1, Lambda_bar) = q.

The mean splits as Lambda_c = Lambda_b + Lambda_s with the flat-prior
conventions Lambda_b = z_b + 1 and Lambda_s = z_s + 1, where z_b is the
simulated background count and z_s = a * lam / r_c^2 the expected
signal.  Hence the signal budget is Lambda_bar - z_b - 2 and

    lam_max = (Lambda_bar - z_b - 2) * r_c^2 / a.

A budget <= 0 means the data cannot bound lam at that credibility; the
result is flagged instead of going negative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .domain import (DEFAULT_CREDIBILITY, DEFAULT_SIGNAL_CONSTANT, check_count,
                     check_finite_nonnegative, check_finite_positive,
                     format_value)
# The reference counts are domain's, beside the other defaults, so the
# CLI's flags need no limits; limits.DEFAULT_* stay importable.
from .domain import DEFAULT_BACKGROUND_COUNTS, DEFAULT_OBSERVED_COUNTS  # noqa: F401
# reg_lower_gamma is not called here, but perfbench's tracer wraps
# limits.reg_lower_gamma, so the name stays importable from this module.
from .specfun import gamma_quantile, ln_gamma, reg_lower_gamma  # noqa: F401

# NumPy is imported inside the functions that build or read arrays, so
# that importing cslrad, and the CLI subcommands that need no array,
# never load it.
if TYPE_CHECKING:
    import numpy as np


class NoPositiveLimitError(ValueError):
    """The credible count budget is exhausted by background; no limit exists."""


@dataclass(frozen=True)
class CountingExperiment:
    """Observed counts, simulated background counts, and the signal constant."""

    z_c: int
    z_b: int
    a: float = DEFAULT_SIGNAL_CONSTANT
    # Count quantiles already solved for this experiment, keyed by
    # credibility; filled by credible_count_bound.
    _count_bounds: dict = field(default_factory=dict, init=False, repr=False,
                                compare=False)

    def __post_init__(self):
        object.__setattr__(self, "z_c", check_count(self.z_c, "z_c"))
        object.__setattr__(self, "z_b", check_count(self.z_b, "z_b"))
        check_finite_positive(self.a, "signal constant a")


@dataclass(frozen=True)
class UpperLimit:
    """Credibility-q bound on the collapse rate at one correlation length.

    ``lambda_max`` is None when the count budget left after background is
    non-positive; ``signal_quota`` keeps the (possibly negative) budget
    so callers can report how far short the data fell.
    """

    lambda_max: float | None
    r_c: float
    credibility: float
    lambda_bar_c: float
    signal_quota: float

    @property
    def has_limit(self) -> bool:
        return self.lambda_max is not None


@dataclass(frozen=True, eq=False)
class ExclusionCurve:
    """Monotone lam_max(r_c) boundary sampled on an increasing r_c grid.

    ``points`` is a read-only (n, 2) float array of (r_c, lam_max) rows.
    """

    points: np.ndarray
    credibility: float
    lambda_bar_c: float

    def __post_init__(self):
        import numpy as np

        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 2:
            raise ValueError("exclusion curve needs at least 2 (r_c, lambda_max) "
                             f"points, got an array of shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("exclusion curve points must be finite")
        r, lam = pts[:, 0], pts[:, 1]
        if not (r[0] > 0.0 and np.all(np.diff(r) > 0.0)):
            raise ValueError("r_c grid must be positive and strictly increasing")
        if not (lam[0] > 0.0 and np.all(np.diff(lam) > 0.0)):
            raise ValueError("lambda_max must be positive and strictly increasing")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    def __eq__(self, other):
        import numpy as np

        if not isinstance(other, ExclusionCurve):
            return NotImplemented
        return (self.credibility == other.credibility
                and self.lambda_bar_c == other.lambda_bar_c
                and np.array_equal(self.points, other.points))

    def __hash__(self) -> int:
        # Validated points hold no NaN and no zero, so equal arrays have
        # equal bytes.
        return hash((self.points.tobytes(), self.credibility, self.lambda_bar_c))

    def __len__(self) -> int:
        return len(self.points)

    @property
    def r_c_values(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def lambda_values(self) -> np.ndarray:
        return self.points[:, 1]


def posterior_pdf(exp: CountingExperiment, lambda_c: float) -> float:
    """Flat-prior posterior density of the Poisson mean at lambda_c.

    Gamma(z_c + 1, 1) density, evaluated in log space so that counts of
    order 1e6 stay finite.
    """
    check_finite_nonnegative(lambda_c, "expected count")
    if lambda_c == 0.0:
        return 1.0 if exp.z_c == 0 else 0.0
    log_pdf = exp.z_c * math.log(lambda_c) - lambda_c - ln_gamma(exp.z_c + 1.0)
    return math.exp(log_pdf)


def credible_count_bound(exp: CountingExperiment, credibility: float) -> float:
    """Upper credible bound Lambda_bar on the total Poisson mean.

    Solved once per experiment and credibility; later calls read the
    value the experiment keeps.
    """
    if not (0.0 < credibility < 1.0):
        raise ValueError(
            f"credibility must be in (0, 1), got {format_value(credibility)}")
    bounds = exp._count_bounds
    if credibility not in bounds:
        bounds[credibility] = gamma_quantile(exp.z_c + 1.0, credibility)
    return bounds[credibility]


def _signal_quota(exp: CountingExperiment, credibility: float):
    """The count bound Lambda_bar and the signal budget Lambda_bar - z_b - 2."""
    lambda_bar = credible_count_bound(exp, credibility)
    return lambda_bar, lambda_bar - exp.z_b - 2.0


def upper_limit_lambda(exp: CountingExperiment, r_c: float,
                       credibility: float = DEFAULT_CREDIBILITY) -> UpperLimit:
    """Bound the collapse rate at correlation length r_c.

    lam_max = (Lambda_bar - z_b - 2) * r_c^2 / a; a non-positive budget
    yields a flagged result with lambda_max None rather than a negative
    rate.  A lam_max beyond float64 raises ValueError, as in
    exclusion_curve.
    """
    check_finite_positive(r_c, "correlation length r_c")
    lambda_bar, quota = _signal_quota(exp, credibility)
    lambda_max = None
    if quota > 0.0:
        try:
            lambda_max = quota * r_c ** 2 / exp.a
        except OverflowError:  # float ** raises where * and / give inf
            lambda_max = math.inf
        if not math.isfinite(lambda_max):
            raise ValueError(f"lambda_max is not finite at r_c = {format_value(r_c)} m "
                             f"and a = {format_value(exp.a)} s m^2")
    return UpperLimit(lambda_max=lambda_max, r_c=r_c, credibility=credibility,
                      lambda_bar_c=lambda_bar, signal_quota=quota)


def exclusion_curve(exp: CountingExperiment,
                    r_c_min: float = 1e-9, r_c_max: float = 1e-3,
                    n_points: int = 200,
                    credibility: float = DEFAULT_CREDIBILITY) -> ExclusionCurve:
    """Sample lam_max over a log-uniform r_c grid.

    The count quantile does not depend on r_c, so it is solved once and
    the whole grid is one array expression.
    """
    import numpy as np

    if not 0.0 < r_c_min < r_c_max < math.inf:
        raise ValueError(
            f"need 0 < r_c_min < r_c_max < inf, got {format_value(r_c_min)} "
            f"and {format_value(r_c_max)}")
    n_points = check_count(n_points, "n_points", 2)
    lambda_bar, quota = _signal_quota(exp, credibility)
    if quota <= 0.0:
        raise NoPositiveLimitError(
            f"signal quota {quota:.3e} is not positive at credibility "
            f"{credibility}; no exclusion curve exists")
    grid = np.logspace(math.log10(r_c_min), math.log10(r_c_max), n_points)
    # lam_max overflowing to inf is rejected by ExclusionCurve.
    with np.errstate(over="ignore"):
        points = np.column_stack((grid, quota * grid ** 2 / exp.a))
    return ExclusionCurve(points=points, credibility=credibility,
                          lambda_bar_c=lambda_bar)


def write_exclusion_csv(curve: ExclusionCurve, stream) -> None:
    """Emit the curve as CSV with full-precision scientific notation."""
    stream.write("r_c_m,lambda_max_per_s\n")
    for r, l in curve.points.tolist():
        stream.write(f"{r:.16e},{l:.16e}\n")
