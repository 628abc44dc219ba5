"""Upper-limit and exclusion-curve tests.

Reference quantile and limit values were frozen from an independent
high-precision implementation of the regularized incomplete gamma
inverse.  Posterior normalization is checked by direct quadrature.
"""

import io
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslrad.domain import (DEFAULT_BACKGROUND_COUNTS, DEFAULT_OBSERVED_COUNTS,
                           check_count)
from cslrad.limits import (
    DEFAULT_CREDIBILITY,
    DEFAULT_SIGNAL_CONSTANT,
    CountingExperiment,
    ExclusionCurve,
    NoPositiveLimitError,
    UpperLimit,
    credible_count_bound,
    exclusion_curve,
    posterior_pdf,
    upper_limit_lambda,
    write_exclusion_csv,
)
from cslrad.specfun import reg_lower_gamma

REFERENCE = CountingExperiment(z_c=576, z_b=506)

# frozen independent reference values for the 576 / 506 / 2.0986 analysis
LAMBDA_BAR_REF = 617.0710335865027
LAMBDA_MAX_REF = 5.197323624630836e-13


# --- defaults ---------------------------------------------------------------

def test_reference_analysis_constants():
    assert DEFAULT_OBSERVED_COUNTS == 576
    assert DEFAULT_BACKGROUND_COUNTS == 506
    assert DEFAULT_SIGNAL_CONSTANT == 2.0986
    assert DEFAULT_CREDIBILITY == 0.95
    assert REFERENCE.a == 2.0986


# --- experiment validation --------------------------------------------------

@pytest.mark.parametrize("bad", [1.5, True, -1, "5", 3.0, np.float64(3), "3",
                                 np.True_, pytest.param(10 ** 400, id="huge"),
                                 pytest.param(-10 ** 5000, id="huge-negative")])
def test_experiment_rejects_bad_counts(bad):
    for name in ("z_c", "z_b"):
        with pytest.raises(ValueError, match=name) as err:
            CountingExperiment(**{"z_c": 0, "z_b": 0, name: bad})
        assert len(str(err.value)) < 80  # a huge int is not spelled out


def test_experiment_rejects_nonpositive_a():
    with pytest.raises(ValueError, match="signal constant"):
        CountingExperiment(z_c=1, z_b=1, a=0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="signal constant a must be finite"):
            CountingExperiment(z_c=1, z_b=1, a=bad)


def test_experiment_accepts_numpy_integers():
    exp = CountingExperiment(z_c=np.int64(3), z_b=np.int64(2))
    assert exp.z_c == 3 and isinstance(exp.z_c, int)


@pytest.mark.parametrize("good", [3, np.int64(3), np.uint8(3)])
def test_check_count_returns_a_plain_int(good):
    count = check_count(good, "z_c")
    assert count == 3 and type(count) is int


# --- posterior --------------------------------------------------------------

def test_posterior_pdf_zero_counts_is_exponential():
    exp = CountingExperiment(z_c=0, z_b=0)
    for lam in (0.0, 0.5, 3.0, 40.0):
        assert posterior_pdf(exp, lam) == pytest.approx(math.exp(-lam),
                                                        rel=1e-14)


def test_posterior_pdf_at_zero():
    assert posterior_pdf(CountingExperiment(z_c=0, z_b=0), 0.0) == 1.0
    assert posterior_pdf(CountingExperiment(z_c=3, z_b=0), 0.0) == 0.0


def test_posterior_pdf_mode_at_observed_count():
    exp = CountingExperiment(z_c=576, z_b=506)
    peak = posterior_pdf(exp, 576.0)
    assert peak > posterior_pdf(exp, 575.0)
    assert peak > posterior_pdf(exp, 577.0)


@pytest.mark.parametrize("z_c", [0, 5, 576])
def test_posterior_pdf_normalized(z_c):
    exp = CountingExperiment(z_c=z_c, z_b=0)
    mean = z_c + 1.0
    sigma = math.sqrt(mean)
    lo = max(0.0, mean - 25.0 * sigma)
    hi = mean + 25.0 * sigma
    total = mpmath.quad(lambda lam: posterior_pdf(exp, float(lam)), [lo, mean, hi])
    assert float(total) == pytest.approx(1.0, abs=1e-9)


def test_posterior_pdf_rejects_negative():
    with pytest.raises(ValueError):
        posterior_pdf(CountingExperiment(z_c=1, z_b=0), -0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="expected count must be finite"):
            posterior_pdf(CountingExperiment(z_c=1, z_b=0), bad)


# The posterior CDF of the Poisson mean is reg_lower_gamma(z_c + 1, .),
# the function credible_count_bound inverts.

def test_posterior_cdf_matches_gamma():
    exp = CountingExperiment(z_c=12, z_b=0)
    assert reg_lower_gamma(exp.z_c + 1.0, 0.0) == 0.0
    for lam in (4.0, 13.0, 30.0):
        want = float(mpmath.gammainc(exp.z_c + 1, 0, lam, regularized=True))
        assert reg_lower_gamma(exp.z_c + 1.0, lam) == pytest.approx(want, rel=1e-13)


def test_posterior_cdf_zero_counts_log20():
    exp = CountingExperiment(z_c=0, z_b=0)
    assert reg_lower_gamma(exp.z_c + 1.0, math.log(20.0)) == \
        pytest.approx(0.95, rel=1e-14)


def test_posterior_cdf_at_reference_bound():
    assert reg_lower_gamma(REFERENCE.z_c + 1.0, LAMBDA_BAR_REF) == \
        pytest.approx(0.95, abs=1e-12)


# --- credible bound ---------------------------------------------------------

def test_credible_bound_zero_counts():
    exp = CountingExperiment(z_c=0, z_b=0)
    assert credible_count_bound(exp, 0.95) == \
        pytest.approx(-math.log(0.05), rel=1e-13)


def test_credible_bound_reference():
    assert credible_count_bound(REFERENCE, 0.95) == \
        pytest.approx(LAMBDA_BAR_REF, rel=1e-9)


def test_credible_bound_rejects_bad_credibility():
    for bad in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="credibility"):
            credible_count_bound(REFERENCE, bad)


# --- upper limit ------------------------------------------------------------

def test_reference_limit_value():
    limit = upper_limit_lambda(REFERENCE, 1e-7)
    assert limit.has_limit
    assert limit.lambda_max == pytest.approx(LAMBDA_MAX_REF, rel=1e-10)
    assert limit.lambda_max == pytest.approx(5.2e-13, rel=0.02)
    assert limit.lambda_bar_c == pytest.approx(LAMBDA_BAR_REF, rel=1e-9)
    assert limit.signal_quota == pytest.approx(LAMBDA_BAR_REF - 508.0,
                                               rel=1e-9)
    assert limit.r_c == 1e-7
    assert limit.credibility == 0.95


def test_limit_scales_with_r_c_squared():
    base = upper_limit_lambda(REFERENCE, 1e-7).lambda_max
    assert upper_limit_lambda(REFERENCE, 2e-7).lambda_max == 4.0 * base


def test_limit_halves_when_a_doubles():
    doubled = CountingExperiment(z_c=576, z_b=506, a=2 * 2.0986)
    assert upper_limit_lambda(doubled, 1e-7).lambda_max == \
        upper_limit_lambda(REFERENCE, 1e-7).lambda_max / 2.0


def test_limit_monotone_in_credibility():
    limits = [upper_limit_lambda(REFERENCE, 1e-7, q).lambda_max
              for q in (0.68, 0.90, 0.95, 0.99)]
    assert limits == sorted(limits)
    assert limits[0] < limits[-1]


def test_limit_monotone_in_background():
    values = [upper_limit_lambda(CountingExperiment(z_c=576, z_b=z_b), 1e-7)
              .lambda_max for z_b in range(486, 527, 5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_limit_monotone_in_observed():
    values = [upper_limit_lambda(CountingExperiment(z_c=z_c, z_b=506), 1e-7)
              .lambda_max for z_c in range(556, 597, 5)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_limit_zero_counts_example():
    # Lambda_bar = -ln(0.05) ~ 2.996, quota ~ 0.996
    limit = upper_limit_lambda(CountingExperiment(z_c=0, z_b=0), 1e-7)
    assert limit.signal_quota == pytest.approx(0.9957322735539910, rel=1e-12)
    assert limit.lambda_max == \
        pytest.approx(0.9957322735539910 * 1e-14 / 2.0986, rel=1e-12)


def test_limit_flagged_when_background_swamps():
    limit = upper_limit_lambda(CountingExperiment(z_c=0, z_b=600), 1e-7)
    assert not limit.has_limit
    assert limit.lambda_max is None
    assert limit.signal_quota < 0.0


def test_limit_large_count_smoke():
    limit = upper_limit_lambda(CountingExperiment(z_c=10 ** 6, z_b=506), 1e-7)
    assert limit.has_limit
    assert math.isfinite(limit.lambda_max)
    # Lambda_bar ~ mu + 1.6449 sqrt(mu) for mu = 1e6 + 1
    assert limit.lambda_bar_c == pytest.approx(
        1e6 + 1 + 1.6448536269514722 * math.sqrt(1e6 + 1), rel=1e-4)


def test_limit_rejects_bad_r_c():
    for bad in (0.0, -1e-7):
        with pytest.raises(ValueError, match="correlation length"):
            upper_limit_lambda(REFERENCE, bad)
    for bad in (math.nan, math.inf, -math.inf, 10 ** 400, 10 ** 5000):
        with pytest.raises(ValueError,
                           match="correlation length r_c must be finite") as err:
            upper_limit_lambda(REFERENCE, bad)
        assert len(str(err.value)) < 100  # a huge int is not spelled out
    # a long int within float64 that overflows lambda_max
    with pytest.raises(ValueError, match="lambda_max is not finite at r_c") as err:
        upper_limit_lambda(REFERENCE, 10 ** 200)
    assert len(str(err.value)) < 100


@given(st.floats(min_value=1e-9, max_value=1e-3))
def test_limit_r_c_doubling_property(r_c):
    one = upper_limit_lambda(REFERENCE, r_c).lambda_max
    two = upper_limit_lambda(REFERENCE, 2.0 * r_c).lambda_max
    assert two == pytest.approx(4.0 * one, rel=1e-15)


@given(st.integers(min_value=0, max_value=2000),
       st.integers(min_value=0, max_value=2000))
def test_limit_quota_consistency(z_c, z_b):
    limit = upper_limit_lambda(CountingExperiment(z_c=z_c, z_b=z_b), 1e-7)
    assert limit.signal_quota == pytest.approx(
        limit.lambda_bar_c - z_b - 2.0, abs=1e-9)
    assert limit.has_limit == (limit.signal_quota > 0.0)


# --- exclusion curve --------------------------------------------------------

def test_exclusion_default_grid():
    curve = exclusion_curve(REFERENCE)
    assert len(curve) == 200
    assert curve.r_c_values[0] == pytest.approx(1e-9, rel=1e-14)
    assert curve.r_c_values[-1] == pytest.approx(1e-3, rel=1e-14)
    assert curve.credibility == 0.95
    assert curve.lambda_bar_c == pytest.approx(LAMBDA_BAR_REF, rel=1e-9)


def test_exclusion_log_slope_is_two():
    curve = exclusion_curve(REFERENCE)
    slope = np.polyfit(np.log10(curve.r_c_values),
                       np.log10(curve.lambda_values), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_exclusion_grid_hits_reference_length():
    # 199 points over [1e-9, 1e-3] puts 1e-7 exactly on the grid
    curve = exclusion_curve(REFERENCE, n_points=199)
    r_c = curve.r_c_values[66]
    assert r_c == pytest.approx(1e-7, rel=1e-13)
    want = upper_limit_lambda(REFERENCE, r_c).lambda_max
    assert curve.lambda_values[66] == pytest.approx(want, rel=1e-12)


def test_exclusion_minimal_grid():
    curve = exclusion_curve(REFERENCE, n_points=2)
    assert len(curve) == 2


def test_exclusion_raises_without_positive_quota():
    with pytest.raises(NoPositiveLimitError):
        exclusion_curve(CountingExperiment(z_c=0, z_b=600))


@pytest.mark.parametrize("kwargs", [
    {"r_c_min": 0.0}, {"r_c_min": 1e-3, "r_c_max": 1e-9}, {"n_points": 1},
    {"r_c_max": math.inf}, {"n_points": math.nan}, {"n_points": math.inf},
    {"n_points": 32.5}, {"n_points": True},
])
def test_exclusion_rejects_bad_grid(kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="r_c_min|n_points"):
            exclusion_curve(REFERENCE, **kwargs)


def test_exclusion_curve_validation():
    with pytest.raises(ValueError, match="at least 2"):
        ExclusionCurve(points=((1e-9, 1e-17),), credibility=0.95,
                       lambda_bar_c=617.0)
    with pytest.raises(ValueError, match="increasing"):
        ExclusionCurve(points=((1e-7, 1e-13), (1e-8, 1e-15)),
                       credibility=0.95, lambda_bar_c=617.0)
    with pytest.raises(ValueError, match="lambda_max"):
        ExclusionCurve(points=((1e-8, 1e-13), (1e-7, 1e-15)),
                       credibility=0.95, lambda_bar_c=617.0)


def test_upper_limit_has_limit_flag():
    yes = UpperLimit(lambda_max=1e-13, r_c=1e-7, credibility=0.95,
                     lambda_bar_c=617.0, signal_quota=109.0)
    no = UpperLimit(lambda_max=None, r_c=1e-7, credibility=0.95,
                    lambda_bar_c=600.0, signal_quota=-8.0)
    assert yes.has_limit and not no.has_limit


# --- CSV export -------------------------------------------------------------

def test_csv_header_and_round_trip():
    curve = exclusion_curve(REFERENCE, n_points=11)
    buf = io.StringIO()
    write_exclusion_csv(curve, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "r_c_m,lambda_max_per_s"
    assert len(lines) == 12
    for line, (r, l) in zip(lines[1:], curve.points):
        r_text, l_text = line.split(",")
        # 17 significant digits round-trip doubles exactly
        assert float(r_text) == r
        assert float(l_text) == l


def test_csv_deterministic():
    curve = exclusion_curve(REFERENCE, n_points=25)
    a, b = io.StringIO(), io.StringIO()
    write_exclusion_csv(curve, a)
    write_exclusion_csv(curve, b)
    assert a.getvalue() == b.getvalue()


# --- array-backed curve -----------------------------------------------------

def test_exclusion_values_match_per_point_formula_exactly():
    curve = exclusion_curve(REFERENCE)
    quota = credible_count_bound(REFERENCE, 0.95) - REFERENCE.z_b - 2.0
    grid = np.logspace(math.log10(1e-9), math.log10(1e-3), 200)
    want = [[float(r), quota * float(r) ** 2 / REFERENCE.a] for r in grid]
    assert curve.points.tolist() == want


def test_exclusion_points_are_a_read_only_float_array():
    curve = exclusion_curve(REFERENCE, n_points=50)
    assert isinstance(curve.points, np.ndarray)
    assert curve.points.shape == (50, 2)
    assert curve.points.dtype == np.float64
    for view in (curve.points, curve.r_c_values, curve.lambda_values):
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 1.0
    assert np.shares_memory(curve.r_c_values, curve.points)


def test_exclusion_curve_copies_its_input():
    pts = np.array([[1e-8, 1e-15], [1e-7, 1e-13]])
    curve = ExclusionCurve(points=pts, credibility=0.95, lambda_bar_c=617.0)
    pts[0, 0] = 5.0
    assert curve.r_c_values[0] == 1e-8


@pytest.mark.parametrize("pts", [
    ((math.nan, 1e-15), (1e-7, 1e-13)),
    ((1e-8, 1e-15), (math.nan, 1e-13)),
    ((1e-8, math.nan), (1e-7, 1e-13)),
    ((1e-8, 1e-15), (1e-7, math.nan)),
    ((1e-8, 1e-15), (1e-7, 1e-13), (math.nan, 1e-11)),
    ((1e-8, 1e-15), (math.inf, 1e-13)),
    ((1e-8, 1e-15), (1e-7, math.inf)),
])
def test_exclusion_curve_rejects_non_finite(pts):
    with pytest.raises(ValueError, match="finite"):
        ExclusionCurve(points=pts, credibility=0.95, lambda_bar_c=617.0)


def test_exclusion_curve_rejects_overflowing_lambda():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            exclusion_curve(REFERENCE, r_c_max=1e160, n_points=3)


LAMBDA_RANGE_ERROR = (r"lambda_max (is not finite|underflows float64) "
                      r"at r_c = .* m and a = .* s m\^2")


@pytest.mark.parametrize("r_c_min, r_c_max", [
    (1e-161, 1e-160),  # subnormal lambda_max values, digits lost
    (1e-161, 1e-7),    # a subnormal lambda_max at the first point only
    (1e-170, 1e-7),    # r_c ** 2 underflows to 0 at the first point
    (1e-7, 1e160),     # r_c ** 2 overflows at the last point
])
def test_exclusion_curve_rejects_lambda_outside_the_normal_range(r_c_min, r_c_max):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=LAMBDA_RANGE_ERROR) as err:
            exclusion_curve(REFERENCE, r_c_min=r_c_min, r_c_max=r_c_max, n_points=2)
    assert not isinstance(err.value, NoPositiveLimitError)


@given(st.floats(min_value=-170.0, max_value=160.0),
       st.floats(min_value=0.01, max_value=20.0),
       st.integers(min_value=2, max_value=6))
def test_exclusion_curve_refuses_what_upper_limit_refuses(log_min, decades, n_points):
    # the curve is refused exactly when one of its grid points is
    r_c_min, r_c_max = 10.0 ** log_min, 10.0 ** (log_min + decades)
    grid = np.logspace(math.log10(r_c_min), math.log10(r_c_max), n_points)
    refused = False
    for r_c in grid.tolist():
        try:
            upper_limit_lambda(REFERENCE, r_c)
        except ValueError:
            refused = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(ValueError, match=LAMBDA_RANGE_ERROR):
                exclusion_curve(REFERENCE, r_c_min, r_c_max, n_points)
        else:
            curve = exclusion_curve(REFERENCE, r_c_min, r_c_max, n_points)
            assert curve.lambda_values[0] >= sys.float_info.min


@pytest.mark.parametrize("a, r_c", [
    (DEFAULT_SIGNAL_CONSTANT, 1e160),  # r_c ** 2 overflows
    (1e-320, 1e100),                   # the division by a overflows
    (DEFAULT_SIGNAL_CONSTANT, 1e-170),  # r_c ** 2 underflows to 0
    (DEFAULT_SIGNAL_CONSTANT, 1e-161),  # a subnormal lambda_max, digits lost
])
def test_upper_limit_rejects_overflowing_lambda(a, r_c):
    exp = CountingExperiment(z_c=576, z_b=506, a=a)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError,
                           match=r"lambda_max (is not finite|underflows float64) "
                                 r"at r_c = .* m and a = .* s m\^2"):
            upper_limit_lambda(exp, r_c)


@pytest.mark.parametrize("pts", [(), (1e-8, 1e-7), ((1e-8, 1e-15, 0.0), (1e-7, 1e-13, 0.0))])
def test_exclusion_curve_rejects_bad_shape(pts):
    with pytest.raises(ValueError, match="at least 2"):
        ExclusionCurve(points=pts, credibility=0.95, lambda_bar_c=617.0)


def test_exclusion_curves_compare_by_value():
    one = exclusion_curve(REFERENCE, n_points=30)
    two = exclusion_curve(CountingExperiment(z_c=576, z_b=506), n_points=30)
    assert one == two and hash(one) == hash(two)
    assert one != exclusion_curve(REFERENCE, n_points=31)
    assert one != exclusion_curve(REFERENCE, n_points=30, credibility=0.9)


# --- one count-quantile solve per experiment and credibility ----------------

@pytest.fixture
def quantile_solves(monkeypatch):
    import cslrad.limits as limits_module

    solves = []
    real = limits_module.gamma_quantile

    def counted(shape, q):
        solves.append((shape, q))
        return real(shape, q)

    monkeypatch.setattr(limits_module, "gamma_quantile", counted)
    return solves


def test_quantile_solved_once_per_experiment_and_credibility(quantile_solves):
    exp = CountingExperiment(z_c=576, z_b=506)
    first = upper_limit_lambda(exp, 1e-7)
    for r_c in (1e-9, 1e-7, 1e-3):
        upper_limit_lambda(exp, r_c)
    exclusion_curve(exp)
    exclusion_curve(exp, n_points=17)
    assert quantile_solves == [(577.0, 0.95)]
    assert first.lambda_bar_c == pytest.approx(LAMBDA_BAR_REF, rel=1e-9)

    upper_limit_lambda(exp, 1e-7, credibility=0.9)
    exclusion_curve(exp, credibility=0.9)
    assert quantile_solves == [(577.0, 0.95), (577.0, 0.9)]

    upper_limit_lambda(CountingExperiment(z_c=576, z_b=506), 1e-7)
    assert quantile_solves == [(577.0, 0.95), (577.0, 0.9), (577.0, 0.95)]


def test_bad_credibility_is_rejected_before_the_cache(quantile_solves):
    exp = CountingExperiment(z_c=576, z_b=506)
    for bad in (0.0, 1.0, math.nan):
        with pytest.raises(ValueError, match="credibility"):
            credible_count_bound(exp, bad)
    assert quantile_solves == []


def test_experiment_equality_ignores_cached_bounds():
    cached = CountingExperiment(z_c=576, z_b=506)
    fresh = CountingExperiment(z_c=576, z_b=506)
    upper_limit_lambda(cached, 1e-7)
    assert cached == fresh
    assert hash(cached) == hash(fresh)
    assert "_count_bounds" not in repr(cached)
    assert CountingExperiment(z_c=577, z_b=506) != cached
