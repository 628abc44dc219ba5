"""Oracle-backed tests for the special-function kernels.

Oracles used here are independent of the implementation under test:
``mpmath`` at elevated precision for log-gamma, the normal quantile and
the incomplete gamma function, the exact Poisson-tail
identity P(k+1, x) = 1 - sum_{j<=k} e^(-x) x^j / j!, ``np.polyval`` for
Horner evaluation, and closed-form antiderivatives and ``mpmath.quad``
for the clamped polynomial integral.
"""

import math
import random
import sys
import time
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cslrad import detector, specfun
from cslrad.detector import (
    PAPER_TABLE_1,
    EfficiencyClampWarning,
    EfficiencyPoly,
    MaterialComponent,
    SignalModel,
    compute_a,
)
from cslrad.domain import EnergyWindow
from cslrad.specfun import (
    ConvergenceError,
    gamma_quantile,
    integrate,
    ln_gamma,
    normal_quantile,
    reg_lower_gamma,
)

mp.mp.dps = 30


# --- ln_gamma ---------------------------------------------------------------

@pytest.mark.parametrize("s", [1e-8, 1e-3, 0.1, 0.5, 1.0, 1.5, 2.0, 10.0,
                               576.0, 577.0, 1e4, 1e6, 1.000001e6])
def test_ln_gamma_matches_clib(s):
    # ln_gamma is the C library's lgamma; mpmath is the oracle
    want = float(mp.loggamma(mp.mpf(s)))
    assert ln_gamma(s) == pytest.approx(want, rel=1e-14, abs=1e-13)


def test_ln_gamma_is_inf_where_lgamma_overflows():
    # math.lgamma raises OverflowError past s ~ 2.5e305
    assert ln_gamma(2.5e305) == pytest.approx(1.7555118602376454e308, rel=1e-14)
    assert ln_gamma(2.6e305) == math.inf
    assert ln_gamma(1e308) == math.inf


def test_ln_gamma_factorials():
    for n in range(1, 21):
        assert ln_gamma(n + 1.0) == pytest.approx(math.log(math.factorial(n)),
                                                  rel=1e-14)


def test_ln_gamma_half():
    assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-14)


def test_ln_gamma_rejects_nonpositive():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            ln_gamma(bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="requires finite s"):
            ln_gamma(bad)


@given(st.floats(min_value=0.5, max_value=1e5))
def test_ln_gamma_recurrence(s):
    # Gamma(s+1) = s * Gamma(s)
    assert ln_gamma(s + 1.0) == pytest.approx(ln_gamma(s) + math.log(s),
                                              rel=1e-12, abs=1e-11)


# --- reg_lower_gamma --------------------------------------------------------

@pytest.mark.parametrize("x", [0.5, 1.0, 5.0])
def test_p_of_one_is_exponential(x):
    # P(1, x) = 1 - e^(-x)
    assert abs(reg_lower_gamma(1.0, x) - (1.0 - math.exp(-x))) < 1e-13


def test_p_at_zero():
    assert reg_lower_gamma(5.0, 0.0) == 0.0
    assert reg_lower_gamma(1e6, 0.0) == 0.0


@pytest.mark.parametrize("s, x", [
    (0.5, 0.3), (0.5, 2.0), (2.0, 1.0), (2.0, 5.0), (10.0, 9.5),
    (100.0, 80.0), (100.0, 120.0), (577.0, 617.071), (577.0, 500.0),
    (1e4, 1.01e4), (1e6, 1.0005e6), (1e-3, 1e-4), (3.5, 3.4),
])
def test_p_matches_mpmath(s, x):
    want = float(mp.gammainc(mp.mpf(s), 0, mp.mpf(x), regularized=True))
    assert reg_lower_gamma(s, x) == pytest.approx(want, rel=5e-13, abs=1e-14)


@pytest.mark.parametrize("k, x", [(5, 3.0), (5, 8.0), (576, 617.071),
                                  (576, 540.0), (50, 60.0)])
def test_p_matches_poisson_tail(k, x):
    # P(k+1, x) = 1 - CDF_Poisson(k; x), summed in log space with lgamma
    tail = sum(math.exp(-x + j * math.log(x) - math.lgamma(j + 1))
               for j in range(k + 1))
    assert reg_lower_gamma(k + 1.0, x) == pytest.approx(1.0 - tail,
                                                        rel=1e-11, abs=1e-12)


@given(st.floats(min_value=0.01, max_value=1e4),
       st.floats(min_value=0.0, max_value=2e4),
       st.floats(min_value=1e-6, max_value=100.0))
def test_p_monotone_in_x(s, x, dx):
    assert reg_lower_gamma(s, x + dx) >= reg_lower_gamma(s, x)


@given(st.floats(min_value=0.01, max_value=1e5),
       st.floats(min_value=0.0, max_value=2e5))
def test_p_stays_in_unit_interval(s, x):
    p = reg_lower_gamma(s, x)
    assert 0.0 <= p <= 1.0
    assert math.isfinite(p)


def test_p_rejects_bad_arguments():
    with pytest.raises(ValueError):
        reg_lower_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_gamma(1.0, -0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="requires finite s"):
            reg_lower_gamma(bad, 1.0)
        with pytest.raises(ValueError, match="requires finite x"):
            reg_lower_gamma(2.0, bad)


# --- Temme's expansion -----------------------------------------------------

_S0 = specfun._TEMME_MIN_SHAPE


def _mp_p_and_q(s, x):
    """P and Q at 40 digits, each from the form mpmath sums reliably there."""
    with mp.workdps(40):
        S, X = mp.mpf(s), mp.mpf(x)
        if x < s:
            p = mp.gammainc(S, 0, X, regularized=True)
            return float(p), float(1 - p)
        q = mp.gammainc(S, X, mp.inf, regularized=True)
        return float(1 - q), float(q)


@pytest.mark.parametrize("s", [_S0 - 1.0, _S0, 577.0, 3001.0, 1e6 + 1.0])
@pytest.mark.parametrize("ratio", [0.71, 0.9, 1.0, 1.1, 1.29])
def test_p_and_q_match_mpmath_around_temmes_region(s, ratio):
    # the relative error grows like the exponent s (sigma - log1p(sigma)),
    # up to ~160 on this grid, times a few ulps; past ~745 both underflow
    x = s * ratio
    want_p, want_q = _mp_p_and_q(s, x)
    p = reg_lower_gamma(s, x)
    assert p == pytest.approx(want_p, rel=2e-14)
    assert 1.0 - p == pytest.approx(want_q, rel=2e-14, abs=2.3e-16)
    if s >= _S0:
        temme_p, temme_q = specfun._temme(s, x)
        assert temme_p == p
        assert temme_q == pytest.approx(want_q, rel=2e-14)


@pytest.mark.parametrize("s", [_S0, 577.0, 3001.0])
def test_temme_meets_the_series_and_the_fraction_at_its_edges(s):
    # by s ~ 1e4 the series' own log prefactor is off by ~1e-13 at 0.7 s,
    # where P ~ 1e-247 and Temme's expansion is within 3e-15 of mpmath
    below, above = 0.7 * s, 1.3 * s
    assert specfun._temme(s, below)[0] == pytest.approx(
        specfun._lower_series(s, below), rel=1e-13)
    assert specfun._temme(s, above)[1] == pytest.approx(
        specfun._upper_continued_fraction(s, above), rel=1e-13)


@pytest.mark.parametrize("ratio", [0.71, 0.9, 1.0, 1.01, 1.1, 1.29])
def test_temme_meets_the_series_and_the_fraction_at_its_smallest_shape(ratio):
    # the same x on both sides of the shape edge, through the kernels that
    # run just below it
    x = _S0 * ratio
    p, q = specfun._temme(_S0, x)
    if x < _S0 + 1.0:
        assert p == pytest.approx(specfun._lower_series(_S0, x), rel=1e-13)
    else:
        assert q == pytest.approx(specfun._upper_continued_fraction(_S0, x),
                                  rel=1e-13)


def test_temme_coefficients_are_dlmf_8_12_12():
    from fractions import Fraction as F
    d = specfun._TEMME_D
    want = {(0, 0): F(-1, 3), (0, 1): F(1, 12), (0, 2): F(-2, 135),
            (0, 3): F(1, 864), (0, 4): F(1, 2835), (0, 5): F(-139, 777600),
            (1, 0): F(-1, 540), (1, 1): F(-1, 288), (2, 0): F(25, 6048)}
    for (k, n), value in want.items():
        assert d[k][n] == float(value), (k, n)


def test_series_and_fraction_budget_raises_stalled(monkeypatch):
    monkeypatch.setattr(specfun, "_MAX_GAMMA_TERMS", 5)
    with pytest.raises(ConvergenceError, match="series stalled"):
        reg_lower_gamma(50.0, 45.0)
    with pytest.raises(ConvergenceError, match="fraction stalled"):
        reg_lower_gamma(50.0, 55.0)


def test_fraction_skipped_where_q_underflows():
    # at s ~ 1e18 and x several times s the fraction took millions of terms
    # to settle on a Q that underflows to 0 anyway
    start = time.monotonic()
    assert reg_lower_gamma(1e18, 1.19e19) == 1.0
    assert time.monotonic() - start < 0.01


@pytest.mark.parametrize("s, x, want", [
    # far above the median, where s ln x - x - ln Gamma(s) is inf - inf
    (1e306, 1e307, 1.0), (2.6e305, 1e306, 1.0),
    # below the median, past s ~ 4e306, where the series' stopping test
    # underflows, and one shape short of that
    (1e307, 1e306, 0.0), (1.7e308, 8.5e307, 0.0), (1e307, 1e304, 0.0),
    (1e292, 1e291, 0.0),
])
def test_p_at_the_largest_shapes(s, x, want):
    assert reg_lower_gamma(s, x) == want


@pytest.mark.parametrize("s, ratio", [
    # every pair whose P, ~e^(s (ln ratio + 1 - ratio)), is a normal double
    (s, r) for s in (30.0, 100.0, 577.0, 1000.5, 2341.9)
    for r in (0.021, 0.1, 0.3, 0.43, 0.49)
    if s * (math.log(r) + 1.0 - r) > -650.0
])
def test_p_below_half_the_shape_matches_mpmath(s, ratio):
    # the prefactor's exponent s (ln x - ln s) + s - x carries ~eps s of
    # rounding, which becomes P's relative error; the three-term form
    # s ln x - x - ln Gamma(s) added ln Gamma's own error on top
    x = s * ratio
    want, _ = _mp_p_and_q(s, x)
    assert reg_lower_gamma(s, x) == pytest.approx(
        want, rel=8.0 * sys.float_info.epsilon * s)


def test_p_below_half_the_shape_is_near_its_exponents_floor():
    # P's relative error is the exponent's absolute error, a few eps |ln P|
    # when the shape term takes ln(x/s); ln x - ln s, each ~ln s in size,
    # cancelled to ~16 eps |ln P| on these draws
    rng = random.Random("below half the shape")
    eps = sys.float_info.epsilon
    worst = 0.0
    draws = 0
    while draws < 300:
        s = rng.uniform(30.0, 3000.0)
        x = s * rng.uniform(0.02, 0.5)
        want, _ = _mp_p_and_q(s, x)
        if want < 1e-290:
            continue
        draws += 1
        error = abs(reg_lower_gamma(s, x) - want) / want
        worst = max(worst, error / (eps * (1.0 - math.log(want))))
    assert worst <= 5.0


@pytest.mark.parametrize("s, x", [
    # x / s is 0 or subnormal, so the shape term takes ln x - ln s
    (1e300, 1e-30), (30.0, 5e-324), (1e10, 1e-300), (1e308, 1e-5),
])
def test_p_where_x_over_s_underflows(s, x):
    assert reg_lower_gamma(s, x) == 0.0


def test_p_raises_rather_than_clamp_nan(monkeypatch):
    monkeypatch.setattr(specfun, "_lower_series", lambda s, x: math.nan)
    with pytest.raises(ConvergenceError, match="NaN"):
        reg_lower_gamma(2.0, 1.0)


# --- normal_quantile --------------------------------------------------------

def test_normal_quantile_known_points():
    assert normal_quantile(0.5) == pytest.approx(0.0, abs=1e-15)
    # classic two-sided 90% point
    assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, rel=1e-13)
    assert normal_quantile(0.975) == pytest.approx(1.959963984540054, rel=1e-13)


@given(st.floats(min_value=1e-8, max_value=1.0 - 1e-8))
def test_normal_quantile_round_trip(p):
    x = normal_quantile(p)
    cdf = 0.5 * math.erfc(-x / math.sqrt(2.0))
    assert cdf == pytest.approx(p, rel=1e-12, abs=1e-15)


@given(st.floats(min_value=1e-6, max_value=0.5 - 1e-9))
def test_normal_quantile_antisymmetric(p):
    assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p),
                                               rel=1e-9, abs=1e-12)


def test_normal_quantile_at_the_smallest_double():
    # its Halley refinement's exp(x^2 / 2) overflows past |x| ~ 37.7
    x = normal_quantile(5e-324)
    assert -38.5 < x < -38.4


# Golden values of Acklam's approximation plus its Halley step, so that a
# slip in the coefficient tables shows even where it stays within tolerance.
@pytest.mark.parametrize("p, z", [
    (5e-324, -38.46740568497968),
    (1e-300, -37.0470962993612),
    (1e-10, -6.361340902404057),
    (0.02, -2.0537489106318234),
    (0.02425, -1.972961051311885),
    (0.3, -0.5244005127080408),
    (0.5, 0.0),
    (0.7, 0.5244005127080409),
    (0.97575, 1.972961051311885),
    (0.98, 2.0537489106318225),
    (1.0 - 1e-10, 6.361340886788448),
])
def test_normal_quantile_golden_values(p, z):
    assert normal_quantile(p) == z


@pytest.mark.parametrize("p", [0.5 * 10.0 ** (-300 * i / 39) for i in range(40)]
                         + [0.02, 0.02425, 0.1, 0.3, 0.49, 0.4999])
def test_normal_quantile_lower_half_matches_mpmath(p):
    # the root of ncdf at 40 digits; erfinv loses digits below p ~ 1e-40
    z = normal_quantile(p)
    with mp.workdps(40):
        want = float(mp.findroot(lambda t: mp.ncdf(t) - mp.mpf(p), mp.mpf(z)))
    assert abs(z - want) <= 1e-13 * max(abs(want), 1e-3)


def test_normal_quantile_domain():
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            normal_quantile(bad)


# --- gamma_quantile ---------------------------------------------------------

def test_quantile_exponential_closed_form():
    # s = 1 is the unit exponential: Q(1, p) = -ln(1 - p)
    assert gamma_quantile(1.0, 0.95) == pytest.approx(-math.log(0.05), rel=1e-12)
    assert gamma_quantile(1.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)


def test_quantile_headline_shape():
    # reference value from an independent high-precision implementation
    q = gamma_quantile(577.0, 0.95)
    assert q == pytest.approx(617.0710335865027, rel=1e-9)
    assert 616.5 <= q <= 617.7


def test_median_near_shape():
    # median of Gamma(s, 1) is close to s - 1/3 for large s
    q = gamma_quantile(577.0, 0.5)
    assert q == pytest.approx(577.0 - 1.0 / 3.0, abs=0.01)
    assert reg_lower_gamma(577.0, 577.0) == pytest.approx(0.5055361145774643,
                                                          rel=1e-10)


@given(st.floats(min_value=0.01, max_value=1e6),
       st.floats(min_value=0.001, max_value=0.999))
def test_quantile_round_trip(s, p):
    x = gamma_quantile(s, p)
    assert math.isfinite(x) and x > 0
    assert reg_lower_gamma(s, x) == pytest.approx(p, abs=1e-11)


def test_quantile_monotone_in_p():
    qs = [gamma_quantile(577.0, p) for p in (0.05, 0.5, 0.95, 0.99)]
    assert qs == sorted(qs)
    assert qs[0] < qs[-1]


def test_quantile_large_shape_stays_finite():
    q = gamma_quantile(1e6 + 1.0, 0.95)
    assert math.isfinite(q)
    # Gaussian regime: s + z*sqrt(s) with z = 1.645
    assert q == pytest.approx(1e6 + 1.0 + 1.6448536269514722 * 1e3, rel=1e-4)


def test_quantile_converges_at_the_iteration_cap():
    # s = 1e10 + 1 was the largest shape whose series and fraction had a
    # sqrt(s) term budget; Temme's expansion now covers it in O(1) terms
    s = 1e10 + 1.0
    q = gamma_quantile(s, 0.95)
    assert q == pytest.approx(s + 1.6448536269514722 * 1e5, rel=1e-9)
    assert reg_lower_gamma(s, q) == pytest.approx(0.95, abs=1e-11)


def test_quantile_fails_fast_at_huge_shapes():
    # at s ~ 1e18 the series or fraction near x ~ s would need ~1e9 terms;
    # Temme's expansion gives the median, s - 1/3 + O(1/s), in a few steps
    s = 1e18 + 1.0
    start = time.monotonic()
    q = gamma_quantile(s, 0.5)
    assert time.monotonic() - start < 0.01
    assert q == pytest.approx(s - 1.0 / 3.0, rel=1e-15)


def test_quantile_at_a_huge_shape_in_the_upper_tail():
    # past s + 1 the continued fraction converges fast even at s ~ 1e18
    s = 1e18 + 1.0
    assert gamma_quantile(s, 0.95) == pytest.approx(
        s + 1.6448536269514722e9, rel=1e-12)


def test_quantile_median_at_a_large_shape():
    # the median of Gamma(s, 1) is s - 1/3 + O(1/s); near it one ulp of x
    # moves P by ~1e-12, so only a bracket a few ulps wide can stop there
    start = time.monotonic()
    q = gamma_quantile(1e10 + 1.0, 0.5)
    assert time.monotonic() - start < 1.0
    assert q == pytest.approx(1e10 + 2.0 / 3.0, rel=1e-15)


# Shapes from z_c = 0 up to past the Stirling switch and the largest count
# the acceptance gate checks, and 60 credibilities in [0.01, 0.999].
_ORACLE_SHAPES = [1.0, 2.0, 5.0, 10.0, 29.0, 30.0, 577.0, 3001.0,
                  2e5 + 1.0, 1e6 + 1.0]
_ORACLE_PS = [0.01 + (0.999 - 0.01) * i / 59 for i in range(60)]


@pytest.mark.parametrize("s", _ORACLE_SHAPES)
def test_quantile_matches_mpmath(s):
    # one mpmath Newton step from x gives the root's relative offset,
    # (P(s, x) - p) / (x dP/dx), to second order in that offset.  Above
    # p = 0.95 half an ulp of P is already ~5e-15 of x at s = 1.
    for p in _ORACLE_PS:
        x = gamma_quantile(s, p)
        with mp.workdps(40):  # 30 digits stall mpmath's series at s ~ 1e6
            S, X = mp.mpf(s), mp.mpf(x)
            offset = (mp.gammainc(S, 0, X, regularized=True) - mp.mpf(p)) \
                / (X ** S * mp.exp(-X) / mp.gamma(S))
        assert abs(float(offset)) <= (1e-15 if p <= 0.95 else 5e-15), (s, p)


@pytest.mark.parametrize("s", _ORACLE_SHAPES)
def test_quantile_takes_few_evaluations(s, monkeypatch):
    calls = []
    real = specfun.reg_lower_gamma

    def counted(shape, x):
        calls.append(x)
        return real(shape, x)

    monkeypatch.setattr(specfun, "reg_lower_gamma", counted)
    for p in _ORACLE_PS:
        calls.clear()
        gamma_quantile(s, p)
        assert len(calls) <= 6, (s, p, len(calls))


def test_quantile_raises_for_a_root_among_the_subnormals():
    # the root is ~1.4e-321, where a bracket 4 ulps wide is ~1% of it and
    # leaves P 1.3e-7 off p
    with pytest.raises(ConvergenceError, match="did not converge"):
        gamma_quantile(0.0011132060721644414, 0.4396355234312943)


@pytest.mark.parametrize("s", [1.0, 2.0, 5.0])
def test_quantile_raises_where_its_residual_is_not_small_against_p(s):
    # at p = 1e-300 the bracket does not close in its step budget; the best
    # x, 1.6e-276 for a root of 1e-300 at s = 1, is within 1e-12 of p only
    # in absolute terms
    with pytest.raises(ConvergenceError, match="did not converge"):
        gamma_quantile(s, 1e-300)


@pytest.mark.parametrize("s, p", [(1.0, 1e-30), (1.0, 1e-100), (5.0, 1e-100)])
def test_quantile_at_tiny_credibilities(s, p):
    # P(s, x) = x^s / Gamma(s + 1) (1 + O(x)), so the root is
    # (p Gamma(s + 1))^(1/s) to far below an ulp here
    want = (p * math.gamma(s + 1.0)) ** (1.0 / s)
    assert gamma_quantile(s, p) == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("stuck", [0.25, 0.75])
def test_quantile_raises_where_p_is_never_reached(stuck, monkeypatch):
    # P pinned below or above p: no value may come back
    monkeypatch.setattr(specfun, "reg_lower_gamma", lambda s, x: stuck)
    with pytest.raises(ConvergenceError, match="did not converge"):
        gamma_quantile(577.0, 0.5)


def test_quantile_rejects_bad_arguments():
    with pytest.raises(ValueError):
        gamma_quantile(-1.0, 0.5)
    for bad in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError):
            gamma_quantile(577.0, bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="requires finite s"):
            gamma_quantile(bad, 0.5)


# --- horner -----------------------------------------------------------------

@given(st.lists(st.floats(-1e-3, 1e-3), min_size=1, max_size=6),
       st.floats(min_value=1.0, max_value=4000.0))
def test_horner_matches_polyval(coeffs, x):
    want = float(np.polyval(coeffs[::-1], x))
    assert specfun.horner(tuple(coeffs), x) == pytest.approx(want, rel=1e-12, abs=1e-18)


# --- integrate --------------------------------------------------------------
# integrate(coeffs, a, b) is the exact integral of max(p(x), 0)/x, with
# p(x) = sum_j coeffs[j] x^j; these tests divide the wanted integrand by x.

def test_integrate_polynomial():
    # p(x) = x^3, so the integrand is x^2
    got, clamped = integrate((0.0, 0.0, 0.0, 1.0), 0.5, 1.0)
    assert got == pytest.approx((1.0 - 0.125) / 3.0, rel=1e-15)
    assert not clamped


def test_integrate_reciprocal_window():
    # the 1/E integral behind the signal constant
    got, clamped = integrate((1.0,), 1000.0, 3800.0)
    assert got == pytest.approx(math.log(3.8), rel=1e-15)
    assert not clamped


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                min_size=1, max_size=5),
       st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=0.1, max_value=8.0))
def test_integrate_matches_antiderivative(coeffs, a, width):
    # p(x) = x * q(x) with q >= 1 on [a, b], so nothing is clamped and the
    # integrand is q, whose antiderivative is exact
    b = a + width
    shift = 1.0 + sum(abs(c) * max(1.0, b) ** j for j, c in enumerate(coeffs))
    q = [coeffs[0] + shift, *coeffs[1:]]

    def antideriv(x):
        return sum(c * x ** (j + 1) / (j + 1) for j, c in enumerate(q))

    want = antideriv(b) - antideriv(a)
    got, clamped = integrate((0.0, *q), a, b)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    assert not clamped


def _clamped_oracle(coeffs, a, b):
    """mpmath.quad of max(p, 0)/x, split at p's real roots in (a, b)."""
    with mp.workdps(50):
        c = [mp.mpf(x) for x in reversed(coeffs)]
        roots = sorted(r.real for r in mp.polyroots(c, maxsteps=200, extraprec=200)
                       if abs(r.imag) < mp.mpf(10) ** -30 and a < r.real < b)
        edges = [mp.mpf(a), *roots, mp.mpf(b)]
        total = mp.mpf(0)
        for lo, hi in zip(edges, edges[1:]):
            if mp.polyval(c, (lo + hi) / 2) > 0:
                total += mp.quad(lambda x: mp.polyval(c, x) / x, [lo, hi])
        return float(total), len(edges) > 2 or mp.polyval(c, (a + b) / 2) < 0


@pytest.mark.parametrize("window", [(1000.0, 3800.0), (50.0, 3800.0),
                                    (100.0, 5000.0), (10.0, 20000.0)])
@pytest.mark.parametrize("material", sorted(PAPER_TABLE_1))
def test_integrate_matches_mpmath_on_table_1(material, window):
    coeffs = PAPER_TABLE_1[material].coeffs
    got, clamped = integrate(coeffs, *window)
    want, want_clamped = _clamped_oracle(coeffs, *window)
    assert got == pytest.approx(want, rel=1e-13)
    assert clamped == want_clamped


def _expand(roots, quadratic=None):
    """Ascending coefficients of prod (x - r), times x^2 - 2 m x + m^2 + q^2."""
    coeffs = [1.0]
    factors = [(-r, 1.0) for r in roots]
    if quadratic is not None:
        m, q = quadratic
        factors.append((m * m + q * q, -2.0 * m, 1.0))
    for factor in factors:
        out = [0.0] * (len(coeffs) + len(factor) - 1)
        for i, c in enumerate(coeffs):
            for j, f in enumerate(factor):
                out[i + j] += c * f
        coeffs = out
    return coeffs


@given(st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=1,
                max_size=6, unique=True),
       st.floats(min_value=0.1, max_value=100.0),
       st.floats(min_value=1.0, max_value=9.0),
       st.sampled_from([1.0, -1e-3, 1e4]),
       st.one_of(st.none(), st.tuples(st.floats(min_value=0.0, max_value=1.0),
                                      st.floats(min_value=0.05, max_value=1.0))))
def test_sign_changes_find_every_planted_root(fractions, a, stretch, scale,
                                              quadratic):
    # simple roots at least 5% of [a, b] apart, with b >= 2a so that the
    # power basis stays well conditioned; an optional factor without real
    # roots adds monotone pieces that hold no sign change
    fractions = sorted(fractions)
    assume(all(v - u >= 0.05 for u, v in zip(fractions, fractions[1:])))
    assume(quadratic is None or len(fractions) <= 4)
    b = a * (1.0 + stretch)
    planted = [a + (b - a) * u for u in fractions]
    if quadratic is not None:
        quadratic = (a + (b - a) * quadratic[0], (b - a) * quadratic[1])
    coeffs = [scale * c for c in _expand(planted, quadratic)]
    found = specfun._sign_changes(coeffs, a, b)
    assert len(found) == len(planted)
    for root, want in zip(found, planted):
        assert root == pytest.approx(want, abs=1e-6 * b)
        below = math.nextafter(root, -math.inf)
        assert (specfun.horner(coeffs, below) < 0.0) != \
            (specfun.horner(coeffs, root) < 0.0)


@pytest.fixture
def horner_calls(monkeypatch):
    """The x of every specfun.horner call made while the test runs."""
    calls = []
    real = specfun.horner

    def counted(coeffs, x):
        calls.append(x)
        return real(coeffs, x)

    monkeypatch.setattr(specfun, "horner", counted)
    return calls


def table_1_model():
    """A fresh SignalModel of the five Table-1 fits, equal to every other."""
    materials = tuple(
        MaterialComponent(name=name, n_protons=1, atoms_per_kg=1.0, mass=1.0,
                          live_time=1.0, efficiency=EfficiencyPoly(fit.coeffs))
        for name, fit in PAPER_TABLE_1.items())
    return SignalModel(materials, EnergyWindow(1000.0, 3800.0))


def test_sign_changes_take_few_horner_calls(horner_calls):
    # bisecting every root to adjacent floats took 533 calls here
    for fit in PAPER_TABLE_1.values():
        integrate(fit.coeffs, 1000.0, 3800.0)
    assert 0 < len(horner_calls) <= 250


def test_integrate_clamps_a_fit_negative_over_the_whole_window():
    assert integrate((-1.0, 1e-4), 1000.0, 3800.0) == (0.0, True)
    assert integrate((-1.0, 0.0, -1e-6), 1000.0, 3800.0) == (0.0, True)


def test_integrate_clamps_below_a_root():
    # p(x) = x - 2000 on [1000, 3800]: only [2000, 3800] counts
    got, clamped = integrate((-2000.0, 1.0), 1000.0, 3800.0)
    assert got == pytest.approx(1800.0 - 2000.0 * math.log(1.9), rel=1e-14)
    assert clamped


@pytest.mark.parametrize("window", [(1000.0, 1e300), (1e-320, 1.0)])
def test_integrate_rejects_a_result_that_is_not_finite(window):
    with pytest.raises(ValueError, match="not finite"):
        integrate(PAPER_TABLE_1["Ge crystal"].coeffs, *window)


def test_integrate_rejects_bad_interval():
    for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, 1.0), (-1.0, 1.0),
                 (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="requires 0 < a < b < inf"):
            integrate((1.0,), a, b)


# --- integrate's memo -------------------------------------------------------
# detector.integrate is integrate remembered per (coeffs, a, b); integrate,
# which keeps nothing, is the oracle a remembered result must match bit for
# bit.

def bits(result):
    total, clamped = result
    return total.hex(), clamped


@pytest.mark.parametrize("material", sorted(PAPER_TABLE_1))
def test_memo_returns_the_cold_bits_on_table_1(material):
    coeffs = PAPER_TABLE_1[material].coeffs
    detector.integrate.cache_clear()
    cold = detector.integrate(coeffs, 1000.0, 3800.0)
    warm = detector.integrate(coeffs, 1000.0, 3800.0)
    assert detector.integrate.cache_info()[:2] == (1, 1)  # hits, misses
    assert bits(warm) == bits(cold) == bits(integrate(coeffs, 1000.0, 3800.0))


@given(st.lists(st.floats(min_value=-10.0, max_value=10.0),
                min_size=1, max_size=5),
       st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=0.1, max_value=8.0),
       st.booleans())
def test_memo_returns_the_cold_bits(q, a, width, clamp):
    # q shifted to q >= 1 on [a, b]; p = x q is positive there, and
    # p = (x - m) q, with m the window's middle, is clamped on [a, m]
    b = a + width
    q = [q[0] + 1.0 + sum(abs(c) * max(1.0, b) ** j for j, c in enumerate(q)),
         *q[1:]]
    m = a + 0.5 * width if clamp else 0.0
    coeffs = tuple(u - m * v for u, v in zip([0.0, *q], [*q, 0.0]))
    detector.integrate.cache_clear()
    cold = detector.integrate(coeffs, a, b)
    warm = detector.integrate(coeffs, a, b)
    assert cold[1] == clamp
    assert bits(warm) == bits(cold) == bits(integrate(coeffs, a, b))


@given(st.lists(st.one_of(st.just(0.0), st.floats(min_value=-10.0, max_value=10.0)),
                min_size=1, max_size=5),
       st.lists(st.booleans(), min_size=5, max_size=5),
       st.floats(min_value=0.1, max_value=2.0),
       st.floats(min_value=0.1, max_value=8.0))
def test_signed_zero_coefficients_integrate_alike(coeffs, flips, a, width):
    # 0.0 == -0.0 and they hash alike, so the memo gives one for the other;
    # the solve only adds them, multiplies them and compares against 0, so
    # both give the same bits
    coeffs = tuple(coeffs)
    flipped = tuple(-c if c == 0.0 and flip else c for c, flip in zip(coeffs, flips))
    try:
        want = bits(integrate(coeffs, a, a + width))
    except ValueError:
        return
    assert bits(integrate(flipped, a, a + width)) == want
    detector.integrate.cache_clear()
    detector.integrate(coeffs, a, a + width)
    assert bits(detector.integrate(flipped, a, a + width)) == want


def test_memo_keys_that_compare_equal():
    coeffs = (0.0, -2000.0, 1.0)
    detector.integrate.cache_clear()
    want = bits(detector.integrate(coeffs, 1000, 3800))
    assert bits(detector.integrate(coeffs, 1000.0, 3800.0)) == want  # int window
    assert bits(detector.integrate((-0.0, -2000.0, 1.0), 1000.0, 3800.0)) == want
    assert detector.integrate.cache_info()[:2] == (2, 1)  # hits, misses
    assert bits(integrate(coeffs, 1000.0, 3800.0)) == want


@pytest.mark.parametrize("coeffs, window, match", [
    ((1.0,), (2.0, 1.0), "requires 0 < a < b < inf"),
    ((1.0,), (0.0, 1.0), "requires 0 < a < b < inf"),
    (PAPER_TABLE_1["Ge crystal"].coeffs, (1000.0, 1e300), "not finite"),
    (PAPER_TABLE_1["Ge crystal"].coeffs, (1e-320, 1.0), "not finite"),
])
def test_memo_raises_on_every_call(coeffs, window, match):
    detector.integrate.cache_clear()
    for _ in range(3):
        with pytest.raises(ValueError, match=match):
            detector.integrate(coeffs, *window)
    info = detector.integrate.cache_info()
    assert (info.misses, info.currsize) == (3, 0)


def test_equal_model_makes_no_horner_calls(horner_calls):
    detector.integrate.cache_clear()
    want = compute_a(table_1_model())
    assert horner_calls
    horner_calls.clear()
    assert compute_a(table_1_model()).hex() == want.hex()
    assert horner_calls == []


def test_clamped_fit_warns_on_every_compute_a():
    fit = EfficiencyPoly((-2000.0, 1.0))  # negative below 2000 keV
    model = SignalModel((MaterialComponent(
        name="half", n_protons=1, atoms_per_kg=1.0, mass=1.0, live_time=1.0,
        efficiency=fit),), EnergyWindow(1000.0, 3800.0))
    detector.integrate.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(3):  # cold, then warm twice
            compute_a(model)
    assert [w.category for w in caught] == [EfficiencyClampWarning] * 3
    assert all("'half'" in str(w.message) for w in caught)


def test_memo_is_bounded():
    maxsize = detector.integrate.cache_info().maxsize
    assert maxsize is not None and 0 < maxsize <= 1024
    detector.integrate.cache_clear()
    for k in range(maxsize + 10):
        detector.integrate((1.0, float(k)), 1000.0, 3800.0)
    assert detector.integrate.cache_info().currsize == maxsize


def test_convergence_error_is_runtime_error():
    assert issubclass(ConvergenceError, RuntimeError)
