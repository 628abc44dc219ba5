"""Self-contained special functions and numerical kernels.

Log-gamma (the C library's, with inf where it overflows), the
regularized lower incomplete gamma function P(s, x), its quantile in x by
bracketed Halley steps in ln x, the normal quantile that starts them, and
the exact integral of max(p(x), 0)/x for a polynomial p, whose sign
changes are found by bracketed Newton steps.

P(s, x) comes from Temme's uniform asymptotic expansion for s >= 100 and
|x - s| < 0.3 s, and elsewhere from a compensated power series below
x = s + 1 and a Lentz continued fraction above; each of these needs at
most ~100 terms, so P costs O(1) at every shape.

Everything here must stay finite for shape parameters up to ~1e6 and
beyond, so the prefactor x^s e^(-x) / Gamma(s) goes through logs; only
below s = 30, where its log form loses digits, is Gamma(s) formed
directly.  Against mpmath the quantile is within 1e-15 of the root for
s >= 1 and credibilities up to 0.95, and it converges at every shape a
double holds.  Above 0.95 its floor, half an ulp of P over x dP/dx,
grows as 1/(1 - p): 4.5e-15 at 0.999 and 2.5e-10 at 1 - 1e-8 for s = 1,
4.7e-13 at 1 - 1e-8 for s = 1e6+1.
"""

from __future__ import annotations

import math
import sys


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance."""


_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def ln_gamma(s: float) -> float:
    """Natural log of Gamma(s) for finite s > 0; inf past s ~ 2.5e305."""
    if not 0.0 < s < math.inf:
        raise ValueError(f"ln_gamma requires finite s > 0, got {s}")
    try:
        return math.lgamma(s)
    except OverflowError:
        return math.inf


# Term budget of the power series and the continued fraction.  Outside
# Temme's region they never come near it.  Measured over shapes 1e-3 to 1e18
# and x from 1e-3 s to 1e3 s: from s = 100 up, the series takes at most 107
# terms (at x = 0.7 s) and the fraction at most 26 (near x = 1.3 s; it is
# skipped where its prefactor underflows); below s = 100, either takes at
# most 100.  Running out raises the "stalled" ConvergenceError.
_MAX_GAMMA_TERMS = 1000


# Stirling series for ln Gamma(s) - (s - 1/2) ln s + s - ln sqrt(2 pi),
# truncated where the next term is below 1e-16 for s >= 30.
_STIRLING_SWITCH = 30.0


def _stirling_correction(s: float) -> float:
    r = 1.0 / s
    r2 = r * r
    return r / 12.0 - r * r2 / 360.0 + r * r2 * r2 / 1260.0 \
        - r * r2 * r2 * r2 / 1680.0


def _prefactor(s: float, x: float) -> float:
    """x^s e^(-x) / Gamma(s), which is also dP/d(ln x).

    Below s = 30 the direct product, while x^s cannot overflow, is good to
    a few ulps, where the log form's absolute error would become P's
    relative error.  From s = 30 up the log goes against the Stirling
    expansion, leaving only the shape term s ln(x/s) + s - x, through
    log1p near x ~ s.  Taking the log of the quotient x/s, not ln x - ln s,
    spares the cancellation of two logs ~ln s in size; the three-term form
    s ln x - x - ln Gamma(s) loses ~s*eps to cancellation and past
    s ~ 1e305 gives inf - inf.
    """
    if s < _STIRLING_SWITCH:
        if x < 700.0:
            return x ** s * math.exp(-x) / math.gamma(s)
        return math.exp(s * math.log(x) - x - ln_gamma(s))
    if 0.5 * s < x < 2.0 * s:
        u = (x - s) / s
        shape_term = s * (math.log1p(u) - u)
    elif x / s >= sys.float_info.min:
        shape_term = s * math.log(x / s) + (s - x)
    else:  # x / s is subnormal or 0; ln x - ln s keeps its digits
        shape_term = s * (math.log(x) - math.log(s)) + (s - x)
    return math.exp(shape_term + 0.5 * math.log(s / (2.0 * math.pi))
                    - _stirling_correction(s))


def _lower_series(s: float, x: float) -> float:
    """P(s, x) by power series; preferred for x < s + 1."""
    prefactor = _prefactor(s, x)
    if prefactor == 0.0:
        # P underflows whatever the series, whose stopping test itself
        # underflows to 0 from s ~ 4e306 up.
        return 0.0
    term = 1.0 / s
    total = term
    carry = 0.0  # Kahan compensation: plain sums drift up to ~9 ulps by s ~ 10
    k = s
    for _ in range(_MAX_GAMMA_TERMS):
        k += 1.0
        term *= x / k
        y = term - carry
        t = total + y
        carry, total = (t - total) - y, t
        if abs(term) < abs(total) * 1e-17:
            return prefactor * total
    raise ConvergenceError(f"incomplete gamma series stalled at s={s}, x={x}")


def _upper_continued_fraction(s: float, x: float) -> float:
    """Q(s, x) = 1 - P(s, x) by modified Lentz; preferred for x >= s + 1."""
    prefactor = _prefactor(s, x)
    if prefactor == 0.0:
        # Q underflows whatever the fraction, which from s ~ 1e16 up can
        # take millions of terms to settle where x is several times s.
        return 0.0
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_GAMMA_TERMS):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return prefactor * h
    raise ConvergenceError(f"incomplete gamma fraction stalled at s={s}, x={x}")


# Temme's uniform asymptotic expansion (DLMF 8.12; DiDonato & Morris 1986,
# ACM TOMS 12, 377) takes over from the series and the continued fraction
# where both need ~sqrt(s) terms: shapes from _TEMME_MIN_SHAPE up, and
# |x - s| < _TEMME_MAX_OFFSET * s, where |eta| <= 0.34.
_TEMME_MIN_SHAPE = 100.0
_TEMME_MAX_OFFSET = 0.3

# d[k][n], the Taylor coefficients of c_k(eta) = sum_n d[k][n] eta^n
# (DLMF 8.12.12), from the recurrence of DLMF 8.12.13,
# d[k][n] = (n + 2) d[k-1][n+2] - d[k-1][1] d[0][n], with d[0][n] the series
# of 1/(lambda - 1) - 1/eta.  They were computed in exact rational arithmetic
# and rounded to the nearest double; at 50 digits the expansion they give
# matches mpmath's incomplete gamma to its truncation error.  A row stops
# where its next terms, d[k][n] 0.34^n / 100^k, fall below 1e-18.
_TEMME_D = (
    # c_0
    (-0.3333333333333333, 0.08333333333333333, -0.014814814814814815,
     0.0011574074074074073, 0.0003527336860670194, -0.0001787551440329218,
     3.919263178522438e-05, -2.185448510679992e-06, -1.85406221071516e-06,
     8.296711340953087e-07, -1.7665952736826078e-07, 6.707853543401498e-09,
     1.0261809784240309e-08, -4.382036018453353e-09, 9.14769958223679e-10,
     -2.5514193994946248e-11, -5.830772132550426e-11),
    # c_1
    (-0.001851851851851852, -0.003472222222222222, 0.0026455026455026454,
     -0.0009902263374485596, 0.00020576131687242798, -4.018775720164609e-07,
     -1.8098550334489977e-05, 7.64916091608111e-06, -1.6120900894563446e-06,
     4.647127802807434e-09, 1.378633446915721e-07, -5.752545603517705e-08,
     1.1951628599778148e-08, -1.7543241719747647e-11, -1.0091543710600413e-09),
    # c_2
    (0.004133597883597883, -0.0026813271604938273, 0.0007716049382716049,
     2.0093878600823047e-06, -0.0001073665322636516, 5.2923448829120125e-05,
     -1.2760635188618728e-05, 3.423578734096138e-08, 1.3721957309062934e-06,
     -6.298992138380055e-07, 1.4280614206064242e-07, -2.0477098421990866e-10,
     -1.409252991086752e-08),
    # c_3
    (0.0006494341563786008, 0.00022947209362139917, -0.0004691894943952557,
     0.00026772063206283885, -7.561801671883977e-05, -2.396505113867297e-07,
     1.1082654115347302e-05, -5.6749528269915965e-06, 1.4230900732435883e-06,
     -2.7861080291528143e-11, -1.6958404091930278e-07),
    # c_4
    (-0.0008618882909167117, 0.0007840392217200666, -0.0002990724803031902,
     -1.4638452578843418e-06, 6.641498215465122e-05, -3.968365047179435e-05,
     1.1375726970678419e-05, 2.507497226237533e-10, -1.6954149536558305e-06),
    # c_5
    (-0.00033679855336635813, -6.972813758365857e-05, 0.0002772753244959392,
     -0.00019932570516188847, 6.797780477937208e-05, 1.419062920643967e-07,
     -1.3594048189768693e-05),
    # c_6
    (0.0005313079364639922, -0.0005921664373536939, 0.0002708782096718045,
     7.902353232660328e-07, -8.153969367561969e-05),
    # c_7
    (0.00034436760689237765,),
)


# 2 / (2m + 3) for m = 0..10: with |t| <= 0.177 in Temme's region, the first
# term left out is below 1e-18 of the exponent.
_LOG1P_TAIL = (2 / 3, 2 / 5, 2 / 7, 2 / 9, 2 / 11, 2 / 13, 2 / 15, 2 / 17,
               2 / 19, 2 / 21, 2 / 23)


def _temme(s: float, x: float) -> tuple[float, float]:
    """(P(s, x), Q(s, x)) by Temme's expansion, for s >= 100 and |x - s| < 0.3 s.

    Q = erfc(y)/2 + R and P = erfc(-y)/2 - R, with y = eta sqrt(s/2),
    R = e^(-y^2) sum_k c_k(eta) s^(-k) / sqrt(2 pi s), and
    y^2 = s (sigma - log1p(sigma)) for sigma = (x - s)/s.  That exponent is
    formed from d = x - s (exact here) and t = d/(x + s), as
    t (d - s t^2 sum_m 2 t^(2m) / (2m + 3)), so it keeps its digits where
    sigma - log1p(sigma) would cancel.
    """
    d = x - s
    t = (0.5 * d) / (0.5 * x + 0.5 * s)  # = d / (x + s), finite for every s
    t2 = t * t
    exponent = t * (d - s * t2 * horner(_LOG1P_TAIL, t2))
    y = math.copysign(math.sqrt(exponent), d)
    eta = y * math.sqrt(2.0 / s)
    r = 1.0 / s
    total = 0.0
    for row in reversed(_TEMME_D):
        total = total * r + horner(row, eta)
    tail = math.exp(-exponent) * total / (_SQRT_TWO_PI * math.sqrt(s))
    return 0.5 * math.erfc(-y) - tail, 0.5 * math.erfc(y) + tail


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x), monotone in x, in [0, 1].

    Temme's expansion runs for s >= 100 and |x - s| < 0.3 s, where the
    other two would need ~sqrt(s) terms; elsewhere the power series runs
    below x = s + 1 and the continued fraction for Q = 1 - P above.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"reg_lower_gamma requires finite s > 0, got {s}")
    if not 0.0 <= x < math.inf:
        raise ValueError(f"reg_lower_gamma requires finite x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if s >= _TEMME_MIN_SHAPE and abs(x - s) < _TEMME_MAX_OFFSET * s:
        p = _temme(s, x)[0]
    elif x < s + 1.0:
        p = _lower_series(s, x)
    else:
        p = 1.0 - _upper_continued_fraction(s, x)
    if math.isnan(p):  # min and max below would pass it off as 0
        raise ConvergenceError(f"incomplete gamma is NaN at s={s}, x={x}")
    # Roundoff guard only; the kernels cannot legitimately leave [0, 1].
    return min(1.0, max(0.0, p))


# Acklam's rational approximation to the standard normal quantile,
# polished with one Halley step: good to machine precision below p = 0.5,
# but not near p = 1, where the CDF it is refined against rounds (2e-12
# relative at p = 1 - 1e-6).  Coefficients lowest degree first, for
# horner; each denominator ends in its leading 1.
_ACKLAM_A = (2.506628277459239e+00, -3.066479806614716e+01, 1.383577518672690e+02,
             -2.759285104469687e+02, 2.209460984245205e+02, -3.969683028665376e+01)
_ACKLAM_B = (1.0, -1.328068155288572e+01, 6.680131188771972e+01,
             -1.556989798598866e+02, 1.615858368580409e+02, -5.447609879822406e+01)
_ACKLAM_C = (2.938163982698783e+00, 4.374664141464968e+00, -2.549732539343734e+00,
             -2.400758277161838e+00, -3.223964580411365e-01, -7.784894002430293e-03)
_ACKLAM_D = (1.0, 3.754408661907416e+00, 2.445134137142996e+00,
             3.224671290700398e-01, 7.784695709041462e-03)


def normal_quantile(p: float) -> float:
    """Inverse standard normal CDF for p in (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"normal_quantile requires 0 < p < 1, got {p}")
    p_low, p_high = 0.02425, 1.0 - 0.02425
    if p_low <= p <= p_high:
        q = p - 0.5
        r = q * q
        x = horner(_ACKLAM_A, r) * q / horner(_ACKLAM_B, r)
    else:  # the tails, the upper one mirrored onto 1 - p
        q = math.sqrt(-2.0 * (math.log(p) if p < p_low else math.log1p(-p)))
        x = horner(_ACKLAM_C, q) / horner(_ACKLAM_D, q)
        if p > p_high:
            x = -x
    # One Halley refinement against the exact CDF, wherever exp(x^2 / 2) is
    # finite; past |x| ~ 37.7 (p below ~1e-310) the approximation stands.
    err = 0.5 * math.erfc(-x / math.sqrt(2.0)) - p
    try:
        u = err * math.sqrt(2.0 * math.pi) * math.exp(0.5 * x * x)
    except OverflowError:
        return x
    return x - u / (1.0 + 0.5 * x * u)


def _wilson_hilferty_guess(s: float, p: float) -> float:
    z = normal_quantile(p)
    g = 1.0 - 1.0 / (9.0 * s) + z / (3.0 * math.sqrt(s))
    if g > 0:
        return s * g ** 3
    return s * math.exp(z / math.sqrt(s))  # deep lower tail fallback


# gamma_quantile's largest accepted residual |P(s, x) - p|, relative to p,
# where its bracket does not close, and its step budget.
_QUANTILE_TOL = 1e-12
_QUANTILE_MAX_ITER = 300


def gamma_quantile(s: float, p: float) -> float:
    """Solve P(s, x) = p for x by bracketed Halley steps in t = ln x.

    dP/dt is the prefactor x^s e^(-x) / Gamma(s) and its log-derivative
    is s - x, so each step costs one incomplete-gamma evaluation and
    converges cubically: ~3 per solve for s >= 1.  A bracket catches steps
    that leave it, and the solve stops once it is a few ulps wide.  Raises
    ConvergenceError instead of returning a value outside tolerance,
    including when the root underflows the double range entirely.
    """
    if not 0.0 < s < math.inf:
        raise ValueError(f"gamma_quantile requires finite s > 0, got {s}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"gamma_quantile requires 0 < p < 1, got {p}")

    x = max(_wilson_hilferty_guess(s, p), 1e-300)
    if s < 1.0:
        # gamma(s, x) <= x^s / s gives the lower bound (p Gamma(s+1))^(1/s);
        # in the small-shape lower tail it equals the root to near machine
        # precision.
        log_x0 = (math.log(p) + ln_gamma(s + 1.0)) / s
        if log_x0 <= -740.0:
            raise ConvergenceError(
                f"quantile for s={s}, p={p} underflows the double range")
        x = min(x, math.exp(log_x0))

    lo, hi = 0.0, math.inf  # hi stays inf until P(s, x) > p has been seen
    x_best, f_best = x, math.inf
    for _ in range(_QUANTILE_MAX_ITER):
        f = reg_lower_gamma(s, x) - p
        if f == 0.0:
            return x
        if abs(f) < abs(f_best):
            x_best, f_best = x, f
        if f < 0.0:
            lo = x
        else:
            hi = x
        if hi < math.inf and hi - lo <= 4.0 * math.ulp(hi):
            if hi >= sys.float_info.min:  # below it, ulps are not relative
                return x_best
            break
        # Halley step in ln x; a step under 2 ulps goes 2 ulps past the
        # root instead, so that the next evaluation closes the bracket.
        dens = _prefactor(s, x)  # dP/d(ln x)
        newton = f / dens if dens > 0.0 else math.nan
        denom = 1.0 - 0.5 * newton * (s - x)
        step = newton / denom if denom > 0.0 else math.nan
        cand = x * math.exp(-step) if abs(step) < 700.0 else math.nan
        if abs(cand - x) < 2.0 * math.ulp(x):
            cand = x - math.copysign(2.0 * math.ulp(x), f)
        if not lo < cand < hi:
            if hi == math.inf:
                cand = 2.0 * lo
            elif lo > 0.0 and hi > 100.0 * lo:
                cand = math.sqrt(lo) * math.sqrt(hi)
            else:
                cand = 0.5 * (lo + hi)
        x = cand
    if abs(f_best) < _QUANTILE_TOL * p:
        return x_best
    raise ConvergenceError(
        f"gamma_quantile did not converge for s={s}, p={p} (residual {f_best:.3e})"
    )


def horner(coeffs, x: float) -> float:
    """Value of the polynomial sum_j coeffs[j] * x^j, by Horner's rule."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _bisect(coeffs, slope, lo: float, hi: float, lo_negative: bool) -> float:
    """The one sign change of a polynomial monotone on [lo, hi], to adjacent floats.

    Bracketed Newton steps, with slope the derivative's coefficients.  A
    step that leaves the bracket falls back to its midpoint, and a step under
    2 ulps goes 2 ulps past the root instead, so that the next evaluation
    closes the bracket.  Returns hi once lo and hi are adjacent floats.
    """
    x = lo + 0.5 * (hi - lo)
    while True:
        if not lo < x < hi:
            x = lo + 0.5 * (hi - lo)
            if not lo < x < hi:
                return hi
        value = horner(coeffs, x)
        if (value < 0.0) == lo_negative:
            lo = x
        else:
            hi = x
        dvalue = horner(slope, x)
        step = value / dvalue if dvalue != 0.0 else math.nan
        if abs(step) < 2.0 * math.ulp(x):
            step = 2.0 * math.ulp(x) if x == hi else -2.0 * math.ulp(x)
        x -= step


def _sign_changes(coeffs, lo: float, hi: float) -> list[float]:
    """The points in (lo, hi) where the polynomial changes sign, ascending.

    The sign changes of its derivative, found the same way down to a
    linear polynomial, split [lo, hi] into pieces on which it is
    monotone, so each piece holds at most one.
    """
    if len(coeffs) < 2:
        return []
    slope = [j * c for j, c in enumerate(coeffs)][1:]
    edges = [lo, *_sign_changes(slope, lo, hi), hi]
    roots = []
    for left, right in zip(edges, edges[1:]):
        negative = horner(coeffs, left) < 0.0
        if (horner(coeffs, right) < 0.0) != negative:
            roots.append(_bisect(coeffs, slope, left, right, negative))
    return roots


def integrate(coeffs, a: float, b: float) -> tuple[float, bool]:
    """Integral of max(p(x), 0) / x over [a, b], for p(x) = sum_j coeffs[j] x^j.

    Returns the integral and whether p is negative, and so clamped to 0,
    on any part of [a, b].  Each piece [lo, hi] between sign changes on
    which p is positive adds c0 ln(hi/lo) + sum_j c_j (hi^j - lo^j) / j.
    A result that is not finite raises ValueError.
    """
    total, clamped = 0.0, False
    try:
        a, b = float(a), float(b)
        if not 0.0 < a < b < math.inf:
            raise ValueError(f"integrate requires 0 < a < b < inf, got ({a}, {b})")
        edges = [a, *_sign_changes(coeffs, a, b), b]
        for lo, hi in zip(edges, edges[1:]):
            if horner(coeffs, lo + 0.5 * (hi - lo)) < 0.0:
                clamped = True
                continue
            total += coeffs[0] * math.log(hi / lo)
            for j, c in enumerate(coeffs[1:], start=1):
                total += c * (hi ** j - lo ** j) / j
    except OverflowError:  # float() and float ** raise where * and / give inf
        total = math.inf
    if not math.isfinite(total):
        raise ValueError("integral of max(p(x), 0)/x over the interval is not finite")
    return total, clamped
