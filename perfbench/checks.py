"""Independent oracles and output checks for the benchmark.

Nothing here imports cslrad: every expected value is computed from the
inputs with NumPy/SciPy and constants written down from CODATA 2018 and
the paper's Table 1.  Each check returns None when the result is right
and a short reason string when it is not.
"""

from __future__ import annotations

import math

import numpy as np

# CODATA 2018, the values the paper's analysis uses.
HBAR = 1.054571817e-34          # J s
C_LIGHT = 2.99792458e8          # m/s
EPS0 = 8.8541878128e-12         # F/m
E_CHARGE = 1.602176634e-19      # C
M_PROTON = 1.67262192369e-27    # kg
AMU = 1.66053906660e-27         # kg
AVOGADRO = 6.02214076e23        # 1/mol
KEV_J = 1e3 * E_CHARGE

# Paper Table 1: efficiency fits (E in keV, lowest order first), with the
# proton number and molar mass of each component's material.
TABLE_1 = {
    "Ge crystal": (32, 72.630e-3,
                   (4.82e-1, -4.42e-4, 2.10e-7, -4.87e-11, 4.32e-15)),
    "Inner Cu": (29, 63.546e-3,
                 (3.77e-2, -2.48e-5, 1.03e-8, -2.24e-12, 1.93e-16)),
    "Cu block + plate": (29, 63.546e-3,
                         (2.6e-3, 2.9e-7, -3.1e-10, 5.7e-14, -3.1e-18)),
    "Cu shield": (29, 63.546e-3,
                  (-1.01e-5, 7.8e-8, -2.07e-11, 1.61e-15)),
    "Pb shield": (82, 207.2e-3,
                  (-5.76e-4, 3.812e-6, -2.728e-9, 9.036e-13, -1.477e-16, 9.60e-21)),
}
WINDOW_KEV = (1000.0, 3800.0)

# Paper reference point and its published bound.
REFERENCE = {"z_c": 576, "z_b": 506, "a": 2.0986, "r_c": 1e-7}
REFERENCE_LAMBDA = 5.2e-13

# Tolerances, set from the method, not from today's output.
QUANTILE_RTOL = 1e-12      # bracket collapses to a few ulps; gammaincinv ~1e-15
A_RTOL = 1e-9              # adaptive Simpson runs at rel_tol 1e-11
SHAPE_RTOL = 1e-12         # same sums in another order, relative to the peak
PAIR_RTOL = 1e-10          # N*eps summation error, relative to the diagonal sum
SEP_RTOL = 1e-12
PRINTED_RTOL = 6e-4        # "%.3e" rounds to within 5e-4 relative
CSV_RTOL = 1e-12           # "%.16e" plus the oracle's own rounding
SLOPE_ATOL = 1e-9


def beta_constant(m0: float = M_PROTON) -> float:
    return HBAR * E_CHARGE ** 2 / (4.0 * math.pi ** 2 * EPS0 * C_LIGHT ** 3 * m0 ** 2)


def _rel(x: float, ref: float) -> float:
    return abs(x - ref) / abs(ref) if ref != 0.0 else abs(x)


def _close(x, ref, rtol, what):
    if x is None or not math.isfinite(x) or _rel(x, ref) > rtol:
        return f"{what} {x!r} != {ref!r} (rtol {rtol:g})"
    return None


# --- specfun / limits ---------------------------------------------------------

def count_quantile(z_c: int, credibility: float) -> float:
    from scipy.special import gammaincinv
    return float(gammaincinv(z_c + 1.0, credibility))


def check_upper_limit(result, z_c, z_b, a, r_c, credibility):
    """UpperLimit against gammaincinv; 'no limit' exactly where the budget <= 0."""
    lam_bar = count_quantile(z_c, credibility)
    budget = lam_bar - z_b - 2.0
    bad = _close(result.lambda_bar_c, lam_bar, QUANTILE_RTOL, "count quantile")
    if bad:
        return bad
    if abs(result.signal_quota - budget) > QUANTILE_RTOL * lam_bar:
        return f"signal quota {result.signal_quota!r} != {budget!r}"
    if abs(budget) <= QUANTILE_RTOL * lam_bar:
        return None  # on the no-limit boundary to within rounding: either flag holds
    if budget <= 0.0:
        if result.lambda_max is not None:
            return f"limit {result.lambda_max!r} reported for budget {budget!r}"
        return None
    return _close(result.lambda_max, budget * r_c ** 2 / a, QUANTILE_RTOL, "lambda_max")


def check_reference_limit(result):
    if result.lambda_max is None or _rel(result.lambda_max, REFERENCE_LAMBDA) > 0.02:
        return f"reference bound {result.lambda_max!r} not within 2% of 5.2e-13"
    return None


def check_exclusion(outcome, z_c, z_b, a, r_min, r_max, n, credibility):
    """Either a curve lambda = budget r^2/a (log-log slope 2) or 'no limit'."""
    budget = count_quantile(z_c, credibility) - z_b - 2.0
    if isinstance(outcome, Exception):
        if type(outcome).__name__ == "NoPositiveLimitError" and budget <= 0.0:
            return None
        return f"exclusion_curve raised {outcome!r} for budget {budget!r}"
    if budget <= 0.0:
        return f"curve returned for budget {budget!r}"
    pts = np.asarray(outcome.points, dtype=float)
    if pts.shape != (n, 2):
        return f"curve shape {pts.shape} != ({n}, 2)"
    r, lam = pts[:, 0], pts[:, 1]
    grid = np.logspace(math.log10(r_min), math.log10(r_max), n)
    if np.max(np.abs(r - grid) / grid) > CSV_RTOL:
        return "r_c grid is not log-uniform over the requested range"
    return check_power_law(r, lam, budget / a)


def check_power_law(r, lam, coeff):
    """lambda = coeff * r^2 pointwise, and slope 2 between neighbours."""
    r, lam = np.asarray(r, float), np.asarray(lam, float)
    ref = coeff * r ** 2
    if not np.all(np.isfinite(lam)) or np.max(np.abs(lam - ref) / ref) > CSV_RTOL:
        return "curve values differ from budget * r_c^2 / a"
    slope = np.diff(np.log(lam)) / np.diff(np.log(r))
    if np.max(np.abs(slope - 2.0)) > SLOPE_ATOL:
        return f"log-log slope {slope.min()!r}..{slope.max()!r} != 2"
    return None


# --- detector -------------------------------------------------------------------

def poly_integral_over_e(coeffs, lo, hi):
    """integral of sum_j c_j E^j / E dE = c0 ln(hi/lo) + sum_j c_j (hi^j - lo^j)/j."""
    total = coeffs[0] * math.log(hi / lo)
    for j, c in enumerate(coeffs[1:], start=1):
        total += c * (hi ** j - lo ** j) / j
    return total


def signal_constant(materials, window=WINDOW_KEV):
    """Closed-form a; materials are (n_protons, alpha, coeffs) triples."""
    beta = beta_constant()
    return sum(n * n * alpha * beta * poly_integral_over_e(c, *window)
               for n, alpha, c in materials)


def check_compute_a(a, materials):
    return _close(a, signal_constant(materials), A_RTOL, "signal constant a")


def shape_density(materials, energies):
    """Unnormalised sum_i N_i^2 alpha_i max(eps_i(E), 0) / E via numpy.polyval."""
    e = np.asarray(energies, float)
    total = np.zeros_like(e)
    for n, alpha, c in materials:
        total += n * n * alpha * np.maximum(np.polyval(c[::-1], e), 0.0)
    return total / e


def check_signal_shape(energies, density, materials, n_points, window=WINDOW_KEV):
    energies, density = np.asarray(energies, float), np.asarray(density, float)
    if energies.shape != (n_points,) or density.shape != (n_points,):
        return f"shape arrays have shapes {energies.shape}, {density.shape}"
    if np.max(np.abs(energies - np.linspace(*window, n_points))) > 1e-12 * window[1]:
        return "energies are not the uniform window grid"
    area = float(np.trapezoid(density, energies))
    if not abs(area - 1.0) <= SHAPE_RTOL * 10:
        return f"trapezoid area {area!r} != 1"
    ref = shape_density(materials, energies)
    ref = ref / np.trapezoid(ref, energies)
    if np.max(np.abs(density - ref)) > SHAPE_RTOL * np.max(ref):
        return "density is not proportional to sum N^2 alpha eps(E)/E"
    return None


# --- emission -------------------------------------------------------------------

def rate_scale(lam, energy_kev, m0=M_PROTON):
    """lam e^2 hbar / (6 pi^2 eps0 c^3 m0^2 E): turns the pair sum into 1/(keV s)."""
    return lam * E_CHARGE ** 2 * HBAR / (
        6.0 * math.pi ** 2 * EPS0 * C_LIGHT ** 3 * m0 ** 2 * energy_kev)


def pair_sums(q, pos, r_c, energy_kev, block=128):
    """(full double sum, diagonal sum, bound on |off-diagonal sum|) of
    q_i q_j exp(-d^2/4r_c^2)(3 - d^2/2r_c^2)/(2 r_c^2) sinc(b_ij).

    Row blocks keep the oracle's temporaries at O(N * block).  The bound
    uses |sinc b| <= min(1, 1/b).
    """
    q = np.asarray(q, float)
    pos = np.asarray(pos, float)
    k = energy_kev * KEV_J / (HBAR * C_LIGHT)
    two_rc2 = 2.0 * r_c * r_c
    full = 0.0
    bound = 0.0
    for start in range(0, len(q), block):
        rows = slice(start, start + block)
        d2 = np.sum((pos[rows, None, :] - pos[None, :, :]) ** 2, axis=-1)
        f = np.exp(-d2 / (2.0 * two_rc2)) * (3.0 - d2 / two_rc2) / two_rc2
        b = k * np.sqrt(d2)
        qq = q[rows, None] * q[None, :]
        full += float(np.sum(qq * f * np.sinc(b / math.pi)))
        off = np.abs(qq * f) * np.minimum(1.0, 1.0 / np.maximum(b, 1e-300))
        idx = np.arange(start, min(start + block, len(q)))
        off[idx - start, idx] = 0.0
        bound += float(np.sum(off))
    diag = float(np.sum(q * q)) * 3.0 / two_rc2
    return full, diag, bound


def check_rate_general(rate, q, pos, r_c, lam, energy_kev, incoherent=None):
    """rate_general against the NumPy double sum, tolerance relative to the
    diagonal sum (neutral systems cancel).  With ``incoherent`` given, also
    check |rate_general - rate_incoherent| within the off-diagonal bound."""
    full, diag, bound = pair_sums(q, pos, r_c, energy_kev)
    scale = rate_scale(lam, energy_kev)
    if rate is None or not math.isfinite(rate) or abs(rate - full * scale) > PAIR_RTOL * diag * scale:
        return f"rate_general {rate!r} != double sum {full * scale!r}"
    if incoherent is not None:
        bad = _close(incoherent, diag * scale, PAIR_RTOL, "rate_incoherent")
        if bad:
            return bad
        if abs(rate - incoherent) > (bound + PAIR_RTOL * diag) * scale:
            return (f"rate_general - rate_incoherent = {rate - incoherent!r} "
                    f"exceeds the cross-term bound {bound * scale!r}")
    return None


def regime_kind(max_sep, min_sep, reduced, r_c, theta=0.01):
    if max_sep < theta * min(reduced, r_c):
        return "coherent"
    if min_sep > reduced / theta or min_sep > r_c / theta:
        return "incoherent"
    return "mixed"


def check_regime(regime, pos, r_c, energy_kev):
    from scipy.spatial.distance import pdist
    seps = pdist(np.asarray(pos, float))
    reduced = HBAR * C_LIGHT / (energy_kev * KEV_J)
    for got, ref, what in ((regime.max_separation, float(seps.max()), "max separation"),
                           (regime.min_separation, float(seps.min()), "min separation"),
                           (regime.wavelength, 2.0 * math.pi * reduced, "wavelength")):
        bad = _close(got, ref, SEP_RTOL, what)
        if bad:
            return bad
    kind = regime_kind(float(seps.max()), float(seps.min()), reduced, r_c)
    if regime.kind.value != kind:
        return f"regime {regime.kind.value!r} != {kind!r}"
    return None


def atomic_rate(n_atoms, n_a, lam, r_c, energy_kev):
    """n_atoms (N_A^2 + N_A) atoms with the electron term, in 1/(keV s)."""
    amp = n_a * n_a + n_a
    pref = (HBAR * lam * E_CHARGE ** 2
            / (4.0 * math.pi ** 2 * EPS0 * M_PROTON ** 2 * r_c ** 2 * C_LIGHT ** 3))
    return pref * n_atoms * amp / energy_kev


# --- CLI reports ------------------------------------------------------------------

def report_value(text: str, label: str):
    """First number after ``label`` in a two-column report, or None."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(label):
            rest = stripped[len(label):].split()
            while rest and rest[0] in ("a_i", "="):
                rest = rest[1:]
            try:
                return float(rest[0])
            except (IndexError, ValueError):
                return None
    return None


def check_printed(text, label, ref, atol=0.0):
    """A "%.3e" report value against the oracle; ``atol`` covers cancellation."""
    got = report_value(text, label)
    if got is None or abs(got - ref) > PRINTED_RTOL * abs(ref) + atol:
        return f"{label} {got!r} != {ref!r} at the printed precision"
    return None


def parse_csv(text: str):
    lines = text.strip().splitlines()
    rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
    return lines[0], np.asarray(rows, float)
