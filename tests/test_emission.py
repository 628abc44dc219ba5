"""Emission-rate tests against independent numeric oracles.

The pair-correlation closed form is checked against high-precision
second derivatives of the smearing Gaussian (mpmath).  The angular
closed form is checked against direct quadrature of the underlying
sphere integral: with the separation along z and the correlation tensor
diag((f - f_z)/2, (f - f_z)/2, f_z), the azimuthal integral is trivial
and the polar part is sum_k C_kk (1 - n_k^2) cos(b u) integrated over
u = cos(theta) with Gauss-Legendre nodes.
"""

import dataclasses
import json
import math
import multiprocessing
import os
import random
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cslrad import emission
from cslrad.domain import M_NUCLEON, NoiseParams, Particle, ParticleSystem
from cslrad.emission import (
    RateDensity,
    RegimeKind,
    ValidityWarning,
    _PAIR_CUTOFF_X,
    _pair_weight,
    _sinc_array,
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

# constants retyped independently of the package
HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8
EPS0 = 8.8541878128e-12
E_CHARGE = 1.602176634e-19
KEV = 1.602176634e-16

NOISE = NoiseParams(lambda_collapse=1e-16, r_c=1e-7)


def proton(x=0.0, y=0.0, z=0.0):
    return Particle(charge_e=1.0, mass=M_NUCLEON, position=(x, y, z))


def omega_of(energy_kev):
    return energy_kev * KEV / HBAR


# --- coherence_factor -------------------------------------------------------

def test_coherence_factor_limits():
    assert coherence_factor(0.0) == 1.0
    assert abs(coherence_factor(math.pi)) < 1e-15
    b = 1e-8
    assert coherence_factor(b) == pytest.approx(1.0 - b * b / 6.0, abs=1e-18)


@given(st.floats(min_value=1e-4, max_value=1e6))
def test_coherence_factor_is_sinc(b):
    assert coherence_factor(b) == math.sin(b) / b


@given(st.floats(min_value=1e-12, max_value=9.99e-5))
def test_coherence_factor_series_region(b):
    # the plain quotient against mpmath sinc near 0, where both are ~1
    want = float(mp.sin(mp.mpf(b)) / mp.mpf(b))
    assert coherence_factor(b) == pytest.approx(want, rel=1e-15)


def test_sinc_array_is_the_scalar_sinc():
    # the pair kernel's array sinc, bit for bit, from 0 through the
    # subnormals and the region near 0 up to large arguments
    b = np.array([0.0, 5e-324, 1e-300, *np.geomspace(1e-12, 1e-4, 81),
                  1.0, math.pi, 1e6])
    want = np.array([coherence_factor(float(v)) for v in b])
    assert _sinc_array(b).tobytes() == want.tobytes()


def test_coherence_factor_rejects_negative():
    with pytest.raises(ValueError):
        coherence_factor(-0.1)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="b must be finite"):
            coherence_factor(bad)


# --- f_ij_point -------------------------------------------------------------

def _fij_oracle(d, m_i, m_j, r_c):
    # -m_i m_j d^2/da_k^2 exp(-|a|^2 / 4 r_c^2) at a = d, per axis
    with mp.workdps(40):
        dd = [mp.mpf(v) for v in d]
        denom = 4 * mp.mpf(r_c) ** 2

        def axis_term(k):
            def g(t):
                comps = list(dd)
                comps[k] = t
                s2 = comps[0] ** 2 + comps[1] ** 2 + comps[2] ** 2
                return mp.exp(-s2 / denom)

            return -mp.diff(g, dd[k], n=2)

        scale = mp.mpf(m_i) * mp.mpf(m_j)
        terms = [axis_term(k) for k in range(3)]
        total = float(scale * (terms[0] + terms[1] + terms[2]))
        along_z = float(scale * terms[2])
    return total, along_z


def test_fij_zero_separation():
    f_total, f_z = f_ij_point((0.0, 0.0, 0.0), M_NUCLEON, M_NUCLEON, 1e-7)
    want = 3.0 * M_NUCLEON ** 2 / (2.0 * 1e-14)
    assert f_total == pytest.approx(want, rel=1e-15)
    assert f_z == pytest.approx(want / 3.0, rel=1e-15)


def test_fij_gaussian_suppression():
    r_c = 1e-7
    f0, _ = f_ij_point((0.0, 0.0, 0.0), M_NUCLEON, M_NUCLEON, r_c)
    far, _ = f_ij_point((20.0 * r_c, 0.0, 0.0), M_NUCLEON, M_NUCLEON, r_c)
    assert abs(far) < 1e-40 * f0


def test_fij_matches_derivative_oracle():
    # 20 seeded draws kept away from the f_total zero crossing at
    # |d| = sqrt(6) r_c so the relative comparison is meaningful
    rng = np.random.default_rng(20260823)
    worst = 0.0
    for _ in range(20):
        r_c = 10.0 ** rng.uniform(-8.0, -6.0)
        m_i = 10.0 ** rng.uniform(-27.0, -25.0)
        m_j = 10.0 ** rng.uniform(-27.0, -25.0)
        d = tuple(rng.uniform(-1.3, 1.3) * r_c for _ in range(3))
        got_total, got_z = f_ij_point(d, m_i, m_j, r_c)
        want_total, want_z = _fij_oracle(d, m_i, m_j, r_c)
        worst = max(worst,
                    abs(got_total - want_total) / abs(want_total),
                    abs(got_z - want_z) / abs(want_z))
    assert worst < 1e-8


@given(st.tuples(st.floats(-3e-7, 3e-7), st.floats(-3e-7, 3e-7),
                 st.floats(-3e-7, 3e-7)))
def test_fij_even_in_separation(d):
    neg = tuple(-x for x in d)
    assert f_ij_point(d, M_NUCLEON, M_NUCLEON, 1e-7) == \
        f_ij_point(neg, M_NUCLEON, M_NUCLEON, 1e-7)


def test_fij_rejects_bad_r_c():
    with pytest.raises(ValueError):
        f_ij_point((0.0, 0.0, 0.0), M_NUCLEON, M_NUCLEON, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="r_c must be finite"):
            f_ij_point((0.0, 0.0, 0.0), M_NUCLEON, M_NUCLEON, bad)


# --- j_ij_expectation -------------------------------------------------------

_LEG_NODES, _LEG_WEIGHTS = np.polynomial.legendre.leggauss(160)


def _angular_oracle(b, f_total, f_z):
    u = _LEG_NODES
    c_perp = 0.5 * (f_total - f_z)
    weight = f_total - c_perp * (1.0 - u * u) - f_z * u * u
    return 0.5 * float(np.sum(_LEG_WEIGHTS * weight * np.cos(b * u)))


def test_jij_matches_sphere_quadrature():
    rng = np.random.default_rng(4133)
    worst = 0.0
    for _ in range(10):
        r_c = 10.0 ** rng.uniform(-8.0, -6.0)
        m_i = 10.0 ** rng.uniform(-27.0, -25.0)
        m_j = 10.0 ** rng.uniform(-27.0, -25.0)
        energy = rng.uniform(100.0, 3000.0)
        omega = omega_of(energy)
        sep = 10.0 ** rng.uniform(-16.0, math.log10(25.0 * C_LIGHT / omega))
        base = tuple(rng.uniform(-1e-9, 1e-9) for _ in range(3))
        r_i = base
        r_j = (base[0], base[1], base[2] + sep)
        # z-aligned separation, so the closed form's f_z really is the
        # along-separation component
        f_total, f_z = f_ij_point((0.0, 0.0, sep), m_i, m_j, r_c)
        got = j_ij_expectation(omega, r_i, r_j, f_total, f_z, NOISE,
                               (m_i, m_j))
        b = omega * sep / C_LIGHT
        prefactor = (8.0 * math.pi ** 2 * HBAR ** 2 * NOISE.lambda_collapse
                     / (M_NUCLEON ** 2 * m_i * m_j))
        want = prefactor * _angular_oracle(b, f_total, f_z)
        worst = max(worst, abs(got - want) / abs(want))
    assert worst < 1e-6


def test_jij_zero_separation_reduces_to_sinc_form():
    f_total, f_z = f_ij_point((0.0, 0.0, 0.0), M_NUCLEON, M_NUCLEON, 1e-7)
    omega = omega_of(1000.0)
    got = j_ij_expectation(omega, (0.0, 0.0, 0.0), (0.0, 0.0, 0.0),
                           f_total, f_z, NOISE, (M_NUCLEON, M_NUCLEON))
    prefactor = (8.0 * math.pi ** 2 * HBAR ** 2 * NOISE.lambda_collapse
                 / (M_NUCLEON ** 2 * M_NUCLEON * M_NUCLEON))
    want = prefactor * f_total * 2.0 / 3.0  # sinc(0) = 1
    assert got == pytest.approx(want, rel=1e-12)


def test_jij_linear_in_correlation():
    omega = omega_of(500.0)
    args = (omega, (0.0, 0.0, 0.0), (0.0, 0.0, 1e-13))
    zero = j_ij_expectation(*args, 0.0, 0.0, NOISE, (M_NUCLEON, M_NUCLEON))
    assert zero == 0.0
    one = j_ij_expectation(*args, 1.0, 0.3, NOISE, (M_NUCLEON, M_NUCLEON))
    two = j_ij_expectation(*args, 2.0, 0.6, NOISE, (M_NUCLEON, M_NUCLEON))
    assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_jij_symmetric_under_swap():
    f_total, f_z = f_ij_point((0.0, 0.0, 2e-13), 1.1e-27, 2.3e-27, 1e-7)
    omega = omega_of(800.0)
    a = j_ij_expectation(omega, (0.0, 0.0, 0.0), (0.0, 0.0, 2e-13),
                         f_total, f_z, NOISE, (1.1e-27, 2.3e-27))
    b = j_ij_expectation(omega, (0.0, 0.0, 2e-13), (0.0, 0.0, 0.0),
                         f_total, f_z, NOISE, (2.3e-27, 1.1e-27))
    assert a == pytest.approx(b, rel=1e-15)


def test_jij_rejects_bad_omega():
    with pytest.raises(ValueError):
        j_ij_expectation(0.0, (0, 0, 0), (0, 0, 0), 1.0, 0.3, NOISE,
                         (M_NUCLEON, M_NUCLEON))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="omega must be finite"):
            j_ij_expectation(bad, (0, 0, 0), (0, 0, 0), 1.0, 0.3, NOISE,
                             (M_NUCLEON, M_NUCLEON))


def test_isotropic_substitution_gap_at_intermediate_separation():
    # The sinc-only pair term assumes f_z = f_total / 3, exact at zero
    # separation.  At separation ~ r_c the true along-separation component
    # differs and the two-term form disagrees at the few-permille level.
    # This documents the size of the gap; nothing here resolves it.
    r_c = 1e-7
    sep = r_c
    f_total, f_z = f_ij_point((0.0, 0.0, sep), M_NUCLEON, M_NUCLEON, r_c)
    assert f_z / f_total == pytest.approx(0.2, rel=1e-12)  # not 1/3
    b = 0.5
    omega = b * C_LIGHT / sep
    full = j_ij_expectation(omega, (0.0, 0.0, 0.0), (0.0, 0.0, sep),
                            f_total, f_z, NOISE, (M_NUCLEON, M_NUCLEON))
    simplified = j_ij_expectation(omega, (0.0, 0.0, 0.0), (0.0, 0.0, sep),
                                  f_total, f_total / 3.0, NOISE,
                                  (M_NUCLEON, M_NUCLEON))
    gap = abs(full - simplified) / abs(simplified)
    assert 1e-3 < gap < 1e-2


# --- closed rates -----------------------------------------------------------

def test_single_proton_rate_constant_by_constant():
    # dGamma/dE = hbar lam e^2 / (4 pi^2 eps0 m0^2 r_c^2 c^3 E), per keV
    want = (HBAR * 1e-16 * E_CHARGE ** 2
            / (4.0 * math.pi ** 2 * EPS0 * M_NUCLEON ** 2 * 1e-14
               * C_LIGHT ** 3 * 1000.0))
    got = float(rate_incoherent([1.0], NOISE, 1000.0))
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(1.0273792806899096e-39, rel=1e-12)


def test_incoherent_amplification_linear():
    single = float(rate_incoherent([1.0], NOISE, 1000.0))
    assert float(rate_incoherent([], NOISE, 1000.0)) == 0.0
    assert float(rate_incoherent([1.0] * 7, NOISE, 1000.0)) == \
        pytest.approx(7.0 * single, rel=1e-14)


def test_coherent_amplification_quadratic():
    single = float(rate_coherent([1.0], NOISE, 1000.0))
    assert float(rate_coherent([1.0, -1.0], NOISE, 1000.0)) == 0.0
    assert float(rate_coherent([1.0] * 32, NOISE, 1000.0)) == \
        pytest.approx(1024.0 * single, rel=1e-14)


@pytest.mark.parametrize("rate_fn, charges", [
    (rate_incoherent, [1.0, 1.0, -1.0]),
    (rate_coherent, [1.0, 1.0, 1.0]),
])
def test_rate_energy_scaling(rate_fn, charges):
    r1 = float(rate_fn(charges, NOISE, 700.0))
    r2 = float(rate_fn(charges, NOISE, 1400.0))
    assert r2 == pytest.approx(0.5 * r1, rel=1e-14)


@pytest.mark.parametrize("rate_fn", [rate_incoherent, rate_coherent])
def test_rate_rejects_nonpositive_energy(rate_fn):
    with pytest.raises(ValueError):
        rate_fn([1.0], NOISE, 0.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="energy must be finite"):
            rate_fn([1.0], NOISE, bad)


@given(st.floats(min_value=1e-20, max_value=1e-10),
       st.floats(min_value=10.0, max_value=1e5))
def test_rate_linear_in_collapse_rate(lam, energy):
    base = NoiseParams(lambda_collapse=lam, r_c=1e-7)
    double = NoiseParams(lambda_collapse=2.0 * lam, r_c=1e-7)
    r1 = float(rate_incoherent([1.0, 1.0], base, energy))
    r2 = float(rate_incoherent([1.0, 1.0], double, energy))
    assert r2 == 2.0 * r1


@given(st.floats(min_value=1e-9, max_value=1e-5),
       st.floats(min_value=10.0, max_value=1e5))
def test_rate_inverse_square_in_r_c(r_c, energy):
    base = NoiseParams(lambda_collapse=1e-16, r_c=r_c)
    double = NoiseParams(lambda_collapse=1e-16, r_c=2.0 * r_c)
    r1 = float(rate_coherent([1.0, 1.0], base, energy))
    r2 = float(rate_coherent([1.0, 1.0], double, energy))
    assert r2 == pytest.approx(0.25 * r1, rel=1e-15)


# --- rate_atomic ------------------------------------------------------------

def test_atomic_amplification_values():
    assert atomic_amplification(32, include_electrons=True) == 1056.0
    assert atomic_amplification(32, include_electrons=False) == 1024.0
    assert atomic_amplification(1, include_electrons=True) == 2.0
    with pytest.raises(ValueError):
        atomic_amplification(0)
    for bad in (32.5, True, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="atomic number must be an integer"):
            atomic_amplification(bad)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf,
                                 pytest.param(10 ** 400, id="huge")])
def test_atomic_rate_rejects_non_finite_atoms(bad):
    with pytest.raises(ValueError, match="n_atoms must be finite"):
        rate_atomic(bad, 32, NOISE, 50.0)


@pytest.mark.parametrize("include_electrons", [True, False])
def test_atomic_amplification_rejects_overflow(include_electrons):
    with pytest.raises(ValueError, match="float64"):
        atomic_amplification(10 ** 180 + 7, include_electrons)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rate_density_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        RateDensity(bad)


def test_atomic_rate_rejects_overflow():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ValidityWarning)
        with pytest.raises(ValueError, match="not finite"):
            rate_atomic(1e300, 94, NOISE, 1e-300)


@pytest.mark.parametrize("r_c", [1e-300, 1e-150])
def test_closed_rates_reject_underflowing_r_c(r_c):
    noise = NoiseParams(lambda_collapse=1e-16, r_c=r_c)
    for rate in (rate_incoherent, rate_coherent):
        with pytest.raises(ValueError, match="underflows"):
            rate([1.0], noise, 50.0)
    with pytest.raises(ValueError, match="underflows"):
        rate_atomic(1e300, 94, noise, 50.0)


@pytest.mark.parametrize("r_c", [1.35e154, 1e160, 1.7976931348623157e308])
@pytest.mark.parametrize("rate", [
    lambda noise: rate_atomic(1.0, 32, noise, 50.0),
    lambda noise: rate_incoherent([1.0], noise, 50.0),
    lambda noise: rate_coherent([1.0, 1.0], noise, 50.0),
    lambda noise: rate_general(ParticleSystem((proton(), proton(1e-12))),
                               noise, 50.0),
], ids=["atomic", "incoherent", "coherent", "general"])
def test_rates_reject_overflowing_r_c(rate, r_c):
    # r_c^2 overflows float64: a ValueError naming r_c, not an OverflowError
    noise = NoiseParams(lambda_collapse=1e300, r_c=r_c)
    with pytest.raises(ValueError, match=r"r_c = .* too large"):
        rate(noise)


def test_general_rejects_r_c_whose_2_r_c_squared_overflows():
    # r_c^2 fits a float64 but 2 r_c^2 does not: the closed rates stay
    # finite, while rate_general names r_c instead of giving every pair
    # x = d^2 / inf = 0, a weight of 3 sinc (1.213x the rate of two
    # protons r_c apart)
    noise = NoiseParams(lambda_collapse=1e300, r_c=1.2e154)
    for rate in (rate_atomic(1.0, 32, noise, 50.0),
                 rate_incoherent([1.0], noise, 50.0),
                 rate_coherent([1.0, 1.0], noise, 50.0)):
        assert 0.0 < float(rate) < math.inf
    system = ParticleSystem((proton(), proton(1.2e154)))
    with pytest.raises(ValueError, match=r"r_c = 1\.2e\+154 m is too large"):
        rate_general(system, noise, 50.0)


def test_rate_below_the_r_c_overflow_is_finite():
    # the overflow guard leaves a representable rate alone
    noise = NoiseParams(lambda_collapse=1e300, r_c=1e150)
    got = float(rate_atomic(1.0, 32, noise, 50.0))
    assert got == pytest.approx(2.17e-33, rel=1e-2)


def test_atomic_rate_ratios_exact():
    single = float(rate_incoherent([1.0], NOISE, 50.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        on = float(rate_atomic(1, 32, NOISE, 50.0, include_electrons=True))
        off = float(rate_atomic(1, 32, NOISE, 50.0, include_electrons=False))
    assert on / single == pytest.approx(1056.0, rel=1e-12)
    assert off / single == pytest.approx(1024.0, rel=1e-12)


def test_atomic_rate_zero_atoms():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert float(rate_atomic(0, 32, NOISE, 50.0)) == 0.0


def test_atomic_rate_warns_outside_validity():
    with pytest.warns(ValidityWarning, match="validity range"):
        rate_atomic(1, 32, NOISE, 5.0, include_electrons=False)
    with pytest.warns(ValidityWarning, match="relativistic"):
        rate_atomic(1, 32, NOISE, 1000.0, include_electrons=True)


def test_atomic_rate_quiet_in_validity_range():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate_atomic(1, 32, NOISE, 50.0, include_electrons=True)
        rate_atomic(1, 32, NOISE, 3000.0, include_electrons=False)


# --- rate_general -----------------------------------------------------------

def test_general_single_proton_equals_incoherent():
    got = float(rate_general(ParticleSystem((proton(),)), NOISE, 1000.0))
    want = float(rate_incoherent([1.0], NOISE, 1000.0))
    assert got == pytest.approx(want, rel=1e-14)


def test_general_zero_separation_equals_coherent():
    system = ParticleSystem((proton(), proton()))
    got = float(rate_general(system, NOISE, 1000.0))
    want = float(rate_coherent([1.0, 1.0], NOISE, 1000.0))
    assert got == pytest.approx(want, rel=1e-12)


def test_general_close_pair_sinc_correction():
    # at 1e-15 m the pair is coherent up to the sinc factor; the exact
    # expectation is 2 + 2 sinc(omega d / c), a 2.1e-6 correction on 4
    d = 1e-15
    system = ParticleSystem((proton(), proton(d)))
    ratio = float(rate_general(system, NOISE, 1000.0)) / \
        float(rate_incoherent([1.0], NOISE, 1000.0))
    b = omega_of(1000.0) * d / C_LIGHT
    assert ratio == pytest.approx(2.0 + 2.0 * math.sin(b) / b, rel=1e-9)
    assert abs(ratio - 4.0) > 1e-7  # genuinely not 4 at this separation


def test_general_far_pair_equals_incoherent():
    system = ParticleSystem((proton(), proton(1.0)))
    got = float(rate_general(system, NOISE, 1000.0))
    want = float(rate_incoherent([1.0, 1.0], NOISE, 1000.0))
    assert got == pytest.approx(want, rel=1e-3)


def test_general_large_b_cluster_equals_incoherent():
    # pairwise separations ~1e-9 m give b ~ 5e3 at 1000 keV
    system = ParticleSystem((proton(0.0, 0.0, 0.0),
                             proton(1e-9, 0.0, 0.0),
                             proton(0.0, 1.2e-9, 0.0)))
    got = float(rate_general(system, NOISE, 1000.0))
    want = float(rate_incoherent([1.0, 1.0, 1.0], NOISE, 1000.0))
    assert got == pytest.approx(want, rel=1e-3)


def test_general_neutral_pair_at_origin_cancels():
    electronish = Particle(charge_e=-1.0, mass=M_NUCLEON, position=(0, 0, 0))
    system = ParticleSystem((proton(), electronish))
    assert float(rate_general(system, NOISE, 1000.0)) == 0.0


@given(st.integers(min_value=1, max_value=5),
       st.floats(min_value=-15.0, max_value=-6.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_general_positive_for_same_sign_clusters(n, log_scale, seed):
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    parts = tuple(
        proton(*(rng.uniform(-scale, scale) for _ in range(3)))
        for _ in range(n)
    )
    assert float(rate_general(ParticleSystem(parts), NOISE, 1000.0)) >= 0.0


def test_general_value_is_a_python_float():
    system = ParticleSystem((proton(), proton(1e-12)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        density = rate_general(system, NOISE, 1000.0)
        assert type(density.value) is float
        assert type(float(density)) is float


def _general_pair_sum_by_loop(particles, noise, energy_kev):
    """(sum_ij, sum_i) of q_i q_j e^2 / (m_i m_j) f_ij sinc(b_ij), pair by pair."""
    k = omega_of(energy_kev) / C_LIGHT
    off_diagonal = diagonal = 0.0
    for i, p in enumerate(particles):
        for q in particles[i:]:
            d = tuple(a - b for a, b in zip(p.position, q.position))
            f_ij, _ = f_ij_point(d, p.mass, q.mass, noise.r_c)
            term = (p.charge_e * q.charge_e * E_CHARGE ** 2 / (p.mass * q.mass)
                    * f_ij * coherence_factor(k * math.dist(p.position, q.position)))
            if q is p:
                diagonal += term
            else:
                off_diagonal += term
    return diagonal + 2.0 * off_diagonal, diagonal


# Each example runs an O(N^2) Python loop, so a failure is reported as
# drawn: shrinking would re-run that loop hundreds of times.
@settings(max_examples=15, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(min_value=150, max_value=400),
       st.floats(min_value=-16.0, max_value=-6.0),
       st.floats(min_value=10.0, max_value=1e5),
       st.booleans(),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_general_matches_pair_loop_across_blocks(n, log_scale, energy, neutral,
                                                 seed):
    # systems large enough to span several row blocks of the pair kernel,
    # some neutral and some with coincident particles
    rng = np.random.default_rng(seed)
    scale = 10.0 ** log_scale
    pos = rng.uniform(-scale, scale, (n, 3))
    pos[rng.integers(0, n, n // 10)] = pos[0]
    charges = rng.choice([-2.0, -1.0, 1.0, 2.0], n)
    if neutral:
        half = n // 2
        charges[half:2 * half] = -charges[:half]
        charges[2 * half:] = 0.0
    masses = M_NUCLEON * rng.uniform(0.0005, 240.0, n)
    parts = [Particle(float(q), float(m), tuple(x))
             for q, m, x in zip(charges, masses, pos.tolist())]
    total, diagonal = _general_pair_sum_by_loop(parts, NOISE, energy)
    scale_to_rate = (HBAR * NOISE.lambda_collapse * KEV
                     / (6.0 * math.pi ** 2 * EPS0 * C_LIGHT ** 3
                        * M_NUCLEON ** 2 * omega_of(energy) * HBAR))
    got = float(rate_general(ParticleSystem(parts), NOISE, energy))
    # relative to the diagonal sum, since a neutral system cancels
    assert abs(got - total * scale_to_rate) <= 1e-10 * diagonal * scale_to_rate

    regime = classify_regime(ParticleSystem(parts), NOISE, energy)
    seps = [math.dist(parts[i].position, parts[j].position)
            for i in range(n) for j in range(i + 1, n)]
    assert regime.min_separation == 0.0 == min(seps)
    assert regime.max_separation == pytest.approx(max(seps), rel=1e-14)


def test_pair_kernel_raises_on_overflowing_separations():
    # |d|^2 overflows float64 past ~1.3e154 m; no finite answer is reported
    # and NumPy's overflow warning stays inside the walk
    system = ParticleSystem((proton(1e160), proton(-1e160)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="overflow"):
            rate_general(system, NOISE, 1000.0)
        with pytest.raises(ValueError, match="overflow"):
            classify_regime(system, NOISE, 1000.0)


def test_pair_kernel_raises_on_overflow_in_a_mixed_block():
    # the overflowing pairs sit past the cutoff, beside a near pair the
    # kernel does evaluate; the cutoff must not turn inf into a 0 weight
    system = ParticleSystem((proton(), proton(1e-12), proton(1e160)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="pair separations overflow"):
            rate_general(system, NOISE, 1000.0)
        # the failed walk kept nothing, so the regime walks and raises itself
        assert system._d2_extremes == {}
        with pytest.raises(ValueError, match="pair separations overflow"):
            classify_regime(system, NOISE, 1000.0)


def test_pair_kernel_raises_on_overflow_after_held_mixed_blocks(monkeypatch):
    # a 300-charge lattice, then +-1e154 m on the x axis: every block is
    # mixed, and only the last, which holds the pair of far charges,
    # overflows d^2; the 3 blocks before it are held, not yet weighed
    lattice, noise, energy = _pinned_case("lattice-then-clump")
    system = ParticleSystem(lattice.particles[:300] + (proton(1e154), proton(-1e154)))
    assert len(list(emission._block_bounds(len(system)))) == 4
    weigh, weighed = emission._pair_weight, []

    def counted(d2, two_rc2, k):
        weighed.append(d2.size)
        return weigh(d2, two_rc2, k)

    monkeypatch.setattr(emission, "_pair_weight", counted)
    with pytest.raises(ValueError, match="pair separations overflow"):
        rate_general(system, noise, energy)
    assert weighed == []
    assert system._d2_extremes == {}
    # nothing held is left over for the next walk
    assert (_pinned_bits_of("lattice-then-clump")
            == _PINNED_BITS["lattice-then-clump"])
    assert weighed


def _ball_point(rng, radius):
    while True:
        v = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        if sum(c * c for c in v) <= 1.0:
            return tuple(radius * c for c in v)


def _pinned_case(name):
    """(system, noise, energy in keV) of one pinned pair-kernel case.

    Drawn from Python's random, whose seeded stream is stable across
    versions, so the pinned bits below are the kernel's alone.
    """
    rng = random.Random(name)
    if name == "dense-ball":  # every pair near, sinc arguments ~1
        r_c, energy = 1e-7, 500.0
        parts = [Particle(rng.choice((-1.0, 1.0)), M_NUCLEON,
                          _ball_point(rng, 3e-13))
                 for _ in range(60)]
    elif name == "dense-ball-400":  # every pair near, over several row blocks
        r_c, energy = 1e-12, 300.0
        parts = [Particle(rng.choice((-2.0, -1.0, 1.0, 2.0)), M_NUCLEON,
                          _ball_point(rng, 0.3 * r_c))
                 for _ in range(400)]
    elif name == "sparse-clumps":  # a lattice 20 r_c apart: mixed blocks
        r_c, energy = 1e-8, 50.0
        sites = rng.sample(range(8 ** 3), 280)
        parts = [Particle(rng.choice((-1.0, 1.0)), M_NUCLEON,
                          tuple(20.0 * r_c * (site // 8 ** a % 8
                                              + rng.uniform(-0.1, 0.1))
                                for a in range(3)))
                 for site in sites]
        for centre in parts[:4]:
            parts += [Particle(rng.choice((-1.0, 1.0)), M_NUCLEON,
                               tuple(c + o for c, o in zip(
                                   centre.position, _ball_point(rng, 1.5 * r_c))))
                      for _ in range(5)]
    elif name == "neutral":
        r_c, energy = 1e-7, 100.0
        parts = [Particle(q, M_NUCLEON,
                          tuple(rng.uniform(0.0, 2e-12) for _ in range(3)))
                 for _ in range(40) for q in (1.0, -1.0)]
    elif name == "single":
        r_c, energy = 1e-7, 1234.5
        parts = [Particle(2.0, M_NUCLEON, (1e-9, -2e-9, 3e-9))]
    elif name == "pair":
        r_c, energy = 1e-7, 30.0
        parts = [Particle(1.0, M_NUCLEON),
                 Particle(-1.0, 9.1093837015e-31, (1e-10, 0.0, 0.0))]
    elif name.startswith("lattice-then-clump"):
        # 300 lattice charges 20 r_c apart, then a 200-charge clump at the
        # lattice centre: the walk's first 7 row blocks mix near and cut
        # pairs, its last 2 (clump against clump) are all near
        r_c, energy = 1e-8, 50.0
        sites = rng.sample(range(7 ** 3), 300)
        parts = [Particle(rng.choice((-1.0, 1.0)), M_NUCLEON,
                          tuple(20.0 * r_c * (site // 7 ** a % 7
                                              + rng.uniform(-0.1, 0.1))
                                for a in range(3)))
                 for site in sites]
        parts += [Particle(rng.choice((-1.0, 1.0)), M_NUCLEON,
                           tuple(60.0 * r_c + c for c in _ball_point(rng, 5.0 * r_c)))
                  for _ in range(200)]
        if name.endswith("zero-coincident"):  # both in the first, mixed block
            parts[10] = Particle(0.0, M_NUCLEON, parts[10].position)
            parts[21] = Particle(parts[21].charge_e, M_NUCLEON, parts[20].position)
    else:  # "box-500": several row blocks, spanning ~3 cutoff lengths
        r_c, energy = 1e-9, 2000.0
        parts = [Particle(rng.choice((-2.0, -1.0, 1.0, 2.0)), M_NUCLEON,
                          tuple(rng.uniform(0.0, 100.0 * r_c) for _ in range(3)))
                 for _ in range(500)]
    return ParticleSystem(tuple(parts)), NoiseParams(1e-16, r_c), energy


# rate_general's value and classify_regime's kind, maximum and minimum
# separation and wavelength, as float.hex, from the blocked kernel as
# first written (a boolean-mask cutoff and a regime pass of its own).
# The lattice-then-clump walks mix both block kinds; their bits come from
# the kernel that formed x over every block and weighed each block's near
# pairs on their own, and guard the block-order sum, the self-pair
# diagonal and the smallest separation taken from a block's near pairs.
# dense-ball-400 spans 6 row blocks with every pair near, the walk that
# helper threads share; its bits come from the single-thread kernel.
_PINNED_BITS = {
    "dense-ball": ("0x1.729a80f8cfebbp-124", "MIXED", "0x1.45f1338acd870p-41",
                   "0x1.021be326ed4f9p-46", "0x1.5cfc07c346cddp-39"),
    "dense-ball-400": ("0x1.e1ee0161575e8p-87", "MIXED", "0x1.4bd183287bf54p-41",
                       "0x1.7c11af43e22f6p-48", "0x1.22d2067810563p-38"),
    "sparse-clumps": ("0x1.99aeef39f30cfp-111", "INCOHERENT", "0x1.415dd276a44d0p-19",
                      "0x1.ee2999b048a70p-30", "0x1.b43b09b418814p-36"),
    "neutral": ("0x1.82a87764dbdc1p-123", "MIXED", "0x1.97331482a4abdp-39",
                "0x1.243265a431dcep-44", "0x1.b43b09b418814p-37"),
    "single": ("0x1.21fcc577d5d1bp-128", "COHERENT", "0x0.0p+0", "0x0.0p+0",
               "0x1.1ab167a62aa18p-40"),
    "pair": ("0x1.690b2f5082597p-124", "MIXED", "0x1.b7cdfd9d7bdbbp-34",
             "0x1.b7cdfd9d7bdbbp-34", "0x1.6b868816146bbp-35"),
    "box-500": ("0x1.111fd00c7d9afp-107", "INCOHERENT", "0x1.59dbe550ad4e0p-23",
                "0x1.18ef3892a9f34p-29", "0x1.5cfc07c346cddp-41"),
    "lattice-then-clump": ("0x1.5568c918871eap-110", "INCOHERENT",
                           "0x1.177e7258968b5p-19", "0x1.cf1bb984bd90dp-30",
                           "0x1.b43b09b418814p-36"),
    "lattice-then-clump-zero-coincident": ("0x1.5614fcda18774p-110", "MIXED",
                                           "0x1.17c17cf826fadp-19", "0x0.0p+0",
                                           "0x1.b43b09b418814p-36"),
}


def _pinned_bits_of(name, rate_first=True):
    """The pinned fields of one case, from a rate and a regime in either order."""
    system, noise, energy = _pinned_case(name)
    if rate_first:
        rate = rate_general(system, noise, energy)
        regime = classify_regime(system, noise, energy)
    else:
        regime = classify_regime(system, noise, energy)
        rate = rate_general(system, noise, energy)
    assert regime.r_c == noise.r_c
    return (rate.value.hex(), regime.kind.name, regime.max_separation.hex(),
            regime.min_separation.hex(), regime.wavelength.hex())


@pytest.mark.parametrize("rate_first", [True, False],
                         ids=["rate-first", "regime-first"])
@pytest.mark.parametrize("name", sorted(_PINNED_BITS))
def test_pair_kernel_pinned_bits(name, rate_first):
    assert _pinned_bits_of(name, rate_first) == _PINNED_BITS[name]


def axes_of(system):
    """A system's positions as the pair walk reads them: rows x, y, z."""
    return np.ascontiguousarray(system._positions.T)


def whole_blocks(system, near_d2):
    """Per row block of the pair walk, in order: whether every d^2 is below near_d2."""
    axes = axes_of(system)
    return [emission._block_d2(axes, start, stop)[1] < near_d2
            for start, stop in emission._block_bounds(len(system))]


def test_lattice_then_clump_walk_mixes_both_block_kinds():
    # the precondition of the lattice-then-clump bits: 7 mixed blocks,
    # then 2 whole ones
    system, noise, _ = _pinned_case("lattice-then-clump")
    near_d2 = _PAIR_CUTOFF_X * (2.0 * noise.r_c * noise.r_c)
    assert whole_blocks(system, near_d2) == [False] * 7 + [True] * 2


# --- the walk's helper threads ---------------------------------------------

TESTS = Path(__file__).resolve().parent
SRC = Path(emission.__file__).resolve().parents[1]


def run_child(code, *args, **env_vars):
    """Run code in a fresh Python that imports these tests and the cslrad under test."""
    paths = [str(TESTS), str(SRC), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, **env_vars,
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    result = subprocess.run([sys.executable, "-c", code, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


def test_dense_ball_400_is_a_walk_that_helpers_share(monkeypatch):
    # the precondition of its pinned bits: 6 whole blocks, every pair near
    system, noise, _ = _pinned_case("dense-ball-400")
    near_d2 = _PAIR_CUTOFF_X * (2.0 * noise.r_c * noise.r_c)
    assert whole_blocks(system, near_d2) == [True] * 6
    monkeypatch.setattr(emission, "_usable_cpus", lambda: 4)
    assert emission._walk_threads(axes_of(system), near_d2) == 4
    # one block (128 charges at most), a box diagonal past the cutoff or
    # past float64: the calling thread alone
    for n, threads in ((128, 1), (129, 4)):
        assert emission._walk_threads(
            axes_of(ParticleSystem(system.particles[:n])), near_d2) == threads
    lattice, lattice_noise, _ = _pinned_case("lattice-then-clump")
    assert emission._walk_threads(
        axes_of(lattice), _PAIR_CUTOFF_X * (2.0 * lattice_noise.r_c ** 2)) == 1
    far = ParticleSystem((proton(-1e160), proton(1e160), proton()) * 50)
    assert emission._walk_threads(axes_of(far), 1e308) == 1


# The bounding-box argument of _walk_threads, where it is tightest: two
# charges at opposite corners of the box make the walk's largest d^2 the
# box's own, and the box is scaled to within a few ulps of the cutoff.
@settings(max_examples=60)
@given(st.integers(min_value=129, max_value=400),
       st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=-12.0, max_value=-6.0),
       st.integers(min_value=-6, max_value=6))
def test_a_shared_walk_has_only_whole_blocks(n, seed, log_r_c, ulps):
    rng = np.random.default_rng(seed)
    near_d2 = _PAIR_CUTOFF_X * (2.0 * (10.0 ** log_r_c) ** 2)
    unit = rng.uniform(-1.0, 1.0, (n, 3))
    corners = rng.choice(n, 2, replace=False)
    unit[corners] = unit.min(axis=0), unit.max(axis=0)
    side = unit.max(axis=0) - unit.min(axis=0)
    scale = math.sqrt(near_d2 / float(side @ side)) * (1.0 + ulps * 2.0 ** -52)
    system = ParticleSystem(tuple(Particle(1.0, M_NUCLEON, tuple(x))
                                  for x in (scale * unit).tolist()))
    with mock.patch.object(emission, "_usable_cpus", lambda: 2):
        shared = emission._walk_threads(axes_of(system), near_d2) > 1
    if shared:
        assert all(whole_blocks(system, near_d2))


_CHILD_PINNED_BITS = """
import json, os, sys, threading
if sys.argv[1:] == ["one-cpu"]:  # before NumPy loads, so OpenBLAS sees one CPU too
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from test_emission import _PINNED_BITS, _pinned_bits_of
print(json.dumps({name: [_pinned_bits_of(name, first) for first in (True, False)]
                  for name in _PINNED_BITS}))
print(threading.active_count())
"""


def pinned_bits_in_a_child(*args, **env_vars):
    """Every pinned case's bits, in both call orders, and the thread count after."""
    bits, threads = run_child(_CHILD_PINNED_BITS, *args, **env_vars).splitlines()
    assert json.loads(bits) == {name: [list(want)] * 2
                                for name, want in _PINNED_BITS.items()}
    return int(threads)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="needs os.sched_setaffinity")
def test_pinned_bits_on_one_cpu():
    # only the child is restricted, so it walks with no helper thread
    assert pinned_bits_in_a_child("one-cpu") == 1


def test_pinned_bits_with_one_blas_thread():
    # a dense walk's threads each run a single-threaded OpenBLAS gemv
    pinned_bits_in_a_child(OPENBLAS_NUM_THREADS="1")


def test_pinned_bits_without_sched_getaffinity(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert emission._usable_cpus() == (os.cpu_count() or 1)
    for rate_first in (True, False):
        assert (_pinned_bits_of("dense-ball-400", rate_first)
                == _PINNED_BITS["dense-ball-400"])


def _send_pinned_bits(conn):
    conn.send((_pinned_bits_of("dense-ball-400"), threading.active_count()))
    conn.close()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_a_forked_child_walks_with_helpers_of_its_own(monkeypatch):
    # helpers run in this process first; the child has none of them, and
    # must not wait for them
    monkeypatch.setattr(emission, "_usable_cpus", lambda: 2)
    want = _PINNED_BITS["dense-ball-400"]
    assert _pinned_bits_of("dense-ball-400") == want
    assert emission._helpers_started >= 1
    context = multiprocessing.get_context("fork")
    reader, writer = context.Pipe(duplex=False)
    with warnings.catch_warnings():  # forking a threaded process warns on 3.12+
        warnings.simplefilter("ignore", DeprecationWarning)
        child = context.Process(target=_send_pinned_bits, args=(writer,))
        child.start()
    writer.close()
    try:
        assert reader.poll(60), "the forked child did not finish its walk"
        bits, child_threads = reader.recv()
    finally:
        child.join(60)
        if child.is_alive():
            child.kill()
    assert child.exitcode == 0
    assert bits == want
    assert child_threads == 2  # its own thread and the one helper it started


def test_an_error_on_a_helper_reaches_the_caller(monkeypatch):
    system, noise, energy = _pinned_case("dense-ball-400")
    monkeypatch.setattr(emission, "_usable_cpus", lambda: 2)
    weigh, helper_failed = emission._pair_weight, threading.Event()

    def fail_on_a_helper(d2, two_rc2, k):
        if threading.current_thread() is not threading.main_thread():
            helper_failed.set()
            raise ValueError("weighed on a helper")
        assert helper_failed.wait(30), "no helper took a block"
        return weigh(d2, two_rc2, k)

    monkeypatch.setattr(emission, "_pair_weight", fail_on_a_helper)
    with pytest.raises(ValueError, match="weighed on a helper"):
        rate_general(system, noise, energy)
    assert system._d2_extremes == {}
    # the helpers serve the next walk as before
    monkeypatch.setattr(emission, "_pair_weight", weigh)
    assert _pinned_bits_of("dense-ball-400") == _PINNED_BITS["dense-ball-400"]


def test_concurrent_walks_keep_their_bits(monkeypatch):
    # three callers' walks at once, two of them shared: the helpers' queue
    # holds shares of different walks side by side, and a block claimed
    # twice or not at all would change a sum's bits
    monkeypatch.setattr(emission, "_usable_cpus", lambda: 2)
    names = ["dense-ball-400", "dense-ball-400", "lattice-then-clump"]
    start, results = threading.Barrier(len(names)), {}

    def run(slot):
        start.wait(30)
        try:
            results[slot] = _pinned_bits_of(names[slot])
        except Exception as exc:  # reported on the main thread below
            results[slot] = exc

    others = [threading.Thread(target=run, args=(slot,)) for slot in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads between the claims' bytecodes
    try:
        for thread in others:
            thread.start()
        run(0)
        for thread in others:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in others)
    assert results == {slot: _PINNED_BITS[name] for slot, name in enumerate(names)}
    assert _pinned_bits_of("dense-ball-400") == _PINNED_BITS["dense-ball-400"]


_THREAD_HYGIENE = """
import contextlib, io, json, os, sys, threading
import cslrad
steps = [("import cslrad", threading.active_count())]
from cslrad import cli
inventory, system_file = sys.argv[1:]
for argv in (["limit"], ["exclusion", "--n-points", "20"],
             ["signal", "--inventory", inventory],
             ["shape", "--inventory", inventory, "--n-points", "20"],
             ["efficiency", "--material", "Ge crystal", "--energy", "1000"],
             ["rate", "--atoms", "1e20", "--na", "32", "--energy", "50"],
             ["rate", "--system", system_file], ["regime", "--system", system_file]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0, argv
    steps.append((" ".join(argv[:2]), threading.active_count()))
from test_emission import _pinned_case
from cslrad.emission import classify_regime, rate_general
for walk, name in ((classify_regime, "dense-ball-400"),
                   (rate_general, "lattice-then-clump"),
                   (rate_general, "dense-ball-400"), (rate_general, "dense-ball-400")):
    before = set(threading.enumerate())
    walk(*_pinned_case(name))
    steps.append((name, [t.daemon for t in set(threading.enumerate()) - before]))
cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count())
print(json.dumps({"steps": steps, "cpus": cpus}))
"""


def test_only_a_shared_walk_starts_threads(tmp_path):
    system_file = tmp_path / "system.json"
    system_file.write_text(json.dumps([
        {"charge_e": 1.0, "mass_kg": M_NUCLEON, "position_m": [1e-9 * i, 0.0, 0.0]}
        for i in range(3)]))
    inventory = SRC.parent / "scripts" / "data" / "ge_target_inventory.json"
    out = json.loads(run_child(_THREAD_HYGIENE, str(inventory), str(system_file)))
    *quiet, regime, sparse, dense, again = out["steps"]
    assert all(threads == 1 for _, threads in quiet), quiet
    assert regime == ["dense-ball-400", []]
    assert sparse == ["lattice-then-clump", []]
    assert dense[0] == "dense-ball-400"
    assert dense[1] == [True] * (min(out["cpus"], 6) - 1)  # daemon helpers
    assert again == ["dense-ball-400", []]


@pytest.mark.parametrize("name", ["dense-ball", "sparse-clumps", "box-500"])
def test_regime_after_a_rate_is_the_regime_of_a_fresh_system(name):
    system, noise, energy = _pinned_case(name)
    rate_general(system, noise, 10.0)
    assert system._d2_extremes  # the rate's walk saw every pair
    fresh = ParticleSystem(system.particles)
    want = classify_regime(fresh, noise, energy)
    assert classify_regime(system, noise, energy) == want
    assert classify_regime(system, noise, energy) == want


def test_kept_extremes_leave_equality_hash_and_repr_alone():
    system, noise, _ = _pinned_case("neutral")
    other = ParticleSystem(system.particles)
    classify_regime(system, noise, 100.0)
    assert system._d2_extremes and not other._d2_extremes
    assert system == other
    assert hash(system) == hash(other)
    assert repr(system) == repr(other)
    assert "_d2_extremes" not in repr(system)


def test_a_replaced_system_keeps_no_extremes():
    system, noise, energy = _pinned_case("pair")
    rate_general(system, noise, energy)
    assert dataclasses.replace(system)._d2_extremes == {}
    moved = dataclasses.replace(system, particles=(proton(), proton(1e-15)))
    assert classify_regime(moved, noise, energy).max_separation == 1e-15


@pytest.mark.parametrize("r_c", [1e-300, 1e-150])
def test_general_rejects_underflowing_r_c(r_c):
    # 2 r_c^2 underflows (1e-300) or the closed rates already refuse r_c
    # (1e-150); either way the error names r_c, with no NumPy warning
    noise = NoiseParams(lambda_collapse=1e-16, r_c=r_c)
    system = ParticleSystem((proton(), proton(1e-12)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"r_c = .* too small"):
            rate_general(system, noise, 1000.0)


def test_pair_cutoff_weight_is_exactly_zero():
    # the cutoff is where float64 exp underflows, so cut pairs weigh 0.0
    assert np.exp(-0.5 * _PAIR_CUTOFF_X) == 0.0


# At the first two r_c the rounded product cutoff * 2 r_c^2 is one ulp
# above and below the smallest d^2 whose x = d^2 / (2 r_c^2) reaches the
# cutoff, so the walk keeps or cuts one d^2 the quotient would not.
@pytest.mark.parametrize("r_c", [1.0220661985957873e-09, 1.0882647943831494e-09,
                                 1e-140, 1e-8, 1e-7, 0.7, 1e152, 1e154, 1e160])
def test_pairs_near_the_cut_weigh_exactly_zero(r_c):
    # the walk cuts at d^2 >= cutoff * 2 r_c^2; every d^2 within 64 ulps of
    # that product weighs exactly 0.0, so where the rounded product puts the
    # cut changes no bit of the sum
    two_rc2 = 2.0 * r_c * r_c
    cut = _PAIR_CUTOFF_X * two_rc2
    d2 = below = above = min(cut, 1.7976931348623157e308)
    near = [d2]
    for _ in range(64):
        below = math.nextafter(below, 0.0)
        above = math.nextafter(above, math.inf)
        near += [d2 for d2 in (below, above) if math.isfinite(d2)]
    near = np.array(near)
    if math.isfinite(cut):
        for k in (0.0, omega_of(1000.0) / C_LIGHT):
            assert not _pair_weight(near, two_rc2, k).any()
    else:  # 2 r_c^2 or the product overflows: the walk cuts no pair
        assert (near < cut).all()


# Each example runs an O(N^2) Python loop, so a failure is reported as
# drawn: shrinking would re-run that loop hundreds of times.
@settings(max_examples=10, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(st.integers(min_value=150, max_value=400),
       st.floats(min_value=20.0, max_value=60.0),
       st.floats(min_value=10.0, max_value=1e5),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_general_matches_pair_loop_across_the_cutoff(n, spacing, energy, seed):
    # a jittered lattice >= 20 r_c apart spans ~10 cutoff lengths, so the
    # row blocks mix cut pairs with near lattice neighbours and clumps
    rng = np.random.default_rng(seed)
    side = math.ceil(n ** (1.0 / 3.0)) + 1
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"),
                    -1).reshape(-1, 3)
    pos = grid[rng.choice(len(grid), n, replace=False)] * spacing
    pos += rng.uniform(-0.05 * spacing, 0.05 * spacing, (n, 3))
    for centre in rng.choice(n, 4, replace=False):  # tight clumps
        members = rng.choice(n, 6, replace=False)
        pos[members] = pos[centre] + rng.normal(scale=0.5, size=(6, 3))
    pos *= NOISE.r_c
    charges = rng.choice([-2.0, -1.0, 1.0, 2.0], n)
    masses = M_NUCLEON * rng.uniform(0.0005, 240.0, n)
    parts = [Particle(float(q), float(m), tuple(x))
             for q, m, x in zip(charges, masses, pos.tolist())]
    seps = [math.dist(parts[i].position, parts[j].position)
            for i in range(n) for j in range(i + 1, n)]
    cut = math.sqrt(2.0 * _PAIR_CUTOFF_X) * NOISE.r_c
    assert min(seps) < cut < max(seps)

    total, diagonal = _general_pair_sum_by_loop(parts, NOISE, energy)
    scale_to_rate = (HBAR * NOISE.lambda_collapse * KEV
                     / (6.0 * math.pi ** 2 * EPS0 * C_LIGHT ** 3
                        * M_NUCLEON ** 2 * omega_of(energy) * HBAR))
    got = float(rate_general(ParticleSystem(parts), NOISE, energy))
    assert abs(got - total * scale_to_rate) <= 1e-10 * diagonal * scale_to_rate


def test_general_rejects_nonpositive_energy():
    with pytest.raises(ValueError):
        rate_general(ParticleSystem((proton(),)), NOISE, -5.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="energy must be finite"):
            rate_general(ParticleSystem((proton(),)), NOISE, bad)


@pytest.mark.parametrize("charge", [1.0, -1.0, 2.0, -26.0, 92.0])
@pytest.mark.parametrize("energy", [10.0, 777.0, 1234.5, 3.3e4])
def test_general_single_charge_is_exactly_incoherent(charge, energy):
    system = ParticleSystem((Particle(charge_e=charge, mass=M_NUCLEON),))
    assert rate_general(system, NOISE, energy) == \
        rate_incoherent([charge], NOISE, energy)


# --- classify_regime --------------------------------------------------------

def test_regime_nucleus_scale_is_coherent():
    system = ParticleSystem((proton(), proton(1e-15)))
    regime = classify_regime(system, NOISE, 1000.0)
    assert regime.kind is RegimeKind.COHERENT
    assert regime.max_separation == pytest.approx(1e-15)


def test_regime_atom_scale_is_incoherent():
    electron = Particle(charge_e=-1.0, mass=9.1093837015e-31,
                        position=(1e-10, 0.0, 0.0))
    system = ParticleSystem((proton(), electron))
    regime = classify_regime(system, NOISE, 1000.0)
    assert regime.kind is RegimeKind.INCOHERENT


def test_regime_intermediate_is_mixed():
    system = ParticleSystem((proton(), proton(1e-12)))
    assert classify_regime(system, NOISE, 1000.0).kind is RegimeKind.MIXED


@pytest.mark.parametrize("n_particles", [1, 2])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_regime_rejects_non_finite_energy(n_particles, bad):
    system = ParticleSystem(tuple(proton(1e-12 * i) for i in range(n_particles)))
    with pytest.raises(ValueError, match="photon energy must be finite"):
        classify_regime(system, NOISE, bad)


def test_regime_single_particle_is_coherent():
    regime = classify_regime(ParticleSystem((proton(),)), NOISE, 1000.0)
    assert regime.kind is RegimeKind.COHERENT
    assert regime.max_separation == 0.0


@given(st.integers(min_value=2, max_value=300),
       st.floats(min_value=-16.0, max_value=-6.0),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_regime_separations_match_direct_pairs(n, log_scale, seed):
    rng = np.random.default_rng(seed)
    offset = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-16.0, -6.0)
    pos = offset + rng.uniform(-1.0, 1.0, (n, 3)) * 10.0 ** log_scale
    parts = tuple(proton(*x) for x in pos.tolist())
    regime = classify_regime(ParticleSystem(parts), NOISE, 1000.0)
    seps = [math.dist(parts[i].position, parts[j].position)
            for i in range(n) for j in range(i + 1, n)]
    assert regime.max_separation == pytest.approx(max(seps), rel=1e-14)
    assert regime.min_separation == pytest.approx(min(seps), rel=1e-14)


def test_regime_reports_scales():
    system = ParticleSystem((proton(), proton(1e-15)))
    regime = classify_regime(system, NOISE, 1000.0)
    assert regime.r_c == NOISE.r_c
    assert regime.wavelength == pytest.approx(1.2398419843320025e-12, rel=1e-10)
