"""Noise-induced radiation emission rates for charged-particle systems.

The differential emission rate of a rigid system of point charges driven
by the collapse noise is a double sum over particle pairs,

    dGamma/domega = hbar*lam / (6 pi^2 eps0 c^3 m0^2 omega)
                    * sum_ij q_i q_j / (m_i m_j) * f_ij * sinc(b_ij),

with b_ij = (omega/c)|r_i - r_j| and f_ij the Gaussian-smeared
mass-gradient correlation of the pair.  The diagonal terms give
incoherent emission (amplification sum q_i^2), the zero-separation limit
gives coherent emission (amplification (sum q_i)^2), and atoms in the
10-1e5 keV window amplify by N_A^2 + N_A (coherent nucleus plus
incoherent electrons).

Rates are reported per keV: dGamma/dE in 1/(keV s) with E in keV.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .domain import (
    CONSTANTS,
    M_NUCLEON,
    NoiseParams,
    ParticleSystem,
    check_count,
    check_finite_nonnegative,
    check_finite_positive,
    kev_to_joule,
    wavelength_from_energy,
)

# NumPy is imported inside the functions that build or read arrays, so
# that importing cslrad, and the CLI subcommands that need no array,
# never load it.
if TYPE_CHECKING:
    import numpy as np

# Atomic-rate validity range of the coherent-nucleus treatment, keV.
ATOMIC_VALIDITY_KEV = (10.0, 1e5)
# Above this the electrons are relativistic and their linear term unreliable.
ELECTRON_VALIDITY_MAX_KEV = 100.0

# Advisory classification threshold: two orders of magnitude stand in for
# the asymptotic "much smaller / much larger" regimes.
REGIME_THRESHOLD = 0.01

# Series switchover for the angular integrals' removable singularities at
# b = 0, where their closed forms cancel.
_ANGULAR_SERIES_CUTOFF = 1e-2

# Elements per block of the pair kernel.  A block's float64 temporaries
# (128 KB each) stay in cache; at N = 800, blocks of 1M elements made
# rate_general plus classify_regime ~3x slower and took ~25 MB more memory.
_PAIR_BLOCK_ELEMENTS = 16384

# A pair's Gaussian weight exp(-x/2), x = d^2 / (2 r_c^2), is exactly 0.0 in
# float64 from x ~ 1490.3 on (d >= ~54.6 r_c), so the pair kernel skips exp,
# sqrt and sinc once d^2 reaches the rounded product _PAIR_CUTOFF_X * 2 r_c^2,
# an ulp at most off x = 1500, without changing a bit of the sum.
_PAIR_CUTOFF_X = 1500.0


class ValidityWarning(UserWarning):
    """Inputs are outside the validity range of the emission formula."""


@dataclass(frozen=True)
class RateDensity:
    """Differential emission rate dGamma/dE in 1/(keV s)."""

    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if not math.isfinite(self.value):
            raise ValueError(f"rate density is not finite ({self.value}); "
                             "the inputs overflow float64")

    def __float__(self) -> float:
        return self.value


class RegimeKind(enum.Enum):
    COHERENT = "coherent"
    INCOHERENT = "incoherent"
    MIXED = "mixed"


@dataclass(frozen=True)
class EmissionRegime:
    """Advisory emission-regime classification with the scales behind it.

    Separations are compared against the reduced photon wavelength
    (wavelength / 2 pi, the length entering b) and against r_c.  The full
    wavelength is reported because it is the conventional quantity.
    """

    kind: RegimeKind
    max_separation: float
    min_separation: float
    wavelength: float
    r_c: float


def coherence_factor(b: float) -> float:
    """sin(b)/b, and 1 at the removable singularity b = 0.

    The quotient needs no series near 0: against mpmath on [1e-12, 1e-4]
    it stays within 1.5 ulps of the sinc, and below b ~ 2e-8 sin(b)
    is b and the quotient exactly 1.
    """
    check_finite_nonnegative(b, "coherence_factor argument b")
    if b == 0.0:
        return 1.0
    return math.sin(b) / b


def f_ij_point(d, m_i: float, m_j: float, r_c: float) -> tuple[float, float]:
    """Mass-gradient correlation of two point particles at separation d.

    Closed form per axis k:

        f^k = m_i m_j * exp(-|d|^2 / 4 r_c^2) / (2 r_c^2)
              * (1 - d_k^2 / (2 r_c^2))

    Returns (f_total, f_z) = (sum over axes, the z-axis component), both
    in kg^2/m^2.  At d = 0 this is (3, 1) * m_i m_j / (2 r_c^2); for
    |d| >> r_c the Gaussian suppresses everything (incoherent regime).
    """
    check_finite_positive(r_c, "correlation length r_c")
    dx, dy, dz = (float(x) for x in d)
    d2 = dx * dx + dy * dy + dz * dz
    two_rc2 = 2.0 * r_c * r_c
    envelope = m_i * m_j * math.exp(-d2 / (2.0 * two_rc2)) / two_rc2
    f_total = envelope * (3.0 - d2 / two_rc2)
    f_z = envelope * (1.0 - dz * dz / two_rc2)
    return f_total, f_z


def _pair_d2_blocks(system: ParticleSystem, near_d2: float = math.inf):
    """Yield (start, d2, near) row blocks of squared pair separations.

    d2[r, c] = |x_(start+r) - x_(start+c)|^2 for the rows start..start+R
    against the columns start..N-1, at most _PAIR_BLOCK_ELEMENTS entries
    per block.  Every unordered pair i < j lies in the block holding row i:
    twice (as ij and ji) in the block's leading R x R square, once in the
    columns beyond it.  The square's diagonal holds the self-pairs.

    A block whose every d2 lies below near_d2 is whole: near is None and
    the diagonal is 0.  Any other block is mixed: its diagonal is set to
    inf, and near = (index, values) holds the flat index and d2 of its
    entries below near_d2, in the order a boolean mask gives.  With the
    default near_d2 every block is whole.

    Differences are taken per axis, from one axis-contiguous copy of the
    positions, before squaring, so tiny separations keep their relative
    precision.  A block holding a d2 that overflows float64 raises
    ValueError instead of being yielded, so every d2 a caller sees is
    finite, except a mixed block's diagonal.

    A caller must be done with a whole block when it asks for the next:
    the walk then sets its diagonal to inf and scans it for its smallest
    off-diagonal entry.  A mixed block's smallest entry is its smallest
    near value; only a mixed block with no near entry is scanned.  Memory
    stays O(block) however large the system.  A walk run to its end keeps
    the largest and smallest squared separation of the distinct pairs on
    the system, as _d2_extremes["max"] and ["min"]; a walk left early
    keeps nothing.
    """
    import numpy as np

    axes = np.ascontiguousarray(system._positions.T)  # rows x, y, z
    n = axes.shape[1]
    max_d2, min_d2 = 0.0, math.inf
    start = 0
    while start < n:
        stop = min(n, start + max(1, _PAIR_BLOCK_ELEMENTS // (n - start)))
        with np.errstate(over="ignore"):  # an inf d2 raises below
            d2 = (axes[0, start:stop, None] - axes[0, start:]) ** 2
            d2 += (axes[1, start:stop, None] - axes[1, start:]) ** 2
            d2 += (axes[2, start:stop, None] - axes[2, start:]) ** 2
        d2_max = float(d2.max())
        if d2_max == math.inf:
            raise ValueError("pair separations overflow float64")
        max_d2 = max(max_d2, d2_max)
        diagonal = d2.reshape(-1)[::d2.shape[1] + 1]  # the self-pairs
        if d2_max < near_d2:
            yield start, d2, None
            diagonal[:] = math.inf
            min_d2 = min(min_d2, float(d2.min()))
        else:
            diagonal[:] = math.inf
            index = np.flatnonzero(d2 < near_d2)
            values = d2.take(index)
            min_d2 = min(min_d2, float(values.min() if index.size else d2.min()))
            yield start, d2, (index, values)
        start = stop
    system._d2_extremes.update(max=max_d2, min=min_d2)


def _sinc_array(b: np.ndarray) -> np.ndarray:
    """coherence_factor over an array: sin(b)/b, and 1 where b == 0."""
    import numpy as np

    return np.divide(np.sin(b), b, out=np.ones_like(b), where=b != 0.0)


def _pair_weight(d2: np.ndarray, two_rc2: float, k: float) -> np.ndarray:
    """exp(-x/2) (3 - x) sinc(k |d|) per pair, from d^2 and x = d^2 / (2 r_c^2)."""
    import numpy as np

    x = d2 / two_rc2
    weight = np.exp(-0.5 * x)
    weight *= 3.0 - x
    weight *= _sinc_array(k * np.sqrt(d2))
    return weight


def _pair_weight_blocks(system: ParticleSystem, two_rc2: float, k: float):
    """Yield (start, weight) for the blocks of _pair_d2_blocks, in order.

    weight is _pair_weight over the block, 0.0 past the cutoff, where
    exp(-x/2) underflows to exactly 0 anyway.  The near entries of
    consecutive mixed blocks go through one _pair_weight call, up to
    _PAIR_BLOCK_ELEMENTS of them, so memory stays O(block); a weight is
    the same float however its entries are grouped.  A mixed block's
    self-pairs get 3.0, _pair_weight's value at d = 0.
    """
    import numpy as np

    group = []  # (start, shape, near index, near d2) of consecutive mixed blocks

    def flush():
        if not group:
            return
        weights = _pair_weight(np.concatenate([g[3] for g in group]), two_rc2, k)
        offset = 0
        for start, shape, index, values in group:
            weight = np.zeros(shape)
            weight.put(index, weights[offset:offset + len(values)])
            weight.reshape(-1)[::shape[1] + 1] = 3.0
            offset += len(values)
            yield start, weight
        group.clear()

    for start, d2, near in _pair_d2_blocks(system, _PAIR_CUTOFF_X * two_rc2):
        if near is None or (sum(len(g[3]) for g in group) + len(near[1])
                            > _PAIR_BLOCK_ELEMENTS):
            yield from flush()
        if near is None:
            yield start, _pair_weight(d2, two_rc2, k)
        else:
            group.append((start, d2.shape, *near))
    yield from flush()


def _angular_t1(b: float) -> float:
    """((b^2 - 1) sin b + b cos b) / b^3, series-stabilized near 0."""
    if b < _ANGULAR_SERIES_CUTOFF:
        b2 = b * b
        return 2.0 / 3.0 - 2.0 * b2 / 15.0 + b2 * b2 / 140.0
    return ((b * b - 1.0) * math.sin(b) + b * math.cos(b)) / b ** 3


def _angular_t2(b: float) -> float:
    """((b^2 - 3) sin b + 3 b cos b) / b^3, series-stabilized near 0."""
    if b < _ANGULAR_SERIES_CUTOFF:
        b2 = b * b
        return -b2 / 15.0 + b2 * b2 / 210.0
    return ((b * b - 3.0) * math.sin(b) + 3.0 * b * math.cos(b)) / b ** 3


def j_ij_expectation(omega: float, r_i, r_j, f_total: float, f_z: float,
                     noise: NoiseParams, masses: tuple[float, float]) -> float:
    """Noise-averaged angular emission integral for one particle pair.

    Evaluates the two-term closed form

        (8 pi^2 hbar^2 lam / (m0^2 m_i m_j))
            * (f_total * T1(b) - f_z * T2(b)),

    at frequencies (omega, -omega), where b = (omega/c)|r_i - r_j| and
    T1, T2 are the rank-0 and rank-2 pieces of the plane-wave angular
    integral.  The frequency-delta normalization is stripped.

    The two-term form is exact when f_z is the correlation component
    along the separation direction; with the isotropic average
    f_z = f_total/3 it collapses to (2/3) f_total sinc(b).
    """
    check_finite_positive(omega, "angular frequency omega")
    m_i, m_j = masses
    sep = math.dist(tuple(r_i), tuple(r_j))
    b = omega * sep / CONSTANTS.c
    prefactor = (8.0 * math.pi ** 2 * CONSTANTS.hbar ** 2 * noise.lambda_collapse
                 / (M_NUCLEON ** 2 * m_i * m_j))
    return prefactor * (f_total * _angular_t1(b) - f_z * _angular_t2(b))


def _charge_rate_prefactor(noise: NoiseParams) -> float:
    """hbar*lam*e^2 / (4 pi^2 eps0 m0^2 r_c^2 c^3): single unit-charge scale, 1/s."""
    try:
        denominator = (4.0 * math.pi ** 2 * CONSTANTS.eps0 * M_NUCLEON ** 2
                       * noise.r_c ** 2 * CONSTANTS.c ** 3)
    except OverflowError:  # r_c ** 2 past the float64 range
        raise ValueError(f"r_c = {noise.r_c} m is too large: the rate's "
                         "r_c^2 denominator overflows float64") from None
    if denominator == 0.0:
        raise ValueError(f"r_c = {noise.r_c} m is too small: the rate's "
                         "r_c^2 denominator underflows to 0")
    return (CONSTANTS.hbar * noise.lambda_collapse * CONSTANTS.e_charge ** 2
            / denominator)


def rate_incoherent(charges_e, noise: NoiseParams, energy_kev: float) -> RateDensity:
    """Incoherent emission: amplification sum q_i^2 (charges in units of e)."""
    check_finite_positive(energy_kev, "energy")
    amplification = sum(q * q for q in charges_e)
    return RateDensity(_charge_rate_prefactor(noise) * amplification / energy_kev)


def rate_coherent(charges_e, noise: NoiseParams, energy_kev: float) -> RateDensity:
    """Coherent emission: amplification (sum q_i)^2 (charges in units of e)."""
    check_finite_positive(energy_kev, "energy")
    amplification = sum(charges_e) ** 2
    return RateDensity(_charge_rate_prefactor(noise) * amplification / energy_kev)


def rate_general(system: ParticleSystem, noise: NoiseParams,
                 energy_kev: float) -> RateDensity:
    """Full double-sum rate for an arbitrary rigid point-charge system.

    Uses the closed-form pair correlation of f_ij_point and the sinc
    coherence factor; the diagonal terms reproduce rate_incoherent and the
    zero-separation limit reproduces rate_coherent.  The pairs are summed
    in row blocks, so memory stays O(N) however large the system.  The
    walk leaves the system holding its separation extremes, so a
    classify_regime that follows costs no second pass over the pairs.
    """
    check_finite_positive(energy_kev, "energy")
    # The closed rates' prefactor, with their r_c guard.  The guard also
    # stops an underflowed 2 r_c^2, with which the cutoff below would drop
    # every pair as if its weight were an exact 0.
    prefactor = _charge_rate_prefactor(noise)
    k = kev_to_joule(energy_kev) / CONSTANTS.hbar / CONSTANTS.c  # omega / c
    two_rc2 = 2.0 * noise.r_c * noise.r_c
    if two_rc2 == math.inf:  # r_c^2 fits, but x = d^2 / inf would be 0
        raise ValueError(f"r_c = {noise.r_c} m is too large: the pair "
                         "weight's 2 r_c^2 overflows float64")
    charges = system._charges

    # sum_ij q_i q_j / (m_i m_j) * f_ij * sinc(b_ij): the masses cancel
    # against f_ij's m_i m_j, leaving exp(-x/2) (3 - x) / (2 r_c^2) with
    # x = d^2 / (2 r_c^2).  pair_sum is the dimensionless
    # sum_ij q_i q_j exp(-x/2) (3 - x) sinc(b_ij), 3 q_i^2 per self-pair,
    # so the rate is the closed rates' prefactor times pair_sum / 3E;
    # dividing by 3 first makes a single integer charge give rate_incoherent
    # exactly.
    # Columns past a block's leading square stand for both orders of
    # their pairs, hence the doubled column charges.
    pair_sum = 0.0
    for start, weight in _pair_weight_blocks(system, two_rc2, k):
        rows = len(weight)
        q_cols = 2.0 * charges[start:]
        q_cols[:rows] = charges[start:start + rows]
        pair_sum += float(charges[start:start + rows] @ (weight @ q_cols))
    if not math.isfinite(pair_sum):
        raise ValueError("pair sum overflows float64")
    return RateDensity(prefactor * (pair_sum / 3.0) / energy_kev)


def atomic_amplification(n_a: int, include_electrons: bool = True) -> float:
    """N_A^2 + N_A with the electron term, N_A^2 without."""
    n_a = check_count(n_a, "atomic number", 1)
    try:
        return float(n_a * n_a + n_a) if include_electrons else float(n_a * n_a)
    except OverflowError:  # an int too large for a float
        raise ValueError("atomic number too large: N_A^2 does not fit in a "
                         "float64") from None


def rate_atomic(n_atoms: float, n_a: int, noise: NoiseParams, energy_kev: float,
                include_electrons: bool = True) -> RateDensity:
    """Emission rate of n_atoms atoms of atomic number n_a.

    The nucleus emits coherently (N_A^2); the electrons add an incoherent
    N_A term valid only below ~100 keV.  Warns (never raises) when the
    requested energy leaves the validity range.
    """
    check_finite_positive(energy_kev, "energy")
    check_finite_nonnegative(n_atoms, "n_atoms")
    if not ATOMIC_VALIDITY_KEV[0] <= energy_kev <= ATOMIC_VALIDITY_KEV[1]:
        warnings.warn(
            f"energy {energy_kev} keV outside the {ATOMIC_VALIDITY_KEV[0]:g}-"
            f"{ATOMIC_VALIDITY_KEV[1]:g} keV validity range of the atomic rate",
            ValidityWarning, stacklevel=2)
    if include_electrons and energy_kev > ELECTRON_VALIDITY_MAX_KEV:
        warnings.warn(
            f"electron term requested at {energy_kev} keV, above the "
            f"{ELECTRON_VALIDITY_MAX_KEV:g} keV relativistic threshold",
            ValidityWarning, stacklevel=2)
    amplification = n_atoms * atomic_amplification(n_a, include_electrons)
    return RateDensity(_charge_rate_prefactor(noise) * amplification / energy_kev)


def classify_regime(system: ParticleSystem, noise: NoiseParams,
                    energy_kev: float) -> EmissionRegime:
    """Classify a system as coherent / incoherent / mixed at a given energy.

    Advisory only -- rate_general never branches on this.  A single
    particle is coherent by convention (the amplification is identical
    either way).  The separations come from the extremes the system holds
    once any pair walk (a rate_general, or an earlier call here) has seen
    every pair; only a system that holds none is walked here.
    """
    wavelength = wavelength_from_energy(energy_kev)
    reduced = wavelength / (2.0 * math.pi)  # the length entering b
    if len(system) < 2:
        return EmissionRegime(RegimeKind.COHERENT, 0.0, 0.0, wavelength, noise.r_c)

    extremes = system._d2_extremes
    if not extremes:
        for _ in _pair_d2_blocks(system):
            pass
    max_sep, min_sep = math.sqrt(extremes["max"]), math.sqrt(extremes["min"])
    theta = REGIME_THRESHOLD
    if max_sep < theta * min(reduced, noise.r_c):
        kind = RegimeKind.COHERENT
    elif min_sep > reduced / theta or min_sep > noise.r_c / theta:
        kind = RegimeKind.INCOHERENT
    else:
        kind = RegimeKind.MIXED
    return EmissionRegime(kind, max_sep, min_sep, wavelength, noise.r_c)
