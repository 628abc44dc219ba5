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

import collections
import enum
import math
import os
import threading
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


def _block_bounds(n: int):
    """Yield (start, stop) of the pair walk's row blocks over n charges.

    A block holds the rows start..stop-1 against the columns start..n-1,
    at most _PAIR_BLOCK_ELEMENTS entries.
    """
    start = 0
    while start < n:
        stop = min(n, start + max(1, _PAIR_BLOCK_ELEMENTS // (n - start)))
        yield start, stop
        start = stop


def _block_d2(axes: np.ndarray, start: int, stop: int) -> tuple[np.ndarray, float]:
    """(d2, its largest entry) of one row block of squared pair separations.

    d2[r, c] = |x_(start+r) - x_(start+c)|^2 over the columns start..N-1,
    from the axis-contiguous positions axes (rows x, y, z).  Differences
    are taken per axis before squaring, so tiny separations keep their
    relative precision.  A d2 that overflows float64 raises ValueError.
    """
    import numpy as np

    with np.errstate(over="ignore"):  # an inf d2 raises below
        d2 = (axes[0, start:stop, None] - axes[0, start:]) ** 2
        d2 += (axes[1, start:stop, None] - axes[1, start:]) ** 2
        d2 += (axes[2, start:stop, None] - axes[2, start:]) ** 2
    d2_max = float(d2.max())
    if d2_max == math.inf:
        raise ValueError("pair separations overflow float64")
    return d2, d2_max


def _self_pairs(d2: np.ndarray) -> np.ndarray:
    """The view of a row block's self-pairs, the diagonal of its leading square."""
    return d2.reshape(-1)[::d2.shape[1] + 1]


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


def _block_sum(charges: np.ndarray, start: int, weight: np.ndarray) -> float:
    """sum_ij q_i q_j weight_ij over one row block and both orders of its pairs.

    Columns past the block's leading square stand for both orders of
    their pairs, hence the doubled column charges.
    """
    rows = len(weight)
    q_cols = 2.0 * charges[start:]
    q_cols[:rows] = charges[start:start + rows]
    return float(charges[start:start + rows] @ (weight @ q_cols))


def _usable_cpus() -> int:
    """The CPUs this process may run on, or all of them where that is unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _walk_threads(system: ParticleSystem, near_d2: float) -> int:
    """How many threads may share a rate_general walk: 1, or the usable CPUs.

    Only a walk of several blocks in which every pair is near is shared;
    any other walk, which cuts pairs or has one block, runs on the calling
    thread.  Every pair is near when the positions' bounding box is: each
    |x_i - x_j| and its square round to at most the box's, summed in the
    same order, so the box's d^2 bounds every pair's.
    """
    import numpy as np

    if len(system) ** 2 <= _PAIR_BLOCK_ELEMENTS:  # one block
        return 1
    axes = np.ascontiguousarray(system._positions.T)  # rows reduce ~10x faster
    with np.errstate(over="ignore"):  # an inf diagonal is simply not near
        side = axes.max(axis=1) - axes.min(axis=1)
        side2 = side * side
        diagonal2 = side2[0] + side2[1] + side2[2]
    if not diagonal2 < near_d2:
        return 1
    return _usable_cpus()


class _Helpers:
    """Daemon threads that run shares of pair walks, started on first use.

    A share is a callable.  The helpers take the shares handed to them in
    turn, so a share may start after its walk is done; it then finds no
    block left and returns.
    """

    def __init__(self):
        self.lock = threading.Lock()  # held while handing out shares
        self.shares = collections.deque()
        self.ready = threading.Semaphore(0)  # counts the shares not yet taken
        self.started = 0

    def hand(self, share, count: int) -> None:
        """Hand share to count helpers, starting those not yet running."""
        with self.lock:
            while self.started < count:
                try:
                    threading.Thread(target=self._serve, name="cslrad-pair-walk",
                                     daemon=True).start()
                except RuntimeError:  # the system gives no more threads
                    break
                self.started += 1
            for _ in range(min(count, self.started)):
                self.shares.append(share)
                self.ready.release()

    def _serve(self) -> None:
        while True:
            self.ready.acquire()
            self.shares.popleft()()


_HELPERS = _Helpers()


def _forget_helpers() -> None:
    # A forked child has only the thread that forked: its parent's helpers,
    # and any lock one of them held, did not come with it.
    global _HELPERS
    _HELPERS = _Helpers()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_helpers)


def _pair_walk(system: ParticleSystem, two_rc2: float | None = None,
               k: float = 0.0) -> float:
    """rate_general's pair sum, from one walk over every pair.

    The sum is that of q_i q_j _pair_weight(d2_ij) over both orders of
    every pair and the self-pairs, with 0.0 from d2 = _PAIR_CUTOFF_X *
    two_rc2 on, where exp(-x/2) underflows to exactly 0 anyway.  Without
    two_rc2 nothing is weighed and the sum is 0.0.  A walk run to its end
    keeps the largest and smallest d2 of the distinct pairs on the system,
    as _d2_extremes["max"] and ["min"].

    Pair i < j lies in the row block of _block_bounds holding row i: twice
    (ij and ji) in its leading R x R square, whose diagonal holds the
    self-pairs, and once in the columns beyond.  The calling thread and,
    in a weighed walk, the helpers _walk_threads allows, at most one per
    block past the first, take blocks from one shared iterator and keep
    each block's sum and d2 extremes by its index.  A block whose every d2
    is below the cutoff is whole and weighed as it is taken.  Any other is
    mixed: its thread holds the flat index and d2 of its near entries and
    weighs those it holds, up to _PAIR_BLOCK_ELEMENTS, in one _pair_weight
    call, so memory stays O(block) per thread; a weight is the same float
    however its entries are grouped.  Mixed self-pairs weigh 3.0, as at d = 0.

    Once no block is left or in hand, the caller adds the sums in block
    order from 0.0 and combines the extremes with max and min, so both
    have the same bits on any number of threads.  The caller never waits
    for a helper that took no block.  An error in any block, such as a d2
    that overflows float64, stops the walk: it is raised here once no
    block is in hand, and the system keeps no extremes.
    """
    import numpy as np

    axes = np.ascontiguousarray(system._positions.T)  # rows x, y, z
    charges = system._charges
    near_d2 = math.inf if two_rc2 is None else _PAIR_CUTOFF_X * two_rc2
    threads = 1 if two_rc2 is None else _walk_threads(system, near_d2)
    bounds = list(_block_bounds(len(system)))
    todo, claim = iter(range(len(bounds))), threading.Condition()
    sums, maxima, minima = ([0.0] * len(bounds) for _ in range(3))
    errors = []
    busy = 0  # threads that took a block and are not yet done

    def weigh(held):
        if not held:
            return
        weights = _pair_weight(np.concatenate([h[3] for h in held]), two_rc2, k)
        offset = 0
        for i, shape, index, values in held:
            weight = np.zeros(shape)
            weight.put(index, weights[offset:offset + len(values)])
            _self_pairs(weight)[:] = 3.0
            offset += len(values)
            sums[i] = _block_sum(charges, bounds[i][0], weight)
        held.clear()

    def walk(i, held):
        start, stop = bounds[i]
        d2, maxima[i] = _block_d2(axes, start, stop)
        if maxima[i] < near_d2:
            if two_rc2 is not None:
                sums[i] = _block_sum(charges, start, _pair_weight(d2, two_rc2, k))
            _self_pairs(d2)[:] = math.inf
            minima[i] = float(d2.min())
            return
        _self_pairs(d2)[:] = math.inf
        index = np.flatnonzero(d2 < near_d2)
        values = d2.take(index)
        minima[i] = float(values.min() if index.size else d2.min())
        if sum(len(h[3]) for h in held) + len(values) > _PAIR_BLOCK_ELEMENTS:
            weigh(held)
        held.append((i, d2.shape, index, values))

    def share():
        nonlocal busy
        held = []  # (index, shape, near index, near d2) of mixed blocks not weighed
        took = False
        try:
            while True:
                with claim:
                    i = None if errors else next(todo, None)
                    if i is None:
                        break
                    busy += not took
                    took = True
                walk(i, held)
            weigh(held)
        except BaseException as exc:  # raised on the calling thread below
            errors.append(exc)
        if took:
            with claim:
                busy -= 1
                if not busy:
                    claim.notify()

    _HELPERS.hand(share, min(threads, len(bounds)) - 1)
    share()
    with claim:
        claim.wait_for(lambda: not busy)
    if errors:
        raise errors[0]
    pair_sum = 0.0
    for block_sum in sums:
        pair_sum += block_sum
    system._d2_extremes.update(max=max(0.0, *maxima), min=min(minima))
    return pair_sum


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
    in row blocks, so memory stays O(N) however large the system.  When
    every pair is within the cutoff and there are several blocks, helper
    threads, one per further usable CPU, weigh blocks beside the calling
    thread; the result has the same bits on any number of CPUs.  The
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

    # sum_ij q_i q_j / (m_i m_j) * f_ij * sinc(b_ij): the masses cancel
    # against f_ij's m_i m_j, leaving exp(-x/2) (3 - x) / (2 r_c^2) with
    # x = d^2 / (2 r_c^2).  pair_sum is the dimensionless
    # sum_ij q_i q_j exp(-x/2) (3 - x) sinc(b_ij), 3 q_i^2 per self-pair,
    # so the rate is the closed rates' prefactor times pair_sum / 3E;
    # dividing by 3 first makes a single integer charge give rate_incoherent
    # exactly.
    pair_sum = _pair_walk(system, two_rc2, k)
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
        _pair_walk(system)
    max_sep, min_sep = math.sqrt(extremes["max"]), math.sqrt(extremes["min"])
    theta = REGIME_THRESHOLD
    if max_sep < theta * min(reduced, noise.r_c):
        kind = RegimeKind.COHERENT
    elif min_sep > reduced / theta or min_sep > noise.r_c / theta:
        kind = RegimeKind.INCOHERENT
    else:
        kind = RegimeKind.MIXED
    return EmissionRegime(kind, max_sep, min_sep, wavelength, noise.r_c)
