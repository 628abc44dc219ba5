"""Core value types, physical constants, and unit conventions.

Conventions used across the package:

* public interfaces take photon energies in keV; everything internal to a
  formula is SI (J, m, s, kg, C),
* charges are stored as multiples of the elementary charge and converted
  on demand, so neutral systems sum to exactly zero,
* all types are immutable values and all operations are pure; a value
  may keep what was derived from it (a system its position and charge
  arrays and its pair-separation extremes), which never changes a result.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

# NumPy loads when a particle system is built, never on import, so that
# the CLI subcommands that build no array never load it.
if TYPE_CHECKING:
    import numpy as np


class ConvergenceError(RuntimeError):
    """An iterative kernel failed to reach its tolerance.

    Raised by ``specfun``; defined here so that the CLI can map it to exit
    1 without loading the numerics.
    """


# Input checks shared by every module, so that each quantity is judged in
# one place.  Each raises ValueError naming the quantity.


def _is_finite(value) -> bool:
    if isinstance(value, bool):  # no number here, as in to_float
        return False
    try:
        return math.isfinite(value)
    except (OverflowError, TypeError):  # an int too large for a float64, or no number
        return False


def format_value(value) -> str:
    """repr(value) for an error message, short even for a huge int.

    An int of more than 17 digits is described, not spelled out: it may
    run to thousands of digits, and past 4300 of them repr() itself raises.
    """
    if isinstance(value, int) and not -10 ** 17 < value < 10 ** 17:
        if _is_finite(value):
            return f"an integer near {float(value)!r}"
        return f"an integer {'below' if value < 0 else 'above'} the float64 range"
    return repr(value)


def check_finite_positive(value, name: str) -> None:
    """Raise ValueError unless value is a finite number above zero."""
    if not (_is_finite(value) and value > 0):
        raise ValueError(
            f"{name} must be finite and positive, got {format_value(value)}")


def check_finite_nonnegative(value, name: str) -> None:
    """Raise ValueError unless value is a finite number >= 0."""
    if not (_is_finite(value) and value >= 0):
        raise ValueError(
            f"{name} must be finite and >= 0, got {format_value(value)}")


def check_count(value, name: str, minimum: int = 0) -> int:
    """Return value as a plain int, or raise ValueError.

    Accepts Python and NumPy integers, not bools, floats or strings, and
    only counts >= minimum that convert to a float64.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer count, got {value!r}")
    if count < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {format_value(count)}")
    to_float(count, name)  # raises if the count overflows a float64
    return count


def to_float(value, name: str) -> float:
    """float(value), or a ValueError naming the quantity.

    An int too large for a float64, or a value that is no number (as a
    JSON file can hold), raises ValueError rather than OverflowError or
    TypeError.  Strings and booleans are no numbers here, though float()
    takes them.
    """
    if isinstance(value, (str, bool)):
        raise ValueError(f"wrong type {type(value).__name__} ({name})")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float64") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{exc} ({name})") from None


@dataclass(frozen=True)
class PhysConstants:
    """CODATA 2018 constants, frozen so results are bit-reproducible."""

    hbar: float = 1.054571817e-34        # J s
    c: float = 2.99792458e8              # m/s (exact)
    eps0: float = 8.8541878128e-12       # F/m
    e_charge: float = 1.602176634e-19    # C (exact)
    amu: float = 1.66053906660e-27       # kg

    def __post_init__(self):
        for name in ("hbar", "c", "eps0", "e_charge", "amu"):
            check_finite_positive(getattr(self, name), name)


CONSTANTS = PhysConstants()

# Nucleon reference mass for the mass-proportional noise coupling.  The
# proton mass is adopted (the amu alternative differs by <0.8%, below
# every tolerance used here).
M_NUCLEON = 1.67262192369e-27  # kg, CODATA 2018 proton mass

KEV_IN_JOULES = 1e3 * CONSTANTS.e_charge  # 1.602176634e-16 J, exact


def kev_to_joule(energy_kev: float) -> float:
    """Convert a photon energy from keV to joules."""
    return energy_kev * KEV_IN_JOULES


def wavelength_from_energy(energy_kev: float) -> float:
    """Photon wavelength 2*pi*hbar*c / E in meters, for E in keV."""
    check_finite_positive(energy_kev, "photon energy")
    return 2.0 * math.pi * CONSTANTS.hbar * CONSTANTS.c / kev_to_joule(energy_kev)


@dataclass(frozen=True)
class NoiseParams:
    """Collapse-noise parameters: strength and correlation length.

    lambda_collapse : collapse rate in 1/s
    r_c             : noise correlation length in m

    The coupling's reference mass is M_NUCLEON, not a field; detector's
    beta is emission's rate prefactor at unit lambda_collapse and r_c.
    """

    lambda_collapse: float
    r_c: float

    def __post_init__(self):
        for name in ("lambda_collapse", "r_c"):
            check_finite_positive(getattr(self, name), name)


@dataclass(frozen=True)
class Particle:
    """A point charge: charge in units of e, mass in kg, mean position in m."""

    charge_e: float
    mass: float
    position: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if not _is_finite(self.charge_e):
            raise ValueError(
                f"charge_e must be finite, got {format_value(self.charge_e)}")
        check_finite_positive(self.mass, "particle mass")
        if len(self.position) != 3:
            raise ValueError("position must be a 3-vector")
        position = tuple(to_float(x, "position") for x in self.position)
        if not all(math.isfinite(x) for x in position):
            raise ValueError(f"position must be finite, got {position!r}")
        object.__setattr__(self, "position", position)


@dataclass(frozen=True)
class ParticleSystem:
    """An ordered, non-empty collection of point charges.

    Construction loads NumPy: the positions and charges are also kept as
    read-only float64 arrays, (N, 3) and (N,), for the pair kernel.
    """

    particles: tuple[Particle, ...]
    _positions: np.ndarray = field(init=False, repr=False, compare=False)
    _charges: np.ndarray = field(init=False, repr=False, compare=False)
    # The largest and smallest squared separation over the distinct pairs,
    # as "max" and "min"; filled by the first pair walk of emission to
    # see every pair.
    _d2_extremes: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    def __post_init__(self):
        object.__setattr__(self, "particles", tuple(self.particles))
        if not self.particles:
            raise ValueError("particle system must not be empty")
        import numpy as np

        positions = np.array([p.position for p in self.particles], dtype=float)
        charges = np.array([p.charge_e for p in self.particles], dtype=float)
        for name, array in (("_positions", positions), ("_charges", charges)):
            array.flags.writeable = False
            object.__setattr__(self, name, array)

    def __len__(self) -> int:
        return len(self.particles)


def particle_system_from_json(text: str) -> ParticleSystem:
    """Parse the particle-system JSON wire format.

    Expected shape: an array of objects
    ``{"charge_e": number, "mass_kg": number, "position_m": [x, y, z]}``.
    """
    import json  # loaded only where a file is parsed

    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("particle system JSON must be an array of objects")
    particles = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValueError(f"particle {i}: expected an object")
        for key in ("charge_e", "mass_kg", "position_m"):
            if key not in entry:
                raise ValueError(f"particle {i}: missing field '{key}'")
        pos = entry["position_m"]
        if not isinstance(pos, (list, tuple)) or len(pos) != 3:
            raise ValueError(f"particle {i}: 'position_m' must be a 3-element array")
        try:
            particles.append(
                Particle(
                    charge_e=to_float(entry["charge_e"], "charge_e"),
                    mass=to_float(entry["mass_kg"], "mass_kg"),
                    position=tuple(to_float(x, "position_m") for x in pos),
                )
            )
        except ValueError as exc:
            raise ValueError(f"particle {i}: {exc}") from None
    return ParticleSystem(tuple(particles))


@dataclass(frozen=True)
class EnergyWindow:
    """A photon-energy acceptance window [e_min, e_max] in keV."""

    e_min: float
    e_max: float

    def __post_init__(self):
        if not (_is_finite(self.e_min) and _is_finite(self.e_max)
                and 0 < self.e_min < self.e_max):
            raise ValueError(f"need 0 < e_min < e_max < inf, got "
                             f"({format_value(self.e_min)}, {format_value(self.e_max)})")

    def contains(self, energy_kev: float) -> bool:
        return self.e_min <= energy_kev <= self.e_max


# The counting analysis window of the bundled dataset.
DEFAULT_WINDOW = EnergyWindow(1000.0, 3800.0)

# Reference analysis inputs: 576 observed counts, 506 simulated
# background counts, signal constant 2.0986 s m^2 for the full detector
# inventory (material masses are not public, so the constant is carried
# as a certified input rather than recomputed).  ``limits`` uses them;
# they live here so that the CLI's defaults need no ``limits``.
DEFAULT_OBSERVED_COUNTS = 576
DEFAULT_BACKGROUND_COUNTS = 506
DEFAULT_SIGNAL_CONSTANT = 2.0986
DEFAULT_CREDIBILITY = 0.95
