"""Detector folding: efficiency polynomials and the expected-signal constant.

The expected signal count in the analysis window is

    z_s = integral over the window of
          sum_i N_pi^2 * alpha_i * beta * (lam / r_c^2 E) * eps_i(E) dE
        = a * (lam / r_c^2),

with alpha_i = mass * atoms-per-kg * live-time of material i, beta
emission's rate prefactor at unit lam and r_c, hbar e^2 / (4 pi^2 eps0
c^3 m0^2) in m^2, and eps_i a fitted detection-efficiency polynomial in E
(keV): each summand is emission's nuclear rate_atomic times eps_i.

Energy bookkeeping: written fully in SI the integrand carries 1/E_J and
the measure dE_J; converting both to keV cancels the keV-to-joule factor
exactly, so the integral is evaluated directly in keV and a*(lam/r_c^2)
is a pure count.  Each eps_i is a polynomial, so its integral has a
closed form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .domain import (EnergyWindow, NoiseParams, check_count,
                     check_finite_nonnegative, check_finite_positive, to_float)
from .emission import _charge_rate_prefactor, atomic_amplification
from .specfun import horner, integrate

_BETA = _charge_rate_prefactor(NoiseParams(lambda_collapse=1.0, r_c=1.0))


class EfficiencyClampWarning(UserWarning):
    """A fitted efficiency polynomial went negative and was clamped to 0."""


def beta_constant() -> float:
    """hbar e^2 / (4 pi^2 eps0 c^3 m0^2), in m^2."""
    return _BETA


@dataclass(frozen=True)
class EfficiencyPoly:
    """Detection-efficiency polynomial sum_j coeffs[j] * E^j, E in keV.

    ``uncertainties`` carries the fit errors as metadata only; nothing
    here propagates them.
    """

    coeffs: tuple[float, ...]
    uncertainties: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(
            to_float(c, "efficiency coefficient") for c in self.coeffs))
        if not self.coeffs:
            raise ValueError("efficiency polynomial needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise ValueError(f"efficiency coefficients must be finite, got {self.coeffs}")
        if self.uncertainties is not None:
            object.__setattr__(self, "uncertainties", tuple(self.uncertainties))
            if len(self.uncertainties) != len(self.coeffs):
                raise ValueError("uncertainties must match coefficients in length")
            for u in self.uncertainties:
                check_finite_nonnegative(u, "efficiency uncertainty")


def eval_efficiency(poly: EfficiencyPoly, energy_kev: float) -> float:
    """Clamped polynomial efficiency; negative fit extrapolations become 0."""
    check_finite_positive(energy_kev, "energy")
    value = horner(poly.coeffs, energy_kev)
    if not math.isfinite(value):
        raise ValueError(
            f"efficiency polynomial is not finite ({value}) at {energy_kev} keV")
    if value < 0.0:
        warnings.warn(
            f"efficiency polynomial negative ({value:.3e}) at {energy_kev} keV; "
            "clamped to 0", EfficiencyClampWarning, stacklevel=2)
        return 0.0
    return value


# Fitted efficiency polynomials of the five detector components that
# contribute significantly, transcribed exactly (absent high-order terms
# are absent, not zero).  Arguments in keV, valid over the 1000-3800 keV
# analysis window.
PAPER_TABLE_1 = {
    "Ge crystal": EfficiencyPoly(
        coeffs=(4.82e-1, -4.42e-4, 2.10e-7, -4.87e-11, 4.32e-15),
        uncertainties=(0.03e-1, 0.03e-4, 0.01e-7, 0.03e-11, 0.07e-15),
    ),
    "Inner Cu": EfficiencyPoly(
        coeffs=(3.77e-2, -2.48e-5, 1.03e-8, -2.24e-12, 1.93e-16),
        uncertainties=(0.04e-2, 0.03e-5, 0.01e-8, 0.04e-12, 0.08e-16),
    ),
    "Cu block + plate": EfficiencyPoly(
        coeffs=(2.6e-3, 2.9e-7, -3.1e-10, 5.7e-14, -3.1e-18),
        uncertainties=(0.1e-3, 1.4e-7, 0.5e-10, 1.6e-14, 3.3e-18),
    ),
    "Cu shield": EfficiencyPoly(
        coeffs=(-1.01e-5, 7.8e-8, -2.07e-11, 1.61e-15),
        uncertainties=(0.07e-5, 0.1e-8, 0.06e-11, 0.09e-15),
    ),
    "Pb shield": EfficiencyPoly(
        coeffs=(-5.76e-4, 3.812e-6, -2.728e-9, 9.036e-13, -1.477e-16, 9.60e-21),
        uncertainties=(0.03e-4, 0.003e-6, 0.001e-9, 0.004e-13, 0.001e-16, 0.02e-21),
    ),
}


@dataclass(frozen=True)
class MaterialComponent:
    """One detector material: proton number, atom inventory, exposure, efficiency."""

    name: str
    n_protons: int
    atoms_per_kg: float
    mass: float          # kg
    live_time: float     # s
    efficiency: EfficiencyPoly

    def __post_init__(self):
        object.__setattr__(self, "n_protons", check_count(
            self.n_protons, f"n_protons of '{self.name}'", 1))
        for attr in ("atoms_per_kg", "mass", "live_time"):
            check_finite_positive(getattr(self, attr), f"{attr} of '{self.name}'")

    @property
    def alpha(self) -> float:
        """Exposure factor mass * atoms_per_kg * live_time, in atom s."""
        return self.mass * self.atoms_per_kg * self.live_time


@dataclass(frozen=True)
class SignalModel:
    """A detector inventory and its analysis window."""

    materials: tuple[MaterialComponent, ...]
    window: EnergyWindow

    def __post_init__(self):
        object.__setattr__(self, "materials", tuple(self.materials))


def signal_density(model: SignalModel, noise_ratio: float,
                   energy_kev: float) -> float:
    """Expected signal counts per keV at one energy, for lam/r_c^2 = noise_ratio."""
    if not model.window.contains(energy_kev):
        raise ValueError(
            f"energy {energy_kev} keV outside window "
            f"[{model.window.e_min}, {model.window.e_max}]")
    total = 0.0
    for mat in model.materials:
        total += (atomic_amplification(mat.n_protons, include_electrons=False)
                  * mat.alpha * eval_efficiency(mat.efficiency, energy_kev))
    return total * _BETA * noise_ratio / energy_kev


def material_signal_constant(mat: MaterialComponent, window: EnergyWindow) -> float:
    """One material's contribution to the signal constant a, in s m^2.

    The integral of the clamped efficiency over E is exact.  A fit that
    goes negative in the window is clamped to 0 there, with one
    EfficiencyClampWarning naming the material.
    """
    integral, clamped = integrate(mat.efficiency.coeffs, window.e_min, window.e_max)
    if clamped:
        warnings.warn(
            f"efficiency polynomial of '{mat.name}' negative over part of "
            f"[{window.e_min}, {window.e_max}] keV; clamped to 0",
            EfficiencyClampWarning, stacklevel=2)
    return (atomic_amplification(mat.n_protons, include_electrons=False)
            * mat.alpha * _BETA * integral)


def compute_a(model: SignalModel) -> float:
    """Signal constant a: expected counts are a * (lam / r_c^2)."""
    return sum(
        material_signal_constant(mat, model.window)
        for mat in model.materials
    )


def signal_shape(model: SignalModel, n_points: int):
    """Sampled signal spectrum over the window, normalized to unit area.

    Returns (energies_kev, density_per_kev) arrays whose trapezoid
    integral is 1.  The shape is independent of lam/r_c^2.  Each
    material whose fit goes negative on the grid is clamped to 0 there,
    with one EfficiencyClampWarning naming it.
    """
    import numpy as np  # here only, so that scalar callers never load it

    n_points = check_count(n_points, "n_points", 2)
    energies = np.linspace(model.window.e_min, model.window.e_max, n_points)
    total = np.zeros(n_points)
    # Same operations, in the same order, as signal_density at each energy.
    for mat in model.materials:
        eff = np.polyval(mat.efficiency.coeffs[::-1], energies)
        negative = eff < 0.0
        if negative.any():
            warnings.warn(
                f"efficiency polynomial of '{mat.name}' negative at "
                f"{np.count_nonzero(negative)} of {n_points} energies "
                f"(down to {eff.min():.3e}); clamped to 0",
                EfficiencyClampWarning, stacklevel=2)
        total += (atomic_amplification(mat.n_protons, include_electrons=False)
                  * mat.alpha * np.maximum(eff, 0.0))
    density = total * _BETA / energies
    area = np.trapezoid(density, energies)
    if area <= 0.0:
        raise ValueError("signal density is identically zero; cannot normalize")
    return energies, density / area


# --- inventory JSON wire format ---------------------------------------------

_MATERIAL_FIELDS = {
    "name": str,
    "n_protons": int,
    "atoms_per_kg": (int, float),
    "mass_kg": (int, float),
    "live_time_s": (int, float),
    "efficiency_coeffs": list,
}


def signal_model_from_json(text: str) -> SignalModel:
    """Parse the material-inventory JSON format.

    Expected shape::

        {"window_kev": [1000, 3800],
         "materials": [{"name": ..., "n_protons": ..., "atoms_per_kg": ...,
                        "mass_kg": ..., "live_time_s": ...,
                        "efficiency_coeffs": [...]}, ...]}
    """
    import json  # loaded only where a file is parsed

    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("inventory JSON must be an object")
    if "window_kev" not in data:
        raise ValueError("inventory missing field 'window_kev'")
    window_spec = data["window_kev"]
    if not isinstance(window_spec, (list, tuple)) or len(window_spec) != 2:
        raise ValueError("'window_kev' must be a [min, max] pair")
    window = EnergyWindow(*(to_float(e, "window_kev") for e in window_spec))
    if "materials" not in data:
        raise ValueError("inventory missing field 'materials'")
    if not isinstance(data["materials"], list):
        raise ValueError("'materials' must be an array")

    materials = []
    for i, entry in enumerate(data["materials"]):
        label = entry.get("name", f"#{i}") if isinstance(entry, dict) else f"#{i}"
        if not isinstance(entry, dict):
            raise ValueError(f"material {label}: expected an object")
        for key, kind in _MATERIAL_FIELDS.items():
            if key not in entry:
                raise ValueError(f"material {label}: missing field '{key}'")
            if not isinstance(entry[key], kind) or isinstance(entry[key], bool):
                raise ValueError(f"material {label}: field '{key}' has wrong type")
        where = f"material {label}: field"
        materials.append(MaterialComponent(
            name=entry["name"],
            n_protons=entry["n_protons"],
            atoms_per_kg=to_float(entry["atoms_per_kg"], f"{where} 'atoms_per_kg'"),
            mass=to_float(entry["mass_kg"], f"{where} 'mass_kg'"),
            live_time=to_float(entry["live_time_s"], f"{where} 'live_time_s'"),
            efficiency=EfficiencyPoly(tuple(
                to_float(c, f"{where} 'efficiency_coeffs'")
                for c in entry["efficiency_coeffs"])),
        ))
    return SignalModel(tuple(materials), window)
