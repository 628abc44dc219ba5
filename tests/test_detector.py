"""Detector-folding tests.

The fitted polynomials are checked against np.polyval; the window
integral behind the signal constant is checked against a dense
trapezoid oracle, against mpmath.quad of the pointwise density, and
against closed forms for flat efficiency.
"""

import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest

from cslrad import detector
from cslrad.detector import (
    PAPER_TABLE_1,
    EfficiencyClampWarning,
    EfficiencyPoly,
    MaterialComponent,
    SignalModel,
    beta_constant,
    compute_a,
    eval_efficiency,
    material_signal_constant,
    signal_density,
    signal_model_from_json,
    signal_shape,
)
from cslrad.domain import EnergyWindow, NoiseParams
from cslrad.emission import rate_atomic
from cslrad.specfun import horner

HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8
EPS0 = 8.8541878128e-12
E_CHARGE = 1.602176634e-19
M_PROTON = 1.67262192369e-27

WINDOW = EnergyWindow(1000.0, 3800.0)

# independently retyped copies of the five fitted efficiency polynomials
TABLE_COEFFS = {
    "Ge crystal": (4.82e-1, -4.42e-4, 2.10e-7, -4.87e-11, 4.32e-15),
    "Inner Cu": (3.77e-2, -2.48e-5, 1.03e-8, -2.24e-12, 1.93e-16),
    "Cu block + plate": (2.6e-3, 2.9e-7, -3.1e-10, 5.7e-14, -3.1e-18),
    "Cu shield": (-1.01e-5, 7.8e-8, -2.07e-11, 1.61e-15),
    "Pb shield": (-5.76e-4, 3.812e-6, -2.728e-9, 9.036e-13, -1.477e-16,
                  9.60e-21),
}


def flat_material(value=1.0, n_protons=1, alpha_parts=(1.0, 1.0, 1.0),
                  name="flat"):
    atoms, mass, live = alpha_parts
    return MaterialComponent(name=name, n_protons=n_protons,
                             atoms_per_kg=atoms, mass=mass, live_time=live,
                             efficiency=EfficiencyPoly((value,)))


def ge_material():
    return MaterialComponent(
        name="Ge crystal", n_protons=32, atoms_per_kg=8.291533471017486e24,
        mass=1.0, live_time=10713600.0,
        efficiency=PAPER_TABLE_1["Ge crystal"])


# --- polynomial table -------------------------------------------------------

def test_builtin_coefficients_as_transcribed():
    assert set(PAPER_TABLE_1) == set(TABLE_COEFFS)
    for name, coeffs in TABLE_COEFFS.items():
        assert PAPER_TABLE_1[name].coeffs == coeffs


def test_builtin_uncertainties_present_and_aligned():
    for poly in PAPER_TABLE_1.values():
        assert poly.uncertainties is not None
        assert len(poly.uncertainties) == len(poly.coeffs)
        assert all(u > 0 for u in poly.uncertainties)


def test_ge_efficiency_at_window_start():
    got = eval_efficiency(PAPER_TABLE_1["Ge crystal"], 1000.0)
    assert got == pytest.approx(0.2056, abs=1e-4)


def test_builtins_nonnegative_over_window():
    grid = np.linspace(WINDOW.e_min, WINDOW.e_max, 28001)
    for name, poly in PAPER_TABLE_1.items():
        values = np.polyval(list(poly.coeffs)[::-1], grid)
        assert values.min() >= 0.0, name


def test_eval_efficiency_clamps_with_warning():
    pb = PAPER_TABLE_1["Pb shield"]
    assert horner(pb.coeffs, 100.0) < 0.0  # fit extrapolates negative here
    with pytest.warns(EfficiencyClampWarning):
        assert eval_efficiency(pb, 100.0) == 0.0


def test_eval_efficiency_quiet_in_window():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for poly in PAPER_TABLE_1.values():
            eval_efficiency(poly, 2000.0)


def test_eval_efficiency_rejects_nonpositive_energy():
    poly = EfficiencyPoly((0.5,))
    for bad in (0.0, -10.0):
        with pytest.raises(ValueError):
            eval_efficiency(poly, bad)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="energy must be finite"):
            eval_efficiency(poly, bad)


def test_eval_efficiency_rejects_overflow():
    with pytest.raises(ValueError, match="not finite"):
        eval_efficiency(PAPER_TABLE_1["Pb shield"], 1e300)


@pytest.mark.parametrize("kwargs, quantity", [
    pytest.param(dict(coeffs=(10 ** 400,)), "coefficient", id="huge-coeff"),
    pytest.param(dict(coeffs=("0.5",)), "coefficient", id="text-coeff"),
    pytest.param(dict(coeffs=(0.5, True)), "coefficient", id="bool-coeff"),
    pytest.param(dict(uncertainties=(math.nan, 0.1)), "uncertainty", id="nan-error"),
    pytest.param(dict(uncertainties=(0.1, -0.1)), "uncertainty", id="negative-error"),
    pytest.param(dict(uncertainties=(math.inf, 0.1)), "uncertainty", id="inf-error"),
    pytest.param(dict(uncertainties=("0.1", 0.1)), "uncertainty", id="text-error"),
    pytest.param(dict(uncertainties=(0.1, False)), "uncertainty", id="bool-error"),
    pytest.param(dict(uncertainties=(10 ** 400, 0.1)), "uncertainty", id="huge-error"),
])
def test_efficiency_poly_rejects_bad_numbers_by_name(kwargs, quantity):
    kwargs = dict(dict(coeffs=(0.5, 1e-4)), **kwargs)
    with pytest.raises(ValueError, match=quantity) as err:
        EfficiencyPoly(**kwargs)
    assert len(str(err.value)) < 100  # a huge int is not spelled out


def test_efficiency_poly_validation():
    with pytest.raises(ValueError):
        EfficiencyPoly(())
    with pytest.raises(ValueError):
        EfficiencyPoly((1.0, 2.0), uncertainties=(0.1,))


# --- beta constant ----------------------------------------------------------

def test_beta_constant_value():
    want = (HBAR * E_CHARGE ** 2
            / (4.0 * math.pi ** 2 * EPS0 * C_LIGHT ** 3 * M_PROTON ** 2))
    assert beta_constant() == pytest.approx(want, rel=1e-15)
    assert beta_constant() == pytest.approx(1.0273792806899094e-34, rel=1e-12)


# --- materials --------------------------------------------------------------

def test_material_alpha_product():
    mat = flat_material(alpha_parts=(3.0, 5.0, 7.0))
    assert mat.alpha == 105.0


@pytest.mark.parametrize("field_name", ["n_protons", "atoms_per_kg", "mass",
                                        "live_time"])
def test_material_rejects_nonpositive(field_name):
    kwargs = dict(name="x", n_protons=1, atoms_per_kg=1.0, mass=1.0,
                  live_time=1.0, efficiency=EfficiencyPoly((1.0,)))
    kwargs[field_name] = 0 if field_name == "n_protons" else 0.0
    with pytest.raises(ValueError, match=field_name):
        MaterialComponent(**kwargs)
    if field_name == "n_protons":
        for bad in (32.5, True, math.nan, math.inf, -math.inf):
            kwargs[field_name] = bad
            with pytest.raises(ValueError, match="n_protons of 'x' must be an integer"):
                MaterialComponent(**kwargs)


@pytest.mark.parametrize("field_name", ["atoms_per_kg", "mass", "live_time"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_material_rejects_non_finite(field_name, bad):
    kwargs = dict(name="x", n_protons=1, atoms_per_kg=1.0, mass=1.0,
                  live_time=1.0, efficiency=EfficiencyPoly((1.0,)))
    kwargs[field_name] = bad
    with pytest.raises(ValueError, match=field_name):
        MaterialComponent(**kwargs)


# --- signal density ---------------------------------------------------------

def test_signal_density_zero_ratio():
    model = SignalModel((ge_material(),), WINDOW)
    assert signal_density(model, 0.0, 2000.0) == 0.0


def test_signal_density_flat_efficiency_closed_form():
    mat = flat_material(n_protons=3, alpha_parts=(2.0, 5.0, 11.0))
    model = SignalModel((mat,), WINDOW)
    ratio = 1e-3
    energy = 1500.0
    want = 9.0 * 110.0 * beta_constant() * ratio / energy
    assert signal_density(model, ratio, energy) == pytest.approx(want, rel=1e-14)


def test_signal_density_scales_with_mass():
    heavy = MaterialComponent(name="Ge crystal", n_protons=32,
                              atoms_per_kg=8.291533471017486e24, mass=2.0,
                              live_time=10713600.0,
                              efficiency=PAPER_TABLE_1["Ge crystal"])
    light_model = SignalModel((ge_material(),), WINDOW)
    heavy_model = SignalModel((heavy,), WINDOW)
    assert signal_density(heavy_model, 1.0, 2000.0) == \
        pytest.approx(2.0 * signal_density(light_model, 1.0, 2000.0), rel=1e-15)


@pytest.mark.parametrize("energy", [999.9, 3800.1, -5.0])
def test_signal_density_rejects_out_of_window(energy):
    model = SignalModel((ge_material(),), WINDOW)
    with pytest.raises(ValueError, match="window"):
        signal_density(model, 1.0, energy)


def test_signal_density_accepts_window_edges():
    model = SignalModel((ge_material(),), WINDOW)
    assert signal_density(model, 1.0, 1000.0) > 0.0
    assert signal_density(model, 1.0, 3800.0) > 0.0


# --- signal constant --------------------------------------------------------

def test_compute_a_flat_efficiency_is_log_window():
    mat = flat_material(n_protons=2, alpha_parts=(10.0, 3.0, 100.0))
    model = SignalModel((mat,), WINDOW)
    want = 4.0 * 3000.0 * beta_constant() * math.log(3.8)
    assert compute_a(model) == pytest.approx(want, rel=1e-10)


def test_compute_a_ge_against_trapezoid_oracle():
    mat = ge_material()
    model = SignalModel((mat,), WINDOW)
    grid = np.linspace(WINDOW.e_min, WINDOW.e_max, 2_000_001)
    eps = np.polyval(list(TABLE_COEFFS["Ge crystal"])[::-1], grid)
    integral = np.trapezoid(eps / grid, grid)
    want = 32 ** 2 * mat.alpha * beta_constant() * float(integral)
    assert compute_a(model) == pytest.approx(want, rel=1e-8)


def test_compute_a_additive_over_materials():
    a = flat_material(value=0.3, n_protons=2, name="a")
    b = ge_material()
    combined = compute_a(SignalModel((a, b), WINDOW))
    separate = compute_a(SignalModel((a,), WINDOW)) + \
        compute_a(SignalModel((b,), WINDOW))
    assert combined == pytest.approx(separate, rel=1e-14)


def test_compute_a_exposure_linear_proton_quadratic():
    base = material_signal_constant(flat_material(), WINDOW)
    doubled = material_signal_constant(
        flat_material(alpha_parts=(2.0, 1.0, 1.0)), WINDOW)
    charged = material_signal_constant(flat_material(n_protons=3), WINDOW)
    assert doubled == pytest.approx(2.0 * base, rel=1e-15)
    assert charged == pytest.approx(9.0 * base, rel=1e-15)


def test_compute_a_empty_inventory():
    assert compute_a(SignalModel((), WINDOW)) == 0.0


def test_compute_a_consistent_with_density_integral():
    model = SignalModel((ge_material(),), WINDOW)
    integral = mpmath.quad(lambda e: signal_density(model, 1.0, float(e)),
                           [WINDOW.e_min, WINDOW.e_max])
    assert compute_a(model) == pytest.approx(float(integral), rel=1e-12)


# --- the detector folds emission's rate -------------------------------------

def table_model():
    """The five fitted components, with made-up exposures."""
    return SignalModel(tuple(
        MaterialComponent(name=name, n_protons=n, atoms_per_kg=8e24 * (k + 1),
                          mass=1.0 + k, live_time=1e7, efficiency=poly)
        for k, ((name, poly), n) in enumerate(zip(PAPER_TABLE_1.items(),
                                                  (32, 29, 29, 29, 82)))),
        WINDOW)


@pytest.mark.parametrize("lam, r_c, energy", [
    (1e-16, 1e-7, 1000.0), (1e-16, 1e-7, 3800.0), (1e-16, 1e-7, 2345.6),
    (1e-20, 1e-10, 1500.0), (3.7e-9, 1.0220661985957873e-09, 1200.0),
    (2.2e-12, 1.0882647943831494e-09, 3100.0), (1e-8, 1e-4, 1999.9),
    (4.4e-17, 2.5e-6, 2750.0), (1.0, 1.0, 3333.3), (1e-11, 7e-8, 1024.0),
    (6.1e-14, 3.3e-9, 3700.0), (1e-18, 1e-5, 2222.2),
])
def test_signal_density_is_the_nuclear_atomic_rate_times_efficiency(
        lam, r_c, energy):
    # the detector stage is emission's per-atom rate, nucleus alone (N_p^2),
    # over alpha_i atoms, weighted by each efficiency
    model = table_model()
    noise = NoiseParams(lambda_collapse=lam, r_c=r_c)
    want = sum(
        rate_atomic(mat.alpha, mat.n_protons, noise, energy,
                    include_electrons=False).value
        * eval_efficiency(mat.efficiency, energy)
        for mat in model.materials)
    got = signal_density(model, lam / r_c ** 2, energy)
    assert got == pytest.approx(want, rel=1e-15)


def test_signal_constant_pinned_bits():
    # beta and the signal constants of the bundled inventory and of the
    # table, bit for bit
    assert beta_constant().hex() == "0x1.111fcf882edd9p-113"
    path = Path(__file__).parent.parent / "scripts" / "data" / \
        "ge_target_inventory.json"
    model = signal_model_from_json(path.read_text())
    assert [material_signal_constant(mat, model.window).hex()
            for mat in model.materials] == ["0x1.8ebb39e0df503p+0"]
    assert compute_a(model).hex() == "0x1.8ebb39e0df503p+0"
    table = table_model()
    assert [material_signal_constant(mat, table.window).hex()
            for mat in table.materials] == [
        "0x1.67165b813fdbfp+0", "0x1.199e526baa0bcp-1", "0x1.862fb7167794fp-3",
        "0x1.574721f7ac19cp-7", "0x1.24cd84473ee16p+1"]
    assert compute_a(table).hex() == "0x1.1c3d449b143bep+2"


def test_compute_a_warns_once_per_clamped_material():
    model = table1_model(EnergyWindow(50.0, 3800.0))
    with pytest.warns(EfficiencyClampWarning) as caught:
        compute_a(model)
    messages = [str(w.message) for w in caught]
    named = [name for name in PAPER_TABLE_1 if any(f"'{name}'" in m for m in messages)]
    grid = np.linspace(50.0, 3800.0, 375_001)
    negative = [name for name, poly in PAPER_TABLE_1.items()
                if np.polyval(poly.coeffs[::-1], grid).min() < 0.0]
    assert len(messages) == len(named) == len(negative)
    assert set(named) == set(negative)
    assert "Pb shield" in named
    assert all("clamped" in m for m in messages)


def test_compute_a_in_window_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compute_a(table1_model())


def test_compute_a_calls_no_eval_efficiency(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return eval_efficiency(*args)

    monkeypatch.setattr(detector, "eval_efficiency", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EfficiencyClampWarning)
        compute_a(table1_model(EnergyWindow(50.0, 3800.0)))
    assert calls == []


def test_compute_a_rejects_a_window_past_float64():
    model = SignalModel((ge_material(),), EnergyWindow(1000.0, 1e300))
    with pytest.raises(ValueError, match="not finite"):
        compute_a(model)


# --- signal shape -----------------------------------------------------------

def test_signal_shape_unit_area():
    model = SignalModel((ge_material(),), WINDOW)
    energies, density = signal_shape(model, 1500)
    assert len(energies) == 1500
    assert float(np.trapezoid(density, energies)) == pytest.approx(1.0, abs=1e-9)


def test_signal_shape_flat_efficiency_is_inverse_energy():
    model = SignalModel((flat_material(),), WINDOW)
    energies, density = signal_shape(model, 800)
    want = 1.0 / (energies * math.log(3.8))
    assert np.allclose(density, want, rtol=1e-5)


def test_signal_shape_independent_of_inventory_scale():
    small = SignalModel((ge_material(),), WINDOW)
    big = SignalModel((MaterialComponent(
        name="Ge crystal", n_protons=32, atoms_per_kg=8.291533471017486e24,
        mass=40.0, live_time=10713600.0,
        efficiency=PAPER_TABLE_1["Ge crystal"]),), WINDOW)
    _, d1 = signal_shape(small, 300)
    _, d2 = signal_shape(big, 300)
    assert np.allclose(d1, d2, rtol=1e-12)


def test_signal_shape_needs_two_points():
    model = SignalModel((flat_material(),), WINDOW)
    with pytest.raises(ValueError):
        signal_shape(model, 1)
    for bad in (2.5, True, math.nan):
        with pytest.raises(ValueError, match="n_points must be an integer"):
            signal_shape(model, bad)
    energies, _ = signal_shape(model, 2)
    assert len(energies) == 2


def test_signal_shape_rejects_zero_density():
    model = SignalModel((flat_material(value=0.0),), WINDOW)
    with pytest.raises(ValueError, match="zero"):
        signal_shape(model, 100)


# --- inventory JSON ---------------------------------------------------------

VALID_INVENTORY = {
    "window_kev": [1000.0, 3800.0],
    "materials": [
        {"name": "Ge crystal", "n_protons": 32,
         "atoms_per_kg": 8.291533471017486e24, "mass_kg": 1.0,
         "live_time_s": 10713600.0,
         "efficiency_coeffs": list(TABLE_COEFFS["Ge crystal"])},
    ],
}


def test_inventory_round_trip():
    model = signal_model_from_json(json.dumps(VALID_INVENTORY))
    assert model.window == WINDOW
    assert len(model.materials) == 1
    mat = model.materials[0]
    assert mat.name == "Ge crystal"
    assert mat.n_protons == 32
    assert mat.alpha == pytest.approx(8.291533471017486e24 * 10713600.0)
    assert mat.efficiency.coeffs == TABLE_COEFFS["Ge crystal"]


def test_inventory_file_matches_builtin_ge():
    path = Path(__file__).parent.parent / "scripts" / "data" / \
        "ge_target_inventory.json"
    model = signal_model_from_json(path.read_text())
    mat = model.materials[0]
    assert mat.efficiency.coeffs == PAPER_TABLE_1["Ge crystal"].coeffs
    # 124 kg day of live exposure at 1 kg
    assert mat.mass * mat.live_time == pytest.approx(124.0 * 86400.0, rel=1e-12)


def _broken(mutate):
    data = json.loads(json.dumps(VALID_INVENTORY))
    mutate(data)
    return json.dumps(data)


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.pop("window_kev"), "window_kev"),
    (lambda d: d.update(window_kev=[1.0, 2.0, 3.0]), "pair"),
    (lambda d: d.pop("materials"), "materials"),
    (lambda d: d.update(materials={}), "array"),
    (lambda d: d["materials"][0].pop("mass_kg"), "mass_kg"),
    (lambda d: d["materials"][0].pop("efficiency_coeffs"), "efficiency_coeffs"),
    (lambda d: d["materials"][0].update(mass_kg="heavy"), "mass_kg"),
    (lambda d: d["materials"][0].update(n_protons=32.0), "n_protons"),
    (lambda d: d["materials"][0].update(n_protons=True), "n_protons"),
    (lambda d: d["materials"].__setitem__(0, 7), "expected an object"),
    (lambda d: d["materials"][0].update(atoms_per_kg=math.nan), "atoms_per_kg"),
    (lambda d: d["materials"][0].update(live_time_s=math.inf), "live_time"),
    (lambda d: d.update(window_kev=[1000.0, math.inf]), "e_max < inf"),
    (lambda d: d["materials"][0]["efficiency_coeffs"].__setitem__(0, math.nan),
     "efficiency coefficients"),
    # a 401-digit JSON integer parses as a Python int too large for a float64
    (lambda d: d["window_kev"].__setitem__(0, 10 ** 400),
     "^window_kev is too large for a float64$"),
    (lambda d: d["window_kev"].__setitem__(1, 10 ** 400),
     "^window_kev is too large for a float64$"),
    (lambda d: d["materials"][0].update(n_protons=10 ** 400),
     "n_protons of 'Ge crystal' is too large"),
    (lambda d: d["materials"][0].update(atoms_per_kg=10 ** 400),
     "'atoms_per_kg' is too large"),
    (lambda d: d["materials"][0].update(mass_kg=10 ** 400), "'mass_kg' is too large"),
    (lambda d: d["materials"][0].update(live_time_s=10 ** 400),
     "'live_time_s' is too large"),
    (lambda d: d["materials"][0]["efficiency_coeffs"].__setitem__(2, 10 ** 400),
     "'efficiency_coeffs' is too large"),
    (lambda d: d["window_kev"].__setitem__(0, None), r"\(window_kev\)$"),
    (lambda d: d["materials"][0]["efficiency_coeffs"].__setitem__(0, "x"),
     r"\(material Ge crystal: field 'efficiency_coeffs'\)$"),
])
def test_inventory_errors_name_the_problem(mutate, fragment):
    with pytest.raises(ValueError, match=fragment):
        signal_model_from_json(_broken(mutate))


def test_inventory_rejects_non_object_root():
    with pytest.raises(ValueError, match="object"):
        signal_model_from_json("[1, 2]")


# --- vectorized signal shape ------------------------------------------------

def table1_model(window=WINDOW):
    return SignalModel(tuple(
        MaterialComponent(name=name, n_protons=z, atoms_per_kg=atoms,
                          mass=mass, live_time=1e7, efficiency=PAPER_TABLE_1[name])
        for name, z, atoms, mass in (
            ("Ge crystal", 32, 8.29e24, 1.0), ("Inner Cu", 29, 9.48e24, 20.0),
            ("Cu block + plate", 29, 9.48e24, 80.0),
            ("Cu shield", 29, 9.48e24, 300.0), ("Pb shield", 82, 2.91e24, 900.0))
    ), window)


def pointwise_shape(model, n_points):
    energies = np.linspace(model.window.e_min, model.window.e_max, n_points)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EfficiencyClampWarning)
        density = np.array([signal_density(model, 1.0, e) for e in energies])
    return energies, density / np.trapezoid(density, energies)


@pytest.mark.parametrize("window", [WINDOW, EnergyWindow(50.0, 3800.0)])
def test_signal_shape_matches_pointwise_density(window):
    model = table1_model(window)
    want_e, want = pointwise_shape(model, 400)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", EfficiencyClampWarning)
        energies, density = signal_shape(model, 400)
    assert np.array_equal(energies, want_e)
    assert np.max(np.abs(density - want)) <= 1e-13 * np.max(want)


def test_signal_shape_warns_once_per_clamped_material():
    model = table1_model(EnergyWindow(50.0, 3800.0))
    with pytest.warns(EfficiencyClampWarning) as caught:
        signal_shape(model, 400)
    messages = [str(w.message) for w in caught]
    assert all("clamped" in m for m in messages)
    named = [name for name in PAPER_TABLE_1 if any(f"'{name}'" in m for m in messages)]
    assert len(named) == len(messages)
    assert "Pb shield" in named
    for name in named:
        coeffs = PAPER_TABLE_1[name].coeffs[::-1]
        assert np.polyval(coeffs, np.linspace(50.0, 3800.0, 400)).min() < 0.0


def test_signal_shape_in_window_is_quiet():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        signal_shape(table1_model(), 400)
