import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslrad.domain import (
    CONSTANTS,
    DEFAULT_WINDOW,
    KEV_IN_JOULES,
    M_NUCLEON,
    EnergyWindow,
    NoiseParams,
    Particle,
    ParticleSystem,
    format_value,
    kev_to_joule,
    particle_system_from_json,
    wavelength_from_energy,
)

# CODATA 2018 values retyped here by hand so a transcription slip in the
# package constants cannot hide.
HBAR = 1.054571817e-34
C_LIGHT = 2.99792458e8
EPS0 = 8.8541878128e-12
E_CHARGE = 1.602176634e-19
AMU = 1.66053906660e-27
M_PROTON = 1.67262192369e-27


def test_constants_match_codata_2018():
    assert CONSTANTS.hbar == HBAR
    assert CONSTANTS.c == C_LIGHT
    assert CONSTANTS.eps0 == EPS0
    assert CONSTANTS.e_charge == E_CHARGE
    assert CONSTANTS.amu == AMU
    assert M_NUCLEON == M_PROTON


def test_kev_in_joules_exact():
    assert KEV_IN_JOULES == 1.602176634e-16
    assert kev_to_joule(1.0) == KEV_IN_JOULES
    assert kev_to_joule(1000.0) == pytest.approx(1.602176634e-13, rel=1e-15)


def test_wavelength_reference_point():
    # 12.398 keV photons have a wavelength of almost exactly 1 angstrom.
    assert wavelength_from_energy(12.398) == pytest.approx(
        1.0000338631814227e-10, rel=1e-12)


def test_wavelength_at_window_energies():
    lam = wavelength_from_energy(1000.0)
    assert lam == pytest.approx(1.2398419843320025e-12, rel=1e-10)
    # reduced wavelength c/omega at 1000 keV, the scale entering b
    assert lam / (2.0 * math.pi) == pytest.approx(1.9732698033839646e-13,
                                                  rel=1e-12)


@given(st.floats(min_value=1e-3, max_value=1e6))
def test_wavelength_inverse_in_energy(e_kev):
    # lambda * E is the constant 2*pi*hbar*c
    prod = wavelength_from_energy(e_kev) * kev_to_joule(e_kev)
    assert prod == pytest.approx(2.0 * math.pi * HBAR * C_LIGHT, rel=1e-13)


@pytest.mark.parametrize("bad", [0.0, -1.0])
def test_wavelength_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        wavelength_from_energy(bad)


def test_noise_params_validation():
    ok = NoiseParams(lambda_collapse=1e-16, r_c=1e-7)
    assert (ok.lambda_collapse, ok.r_c) == (1e-16, 1e-7)
    with pytest.raises(ValueError):
        NoiseParams(lambda_collapse=0.0, r_c=1e-7)
    with pytest.raises(ValueError):
        NoiseParams(lambda_collapse=1e-16, r_c=-1e-7)


@pytest.mark.parametrize("field", ["lambda_collapse", "r_c"])
@pytest.mark.parametrize("bad", [math.nan, math.inf,
                                 pytest.param(10 ** 400, id="huge"),
                                 pytest.param(10 ** 5000, id="huge-5001-digits"),
                                 pytest.param("1e-7", id="text"),
                                 pytest.param(True, id="bool"),
                                 pytest.param(None, id="none")])
def test_noise_params_rejects_non_finite(field, bad):
    kwargs = dict(lambda_collapse=1e-16, r_c=1e-7)
    kwargs[field] = bad
    with pytest.raises(ValueError, match=field) as err:
        NoiseParams(**kwargs)
    assert len(str(err.value)) < 100  # a huge int is not spelled out


def test_particle_fields():
    p = Particle(charge_e=1.0, mass=M_PROTON, position=(1.0, 2.0, 3.0))
    assert p.position == (1.0, 2.0, 3.0)


def test_particle_validation():
    with pytest.raises(ValueError):
        Particle(charge_e=1.0, mass=0.0)
    with pytest.raises(ValueError):
        Particle(charge_e=1.0, mass=M_PROTON, position=(1.0, 2.0))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="charge_e"):
            Particle(charge_e=bad, mass=M_PROTON)
        with pytest.raises(ValueError, match="mass"):
            Particle(charge_e=1.0, mass=bad)
        with pytest.raises(ValueError, match="position"):
            Particle(charge_e=1.0, mass=M_PROTON, position=(0.0, bad, 0.0))


@pytest.mark.parametrize("kwargs, quantity", [
    pytest.param(dict(charge_e=10 ** 400), "charge_e", id="huge-charge"),
    pytest.param(dict(charge_e="1"), "charge_e", id="text-charge"),
    pytest.param(dict(charge_e=True), "charge_e", id="bool-charge"),
    pytest.param(dict(position=(10 ** 400, 0, 0)), "position", id="huge-position"),
    pytest.param(dict(position=("1", 0, 0)), "position", id="text-position"),
    pytest.param(dict(position=(0, True, 0)), "position", id="bool-position"),
    pytest.param(dict(mass="1.6e-27"), "mass", id="text-mass"),
])
def test_particle_rejects_non_numbers_by_name(kwargs, quantity):
    kwargs = dict(dict(charge_e=1.0, mass=M_PROTON), **kwargs)
    with pytest.raises(ValueError, match=quantity) as err:
        Particle(**kwargs)
    assert len(str(err.value)) < 100  # a huge int is not spelled out


def test_particle_system_preserves_order_and_rejects_empty():
    a = Particle(1.0, M_PROTON, (0.0, 0.0, 0.0))
    b = Particle(-1.0, M_PROTON, (1.0, 0.0, 0.0))
    sys2 = ParticleSystem((a, b))
    assert len(sys2) == 2
    assert sys2.particles == (a, b)
    with pytest.raises(ValueError):
        ParticleSystem(())


def test_particle_system_keeps_read_only_arrays():
    parts = (Particle(1, M_PROTON, (0, 2e-10, -3e-10)),
             Particle(-2.5, M_PROTON, (1e-9, 0.0, 4.0)),
             Particle(0.0, M_PROTON))
    system = ParticleSystem(parts)
    positions, charges = system._positions, system._charges
    assert positions.dtype == charges.dtype == np.float64
    assert positions.shape == (3, 3) and charges.shape == (3,)
    assert positions.tolist() == [list(p.position) for p in parts]
    assert charges.tolist() == [p.charge_e for p in parts]
    for array in (positions, charges):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 7.0


def test_particle_system_arrays_leave_equality_hash_and_repr_alone():
    parts = (Particle(1.0, M_PROTON, (0.0, 0.0, 1e-10)), Particle(-1.0, M_PROTON))
    system, other = ParticleSystem(parts), ParticleSystem(parts)
    assert system._positions is not other._positions
    assert system == other and hash(system) == hash(other)
    assert repr(system) == repr(other)
    assert "_positions" not in repr(system) and "_charges" not in repr(system)
    names = {f.name for f in dataclasses.fields(ParticleSystem) if f.compare or f.repr}
    assert names == {"particles"}


def test_replaced_particle_system_builds_new_arrays():
    system = ParticleSystem((Particle(1.0, M_PROTON), Particle(1.0, M_PROTON, (1.0, 0, 0))))
    moved = dataclasses.replace(system, particles=(Particle(-3.0, M_PROTON, (0, 0, 2.0)),))
    assert moved._positions.tolist() == [[0.0, 0.0, 2.0]]
    assert moved._charges.tolist() == [-3.0]
    same = dataclasses.replace(system)
    assert same._positions is not system._positions
    assert np.array_equal(same._positions, system._positions)
    assert np.array_equal(same._charges, system._charges)


def test_particle_system_json_round_trip():
    text = json.dumps([
        {"charge_e": 1, "mass_kg": M_PROTON, "position_m": [0, 0, 0]},
        {"charge_e": -1, "mass_kg": 9.1093837015e-31, "position_m": [1e-10, 0, 0]},
    ])
    system = particle_system_from_json(text)
    assert len(system) == 2
    assert system.particles[0].charge_e == 1.0
    assert system.particles[1].position == (1e-10, 0.0, 0.0)


@pytest.mark.parametrize("payload, fragment", [
    ('{"charge_e": 1}', "array"),
    ('[42]', "particle 0"),
    ('[{"charge_e": 1, "position_m": [0,0,0]}]', "mass_kg"),
    ('[{"mass_kg": 1e-27, "position_m": [0,0,0]}]', "charge_e"),
    ('[{"charge_e": 1, "mass_kg": 1e-27}]', "position_m"),
    ('[{"charge_e": 1, "mass_kg": 1e-27, "position_m": [0,0]}]', "3-element"),
    ('[{"charge_e": NaN, "mass_kg": 1e-27, "position_m": [0,0,0]}]',
     "particle 0: charge_e"),
    ('[{"charge_e": 1, "mass_kg": 1e-27, "position_m": [0,0,0]},'
     ' {"charge_e": -Infinity, "mass_kg": 1e-27, "position_m": [0,0,0]}]',
     "particle 1: charge_e"),
    ('[{"charge_e": 1, "mass_kg": Infinity, "position_m": [0,0,0]}]',
     "particle 0: particle mass"),
    ('[{"charge_e": 1, "mass_kg": NaN, "position_m": [0,0,0]}]',
     "particle 0: particle mass"),
    ('[{"charge_e": 1, "mass_kg": 1e-27, "position_m": [0,NaN,0]}]',
     "particle 0: position"),
    ('[{"charge_e": 1, "mass_kg": 1e-27, "position_m": [0,0,Infinity]}]',
     "particle 0: position"),
    ('[{"charge_e": null, "mass_kg": 1e-27, "position_m": [0,0,0]}]',
     "particle 0: float"),
    # a 401-digit JSON integer parses as a Python int too large for a float64
    pytest.param(f'[{{"charge_e": {10 ** 400}, "mass_kg": 1e-27, "position_m": [0,0,0]}}]',
                 "particle 0: charge_e is too large", id="huge-charge_e"),
    pytest.param(f'[{{"charge_e": 1, "mass_kg": {10 ** 400}, "position_m": [0,0,0]}}]',
                 "particle 0: mass_kg is too large", id="huge-mass_kg"),
    pytest.param(f'[{{"charge_e": 1, "mass_kg": 1e-27, "position_m": [0,{10 ** 400},0]}}]',
                 "particle 0: position_m is too large", id="huge-position_m"),
    # JSON strings and booleans are no numbers, though float() takes them
    ('[{"charge_e": "1.5", "mass_kg": true, "position_m": ["0", 0, false]}]',
     r"particle 0: wrong type str \(charge_e\)"),
    ('[{"charge_e": 1, "mass_kg": true, "position_m": [0,0,0]}]',
     r"particle 0: wrong type bool \(mass_kg\)"),
    ('[{"charge_e": 1, "mass_kg": 1e-27, "position_m": ["0",0,0]}]',
     r"particle 0: wrong type str \(position_m\)"),
    ('[{"charge_e": 1, "mass_kg": 1e-27, "position_m": [0,0,false]}]',
     r"particle 0: wrong type bool \(position_m\)"),
    ('[{"charge_e": true, "mass_kg": 1e-27, "position_m": [0,0,0]}]',
     r"particle 0: wrong type bool \(charge_e\)"),
])
def test_particle_system_json_errors_name_the_problem(payload, fragment):
    with pytest.raises(ValueError, match=fragment):
        particle_system_from_json(payload)


@pytest.mark.parametrize("value, text", [
    (12345, "12345"), (-10 ** 17 + 1, repr(-10 ** 17 + 1)), (2.5, "2.5"),
    (10 ** 200, "an integer near 1e+200"), (-10 ** 17, "an integer near -1e+17"),
    (10 ** 400, "an integer above the float64 range"),
    pytest.param(-10 ** 5000, "an integer below the float64 range", id="-10**5000"),
])
def test_format_value_spells_out_no_long_int(value, text):
    assert format_value(value) == text


def test_energy_window():
    w = EnergyWindow(1000.0, 3800.0)
    assert w.contains(1000.0) and w.contains(3800.0) and w.contains(2000.0)
    assert not w.contains(999.9) and not w.contains(3800.1)
    assert DEFAULT_WINDOW == w


@pytest.mark.parametrize("lo, hi", [(0.0, 10.0), (-5.0, 10.0), (10.0, 10.0),
                                    (20.0, 10.0), (10.0, math.inf),
                                    (math.nan, 10.0), (10.0, math.nan),
                                    (1000, 10 ** 400)])
def test_energy_window_validation(lo, hi):
    with pytest.raises(ValueError, match="need 0 < e_min < e_max < inf"):
        EnergyWindow(lo, hi)
