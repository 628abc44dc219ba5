"""Command-line interface tests.

Most tests drive main(argv) in process and parse the report text; a few
run the program in a subprocess to check stream routing (warnings on
stderr, machine-readable output on stdout) and the two entry points:
`python -m cslrad`, and the `cslrad` console script, which the test
writes itself from `[project.scripts]` in pyproject.toml the way an
installer would, so the suite needs no prior install.
"""

import json
import re
import stat
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

from cslrad import detector, emission, limits
from cslrad.cli import main
from cslrad.domain import NoiseParams
from cslrad.specfun import ConvergenceError

REPO = Path(__file__).resolve().parents[1]
GE_INVENTORY = REPO / "scripts" / "data" / "ge_target_inventory.json"

CSV_ROW = re.compile(r"^\d\.\d{16}e[+-]\d{2,3},\d\.\d{16}e[+-]\d{2,3}$")


def report_value(text, label):
    """Extract the value column of a two-column report line."""
    for line in text.splitlines():
        stripped = line.strip()
        if stripped.startswith(label):
            fields = re.split(r"\s{2,}", stripped)
            if len(fields) >= 2 and fields[0] == label:
                return fields[1].split()[0]
    raise AssertionError(f"no report line labeled {label!r} in:\n{text}")


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def proton_system(tmp_path, *positions):
    particles = [{"charge_e": 1.0, "mass_kg": 1.67262192369e-27,
                  "position_m": list(pos)} for pos in positions]
    return write_json(tmp_path, "system.json", particles)


# --- limit ------------------------------------------------------------------

def test_limit_default_report(capsys):
    assert main(["limit"]) == 0
    out = capsys.readouterr().out
    assert report_value(out, "lambda_max") == "5.197e-13"
    assert report_value(out, "count quantile") == "6.171e+02"
    assert report_value(out, "signal quota") == "1.091e+02"
    assert report_value(out, "observed counts") == "576"
    assert "limit exists         yes" in out


def test_limit_matches_api(capsys):
    assert main(["limit", "--z-c", "40", "--z-b", "12", "--a", "1.5",
                 "--r-c", "3e-7", "--credibility", "0.9"]) == 0
    out = capsys.readouterr().out
    exp = limits.CountingExperiment(z_c=40, z_b=12, a=1.5)
    want = limits.upper_limit_lambda(exp, 3e-7, 0.9).lambda_max
    assert report_value(out, "lambda_max") == f"{want:.3e}"


def test_limit_output_file(tmp_path, capsys):
    target = tmp_path / "limit.txt"
    assert main(["limit", "--output", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert "5.197e-13" in target.read_text()


def test_limit_without_positive_quota(capsys):
    assert main(["limit", "--z-c", "0", "--z-b", "600"]) == 2
    out = capsys.readouterr().out
    assert report_value(out, "lambda_max") == "none"
    assert "limit exists         no" in out


@pytest.mark.parametrize("argv", [
    ["limit", "--z-c", "-1"],
    ["limit", "--credibility", "1.5"],
    ["limit", "--r-c", "0"],
    ["limit", "--a", "-2"],
    ["exclusion", "--n-points", "1"],
    ["nonsense"],
    [],
])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


@pytest.mark.parametrize("argv", [
    ["limit", "--r-c", "inf"],
    ["limit", "--r-c", "nan"],
    ["limit", "--credibility", "nan"],
    ["rate", "--atoms", "inf", "--na", "32"],
])
def test_non_finite_numbers_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert re.match(rf"cslrad {argv[0]}: error: argument {argv[1]}: ", last)


def test_non_finite_file_inputs_exit_1(tmp_path, capsys):
    particles = [{"charge_e": float("nan"), "mass_kg": 1.67262192369e-27,
                  "position_m": [0.0, 0.0, 0.0]}]
    system = write_json(tmp_path, "nan_system.json", particles)
    inventory = json.loads(GE_INVENTORY.read_text())
    inventory["materials"][0]["atoms_per_kg"] = float("nan")
    inventory = write_json(tmp_path, "nan_inventory.json", inventory)
    for argv in (["rate", "--system", system], ["regime", "--system", system],
                 ["shape", "--inventory", inventory]):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cslrad: error: ")


@pytest.mark.parametrize("argv", [
    ["limit", "--r-c", "1e160"],
    ["limit", "--a", "1e-320", "--r-c", "1e100"],
    ["rate", "--atoms", "1e300", "--na", "94", "--energy", "1e-300"],
    ["rate", "--atoms", "1e300", "--na", "94", "--r-c", "1e-300"],
    ["rate", "--atoms", "1e20", "--na", str(10 ** 180 + 7)],
    ["efficiency", "--material", "Pb shield", "--energy", "1e300"],
    # a shape far past the range the count quantile is validated on
    ["limit", "--z-c", "99999999999999999999999"],
    # 2 r_c^2 underflows to 0 in the pair kernel
    ["rate", "--system", "x.json", "--r-c", "1e-300"],
    # a shape whose incomplete-gamma series would run ~1e9 terms
    ["limit", "--z-c", "1000000000000000000", "--z-b", "0"],
    # counts that do not fit in a float64
    ["limit", "--z-c", "9" * 401],
    ["limit", "--z-b", "9" * 401],
], ids=["limit-r_c", "limit-a", "rate-energy", "rate-r_c", "rate-na",
        "efficiency", "limit-z_c", "rate-system-r_c", "limit-z_c-1e18",
        "limit-z_c-401-digits", "limit-z_b-401-digits"])
def test_overflowing_numbers_exit_1(argv, capsys, tmp_path):
    if "--system" in argv:
        argv = list(argv)
        argv[argv.index("x.json")] = proton_system(tmp_path, (0, 0, 0),
                                                   (1e-12, 0, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", emission.ValidityWarning)
        assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cslrad: error: ")


def test_convergence_failure_exits_1(monkeypatch, capsys):
    def stalled(shape, q):
        raise ConvergenceError(f"quantile stalled at s={shape}")

    monkeypatch.setattr(limits, "gamma_quantile", stalled)
    assert main(["limit"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "cslrad: error: quantile stalled at s=577.0\n"


# --- exclusion --------------------------------------------------------------

def test_exclusion_default_csv(capsys):
    assert main(["exclusion"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "r_c_m,lambda_max_per_s"
    assert len(lines) == 201
    for row in lines[1:]:
        assert CSV_ROW.match(row), row
    r = np.array([float(row.split(",")[0]) for row in lines[1:]])
    lam = np.array([float(row.split(",")[1]) for row in lines[1:]])
    assert r[0] == pytest.approx(1e-9, rel=1e-14)
    assert r[-1] == pytest.approx(1e-3, rel=1e-14)
    slope = np.polyfit(np.log10(r), np.log10(lam), 1)[0]
    assert slope == pytest.approx(2.0, abs=1e-9)


def test_exclusion_deterministic(capsys):
    assert main(["exclusion", "--n-points", "50"]) == 0
    first = capsys.readouterr().out
    assert main(["exclusion", "--n-points", "50"]) == 0
    assert capsys.readouterr().out == first


def test_exclusion_grid_agrees_with_limit_command(capsys):
    assert main(["exclusion", "--n-points", "199"]) == 0
    row = capsys.readouterr().out.splitlines()[67]
    r_text, lam_text = row.split(",")
    assert float(r_text) == pytest.approx(1e-7, rel=1e-13)
    exp = limits.CountingExperiment(z_c=576, z_b=506)
    want = limits.upper_limit_lambda(exp, float(r_text)).lambda_max
    assert float(lam_text) == pytest.approx(want, rel=1e-12)


def test_exclusion_without_positive_quota(capsys):
    assert main(["exclusion", "--z-c", "0", "--z-b", "600"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "quota" in captured.err


def test_exclusion_inverted_grid(capsys):
    assert main(["exclusion", "--r-c-min", "1e-3", "--r-c-max", "1e-9"]) == 1
    assert "error" in capsys.readouterr().err


def test_exclusion_unwritable_output(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "curve.csv"
    assert main(["exclusion", "--output", str(target)]) == 1
    assert "error" in capsys.readouterr().err


# --- signal -----------------------------------------------------------------

def test_signal_ge_inventory(capsys):
    assert main(["signal", "--inventory", str(GE_INVENTORY)]) == 0
    out = capsys.readouterr().out
    model = detector.signal_model_from_json(GE_INVENTORY.read_text())
    want = detector.compute_a(model)
    assert report_value(out, "total a") == f"{want:.3e}"
    assert report_value(out, "beta") == "1.027e-34"
    assert "Ge crystal" in out
    assert "formula" in out


def test_signal_empty_inventory(tmp_path, capsys):
    path = write_json(tmp_path, "empty.json",
                      {"window_kev": [1000.0, 3800.0], "materials": []})
    assert main(["signal", "--inventory", path]) == 0
    captured = capsys.readouterr()
    assert "empty material inventory" in captured.err
    assert report_value(captured.out, "total a") == "0.000e+00"


def test_signal_missing_field(tmp_path, capsys):
    payload = json.loads(GE_INVENTORY.read_text())
    del payload["materials"][0]["mass_kg"]
    path = write_json(tmp_path, "broken.json", payload)
    assert main(["signal", "--inventory", path]) == 1
    assert "mass_kg" in capsys.readouterr().err


def test_signal_missing_file(capsys):
    assert main(["signal", "--inventory", "/no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_signal_invalid_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert main(["signal", "--inventory", str(path)]) == 1
    assert "error" in capsys.readouterr().err


# --- shape ------------------------------------------------------------------

def test_shape_csv_normalized(capsys):
    assert main(["shape", "--inventory", str(GE_INVENTORY),
                 "--n-points", "400"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "energy_kev,density_per_kev"
    assert len(lines) == 401
    data = np.array([[float(v) for v in row.split(",")] for row in lines[1:]])
    assert data[0, 0] == 1000.0
    assert data[-1, 0] == 3800.0
    assert float(np.trapezoid(data[:, 1], data[:, 0])) == \
        pytest.approx(1.0, abs=1e-9)


# --- rate -------------------------------------------------------------------

def test_rate_atomic_amplification(capsys):
    assert main(["rate", "--atoms", "1e20", "--na", "32",
                 "--energy", "50"]) == 0
    out = capsys.readouterr().out
    assert report_value(out, "amplification") == "1.056e+03"
    assert report_value(out, "electron term") == "on"
    want = float(emission.rate_atomic(
        1e20, 32, NoiseParams(lambda_collapse=1e-16, r_c=1e-7), 50.0,
        include_electrons=True))
    assert report_value(out, "dGamma/dE") == f"{want:.3e}"


def test_rate_atomic_without_electrons(capsys):
    assert main(["rate", "--atoms", "1e20", "--na", "32", "--energy", "50",
                 "--no-electrons"]) == 0
    out = capsys.readouterr().out
    assert report_value(out, "amplification") == "1.024e+03"
    assert report_value(out, "electron term") == "off"


def test_rate_system_matches_api(tmp_path, capsys):
    path = proton_system(tmp_path, (0.0, 0.0, 0.0))
    assert main(["rate", "--system", path]) == 0
    out = capsys.readouterr().out
    want = float(emission.rate_incoherent(
        [1.0], NoiseParams(lambda_collapse=1e-16, r_c=1e-7), 1000.0))
    assert report_value(out, "dGamma/dE") == f"{want:.3e}"
    assert report_value(out, "particles") == "1"


@pytest.mark.parametrize("argv", [
    ["rate"],
    ["rate", "--atoms", "1e20"],
    ["rate", "--atoms", "1e20", "--na", "32", "--system", "x.json"],
])
def test_rate_mode_selection_errors(argv, capsys, tmp_path):
    if "--system" in argv:
        argv = list(argv)
        argv[argv.index("x.json")] = proton_system(tmp_path, (0, 0, 0))
    assert main(argv) == 1
    assert "error" in capsys.readouterr().err


# --- efficiency -------------------------------------------------------------

def test_efficiency_ge(capsys):
    assert main(["efficiency", "--material", "Ge crystal",
                 "--energy", "1000"]) == 0
    out = capsys.readouterr().out
    assert report_value(out, "efficiency") == "2.056e-01"
    assert report_value(out, "dataset") == "paper-table-1"


def test_efficiency_unknown_material(capsys):
    assert main(["efficiency", "--material", "Unobtainium",
                 "--energy", "1000"]) == 1
    err = capsys.readouterr().err
    assert "Ge crystal" in err  # error lists the valid names


def test_efficiency_unknown_dataset(capsys):
    assert main(["efficiency", "--dataset", "nope", "--material", "Ge crystal",
                 "--energy", "1000"]) == 1
    assert "paper-table-1" in capsys.readouterr().err


# --- regime -----------------------------------------------------------------

def test_regime_coherent(tmp_path, capsys):
    path = proton_system(tmp_path, (0.0, 0.0, 0.0), (1e-15, 0.0, 0.0))
    assert main(["regime", "--system", path]) == 0
    out = capsys.readouterr().out
    assert report_value(out, "classification") == "coherent"
    assert report_value(out, "max separation") == "1.000e-15"


def test_regime_incoherent(tmp_path, capsys):
    path = proton_system(tmp_path, (0.0, 0.0, 0.0), (1e-10, 0.0, 0.0))
    assert main(["regime", "--system", path]) == 0
    assert report_value(capsys.readouterr().out,
                        "classification") == "incoherent"


# --- stream routing (subprocess) -------------------------------------------

def run_module(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "cslrad", *argv],
                          capture_output=True, text=True, cwd=cwd, timeout=60)


def test_module_entry_point():
    result = run_module("limit")
    assert result.returncode == 0
    assert "5.197e-13" in result.stdout


def write_console_script(bin_dir, name):
    """Write the wrapper an installer generates for a console entry point.

    The `[project.scripts]` entry `module:attr` becomes the script the
    PyPA entry-points specification describes: import the callable, call
    it with no arguments, and exit with its return value.
    """
    tomllib = pytest.importorskip("tomllib")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert name in scripts, f"no [project.scripts] entry named {name!r}"
    module, attr = scripts[name].split(":")
    bin_dir.mkdir()
    script = bin_dir / name
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script


def test_console_script_installed(tmp_path):
    exe = write_console_script(tmp_path / "bin", "cslrad")
    result = subprocess.run([exe, "limit"], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0
    assert "5.197e-13" in result.stdout


def test_rate_warning_goes_to_stderr():
    # atomic treatment at 1000 keV triggers the electron-term warning
    result = run_module("rate", "--atoms", "1e20", "--na", "32",
                        "--energy", "1000")
    assert result.returncode == 0
    assert "relativistic" in result.stderr
    assert "warning" not in result.stdout.lower()
    assert "dGamma/dE" in result.stdout


def test_shape_clamp_warning_keeps_csv_clean(tmp_path):
    # window reaching below the fit's positive range forces clamping
    payload = {
        "window_kev": [50.0, 3800.0],
        "materials": [{
            "name": "Pb shield", "n_protons": 82, "atoms_per_kg": 2.9e24,
            "mass_kg": 1.0, "live_time_s": 1e6,
            "efficiency_coeffs": [-5.76e-4, 3.812e-6, -2.728e-9, 9.036e-13,
                                  -1.477e-16, 9.60e-21],
        }],
    }
    path = write_json(tmp_path, "pb.json", payload)
    result = run_module("shape", "--inventory", path, "--n-points", "40")
    assert result.returncode == 0
    assert "clamped" in result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "energy_kev,density_per_kev"
    for row in lines[1:]:
        assert CSV_ROW.match(row), row


# --- NumPy stays unloaded where no array is built (subprocess) -------------

def test_scalar_subcommands_leave_numpy_unloaded(tmp_path):
    calls = [
        ["limit"],
        ["signal", "--inventory", str(GE_INVENTORY)],
        ["efficiency", "--material", "Ge crystal", "--energy", "1000"],
        ["rate", "--atoms", "1e20", "--na", "32", "--energy", "50"],
        # control: the exclusion curve is an array, so NumPy loads here
        ["exclusion", "--n-points", "8"],
    ]
    probe = textwrap.dedent("""
        import json, sys
        import cslrad
        from cslrad import cli
        calls, out = json.loads(sys.argv[1]), sys.argv[2]
        seen = [("import cslrad", 0, "numpy" in sys.modules)]
        for argv in calls:
            code = cli.main([*argv, "--output", out])
            seen.append((argv[0], code, "numpy" in sys.modules))
        print(json.dumps(seen))
    """)
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(calls), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen == [["import cslrad", 0, False], ["limit", 0, False],
                    ["signal", 0, False], ["efficiency", 0, False],
                    ["rate", 0, False], ["exclusion", 0, True]]
