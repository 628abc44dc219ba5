"""Command-line interface tests.

Most tests drive main(argv) in process and parse the report text; a few
run the program in a subprocess to check stream routing (warnings on
stderr, machine-readable output on stdout) and the two entry points:
`python -m cslrad`, and the `cslrad` console script, which the test
writes itself from `[project.scripts]` in pyproject.toml the way an
installer would, so the suite needs no prior install.
"""

import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cslrad import cli, detector, emission, limits
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
    ["limit", "--z-c", "abc"],
    ["limit", "--credibility", "high"],
    ["limit", "--r-c", "1e-7m"],
    ["limit", "--a", ""],
    ["exclusion", "--n-points", "1.5"],
    ["nonsense"],
    [],
    ["efficiency", "--dataset", "paper-table-1", "--material", "Ge crystal",
     "--energy", "1000"],
])
def test_usage_errors_exit_1(argv):
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 1


# argparse only parses numbers.  One that is out of range or not finite
# reaches the library call, whose ValueError names the quantity.
@pytest.mark.parametrize("argv, quantity", [
    (["limit", "--z-c", "-1"], "z_c"),
    (["limit", "--credibility", "1.5"], "credibility"),
    (["limit", "--r-c", "0"], "correlation length r_c"),
    (["limit", "--a", "-2"], "signal constant a"),
    (["exclusion", "--n-points", "1"], "n_points"),
    (["limit", "--r-c", "inf"], "correlation length r_c"),
    (["limit", "--r-c", "nan"], "correlation length r_c"),
    (["limit", "--credibility", "nan"], "credibility"),
    (["rate", "--atoms", "inf", "--na", "32"], "n_atoms"),
    (["limit", "--z-b", "-1"], "z_b"),
    (["exclusion", "--r-c-min", "0"], "r_c_min"),
    (["exclusion", "--r-c-max", "nan"], "r_c_max"),
    (["shape", "--inventory", "ge.json", "--n-points", "1"], "n_points"),
    (["rate", "--atoms", "1e20", "--na", "32", "--collapse-rate", "0"],
     "lambda_collapse"),
    (["rate", "--atoms", "1e20", "--na", "32", "--energy", "-1"], "energy"),
    (["efficiency", "--material", "Ge crystal", "--energy", "-1"], "energy"),
    (["efficiency", "--material", "Ge crystal", "--energy", "nan"], "energy"),
    (["regime", "--system", "x.json", "--energy", "inf"], "photon energy"),
    (["rate", "--atoms", "1e20", "--na", "0"], "atomic number"),
], ids=["limit-z_c", "limit-credibility", "limit-r_c-zero", "limit-a",
        "exclusion-n_points", "limit-r_c-inf", "limit-r_c-nan",
        "limit-credibility-nan", "rate-atoms-inf", "limit-z_b",
        "exclusion-r_c_min", "exclusion-r_c_max", "shape-n_points",
        "rate-collapse_rate", "rate-energy", "efficiency-energy",
        "efficiency-energy-nan", "regime-energy", "rate-na"])
def test_out_of_range_numbers_exit_1(argv, quantity, capsys, tmp_path):
    argv = [str(GE_INVENTORY) if a == "ge.json"
            else proton_system(tmp_path, (0, 0, 0), (1e-12, 0, 0)) if a == "x.json"
            else a for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    last = captured.err.strip().splitlines()[-1]
    assert re.match(rf"cslrad: error: (.* )?{re.escape(quantity)}\b", last), last


def test_non_finite_file_inputs_exit_1(tmp_path, capsys):
    particles = [{"charge_e": float("nan"), "mass_kg": 1.67262192369e-27,
                  "position_m": [0.0, 0.0, 0.0]}]
    system = write_json(tmp_path, "nan_system.json", particles)
    inventory = json.loads(GE_INVENTORY.read_text())
    inventory["materials"][0]["atoms_per_kg"] = float("nan")
    inventory = write_json(tmp_path, "nan_inventory.json", inventory)
    # a 401-digit JSON integer parses as a Python int too large for a float64
    huge_charge = write_json(tmp_path, "huge_charge.json", [
        {"charge_e": 10 ** 400, "mass_kg": 1e-27, "position_m": [0, 0, 0]}])
    huge_position = write_json(tmp_path, "huge_position.json", [
        {"charge_e": 1, "mass_kg": 1e-27, "position_m": [0, 10 ** 400, 0]}])
    huge_atoms = json.loads(GE_INVENTORY.read_text())
    huge_atoms["materials"][0]["atoms_per_kg"] = 10 ** 400
    huge_atoms = write_json(tmp_path, "huge_atoms.json", huge_atoms)
    huge_window = json.loads(GE_INVENTORY.read_text())
    huge_window["window_kev"][0] = 10 ** 400
    huge_window = write_json(tmp_path, "huge_window.json", huge_window)
    # a window whose efficiency integral overflows float64
    wide_window = json.loads(GE_INVENTORY.read_text())
    wide_window["window_kev"] = [1000.0, 1e300]
    wide_window = write_json(tmp_path, "wide_window.json", wide_window)
    for argv, field in ((["rate", "--system", system], "charge_e"),
                        (["regime", "--system", system], "charge_e"),
                        (["shape", "--inventory", inventory], "atoms_per_kg"),
                        (["rate", "--system", huge_charge], "charge_e"),
                        (["regime", "--system", huge_position], "position_m"),
                        (["signal", "--inventory", huge_atoms], "atoms_per_kg"),
                        (["shape", "--inventory", huge_window], "window_kev"),
                        (["signal", "--inventory", wide_window], "not finite")):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("cslrad: error: ")
        assert field in captured.err


@pytest.mark.parametrize("argv", [
    ["limit", "--r-c", "1e160"],
    ["limit", "--a", "1e-320", "--r-c", "1e100"],
    ["rate", "--atoms", "1e300", "--na", "94", "--energy", "1e-300"],
    ["rate", "--atoms", "1e300", "--na", "94", "--r-c", "1e-300"],
    ["rate", "--atoms", "1e20", "--na", str(10 ** 180 + 7)],
    ["efficiency", "--material", "Pb shield", "--energy", "1e300"],
    # 2 r_c^2 underflows to 0 in the pair kernel
    ["rate", "--system", "x.json", "--r-c", "1e-300"],
    # r_c^2 overflows in the rate's prefactor
    ["rate", "--system", "x.json", "--r-c", "1e160"],
    # counts that do not fit in a float64
    ["limit", "--z-c", "9" * 401],
    ["limit", "--z-b", "9" * 401],
], ids=["limit-r_c", "limit-a", "rate-energy", "rate-r_c", "rate-na",
        "efficiency", "rate-system-r_c", "rate-system-r_c-huge",
        "limit-z_c-401-digits",
        "limit-z_b-401-digits"])
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


# Medians of shapes past ~2e10, where the incomplete-gamma series or fraction
# near x ~ s once outran its term budget; the median is s - 1/3 + O(1/s).
@pytest.mark.parametrize("argv", [
    ["limit", "--z-c", "99999999999999999999999", "--credibility", "0.5"],
    ["limit", "--z-c", "1000000000000000000", "--z-b", "0",
     "--credibility", "0.5"],
], ids=["limit-z_c", "limit-z_c-1e18"])
def test_huge_count_medians_exit_0(argv, capsys):
    assert main(argv) == 0
    out = capsys.readouterr().out
    shape = float(int(argv[2])) + 1.0
    assert report_value(out, "count quantile") == f"{shape - 1.0 / 3.0:.3e}"
    assert math.isfinite(float(report_value(out, "lambda_max")))


_COUNTS = st.one_of(st.integers(0, 1000), st.integers(0, 10 ** 12),
                    st.integers(0, 10 ** 300))


@given(_COUNTS, _COUNTS,
       st.floats(min_value=0.0, max_value=1.0, exclude_min=True,
                 exclude_max=True))
def test_limit_over_every_count_exits_cleanly(z_c, z_b, credibility):
    # exit 0, or 2 where the signal quota is not positive, with a finite
    # count quantile; or exit 1 with the CLI's error line.  Never NaN or inf.
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["limit", "--z-c", str(z_c), "--z-b", str(z_b),
                     "--credibility", repr(credibility)])
    out, err = out.getvalue(), err.getvalue()
    assert not re.search(r"\b(nan|inf)\b", out, re.IGNORECASE), out
    if code == 1:
        assert out == ""
        assert "Traceback" not in err
        assert err.strip().splitlines()[-1].startswith("cslrad: error: ")
        return
    assert code in (0, 2), (code, err)
    assert math.isfinite(float(report_value(out, "count quantile")))
    if code == 0:
        assert math.isfinite(float(report_value(out, "lambda_max")))


@pytest.mark.parametrize("z_c", ["0", "1"])
def test_limit_at_a_credibility_of_1e_300_exits_1(z_c, capsys):
    # the count quantile's bracket does not close there, and its best x,
    # 1.594e-276 for a root of 1e-300 at z_c = 0, is no quantile to print
    assert main(["limit", "--z-c", z_c, "--credibility", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cslrad: error: gamma_quantile did not "
                                   "converge")


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
    assert captured.err == ("cslrad: warning: UserWarning: empty material "
                            "inventory; a = 0\n")
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


def test_rate_zero_atoms(capsys):
    # rate_atomic accepts n_atoms = 0, so the CLI gives a zero rate
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", emission.ValidityWarning)
        assert main(["rate", "--atoms", "0", "--na", "32"]) == 0
    assert report_value(capsys.readouterr().out, "dGamma/dE") == "0.000e+00"


@pytest.mark.parametrize("argv", [
    ["rate"],
    ["rate", "--atoms", "1e20"],
    ["rate", "--atoms", "1e20", "--na", "32", "--system", "x.json"],
    ["rate", "--system", "x.json", "--na", "32"],
])
def test_rate_mode_selection_errors(argv, capsys, tmp_path):
    if "--system" in argv:
        argv = list(argv)
        argv[argv.index("x.json")] = proton_system(tmp_path, (0, 0, 0))
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error" in err
    if "--system" in argv:
        assert "give exactly one of --system or --atoms/--na" in err


@pytest.mark.parametrize("flag", ["--electrons", "--no-electrons"])
def test_rate_system_rejects_the_electron_flag(flag, capsys, tmp_path):
    path = proton_system(tmp_path, (0, 0, 0))
    assert main(["rate", "--system", path, flag]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("cslrad: error: --electrons and --no-electrons "
                            "apply only with --atoms\n")


def test_rate_atomic_electron_term_is_on_by_default(capsys):
    argv = ["rate", "--atoms", "1e20", "--na", "32", "--energy", "50"]
    assert main(argv) == 0
    default = capsys.readouterr()
    assert main([*argv, "--electrons"]) == 0
    assert capsys.readouterr() == default
    assert report_value(default.out, "electron term") == "on"


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

def child_env():
    """The environment of a child Python that imports the cslrad under test."""
    paths = [str(Path(cli.__file__).resolve().parents[1]),
             os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def run_module(*argv, cwd=None):
    return subprocess.run([sys.executable, "-m", "cslrad", *argv], env=child_env(),
                          capture_output=True, text=True, cwd=cwd, timeout=60)


def test_huge_r_c_prints_one_error_line():
    # r_c^2 overflows float64 in the rate's prefactor
    result = run_module("rate", "--atoms", "1", "--na", "1", "--r-c", "1e160",
                        "--energy", "50")
    assert result.returncode == 1
    assert result.stdout == ""
    assert "Traceback" not in result.stderr
    assert result.stderr.startswith("cslrad: error: r_c = 1e+160 m")
    assert result.stderr.count("\n") == 1


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
    result = subprocess.run([exe, "limit"], env=child_env(), capture_output=True,
                            text=True, timeout=60)
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


def test_a_warning_prints_as_one_line():
    # no file, line number or source line of the call, whatever the install
    result = run_module("rate", "--atoms", "1e20", "--na", "32")
    assert result.returncode == 0
    assert result.stderr == (
        "cslrad: warning: ValidityWarning: electron term requested at 1000.0 "
        "keV, above the 100 keV relativistic threshold\n")


def test_main_leaves_library_warnings_in_pythons_format(capsys):
    shown = warnings.showwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always")
        assert main(["rate", "--atoms", "1e20", "--na", "32",
                     "--energy", "5"]) == 0
        assert warnings.showwarning is shown
        with pytest.warns(emission.ValidityWarning):
            emission.rate_atomic(1.0, 32, NoiseParams(1e-16, 1e-7), 5.0)
    assert capsys.readouterr().err == (
        "cslrad: warning: ValidityWarning: energy 5.0 keV outside the "
        "10-100000 keV validity range of the atomic rate\n")


@pytest.mark.parametrize("command", ["rate", "regime"])
def test_overflowing_separations_print_only_the_error_line(command, tmp_path):
    # |d|^2 overflows float64; NumPy's overflow warning must not reach stderr
    path = proton_system(tmp_path, (0.0, 0.0, 0.0), (2e160, 0.0, 0.0))
    result = run_module(command, "--system", path)
    assert result.returncode == 1
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("cslrad: error:"), result.stderr


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


def test_signal_clamp_warns_once_per_material(tmp_path):
    # Pb shield's fit is negative below ~150 keV; Ge crystal's is not
    payload = json.loads(GE_INVENTORY.read_text())
    payload["window_kev"] = [50.0, 3800.0]
    payload["materials"].append({
        "name": "Pb shield", "n_protons": 82, "atoms_per_kg": 2.9e24,
        "mass_kg": 1.0, "live_time_s": 1e6,
        "efficiency_coeffs": [-5.76e-4, 3.812e-6, -2.728e-9, 9.036e-13,
                              -1.477e-16, 9.60e-21],
    })
    path = write_json(tmp_path, "pb_ge.json", payload)
    result = run_module("signal", "--inventory", path)
    assert result.returncode == 0
    warned = [line for line in result.stderr.splitlines()
              if "EfficiencyClampWarning" in line]
    assert len(warned) == 1
    assert "'Pb shield'" in warned[0]
    assert "Pb shield" in result.stdout and "Ge crystal" in result.stdout


# --- each call loads only the stage it runs (subprocess) -------------------

@pytest.mark.parametrize("argv, runs", [
    (["limit"], "limits"),
    (["exclusion", "--n-points", "8"], "limits"),
    (["rate", "--atoms", "1e20", "--na", "32", "--energy", "50"], "emission"),
    (["rate", "--system", "x.json", "--energy", "50"], "emission"),
    (["regime", "--system", "x.json"], "emission"),
    (["signal", "--inventory", str(GE_INVENTORY)], "detector"),
    (["shape", "--inventory", str(GE_INVENTORY), "--n-points", "8"], "detector"),
    (["efficiency", "--material", "Ge crystal", "--energy", "1000"], "detector"),
], ids=["limit", "exclusion", "rate-atoms", "rate-system", "regime", "signal", "shape",
        "efficiency"])
def test_each_subcommand_loads_only_its_stage(argv, runs, tmp_path):
    # one fresh interpreter per call; detector builds on emission, so a
    # detector call may load it
    argv = [proton_system(tmp_path, (0, 0, 0), (1e-15, 0, 0)) if a == "x.json"
            else a for a in argv]
    probe = textwrap.dedent("""
        import json, sys
        from cslrad import cli
        code = cli.main(json.loads(sys.argv[1]))
        print(json.dumps([code, sorted(sys.modules)]))
    """)
    result = subprocess.run(
        [sys.executable, "-c", probe, json.dumps([*argv, "--output",
                                                  str(tmp_path / "out")])],
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    code, modules = json.loads(result.stdout.splitlines()[-1])
    assert code == 0
    loaded = {m.split(".", 1)[1] for m in modules if m.startswith("cslrad.")}
    assert runs in loaded
    never = {"limits": {"detector", "emission"}, "emission": {"limits", "detector"},
             "detector": {"limits"}}[runs]
    assert loaded & never == set()


def test_import_cslrad_loads_no_submodule():
    probe = ("import sys, cslrad; "
             "print(sorted(m for m in sys.modules if m.startswith('cslrad.')))")
    result = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


# --- NumPy stays unloaded where no array is built (subprocess) -------------

def test_scalar_subcommands_leave_numpy_unloaded(tmp_path):
    # a system file with a NaN charge fails as its particles are read,
    # before the system (which holds arrays) is built
    bad_system = tmp_path / "nan_charge.json"
    bad_system.write_text('[{"charge_e": NaN, "mass_kg": 1.67262192369e-27, '
                          '"position_m": [0, 0, 0]}]')
    calls = [
        ["limit"],
        ["signal", "--inventory", str(GE_INVENTORY)],
        ["efficiency", "--material", "Ge crystal", "--energy", "1000"],
        ["rate", "--atoms", "1e20", "--na", "32", "--energy", "50"],
        ["rate", "--system", str(bad_system), "--energy", "50"],
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
        env=child_env(), capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    seen = json.loads(result.stdout.splitlines()[-1])
    assert seen == [["import cslrad", 0, False], ["limit", 0, False],
                    ["signal", 0, False], ["efficiency", 0, False],
                    ["rate", 0, False], ["rate", 1, False],
                    ["exclusion", 0, True]]
