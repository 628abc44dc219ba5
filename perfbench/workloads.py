"""Seeded inputs, one timed pass, and the output checks of each workload.

A workload object makes the inputs of pass ``k`` from ``(seed, k)`` only,
runs one pass over them through the cslrad module attributes (so that the
tracer's wrappers see every call), and checks the outputs afterwards.
``check`` returns one ``(operation, reason)`` pair per operation, with
``reason`` None when the output is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks

from cslrad import cli, detector, domain, emission, limits

# --- analysis ------------------------------------------------------------------

ANALYSIS_CONFIGS = 36           # i % 3 picks the z_c stratum, i % 4 == 3 exhausts the budget
ANALYSIS_SHAPE_POINTS = 400
ANALYSIS_EXCLUSION_POINTS = 12000
ANALYSIS_R_C = 3                # r_c values per configuration and credibility
# z_c strata: posterior shapes z_c + 1 of 1-10, ~577 and up to 1e6 + 1.
Z_C_STRATA = ((0, 9), (300, 3000), (200_000, 1_000_000))


def _rng(seed: int, k: int, salt: int):
    return np.random.default_rng([seed % (1 << 63), k, salt])


def _loguniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size))


def table1_materials(rng):
    """A Table-1 inventory with seeded masses (kg) and live times (s)."""
    out = []
    for name, (n_p, molar, coeffs) in checks.TABLE_1.items():
        out.append({"name": name, "n_protons": n_p,
                    "atoms_per_kg": checks.AVOGADRO / molar,
                    "mass_kg": float(_loguniform(rng, 0.05, 500.0)),
                    "live_time_s": float(_loguniform(rng, 1e6, 1e8)),
                    "efficiency_coeffs": list(coeffs)})
    return out


def oracle_materials(materials):
    return [(m["n_protons"], m["mass_kg"] * m["atoms_per_kg"] * m["live_time_s"],
             tuple(m["efficiency_coeffs"])) for m in materials]


def signal_model(materials):
    return detector.SignalModel(tuple(
        detector.MaterialComponent(
            name=m["name"], n_protons=m["n_protons"], atoms_per_kg=m["atoms_per_kg"],
            mass=m["mass_kg"], live_time=m["live_time_s"],
            efficiency=detector.EfficiencyPoly(tuple(m["efficiency_coeffs"])))
        for m in materials), domain.DEFAULT_WINDOW)


class Analysis:
    """Inventory -> a and the signal shape -> bounds at several r_c -> exclusion curve."""

    name = "analysis"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_inputs(self, k: int):
        rng = _rng(self.seed, k, 1)
        configs = []
        for i in range(ANALYSIS_CONFIGS):
            lo, hi = Z_C_STRATA[i % 3]
            z_c = int(rng.integers(lo, hi + 1))
            if i % 4 == 3:   # background exhausts the budget at every credibility used
                z_b = z_c + int(math.ceil(5.0 * math.sqrt(z_c + 1.0))) + 5
            else:
                z_b = int(rng.uniform(0.0, 0.9) * z_c)
            materials = table1_materials(rng)
            configs.append({
                "materials": materials, "model": signal_model(materials),
                "z_c": z_c, "z_b": z_b,
                "r_c": [float(x) for x in _loguniform(rng, 1e-9, 1e-3, ANALYSIS_R_C)],
                "credibility": [0.95, float(rng.uniform(0.68, 0.999))],
                "r_c_range": (float(_loguniform(rng, 1e-10, 1e-8)),
                              float(_loguniform(rng, 1e-5, 1e-2))),
            })
        return configs

    def run_pass(self, configs):
        ref = checks.REFERENCE
        outs = [limits.upper_limit_lambda(
            limits.CountingExperiment(ref["z_c"], ref["z_b"], ref["a"]), ref["r_c"])]
        for cfg in configs:
            a = detector.compute_a(cfg["model"])
            shape = detector.signal_shape(cfg["model"], ANALYSIS_SHAPE_POINTS)
            exp = limits.CountingExperiment(cfg["z_c"], cfg["z_b"], a)
            bounds = [limits.upper_limit_lambda(exp, r, q)
                      for q in cfg["credibility"] for r in cfg["r_c"]]
            try:
                curve = limits.exclusion_curve(exp, *cfg["r_c_range"],
                                               ANALYSIS_EXCLUSION_POINTS, 0.95)
            except limits.NoPositiveLimitError as exc:
                # Without its traceback, whose frames hold this pass's outputs.
                curve = exc.with_traceback(None)
            outs.append((a, shape, bounds, curve))
        return outs

    def check(self, configs, outs):
        results = [("reference limit", checks.check_reference_limit(outs[0]))]
        for cfg, (a, (energies, density), bounds, curve) in zip(configs, outs[1:]):
            mats = oracle_materials(cfg["materials"])
            results.append(("compute_a", checks.check_compute_a(a, mats)))
            results.append(("signal_shape", checks.check_signal_shape(
                energies, density, mats, ANALYSIS_SHAPE_POINTS)))
            pairs = [(q, r) for q in cfg["credibility"] for r in cfg["r_c"]]
            for (q, r), res in zip(pairs, bounds):
                results.append(("upper_limit_lambda", checks.check_upper_limit(
                    res, cfg["z_c"], cfg["z_b"], a, r, q)))
            results.append(("exclusion_curve", checks.check_exclusion(
                curve, cfg["z_c"], cfg["z_b"], a, *cfg["r_c_range"],
                ANALYSIS_EXCLUSION_POINTS, 0.95)))
        return results

    def repeated_share(self, configs) -> float:
        """Share of count-quantile solves in a pass whose (shape, credibility) came earlier."""
        keys = [(576, 0.95)]
        for cfg in configs:
            keys += [(cfg["z_c"], q) for q in cfg["credibility"] for _ in cfg["r_c"]]
            keys.append((cfg["z_c"], 0.95))
        return 1.0 - len(set(keys)) / len(keys)


# --- emission -------------------------------------------------------------------

EMISSION_SIZES = (150, 300, 500, 800)   # particles per system; fixed so each pass is the same work
EMISSION_ENERGIES = 1                   # energies per system, log-uniform in 10-1e5 keV
SPARSE_SPACING = 20.0               # lattice spacing in r_c
SPARSE_JITTER = 2.0                 # +- jitter in r_c, so lattice pairs stay > 16 r_c apart
SPARSE_CLUMPS = 4                   # clumps of SPARSE_CLUMP_SIZE within 1.5 r_c of a site
SPARSE_CLUMP_SIZE = 6


def _dense_positions(rng, n, r_c):
    """Uniform in a ball of radius R <= 0.45 r_c, so every separation is below r_c."""
    radius = r_c * float(_loguniform(rng, 1e-6, 0.45))
    v = rng.normal(size=(n, 3))
    v /= np.linalg.norm(v, axis=1)[:, None]
    return v * (radius * rng.uniform(0.0, 1.0, n) ** (1.0 / 3.0))[:, None]


def _sparse_positions(rng, n, r_c):
    """A jittered cubic lattice (spacing 20 r_c) plus a few tight clumps."""
    n_clump = SPARSE_CLUMPS * SPARSE_CLUMP_SIZE
    n_sites = n - n_clump + SPARSE_CLUMPS
    side = math.ceil(n_sites ** (1.0 / 3.0)) + 1
    grid = np.stack(np.meshgrid(*[np.arange(side)] * 3, indexing="ij"), -1).reshape(-1, 3)
    sites = grid[rng.choice(len(grid), n_sites, replace=False)] * SPARSE_SPACING
    singles = sites[SPARSE_CLUMPS:] + rng.uniform(-SPARSE_JITTER, SPARSE_JITTER,
                                                  (n_sites - SPARSE_CLUMPS, 3))
    clumps = []
    for centre in sites[:SPARSE_CLUMPS]:
        offsets = rng.normal(size=(SPARSE_CLUMP_SIZE, 3))
        offsets *= (1.5 * rng.uniform(0.0, 1.0, SPARSE_CLUMP_SIZE) ** (1.0 / 3.0)
                    / np.linalg.norm(offsets, axis=1))[:, None]
        clumps.append(centre + offsets)
    return np.concatenate([singles] + clumps) * r_c


class Emission:
    """rate_general at several energies and classify_regime on seeded systems."""

    def __init__(self, seed: int, workdir: Path, sparse: bool):
        self.seed, self.sparse = seed, sparse
        self.name = "emission-sparse" if sparse else "emission-dense"
        self.build_s: list[float] = []

    def make_inputs(self, k: int):
        rng = _rng(self.seed, k, 3 if self.sparse else 2)
        systems = []
        build = 0.0
        for n in EMISSION_SIZES:
            r_c = float(_loguniform(rng, 1e-8, 1e-6))
            pos = (_sparse_positions if self.sparse else _dense_positions)(rng, n, r_c)
            q = rng.choice([-1.0, 1.0], n)
            mass = checks.AMU * rng.uniform(1.0, 240.0, n)
            t0 = time.perf_counter()
            system = domain.ParticleSystem(tuple(
                domain.Particle(float(qi), float(mi), tuple(pi))
                for qi, mi, pi in zip(q, mass, pos.tolist())))
            build += time.perf_counter() - t0
            systems.append({
                "system": system, "q": q, "pos": pos, "r_c": r_c,
                "noise": domain.NoiseParams(float(_loguniform(rng, 1e-20, 1e-8)), r_c),
                "energies": [float(e) for e in _loguniform(rng, 10.0, 1e5, EMISSION_ENERGIES)],
            })
        self.build_s.append(build)
        return systems

    def run_pass(self, systems):
        outs = []
        for s in systems:
            rates = [emission.rate_general(s["system"], s["noise"], e) for e in s["energies"]]
            incoherent = ([emission.rate_incoherent(s["q"].tolist(), s["noise"], e)
                           for e in s["energies"]] if self.sparse else None)
            regime = emission.classify_regime(s["system"], s["noise"], s["energies"][0])
            outs.append((rates, incoherent, regime))
        return outs

    def check(self, systems, outs):
        results = []
        for s, (rates, incoherent, regime) in zip(systems, outs):
            lam = s["noise"].lambda_collapse
            for j, (e, rate) in enumerate(zip(s["energies"], rates)):
                inc = None if incoherent is None else float(incoherent[j])
                results.append(("rate_general", checks.check_rate_general(
                    float(rate), s["q"], s["pos"], s["r_c"], lam, e, inc)))
            results.append(("classify_regime", checks.check_regime(
                regime, s["pos"], s["r_c"], s["energies"][0])))
        return results

    def repeated_share(self, systems) -> float:
        """Share of calls whose particle system an earlier call of the pass used."""
        return EMISSION_ENERGIES / (EMISSION_ENERGIES + 1.0)


# --- cli ---------------------------------------------------------------------------

CLI_PARTICLES = 96
CLI_SHAPE_POINTS = 128
CLI_EXCLUSION_POINTS = 64

# The three non-finite inputs that must exit 1 with a message; they do not
# depend on the seed.
FAULT_PARTICLES = '[{"charge_e": NaN, "mass_kg": 1.67262192369e-27, "position_m": [0, 0, 0]}]'


def _fault_inventory():
    name, (n_p, molar, coeffs) = next(iter(checks.TABLE_1.items()))
    return json.dumps({"window_kev": list(checks.WINDOW_KEV), "materials": [{
        "name": name, "n_protons": n_p, "atoms_per_kg": float("nan"), "mass_kg": 1.0,
        "live_time_s": 1e7, "efficiency_coeffs": list(coeffs)}]})


# The CLI's own error lines: "cslrad: error: ..." from main(), or
# "cslrad <subcommand>: error: ..." from argparse after the usage text.
_CLI_ERROR = re.compile(r"cslrad( [a-z]+)?: error: \S")


def _fault_check(rc, out, err):
    """Exit 1 with the CLI's own error message; a crash (traceback) does not count."""
    lines = err.strip().splitlines()
    if rc == 1 and "Traceback" not in err and lines and _CLI_ERROR.match(lines[-1]):
        return None
    return (f"exit {rc} (want 1 with a cslrad error line); stderr {lines[-1:]!r}; "
            f"stdout {out.strip().splitlines()[-1:]!r}")


class Cli:
    """A scripted session of cold ``python -m cslrad`` calls, one after another."""

    name = "cli"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "fault_particles.json").write_text(FAULT_PARTICLES)
        (workdir / "fault_inventory.json").write_text(_fault_inventory())
        self.env = {**os.environ,
                    "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
        self.call_s: list[float] = []

    def make_inputs(self, k: int):
        rng = _rng(self.seed, k, 4)
        wd = self.workdir
        sys_path, inv_path = wd / f"system_{k % 2}.json", wd / f"inventory_{k % 2}.json"
        self.inventory = inv_path
        r_c = float(_loguniform(rng, 1e-9, 1e-5))
        q = rng.choice([-1.0, 1.0], CLI_PARTICLES)
        pos = rng.uniform(-1.0, 1.0, (CLI_PARTICLES, 3)) * r_c * float(_loguniform(rng, 1e-6, 3.0))
        sys_path.write_text(json.dumps([
            {"charge_e": qi, "mass_kg": checks.M_PROTON, "position_m": p}
            for qi, p in zip(q.tolist(), pos.tolist())]))
        materials = table1_materials(rng)
        inv_path.write_text(json.dumps({"window_kev": list(checks.WINDOW_KEV),
                                        "materials": materials}))
        z_c = int(rng.integers(100, 5000))
        z_b = int(rng.uniform(0.0, 0.8) * z_c)
        z_x = int(rng.integers(0, 2000))
        z_bx = z_x + int(5 * math.sqrt(z_x + 1)) + 5   # exhausts the budget
        a = float(_loguniform(rng, 0.1, 100.0))
        lam = float(_loguniform(rng, 1e-20, 1e-8))
        e_sys = float(_loguniform(rng, 10.0, 1e5))
        e_atom = float(rng.uniform(10.0, 100.0))
        atoms, n_a = float(_loguniform(rng, 1.0, 1e26)), int(rng.integers(1, 95))
        material = list(checks.TABLE_1)[int(rng.integers(len(checks.TABLE_1)))]
        e_eff = float(rng.uniform(*checks.WINDOW_KEV))
        q_lim = float(rng.uniform(0.68, 0.999))
        r_min, r_max = float(_loguniform(rng, 1e-10, 1e-8)), float(_loguniform(rng, 1e-5, 1e-2))
        mats = oracle_materials(materials)
        g = "{:.17g}".format
        noise = ["--collapse-rate", g(lam), "--r-c", g(r_c)]

        def limit_ok(z, b, want_limit):
            def check(rc, out, err):
                lam_bar = checks.count_quantile(z, q_lim)
                budget = lam_bar - b - 2.0
                if rc != (0 if want_limit else 2) or (budget > 0) != want_limit:
                    return f"exit {rc} for budget {budget!r}"
                return (checks.check_printed(out, "count quantile", lam_bar)
                        or (checks.check_printed(out, "lambda_max", budget * r_c ** 2 / a)
                            if want_limit else None))
            return check

        def exclusion_ok(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            header, rows = checks.parse_csv(out)
            budget = checks.count_quantile(z_c, 0.95) - z_b - 2.0
            if header != "r_c_m,lambda_max_per_s" or rows.shape != (CLI_EXCLUSION_POINTS, 2):
                return "malformed exclusion CSV"
            return checks.check_power_law(rows[:, 0], rows[:, 1], budget / a)

        def signal_ok(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            for m, (n, alpha, c) in zip(materials, mats):
                bad = checks.check_printed(out, m["name"], checks.signal_constant([(n, alpha, c)]))
                if bad:
                    return bad
            return checks.check_printed(out, "total a", checks.signal_constant(mats))

        def shape_ok(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            header, rows = checks.parse_csv(out)
            if header != "energy_kev,density_per_kev":
                return "malformed shape CSV"
            return checks.check_signal_shape(rows[:, 0], rows[:, 1], mats, CLI_SHAPE_POINTS)

        def rate_system_ok(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            full, diag, _ = checks.pair_sums(q, pos, r_c, e_sys)
            scale = checks.rate_scale(lam, e_sys)
            return checks.check_printed(out, "dGamma/dE", full * scale,
                                        atol=checks.PAIR_RTOL * diag * scale)

        def rate_atoms_ok(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            return checks.check_printed(out, "dGamma/dE",
                                        checks.atomic_rate(atoms, n_a, lam, r_c, e_atom))

        def efficiency_ok(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            coeffs = checks.TABLE_1[material][2]
            return checks.check_printed(out, "efficiency",
                                        max(0.0, float(np.polyval(coeffs[::-1], e_eff))))

        def regime_ok(rc, out, err):
            if rc != 0:
                return f"exit {rc}"
            from scipy.spatial.distance import pdist
            seps = pdist(pos)
            reduced = checks.HBAR * checks.C_LIGHT / (e_sys * checks.KEV_J)
            kind = checks.regime_kind(seps.max(), seps.min(), reduced, r_c)
            got = [line.split() for line in out.splitlines()
                   if line.split()[:1] == ["classification"]]
            if got != [["classification", kind]]:
                return f"classification {got!r} is not {kind}"
            return (checks.check_printed(out, "max separation", seps.max())
                    or checks.check_printed(out, "min separation", seps.min()))

        counting = ["--a", g(a)]
        return [
            (["limit", "--z-c", str(z_c), "--z-b", str(z_b), *counting, "--r-c", g(r_c),
              "--credibility", g(q_lim)], limit_ok(z_c, z_b, True)),
            (["limit", "--z-c", str(z_x), "--z-b", str(z_bx), *counting,
              "--credibility", g(q_lim)], limit_ok(z_x, z_bx, False)),
            (["exclusion", "--z-c", str(z_c), "--z-b", str(z_b), *counting, "--r-c-min", g(r_min),
              "--r-c-max", g(r_max), "--n-points", str(CLI_EXCLUSION_POINTS)], exclusion_ok),
            (["signal", "--inventory", str(inv_path)], signal_ok),
            (["shape", "--inventory", str(inv_path), "--n-points", str(CLI_SHAPE_POINTS)], shape_ok),
            (["rate", "--system", str(sys_path), "--energy", g(e_sys), *noise], rate_system_ok),
            (["rate", "--atoms", g(atoms), "--na", str(n_a), "--energy", g(e_atom), *noise],
             rate_atoms_ok),
            (["efficiency", "--material", material, "--energy", g(e_eff)], efficiency_ok),
            (["regime", "--system", str(sys_path), "--energy", g(e_sys), *noise], regime_ok),
            (["limit", "--r-c", "inf"], _fault_check),
            (["rate", "--system", str(wd / "fault_particles.json")], _fault_check),
            (["signal", "--inventory", str(wd / "fault_inventory.json")], _fault_check),
        ]

    def run_pass(self, session):
        outs = []
        for argv, _ in session:
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "cslrad", *argv], env=self.env,
                                  capture_output=True, text=True, timeout=60)
            self.call_s.append(time.perf_counter() - t0)
            outs.append((proc.returncode, proc.stdout, proc.stderr))
        return outs

    def run_in_process(self, session):
        """The same argv list through cli.main() in this process, no start-up."""
        outs = []
        for argv, _ in session:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    rc = cli.main(argv)
                except SystemExit as exc:
                    rc = exc.code
            outs.append((rc, out.getvalue(), err.getvalue()))
        return outs

    def check(self, session, outs):
        results = []
        for (argv, check), (rc, out, err) in zip(session, outs):
            fault = check is _fault_check
            label = ("fault: " if fault else "") + " ".join(argv[:2])
            try:
                reason = check(rc, out, err)
            except (ValueError, IndexError) as exc:
                reason = f"unparseable output: {exc}"
            results.append((label, reason))
        return results

    def repeated_share(self, session) -> float:
        # Calls 5 and 9 read the inventory and system files calls 4 and 6 read.
        return 2.0 / len(session)


def make(name: str, seed: int, workdir: Path):
    if name == "analysis":
        return Analysis(seed, workdir)
    if name in ("emission-dense", "emission-sparse"):
        return Emission(seed, workdir, sparse=name == "emission-sparse")
    if name == "cli":
        return Cli(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")

