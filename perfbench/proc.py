"""The workload process: set up, run timed passes, check, report one JSON line.

Started by run.py, which passes the monotonic time at which it launched
this process, so that set-up time covers interpreter start, ``import
cslrad`` and generating the first pass's inputs.  cslrad is imported
before anything of the benchmark's own, and the time the benchmark's
modules (and the NumPy and SciPy parts they load) take to import is left
out of set-up, so a cheaper ``import cslrad`` shows in it.  Pass times are
reported raw (``raw.*``) and corrected for host speed by the references
timed between passes (see reference.py).

    proc.py WORKLOAD SEED T0 setup            set up, run and check the first pass, exit
    proc.py WORKLOAD SEED T0 run SECONDS      timed passes, tracing off
    proc.py WORKLOAD SEED T0 trace SECONDS    alternating plain and traced passes
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from cslrad import cli, detector, domain, emission, limits, specfun  # noqa: E402

CSLRAD_IMPORTED = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HARNESS_IMPORT_S = time.monotonic() - CSLRAD_IMPORTED

MIN_PASSES = 3          # the first pass plus at least two for the median
MAX_WALL_S = 150.0      # hard stop well inside the 180 s a run may take
PROBE_REPEATS = 5       # cold starts per probe in a traced run
MIN_REFS = 3            # host-speed references timed after each pass, at least
REF_SHARE = 0.3         # and until they take this share of the pass's time
WORKDIR = ROOT / "perfbench" / "results" / "work"


def run_checks(wl, inputs, outs, tally):
    for op, reason in wl.check(inputs, outs):
        tally["attempted"] += 1
        if reason is not None:
            tally["failed"] += 1
            if not op.startswith("fault: "):
                tally["correct"] = False
                sys.stderr.write(f"{wl.name}: {op}: {reason}\n")


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def reference_s(wl):
    """One timing of the host-speed reference for this workload's kind of work."""
    return reference.cold_start(ROOT) if wl.name == "cli" else reference.kernel()


def nominal_s(wl):
    return reference.COLD_START_NOMINAL_S if wl.name == "cli" else reference.KERNEL_NOMINAL_S


def corrected(wl, raw_s):
    """``raw_s`` rescaled by the mean of the references timed right after it.

    References run until they add up to REF_SHARE of ``raw_s``, and at
    least MIN_REFS times, so that longer passes get steadier corrections.
    """
    refs = []
    while len(refs) < MIN_REFS or sum(refs) < REF_SHARE * raw_s:
        refs.append(reference_s(wl))
    ref = statistics.mean(refs)
    return raw_s * nominal_s(wl) / ref, ref


def first_pass(wl, inputs, tally):
    """Raw and host-corrected time of the process's first pass."""
    dt, outs = timed(wl.run_pass, inputs)
    first, _ = corrected(wl, dt)
    run_checks(wl, inputs, outs, tally)
    return dt, first


def run(wl, inputs, seconds, setup_s, tally):
    """Timed passes; pass_s is the median of the host-corrected pass times."""
    start = time.monotonic()
    raw0, first = first_pass(wl, inputs, tally)
    raw, fixed, refs = [], [], []
    k = 1
    while True:
        inputs = wl.make_inputs(k)
        dt, outs = timed(wl.run_pass, inputs)
        value, ref = corrected(wl, dt)
        raw.append(dt)
        fixed.append(value)
        refs.append(ref)
        run_checks(wl, inputs, outs, tally)
        del outs  # one pass's outputs at a time, so peak RSS is per pass
        k += 1
        elapsed = time.monotonic() - start
        if k >= MIN_PASSES and (elapsed >= seconds or elapsed >= MAX_WALL_S):
            break
    return {
        "setup_s": (setup_s, "s"),
        "first_pass_s": (first, "s"),
        "pass_s": (statistics.median(fixed), "s"),
        "peak_rss_mb": (peak_rss_mb(wl.name), "MB"),
        "raw.first_pass_s": (raw0, "s"),
        "raw.pass_s": (statistics.median(raw), "s"),
        "host.reference_s": (statistics.median(refs), "s"),
        "passes": (k, "count"),
    }


# --- traced run -------------------------------------------------------------------

def startup_probes():
    """Cold starts: bare interpreter, numpy, cslrad and one cslrad call, interleaved."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": src}
    cmds = {
        "bare": [sys.executable, "-c", "pass"],
        "numpy": [sys.executable, "-c", "import numpy"],
        "cslrad": [sys.executable, "-c", "import cslrad"],
        "call": [sys.executable, "-m", "cslrad", "limit"],
    }
    samples = {name: [] for name in cmds}
    for _ in range(PROBE_REPEATS):
        for name, cmd in cmds.items():
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True)
            samples[name].append(time.perf_counter() - t0)
    return {name: statistics.median(v) for name, v in samples.items()}


def install_targets(tracer):
    def pairs_general(system, *_):
        return len(system) * (len(system) + 1) // 2

    def pairs_regime(system, *_):
        return len(system) * (len(system) - 1) // 2

    tracer.span(limits, "gamma_quantile", "specfun.gamma_quantile")
    tracer.span(specfun, "reg_lower_gamma", "specfun.reg_lower_gamma")
    tracer.span(limits, "reg_lower_gamma", "specfun.reg_lower_gamma")
    tracer.span(detector, "integrate", "specfun.integrate")
    tracer.span(limits, "upper_limit_lambda", "limits.upper_limit_lambda")
    tracer.span(limits, "exclusion_curve", "limits.exclusion_curve")
    tracer.span(detector, "compute_a", "detector.compute_a")
    tracer.span(detector, "material_signal_constant", "detector.material_signal_constant")
    tracer.span(detector, "eval_efficiency", "detector.eval_efficiency")
    tracer.span(detector, "signal_shape", "detector.signal_shape")
    tracer.span(detector, "signal_model_from_json", "detector.signal_model_from_json")
    tracer.span(emission, "rate_general", "emission.rate_general", pairs_general)
    tracer.span(emission, "classify_regime", "emission.classify_regime", pairs_regime)
    tracer.count(emission, "f_ij_point", "emission.f_ij_point")
    tracer.count(emission, "coherence_factor", "emission.coherence_factor")
    tracer.span(cli, "particle_system_from_json", "domain.particle_system_from_json")
    tracer.span(cli, "main", "cli.main")


LAYERS = ("specfun", "limits", "detector", "emission", "domain")


def layer_metrics(passes):
    """Medians over traced passes of per-pass totals; counts from the first pass."""
    names = sorted({n for agg in passes for n in agg})
    out = {}
    for name in names:
        per = [agg.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}) for agg in passes]
        out[f"{name}.calls"] = (per[0]["calls"], "count")
        out[f"{name}.s"] = (statistics.median(p["s"] for p in per), "s")
        out[f"{name}.self_s"] = (statistics.median(p["self_s"] for p in per), "s")
        if any(p["work"] for p in per):
            out[f"{name}.pairs_per_s"] = (
                statistics.median(p["work"] / p["s"] for p in per if p["s"] > 0), "1/s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (statistics.median(
            sum(v["self_s"] for n, v in agg.items() if n.startswith(layer + "."))
            for agg in passes), "s")
    return out


def trace(wl, inputs, seconds, tally):
    probes = startup_probes()
    tracer = Tracer()
    install_targets(tracer)
    is_cli = wl.name == "cli"
    traced_pass = wl.run_in_process if is_cli else wl.run_pass

    # The first pass warms up lazy work; it is neither traced nor counted.
    outs = wl.run_pass(inputs)
    run_checks(wl, inputs, outs, tally)
    start = time.monotonic()
    plain, traced, passes = [], [], []
    k = 0
    while True:
        k += 1
        inputs = wl.make_inputs(k)
        if is_cli:
            run_checks(wl, inputs, wl.run_pass(inputs), tally)
        dt, outs = timed(traced_pass, inputs)
        plain.append(dt)
        run_checks(wl, inputs, outs, tally)
        tracer.begin_pass()
        tracer.install()
        try:
            dt, outs = timed(traced_pass, inputs)
        finally:
            tracer.uninstall()
        traced.append(dt)
        passes.append(tracer.end_pass())
        run_checks(wl, inputs, outs, tally)
        elapsed = time.monotonic() - start
        if k >= 2 and (elapsed >= seconds or elapsed >= MAX_WALL_S):
            break

    metrics = layer_metrics(passes)
    called = {n for agg in passes for n, v in agg.items() if v["calls"]}
    # What this workload never calls is measured on a fixed probe: one
    # traced in-process CLI session (the cli workload's pass-0 inputs at
    # seed 0) and compute_a on its inventory, which no subcommand calls.
    # Its checks must pass but do not count towards this workload's operations.
    probe = workloads.make("cli", 0, WORKDIR / "probe")
    session = probe.make_inputs(0)
    model = detector.signal_model_from_json(probe.inventory.read_text())
    tracer.begin_pass()
    tracer.install()
    try:
        outs = probe.run_in_process(session)
        a = detector.compute_a(model)
    finally:
        tracer.uninstall()
    probe_tally = {"attempted": 0, "failed": 0, "correct": True}
    run_checks(probe, session, outs, probe_tally)
    materials = json.loads(probe.inventory.read_text())["materials"]
    bad = checks.check_compute_a(a, workloads.oracle_materials(materials))
    if bad:
        sys.stderr.write(f"probe: compute_a: {bad}\n")
    tally["correct"] &= probe_tally["correct"] and bad is None
    for key, value in layer_metrics([tracer.end_pass()]).items():
        if not measured_on(key, called):
            metrics[key] = value
    metrics.update({
        "trace.pass_s": (statistics.median(traced), "s"),
        "trace.overhead_s": (statistics.median(traced) - statistics.median(plain), "s"),
        "trace.passes": (len(traced), "count"),
        "cli.interpreter_s": (probes["bare"], "s"),
        "cli.numpy_import_s": (probes["numpy"] - probes["bare"], "s"),
        "cli.import_s": (probes["cslrad"] - probes["bare"], "s"),
        "cli.call_s": (statistics.median(wl.call_s) if is_cli else probes["call"], "s"),
        "domain.ParticleSystem.build_s": (statistics.median(
            getattr(wl, "build_s", None) or probe_build_s()), "s"),
    })
    out_dir = ROOT / "perfbench" / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_first_pass(out_dir / f"trace-{wl.name}-{wl.seed}.csv")
    return metrics


def measured_on(key, called):
    """Whether the workload's own passes called the function or layer of ``key``."""
    name = key.rsplit(".", 1)[0]
    if name in LAYERS:
        return any(n.startswith(name + ".") for n in called)
    return name in called


def probe_build_s():
    """Build times of the probe's 96-particle system (a workload that builds none)."""
    rng = workloads._rng(0, 0, 5)
    n = workloads.CLI_PARTICLES
    rows = list(zip(rng.choice([-1.0, 1.0], n).tolist(), [checks.M_PROTON] * n,
                    rng.uniform(-1e-7, 1e-7, (n, 3)).tolist()))
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        domain.ParticleSystem(tuple(domain.Particle(q, m, tuple(p)) for q, m, p in rows))
        times.append(time.perf_counter() - t0)
    return times


def main(argv):
    name, seed, t0, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    t_inputs = time.monotonic()
    wl = workloads.make(name, seed, WORKDIR / f"{name}-{seed}")
    inputs = wl.make_inputs(0)
    setup_s = (CSLRAD_IMPORTED - t0) + (time.monotonic() - t_inputs)
    tally = {"attempted": 0, "failed": 0, "correct": True}
    if mode == "setup":
        raw0, first = first_pass(wl, inputs, tally)
        metrics = {"setup_s": (setup_s, "s"), "first_pass_s": (first, "s"),
                   "raw.first_pass_s": (raw0, "s")}
    elif mode == "run":
        metrics = run(wl, inputs, float(argv[4]), setup_s, tally)
    else:
        metrics = trace(wl, inputs, float(argv[4]), tally)
    metrics["repeated_share"] = (wl.repeated_share(inputs), "fraction")
    metrics["harness_import_s"] = (HARNESS_IMPORT_S, "s")
    print(json.dumps({**tally, "metrics": {
        k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
