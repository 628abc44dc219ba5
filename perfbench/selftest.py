"""Show that every output check accepts cslrad's result and rejects a perturbed one.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Prints one line per check and
perturbation and exits 1 if any check accepts a perturbed result or
rejects the program's own.
"""

import dataclasses
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from cslrad import limits  # noqa: E402

failures = []


def expect(name, check, good, bad):
    """``check(good)`` must pass and ``check(b)`` must fail for every b in ``bad``."""
    reason = check(good)
    if reason is not None:
        failures.append(name)
        print(f"FAIL {name}: rejects the program's result: {reason}")
        return
    for label, value in bad:
        reason = check(value)
        if reason is None:
            failures.append(f"{name} / {label}")
            print(f"FAIL {name}: accepts {label}")
        else:
            print(f"ok   {name}: rejects {label} ({reason[:70]})")


def scaled(x, f):
    return None if x is None else x * f


def analysis():
    wl = workloads.Analysis(7, ROOT)
    cfgs = wl.make_inputs(0)
    outs = wl.run_pass(cfgs)
    ref = outs[0]
    expect("reference limit", checks.check_reference_limit, ref,
           [("lambda_max x 1.03", dataclasses.replace(ref, lambda_max=ref.lambda_max * 1.03)),
            ("no limit", dataclasses.replace(ref, lambda_max=None))])
    for cfg, (a, (e, d), bounds, curve) in zip(cfgs, outs[1:]):
        mats = workloads.oracle_materials(cfg["materials"])
        if cfg is cfgs[0]:
            expect("compute_a", lambda x: checks.check_compute_a(x, mats), a,
                   [("a x (1 + 1e-7)", a * (1 + 1e-7))])
            expect("signal_shape", lambda ed: checks.check_signal_shape(
                ed[0], ed[1], mats, workloads.ANALYSIS_SHAPE_POINTS), (e, d),
                [("density x (1 + 1e-9)", (e, d * (1 + 1e-9))),
                 ("one sample moved, renormalised",
                  (e, (lambda y: y / np.trapezoid(y, e))(d * np.where(np.arange(len(d)) == 7, 1.001, 1.0)))),
                 ("energies shifted", (e + 1e-3, d))])
        z_c, z_b = cfg["z_c"], cfg["z_b"]
        q, r = cfg["credibility"][0], cfg["r_c"][0]
        res = bounds[0]
        check = lambda x: checks.check_upper_limit(x, z_c, z_b, a, r, q)  # noqa: E731
        bad = [("count quantile x (1 + 1e-9)",
                dataclasses.replace(res, lambda_bar_c=res.lambda_bar_c * (1 + 1e-9)))]
        if res.has_limit:
            bad += [("lambda_max x (1 + 1e-9)",
                     dataclasses.replace(res, lambda_max=res.lambda_max * (1 + 1e-9))),
                    ("no limit where the budget is positive",
                     dataclasses.replace(res, lambda_max=None))]
        else:
            bad += [("a limit where the budget is exhausted",
                     dataclasses.replace(res, lambda_max=1e-12))]
        expect(f"upper_limit_lambda (z_c={z_c}, z_b={z_b})", check, res, bad)
        excl = lambda x: checks.check_exclusion(  # noqa: E731
            x, z_c, z_b, a, *cfg["r_c_range"], workloads.ANALYSIS_EXCLUSION_POINTS, 0.95)
        if isinstance(curve, Exception):
            expect(f"exclusion_curve no limit (z_c={z_c})", excl, curve,
                   [("a ValueError instead", ValueError("x")),
                    ("a curve instead", limits.ExclusionCurve(((1.0, 1.0), (2.0, 4.0)), 0.95, 1.0))])
        elif cfg is cfgs[0]:
            pts = np.asarray(curve.points)
            steep = limits.ExclusionCurve(tuple(zip(pts[:, 0], pts[:, 1] * (pts[:, 0] / pts[0, 0]) ** 1e-6)),
                                          0.95, curve.lambda_bar_c)
            one = pts.copy()
            one[5, 1] *= 1 + 1e-9
            expect(f"exclusion_curve (z_c={z_c})", excl, curve,
                   [("slope 2 + 1e-6", steep),
                    ("one point x (1 + 1e-9)", limits.ExclusionCurve(tuple(map(tuple, one)), 0.95, 1.0)),
                    ("NoPositiveLimitError instead", limits.NoPositiveLimitError("x"))])


def emission(sparse):
    wl = workloads.Emission(7, ROOT, sparse)
    systems = wl.make_inputs(0)
    outs = wl.run_pass(systems)
    s, (rates, inc, regime) = systems[0], outs[0]
    e, lam = s["energies"][0], s["noise"].lambda_collapse
    full, diag, bound = checks.pair_sums(s["q"], s["pos"], s["r_c"], e)
    scale = checks.rate_scale(lam, e)
    rate = float(rates[0])
    incoherent = None if inc is None else float(inc[0])
    check = lambda x: checks.check_rate_general(  # noqa: E731
        x[0], s["q"], s["pos"], s["r_c"], lam, e, x[1])
    bad = [("rate + 1e-9 x diagonal sum", (rate + 1e-9 * diag * scale, incoherent)),
           ("diagonal terms only" if not sparse else "cross terms doubled",
            (diag * scale if not sparse else rate + (rate - diag * scale) + 1e-8 * diag * scale,
             incoherent))]
    if sparse:
        bad += [("rate_incoherent x (1 + 1e-9)", (rate, incoherent * (1 + 1e-9))),
                ("rate off rate_incoherent by 2x the cross bound",
                 (incoherent + 2.0 * bound * scale + 1e-8 * diag * scale, incoherent))]
    name = "emission-sparse" if sparse else "emission-dense"
    expect(f"rate_general ({name}, N={len(s['q'])})", check, (rate, incoherent), bad)
    check = lambda x: checks.check_regime(x, s["pos"], s["r_c"], e)  # noqa: E731
    other = {"coherent": "mixed", "mixed": "incoherent", "incoherent": "mixed"}[regime.kind.value]
    expect(f"classify_regime ({name})", check, regime,
           [("max separation x (1 + 1e-9)",
             dataclasses.replace(regime, max_separation=regime.max_separation * (1 + 1e-9))),
            ("min separation x (1 + 1e-9)",
             dataclasses.replace(regime, min_separation=regime.min_separation * (1 + 1e-9))),
            (f"kind {other}", dataclasses.replace(regime, kind=type(regime.kind)(other)))])


_NUMBER = re.compile(r"-?\d\.\d+e[+-]\d+")


def _scale_numbers(text, f, digits):
    return _NUMBER.sub(lambda m: f"{float(m.group()) * f:.{digits}e}", text)


def cli():
    wl = workloads.Cli(7, ROOT / "perfbench" / "results" / "work" / "selftest")
    session = wl.make_inputs(0)
    outs = wl.run_in_process(session)
    for (argv, check), (rc, out, err) in zip(session, outs):
        name = "cli " + " ".join(argv[:2])
        csv = out.count(",") > 10
        wrap = lambda x, check=check: check(*x)  # noqa: E731
        if check is workloads._fault_check:
            crash = ("Traceback (most recent call last):\n  File \"cli.py\", line 1\n"
                     "ValueError: cslrad: error: not finite\n")
            bad = [("exit 0", (0, out, err)), ("exit 1 without a message", (1, "", "")),
                   ("exit 1 with another message", (1, "", "error: not finite\n")),
                   ("exit 1 with a traceback", (1, "", crash)),
                   ("exit 2 with a cslrad error line", (2, "", "cslrad: error: not finite\n"))]
            expect(f"{name} (fault, main's error)", wrap, (1, "", "cslrad: error: not finite\n"), bad)
            expect(f"{name} (fault, argparse's error)", wrap,
                   (1, "", f"usage: cslrad {argv[0]} [-h]\ncslrad {argv[0]}: error: argument: not finite\n"),
                   bad)
            continue
        bad = [(f"exit {rc + 1}", (rc + 1, out, err))]
        if csv:
            bad.append(("values x (1 + 1e-9)", (rc, _scale_numbers(out, 1 + 1e-9, 16), err)))
        elif _NUMBER.search(out):
            bad.append(("values x 1.002", (rc, _scale_numbers(out, 1.002, 3), err)))
        expect(name, wrap, (rc, out, err), bad)


if __name__ == "__main__":
    analysis()
    emission(False)
    emission(True)
    cli()
    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)
