"""Command-line front end.

Subcommands mirror the pipeline stages: ``limit`` and ``exclusion`` for
the Bayesian bounds, ``signal`` and ``shape`` for detector folding,
``rate``, ``efficiency``, and ``regime`` for the emission layer.

Conventions: every subcommand takes ``--output PATH`` (default standard
output); reports print numbers to 4 significant digits, CSVs to 17;
warnings go to standard error, one ``cslrad: warning: <Category>:
<message>`` line each, so CSV output stays parseable.  Exit codes
are 0 (success), 1 (usage, parse, I/O, or numerical error), 2 (no positive
limit).  argparse only parses numbers; whether one is in range is decided
by the library call it feeds, whose ValueError names the quantity.

Each subcommand imports the one stage it runs (``limits``, ``detector``
or ``emission``) when it runs, so a cold call loads no other stage.
"""

from __future__ import annotations

import argparse
import io
import sys
import warnings

from .domain import (DEFAULT_BACKGROUND_COUNTS, DEFAULT_CREDIBILITY,
                     DEFAULT_OBSERVED_COUNTS, DEFAULT_SIGNAL_CONSTANT,
                     ConvergenceError, NoiseParams, particle_system_from_json)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1 (2 is taken)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _noise_from_args(args) -> NoiseParams:
    return NoiseParams(lambda_collapse=args.collapse_rate, r_c=args.r_c)


def cmd_limit(args) -> int:
    from . import limits

    exp = limits.CountingExperiment(z_c=args.z_c, z_b=args.z_b, a=args.a)
    result = limits.upper_limit_lambda(exp, args.r_c, args.credibility)
    lines = [
        "collapse-rate upper limit",
        f"  observed counts      {exp.z_c}",
        f"  background counts    {exp.z_b}",
        f"  signal constant      {exp.a:.3e} s m^2",
        f"  correlation length   {result.r_c:.3e} m",
        f"  credibility          {result.credibility:.3e}",
        f"  count quantile       {result.lambda_bar_c:.3e}",
        f"  signal quota         {result.signal_quota:.3e}",
    ]
    if result.has_limit:
        lines.append(f"  lambda_max           {result.lambda_max:.3e} 1/s")
        lines.append("  limit exists         yes")
    else:
        lines.append("  lambda_max           none")
        lines.append("  limit exists         no (signal quota is not positive)")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if result.has_limit else 2


def cmd_exclusion(args) -> int:
    from . import limits

    exp = limits.CountingExperiment(z_c=args.z_c, z_b=args.z_b, a=args.a)
    try:
        curve = limits.exclusion_curve(exp, args.r_c_min, args.r_c_max,
                                       args.n_points, args.credibility)
    except limits.NoPositiveLimitError as exc:
        sys.stderr.write(f"cslrad: {exc}\n")
        return 2
    buf = io.StringIO()
    limits.write_exclusion_csv(curve, buf)
    _emit(buf.getvalue(), args.output)
    return 0


def cmd_signal(args) -> int:
    from . import detector

    model = detector.signal_model_from_json(_read(args.inventory))
    if not model.materials:
        warnings.warn("empty material inventory; a = 0")
    contributions = [
        (mat.name, detector.material_signal_constant(mat, model.window))
        for mat in model.materials
    ]
    total = sum(a_i for _, a_i in contributions)
    width = max((len(name) for name, _ in contributions), default=0)
    lines = [
        "expected-signal constant",
        "  formula: a = sum_i Np_i^2 * mass_i * atoms_per_kg_i * live_time_i"
        " * beta * I_i",
        "           I_i = integral of eps_i(E)/E dE over the window, E in keV",
        f"  beta                 {detector.beta_constant():.3e} m^2",
        f"  window               [{model.window.e_min:.3e}, "
        f"{model.window.e_max:.3e}] keV",
    ]
    for name, a_i in contributions:
        lines.append(f"  {name.ljust(width)}  a_i = {a_i:.3e} s m^2")
    lines.append(f"  total a              {total:.3e} s m^2")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_shape(args) -> int:
    from . import detector

    model = detector.signal_model_from_json(_read(args.inventory))
    energies, density = detector.signal_shape(model, args.n_points)
    buf = io.StringIO()
    buf.write("energy_kev,density_per_kev\n")
    for e, rho in zip(energies, density):
        buf.write(f"{e:.16e},{rho:.16e}\n")
    _emit(buf.getvalue(), args.output)
    return 0


def cmd_rate(args) -> int:
    from . import emission

    if (args.system is None) == (args.atoms is None) or (
            args.system is not None and args.na is not None):
        raise ValueError("give exactly one of --system or --atoms/--na")
    if args.atoms is not None and args.na is None:
        raise ValueError("--atoms requires --na")
    if args.system is not None and args.electrons is not None:
        raise ValueError("--electrons and --no-electrons apply only with --atoms")
    noise = _noise_from_args(args)
    lines = ["emission rate density"]
    if args.system is not None:
        system = particle_system_from_json(_read(args.system))
        density = emission.rate_general(system, noise, args.energy)
        lines.append(f"  particles            {len(system)}")
    else:
        electrons = args.electrons is not False  # on unless --no-electrons
        amp = emission.atomic_amplification(args.na, electrons)
        density = emission.rate_atomic(args.atoms, args.na, noise, args.energy,
                                       electrons)
        lines += [
            f"  atoms                {args.atoms:.3e}",
            f"  atomic number        {args.na}",
            f"  electron term        {'on' if electrons else 'off'}",
            f"  amplification        {amp:.3e}",
        ]
    lines += [
        f"  collapse rate        {noise.lambda_collapse:.3e} 1/s",
        f"  correlation length   {noise.r_c:.3e} m",
        f"  energy               {args.energy:.3e} keV",
        f"  dGamma/dE            {density:.3e} 1/(keV s)",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_efficiency(args) -> int:
    from . import detector

    dataset = detector.PAPER_TABLE_1
    if args.material not in dataset:
        raise ValueError(
            f"unknown material '{args.material}'; valid names: "
            + ", ".join(sorted(dataset)))
    value = detector.eval_efficiency(dataset[args.material], args.energy)
    lines = [
        "detection efficiency",
        "  dataset              paper-table-1",
        f"  material             {args.material}",
        f"  energy               {args.energy:.3e} keV",
        f"  efficiency           {value:.3e}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def cmd_regime(args) -> int:
    from . import emission

    system = particle_system_from_json(_read(args.system))
    noise = _noise_from_args(args)
    regime = emission.classify_regime(system, noise, args.energy)
    lines = [
        "emission regime",
        f"  classification       {regime.kind.value}",
        f"  particles            {len(system)}",
        f"  max separation       {regime.max_separation:.3e} m",
        f"  min separation       {regime.min_separation:.3e} m",
        f"  photon wavelength    {regime.wavelength:.3e} m",
        f"  correlation length   {regime.r_c:.3e} m",
        f"  energy               {args.energy:.3e} keV",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _add_counting_flags(sub) -> None:
    sub.add_argument("--z-c", type=int,
                     default=DEFAULT_OBSERVED_COUNTS,
                     help="observed counts in the window")
    sub.add_argument("--z-b", type=int,
                     default=DEFAULT_BACKGROUND_COUNTS,
                     help="simulated background counts")
    sub.add_argument("--a", type=float,
                     default=DEFAULT_SIGNAL_CONSTANT,
                     help="signal constant in s m^2")
    sub.add_argument("--credibility", type=float,
                     default=DEFAULT_CREDIBILITY,
                     help="posterior credibility of the bound")


def _add_noise_flags(sub) -> None:
    sub.add_argument("--collapse-rate", type=float, default=1e-16,
                     help="collapse rate lambda in 1/s")
    sub.add_argument("--r-c", type=float, default=1e-7,
                     help="noise correlation length in m")


def build_parser() -> _Parser:
    parser = _Parser(prog="cslrad",
                     description="collapse-noise radiation rates and limits")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("limit", help="upper limit on the collapse rate")
    _add_counting_flags(sub)
    sub.add_argument("--r-c", type=float, default=1e-7,
                     help="noise correlation length in m")
    sub.set_defaults(func=cmd_limit)

    sub = subs.add_parser("exclusion", help="lambda_max over an r_c grid (CSV)")
    _add_counting_flags(sub)
    sub.add_argument("--r-c-min", type=float, default=1e-9)
    sub.add_argument("--r-c-max", type=float, default=1e-3)
    sub.add_argument("--n-points", type=int, default=200)
    sub.set_defaults(func=cmd_exclusion)

    sub = subs.add_parser("signal", help="signal constant of an inventory")
    sub.add_argument("--inventory", required=True,
                     help="material inventory JSON path")
    sub.set_defaults(func=cmd_signal)

    sub = subs.add_parser("shape", help="normalized signal spectrum (CSV)")
    sub.add_argument("--inventory", required=True,
                     help="material inventory JSON path")
    sub.add_argument("--n-points", type=int, default=200)
    sub.set_defaults(func=cmd_shape)

    sub = subs.add_parser("rate", help="emission rate density at one energy")
    sub.add_argument("--system", help="particle-system JSON path")
    sub.add_argument("--atoms", type=float,
                     help="number of atoms (atomic mode)")
    sub.add_argument("--na", type=int, help="atomic number (atomic mode)")
    sub.add_argument("--electrons", action=argparse.BooleanOptionalAction,
                     help="include the incoherent electron term (atomic mode "
                     "only; on by default)")
    sub.add_argument("--energy", type=float, default=1000.0,
                     help="photon energy in keV")
    _add_noise_flags(sub)
    sub.set_defaults(func=cmd_rate)

    sub = subs.add_parser("efficiency", help="built-in efficiency polynomial")
    sub.add_argument("--material", required=True)
    sub.add_argument("--energy", type=float, required=True,
                     help="photon energy in keV")
    sub.set_defaults(func=cmd_efficiency)

    sub = subs.add_parser("regime", help="coherent/incoherent classification")
    sub.add_argument("--system", required=True,
                     help="particle-system JSON path")
    sub.add_argument("--energy", type=float, default=1000.0,
                     help="photon energy in keV")
    _add_noise_flags(sub)
    sub.set_defaults(func=cmd_regime)

    for name, action in subs.choices.items():
        action.add_argument("--output", default=None,
                            help="write to this path instead of standard output")
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    sys.stderr.write(f"cslrad: warning: {category.__name__}: {message}\n")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # warnings print as one line while a command runs; a library caller
    # keeps Python's format, with the file and line of the call
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ValueError, OSError, ConvergenceError) as exc:
            sys.stderr.write(f"cslrad: error: {exc}\n")
            return 1


if __name__ == "__main__":
    sys.exit(main())
