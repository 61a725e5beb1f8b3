"""Command-line front end: simulate, sensitivity, control, equilibrium.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
error. Each ``cmd_*`` takes (args, scenario) and returns (files, report):
the writer of each output and its data, by the output's name under --out,
and the lines for standard output. ``main`` moves a command's files into
--out together, so a failed command leaves --out as it was and prints no
report; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__
from .charts import write_line_chart
from .control import simulate_controlled
from .dataio import (build_scenario, load_config, write_control,
                     write_sensitivity, write_trajectory)
from .dynamics import Scenario
from .equilibrium import BaselineState, iom_from_soc, soc_total_from_active
from .errors import ConfigError, DataError, SocChangeError, writing
from .sensitivity import DEFAULT_SENSITIVITY_DT, PARAMETERS, sensitivity
from .stepping import SCHEMES, simulate

_SCHEME_IDS = "nonstandard(F,phi) rothc_discrete(F,dt)"


class _Parser(argparse.ArgumentParser):
    """Reads a negative float literal (-1e-3, -inf) after an option as a value.

    argparse's own pattern knows only -1 and -1.5; subcommands inherit this.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$",
            re.IGNORECASE)


def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="socchange",
        description="Scenario engine for the normalized SOC change index")
    parser.add_argument("--version", action="version",
                        version=f"socchange {__version__} [{_SCHEME_IDS}]")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a monthly trajectory")
    p_sim.set_defaults(run=cmd_simulate)
    p_sim.add_argument("config", type=Path)
    p_sim.add_argument("--scheme", choices=SCHEMES, default="nonstandard",
                       help="monthly step (default nonstandard)")
    p_sim.add_argument("--mode", choices=("delta", "absolute"), default="delta")
    p_sim.add_argument("--out", type=Path, default=Path("."))
    p_sim.add_argument("--plot", action="store_true",
                       help="also write an SVG chart")

    p_sens = sub.add_parser("sensitivity", help="direct-method sensitivities")
    p_sens.set_defaults(run=cmd_sensitivity)
    p_sens.add_argument("config", type=Path)
    p_sens.add_argument("--param", choices=PARAMETERS, required=True)
    p_sens.add_argument("--dt", type=float, default=DEFAULT_SENSITIVITY_DT,
                        help="sub-monthly step in (0, T/12] months, at least "
                        f"1e-6 (default {DEFAULT_SENSITIVITY_DT})")
    p_sens.add_argument("--out", type=Path, default=Path("."))
    p_sens.add_argument("--plot", action="store_true")

    p_ctrl = sub.add_parser("control", help="manure-controlled trajectories")
    p_ctrl.set_defaults(run=cmd_control)
    p_ctrl.add_argument("config", type=Path)
    p_ctrl.add_argument("--epsilon", type=str, default="0",
                        help="comma-separated plant-input shares to sweep")
    p_ctrl.add_argument("--out", type=Path, default=Path("."))
    p_ctrl.add_argument("--plot", action="store_true")

    p_eq = sub.add_parser("equilibrium", help="baseline inspection")
    p_eq.set_defaults(run=cmd_equilibrium)
    p_eq.add_argument("config", type=Path)
    group = p_eq.add_mutually_exclusive_group(required=True)
    group.add_argument("--soc", type=float,
                       help="observed active SOC (t C/ha): infer plant input")
    group.add_argument("--inputs", type=float, nargs=2,
                       metavar=("P0", "F0"),
                       help="baseline inputs (t C/ha/yr): report pools and SOC")
    return parser


def cmd_simulate(args, scenario: Scenario):
    if scenario.fym.mode == "controlled":
        if args.mode != "delta" or args.scheme != "nonstandard":
            raise ConfigError("controlled runs support the nonstandard scheme "
                              f"in delta mode only, got {args.scheme} in "
                              f"{args.mode} mode")
        trajectory, schedule = simulate_controlled(scenario,
                                                   scenario.baseline.epsilon)
    else:
        trajectory, schedule = simulate(scenario, args.scheme, args.mode), None
    label = "dsoc" if args.mode == "delta" else "active soc"
    files = {"trajectory.csv": (write_trajectory, trajectory)}
    if schedule is not None:
        files["control.csv"] = (write_control, schedule)
    if args.plot:
        files["trajectory.svg"] = (
            write_line_chart, [(label, trajectory.t, trajectory.totals)],
            f"{label} ({trajectory.scheme}, {trajectory.mode})",
            "months since baseline", label)
    return files, [f"annual mean {label} by year:",
                   *(f"  {year}  {mean: .6e}"
                     for year, mean in trajectory.annual_means().items()),
                   f"wrote {args.out / 'trajectory.csv'}"]


def cmd_sensitivity(args, scenario: Scenario):
    series = sensitivity(args.param, scenario, dt=args.dt, record_all=True)
    name = f"sensitivity_{args.param}"
    files = {f"{name}.csv": (write_sensitivity, series)}
    if args.plot:
        files[f"{name}.svg"] = (
            write_line_chart, [(args.param, series.t, series.s_dsoc)],
            f"sensitivity to {args.param}", "months since baseline", "s_dsoc")
    return files, [f"s_dsoc[{args.param}]: min={series.s_dsoc.min():.6e} "
                   f"max={series.s_dsoc.max():.6e} "
                   f"final={series.s_dsoc[-1]:.6e}",
                   f"wrote {args.out / f'{name}.csv'}"]


def cmd_control(args, scenario: Scenario):
    try:
        # + 0.0 turns -0 into 0, whose files and metadata it would share
        eps_values = [float(v) + 0.0 for v in args.epsilon.split(",")
                      if v.strip()]
    except ValueError:
        raise ConfigError(f"bad --epsilon list {args.epsilon!r}") from None
    if not eps_values:
        raise ConfigError("--epsilon needs at least one value")
    tags = [f"{eps:g}".replace(".", "p") for eps in eps_values]
    if len(set(tags)) < len(tags):
        raise ConfigError(f"--epsilon {args.epsilon!r}: two values agree to 6 "
                          "digits and would write the same files")
    runs = [(simulate(Scenario(scenario.site)), None) if eps == 1.0
            else simulate_controlled(scenario, eps) for eps in eps_values]
    files, report = {}, []
    for eps, tag, (trajectory, schedule) in zip(eps_values, tags, runs):
        if schedule is None:
            report.append("epsilon=1 has no manure input; running "
                          "uncontrolled simulation instead")
        else:
            files[f"control_eps{tag}.csv"] = (write_control, schedule)
            report.append(f"epsilon={eps:g} annual manure totals (t C/ha):")
            report += [f"  {year}  {total: .6e}"
                       for year, total in schedule.annual_totals().items()]
        files[f"trajectory_eps{tag}.csv"] = (write_trajectory, trajectory)
    if args.plot:
        files["control_dsoc.svg"] = (
            write_line_chart,
            [(f"eps={eps:g}", trajectory.t, trajectory.totals)
             for eps, (trajectory, _) in zip(eps_values, runs)],
            "controlled dsoc", "months since baseline", "dsoc")
    report.append(f"wrote {len(eps_values)} trajectory file(s) to {args.out}")
    return files, report


def cmd_equilibrium(args, scenario: Scenario):
    option, values = (("--soc", [args.soc]) if args.inputs is None
                      else ("--inputs", args.inputs))
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{option} must be finite, got "
                          f"{' '.join(map(str, values))}")
    mats = scenario.mats
    params = scenario.params
    rho0 = scenario.baseline.rho0
    if args.inputs is not None:
        p0, f0 = args.inputs
        baseline = BaselineState.from_inputs(p0, f0, rho0, mats, params.T)
    else:
        baseline = BaselineState.from_active_soc(args.soc,
                                                 scenario.baseline.F0,
                                                 rho0, mats, params)
    soc_total = soc_total_from_active(float(baseline.c0.sum()))
    names = ("dpm", "rpm", "bio", "hum")
    residual = baseline.residual(mats, params.T)
    scale = max(1.0, float(np.max(np.abs(baseline.c0))))
    return {}, [f"SOC_total = {soc_total:.10g}" if args.inputs is not None
                else f"P0 = {baseline.P0:.10g}",
                *(f"c0.{name} = {value:.10g}"
                  for name, value in zip(names, baseline.c0)),
                f"c_iom = {iom_from_soc(soc_total):.10g}",
                f"epsilon = {baseline.epsilon:.10g}",
                f"equilibrium residual = {residual / scale:.3e}"]


def _land(out: Path, files: dict) -> None:
    """Write ``files`` into ``out`` together: all to a staging directory in
    ``out``, then each moved into place, so that a failed run changes no
    file of ``out``. Each name maps to (writer, data...): the writer takes
    the path to write, then the data."""
    for name in files:
        if (out / name).is_dir():
            raise DataError(f"cannot write {out / name}: it is a directory")
    made = not out.exists()
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
        staging = tempfile.TemporaryDirectory(prefix=".socchange-", dir=out)
    try:
        with staging as tmp:
            for name, (write, *data) in files.items():
                try:
                    write(Path(tmp, name), *data)
                except SocChangeError as exc:   # name the output, not tmp
                    raise type(exc)(str(exc).replace(tmp, str(out))) from None
            for name in files:
                with writing(out / name):
                    os.replace(Path(tmp, name), out / name)
    finally:
        if made and not any(out.iterdir()):   # the run failed
            out.rmdir()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scenario = build_scenario(load_config(args.config))
        files, report = args.run(args, scenario)
        if files:
            _land(args.out, files)
    except SocChangeError as exc:
        print(f"{exc.label}: {exc}", file=sys.stderr)
        return exc.exit_code
    print("\n".join(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
