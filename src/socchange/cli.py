"""Command-line front end: simulate, sensitivity, control, equilibrium.

Exit codes: 0 success, 1 configuration error, 2 data error, 3 numerical
error. All outputs go under --out; diagnostics go to standard error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .charts import write_line_chart
from .control import simulate_controlled
from .dataio import (build_scenario, load_config, write_control,
                     write_sensitivity, write_trajectory)
from .equilibrium import BaselineState, soc_total_from_active
from .errors import ConfigError, DataError, NumericsError, SocChangeError
from .sensitivity import PARAMETERS, sensitivity
from .stepping import simulate

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
    p_sim.add_argument("config", type=Path)
    p_sim.add_argument("--scheme", choices=("nonstandard", "rothc_discrete"),
                       default=None, help="override the config scheme")
    p_sim.add_argument("--mode", choices=("delta", "absolute"), default="delta")
    p_sim.add_argument("--out", type=Path, default=Path("."))
    p_sim.add_argument("--plot", action="store_true",
                       help="also write an SVG chart")

    p_sens = sub.add_parser("sensitivity", help="direct-method sensitivities")
    p_sens.add_argument("config", type=Path)
    p_sens.add_argument("--param", choices=PARAMETERS, required=True)
    p_sens.add_argument("--dt", type=float, default=None,
                        help="sub-monthly step (default from config)")
    p_sens.add_argument("--out", type=Path, default=Path("."))
    p_sens.add_argument("--plot", action="store_true")

    p_ctrl = sub.add_parser("control", help="manure-controlled trajectories")
    p_ctrl.add_argument("config", type=Path)
    p_ctrl.add_argument("--epsilon", type=str, default="0",
                        help="comma-separated plant-input shares to sweep")
    p_ctrl.add_argument("--out", type=Path, default=Path("."))
    p_ctrl.add_argument("--plot", action="store_true")

    p_eq = sub.add_parser("equilibrium", help="baseline inspection")
    p_eq.add_argument("config", type=Path)
    group = p_eq.add_mutually_exclusive_group(required=True)
    group.add_argument("--soc", type=float,
                       help="observed active SOC (t C/ha): infer plant input")
    group.add_argument("--inputs", type=float, nargs=2,
                       metavar=("P0", "F0"),
                       help="baseline inputs (t C/ha/yr): report pools and SOC")
    return parser


def cmd_simulate(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    scheme = args.scheme or config.scheme
    args.out.mkdir(parents=True, exist_ok=True)
    if scenario.fym.mode == "controlled":
        if args.mode != "delta":
            raise ConfigError("controlled runs support delta mode only")
        trajectory, schedule = simulate_controlled(scenario,
                                                   scenario.fym.epsilon)
        write_control(args.out / "control.csv", schedule)
    else:
        trajectory = simulate(scenario, scheme=scheme, mode=args.mode)
    out_csv = args.out / "trajectory.csv"
    write_trajectory(out_csv, trajectory)
    label = "dsoc" if args.mode == "delta" else "active soc"
    print(f"annual mean {label} by year:")
    for year, mean in trajectory.annual_means().items():
        print(f"  {year}  {mean: .6e}")
    if args.plot:
        write_line_chart(args.out / "trajectory.svg",
                         [(label, trajectory.t, trajectory.totals)],
                         f"{label} ({trajectory.scheme}, {trajectory.mode})",
                         "months since baseline", label)
    print(f"wrote {out_csv}")
    return 0


def cmd_sensitivity(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    dt = config.sensitivity_dt if args.dt is None else args.dt
    series = sensitivity(args.param, scenario, dt=dt, record_all=True)
    args.out.mkdir(parents=True, exist_ok=True)
    out_csv = args.out / f"sensitivity_{args.param}.csv"
    write_sensitivity(out_csv, series)
    print(f"s_dsoc[{args.param}]: min={series.s_dsoc.min():.6e} "
          f"max={series.s_dsoc.max():.6e} final={series.s_dsoc[-1]:.6e}")
    if args.plot:
        write_line_chart(args.out / f"sensitivity_{args.param}.svg",
                         [(args.param, series.t, series.s_dsoc)],
                         f"sensitivity to {args.param}",
                         "months since baseline", "s_dsoc")
    print(f"wrote {out_csv}")
    return 0


def cmd_control(args) -> int:
    config = load_config(args.config)
    scenario = build_scenario(config)
    try:
        eps_values = [float(v) for v in args.epsilon.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"bad --epsilon list {args.epsilon!r}") from None
    if not eps_values:
        raise ConfigError("--epsilon needs at least one value")
    args.out.mkdir(parents=True, exist_ok=True)
    plot_series = []
    for eps in eps_values:
        tag = f"{eps:g}".replace(".", "p")
        if eps == 1.0:
            print("epsilon=1 has no manure input; running uncontrolled "
                  "simulation instead", file=sys.stderr)
            trajectory = simulate(scenario, scheme=config.scheme, mode="delta")
        else:
            trajectory, schedule = simulate_controlled(scenario, eps)
            write_control(args.out / f"control_eps{tag}.csv", schedule)
            totals = schedule.annual_totals()
            print(f"epsilon={eps:g} annual manure totals (t C/ha):")
            for year, total in totals.items():
                print(f"  {year}  {total: .6e}")
        write_trajectory(args.out / f"trajectory_eps{tag}.csv", trajectory)
        plot_series.append((f"eps={eps:g}", trajectory.t, trajectory.totals))
    if args.plot:
        write_line_chart(args.out / "control_dsoc.svg", plot_series,
                         "controlled dsoc", "months since baseline", "dsoc")
    print(f"wrote {len(eps_values)} trajectory file(s) to {args.out}")
    return 0


def cmd_equilibrium(args) -> int:
    option, values = (("--soc", [args.soc]) if args.inputs is None
                      else ("--inputs", args.inputs))
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"{option} must be finite, got "
                          f"{' '.join(map(str, values))}")
    config = load_config(args.config)
    scenario = build_scenario(config)
    mats = scenario.mats
    params = scenario.params
    rho0 = scenario.rho0
    if args.inputs is not None:
        p0, f0 = args.inputs
        baseline = BaselineState.from_inputs(p0, f0, rho0, mats, params.T)
        soc_total = soc_total_from_active(float(baseline.c0.sum()))
        print(f"SOC_total = {soc_total:.10g}")
    else:
        baseline = BaselineState.from_active_soc(args.soc,
                                                 config.fym_baseline_tc_ha_yr,
                                                 rho0, mats, params)
        print(f"P0 = {baseline.P0:.10g}")
    names = ("dpm", "rpm", "bio", "hum")
    for name, value in zip(names, baseline.c0):
        print(f"c0.{name} = {value:.10g}")
    print(f"c_iom = {baseline.c_iom:.10g}")
    print(f"epsilon = {baseline.epsilon:.10g}")
    residual = baseline.residual(mats, params.T)
    scale = max(1.0, float(np.max(np.abs(baseline.c0))))
    print(f"equilibrium residual = {residual / scale:.3e}")
    return 0


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    handlers = {
        "simulate": cmd_simulate,
        "sensitivity": cmd_sensitivity,
        "control": cmd_control,
        "equilibrium": cmd_equilibrium,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except SocChangeError as exc:  # pragma: no cover - safety net
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
