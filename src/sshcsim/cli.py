"""Command-line front end.

Subcommands: analyze (closed-form flip tables), simulate (transient waveforms
and flip events), sweep (parameter sweeps), compare (full-bridge vs SSHC
report). Every run writes a manifest.json listing the resolved config and all
emitted files. Exit codes: 0 success, 2 config error, 3 simulation error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from . import __version__
from .circuit import conduction_threshold
from .compare import harvest_report, sweep_ct_ratio, sweep_storage_voltage, write_reports_csv
from .config import ConfigError, ResolvedConfig, parse_config
from .csvout import fmt, write_csv
from .flip import (
    closed_form_efficiency,
    cycles_to_converge,
    flip_efficiency_series,
    optimal_single_flip_ct,
    steady_state_efficiency,
)
from .svg import line_chart
from .transient import extract_efficiency_trajectory, run, write_flip_events_csv


class _Emitter:
    """Collects output paths so the manifest can list every emitted file."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.paths: List[str] = []
        os.makedirs(out_dir, exist_ok=True)

    def path(self, name: str) -> str:
        full = os.path.join(self.out_dir, name)
        self.paths.append(full)
        return full

    def write_manifest(self, subcommand: str, config_echo: Dict[str, str]) -> str:
        manifest_path = self.path("manifest.json")
        manifest = {
            "tool_version": __version__,
            "subcommand": subcommand,
            "config_echo": config_echo,
            "output_paths": self.paths,
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return manifest_path


def _resolve(args: argparse.Namespace) -> ResolvedConfig:
    overrides: Dict[str, str] = {}
    for item in args.set or []:
        if "=" not in item:
            raise ConfigError(item, "override must have the form key=value")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    if getattr(args, "ct_ratio", None) is not None:
        overrides.setdefault("cap_ct", f"{args.ct_ratio}x")
    if getattr(args, "cycles", None) is not None:
        overrides.setdefault("n_cycles", str(args.cycles))
    if getattr(args, "full_bridge", False):
        overrides["full_bridge"] = "true"
    return parse_config(args.config, overrides)


def _cmd_analyze(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    ratios = cfg.ratios()
    v0 = conduction_threshold(cfg.rectifier_stage())
    if v0 <= 0:
        v0 = 1.0  # degenerate zero-threshold stage: report normalized series
    series = flip_efficiency_series(ratios, v0, cfg.n_cycles)
    emitter = _Emitter(args.out_dir)

    values = []
    for n, (eta, vt) in enumerate(zip(series.efficiencies, series.vt_trajectory), start=1):
        values += (n, eta, vt, closed_form_efficiency(ratios, n))
    write_csv(
        emitter.path("flip_series.csv"),
        ["n", "efficiency", "vt_V", "closed_form"],
        "dggg",
        [("", values)],
    )
    summary = [
        "steady_state_efficiency", fmt(series.limit),
        "optimal_single_flip_ct_F", fmt(optimal_single_flip_ct(cfg.cap_cp)),
        "cycles_to_99pct_of_limit", cycles_to_converge(ratios, 0.99),
    ]
    write_csv(emitter.path("summary.csv"), ["key", "value"], "ss", [("", summary)])
    if args.svg:
        n_axis = list(range(1, cfg.n_cycles + 1))
        line_chart(
            emitter.path("flip_series.svg"),
            n_axis,
            {"efficiency": list(series.efficiencies)},
            title="Voltage flip efficiency per cycle",
            xlabel="flip cycle",
            ylabel="efficiency",
        )
    emitter.write_manifest("analyze", cfg.echo())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    result = run(cfg.sim_config())
    emitter = _Emitter(args.out_dir)
    result.waveform.write_csv(emitter.path("waveform.csv"))
    write_flip_events_csv(result.events, emitter.path("flip_events.csv"))
    if args.svg:
        line_chart(
            emitter.path("waveform.svg"),
            result.waveform.t,
            {"vpt_V": result.waveform.vpt, "vt_V": result.waveform.vt},
            title="Transient waveforms",
            xlabel="time (s)",
            ylabel="voltage (V)",
        )
        if result.events:
            line_chart(
                emitter.path("efficiency.svg"),
                [e.cycle_index for e in result.events],
                {"efficiency": extract_efficiency_trajectory(result.events)},
                title="Flip efficiency trajectory",
                xlabel="flip cycle",
                ylabel="efficiency",
            )
    emitter.write_manifest("simulate", cfg.echo())
    return 0


def _sweep_axis(args: argparse.Namespace, cfg: ResolvedConfig) -> List[float]:
    """The axis of `sweep`. A --min, --max or --points value that the sweep
    functions would reject raises ConfigError naming the flag."""
    if args.points < 1:
        raise ConfigError("--points", f"must be >= 1, got {args.points}")
    for flag, value in (("--min", args.min), ("--max", args.max)):
        if not math.isfinite(value):
            raise ConfigError(flag, f"must be finite, got {value!r}")
    if args.axis == "vs":
        if args.min < 0:
            raise ConfigError("--min", f"must be >= 0 on the vs axis, got {args.min!r}")
        values = np.linspace(args.min, args.max, args.points).tolist()
    else:
        # The end ratios bound the sharing ratios of every value between them.
        for flag, ratio in (("--min", args.min), ("--max", args.max)):
            try:
                replace(cfg, cap_ct=ratio * cfg.cap_cp).ratios()
            except ValueError as exc:
                raise ConfigError(flag, f"C_T/C_P = {ratio!r}: {exc}") from None
        values = np.logspace(math.log10(args.min), math.log10(args.max), args.points).tolist()
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("--min/--max/--points", "axis values must be strictly increasing")
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    values = _sweep_axis(args, cfg)
    src = cfg.piezo_source()
    emitter = _Emitter(args.out_dir)
    if args.axis == "ct":
        result = sweep_ct_ratio(src, cfg.rectifier_stage(), values)
        name = "sweep_ct.csv"
        xlabel = "C_T / C_P"
    else:
        ct_ratio = None if cfg.full_bridge else cfg.cap_ct / cfg.cap_cp
        result = sweep_storage_voltage(src, cfg.diode_drop_vd, values, ct_ratio)
        name = "sweep_vs.csv"
        xlabel = "V_S (V)"
    result.write_csv(emitter.path(name))
    if args.svg:
        line_chart(
            emitter.path(name.replace(".csv", ".svg")),
            list(result.axis_values),
            {"power_W": [r.power_out for r in result.reports]},
            title="Output power sweep",
            xlabel=xlabel,
            ylabel="power (W)",
        )
    emitter.write_manifest("sweep", cfg.echo())
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    cfg = _resolve(args)
    src = cfg.piezo_source()
    stage = cfg.rectifier_stage()
    eta = steady_state_efficiency(cfg.ratios())
    baseline = harvest_report(src, stage, 0.0)
    sshc = harvest_report(src, stage, eta)
    emitter = _Emitter(args.out_dir)
    write_reports_csv(
        emitter.path("compare.csv"), "mode", "s", ["full_bridge", "sshc"], [baseline, sshc]
    )
    emitter.write_manifest("compare", cfg.echo())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sshc-sim",
        description="Switched-capacitor charge-inversion rectifier toolkit",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--svg", action="store_true", help="also emit SVG plots")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a config key (repeatable)",
        )

    p_analyze = sub.add_parser("analyze", help="closed-form flip efficiency tables")
    add_common(p_analyze)
    p_analyze.add_argument("--ct-ratio", type=float, default=None, help="C_T as a multiple of C_P")
    p_analyze.add_argument("--cycles", type=int, default=None, help="number of flip cycles")
    p_analyze.set_defaults(func=_cmd_analyze)

    p_sim = sub.add_parser("simulate", help="transient waveform and flip events")
    add_common(p_sim)
    p_sim.add_argument("--ct-ratio", type=float, default=None)
    p_sim.add_argument("--cycles", type=int, default=None)
    p_sim.add_argument("--full-bridge", action="store_true", help="baseline without flips")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="parameter sweeps")
    add_common(p_sweep)
    p_sweep.add_argument("--axis", choices=("ct", "vs"), required=True)
    p_sweep.add_argument("--min", type=float, required=True)
    p_sweep.add_argument("--max", type=float, required=True)
    p_sweep.add_argument("--points", type=int, default=50)
    p_sweep.add_argument("--full-bridge", action="store_true")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cmp = sub.add_parser("compare", help="full-bridge vs SSHC harvest report")
    add_common(p_cmp)
    p_cmp.add_argument("--ct-ratio", type=float, default=None)
    p_cmp.set_defaults(func=_cmd_compare)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: simulation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
