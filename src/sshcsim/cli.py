"""Command-line front end.

Subcommands: analyze (closed-form flip tables), simulate (transient waveforms
and flip events), sweep (parameter sweeps), compare (full-bridge vs SSHC
report). Every run writes a manifest.json listing the resolved config and all
emitted files, plus the wall-clock seconds of each stage and the Python and
numpy versions it ran on. Exit codes: 0 success, 2 config error, 3 simulation
error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
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
from .svg import Envelope, line_chart
from .transient import extract_efficiency_trajectory, run, write_flip_events_csv


class _Emitter:
    """Collects output paths so the manifest can list every emitted file, and
    times the stages of the command for it."""

    def __init__(self, out_dir: str):
        # Reject, before any work, a directory that path() could not make: an
        # empty name, or one whose nearest existing part is not a directory.
        # Nothing is made here.
        head = out_dir
        while head and not os.path.exists(head):
            head = os.path.dirname(head)
        if not (out_dir and os.path.isdir(head or ".")):
            raise ConfigError("--out-dir", f"{head!r} is not a directory")
        self.out_dir = out_dir
        self.paths: List[str] = []
        # Wall-clock seconds per stage: the one part of the manifest that
        # differs between identical runs. A stage that does not run stays 0.
        self.timings_s = dict.fromkeys(("resolve", "engine", "csv", "svg"), 0.0)
        self._lap_start = time.perf_counter()

    def lap(self, stage: str) -> None:
        """Book the seconds since the previous lap, or since the emitter was
        made, to `stage`."""
        now = time.perf_counter()
        self.timings_s[stage] += now - self._lap_start
        self._lap_start = now

    def path(self, name: str) -> str:
        if not self.paths:  # nothing is made before the first output
            os.makedirs(self.out_dir, exist_ok=True)
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
            "timings_s": self.timings_s,
            "python_version": "%d.%d.%d" % sys.version_info[:3],
            "numpy_version": np.__version__,
        }
        with open(manifest_path, "w", encoding="utf-8") as fh:
            # One write: json.dump would write each of its many small chunks.
            fh.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
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


def _require_ct(cfg: ResolvedConfig, why: str) -> None:
    """Reject the full bridge, which has no C_T, where C_T is the output's subject."""
    if cfg.full_bridge:
        raise ConfigError("full_bridge", f"the full bridge has no C_T {why}")


def _cmd_analyze(args: argparse.Namespace, cfg: ResolvedConfig, emitter: _Emitter) -> None:
    _require_ct(cfg, "to flip; compare reports both modes")
    ratios = cfg.ratios()
    emitter.lap("resolve")
    v0 = conduction_threshold(cfg.rectifier_stage())
    # A zero threshold never charges C_T: the efficiencies come from the series
    # normalized to 1 V, and vt_V is that series times the real v0.
    series = flip_efficiency_series(ratios, v0 if v0 > 0 else 1.0, cfg.n_cycles)
    vts = series.vt_trajectory if v0 > 0 else [v0 * vt for vt in series.vt_trajectory]
    values = []
    for n, (eta, vt) in enumerate(zip(series.efficiencies, vts), start=1):
        values += (n, eta, vt, closed_form_efficiency(ratios, n))
    summary = [
        "steady_state_efficiency", fmt(series.limit),
        "optimal_single_flip_ct_F", fmt(optimal_single_flip_ct(cfg.cap_cp)),
        "cycles_to_99pct_of_limit", cycles_to_converge(ratios, 0.99),
    ]
    emitter.lap("engine")
    write_csv(
        emitter.path("flip_series.csv"),
        ["n", "efficiency", "vt_V", "closed_form"],
        [("dggg", values)],
    )
    write_csv(emitter.path("summary.csv"), ["key", "value"], [("ss", summary)])
    emitter.lap("csv")
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
        emitter.lap("svg")


def _cmd_simulate(args: argparse.Namespace, cfg: ResolvedConfig, emitter: _Emitter) -> None:
    emitter.lap("resolve")
    result = run(cfg.sim_config())
    emitter.lap("engine")
    # One walk evaluates the waveform's samples, once: it writes waveform.csv
    # and, with --svg, feeds the chart's pixel envelope as it goes. So the
    # csv stage books that feed, and the svg stage only draws the charts.
    wf = result.waveform
    chart = Envelope(("vpt_V", "vt_V"), *wf.t_span) if args.svg else None
    wf.write_csv(emitter.path("waveform.csv"), chart)
    write_flip_events_csv(result.events, emitter.path("flip_events.csv"))
    emitter.lap("csv")
    if chart is not None:
        chart.write(
            emitter.path("waveform.svg"),
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
        emitter.lap("svg")


def _sweep_axis(args: argparse.Namespace, cfg: ResolvedConfig) -> List[float]:
    """The axis of `sweep`. A --min, --max or --points value that the sweep
    functions would reject raises ConfigError naming the flag, and a C_T
    axis on the full bridge one naming full_bridge."""
    if args.axis == "ct":
        _require_ct(cfg, "to sweep; use --axis vs")
    if args.points < 1:
        raise ConfigError("--points", f"must be >= 1, got {args.points}")
    # Each end must fit the type that will hold it; the ends bound the
    # values between them.
    for flag, value in (("--min", args.min), ("--max", args.max)):
        try:
            if args.axis == "vs":
                replace(cfg, storage_vs=value).sim_config()
            else:
                replace(cfg, cap_ct=value * cfg.cap_cp).ratios()
        except ValueError as exc:
            where = "" if args.axis == "vs" else f"C_T/C_P = {value!r}: "
            raise ConfigError(flag, f"{where}{exc}") from None
    # numpy refuses a count it cannot allocate or index with one of these.
    try:
        if args.axis == "vs":
            values = np.linspace(args.min, args.max, args.points).tolist()
        else:
            values = np.logspace(math.log10(args.min), math.log10(args.max), args.points).tolist()
    except (MemoryError, ValueError, IndexError) as exc:
        raise ConfigError("--points", f"cannot make an axis of {args.points} points: {exc}") from None
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("--min/--max/--points", "axis values must be strictly increasing")
    return values


def _cmd_sweep(args: argparse.Namespace, cfg: ResolvedConfig, emitter: _Emitter) -> None:
    values = _sweep_axis(args, cfg)
    emitter.lap("resolve")
    src = cfg.piezo_source()
    if args.axis == "ct":
        result = sweep_ct_ratio(src, cfg.rectifier_stage(), values)
        name = "sweep_ct.csv"
        xlabel = "C_T / C_P"
    else:
        ct_ratio = None if cfg.full_bridge else cfg.cap_ct / cfg.cap_cp
        result = sweep_storage_voltage(src, cfg.diode_drop_vd, values, ct_ratio)
        name = "sweep_vs.csv"
        xlabel = "V_S (V)"
    emitter.lap("engine")
    result.write_csv(emitter.path(name))
    emitter.lap("csv")
    if args.svg:
        line_chart(
            emitter.path(name.replace(".csv", ".svg")),
            list(result.axis_values),
            {"power_W": [r.power_out for r in result.reports]},
            title="Output power sweep",
            xlabel=xlabel,
            ylabel="power (W)",
        )
        emitter.lap("svg")


def _cmd_compare(args: argparse.Namespace, cfg: ResolvedConfig, emitter: _Emitter) -> None:
    emitter.lap("resolve")
    src = cfg.piezo_source()
    stage = cfg.rectifier_stage()
    eta = steady_state_efficiency(cfg.ratios())
    baseline = harvest_report(src, stage, 0.0)
    sshc = harvest_report(src, stage, eta)
    emitter.lap("engine")
    write_reports_csv(
        emitter.path("compare.csv"), "mode", "s", ["full_bridge", "sshc"], [baseline, sshc]
    )
    emitter.lap("csv")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused after it: parse_args
    keeps no state between calls, and a build costs about as much as a
    closed-form subcommand. Each subcommand's func is bound at that build."""
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
    """Run one subcommand: resolve its config, let its func check what it
    alone needs and do its work on an emitter, then write the manifest."""
    args = _build_parser().parse_args(argv)
    try:
        emitter = _Emitter(args.out_dir)
        cfg = _resolve(args)
        args.func(args, cfg, emitter)
        emitter.write_manifest(args.command, cfg.echo())
        return 0
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: simulation: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
