"""Seeded workloads for the sshcsim benchmark.

Each workload turns a seed into an endless stream of operations, runs one
operation through the program's public entry point (``sshcsim.cli.main`` or
``sshcsim.run``), checks the outputs, and hashes them for the output digest.
The stream is built from shuffled rounds so that every prefix of a run holds
the workload's op mix in fixed proportions; only the parameters are random.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import sshcsim
import sshcsim.cli
from sshcsim import (
    FiniteCap,
    FixedVoltage,
    FlipRatios,
    PiezoSource,
    RectifierStage,
    SimConfig,
    SshcNetwork,
    closed_form_efficiency,
    conduction_threshold,
    full_swing_supported,
)

# Circuit defaults of the CLI (README "Default parameters").
AMPLITUDE_IP = 50e-6
FREQUENCY = 100.0
CAP_CP = 10e-9
DIODE_DROP_VD = 0.2
STORAGE_VS = 2.0

# Transient events must match the closed form this closely on fixed-rail
# full-swing runs.
ETA_ABS_TOL = 1e-12
# Ledger closure tolerance, as in the acceptance suite.
LEDGER_REL_TOL = 1e-9

# CSV headers: the first three are the README schemas, the rest are the
# tables the CLI writes for analyze and compare.
CSV_HEADERS = {
    "waveform.csv": "t_s,vpt_V,vt_V,vs_V,phase",
    "flip_events.csv": "cycle,t_s,v_before_V,v_after_V,efficiency",
    "sweep_ct.csv": "axis,q_gen_C,q_wasted_C,q_harvested_C,power_W,eta",
    "sweep_vs.csv": "axis,q_gen_C,q_wasted_C,q_harvested_C,power_W,eta",
    "flip_series.csv": "n,efficiency,vt_V,closed_form",
    "summary.csv": "key,value",
    "compare.csv": "mode,q_gen_C,q_wasted_C,q_harvested_C,power_W,eta",
}


@dataclass
class Op:
    """One generated input. CLI ops carry argv; API ops carry a SimConfig."""

    kind: str
    argv: Optional[List[str]] = None
    cfg: Optional[SimConfig] = None
    n_cycles: int = 0
    ct_ratio: Optional[float] = None  # C_T / C_P; None for the full bridge
    rows: int = 0                     # expected CSV data rows (cli-analytic)
    expect_files: Tuple[str, ...] = ()


@dataclass
class Outcome:
    """Checks of one op: failures, flip-efficiency error, files written."""

    failures: List[str] = field(default_factory=list)
    eta_abs_err: Optional[float] = None
    files: int = 0


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _max_eta_error(ct_ratio: float, events) -> float:
    """Largest |eta_n - closed_form_efficiency(n)| over (n, eta) pairs."""
    ratios = FlipRatios.from_caps(CAP_CP, ct_ratio * CAP_CP)
    return max(
        (abs(eta - closed_form_efficiency(ratios, n)) for n, eta in events),
        default=0.0,
    )


def _last_digit_equal(a: float, b: float) -> bool:
    """Equal at the CSVs' 12 significant digits, allowing one unit in the
    last digit: values a few ulps apart may round to neighbouring strings.
    The factor 1.5 absorbs the binary error of the parsed decimals."""
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return True
    return abs(a - b) <= 1.5 * 10.0 ** (math.floor(math.log10(scale)) - 11)


def _data_rows(path: str) -> List[List[str]]:
    """The fields of every CSV line after the header."""
    with open(path, "r", encoding="utf-8") as fh:
        return [line.split(",") for line in fh.read().splitlines()[1:]]


class Workload:
    """Base class: a seeded op stream plus call, check and digest."""

    name = ""
    # Fixed tail percentile, so the metric means the same on every commit.
    tail_percentile = 75

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def round(self) -> List[Op]:
        raise NotImplementedError

    def ops(self):
        while True:
            batch = self.round()
            self.rng.shuffle(batch)
            yield from batch

    def call(self, op: Op, out_dir: str) -> Any:
        raise NotImplementedError

    def check(self, op: Op, result: Any, out_dir: str) -> Outcome:
        raise NotImplementedError

    def digest(self, op: Op, result: Any, out_dir: str) -> bytes:
        raise NotImplementedError


class _CliWorkload(Workload):
    """Ops are argv lists passed to sshcsim.cli.main in-process."""

    def call(self, op: Op, out_dir: str) -> int:
        return sshcsim.cli.main(op.argv + ["--out-dir", out_dir])

    def _manifest_paths(self, out_dir: str) -> List[str]:
        with open(os.path.join(out_dir, "manifest.json"), "r", encoding="utf-8") as fh:
            return list(json.load(fh)["output_paths"])

    def check(self, op: Op, result: int, out_dir: str) -> Outcome:
        out = Outcome()
        if result != 0:
            out.failures.append(f"exit code {result}")
            return out
        try:
            paths = self._manifest_paths(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            out.failures.append(f"manifest unreadable: {exc}")
            return out
        out.files = len(paths)
        names = {os.path.basename(p) for p in paths}
        for p in paths:
            if not os.path.exists(p):
                out.failures.append(f"manifest lists missing file {p}")
        for name in op.expect_files:
            if name not in names:
                out.failures.append(f"manifest lacks {name}")
        for p in paths:
            expected = CSV_HEADERS.get(os.path.basename(p))
            if expected is not None and os.path.exists(p):
                with open(p, "r", encoding="utf-8") as fh:
                    header = fh.readline().rstrip("\n")
                if header != expected:
                    out.failures.append(f"{os.path.basename(p)} header {header!r}")
        if not out.failures:
            self.check_tables(op, out_dir, out)
        return out

    def check_tables(self, op: Op, out_dir: str, out: Outcome) -> None:
        raise NotImplementedError

    def digest(self, op: Op, result: int, out_dir: str) -> bytes:
        h = hashlib.sha256()
        for p in sorted(self._manifest_paths(out_dir), key=os.path.basename):
            if p.endswith(".csv"):
                h.update(os.path.basename(p).encode() + b"\0")
                with open(p, "rb") as fh:
                    h.update(fh.read())
        return h.digest()


class CliSimulate(_CliWorkload):
    """The README's headline `simulate --svg` call: output-layer bound."""

    name = "cli-simulate"

    def round(self) -> List[Op]:
        ops = [self._sshc_op() for _ in range(3)]
        ops.append(
            Op(
                kind="simulate-full-bridge",
                argv=["simulate", "--svg", "--cycles", "10", "--full-bridge"],
                n_cycles=10,
                expect_files=("waveform.csv", "flip_events.csv", "waveform.svg"),
            )
        )
        return ops

    def _sshc_op(self) -> Op:
        ratio = _log_uniform(self.rng, 0.5, 20.0)
        return Op(
            kind="simulate",
            argv=["simulate", "--svg", "--cycles", "10", "--ct-ratio", repr(ratio)],
            n_cycles=10,
            ct_ratio=ratio,
            expect_files=(
                "waveform.csv",
                "flip_events.csv",
                "waveform.svg",
                "efficiency.svg",
            ),
        )

    def check_tables(self, op: Op, out_dir: str, out: Outcome) -> None:
        rows = _data_rows(os.path.join(out_dir, "flip_events.csv"))
        expected = 0 if op.ct_ratio is None else 2 * op.n_cycles
        if len(rows) != expected:
            out.failures.append(f"{len(rows)} flip events, expected {expected}")
            return
        if op.ct_ratio is not None:
            # Default config: fixed 2 V rail, no leakage, full swing.
            out.eta_abs_err = _max_eta_error(
                op.ct_ratio, ((int(r[0]), float(r[4])) for r in rows)
            )
            if out.eta_abs_err > ETA_ABS_TOL:
                out.failures.append(f"flip efficiency off closed form by {out.eta_abs_err:g}")


class CliAnalytic(_CliWorkload):
    """Closed-form analyze, sweep and compare calls: per-call overhead bound."""

    name = "cli-analytic"
    tail_percentile = 99

    def round(self) -> List[Op]:
        rng = self.rng
        ratio = _log_uniform(rng, 0.1, 100.0)
        cycles = rng.randint(10, 500)
        analyze = Op(
            kind="analyze",
            argv=["analyze", "--svg", "--ct-ratio", repr(ratio), "--cycles", str(cycles)],
            n_cycles=cycles,
            ct_ratio=ratio,
            rows=cycles,
            expect_files=("flip_series.csv", "summary.csv", "flip_series.svg"),
        )
        points = rng.randint(20, 300)
        if rng.random() < 0.5:
            lo, hi = _log_uniform(rng, 0.1, 1.0), _log_uniform(rng, 10.0, 100.0)
            argv = ["sweep", "--axis", "ct"]
            name = "sweep_ct"
        else:
            lo, hi = rng.uniform(0.0, 1.0), rng.uniform(5.0, 10.0)
            argv = ["sweep", "--axis", "vs", "--set", f"cap_ct={_log_uniform(rng, 0.1, 100.0)!r}x"]
            name = "sweep_vs"
        sweep = Op(
            kind=name,
            argv=argv + ["--min", repr(lo), "--max", repr(hi), "--points", str(points), "--svg"],
            rows=points,
            expect_files=(name + ".csv", name + ".svg"),
        )
        compare = Op(
            kind="compare",
            argv=["compare", "--ct-ratio", repr(_log_uniform(rng, 0.1, 100.0))],
            rows=2,
            expect_files=("compare.csv",),
        )
        return [analyze, sweep, compare]

    def check_tables(self, op: Op, out_dir: str, out: Outcome) -> None:
        csv_name = next(n for n in op.expect_files if n.endswith(".csv"))
        rows = _data_rows(os.path.join(out_dir, csv_name))
        if len(rows) != op.rows:
            out.failures.append(f"{csv_name} has {len(rows)} rows, expected {op.rows}")
            return
        if op.kind == "analyze":
            for r in rows:
                if not _last_digit_equal(float(r[1]), float(r[3])):
                    out.failures.append(f"analyze row {r[0]}: efficiency {r[1]} != closed_form {r[3]}")
                    return
        elif op.kind == "compare":
            if [r[0] for r in rows] != ["full_bridge", "sshc"]:
                out.failures.append(f"compare modes {[r[0] for r in rows]}")


class ApiTransient(Workload):
    """Programmatic sshcsim.run() sweeps that write nothing: engine bound."""

    name = "api-transient"

    def __init__(self, seed: int):
        super().__init__(seed)
        self._anchor_done = False

    def round(self) -> List[Op]:
        rng = self.rng
        ops = []
        for _ in range(2):
            ratio = _log_uniform(rng, 0.5, 20.0)
            rp = _log_uniform(rng, 1e6, 100e6)
            ops.append(self._op("leaky", ratio, 10, res_rp=rp))
        for _ in range(2):
            ratio = _log_uniform(rng, 0.5, 20.0)
            cs = rng.uniform(1e-6, 10e-6)
            ops.append(self._op("finite", ratio, 10, storage=FiniteCap(cs, STORAGE_VS)))
        if self._anchor_done:
            ratio, cycles = _log_uniform(rng, 10.0, 100.0), rng.randint(100, 300)
        else:
            # The paper's slow-convergence case (C_T = 100 C_P over 300 cycles)
            # opens every run, so each run reaches the same memory peak.
            ratio, cycles = 100.0, 300
            self._anchor_done = True
        ops.append(self._op("ideal", ratio, cycles))
        return ops

    @staticmethod
    def _op(kind, ratio, cycles, res_rp=math.inf, storage=None) -> Op:
        cfg = SimConfig(
            src=PiezoSource(AMPLITUDE_IP, FREQUENCY, CAP_CP, res_rp),
            stage=RectifierStage(DIODE_DROP_VD, storage or FixedVoltage(STORAGE_VS)),
            sshc=SshcNetwork(ratio * CAP_CP),
            n_cycles=cycles,
        )
        return Op(kind=kind, cfg=cfg, n_cycles=cycles, ct_ratio=ratio)

    def call(self, op: Op, out_dir: str):
        return sshcsim.run(op.cfg)

    def check(self, op: Op, result, out_dir: str) -> Outcome:
        out = Outcome()
        cfg = op.cfg
        if len(result.events) != 2 * op.n_cycles:
            out.failures.append(f"{len(result.events)} flip events, expected {2 * op.n_cycles}")
        residual = ledger_residual_ratio(cfg, result)
        if not residual < LEDGER_REL_TOL:
            out.failures.append(f"ledger residual {residual:g} of scale")
        if isinstance(cfg.stage.storage, FixedVoltage) and full_swing_supported(cfg.src, cfg.stage):
            out.eta_abs_err = _max_eta_error(
                op.ct_ratio, ((e.cycle_index, e.efficiency) for e in result.events)
            )
            if out.eta_abs_err > ETA_ABS_TOL:
                out.failures.append(f"flip efficiency off closed form by {out.eta_abs_err:g}")
        return out

    def digest(self, op: Op, result, out_dir: str) -> bytes:
        h = hashlib.sha256()
        for e in result.events:
            h.update(repr((e.cycle_index, e.t, e.v_before, e.v_after, e.efficiency)).encode())
        wf = result.waveform
        for column in (wf.t, wf.vpt, wf.vt, wf.vs):
            h.update(np.asarray(column, dtype=np.float64).tobytes())
        return h.digest()


def ledger_residual_ratio(cfg: SimConfig, result) -> float:
    """|ledger residual| over the acceptance suite's scale
    max(|q_source|, C_P * V_th)."""
    residual = result.ledger.residual(result.initial_state, result.final_state, cfg)
    scale = max(abs(result.ledger.q_source), cfg.src.cap_cp * conduction_threshold(cfg.stage))
    return abs(residual) / scale


def harvest_rel_err() -> float:
    """Relative gap between the engine's steady-state harvest per half cycle
    and harvest_report at the realised flip efficiency, on the default config.

    The harvest of the last cycle is the difference between a 10-cycle and a
    9-cycle run, halved. The gap is a known defect: the engine drops the
    source charge of the switch window.
    """
    src = PiezoSource(AMPLITUDE_IP, FREQUENCY, CAP_CP)
    stage = RectifierStage(DIODE_DROP_VD, FixedVoltage(STORAGE_VS))

    def harvested(cycles: int):
        result = sshcsim.transient.run(
            SimConfig(src=src, stage=stage, sshc=SshcNetwork(CAP_CP), n_cycles=cycles)
        )
        return result.final_state.q_harvested, result.events[-1].efficiency

    q_10, eta = harvested(10)
    q_9, _ = harvested(9)
    expected = sshcsim.compare.harvest_report(src, stage, eta).q_harvested_halfcycle
    return abs((q_10 - q_9) / 2.0 - expected) / expected


WORKLOADS: Dict[str, type] = {w.name: w for w in (CliSimulate, ApiTransient, CliAnalytic)}
