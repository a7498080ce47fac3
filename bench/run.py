"""sshcsim benchmark: one workload, one process, one closed-loop client.

Run from the repository root:

    python3 bench/run.py --workload cli-simulate --seed 1 --seconds 35 --trace 0

The program is imported from ``src/`` of the checkout that holds this file.
The workload's inputs come from ``--seed`` alone. Each op starts when the
previous one has returned and been checked; only the call into the program
is timed. ``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs
every op twice, traced and untraced, and reports the per-layer metrics. A report is printed first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. A results
file with the environment, the output digest and (traced) the spans is
written to ``.bench_results/``. See bench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"
RESULTS_DIR = ROOT / ".bench_results"

SETUP_SAMPLES = 7
# Ops whose outputs form the digest; every run at today's speed does more.
DIGEST_OPS = 8

_IMPORT_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import sshcsim.cli
print(time.perf_counter() - start)
"""


def import_seconds() -> float:
    """Seconds to import sshcsim.cli in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


class Runner:
    """Runs a workload's op stream and tallies checks and digests."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self._stream = workload.ops()
        self.ops = []
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.eta_abs_err_max = 0.0
        self.digests = {}
        self.reruns_compared = 0

    def op(self, index: int):
        while len(self.ops) <= index:
            self.ops.append(next(self._stream))
        return self.ops[index]

    def execute(self, index: int, want_digest: bool = False, tracer=None) -> int:
        """Run op `index` and check it; return its latency in ns. Only the
        call into the program is timed. A re-run op must reproduce the
        digest of its first run."""
        op = self.op(index)
        out_dir = str(self.work_dir / f"op{index}")
        failures = []
        digest = None
        with tracer.installed(index) if tracer else contextlib.nullcontext():
            start = time.perf_counter_ns()
            try:
                result = self.workload.call(op, out_dir)
            except Exception:  # the loop must go on; the op counts as failed
                latency = time.perf_counter_ns() - start
                traceback.print_exc(file=sys.stderr)
                failures.append("raised " + traceback.format_exc(limit=1))
            else:
                latency = time.perf_counter_ns() - start
                try:
                    outcome = self.workload.check(op, result, out_dir)
                    failures += outcome.failures
                    if want_digest:
                        digest = self.workload.digest(op, result, out_dir)
                except Exception as exc:
                    traceback.print_exc(file=sys.stderr)
                    failures.append(f"check raised {exc!r}")
                else:
                    if outcome.eta_abs_err is not None:
                        self.eta_abs_err_max = max(self.eta_abs_err_max, outcome.eta_abs_err)
                    if tracer:
                        tracer.counts[index]["cli.files"] += outcome.files
                del result
        shutil.rmtree(out_dir, ignore_errors=True)
        if digest is not None:
            if index in self.digests:
                self.reruns_compared += 1
                if self.digests[index] != digest:
                    failures.append("re-run gave different outputs")
            else:
                self.digests[index] = digest
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"op {index} ({op.kind}): {failures[0]}")
        return latency

    def loop(self, seconds: float, tracer=None, probe=None, probes: int = 0) -> tuple:
        """Closed loop over ops 0, 1, ... until `seconds` of wall time pass.

        Returns (untraced, traced) latency lists. With a tracer each op runs
        twice, traced and untraced, alternating which run goes first.
        `probe` is called between ops at `probes` evenly spaced instants.
        """
        plain, traced = [], []
        start = time.perf_counter()
        deadline = start + seconds
        probe_at = [start + k * seconds / probes for k in range(probes)]
        index = 0
        while time.perf_counter() < deadline:
            if probe_at and time.perf_counter() >= probe_at[0]:
                probe_at.pop(0)
                probe()
            want_digest = index < DIGEST_OPS
            if tracer is None:
                plain.append(self.execute(index, want_digest))
            else:
                traced_first = index % 2 == 0
                for with_trace in (traced_first, not traced_first):
                    latency = self.execute(index, want_digest, tracer if with_trace else None)
                    (traced if with_trace else plain).append(latency)
            index += 1
        return plain, traced

    def digest(self) -> str:
        h = hashlib.sha256()
        for index in sorted(self.digests):
            h.update(self.digests[index])
        return h.hexdigest()


def percentile(sorted_values: list, pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def environment(args) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def end_to_end(runner: Runner, latencies: list, setup: list) -> tuple:
    lat_ms = sorted(ns / 1e6 for ns in latencies)
    pct = runner.workload.tail_percentile
    tail = percentile(lat_ms, pct)
    beyond = sum(1 for v in lat_ms if v > tail)
    values = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(latencies) / (sum(latencies) / 1e9),
        "latency_ms_p50": statistics.median(lat_ms),
        "latency_ms_tail": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup)} imports of sshcsim.cli in fresh interpreters",
        "latency_ms_p50": f"n={len(lat_ms)}",
        "latency_ms_tail": f"p{pct}, n={len(lat_ms)}, {beyond} beyond"
        + ("" if beyond >= 10 else ", fewer than 10: too few ops")
        + "; reported, not gated",
        "peak_rss_mb": "ru_maxrss of this process",
    }
    return values, notes


def traced(runner: Runner, seconds: float) -> tuple:
    from tracing import Tracer, alloc_probe
    from workloads import harvest_rel_err

    harvest = harvest_rel_err()
    tracer = Tracer()
    plain_lat, traced_lat = runner.loop(seconds, tracer)
    n_ops = len(traced_lat)

    peaks = []
    samples = tracer.op_samples()
    if any(samples.values()):
        with alloc_probe(peaks):
            runner.execute(max(samples, key=samples.get))

    values = tracer.aggregate(n_ops)
    values["transient.alloc_peak_mb"] = max(peaks, default=0.0)
    values["transient.harvest_rel_err"] = harvest
    values["transient.eta_abs_err_max"] = runner.eta_abs_err_max
    values["trace.overhead_frac"] = sum(traced_lat) / sum(plain_lat) - 1.0

    op_s = sum(traced_lat) / 1e9 / n_ops
    shares = {
        "cli (self)": values["cli.self_s"],
        "config": values["config.parse_s"],
        "flip": values["flip.series_s"],
        "compare": values["compare.report_s"] + values["compare.write_csv_s"],
        "transient engine": values["transient.run_s"],
        "transient csv": values["transient.write_csv_s"] + values["transient.events_csv_s"],
        "svg": values["svg.line_chart_s"],
    }
    shares = {k: v / op_s for k, v in shares.items()}
    return values, shares, tracer.spans, n_ops


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sshcsim" / "__init__.py").is_file():
        print(f"error: no sshcsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sshcsim
    from workloads import WORKLOADS

    if Path(sshcsim.__file__).resolve().parent != (SRC / "sshcsim").resolve():
        print(f"error: sshcsim imported from {sshcsim.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # The metric names and units are the ones BENCHMARK.json declares.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = environment(args)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    work_dir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    runner = Runner(WORKLOADS[args.workload](args.seed), work_dir)
    result = {"environment": env}
    try:
        # Warm-up: op 0 runs once untimed; the loop runs it again, and the
        # two digests must match.
        runner.execute(0, want_digest=True)
        if args.trace == 0:
            # Set-up is sampled across the run, so that it sees the same
            # host load as the ops.
            setup = []
            latencies, _ = runner.loop(
                args.seconds, probe=lambda: setup.append(import_seconds()), probes=SETUP_SAMPLES
            )
            while len(setup) < SETUP_SAMPLES:
                setup.append(import_seconds())
            values, notes = end_to_end(runner, latencies, setup)
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
            result["setup_samples_s"] = setup
            result["latencies_ns"] = latencies
        else:
            values, shares, spans, n_ops = traced(runner, args.seconds)
            metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["per_layer"]}
            notes = {}
            result["shares"] = shares
            result["spans"] = [asdict(s) for s in spans]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK_DIR.rmdir()  # only if no other run is using it

    # Printed beside the declared metrics but not in the JSON line: the tail
    # is too noisy on the slow workloads to gate, fail_ratio is 0 by design.
    fail_ratio = runner.failed / runner.attempted
    reported = dict(metrics, fail_ratio=(fail_ratio, "ratio"))
    notes["fail_ratio"] = f"{runner.failed}/{runner.attempted} ops failed a check; reported, not gated"
    if args.trace == 0:
        reported["latency_ms_tail"] = (values["latency_ms_tail"], "ms")
    for name, (value, unit) in reported.items():
        note = notes.get(name)
        print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    if args.trace == 1:
        for layer, share in result["shares"].items():
            print(f"share {layer} = {share:.1%} of traced op time ({n_ops} ops)")
    print(f"digest sha256 of the first {len(runner.digests)} ops = {runner.digest()}")
    print(f"determinism: {runner.reruns_compared} re-runs compared against their first run")
    for failure in runner.failures:
        print(f"failure {failure}")

    result.update(
        digest=runner.digest(),
        failures=runner.failures,
        reported={name: {"value": v, "unit": u} for name, (v, u) in reported.items()},
        notes=notes,
    )
    summary = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    result["summary"] = summary
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
