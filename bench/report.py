"""Run every workload once untraced and once traced, and print every metric
by name and unit, fail_ratio and the tail latency included, in one table.

    python3 bench/report.py --seed 1 [--seconds 35]

Each run is a separate `bench/run.py` process, started after the previous one
has exited. Seeds 1-10 were used while the benchmark was tuned; check a
claimed gain also on a held-out seed outside that range (for example 9001).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Return {metric: (value, unit)} from the run's `metric` report lines."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} trace={trace} exited with {proc.returncode}")
    values = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            name, _, rest = line[len("metric "):].partition(" = ")
            value, unit = rest.split()[:2]
            values[name] = (float(value), unit)
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    names = [w["name"] for w in spec["workloads"]]
    table = {}
    for w in names:
        for trace in (0, 1):
            for metric, (value, unit) in run(w, args.seed, args.seconds, trace).items():
                cells = table.setdefault((metric, unit), {})
                # fail_ratio comes from both runs of a workload; keep the worse.
                cells[w] = max(cells.get(w, value), value)
    print(f"{'metric':32} {'unit':6} " + " ".join(f"{w:>14}" for w in names))
    for (metric, unit), cells in table.items():
        print(f"{metric:32} {unit:6} " + " ".join(f"{cells.get(w, float('nan')):>14.6g}" for w in names))
    return 0 if all(v == 0 for v in table[("fail_ratio", "ratio")].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
