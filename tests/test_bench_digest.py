"""Seed-1 output digests of the benchmark workloads, pinned. Each op goes
through the workload's own call, check and digest, as in bench/run.py, so a
change in any sample's bits, event, column length or CSV byte shows here as a
digest mismatch.

api-transient: the first 8 ops, the C_T = 100 C_P, 300-cycle run among them;
its digest hashes the events and every waveform column. cli-simulate: the
first 4 ops, the full bridge and three SSHC runs at the workload's random
C_T/C_P ratios; its digest hashes every CSV the CLI writes."""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

from workloads import WORKLOADS  # noqa: E402


def seed_1_digest(name, count, tmp_path):
    """The combined digest of the first `count` seed-1 ops of workload `name`,
    each run in its own directory, as bench/run.py runs them."""
    workload = WORKLOADS[name](1)
    ops = workload.ops()
    combined = hashlib.sha256()
    for k in range(count):
        op = next(ops)
        out = str(tmp_path / f"op{k}")
        result = workload.call(op, out)
        assert workload.check(op, result, out).failures == []
        combined.update(workload.digest(op, result, out))
    return combined.hexdigest()


def test_api_transient_seed_1_digest(tmp_path):
    assert seed_1_digest("api-transient", 8, tmp_path) == (
        "ded0262c1a2fa0ed26386655f2027278896d16ab494e822f8289f963fc65f593"
    )


def test_cli_simulate_seed_1_digest(tmp_path):
    assert seed_1_digest("cli-simulate", 4, tmp_path) == (
        "e077ce09194ad3de225438f6f1133135a6ea06f2c4c595acb34a6dda9f85cb77"
    )
