"""The api-transient workload's seed-1 output digest, pinned: the first 8 ops
(the C_T = 100 C_P, 300-cycle run among them) go through the workload's own
call and digest, which hashes the events and every waveform column. A change
in any sample's bits, event or column length shows here as a digest
mismatch, as it would in bench/run.py."""

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

from workloads import WORKLOADS  # noqa: E402

API_TRANSIENT_SEED_1 = "ded0262c1a2fa0ed26386655f2027278896d16ab494e822f8289f963fc65f593"


def test_api_transient_seed_1_digest(tmp_path):
    workload = WORKLOADS["api-transient"](1)
    ops = workload.ops()
    combined = hashlib.sha256()
    for _ in range(8):
        op = next(ops)
        result = workload.call(op, str(tmp_path))
        assert workload.check(op, result, str(tmp_path)).failures == []
        combined.update(workload.digest(op, result, str(tmp_path)))
    assert combined.hexdigest() == API_TRANSIENT_SEED_1
