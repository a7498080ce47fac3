"""Smoke test of the benchmark harness: the first op of each workload runs and
passes its own checks, so an API change that breaks the benchmark fails here
first. Timing is left to bench/run.py."""

import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "bench"))

from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_first_op_passes_checks(tmp_path, name):
    workload = WORKLOADS[name](1)
    op = next(workload.ops())
    out_dir = str(tmp_path)
    result = workload.call(op, out_dir)
    assert workload.check(op, result, out_dir).failures == []
