"""Property: every subcommand agrees on whether a config is valid.

A config that parse_config accepts runs simulate, analyze, compare and both
sweeps to exit 0, with a closed charge ledger, no numpy RuntimeWarning and
no inf or nan in any CSV; a config it rejects exits 2 on all of them. The
draws span many decades per key.
"""

import math
import os
import re
import tempfile
import warnings
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sshcsim import WeakExcitationWarning, cli, run

SUBCOMMANDS = [
    ["simulate"],
    ["analyze"],
    ["compare"],
    ["sweep", "--axis", "ct", "--min", "0.1", "--max", "100", "--points", "5"],
    ["sweep", "--axis", "vs", "--min", "0", "--max", "10", "--points", "5"],
]


def log_uniform(lo, hi):
    """lo * (hi/lo)**u for u in [0, 1]; drawing u rather than the exponent
    lets hypothesis reach both ends of the range."""
    return st.floats(0.0, 1.0).map(lambda u: 10.0 ** (math.log10(lo) + u * math.log10(hi / lo)))


CONFIGS = st.fixed_dictionaries(
    {
        "amplitude_ip": log_uniform(1e-12, 1e3).map(repr),
        "frequency": log_uniform(1e-3, 1e7).map(repr),
        "cap_cp": log_uniform(1e-15, 1e-3).map(repr),
        "res_rp": st.one_of(st.just("inf"), log_uniform(1.0, 1e12).map(repr)),
        "storage_cs": st.one_of(st.just("none"), log_uniform(1e-12, 0.1).map(repr)),
        "cap_ct": log_uniform(1e-20, 1e20).map(lambda r: f"{r!r}x"),
        "n_cycles": st.just("1"),
    }
)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(CONFIGS)
# A source whose leak rate 1/(R_P C_P) overflows, a subnormal C_P, and a
# source whose half-cycle charge 2*I_P/omega overflows.
@example({"res_rp": "1e-300", "cap_cp": "1e-10", "n_cycles": "1"})
@example({"cap_cp": "1e-320", "n_cycles": "1"})
@example({"amplitude_ip": "1e307", "frequency": "1e-5", "cap_cp": "1e20", "n_cycles": "1"})
# A source and rail whose output power 2*f*(2*I_P/omega)*V_S overflows.
@example({"amplitude_ip": "1e150", "cap_cp": "1e-150", "frequency": "1", "storage_vs": "1e200",
          "n_cycles": "1"})
# A wasted charge 2*C_P*(V_S + 2*V_D) that overflows, and a threshold
# V_S + 2*V_D that does.
@example({"cap_cp": "1e300", "storage_vs": "1e10", "n_cycles": "1"})
@example({"storage_vs": "1.7e308", "diode_drop_vd": "1e308", "n_cycles": "1"})
def test_subcommands_agree_on_validity(overrides):
    sets = [arg for key, value in overrides.items() for arg in ("--set", f"{key}={value}")]
    runs = []  # (SimConfig, RunResult) of the simulate call

    def kept_run(cfg):
        runs.append((cfg, run(cfg)))
        return runs[-1][1]

    with warnings.catch_warnings(record=True) as caught, tempfile.TemporaryDirectory() as out:
        warnings.simplefilter("always")
        with mock.patch.object(cli, "run", kept_run):
            codes = [cli.main(sub + sets + ["--out-dir", out]) for sub in SUBCOMMANDS]
        # Each subcommand writes CSVs of its own names; none holds inf or nan.
        for name in sorted(os.listdir(out)):
            if name.endswith(".csv"):
                with open(os.path.join(out, name), encoding="utf-8") as fh:
                    bad = re.search(r"\b(inf|nan)\b", fh.read())
                assert bad is None, (name, bad)

    assert codes in ([0] * len(SUBCOMMANDS), [2] * len(SUBCOMMANDS))
    unexpected = [w for w in caught if not issubclass(w.category, WeakExcitationWarning)]
    assert not unexpected, [str(w.message) for w in unexpected]
    assert len(runs) == (1 if codes[0] == 0 else 0)
    for cfg, result in runs:
        residual = result.ledger.residual(result.initial_state, result.final_state, cfg)
        assert abs(residual) < 1e-12 * result.ledger.q_source_gross
