import os
import subprocess
import sys

import sshcsim

# Every name sshcsim exports, the submodules that its imports bind included.
# A change to this list is a change to the public API: say so in CHANGES.md.
PUBLIC = [
    "ChargeLedger",
    "CircuitState",
    "FiniteCap",
    "FixedVoltage",
    "FlipEvent",
    "FlipRatios",
    "FlipSeries",
    "HarvestReport",
    "Phase",
    "PiezoSource",
    "RectifierStage",
    "RunResult",
    "SimConfig",
    "SshcNetwork",
    "SweepResult",
    "Waveform",
    "WeakExcitationWarning",
    "apply_flip",
    "charge_share",
    "circuit",
    "closed_form_efficiency",
    "compare",
    "conduction_threshold",
    "csvout",
    "cycles_to_converge",
    "extract_efficiency_trajectory",
    "first_flip_efficiency",
    "flip",
    "flip_efficiency_series",
    "flip_step",
    "full_swing_supported",
    "harvest_report",
    "open_circuit_vpp",
    "optimal_single_flip_ct",
    "run",
    "steady_state_efficiency",
    "sweep_ct_ratio",
    "sweep_storage_voltage",
    "transient",
    "wasted_charge_fullbridge",
    "write_flip_events_csv",
]


def test_all_is_pinned():
    assert sshcsim.__all__ == PUBLIC


def test_runtime_imports_numpy_only():
    # The runtime dependencies are numpy alone: a fresh interpreter that
    # imports the package and its CLI loads none of the test or optional
    # packages installed beside it.
    path = [os.path.dirname(os.path.dirname(sshcsim.__file__)), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = "import sys, sshcsim, sshcsim.cli; print(*sys.modules)"
    argv = [sys.executable, "-c", code]
    out = subprocess.run(argv, env=env, capture_output=True, text=True, check=True)
    loaded = {name.partition(".")[0] for name in out.stdout.split()}
    assert "numpy" in loaded
    extra = loaded & {"scipy", "mpmath", "hypothesis", "pytest"}
    assert not extra, sorted(extra)
