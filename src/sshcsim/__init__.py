"""Switched-capacitor charge-inversion rectifier toolkit for piezoelectric
vibration energy harvesting front-ends."""

__version__ = "0.1.0"

from .circuit import (
    FiniteCap,
    FixedVoltage,
    PiezoSource,
    RectifierStage,
    SshcNetwork,
    conduction_threshold,
    full_swing_supported,
    open_circuit_vpp,
    wasted_charge_fullbridge,
)
from .compare import (
    HarvestReport,
    SweepResult,
    harvest_report,
    sweep_ct_ratio,
    sweep_storage_voltage,
)
from .flip import (
    FlipRatios,
    FlipSeries,
    charge_share,
    closed_form_efficiency,
    cycles_to_converge,
    first_flip_efficiency,
    flip_efficiency_series,
    flip_step,
    optimal_single_flip_ct,
    steady_state_efficiency,
)
from .transient import (
    ChargeLedger,
    CircuitState,
    FlipEvent,
    Phase,
    RunResult,
    SimConfig,
    Waveform,
    WeakExcitationWarning,
    apply_flip,
    extract_efficiency_trajectory,
    run,
    write_flip_events_csv,
)

__all__ = [name for name in dir() if not name.startswith("_")]
