"""Fixed-step time-domain simulator with event-aligned switching.

The source current is integrated into C_P with explicit Euler steps; the diode
bridge is an exact algebraic clamp at +/-(vs + 2*vd) with the excess charge
routed to storage. At every source zero crossing the three switch phases run in
the polarity-correct order (share, short, reversed dump) as instantaneous
charge redistributions, with extra waveform samples inserted at the pulse
boundaries so the flip staircase is visible on the timeline.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import IO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import (
    FiniteCap,
    FixedVoltage,
    PiezoSource,
    RectifierStage,
    SshcNetwork,
    conduction_threshold,
    full_swing_supported,
)
from .csvout import fmt, write_csv
from .flip import charge_share

_TOKEN = "<U4"  # dtype of the phase column; the longest token has four characters
_CHUNK = 4096  # waveform rows formatted per CSV step


class Phase(enum.Enum):
    IDLE = "Idle"
    PHI_P = "PhiP"
    PHI_0 = "Phi0"
    PHI_N = "PhiN"


class FlipDirection(enum.Enum):
    POS_TO_NEG = "pos_to_neg"  # pulse order PhiP -> Phi0 -> PhiN
    NEG_TO_POS = "neg_to_pos"  # pulse order PhiN -> Phi0 -> PhiP


class PhaseOrderError(ValueError):
    """A switch phase arrived out of the polarity-correct sequence."""


class WeakExcitationWarning(UserWarning):
    """Open-circuit swing too small for V_PT to re-reach the clamp each half cycle."""


@dataclass(frozen=True)
class SimConfig:
    src: PiezoSource
    stage: RectifierStage
    sshc: Optional[SshcNetwork] = None  # None = full-bridge baseline
    dt: float = 0.0                     # 0 -> period / 10000
    n_cycles: int = 10
    phase_pulse_width: float = 0.0      # 0 -> period / 500
    phase_gap: Optional[float] = None   # None -> period / 2000; 0 is legal
    vpt_initial: float = 0.0

    def __post_init__(self):
        period = self.src.period
        if self.dt == 0.0:
            object.__setattr__(self, "dt", period / 10_000.0)
        if self.phase_pulse_width == 0.0:
            object.__setattr__(self, "phase_pulse_width", period / 500.0)
        if self.phase_gap is None:
            object.__setattr__(self, "phase_gap", period / 2_000.0)
        if not self.dt > 0:
            raise ValueError("dt must be > 0")
        if self.dt > period / 1_000.0:
            raise ValueError("dt must be <= period / 1000")
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if not self.phase_pulse_width > 0:
            raise ValueError("phase_pulse_width must be > 0")
        if self.phase_gap < 0:
            raise ValueError("phase_gap must be >= 0")
        window = 3.0 * self.phase_pulse_width + 2.0 * self.phase_gap
        if not window < 0.02 * period:
            raise ValueError(
                "3*phase_pulse_width + 2*phase_gap must stay below 2% of the period"
            )


@dataclass(frozen=True)
class CircuitState:
    t: float
    vpt: float
    vt: float
    vs: float
    q_harvested: float
    phase: Phase = Phase.IDLE
    # Sequencing guard: which share phase ran first in the current flip window.
    last_share_phase: Phase = Phase.IDLE


@dataclass(frozen=True)
class FlipEvent:
    cycle_index: int  # 1-based flip count
    t: float
    v_before: float
    v_after: float
    efficiency: float


@dataclass
class ChargeLedger:
    """Running charge accounts, all in coulombs, signed in the node frame of
    the plate-referenced system charge Q = C_P*vpt + C_T*vt.

    q_reversal records the pure bookkeeping jump of the plate-referenced C_T
    charge when C_T is reconnected reversed (no physical flow). The balance

        dQ = q_source - q_storage - q_leak - q_cleared + q_reversal

    holds to floating precision when every transfer is conservative.
    """

    q_source: float = 0.0    # integrated source charge actually applied
    q_storage: float = 0.0   # signed charge routed through the bridge to storage
    q_leak: float = 0.0      # signed charge lost through res_rp
    q_cleared: float = 0.0   # signed charge shunted to ground during Phi0
    q_reversal: float = 0.0  # plate-frame relabeling jumps at reversed reconnects

    def residual(self, initial: CircuitState, final: CircuitState, cfg: SimConfig) -> float:
        cp = cfg.src.cap_cp
        ct = cfg.sshc.cap_ct if cfg.sshc is not None else 0.0
        q_initial = cp * initial.vpt + ct * initial.vt
        q_final = cp * final.vpt + ct * final.vt
        return (q_final - q_initial) - (
            self.q_source - self.q_storage - self.q_leak - self.q_cleared + self.q_reversal
        )


@dataclass
class Waveform:
    """Sampled trajectory; uniform dt plus extra samples at phase boundaries.

    t, vpt, vt and vs are float64 arrays of equal length; phase holds the
    matching phase tokens (Idle, PhiP, Phi0, PhiN) as a '<U4' array.
    """

    t: np.ndarray
    vpt: np.ndarray
    vt: np.ndarray
    vs: np.ndarray
    phase: np.ndarray

    def __len__(self) -> int:
        return len(self.t)

    def write_csv(self, out: Union[str, IO[str]]) -> None:
        write_csv(out, ["t_s", "vpt_V", "vt_V", "vs_V", "phase"], "gg", self._csv_blocks())

    def _csv_blocks(self) -> Iterator[Tuple[str, list]]:
        """(t, vpt) pairs in blocks of rows that share vt, vs and phase.

        Between flips those three columns do not change, so each run of equal
        values is formatted once, as the tail of its block. The columns are
        read _CHUNK rows at a time, so no whole-column copy is made.
        """
        for start in range(0, len(self), _CHUNK):
            stop = min(start + _CHUNK, len(self))
            vt = self.vt[start:stop]
            vs = self.vs[start:stop]
            phase = self.phase[start:stop]
            changed = np.ones(stop - start, dtype=bool)
            changed[1:] = (vt[1:] != vt[:-1]) | (vs[1:] != vs[:-1]) | (phase[1:] != phase[:-1])
            bounds = np.flatnonzero(changed).tolist() + [stop - start]
            pairs = np.column_stack((self.t[start:stop], self.vpt[start:stop])).ravel().tolist()
            for a, b in zip(bounds, bounds[1:]):
                yield f"{fmt(vt[a])},{fmt(vs[a])},{phase[a]}", pairs[2 * a : 2 * b]


@dataclass
class RunResult:
    waveform: Waveform
    events: List[FlipEvent]
    ledger: ChargeLedger
    final_state: CircuitState
    initial_state: CircuitState


def write_flip_events_csv(events: Sequence[FlipEvent], out: Union[str, IO[str]]) -> None:
    values = [
        x for e in events for x in (e.cycle_index, e.t, e.v_before, e.v_after, e.efficiency)
    ]
    write_csv(
        out, ["cycle", "t_s", "v_before_V", "v_after_V", "efficiency"], "dgggg", [("", values)]
    )


def zero_crossing_times(
    src: PiezoSource, n_cycles: int
) -> List[Tuple[float, FlipDirection]]:
    """Analytic zero crossings of the source over n_cycles periods.

    The sinusoid starts positive at t=0, so crossing k (1-based) at k/(2f)
    alternates starting from positive-to-negative.
    """
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    half = 0.5 / src.frequency
    out = []
    for k in range(1, 2 * n_cycles + 1):
        direction = FlipDirection.POS_TO_NEG if k % 2 == 1 else FlipDirection.NEG_TO_POS
        out.append((k * half, direction))
    return out


def apply_phase(
    state: CircuitState,
    phase: Phase,
    cfg: SimConfig,
    ledger: Optional[ChargeLedger] = None,
    enforce_order: bool = True,
) -> CircuitState:
    """Execute one switch phase as an instantaneous charge redistribution.

    PhiP connects the reference plate of C_T to the positive terminal (like
    polarity for a positive V_PT), Phi0 shorts C_P, PhiN connects C_T reversed.
    The polarity-correct sequence is enforced unless enforce_order is False.
    """
    if cfg.sshc is None:
        raise ValueError("apply_phase requires an SSHC network in the config")
    if enforce_order and not _phase_legal(state, phase):
        raise PhaseOrderError(
            f"phase {phase.value} illegal after {state.phase.value} "
            f"(vpt={state.vpt:+.3g} V)"
        )
    cp = cfg.src.cap_cp
    ct = cfg.sshc.cap_ct
    if phase is Phase.PHI_P:
        v_new = charge_share(state.vpt, cp, state.vt, ct)
        return replace(state, vpt=v_new, vt=v_new, phase=phase, last_share_phase=phase)
    if phase is Phase.PHI_0:
        if ledger is not None:
            ledger.q_cleared += cp * state.vpt
        return replace(state, vpt=0.0, phase=phase)
    if phase is Phase.PHI_N:
        # Node equalizes against the reversed plate at -vt; the reference
        # plate lands at the negated node voltage.
        v_new = charge_share(state.vpt, cp, -state.vt, ct)
        if ledger is not None:
            ledger.q_reversal += -2.0 * ct * (v_new + state.vt)
        return replace(state, vpt=v_new, vt=-v_new, phase=phase, last_share_phase=phase)
    raise ValueError("cannot apply the Idle phase")


def _phase_legal(state: CircuitState, phase: Phase) -> bool:
    if phase is Phase.PHI_0:
        return state.phase in (Phase.PHI_P, Phase.PHI_N)
    if phase is Phase.PHI_P:
        if state.phase is Phase.IDLE:
            return state.vpt >= 0.0
        return state.phase is Phase.PHI_0 and state.last_share_phase is Phase.PHI_N
    if phase is Phase.PHI_N:
        if state.phase is Phase.IDLE:
            return state.vpt < 0.0
        return state.phase is Phase.PHI_0 and state.last_share_phase is Phase.PHI_P
    return False


def step(
    state: CircuitState,
    cfg: SimConfig,
    ledger: Optional[ChargeLedger] = None,
    dt: Optional[float] = None,
) -> CircuitState:
    """One explicit Euler step of width dt (defaults to cfg.dt): leakage decay,
    source charge into C_P, then algebraic projection onto the diode clamp.

    This is the reference for the Euler arithmetic. run() does not call it:
    _euler_segment repeats these float operations in this order on local
    floats, and tests/test_transient.py pins the two against each other bit
    for bit.
    """
    h = cfg.dt if dt is None else dt
    src = cfg.src
    cp = src.cap_cp
    vpt = state.vpt
    vs = state.vs

    if math.isfinite(src.res_rp):
        decayed = vpt * math.exp(-h / (src.res_rp * cp))
        if ledger is not None:
            ledger.q_leak += cp * (vpt - decayed)
        vpt = decayed

    dq = src.current(state.t) * h
    if ledger is not None:
        ledger.q_source += dq
    vpt += dq / cp

    vth = vs + 2.0 * cfg.stage.diode_drop_vd
    q_harvested = state.q_harvested
    if vpt > vth:
        excess = cp * (vpt - vth)
        vpt = vth
        q_harvested += excess
        if ledger is not None:
            ledger.q_storage += excess
        if isinstance(cfg.stage.storage, FiniteCap):
            vs += excess / cfg.stage.storage.cs
    elif vpt < -vth:
        excess = cp * (-vth - vpt)
        vpt = -vth
        q_harvested += excess
        if ledger is not None:
            ledger.q_storage += -excess
        if isinstance(cfg.stage.storage, FiniteCap):
            vs += excess / cfg.stage.storage.cs

    return replace(state, t=state.t + h, vpt=vpt, vs=vs, q_harvested=q_harvested)


class _WaveformBuilder:
    """Collects samples as numpy segments and joins them once in build().

    Integration segments arrive as arrays. The few single samples (the initial
    state and the switch phases) are buffered as rows and become a segment
    when the next array segment arrives.
    """

    _DTYPES = (np.float64, np.float64, np.float64, np.float64, _TOKEN)  # t, vpt, vt, vs, phase

    def __init__(self):
        self._columns: Tuple[List[np.ndarray], ...] = tuple([] for _ in self._DTYPES)
        self._rows: List[Tuple[float, float, float, float, str]] = []

    def add(self, state: CircuitState) -> None:
        self._rows.append((state.t, state.vpt, state.vt, state.vs, state.phase.value))

    def add_arrays(self, t: np.ndarray, vpt: np.ndarray, vt: float, vs) -> None:
        """An Idle segment; vs is a float, or an array like t."""
        self._flush()
        shape = t.shape
        self._append(
            t, vpt, np.full(shape, vt), np.full(shape, vs), np.full(shape, Phase.IDLE.value, _TOKEN)
        )

    def _flush(self) -> None:
        if self._rows:
            self._append(*(np.array(c, dtype) for c, dtype in zip(zip(*self._rows), self._DTYPES)))
            self._rows = []

    def _append(self, *segment: np.ndarray) -> None:
        for column, part in zip(self._columns, segment):
            column.append(part)

    def build(self) -> Waveform:
        self._flush()
        joined = []
        for parts in self._columns:
            # Release each column's segments as soon as it is joined, so the
            # peak is the waveform plus one column of segments.
            joined.append(np.concatenate(parts))
            parts.clear()
        return Waveform(*joined)


def _integrate_segment(
    state: CircuitState,
    t_end: float,
    sign: int,
    cfg: SimConfig,
    ledger: ChargeLedger,
    wf: _WaveformBuilder,
) -> CircuitState:
    """Advance from state.t to t_end through one (partial) half cycle during
    which the source current has constant sign.

    A leaky C_P or a finite storage cap runs the Euler kernel _euler_segment;
    the ideal fixed rail is integrated with numpy in one pass.
    """
    if t_end <= state.t:
        return state
    if math.isfinite(cfg.src.res_rp) or not isinstance(cfg.stage.storage, FixedVoltage):
        return _euler_segment(state, t_end, cfg, ledger, wf)

    src = cfg.src
    cp = src.cap_cp
    vth = state.vs + 2.0 * cfg.stage.diode_drop_vd
    n_full = max(0, int(math.floor((t_end - state.t) / cfg.dt - 1e-9)))
    edges = state.t + cfg.dt * np.arange(n_full + 1)
    edges = np.append(edges, t_end)
    widths = np.diff(edges)
    dq = src.amplitude_ip * np.sin(src.omega * edges[:-1]) * widths
    total_dq = float(np.sum(dq))
    v_unclamped = state.vpt + np.cumsum(dq) / cp
    # Within a half cycle the unclamped trajectory is monotone toward the
    # clamp, so elementwise clipping equals per-step projection.
    if sign > 0:
        v = np.minimum(v_unclamped, vth)
    else:
        v = np.maximum(v_unclamped, -vth)
    v_end = float(v[-1])
    routed = total_dq - cp * (v_end - state.vpt)  # signed charge to storage
    ledger.q_source += total_dq
    ledger.q_storage += routed
    wf.add_arrays(edges[1:], v, state.vt, state.vs)
    return replace(
        state,
        t=t_end,
        vpt=v_end,
        q_harvested=state.q_harvested + sign * routed,
    )


def _euler_segment(
    state: CircuitState,
    t_end: float,
    cfg: SimConfig,
    ledger: ChargeLedger,
    wf: _WaveformBuilder,
) -> CircuitState:
    """The Euler kernel: repeated step() calls from state.t to t_end, each of
    width min(cfg.dt, t_end - t), on local floats.

    Every step does step()'s float operations in step()'s order, so the
    samples, the ledger and the final state are bit-identical to a loop of
    step() calls. The parameters and the full-step leak factor are read once
    per segment; the ledger and the state are written back once.
    """
    src = cfg.src
    ip = src.amplitude_ip
    omega = src.omega
    cp = src.cap_cp
    rp = src.res_rp
    leaky = math.isfinite(rp)
    storage = cfg.stage.storage
    cs = storage.cs if isinstance(storage, FiniteCap) else None
    two_vd = 2.0 * cfg.stage.diode_drop_vd
    dt = cfg.dt
    decay_dt = math.exp(-dt / (rp * cp)) if leaky else 1.0
    sin = math.sin

    t, vpt, vs, q_harvested = state.t, state.vpt, state.vs, state.q_harvested
    q_source, q_storage, q_leak = ledger.q_source, ledger.q_storage, ledger.q_leak
    vth = vs + two_vd
    t_stop = t_end - 1e-15 * t_end
    # Stepping leaves vt and the Idle phase as they are; only t, vpt and vs
    # change per sample.
    ts, vpts, vss = [], [], []
    add_t, add_vpt, add_vs = ts.append, vpts.append, vss.append
    while t < t_stop:
        h = t_end - t
        if h < dt:  # the shorter final step
            decay = math.exp(-h / (rp * cp)) if leaky else 1.0
        else:
            h = dt
            decay = decay_dt
        if leaky:
            decayed = vpt * decay
            q_leak += cp * (vpt - decayed)
            vpt = decayed
        dq = ip * sin(omega * t) * h
        q_source += dq
        vpt += dq / cp
        if vpt > vth:
            excess = cp * (vpt - vth)
            vpt = vth
            q_harvested += excess
            q_storage += excess
            if cs is not None:
                vs += excess / cs
                vth = vs + two_vd
        elif vpt < -vth:
            excess = cp * (-vth - vpt)
            vpt = -vth
            q_harvested += excess
            q_storage += -excess
            if cs is not None:
                vs += excess / cs
                vth = vs + two_vd
        t = t + h
        add_t(t)
        add_vpt(vpt)
        add_vs(vs)

    ledger.q_source, ledger.q_storage, ledger.q_leak = q_source, q_storage, q_leak
    wf.add_arrays(np.array(ts), np.array(vpts), state.vt, np.array(vss))
    return replace(state, t=t, vpt=vpt, vs=vs, q_harvested=q_harvested)


def _execute_flip(
    state: CircuitState,
    flip_index: int,
    cfg: SimConfig,
    ledger: ChargeLedger,
    wf: _WaveformBuilder,
) -> Tuple[CircuitState, FlipEvent]:
    v_before = state.vpt
    t_cross = state.t
    if v_before >= 0.0:
        sequence = [Phase.PHI_P, Phase.PHI_0, Phase.PHI_N]
    else:
        sequence = [Phase.PHI_N, Phase.PHI_0, Phase.PHI_P]
    w = cfg.phase_pulse_width
    g = cfg.phase_gap
    for j, ph in enumerate(sequence):
        state = apply_phase(state, ph, cfg, ledger)
        state = replace(state, t=t_cross + (j + 1) * w + j * g)
        wf.add(state)
    # Integration resumes at the end of the switching window; the next grid
    # sample carries the Idle token.
    state = replace(
        state,
        t=t_cross + 3.0 * w + 2.0 * g,
        phase=Phase.IDLE,
        last_share_phase=Phase.IDLE,
    )
    efficiency = abs(state.vpt) / abs(v_before) if v_before != 0.0 else 0.0
    event = FlipEvent(
        cycle_index=flip_index,
        t=t_cross,
        v_before=v_before,
        v_after=state.vpt,
        efficiency=efficiency,
    )
    return state, event


def run(cfg: SimConfig) -> RunResult:
    """Simulate n_cycles vibration periods; with an SSHC network present, flip
    at every zero crossing and record one FlipEvent per inversion."""
    if cfg.sshc is not None and not full_swing_supported(cfg.src, cfg.stage):
        warnings.warn(
            "open-circuit swing does not exceed twice the conduction threshold; "
            "the cycle-constant pre-flip voltage assumption does not hold",
            WeakExcitationWarning,
            stacklevel=2,
        )
    state = CircuitState(
        t=0.0,
        vpt=cfg.vpt_initial,
        vt=cfg.sshc.volt_vt if cfg.sshc is not None else 0.0,
        vs=cfg.stage.storage_voltage,
        q_harvested=0.0,
    )
    initial = state
    ledger = ChargeLedger()
    wf = _WaveformBuilder()
    wf.add(state)
    events: List[FlipEvent] = []
    for k, (t_cross, direction) in enumerate(zero_crossing_times(cfg.src, cfg.n_cycles), 1):
        # The current is positive before a positive-to-negative crossing.
        sign = 1 if direction is FlipDirection.POS_TO_NEG else -1
        state = _integrate_segment(state, t_cross, sign, cfg, ledger, wf)
        if cfg.sshc is not None:
            state, event = _execute_flip(state, k, cfg, ledger, wf)
            events.append(event)
    return RunResult(wf.build(), events, ledger, state, initial)


def extract_efficiency_trajectory(events: Sequence[FlipEvent]) -> List[float]:
    """Ordered eta_n sequence from a run's flip events."""
    if not events:
        raise ValueError("no flip events (full-bridge runs record none)")
    return [e.efficiency for e in events]
