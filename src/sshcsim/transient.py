"""Time-domain simulator with event-aligned switching.

Between zero crossings the circuit is linear and the source a sinusoid, so
run() integrates each half cycle in closed form: the node voltage follows
x' = k*sin(wt) - g*x piece by piece, free on C_P, then clamped by the diode
bridge at +/-(vs + 2*vd) while C_P and the storage charge together, and, with
a leaky C_P, free again once the source current falls below the leak's. The
timeline comes first: each half cycle's uniform dt grid, then, at its zero
crossing, one row per switch pulse. Each half cycle then fills its slice in
place: the piece boundaries from scalar roots (on a fixed rail the release
from its arcsin closed form), then each piece evaluated once, and the charge
ledger from their exact integrals. The three switch phases of a flip run in
the polarity-correct order (share, short, reversed dump) as instantaneous
charge redistributions, one pulse row each, so the flip staircase is visible
on the timeline. step() is the explicit-Euler reference of the same circuit.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass, replace
from typing import IO, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import FiniteCap, PiezoSource, RectifierStage, SshcNetwork, full_swing_supported
from .circuit import FieldError, require_finite
from .csvout import fmt, write_csv
from .flip import charge_share

# The default timings as divisors of the period: dt, the switch pulse width
# and the gap between pulses.
PERIOD_DIVISORS = {"dt": 10_000.0, "phase_pulse_width": 500.0, "phase_gap": 2_000.0}

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


# The switch phases of a flip from a node at or above zero; reversed below it.
_FLIP_ORDER = (Phase.PHI_P, Phase.PHI_0, Phase.PHI_N)


class PhaseOrderError(ValueError):
    """A switch phase arrived out of the polarity-correct sequence."""


class WeakExcitationWarning(UserWarning):
    """Open-circuit swing too small for V_PT to re-reach the clamp each half cycle."""


@dataclass(frozen=True)
class SimConfig:
    src: PiezoSource
    stage: RectifierStage
    sshc: Optional[SshcNetwork] = None         # None = full-bridge baseline
    # None asks for a timing's default, the period over its PERIOD_DIVISORS
    # entry; __post_init__ stores the resolved value. A phase_gap of 0 is legal.
    dt: Optional[float] = None
    n_cycles: int = 10
    phase_pulse_width: Optional[float] = None
    phase_gap: Optional[float] = None
    vpt_initial: float = 0.0

    def __post_init__(self):
        period = self.src.period
        for name, divisor in PERIOD_DIVISORS.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, period / divisor)
        require_finite(self, "vpt_initial")
        require_finite(self, "dt", "phase_pulse_width", sign="> 0")
        require_finite(self, "phase_gap", sign=">= 0")
        if self.dt > period / 1_000.0:
            raise FieldError("dt", f"must be <= period / 1000 = {period / 1e3!r}, got {self.dt!r}")
        if self.n_cycles < 1:
            raise FieldError("n_cycles", f"must be >= 1, got {self.n_cycles!r}")
        w, g = self.phase_pulse_width, self.phase_gap
        window = 3.0 * w + 2.0 * g
        if not window < 0.02 * period:
            # Named after the larger share of the switch window.
            name, value = ("phase_gap", g) if 2.0 * g > 3.0 * w else ("phase_pulse_width", w)
            raise FieldError(
                name,
                f"must keep the window 3*pulse + 2*gap = {window!r} s below 2% of the "
                f"period, got {value!r}",
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

    holds to floating precision when every transfer is conservative. The net
    q_source cancels over whole cycles; the residual's scale is q_source_gross.
    """

    q_source: float = 0.0    # integrated source charge actually applied
    q_source_gross: float = 0.0  # sum of |q_source| over one-sign segments: all it moved
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
    cp, ct = cfg.src.cap_cp, cfg.sshc.cap_ct
    vpt, vt = _switch(phase, state.vpt, state.vt, cp, ct, ledger or ChargeLedger())
    share = state.last_share_phase if phase is Phase.PHI_0 else phase
    return replace(state, vpt=vpt, vt=vt, phase=phase, last_share_phase=share)


def _switch(
    phase: Phase, vpt: float, vt: float, cp: float, ct: float, ledger: ChargeLedger
) -> Tuple[float, float]:
    """The charge-share algebra of one switch phase: (vpt, vt) after it. Both
    run() and apply_phase() switch through here."""
    if phase is Phase.PHI_P:
        v_new = charge_share(vpt, cp, vt, ct)
        return v_new, v_new
    if phase is Phase.PHI_0:
        ledger.q_cleared += cp * vpt
        return 0.0, vt
    if phase is Phase.PHI_N:
        # Node equalizes against the reversed plate at -vt; the reference
        # plate lands at the negated node voltage.
        v_new = charge_share(vpt, cp, -vt, ct)
        ledger.q_reversal += -2.0 * ct * (v_new + vt)
        return v_new, -v_new
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


def _clip(v: float, vs: float, cp: float, cs: float, two_vd: float) -> Tuple[float, float, float]:
    """A node v beyond its rail vs + 2*vd conducts through the bridge at once:
    (v, vs, the charge it moves). C_P falls and a storage cap cs rises until
    both meet at one rail; a fixed rail (cs = inf) holds."""
    excess = cp * (abs(v) - (vs + two_vd))
    if not excess > 0.0:
        return v, vs, 0.0
    if cs < math.inf:
        shared = (cp * (abs(v) - two_vd) + cs * vs) / (cp + cs)
        excess, vs = cs * (shared - vs), shared
    return math.copysign(vs + two_vd, v), vs, excess


def step(
    state: CircuitState,
    cfg: SimConfig,
    ledger: Optional[ChargeLedger] = None,
    dt: Optional[float] = None,
) -> CircuitState:
    """One explicit Euler step of width dt (defaults to cfg.dt): leakage decay,
    source charge into C_P, then algebraic projection onto the diode clamp.

    This is the first-order reference for run()'s closed form; run() does not
    call it. tests/test_transient.py checks that a loop of step() calls
    converges to run() at first order in dt.
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
        ledger.q_source_gross += abs(dq)
    vpt += dq / cp

    storage = cfg.stage.storage
    cs = storage.cs if isinstance(storage, FiniteCap) else math.inf
    vpt, vs, excess = _clip(vpt, vs, cp, cs, 2.0 * cfg.stage.diode_drop_vd)
    q_harvested = state.q_harvested + excess
    if ledger is not None:
        ledger.q_storage += math.copysign(excess, vpt)

    return replace(state, t=state.t + h, vpt=vpt, vs=vs, q_harvested=q_harvested)


def _timeline(
    crossings: Sequence[Tuple[float, FlipDirection]], cfg: SimConfig
) -> Tuple[np.ndarray, List[int]]:
    """run()'s t column and the row of each zero crossing. Each half cycle
    adds t0 + dt, t0 + 2*dt, ... while short of its crossing, then the
    crossing, where t0 is the previous row; a remainder under 1e-9 dt joins
    the last step, so rounding leaves no sliver. A flip adds its pulse rows."""
    dt, w, g = cfg.dt, cfg.phase_pulse_width, cfg.phase_gap
    pulses = range(3 if cfg.sshc is not None else 0)
    layout, t0 = [], 0.0
    for t_cross, _ in crossings:
        tail = [t_cross] + [t_cross + (j + 1) * w + j * g for j in pulses]
        layout.append((t0, max(0, int(math.floor((t_cross - t0) / dt - 1e-9))), tail))
        t0 = tail[-1]
    t = np.empty(1 + sum(n + len(tail) for _, n, tail in layout))
    t[0], row, ends = 0.0, 1, []
    for t0, n, tail in layout:
        t[row : row + n] = t0 + dt * np.arange(1, n + 1)
        ends.append(row + n)
        t[row + n : row + n + len(tail)] = tail
        row += n + len(tail)
    return t, ends


def _rise(t, t0: float, x0: float, k: float, g: float, w: float, m=np):
    """x(t) - x0 for x' = k*sin(w*t) - g*x from x(t0) = x0 (g = 0: no decay),
    at a time or an array of times t >= t0; m=math evaluates one float. x0
    stays out of the sum, so a small rise on a large x0 keeps its digits."""
    if g == 0.0:
        return k / w * (m.cos(w * t0) - m.cos(w * t))
    a = k / (g * g + w * w)  # the forced response is a*(g*sin(w*t) - w*cos(w*t))
    forced0 = a * (g * math.sin(w * t0) - w * math.cos(w * t0))
    forced = a * (g * m.sin(w * t) - w * m.cos(w * t))
    return forced - forced0 + (x0 - forced0) * m.expm1(-g * (t - t0))


_STRIDE = 64  # grid points between the probes of a boundary search


def _first(f, t: np.ndarray, lo: int) -> Optional[int]:
    """The first index m >= lo with f(t[m])[0] >= 0 (f returns value, slope),
    from every _STRIDE-th point and the last, then the stride before the first
    that holds: argmax over t[lo:] when the points that hold are contiguous, as
    for each boundary of a half cycle. None when no probe holds, since a touch
    shorter than a stride may lie between two: the caller tests every point."""
    probes = np.minimum(np.arange(lo, len(t) + _STRIDE - 1, _STRIDE), len(t) - 1)
    held = f(t[probes])[0] >= 0.0
    if not held.any():
        return None
    c = int(np.argmax(held))
    if c == 0:
        return lo
    a = int(probes[c - 1]) + 1
    return a + int(np.argmax(f(t[a : probes[c] + 1])[0] >= 0.0))


def _root(f, a: float, b: float, x: float) -> float:
    """The time in [a, b] at which f(s, math)[0] turns >= 0, to 2 ulps, where
    f(s, math) returns (value, slope): Newton steps from x narrow the bracket;
    a step that leaves it bisects it, one that stalls moves one ulp."""
    x = min(max(x, a), b)
    for _ in range(64):
        if b - a <= 2.0 * math.ulp(b):
            break
        fx, slope = f(x, math)
        if fx >= 0.0:
            b = x
        else:
            a = x
        nx = x - fx / slope if slope else math.nan
        if nx == x:
            nx = math.nextafter(x, a if fx >= 0.0 else b)
        x = nx if a < nx < b else 0.5 * (a + b)
    return float(b)


def _integrate_segment(
    t: np.ndarray,
    v: np.ndarray,
    vs: np.ndarray,
    q_harvested: float,
    sign: int,
    cfg: SimConfig,
    ledger: ChargeLedger,
) -> Tuple[float, float, float]:
    """Fill one (partial) half cycle, in which the source current has the sign
    `sign`, in closed form (see _rise); return its end (vpt, vs, q_harvested).

    t is the half cycle's slice of the timeline and v, vs the vpt and vs
    columns over it. Row 0 is the previous row, which holds the start; only
    rows 1 on are written. The node is free on C_P (k = I_P/C_P,
    g = 1/(R_P C_P)) until it reaches the rail sign*(vs + 2*vd); clamped, C_P
    and C_S charge together (k and g over C_P+C_S; a fixed rail, C_S = inf,
    holds); with leakage, free again once sign*I(t) < sign*v/R_P. The
    boundaries come first: grid indices i and j from _first, then t_clamp and
    t_release from _root (the release on a fixed rail from arcsin) where a
    later piece or the ledger needs them. Each piece is then evaluated once, on
    its rows. A start beyond a rail is first clipped onto it by _clip, as
    step() clips it.
    """
    src, storage, two_vd = cfg.src, cfg.stage.storage, 2.0 * cfg.stage.diode_drop_vd
    ip, w, cp, leak = src.amplitude_ip, src.omega, src.cap_cp, 1.0 / src.res_rp
    cs = storage.cs if isinstance(storage, FiniteCap) else math.inf
    t0, t_end, v0, vs0 = float(t[0]), float(t[-1]), float(v[0]), float(vs[0])
    v0, vs0, excess = _clip(v0, vs0, cp, cs, two_vd)  # a start beyond a rail
    ledger.q_storage += math.copysign(excess, v0)
    q_harvested += excess
    vth = vs0 + two_vd
    rail = sign * vth
    kf, gf, kh, gh = ip / cp, leak / cp, ip / (cp + cs), leak / (cp + cs)

    def over(s, m=np):  # how far the free node is past the rail, and its slope
        x = v0 + _rise(s, t0, v0, kf, gf, w, m)
        return sign * x - vth, sign * (kf * m.sin(w * s) - gf * x)

    n = len(t)
    # A node that starts on the rail stays there unless the leak pulls it off.
    on_rail = sign * v0 >= vth and sign * ip * math.sin(w * t0) >= vth * leak
    i = 0 if on_rail else _first(over, t, 1)
    if i is None:  # no probe reached the rail: test every sample of the free piece
        v[1:] = v0 + _rise(t[1:], t0, v0, kf, gf, w)
        reached = sign * v[1:] >= vth
        i = 1 + int(np.argmax(reached)) if reached.any() else n
    else:
        v[1:i] = v0 + _rise(t[1:i], t0, v0, kf, gf, w)
    j, t_clamp, t_release = n, t0, t_end
    if 0 < i < n and (leak or cs < math.inf):  # a held ideal rail needs no t_clamp
        t_clamp = _root(over, t[i - 1], t[i], t[i])
    hold = (t_clamp, rail, kh, gh, w)

    def backward(s, m=np):  # >= 0 once the leak outweighs the source: the bridge would reverse
        x, sin = rail + _rise(s, *hold, m) if cs < math.inf else rail, m.sin(w * s)
        slope = leak * (kh * sin - gh * x) - ip * w * m.cos(w * s)
        return sign * (x * leak - ip * sin), sign * slope

    if leak and i < n:
        j = _first(backward, t, i)
        if j is None:
            out = backward(t[i:])[0] >= 0.0
            j = i + int(np.argmax(out)) if out.any() else n
        if j < n:
            # On a fixed rail the release is sin(w*(t_end - t)) = vth/(R_P*I_P).
            guess = t[j] if cs < math.inf else t_end - math.asin(min(vth * leak / ip, 1.0)) / w
            t_release = _root(backward, t[j - 1] if j > i else t_clamp, t[j], guess)

    rise = np.zeros(n)  # how far a finite storage cap has carried the clamp
    a, b = max(i, 1), max(j, 1)  # the clamped and released rows; row 0 is not ours
    if cs < math.inf:
        rise[a:j] = _rise(t[a:j], *hold)
    v[a:j] = rail + rise[a:j]
    if j < n:
        if cs < math.inf:
            rise[j:] = _rise(t_release, *hold)
        off = rail + rise[j]
        free = off + _rise(t[b:], t_release, off, kf, gf, w)
        # Released, the node only falls away from the rail; the clip drops
        # the rounding of a very stiff leak (g >> w).
        v[b:] = sign * np.minimum(sign * free, sign * off)

    v_end, rise_end = float(v[-1]), float(rise[-1])
    q_source = ip / w * (math.cos(w * t0) - math.cos(w * t_end))
    if cs < math.inf:
        q_storage = cs * rise_end
    elif i == n:
        q_storage = 0.0
    elif leak:
        q_storage = ip / w * (math.cos(w * t_clamp) - math.cos(w * t_release)) - (
            rail * leak * (t_release - t_clamp)
        )
    else:
        q_storage = q_source - cp * (v_end - v0)
    ledger.q_source += q_source
    ledger.q_source_gross += abs(q_source)
    ledger.q_storage += q_storage
    if leak:
        ledger.q_leak += q_source - cp * (v_end - v0) - q_storage
    vs[1:] = vs0 + sign * rise[1:]
    return v_end, vs0 + sign * rise_end, q_harvested + sign * q_storage


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
    initial = CircuitState(
        t=0.0,
        vpt=cfg.vpt_initial,
        vt=cfg.sshc.volt_vt if cfg.sshc is not None else 0.0,
        vs=cfg.stage.storage_voltage,
        q_harvested=0.0,
    )
    crossings = zero_crossing_times(cfg.src, cfg.n_cycles)
    t, ends = _timeline(crossings, cfg)
    n = len(t)
    wf = Waveform(t, np.empty(n), np.empty(n), np.empty(n), np.full(n, Phase.IDLE.value, _TOKEN))
    vpt, vt, vs, q = initial.vpt, initial.vt, initial.vs, initial.q_harvested
    wf.vpt[0], wf.vt[0], wf.vs[0] = vpt, vt, vs
    ledger = ChargeLedger()
    events: List[FlipEvent] = []
    row = 0
    for k, ((t_cross, direction), end) in enumerate(zip(crossings, ends), 1):
        # The current is positive before a positive-to-negative crossing.
        sign = 1 if direction is FlipDirection.POS_TO_NEG else -1
        rows = slice(row, end + 1)
        wf.vt[row + 1 : end + 1] = vt
        vpt, vs, q = _integrate_segment(t[rows], wf.vpt[rows], wf.vs[rows], q, sign, cfg, ledger)
        row = end
        if cfg.sshc is None:
            continue
        v_before = vpt
        for phase in _FLIP_ORDER if v_before >= 0.0 else _FLIP_ORDER[::-1]:
            vpt, vt = _switch(phase, vpt, vt, cfg.src.cap_cp, cfg.sshc.cap_ct, ledger)
            row += 1
            wf.vpt[row], wf.vt[row], wf.vs[row], wf.phase[row] = vpt, vt, vs, phase.value
        efficiency = abs(vpt) / abs(v_before) if v_before != 0.0 else 0.0
        events.append(FlipEvent(k, t_cross, v_before, vpt, efficiency))
    final = CircuitState(t=float(t[-1]), vpt=vpt, vt=vt, vs=vs, q_harvested=q)
    return RunResult(wf, events, ledger, final, initial)


def extract_efficiency_trajectory(events: Sequence[FlipEvent]) -> List[float]:
    """Ordered eta_n sequence from a run's flip events."""
    if not events:
        raise ValueError("no flip events (full-bridge runs record none)")
    return [e.efficiency for e in events]
