"""Time-domain simulator with event-aligned switching.

Between zero crossings the circuit is linear and the source a sinusoid, so
run() integrates each half cycle in closed form: the node voltage follows
x' = k*sin(wt) - g*x piece by piece, free on C_P, then clamped by the diode
bridge at +/-(vs + 2*vd) while C_P and the storage charge together, and, with
a leaky C_P, free again once the source current falls below the leak's.
run() plans each half cycle from scalars: its uniform dt grid up to the zero
crossing, the piece boundaries, and the charge ledger from the pieces' exact
integrals. A boundary's grid row comes from _first, a bisection over a
bracket of rows on which the boundary is crossed once, whose first two
probes are the rows around a scalar guess (_clamp_row's for the clamp,
arcsin's or a root past the sine's peak for the release), and its time from
a scalar root. On a fixed rail without leak no result of run() needs the
clamp row: where the crossing row holds, the node ends on the rail, and
run() leaves the row pending for the Waveform to find at its first read.
run() writes no samples. A flip is one fixed sequence of three instantaneous
charge redistributions (share with C_T, short C_P, reconnect C_T reversed),
one pulse row each, which run() and apply_flip() both take from _flip. run()
appends each half cycle's plan to one list and its flip's rows, (t, vpt, vt,
vs, phase token) as waveform.csv writes them, to another; the Waveform keeps
both lists and finds each pending clamp row at the first read of any column
or waveform.csv. One run walk, Waveform._runs, yields every row in order as
runs (t, vpt, vt, vs, phase), one half cycle at a time: each column read and
waveform.csv (whose walk also feeds a chart, if write_csv is given one) take
their rows from it, so a read of any column evaluates every sample once. One
generator, _pieces, evaluates samples: it walks a half cycle's rows as its
free, held and released runs, as numpy arrays for the run walk, and as
floats for run()'s crossing row where its clamp row is known. The floats
take math's sin and cos, which match numpy's bit for bit, and numpy's expm1,
which math's does not match, so a row has the same bits either way.
"""

from __future__ import annotations

import enum
import math
import operator
import sys
import warnings
from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import IO, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .circuit import FiniteCap, PiezoSource, RectifierStage, SshcNetwork, full_swing_supported
from .circuit import FieldError, require_finite, require_finite_harvest
from .csvout import fmt, write_csv
from .flip import charge_share

# The default timings as divisors of the period: dt, the switch pulse width
# and the gap between pulses.
PERIOD_DIVISORS = {"dt": 10_000.0, "phase_pulse_width": 500.0, "phase_gap": 2_000.0}

_TOKEN = "<U4"  # dtype of the phase column; the longest token has four characters
_COLUMNS = ("t", "vpt", "vt", "vs", "phase")  # a waveform row, as waveform.csv writes it


class Phase(enum.Enum):
    IDLE = "Idle"
    PHI_P = "PhiP"
    PHI_0 = "Phi0"
    PHI_N = "PhiN"


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
        # A step within a few ulps of the run's last time cannot advance the grid.
        try:
            floor = 4.0 * math.ulp(self.n_cycles * period)
        except OverflowError:  # a count past the largest float
            digits = len(str(self.n_cycles))
            raise FieldError("n_cycles", f"must fit in a float, got {digits} digits") from None
        if not self.dt > floor:
            raise FieldError(
                "dt", f"must be > {floor!r}, 4 ulps of n_cycles * period, got {self.dt!r}"
            )
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
        require_finite_harvest(self.src, self.stage)


@dataclass(frozen=True)
class CircuitState:
    t: float
    vpt: float
    vt: float
    vs: float
    q_harvested: float
    phase: Phase = Phase.IDLE


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


class Waveform:
    """Sampled trajectory; uniform dt plus extra samples at phase boundaries.

    Row 0 is the initial state; each half cycle adds its dt grid rows, its
    zero crossing and, with an SSHC network, one row per switch pulse. The
    Waveform holds run()'s plan of each half cycle and its flip rows, not
    samples: t, vpt, vt and vs are float64 columns and phase the matching
    tokens (Idle, PhiP, Phi0, PhiN) as a '<U4' array, each evaluated anew on
    every read and not cached. So bind a column to a name once rather than
    index it in a loop. A read of any column and write_csv alike take their
    rows from one run walk, _runs, so each costs one full evaluation of the
    samples. The clamp rows that run() left pending are found once, at the
    first read of any column or write_csv, and kept in the plan.
    """

    def __init__(
        self, cfg: SimConfig, initial: CircuitState, plan: List[_HalfCycle], flips: List[tuple]
    ):
        """plan holds each half cycle's _HalfCycle as run() made it, and flips
        the rows of the flip that ends it, each (t, vpt, vt, vs, phase token)
        in _COLUMNS order: three with an SSHC network, none without."""
        self._circuit = _Circuit.of(cfg)
        self._initial = initial
        self._plan = plan
        self._flips = flips
        self._len = 1 + sum(h.n + 1 + len(flip) for h, flip in zip(plan, flips))

    def __len__(self) -> int:
        return self._len

    t = property(lambda self: self._column("t"), doc="time, s")
    vpt = property(lambda self: self._column("vpt"), doc="node voltage V_PT, V")
    vt = property(lambda self: self._column("vt"), doc="C_T reference plate voltage, V")
    vs = property(lambda self: self._column("vs"), doc="storage voltage, V")
    phase = property(lambda self: self._column("phase"), doc="switch phase token")

    @property
    def t_span(self) -> Tuple[float, float]:
        """t's first and last value, its extremes: t never decreases."""
        flip = self._flips[-1]
        return self._initial.t, flip[-1][0] if flip else self._plan[-1].t_end

    def write_csv(self, out: Union[str, IO[str]], chart=None) -> None:
        """Write waveform.csv. A chart, such as an svg.Envelope of (vpt, vt)
        over t_span, is fed every row in the same walk: each sample is
        evaluated once for both."""
        write_csv(out, ["t_s", "vpt_V", "vt_V", "vs_V", "phase"], self._csv_blocks(chart))

    def _resolved(self) -> List[_HalfCycle]:
        """The plan with every clamp row found. A row that run() left pending
        (i None) is found by _clamp_row, as run() would have found it, at the
        first call, and kept, so a later call searches none."""
        c = self._circuit
        self._plan = [
            h if h.i is not None else h._replace(
                i=_clamp_row(_Grid(h.t0, c.dt, h.n, h.t_end), h.v0, h.sign, h.vs0 + c.two_vd, c)
            )
            for h in self._plan
        ]
        return self._plan

    def _runs(self) -> Iterator[tuple]:
        """Every row in order, as runs (t, vpt, vt, vs, phase): row 0, then for
        each half cycle each run of rows that _pieces yields and the flip's
        rows. t is an array with one value per row; any other field is a float
        or a token where the run holds it constant, else an array too. This
        and __len__ alone state the row order."""
        c, s, idle = self._circuit, self._initial, Phase.IDLE.value
        yield np.array([s.t]), s.vpt, s.vt, s.vs, idle
        for h, flip in zip(self._resolved(), self._flips):
            t = _Grid(h.t0, c.dt, h.n, h.t_end)
            for a, b, vpt, rise in _pieces(h, 1, h.n + 2, c):
                yield t[a:b], vpt, h.vt, h.vs0 + h.sign * rise, idle
            if flip:
                *numbers, tokens = zip(*flip)
                yield (*map(np.array, numbers), np.array(tokens, dtype=object))

    def _column(self, name: str) -> np.ndarray:
        k, row = _COLUMNS.index(name), 0
        out = np.empty(len(self), _TOKEN if name == "phase" else np.float64)
        for run in self._runs():
            stop = row + len(run[0])
            out[row:stop] = run[k]
            row = stop
        return out

    def _csv_blocks(self, chart=None) -> Iterator[Tuple[Tuple[str, ...], list]]:
        """waveform.csv as csvout blocks, one per run of _runs, so no whole
        column is made. A run's constant field is formatted once, in its row
        template, and only its varying fields are converted per row: so on a
        fixed rail the held rows format t alone, and on a finite storage cap
        they carry vpt and vs. chart.add(t, (vpt, vt)), if a chart is given,
        takes each run before its block is yielded, a constant as a float."""
        for run in self._runs():
            if chart is not None:
                chart.add(run[0], run[1:3])
            varying = [x for x in run if isinstance(x, np.ndarray)]
            fields = tuple(
                kind if isinstance(x, np.ndarray) else x if kind == "s" else fmt(x)
                for kind, x in zip("ggggs", run)
            )
            yield fields, np.column_stack(varying).ravel().tolist()


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
    header = ["cycle", "t_s", "v_before_V", "v_after_V", "efficiency"]
    write_csv(out, header, [("dgggg", values)])


def apply_flip(
    state: CircuitState, cfg: SimConfig, ledger: Optional[ChargeLedger] = None
) -> List[CircuitState]:
    """The flip at a zero crossing at state.t: the state after each of its
    three switch pulses, at the pulse's time, in the order _flip runs them.
    PhiP connects C_T in like polarity for a positive V_PT, Phi0 shorts C_P
    and PhiN connects C_T reversed. The flip's charge goes on ledger, if given."""
    if cfg.sshc is None:
        raise ValueError("apply_flip requires an SSHC network in the config")
    c = _Circuit.of(cfg)
    rows = _flip(
        c.pulse_times(state.t), state.vpt, state.vt, state.vs, c.cp, cfg.sshc.cap_ct,
        ledger or ChargeLedger(),
    )
    return [
        replace(state, t=t, vpt=vpt, vt=vt, phase=Phase(token)) for t, vpt, vt, _, token in rows
    ]


def _share(vpt: float, vt: float, cp: float, ct: float, ledger: ChargeLedger) -> tuple:
    """PhiP: C_T joins the node in like polarity; both end at one voltage."""
    v_new = charge_share(vpt, cp, vt, ct)
    return v_new, v_new


def _short(vpt: float, vt: float, cp: float, ct: float, ledger: ChargeLedger) -> tuple:
    """Phi0: C_P is shorted to ground; C_T holds."""
    ledger.q_cleared += cp * vpt
    return 0.0, vt


def _reverse(vpt: float, vt: float, cp: float, ct: float, ledger: ChargeLedger) -> tuple:
    """PhiN: the node equalizes against the reversed plate at -vt; the
    reference plate lands at the negated node voltage."""
    v_new = charge_share(vpt, cp, -vt, ct)
    ledger.q_reversal += -2.0 * ct * (v_new + vt)
    return v_new, -v_new


# A flip's switch phases in the order for a node >= 0.0, each with the token
# its row carries.
_PHASES = ((_share, Phase.PHI_P.value), (_short, Phase.PHI_0.value), (_reverse, Phase.PHI_N.value))


def _flip(
    times: Sequence[float], vpt: float, vt: float, vs: float, cp: float, ct: float,
    ledger: ChargeLedger,
) -> tuple:
    """One flip from the node vpt, the plate vt and the storage vs: its three
    rows (t, vpt, vt, vs, phase token) in _COLUMNS order, each at its pulse
    time in times and after its switch phase. From a node >= 0.0 (-0.0 too)
    the phases run PhiP, Phi0, PhiN, below it PhiN, Phi0, PhiP. run() and
    apply_flip() take the order and the rows from here alone."""
    rows = []
    for t, (switch, token) in zip(times, _PHASES if vpt >= 0.0 else _PHASES[::-1]):
        vpt, vt = switch(vpt, vt, cp, ct, ledger)
        rows.append((t, vpt, vt, vs, token))
    return tuple(rows)


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


class _Circuit(NamedTuple):
    """The constants of a run: the grid step, the source, the caps (cs = inf
    for a fixed rail), the leak conductance 1/R_P, the bridge drop 2*vd, the
    rates of x' = k*sin(w*t) - g*x free on C_P (kf, gf) and clamped with the
    storage (kh, gh), and the switch pulse timing."""

    dt: float
    ip: float
    w: float
    cp: float
    cs: float
    leak: float
    two_vd: float
    kf: float
    gf: float
    kh: float
    gh: float
    pulse_width: float
    pulse_gap: float

    @classmethod
    def of(cls, cfg: SimConfig) -> _Circuit:
        src, storage = cfg.src, cfg.stage.storage
        ip, cp, leak = src.amplitude_ip, src.cap_cp, 1.0 / src.res_rp
        cs = storage.cs if isinstance(storage, FiniteCap) else math.inf
        return cls(
            cfg.dt, ip, src.omega, cp, cs, leak, 2.0 * cfg.stage.diode_drop_vd,
            ip / cp, leak / cp, ip / (cp + cs), leak / (cp + cs),
            cfg.phase_pulse_width, cfg.phase_gap,
        )

    def pulse_times(self, t_cross: float) -> Tuple[float, float, float]:
        """The times of a flip's rows at the crossing t_cross: one per switch
        pulse, three in all, each pulse and gap after the one before."""
        w, g = self.pulse_width, self.pulse_gap
        return t_cross + w, t_cross + 2 * w + g, t_cross + 3 * w + 2 * g


class _Grid:
    """A half cycle's time column, computed when indexed, never stored. Row 0
    is the previous row t0, rows 1..n are t0 + dt*m (the floats of
    t0 + dt*np.arange(1, n + 1)) and row n + 1 is the zero crossing t_end.
    An int index gives a float, which _first reads; a slice with a positive
    step gives an array, which _pieces reads."""

    __slots__ = ("t0", "dt", "n", "t_end")

    def __init__(self, t0: float, dt: float, n: int, t_end: float):
        self.t0, self.dt, self.n, self.t_end = t0, dt, n, t_end

    def __len__(self) -> int:
        return self.n + 2

    def row(self, s: float) -> int:
        """The first row m >= 1 whose float time self[m] is >= s, and n + 1,
        the crossing, for any later s. The quotient by dt may miss it by a
        row of rounding, so the rows on either side settle it."""
        m = min(max(math.ceil((s - self.t0) / self.dt), 1), self.n + 1)
        while m > 1 and self[m - 1] >= s:
            m -= 1
        while m <= self.n and self[m] < s:
            m += 1
        return m

    def __getitem__(self, m):
        if not isinstance(m, slice):
            m = operator.index(m) % (self.n + 2)
            return self.t_end if m > self.n else self.t0 + self.dt * m
        rows = range(*m.indices(self.n + 2))
        t = np.arange(rows.start, rows.stop, rows.step, dtype=np.float64)
        t *= self.dt
        t += self.t0
        if len(rows) and rows[-1] > self.n:  # increasing rows: only the last can be the crossing
            t[-1] = self.t_end
        return t


class _HalfCycle(NamedTuple):
    """run()'s plan of one half cycle: all its samples are evaluated from it.

    Its rows are those of _Grid(t0, dt, n, t_end); row 0 belongs to the row
    before. The source current has the sign `sign`; (v0, vs0) is the start
    after any clip onto the rail, and vt holds until the flip. The node is
    free on rows 1..i-1, clamped from row max(i, 1) (at t_clamp) and released
    from row j >= 1 (at t_release); i = j = n + 2 means never. i is None,
    pending, on a fixed rail without leak whose crossing row holds: the node
    is clamped from a row that _clamp_row finds, and _pieces needs it found
    first. v_end and vs_end are the values at the crossing, which the flip
    starts from."""

    t0: float
    n: int
    t_end: float
    sign: int
    v0: float
    vs0: float
    vt: float
    i: int
    j: int
    t_clamp: float
    t_release: float
    v_end: float
    vs_end: float


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


# The m of _rise and of a boundary function for one float that must have the
# bits numpy gives it as an element of an array: math.sin and math.cos match
# np.sin and np.cos bit for bit (Tier-1 tests check this), math.expm1 does not
# match np.expm1, so expm1 comes from numpy.
_FLOAT = SimpleNamespace(sin=math.sin, cos=math.cos, expm1=lambda x: float(np.expm1(x)))

_EPS = sys.float_info.epsilon


def _first(f, t: _Grid, lo: int, hi: int, guess: Optional[float] = None) -> int:
    """The first row m of lo..hi, 1 <= lo <= hi < len(t), at which f holds,
    f(t[m], _FLOAT)[0] >= 0, or len(t) if none does; f returns (value,
    slope) and _first reads the value of one float at a time.

    The caller's bracket lo..hi makes this the first row that holds at all,
    not merely on the bracket: the rows of lo..hi-1 that hold must be a
    suffix of them, and no row past hi may hold unless hi does. It is a
    bisection that keeps row a failing (or before lo) and row b the first
    that can hold; row hi is read only if no earlier row holds. A time
    guess, g = t.row(guess), makes rows g - 1 and g its first two probes, so
    a guess on the edge costs two rows, and a missed one about log2 of the
    bracket's length more."""
    g = lo - 1 if guess is None else t.row(guess)  # no guess: neither probe lies inside
    a, b = lo - 1, hi
    while b - a > 1:
        m = g - 1 if a < g - 1 < b else g if a < g < b else (a + b) // 2
        if f(t[m], _FLOAT)[0] >= 0.0:
            b = m
        else:
            a = m
    return b if b < hi or f(t[hi], _FLOAT)[0] >= 0.0 else len(t)


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


def _margin(v0: float, vth: float, k: float, w: float, t_end: float) -> float:
    """A bound on the rounding of a free node's overshoot past a rail V_th,
    _over(), from a start v0 at a rate k up to t_end.
    _rise sums terms no larger than |v0| + k/w, each within a few ulps, and
    the float phase w*t is off by up to an ulp of w*t, which moves the forced
    response by about eps*k*t. 64 ulps of these and V_th bound a row's
    rounding and the peak's with room for the peak's 2-ulp time, so a peak
    beyond the margin has the sign that every row shows."""
    return 64.0 * _EPS * (abs(v0) + vth + k / w + k * t_end)


def _over(t0: float, v0: float, sign: int, vth: float, c: _Circuit):
    """The boundary function of a node free on C_P from v0 at t0: over(s, m)
    gives how far it is past the rail sign*vth at s, and, on a float
    (m=math), its slope, which _root steps with; _first reads the value
    alone."""
    kf, gf, w = c.kf, c.gf, c.w

    def over(s, m=np):
        x = v0 + _rise(s, t0, v0, kf, gf, w, m)
        return sign * x - vth, sign * (kf * m.sin(w * s) - gf * x) if m is math else None

    return over


def _clamp_row(t: _Grid, v0: float, sign: int, vth: float, c: _Circuit, over=None) -> int:
    """The clamp row of a node free on C_P from v0 below the rail sign*vth,
    on the half cycle t: the first row at which over() holds, or len(t),
    never. over is _over(t.t0, v0, sign, vth, c), passed by a caller that
    holds it. _first bisects rows 1..t.row(top), over which the node rises
    to the rail at most once, from the row of a scalar guess of the time:
    - without a leak (gf = 0) the node rises up to the crossing, top = t_end,
      and sign*cos(w*t), which is -cos(w*(t_end - t)), falls to u where the
      node meets the rail: the guess is arccos's;
    - with one, where the free slope sign*(kf*sin(w*t) - gf*x) is zero its
      derivative is sign*kf*w*cos(w*t), and sign*sin(w*t) peaks at
      t_end - pi/(2w). So the slope turns up at most once before that peak
      and down at most once after it, at the maximum (a root of turn): the
      node may fall first, then rises to the maximum and falls after it, a
      start on the rail too, which the leak pulls off. top is the sine's
      peak where the node is past the rail there, else the maximum, and the
      guess is the root of over() below top, by Newton steps from top, which
      meet the node's return to the rail, not a start on it. A maximum more
      than _margin below the rail is never, with no search, and one within
      _margin of it, where rounding decides, gives no guess.
    _integrate_segment calls it where the plan needs the row, and the
    Waveform where a sample needs a row that run() left pending."""
    over = over or _over(t.t0, v0, sign, vth, c)
    kf, gf, w, t_end, n = c.kf, c.gf, c.w, t.t_end, len(t)
    if not gf:
        u = min(sign * math.cos(w * t.t0) - (vth - sign * v0) * w / kf, 1.0)
        # Below -1 the rail is out of reach; rounding may still hold the last row.
        return _first(over, t, 1, n - 1, t_end - math.acos(-u) / w if u >= -1.0 else t_end)

    def turn(s, m=math):  # >= 0 once the free node's slope has turned down
        slope = over(s, m)[1]
        return -slope, gf * slope - sign * kf * w * m.cos(w * s)

    margin = _margin(v0, vth, kf, w, t_end)
    top = t_end - 0.5 * math.pi / w  # the sine's peak
    peak = over(top, math)[0]
    if peak <= margin:
        top = _root(turn, top, t_end, top)  # the free node's maximum
        peak = over(top, math)[0]
    if peak < -margin:
        return n
    return _first(over, t, 1, t.row(top), _root(over, t.t0, top, top) if peak > margin else None)


def _integrate_segment(
    t: _Grid,
    v0: float,
    vs0: float,
    vt: float,
    q_harvested: float,
    sign: int,
    c: _Circuit,
    ledger: ChargeLedger,
) -> Tuple[_HalfCycle, float]:
    """Plan one (partial) half cycle, in which the source current has the sign
    `sign`, from the start (v0, vs0): return its _HalfCycle and the
    q_harvested at its end, and book its charge on the ledger.

    t is the half cycle's time column; row 0 is the previous row. The node is
    free on C_P (kf, gf) until it reaches the rail sign*(vs + 2*vd); clamped,
    C_P and C_S charge together (kh, gh; a fixed rail, C_S = inf, holds); with
    leakage, free again once sign*I(t) < sign*v/R_P. The boundaries come from
    scalar work: the clamp row i from _clamp_row, the release row j from
    _first on rows max(i, 1) up to the crossing, seeded by a guess (arcsin's
    on a fixed rail, also _root's first step, and on a storage cap _root's
    from the sine's peak), then t_clamp and t_release from _root where a
    later piece or the ledger needs them. On a fixed rail without leak the
    clamp row is searched only where the crossing row, evaluated as floats,
    fails; where it holds, the node ends on the rail, which is all that the
    ledger, the flip and the next half cycle read, and i is left pending
    (None) with no search. So an ideal-rail half cycle that reaches the rail
    evaluates its crossing row alone, and a leaky one at most four rows and
    its crossing row where the guesses hold, and a bisection's few more where
    one misses, each as a float: no search makes an array. Where i is known,
    the crossing row is evaluated as a sample, as the one run that _pieces
    yields for it in floats. A start beyond a rail is first clipped onto it
    by _clip.
    """
    ip, w, leak, cs, two_vd = c.ip, c.w, c.leak, c.cs, c.two_vd
    t0, t_end = t.t0, t.t_end
    v0, vs0, excess = _clip(v0, vs0, c.cp, cs, two_vd)  # a start beyond a rail
    ledger.q_storage += math.copysign(excess, v0)
    q_harvested += excess
    vth = vs0 + two_vd
    rail = sign * vth
    over = _over(t0, v0, sign, vth, c)
    n = len(t)
    if sign * v0 >= vth and sign * ip * math.sin(w * t0) >= vth * leak:
        i = 0  # on the rail, where it stays unless the leak pulls it off
    elif leak or cs < math.inf or over(t_end, _FLOAT)[0] < 0.0:
        i = _clamp_row(t, v0, sign, vth, c, over)
    else:
        # A crossing row that holds puts the clamp row below it, so the node
        # ends on the rail. On a fixed rail without leak nothing but a sample
        # needs the row then: it stays pending, for the Waveform to find.
        i = None
    j, t_clamp, t_release = n, t0, t_end
    if (leak or cs < math.inf) and 0 < i < n:  # a held ideal rail needs no t_clamp
        t_clamp = _root(over, t[i - 1], t[i], t[i])
    kh, gh = c.kh, c.gh
    hold = (t_clamp, rail, kh, gh, w)

    def backward(s, m=np):  # >= 0 once the leak outweighs the source: the bridge would reverse
        x, sin = rail + _rise(s, *hold, m) if cs < math.inf else rail, m.sin(w * s)
        slope = sign * (leak * (kh * sin - gh * x) - ip * w * m.cos(w * s)) if m is math else None
        return sign * (x * leak - ip * sin), slope

    if leak and i < n:
        # Held, backward() meets 0 with slope -sign*I_P*w*cos(w*t), > 0 only
        # after the sine's peak at t_end - pi/(2w): it turns >= 0 once at
        # most, after that peak, so the rows that hold from row max(i, 1) on
        # are a suffix. On a fixed rail the release is sin(w*(t_end - t)) =
        # vth/(R_P*I_P); on a storage cap it is the root past the later of the
        # clamp and the peak, or that time itself where backward() holds
        # there. Row 0 is the previous half cycle's, so it is never searched.
        if cs < math.inf:
            a = max(t_clamp, t_end - 0.5 * math.pi / w)
            release = _root(backward, a, t_end, a)
        else:
            release = t_end - math.asin(min(vth * leak / ip, 1.0)) / w
        j = _first(backward, t, max(i, 1), n - 1, release)
        if j < n:
            guess = t[j] if cs < math.inf else release
            t_release = _root(backward, t[j - 1] if j > i else t_clamp, t[j], guess)

    plan = (t0, n - 2, t_end, sign, v0, vs0, vt, i, j, t_clamp, t_release)
    if i is None:  # held at the crossing: _pieces' held run gives rail + 0.0 there
        v_end, rise_end = rail + 0.0, 0.0
    else:
        # The crossing row's one run; _pieces reads no end values, so the start stands in.
        ((_, _, v_end, rise_end),) = _pieces(_HalfCycle(*plan, v0, vs0), n - 1, n, c, _FLOAT)
        v_end, rise_end = float(v_end), float(rise_end)
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
        q_storage = q_source - c.cp * (v_end - v0)
    ledger.q_source += q_source
    ledger.q_source_gross += abs(q_source)
    ledger.q_storage += q_storage
    if leak:
        ledger.q_leak += q_source - c.cp * (v_end - v0) - q_storage
    h = _HalfCycle(*plan, v_end, vs0 + sign * rise_end)
    return h, q_harvested + sign * q_storage


def _pieces(h: _HalfCycle, lo: int, hi: int, c: _Circuit, m=np) -> Iterator[tuple]:
    """Evaluate rows lo..hi-1 of half cycle h, 1 <= lo < hi <= n + 2, from its
    plan: yield (a, b, vpt, rise) for each non-empty run of rows a..b-1 that
    is free (from row 1), held (from row i) or released (from row j). rise is
    how far a finite storage cap has carried the clamp, so vs = vs0 +
    sign*rise. vpt and rise are floats where the run holds them, arrays
    otherwise. With m=np each run is one numpy call over its rows, and an
    element's bits do not depend on the rows around it, so any lo and hi give
    the bits of the whole half cycle. With m=_FLOAT the one row lo = hi - 1 is
    evaluated in floats, with the same bits, and vpt and rise are floats or
    numpy scalars. This is the only code that evaluates samples. A pending i
    (None) must be found first.
    """
    finite = c.cs < math.inf
    t = _Grid(h.t0, c.dt, h.n, h.t_end)
    rail = h.sign * (h.vs0 + c.two_vd)
    hold = (h.t_clamp, rail, c.kh, c.gh, c.w)
    i, j = min(max(h.i, lo), hi), min(max(h.j, lo), hi)  # row 0 is not ours

    def at(a: int, b: int):  # the times of rows a..b-1, or of row a alone as a float
        return t[a:b] if m is np else t[a]

    if lo < i:
        yield lo, i, h.v0 + _rise(at(lo, i), h.t0, h.v0, c.kf, c.gf, c.w, m), 0.0
    if i < j:
        rise = _rise(at(i, j), *hold, m) if finite else 0.0
        yield i, j, rail + rise, rise  # + 0.0 turns a -0.0 rail into 0.0
    if j < hi:
        lift = _rise(h.t_release, *hold) if finite else 0.0
        off = rail + lift
        fall = off + _rise(at(j, hi), h.t_release, off, c.kf, c.gf, c.w, m)
        # Released, the node only falls away from the rail; the clip drops
        # the rounding of a very stiff leak (g >> w).
        yield j, hi, h.sign * np.minimum(h.sign * fall, h.sign * off), lift


def run(cfg: SimConfig) -> RunResult:
    """Simulate n_cycles vibration periods; with an SSHC network present, flip
    at every zero crossing and record one FlipEvent per inversion. The
    returned Waveform holds each half cycle's plan and the flip rows; its
    samples are evaluated when read."""
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
    c = _Circuit.of(cfg)
    plan: List[_HalfCycle] = []
    flips: List[tuple] = []  # each half cycle's flip rows, in _COLUMNS order
    t0, vpt, vt, vs, q = initial.t, initial.vpt, initial.vt, initial.vs, initial.q_harvested
    ledger = ChargeLedger()
    events: List[FlipEvent] = []
    half = 0.5 / cfg.src.frequency
    for k in range(1, 2 * cfg.n_cycles + 1):
        # The source sin(wt) crosses zero at k half periods, falling at odd k.
        t_cross = k * half
        # The grid adds t0 + dt, t0 + 2*dt, ... while short of the crossing;
        # a remainder under 1e-9 dt joins the last step, so no sliver is left.
        n = max(0, int(math.floor((t_cross - t0) / c.dt - 1e-9)))
        sign = 1 if k % 2 == 1 else -1  # the current's sign before the crossing
        h, q = _integrate_segment(_Grid(t0, c.dt, n, t_cross), vpt, vs, vt, q, sign, c, ledger)
        plan.append(h)
        vpt, vs, t0 = h.v_end, h.vs_end, t_cross
        if cfg.sshc is None:
            flips.append(())
            continue
        v_before = vpt
        flips.append(_flip(c.pulse_times(t_cross), vpt, vt, vs, c.cp, cfg.sshc.cap_ct, ledger))
        t0, vpt, vt = flips[-1][-1][:3]  # the last pulse row starts the next half cycle
        efficiency = abs(vpt) / abs(v_before) if v_before != 0.0 else 0.0
        events.append(FlipEvent(k, t_cross, v_before, vpt, efficiency))
    final = CircuitState(t=t0, vpt=vpt, vt=vt, vs=vs, q_harvested=q)
    return RunResult(Waveform(cfg, initial, plan, flips), events, ledger, final, initial)


def extract_efficiency_trajectory(events: Sequence[FlipEvent]) -> List[float]:
    """Ordered eta_n sequence from a run's flip events."""
    if not events:
        raise ValueError("no flip events (full-bridge runs record none)")
    return [e.efficiency for e in events]
