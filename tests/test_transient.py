import collections
import io
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sshcsim import (
    ChargeLedger,
    CircuitState,
    FiniteCap,
    FixedVoltage,
    FlipRatios,
    Phase,
    RectifierStage,
    SimConfig,
    SshcNetwork,
    WeakExcitationWarning,
    apply_flip,
    extract_efficiency_trajectory,
    flip_efficiency_series,
    flip_step,
    run,
    write_flip_events_csv,
)
from sshcsim import transient
from sshcsim.circuit import FieldError, conduction_threshold
from sshcsim.config import ConfigError, parse_config

from conftest import make_sim_config, make_source, make_stage
from test_config_property import CONFIGS, log_uniform


class TestSimConfigValidation:
    def test_defaults_fill_in(self):
        cfg = make_sim_config()
        period = cfg.src.period
        assert cfg.dt == pytest.approx(period / 10_000)
        assert 3 * cfg.phase_pulse_width + 2 * cfg.phase_gap < 0.02 * period

    def test_phase_gap_zero_is_kept(self):
        # None asks for the default gap; an explicit 0 means no gap.
        period = make_sim_config().src.period
        assert make_sim_config().phase_gap == period / 2_000
        assert make_sim_config(phase_gap=0.0).phase_gap == 0.0
        result = run(make_sim_config(phase_gap=0.0, n_cycles=1))
        wf = result.waveform
        flip_t = wf.t[wf.phase != "Idle"][:3]
        t_cross = result.events[0].t
        w = make_sim_config().phase_pulse_width
        assert flip_t.tolist() == [t_cross + w, t_cross + 2 * w, t_cross + 3 * w]

    def test_rejects_coarse_dt(self):
        with pytest.raises(ValueError):
            make_sim_config(dt=1.0 / 100.0 / 500.0)

    def test_rejects_wide_pulses(self):
        with pytest.raises(ValueError):
            make_sim_config(phase_pulse_width=1e-4, phase_gap=1e-4)

    def test_rejects_nonpositive_cycles(self):
        with pytest.raises(ValueError):
            make_sim_config(n_cycles=0)

    @pytest.mark.parametrize("name", ["dt", "phase_pulse_width"])
    def test_zero_timing_is_rejected(self, name):
        # None, not 0, asks for the default: a zero step or pulse is an error.
        with pytest.raises(FieldError, match=name) as exc:
            make_sim_config(**{name: 0.0})
        assert exc.value.field == name

    @pytest.mark.parametrize("f", [100.0, 217.0, 3.3e5])
    def test_none_resolves_to_the_period_over_its_divisor(self, f):
        none = dict.fromkeys(transient.PERIOD_DIVISORS)
        cfg = make_sim_config(src=make_source(f=f), **none)
        for name, divisor in transient.PERIOD_DIVISORS.items():
            assert getattr(cfg, name) == (1.0 / f) / divisor

    def test_config_echo_is_unchanged(self):
        # The echo prints the timings SimConfig resolved, not 'auto' or None.
        echo = parse_config(overrides={"frequency": "217Hz", "phase_gap": "0"}).echo()
        assert echo == {
            "amplitude_ip": "4.9999999999999996e-05",
            "frequency": "217.0",
            "cap_cp": "1e-08",
            "res_rp": "inf",
            "diode_drop_vd": "0.2",
            "storage_vs": "2.0",
            "storage_cs": "none",
            "cap_ct": "1e-08",
            "full_bridge": "false",
            "dt": "4.6082949308755763e-07",
            "n_cycles": "10",
            "phase_pulse_width": "9.216589861751152e-06",
            "phase_gap": "0.0",
        }
        assert parse_config().echo()["dt"] == "1e-06"

    def test_rejects_non_finite_start(self):
        # A NaN start would run on into NaN flip events, an infinite one into
        # an infinite harvest and a NaN ledger residual.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="vpt_initial"):
                make_sim_config(vpt_initial=bad)


def idle_state(vpt, vt=0.0, vs=2.0):
    return CircuitState(t=0.0, vpt=vpt, vt=vt, vs=vs, q_harvested=0.0)


POSITIVE_FLIP = [Phase.PHI_P, Phase.PHI_0, Phase.PHI_N]


class TestApplyPhase:
    """apply_flip() returns the state after each of a flip's switch phases."""

    def test_share_with_equal_caps(self):
        share, _, _ = apply_flip(idle_state(vpt=2.4), make_sim_config())
        assert share.phase is Phase.PHI_P
        assert share.vpt == pytest.approx(1.2, abs=1e-15)
        assert share.vt == pytest.approx(1.2, abs=1e-15)

    def test_short_clears_cp_only(self):
        _, short, _ = apply_flip(idle_state(vpt=2.4), make_sim_config())
        assert short.phase is Phase.PHI_0
        assert short.vpt == 0.0
        assert short.vt == pytest.approx(1.2, abs=1e-15)

    def test_full_sequence_from_fixed_point(self):
        # With the flip cap pre-charged at the steady-state value 0.8 V the
        # sequence inverts 2.4 V to exactly -0.8 V, one pulse time per phase.
        cfg = make_sim_config()
        states = apply_flip(replace(idle_state(vpt=2.4, vt=0.8), t=5e-3), cfg)
        assert [s.phase for s in states] == POSITIVE_FLIP
        w, g = cfg.phase_pulse_width, cfg.phase_gap
        assert [s.t for s in states] == [5e-3 + w, 5e-3 + 2 * w + g, 5e-3 + 3 * w + 2 * g]
        assert states[-1].vpt == pytest.approx(-0.8, abs=1e-12)
        assert states[-1].vt == pytest.approx(0.8, abs=1e-12)

    def test_mirrored_sequence_for_negative_crossing(self):
        states = apply_flip(idle_state(vpt=-2.4, vt=0.8), make_sim_config())
        assert [s.phase for s in states] == POSITIVE_FLIP[::-1]
        assert states[-1].vpt == pytest.approx(0.8, abs=1e-12)

    def test_negative_zero_flips_phi_p_first(self):
        # The rule is node >= 0.0, which -0.0 meets.
        states = apply_flip(idle_state(vpt=-0.0, vt=0.8), make_sim_config())
        assert [s.phase for s in states] == POSITIVE_FLIP

    def test_requires_sshc_network(self):
        cfg = make_sim_config(ct=None)
        with pytest.raises(ValueError):
            apply_flip(idle_state(vpt=2.4), cfg)

    def test_ledger_records_cleared_charge(self):
        cfg = make_sim_config()
        ledger = ChargeLedger()
        apply_flip(idle_state(vpt=2.4), cfg, ledger)
        assert ledger.q_cleared == pytest.approx(cfg.src.cap_cp * 1.2, rel=1e-12)


def current(src, t):
    """The source current I(t) = I_P*sin(w*t) (A)."""
    return src.amplitude_ip * math.sin(src.omega * t)


def step(state, cfg, ledger=None, dt=None):
    """One explicit Euler step of width dt (defaults to cfg.dt): leakage
    decay, source charge into C_P, then algebraic projection onto the diode
    clamp by transient._clip. The first-order reference for run()'s closed
    form: TestStepConvergesToRun checks that a loop of it converges to run()
    at first order in dt."""
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

    dq = current(src, state.t) * h
    if ledger is not None:
        ledger.q_source += dq
        ledger.q_source_gross += abs(dq)
    vpt += dq / cp

    storage = cfg.stage.storage
    cs = storage.cs if isinstance(storage, FiniteCap) else math.inf
    vpt, vs, excess = transient._clip(vpt, vs, cp, cs, 2.0 * cfg.stage.diode_drop_vd)
    q_harvested = state.q_harvested + excess
    if ledger is not None:
        ledger.q_storage += math.copysign(excess, vpt)

    return replace(state, t=state.t + h, vpt=vpt, vs=vs, q_harvested=q_harvested)


def crossings(cfg):
    """Each zero crossing k = 1 .. 2*n_cycles of the source as run() takes
    it: (k, its time k*(0.5/f), the current's sign before it)."""
    half = 0.5 / cfg.src.frequency
    return [(k, k * half, 1 if k % 2 == 1 else -1) for k in range(1, 2 * cfg.n_cycles + 1)]


class TestStep:
    def test_blocking_region_capacitor_law(self):
        cfg = make_sim_config(ct=None)
        state = CircuitState(t=1e-3, vpt=0.5, vt=0.0, vs=2.0, q_harvested=0.0)
        new = step(state, cfg)
        expected = 0.5 + current(cfg.src, 1e-3) * cfg.dt / cfg.src.cap_cp
        assert new.vpt == pytest.approx(expected, rel=1e-12)
        assert new.q_harvested == 0.0

    def test_clamped_region_routes_to_storage(self):
        cfg = make_sim_config(ct=None)
        state = CircuitState(t=2.5e-3, vpt=2.4, vt=0.0, vs=2.0, q_harvested=0.0)
        new = step(state, cfg)
        assert new.vpt == pytest.approx(2.4, abs=1e-12)
        assert new.q_harvested == pytest.approx(current(cfg.src, 2.5e-3) * cfg.dt, rel=1e-12)

    def test_rc_discharge_when_source_negligible(self):
        rp = 1e6
        src = make_source(ip=1e-30, rp=rp)
        cfg = make_sim_config(ct=None, src=src)
        state = CircuitState(t=0.0, vpt=1.0, vt=0.0, vs=100.0, q_harvested=0.0)
        tau = rp * src.cap_cp
        for _ in range(100):
            state = step(state, cfg)
        assert state.vpt == pytest.approx(math.exp(-100 * cfg.dt / tau), rel=1e-9)

    def test_finite_cap_storage_rises(self):
        cs = 1e-6
        stage = RectifierStage(diode_drop_vd=0.2, storage=FiniteCap(cs, 2.0))
        cfg = make_sim_config(ct=None, stage=stage)
        state = CircuitState(t=2.5e-3, vpt=2.4, vt=0.0, vs=2.0, q_harvested=0.0)
        new = step(state, cfg)
        assert new.vs > 2.0
        assert new.vs - 2.0 == pytest.approx(new.q_harvested / cs, rel=1e-12)


def step_reference(cfg):
    """run() rebuilt from step() and public apply_flip() calls: the explicit
    Euler reference. Returns the flip events as tuples, the final state and
    the ChargeLedger that both calls book."""
    state = CircuitState(
        t=0.0,
        vpt=cfg.vpt_initial,
        vt=cfg.sshc.volt_vt if cfg.sshc is not None else 0.0,
        vs=cfg.stage.storage_voltage,
        q_harvested=0.0,
    )
    events, ledger = [], ChargeLedger()
    for k, t_cross, _ in crossings(cfg):
        while state.t < t_cross - 1e-15 * t_cross:
            state = step(state, cfg, ledger, dt=min(cfg.dt, t_cross - state.t))
        if cfg.sshc is None:
            continue
        t0, v_before = state.t, state.vpt
        state = apply_flip(state, cfg, ledger)[-1]
        events.append((k, t0, v_before, state.vpt, abs(state.vpt) / abs(v_before)))
    return events, state, ledger


REGIMES = {
    "ideal": {},
    "leaky": {"src": make_source(rp=1e6)},
    "finite_storage": {"stage": make_stage(storage=FiniteCap(1e-6, 2.0))},
    "leaky_finite_storage_217Hz": {
        "src": make_source(f=217.0, rp=1e7),
        "stage": make_stage(storage=FiniteCap(1e-6, 2.0)),
    },
}


class TestStepConvergesToRun:
    """A loop of Euler step() calls approaches run()'s closed form at first
    order in dt: q_harvested relative to itself, the last v_after relative to
    the conduction threshold, since the leak shrinks it, and each ledger term
    relative to run()'s gross source charge."""

    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_first_order_in_dt(self, regime):
        base = make_sim_config(n_cycles=2, **REGIMES[regime])
        exact = run(base)
        q_exact = exact.final_state.q_harvested
        v_exact = exact.events[-1].v_after
        vth = 2.4
        q_err, v_err, ledger_err = [], [], []
        for steps in (1e3, 1e4, 1e5):
            events, final, ledger = step_reference(replace(base, dt=base.src.period / steps))
            q_err.append(abs(final.q_harvested - q_exact) / q_exact)
            v_err.append(abs(events[-1][3] - v_exact) / vth)
            terms = zip(vars(ledger).values(), vars(exact.ledger).values())
            ledger_err.append(max(abs(a - b) for a, b in terms) / exact.ledger.q_source_gross)
        for errors in (q_err, v_err):
            assert errors[1] <= errors[0] / 8 and errors[2] <= errors[1] / 8, errors
            assert errors[2] <= 2e-6, errors
        assert ledger_err[1] <= ledger_err[0] / 8 and ledger_err[2] <= ledger_err[1] / 8, ledger_err
        assert ledger_err[2] <= 1e-6, ledger_err


class TestRunFullBridge:
    def test_morphology_plateaus_and_recharge(self):
        cfg = make_sim_config(ct=None, n_cycles=3)
        result = run(cfg)
        assert result.events == []
        vpt = np.array(result.waveform.vpt)
        assert vpt.max() == pytest.approx(2.4, abs=1e-9)
        assert vpt.min() == pytest.approx(-2.4, abs=1e-9)
        # Clamp plateaus exist on both rails.
        assert np.sum(np.abs(vpt - 2.4) < 1e-9) > 10
        assert np.sum(np.abs(vpt + 2.4) < 1e-9) > 10

    def test_no_harvest_below_cutoff(self):
        # Swing never reaches the threshold from a zero start.
        src = make_source(ip=1e-6)  # vpp ~ 0.32 V << 2.4 V
        cfg = make_sim_config(ct=None, src=src, n_cycles=3)
        result = run(cfg)
        assert result.final_state.q_harvested < 1e-12

    def test_trajectory_extraction_requires_events(self):
        cfg = make_sim_config(ct=None, n_cycles=1)
        result = run(cfg)
        with pytest.raises(ValueError):
            extract_efficiency_trajectory(result.events)


class TestRunSshc:
    @pytest.mark.parametrize("f", [50.0, 100.0, 217.0])
    def test_flips_at_each_half_period(self, f):
        # Flip k falls at k*(0.5/f) to the last bit, and the source current
        # is positive in the first half cycle, so the node rises to +2.4 V.
        result = run(make_sim_config(src=make_source(f=f), n_cycles=3))
        half = 0.5 / f
        assert [repr(e.t) for e in result.events] == [repr(k * half) for k in range(1, 7)]
        assert result.waveform._plan[0].sign == 1
        assert result.events[0].v_before > 0.0

    def test_oracle_equivalence_with_flip_step(self):
        cfg = make_sim_config(n_cycles=10)
        result = run(cfg)
        ratios = FlipRatios.from_caps(cfg.src.cap_cp, cfg.sshc.cap_ct)
        vt = 0.0
        for event in result.events:
            vpt_out, vt = flip_step(abs(event.v_before), vt, ratios)
            assert abs(event.v_after) == pytest.approx(abs(vpt_out), rel=1e-12)
            assert event.v_before == pytest.approx(2.4 * (1 if event.cycle_index % 2 else -1), rel=1e-9)

    def test_signs_invert_and_efficiency_range(self):
        result = run(make_sim_config(n_cycles=10))
        for event in result.events:
            assert math.copysign(1, event.v_after) == -math.copysign(1, event.v_before)
            assert 0.0 <= event.efficiency < 0.5

    def test_efficiency_matches_analytic_series(self):
        cfg = make_sim_config(n_cycles=10)
        result = run(cfg)
        ratios = FlipRatios.from_caps(cfg.src.cap_cp, cfg.sshc.cap_ct)
        series = flip_efficiency_series(ratios, 2.4, len(result.events))
        traj = extract_efficiency_trajectory(result.events)
        for got, want in zip(traj, series.efficiencies):
            assert got == pytest.approx(want, rel=1e-12)
        assert all(b >= a - 1e-12 for a, b in zip(traj, traj[1:]))

    def test_waveform_timestamps_strictly_increasing(self):
        result = run(make_sim_config(n_cycles=2))
        t = np.array(result.waveform.t)
        assert np.all(np.diff(t) > 0)

    def test_phase_tokens_present(self):
        result = run(make_sim_config(n_cycles=1))
        tokens = set(result.waveform.phase)
        assert tokens == {"Idle", "PhiP", "Phi0", "PhiN"}

    def test_clamp_correctness_during_conduction(self):
        result = run(make_sim_config(n_cycles=3))
        vpt = np.array(result.waveform.vpt)
        clamped = np.abs(np.abs(vpt) - 2.4) < 1e-9
        assert clamped.sum() > 10
        assert np.all(np.abs(vpt) <= 2.4 + 1e-9)

    def test_charge_ledger_closes(self):
        for rp in (math.inf, 1e7):
            cfg = make_sim_config(src=make_source(rp=rp), n_cycles=3, dt=1e-5 / 2)
            result = run(cfg)
            residual = result.ledger.residual(result.initial_state, result.final_state, cfg)
            assert abs(residual) < 1e-12 * result.ledger.q_source_gross

    @pytest.mark.parametrize("rp", [math.inf, 1e7], ids=["finite_storage", "leaky_finite_storage"])
    def test_charge_ledger_closes_with_finite_storage(self, rp):
        stage = make_stage(storage=FiniteCap(1e-6, 2.0))
        cfg = make_sim_config(src=make_source(rp=rp), stage=stage, n_cycles=3, dt=1e-5 / 2)
        result = run(cfg)
        assert result.final_state.vs > 2.0
        residual = result.ledger.residual(result.initial_state, result.final_state, cfg)
        assert abs(residual) < 1e-12 * result.ledger.q_source_gross

    def test_step_size_convergence(self):
        # The closed form does not depend on the sample grid.
        for regime in ("ideal", "leaky", "finite_storage"):
            q = {}
            for dt in (1e-6, 5e-7):
                cfg = make_sim_config(n_cycles=5, dt=dt, **REGIMES[regime])
                q[dt] = run(cfg).final_state.q_harvested
            assert abs(q[5e-7] - q[1e-6]) / q[1e-6] < 1e-12, regime

    def test_swapped_phase_order_is_worse(self):
        # Applying the dump-first order against an established C_T polarity
        # cancels stored charge instead of reinforcing it. (A *persistent*
        # swap merely relabels the plates and changes nothing, so the wrong
        # order is applied to a single crossing here.)
        cfg = make_sim_config(n_cycles=5)
        result = run(cfg)
        vt = result.final_state.vt
        assert vt > 0.1
        good = apply_flip(idle_state(vpt=2.4, vt=vt), cfg)[-1].vpt
        bad, bad_vt = 2.4, vt
        for switch, _ in transient._PHASES[::-1]:  # PhiN, Phi0, PhiP on a positive node
            bad, bad_vt = switch(bad, bad_vt, cfg.src.cap_cp, cfg.sshc.cap_ct, ChargeLedger())
        assert abs(bad) < abs(good)

    def test_weak_excitation_warns(self):
        cfg_kwargs = dict(src=make_source(ip=1e-6), n_cycles=1)
        with pytest.warns(WeakExcitationWarning):
            run(make_sim_config(**cfg_kwargs))

    def test_finite_cap_threshold_tracks_storage(self):
        stage = RectifierStage(diode_drop_vd=0.2, storage=FiniteCap(1e-7, 2.0))
        cfg = make_sim_config(stage=stage, n_cycles=3, dt=1e-5 / 4)
        result = run(cfg)
        vs = np.array(result.waveform.vs)
        assert vs[-1] > vs[0]
        assert np.all(np.diff(vs) >= 0)
        assert result.final_state.q_harvested == pytest.approx(
            (vs[-1] - vs[0]) * 1e-7, rel=1e-9
        )
        residual = result.ledger.residual(result.initial_state, result.final_state, cfg)
        assert abs(residual) < 1e-12 * result.ledger.q_source_gross

    def test_q_harvested_monotone(self):
        cfg = make_sim_config(n_cycles=4)
        result = run(cfg)
        assert result.final_state.q_harvested > 0


class TestExactHarvest:
    @pytest.mark.parametrize("ratio", [1.0, 100.0])
    @pytest.mark.parametrize("n_cycles", [2, 10])
    def test_ideal_rail_matches_closed_form(self, ratio, n_cycles):
        # From 0 V the first half cycle harvests 2 I_P/w - C_P vth. Every later
        # one starts W = 3 pulse + 2 gap after its crossing at eta_k * vth on
        # the driven side, and harvests I_P/w (1 + cos wW) - C_P vth (1 - eta_k).
        cfg = make_sim_config(ct=ratio * 10e-9, n_cycles=n_cycles)
        result = run(cfg)
        src, vth = cfg.src, 2.4
        q_half = src.amplitude_ip / src.omega
        window = 3.0 * cfg.phase_pulse_width + 2.0 * cfg.phase_gap
        expected = 2.0 * q_half - src.cap_cp * vth + sum(
            q_half * (1.0 + math.cos(src.omega * window)) - src.cap_cp * vth * (1.0 - e.efficiency)
            for e in result.events[:-1]
        )
        assert result.final_state.q_harvested == pytest.approx(expected, rel=1e-12)


class TestStartBeyondRails:
    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["above", "below"])
    @pytest.mark.parametrize("regime", ["ideal", "leaky", "finite_storage"])
    def test_clipped_onto_rails(self, regime, side):
        # A start beyond either rail is clipped at once, as step() clips it,
        # and the excess goes through the bridge, not into the leak.
        cfg = make_sim_config(n_cycles=1, vpt_initial=side * 1.5 * 2.4, **REGIMES[regime])
        result = run(cfg)
        wf = result.waveform
        vth = wf.vs[1:] + 2.0 * cfg.stage.diode_drop_vd
        assert np.all(np.abs(wf.vpt[1:]) <= vth * (1 + 1e-12))
        if regime != "leaky" and side > 0:
            # The source drives the clipped node on into its rail; a storage
            # cap has taken its share of the excess, so that is the new rail.
            assert abs(wf.vpt[1]) == pytest.approx(vth[0], rel=1e-12)
        if regime == "finite_storage" and side < 0:
            # The source pulls the node off its rail at once, so row 1 holds
            # the share: C_P and C_S meet at vs1 + 2*vd with
            # vs1 = (C_P*(|v0| - 2*vd) + C_S*vs0) / (C_P + C_S).
            cp, cs = cfg.src.cap_cp, cfg.stage.storage.cs
            vs1 = (cp * (abs(cfg.vpt_initial) - 0.4) + cs * 2.0) / (cp + cs)
            assert wf.vs[1] == pytest.approx(vs1, rel=1e-12)
        ledger = result.ledger
        scale = ledger.q_source_gross
        if math.isinf(cfg.src.res_rp):
            assert abs(ledger.q_leak) <= 1e-12 * scale
        residual = ledger.residual(result.initial_state, result.final_state, cfg)
        assert abs(residual) < 1e-12 * scale
        _, final, _ = step_reference(cfg)
        assert result.final_state.q_harvested == pytest.approx(final.q_harvested, rel=1e-4)


class TestCsvExport:
    def test_waveform_schema(self):
        result = run(make_sim_config(n_cycles=1))
        buf = io.StringIO()
        result.waveform.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "t_s,vpt_V,vt_V,vs_V,phase"
        assert len(lines) == len(result.waveform) + 1
        first = lines[1].split(",")
        assert len(first) == 5
        assert first[4] in ("Idle", "PhiP", "Phi0", "PhiN")

    @pytest.mark.parametrize(
        "cfg_kwargs",
        [
            {},
            {"src": make_source(rp=1e7)},
            {"stage": make_stage(storage=FiniteCap(1e-6, 2.0))},
        ],
        ids=["ideal", "leaky", "finite_storage"],
    )
    def test_waveform_columns_are_float64_arrays(self, cfg_kwargs):
        wf = run(make_sim_config(n_cycles=1, **cfg_kwargs)).waveform
        for column in (wf.t, wf.vpt, wf.vt, wf.vs):
            assert isinstance(column, np.ndarray)
            assert column.dtype == np.float64
            assert column.shape == (len(wf),)
        assert wf.phase.shape == (len(wf),)
        buf = io.StringIO()
        wf.write_csv(buf)
        assert buf.getvalue().count("\n") == len(wf) + 1

    def test_flip_events_schema(self):
        result = run(make_sim_config(n_cycles=1))
        buf = io.StringIO()
        write_flip_events_csv(result.events, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "cycle,t_s,v_before_V,v_after_V,efficiency"
        assert len(lines) == len(result.events) + 1


class TestEnergyAcrossPhases:
    def test_capacitive_energy_never_increases_in_flip_windows(self):
        cfg = make_sim_config(n_cycles=3)
        result = run(cfg)
        cp = cfg.src.cap_cp
        ct = cfg.sshc.cap_ct
        wf = result.waveform
        energy = [
            0.5 * cp * v * v + 0.5 * ct * w * w for v, w in zip(wf.vpt, wf.vt)
        ]
        for i, token in enumerate(wf.phase):
            if token != "Idle":
                assert energy[i] <= energy[i - 1] * (1 + 1e-12) + 1e-30


class TestLedgerScale:
    def test_scale_is_the_gross_source_charge(self):
        # Over whole cycles the net source charge cancels, so against
        # max(|q_source|, C_P*vth) this correct run's residual was 2e-5 of
        # scale. Each half cycle moves 2 I_P/w one way or the other.
        cfg = make_sim_config(ct=None, src=make_source(ip=94e-6, f=0.0524, cp=1.6e-15), n_cycles=2)
        result = run(cfg)
        ledger = result.ledger
        assert ledger.q_source_gross == pytest.approx(8 * 94e-6 / cfg.src.omega, rel=1e-12)
        residual = ledger.residual(result.initial_state, result.final_state, cfg)
        assert abs(residual) < 1e-12 * ledger.q_source_gross


def record(monkeypatch, name):
    """Wrap transient.<name> so that each call's arguments and result are kept."""
    calls = []
    real = getattr(transient, name)

    def wrapper(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]

    monkeypatch.setattr(transient, name, wrapper)
    return calls


def first_held(values, lo, n):
    """The row lo + argmax(values >= 0) of a search over rows lo..n-1, or n
    if no value is >= 0."""
    held = values >= 0.0
    return lo + int(np.argmax(held)) if held.any() else n


def brute_first(f, t, lo):
    return first_held(f(t[lo:])[0], lo, len(t))


def free_over(c, h, t):
    """run()'s `over` on rows 1..n+1 of half cycle h: how far its free node
    is past the rail, evaluated as run() evaluates it."""
    x = h.v0 + transient._rise(h.t0, h.v0, c.kf, c.gf, c.w)(t[1:])
    return h.sign * x - (h.vs0 + c.two_vd)


# The engine's own search and root: a check calls these, so that what a test
# records of the program's searches holds none of the check's.
ENGINE_FIRST, ENGINE_ROOT = transient._first, transient._root


def check_plan_boundaries(cfg, wf):
    """Each half cycle's clamp row i and release row j are brute-force
    argmaxes: the first row at which the free node's overshoot past the rail
    (run()'s `over`) and the leak's pull against the source (`backward`) are
    >= 0, evaluated as run() evaluates them, on every row a search covers,
    and on every row of a half cycle whose clamp no search decides. The plan
    is the Waveform's resolved one: a clamp row that run() left pending is
    found here, by the Waveform's own search. On each half cycle that does
    not start on the rail, _clamp_row, called as the Waveform calls it,
    returns i in every regime: argmax's row, or n + 2 for never."""
    c = transient._Circuit.of(cfg)
    plan = wf._resolved()
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(transient, "_first", ENGINE_FIRST)
        monkeypatch.setattr(transient, "_root", ENGINE_ROOT)
        for h in plan:
            t = transient._Grid(h.t0, c.dt, h.n, h.t_end)
            vth = h.vs0 + c.two_vd
            rail = h.sign * vth
            if h.i == 0:  # held from the start: no clamp search
                assert h.sign * h.v0 >= vth, h
            else:
                assert h.i == first_held(free_over(c, h, t), 1, len(t)), h
                assert transient._clamp_row(t, h.v0, h.sign, vth, c) == h.i, h
            if not c.leak or h.i == len(t):
                assert h.j == len(t), h
                continue
            lo = max(h.i, 1)  # row 0 is the previous half cycle's
            s = t[lo:]
            x = rail
            if c.cs < math.inf:
                x = rail + transient._rise(h.t_clamp, rail, c.kh, c.gh, c.w)(s)
            assert h.j == first_held(h.sign * (x * c.leak - c.ip * np.sin(c.w * s)), lo, len(t)), h


def count_search_rows(monkeypatch):
    """Wrap transient._first so that the rows on which it evaluates each
    boundary function are counted, by the function's name."""
    rows = collections.Counter()
    real = transient._first

    def first(f, t, lo, hi, guess=None):
        def counted(s, m=np):
            rows[f.__name__] += np.size(s)
            return f(s, m)

        return real(counted, t, lo, hi, guess)

    monkeypatch.setattr(transient, "_first", first)
    return rows


def record_searches(monkeypatch):
    """Wrap transient._first so that each search is kept as (f, t, lo, hi,
    guess, its index, floats), floats holding (time, value) for each row
    that it evaluates, in order. A search evaluates floats alone: an array
    fails here. A clamp that the scalar bound decides without a search is
    not kept: check_plan_boundaries checks it."""
    searches = []
    real = transient._first

    def first(f, t, lo, hi, guess=None):
        floats = []

        def kept(s, m=np):
            assert m is not np and isinstance(s, float), (f.__name__, s)
            out = f(s, m)
            floats.append((s, out[0]))
            return out

        got = real(kept, t, lo, hi, guess)
        searches.append((f, t, lo, hi, guess, got, floats))
        return got

    monkeypatch.setattr(transient, "_first", first)
    return searches


def check_search(f, t, lo, hi, guess, got, floats):
    """_first gives argmax's index over every row from lo, len(t) where no
    row holds, so the caller's bracket lo..hi held its contract. Each row it
    evaluates is a float with the bits of f on the numpy slice t[lo:]: a
    boundary decided in floats is the one the samples show. The rows it
    evaluated show the edge: row got holds, or got = len(t) and row hi
    fails, and the row before (got - 1, or hi - 1) fails or precedes lo. A
    guess on the edge costs two rows at most, a bisection about log2 of the
    bracket's length."""
    times = t[lo:]
    values = f(times)[0]
    assert 1 <= lo <= hi < len(t), (f.__name__, lo, hi, len(t))
    assert got == first_held(values, lo, len(t)), (f.__name__, lo, len(t))
    held = {}
    for s, value in floats:
        k = int(np.searchsorted(times, s))
        assert times[k] == s, (f.__name__, s)
        assert repr(value) == repr(float(values[k])), (f.__name__, lo + k)
        held[lo + k] = value >= 0.0
    edge = got if got < len(t) else hi
    assert held[edge] == (got < len(t)), (f.__name__, got, held)
    assert edge == lo or held.get(edge - 1) is False, (f.__name__, got, held)
    exact = guess is not None and t.row(guess) == edge
    assert len(floats) <= (2 if exact else math.ceil(math.log2(hi - lo + 1)) + 3), (
        f.__name__, len(floats), lo, hi,
    )


def check_first(f, t, lo, got):
    """_first gives argmax's index, len(t) where no point holds."""
    assert got == brute_first(f, t, lo), (f.__name__, lo, len(t))


BOUNDARY_CASES = {
    **REGIMES,
    "weak_excitation": {"ct": None, "src": make_source(ip=1e-6, rp=1e6)},
    "start_on_rail_leak_pulls_off": {"src": make_source(rp=1e6), "vpt_initial": 2.4},
    "start_on_rail_leak_pulls_off_finite": {
        "src": make_source(rp=1e6),
        "stage": make_stage(storage=FiniteCap(1e-6, 2.0)),
        "vpt_initial": 2.4,
    },
    "start_beyond_rail": {"src": make_source(rp=1e6), "vpt_initial": -1.5 * 2.4},
    "start_beyond_rail_finite": {
        "stage": make_stage(storage=FiniteCap(1e-6, 2.0)),
        "vpt_initial": 1.5 * 2.4,
    },
    # A leaky SSHC node that never reaches the rail: the scalar bound on its
    # free maximum puts each clamp at "never" without a search.
    "leaky_weak_sshc": {"src": make_source(ip=5e-6, rp=1e7)},
}


class TestPieceBoundaries:
    """_integrate_segment fixes the clamp and release before it samples: the
    grid indices by a bisection over a bracket of rows, seeded by a scalar
    guess, which two rows confirm where it is right, and the times by scalar
    Newton roots. A leaky free node whose maximum lies clearly below the rail
    needs no search at all."""

    @pytest.mark.parametrize("case", list(BOUNDARY_CASES))
    def test_index_search_matches_argmax(self, monkeypatch, case):
        searches = record_searches(monkeypatch)
        cfg = make_sim_config(n_cycles=2, **BOUNDARY_CASES[case])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            wf = run(cfg).waveform
        planned = len(searches)
        check_plan_boundaries(cfg, wf)  # the Waveform's searches for pending rows are kept too
        leaky = cfg.src.res_rp < math.inf
        if case == "ideal":  # every crossing row holds: run() leaves each clamp row pending
            assert planned == 0 and len(searches) == 2 * cfg.n_cycles
        for f, t, lo, hi, guess, got, floats in searches:
            check_search(f, t, lo, hi, guess, got, floats)
            # A scalar guess for every search here: the clamp, _clamp_row's
            # (from the trough for a start on the rail), and the release on
            # either rail, each confirmed by two rows. The leak-free clamp
            # and both releases are bracketed up to the crossing row.
            assert guess is not None and len(floats) <= 2, (f.__name__, lo, floats)
            if not leaky or f.__name__ == "backward":
                assert hi == len(t) - 1, (f.__name__, hi)
        names = {f.__name__ for f, *_ in searches}
        if case in ("weak_excitation", "leaky_weak_sshc"):  # never reaches the rail
            # The bound on the free maximum decides each clamp without a search.
            assert not searches
            assert all(h.i == h.n + 2 for h in wf._plan)
        else:
            assert searches
            assert names == ({"over", "backward"} if leaky else {"over"})
        if case.startswith("start_on_rail_leak_pulls_off"):
            assert searches[0][2] == 1  # searched from the first step, not held at t0

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(CONFIGS, st.sampled_from([0.0, 1.0, -1.0, 1.5, -1.5]))
    # The _rise config whose open-circuit amplitude k/w = 8.2e6 V dwarfs its
    # 3.7 V rail, without and with a leak.
    @example({"frequency": "1.74", "cap_cp": "2.6e-15", "amplitude_ip": "0.24e-6",
              "storage_vs": "3.3"}, 0.0)
    @example({"frequency": "1.74", "cap_cp": "2.6e-15", "amplitude_ip": "0.24e-6",
              "storage_vs": "3.3", "res_rp": "1e9"}, 0.0)
    # A full bridge whose node swings 3.4e-12 V: each half cycle reaches the
    # rail at the crossing, where rounding, not the closed form, picks the
    # row, so two of its four guesses miss and the bisection runs.
    @example({"amplitude_ip": "3.2551359130562356e-12", "frequency": "417901.60852743225",
              "cap_cp": "7.191309034854645e-07", "diode_drop_vd": "0.15041855330322754",
              "storage_vs": "0.28108595310394924", "full_bridge": "true", "n_cycles": "2"}, -1.0)
    # A leaky full bridge whose first free maximum tops the rail by a few
    # margins inside the last grid step before the crossing: the root below
    # the maximum guesses the crossing row, the bracket's last.
    @example({"amplitude_ip": "0.0001302654428949799", "frequency": "1089.23254719559",
              "cap_cp": "1.1126598597942316e-08", "res_rp": "280227748.3389557",
              "storage_vs": "3.357057376847963", "diode_drop_vd": "0.03201571911349865",
              "full_bridge": "true", "dt": "2.292683318211229e-07", "n_cycles": "1"}, 0.0)
    def test_drawn_boundaries_match_argmax(self, overrides, start):
        # Leaky and finite-storage draws over the property test's decades,
        # from rest, on the rail and beyond it.
        try:
            cfg = parse_config(overrides=overrides).sim_config()
        except ConfigError:
            reject()
        cfg = replace(cfg, vpt_initial=start * conduction_threshold(cfg.stage))
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as monkeypatch:
            warnings.simplefilter("ignore", WeakExcitationWarning)
            searches = record_searches(monkeypatch)
            wf = run(cfg).waveform
            check_plan_boundaries(cfg, wf)  # and the searches that resolve pending rows
        for search in searches:
            check_search(*search)

    def test_a_zero_rail_harvests_from_the_first_half_cycle(self, monkeypatch):
        # At t = 0 a node on a zero rail meets backward() = 0 exactly, yet
        # row 0 is the start, not the half cycle's: the release search starts
        # at row 1, so no half cycle is released and a node at 0 V leaks nothing.
        halves = record(monkeypatch, "_integrate_segment")
        src = make_source(rp=1e6)
        cfg = make_sim_config(ct=None, n_cycles=2, src=src, stage=make_stage(vs=0.0, vd=0.0))
        result = run(cfg)
        assert result.ledger.q_leak == 0.0
        first = result.waveform._plan[0]
        assert (first.i, first.j) == (0, first.n + 2)
        q = [0.0] + [got[1] for _, got in halves]
        for before, after in zip(q, q[1:]):
            assert after - before == pytest.approx(2 * src.amplitude_ip / src.omega, rel=1e-12)

    @pytest.mark.parametrize("shift", [-3, 3])
    @pytest.mark.parametrize(
        "case", ["ideal", "leaky", "finite_storage", "leaky_finite_storage_217Hz"]
    )
    def test_a_missed_guess_falls_back(self, monkeypatch, case, shift):
        # A guess some rows off puts both of its rows on one side of the
        # edge, and the bisection of the rest of the bracket gives the same
        # plan, whether run() searches or, for a clamp row on the ideal rail
        # that it leaves pending, the Waveform does.
        cfg = make_sim_config(n_cycles=2, **BOUNDARY_CASES[case])
        rows = count_search_rows(monkeypatch)
        want = repr(run(cfg).waveform._resolved())
        hits = dict(rows)
        rows.clear()
        counted = transient._first

        def shifted(f, t, lo, hi, guess=None):
            return counted(f, t, lo, hi, guess + shift * t.dt)

        monkeypatch.setattr(transient, "_first", shifted)
        wf = run(cfg).waveform
        assert repr(wf._resolved()) == want
        check_plan_boundaries(cfg, wf)
        for guessed in ("over", "backward") if cfg.src.res_rp < math.inf else ("over",):
            assert rows[guessed] > hits[guessed], (rows, hits)  # the bisection ran

    def test_grazing_touch_between_probes(self, monkeypatch):
        # A leaky node that tops the rail for fewer than 64 grid points: the
        # root below its free maximum guesses the first, and the clamp starts
        # there.
        calls = record(monkeypatch, "_first")
        roots = record(monkeypatch, "_root")

        def touch(ip):
            calls.clear()
            roots.clear()
            cfg = make_sim_config(ct=None, n_cycles=1, src=make_source(ip=ip, rp=1e6))
            h = run(cfg).waveform._plan[0]
            c = transient._Circuit.of(cfg)
            t = transient._Grid(h.t0, c.dt, h.n, h.t_end)
            return int(np.count_nonzero(free_over(c, h, t) >= 0.0))

        lo_ip, hi_ip = 1e-6, 50e-6
        for _ in range(60):
            mid = 0.5 * (lo_ip + hi_ip)
            lo_ip, hi_ip = (mid, hi_ip) if touch(mid) == 0 else (lo_ip, mid)
        assert 0 < touch(hi_ip) < 64
        (f, t, lo, hi, guess), got = calls[0]
        assert f.__name__ == "over" and guess is not None
        i = brute_first(f, t, lo)
        assert got == i and lo < i < len(t)
        refined = [(a, b) for (g, a, b, *_), _ in roots if g is f]
        assert refined[-1] == (t[i - 1], t[i])
        for (f, t, lo, _, _), got in calls:
            check_first(f, t, lo, got)

    @pytest.mark.parametrize(
        "storage", [FixedVoltage(2.0), FiniteCap(1e-6, 2.0)], ids=["fixed", "finite"]
    )
    def test_peak_within_a_few_margins(self, monkeypatch, storage):
        # I_P bisected until the first half cycle's leaky free maximum sits
        # on the rail, then moved a few margins above and below it. Within
        # one margin of the rail the bisection finds the clamp row with no
        # guess; above it the root below the maximum guesses it; below it no
        # search runs. Each half cycle's rows are argmax's either way.
        searches = record_searches(monkeypatch)
        roots = record(monkeypatch, "_root")
        stage = make_stage(storage=storage)

        def peak(ip):  # the free maximum past the rail, in margins, and the run
            searches.clear()
            roots.clear()
            cfg = make_sim_config(ct=None, n_cycles=1, src=make_source(ip=ip, rp=1e6), stage=stage)
            wf = run(cfg).waveform
            h, c = wf._plan[0], transient._Circuit.of(cfg)
            maxima = [got for (f, _, b, *_), got in roots if f.__name__ == "turn" and b == h.t_end]
            if not maxima:  # past the rail by the sine's peak: no maximum was sought
                return math.inf, cfg, wf
            (t_max,) = maxima
            vth = h.vs0 + c.two_vd
            x = h.v0 + transient._rise(h.t0, h.v0, c.kf, c.gf, c.w)(t_max, math)
            return (h.sign * x - vth) / transient._margin(h.v0, vth, c.kf, c.w, h.t_end), cfg, wf

        lo_ip, hi_ip = 1e-6, 50e-6
        for _ in range(60):
            mid = 0.5 * (lo_ip + hi_ip)
            lo_ip, hi_ip = (mid, hi_ip) if peak(mid)[0] < 0.0 else (lo_ip, mid)
        _, cfg, _ = peak(hi_ip)
        margin_ip = hi_ip * transient._margin(0.0, 2.4, cfg.src.amplitude_ip / cfg.src.cap_cp,
                                              cfg.src.omega, 0.5 / cfg.src.frequency) / 2.4
        seen = set()
        for k in (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0):
            # From rest the free node grows in proportion to I_P, so its peak
            # moves by k margins.
            ratio, cfg, wf = peak(hi_ip + k * margin_ip)
            assert abs(ratio - k) < 0.25, (k, ratio)
            check_plan_boundaries(cfg, wf)
            for search in searches:
                check_search(*search)
            first = [s for s in searches if s[0].__name__ == "over" and s[1].t0 == 0.0]
            if ratio < -1.0:
                assert not first
                seen.add("none")
            else:
                (_, _, _, _, guess, _, _), = first
                assert (guess is not None) == (ratio > 1.0), (k, ratio)
                seen.add("guess" if ratio > 1.0 else "no guess")
        assert seen == {"none", "no guess", "guess"}

    @pytest.mark.parametrize("case", ["leaky", "leaky_weak_sshc", "leaky_finite_storage_217Hz",
                                      "start_on_rail_leak_pulls_off",
                                      "start_on_rail_leak_pulls_off_finite"])
    def test_leaky_rows_do_not_grow_with_dt(self, monkeypatch, case):
        # The bound on the free maximum and the guesses evaluate the same few
        # boundary rows at dt = 1e-6 s, 1e-8 s and 1e-9 s (T/1e4 to T/1e7 at
        # 100 Hz), on a fixed rail or a storage cap, and also for a node that
        # starts on its rail while the leak pulls it off. The leaky-weak node
        # never reaches the rail, so its clamps evaluate none. The whole-row
        # check runs up to T/1e6, where a half cycle's rows still fit in a few
        # MB.
        rows = count_search_rows(monkeypatch)
        counts = []
        for divisor in (10_000, 1_000_000, 10_000_000):
            rows.clear()
            cfg = make_sim_config(n_cycles=2, dt=0.01 / divisor, **BOUNDARY_CASES[case])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakExcitationWarning)
                wf = run(cfg).waveform
            if divisor <= 1_000_000:
                check_plan_boundaries(cfg, wf)
            counts.append(dict(rows))
        assert counts[0] == counts[1] == counts[2], counts
        halves = 2 * cfg.n_cycles
        if case != "leaky_weak_sshc":
            assert 0 < counts[0]["over"] <= 2 * halves and 0 < counts[0]["backward"] <= 2 * halves
        else:
            assert counts[0] == {}

    @pytest.mark.parametrize("case", list(BOUNDARY_CASES))
    def test_each_guess_names_the_first_row(self, monkeypatch, case):
        # A count, not a timing: each search's scalar guess lies in the row
        # that _first returns, so its two rows settle the search. The guess
        # roots, the leaky clamp's and a storage cap's release, stop once
        # their row is known, and still name it. Ten cycles, and the pending
        # clamp rows of the ideal rail too.
        searches = record_searches(monkeypatch)
        cfg = make_sim_config(n_cycles=10, **BOUNDARY_CASES[case])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            run(cfg).waveform._resolved()
        for f, t, lo, hi, guess, got, floats in searches:
            edge = got if got < len(t) else hi
            assert guess is not None and t.row(guess) == edge, (f.__name__, lo, hi, got)
            assert len(floats) <= 2, (f.__name__, floats)

    def test_leaky_roots_evaluate_few_times(self, monkeypatch):
        # A count, not a timing: on the default leaky regime the roots of
        # each half cycle evaluate over() 7 times at most. The clamp's guess
        # root stops at its row, after about 2, and t_clamp, refined to 2
        # ulps from that row's bracket, takes the rest.
        counts = []
        real_root, real_segment = transient._root, transient._integrate_segment

        def root(f, *args):
            def counted(s, m=math):
                counts[-1] += f.__name__ == "over"
                return f(s, m)

            return real_root(counted, *args)

        def segment(*args):
            counts.append(0)
            return real_segment(*args)

        monkeypatch.setattr(transient, "_root", root)
        monkeypatch.setattr(transient, "_integrate_segment", segment)
        cfg = make_sim_config(n_cycles=10, **REGIMES["leaky"])
        run(cfg)
        assert len(counts) == 2 * cfg.n_cycles and 0 < min(counts) and max(counts) <= 7, counts

    def test_grid_row_is_the_first_row_at_or_past_a_time(self):
        # _Grid.row(s) is the first row m >= 1 whose float time is >= s, and
        # n + 1 past the last, also where (s - t0)/dt rounds across a row:
        # a bracket's end and a guess's two rows rest on it.
        rng = np.random.default_rng(3)
        for _ in range(200):
            t0, dt, n = rng.uniform(0.0, 1e3), 10.0 ** rng.uniform(-9, -3), int(rng.integers(1, 5000))
            t = transient._Grid(t0, dt, n, t0 + dt * (n + 0.5))
            times = t[:]
            for m in rng.integers(0, n + 2, 20):
                s = float(times[m])
                for probe in (s, math.nextafter(s, -math.inf), math.nextafter(s, math.inf)):
                    want = 1 + int(np.searchsorted(times[1:], probe))
                    assert t.row(probe) == min(want, n + 1), (t0, dt, n, m, probe)

    @pytest.mark.parametrize("n", [2, 5, 64, 65, 66, 130, 200, 4097, 4098, 4162, 8200])
    def test_first_on_every_interval(self, n):
        # _first on a grid of n rows whose times are their indices, over
        # brackets lo..hi: the rows of lo..hi-1 that hold are a suffix from
        # the edge e (e = hi: none of them), row hi holds or fails, and the
        # rows past hi hold only if hi does. Every edge on a bracket of up to
        # 200 rows, and on a longer one the edges near its ends, its middle
        # and every 97th row. A guess is absent, exact, 1 or 3 rows off, or
        # far off (the first row, the crossing and past it). _first returns
        # the first row of the bracket that holds, evaluating floats alone,
        # two of them for an exact guess, and a bisection's count otherwise.
        t = transient._Grid(0.0, 1.0, n - 2, float(n - 1))
        for lo in {1, 2, n // 2, n - 1} & set(range(1, n)):
            for hi in {lo, lo + 1, lo + 2, (lo + n - 1) // 2, n - 2, n - 1} & set(range(lo, n)):
                edges = set(range(lo, hi + 1))
                if hi - lo > 200:
                    middle = (lo + hi) // 2
                    edges = {e for d in range(4) for e in (lo + d, middle + d - 2, hi - d)}
                    edges |= set(range(lo, hi, 97))
                bound = math.ceil(math.log2(hi - lo + 1)) + 3
                for e, hi_holds in ((e, h) for e in edges for h in (False, True)):
                    for after in {False, hi_holds}:
                        evals = []

                        def f(s, m, e=e, hi_holds=hi_holds, after=after):
                            assert m is transient._FLOAT and isinstance(s, float)
                            row = int(s)
                            evals.append(row)
                            held = e <= row < hi or (row == hi and hi_holds) or (row > hi and after)
                            return (1.0 if held else -1.0), None

                        want = e if e < hi else hi if hi_holds else n
                        for g in (None, e, e - 1, e + 1, e - 3, e + 3, 1, n - 1, n + 100):
                            evals.clear()
                            got = transient._first(f, t, lo, hi, None if g is None else float(g))
                            assert got == want, (lo, hi, e, hi_holds, g, got)
                            assert len(evals) <= (2 if g == e else bound), (lo, hi, e, g, evals)

    @pytest.mark.parametrize("case", ["leaky", "finite_storage", "leaky_finite_storage_217Hz",
                                      "start_on_rail_leak_pulls_off", "start_beyond_rail"])
    def test_refined_crossings_turn_within_two_ulps(self, monkeypatch, case):
        # Each root whose time enters the plan (t_clamp, t_release, the free
        # node's maximum) turns within 2 ulps. A guess root, given its grid,
        # is found only to its row: test_each_guess_names_the_first_row
        # checks those.
        calls = record(monkeypatch, "_root")
        run(make_sim_config(n_cycles=2, **BOUNDARY_CASES[case]))
        refined = [((f, a, b), r) for (f, a, b, _, *grid), r in calls if not grid]
        assert refined
        for (f, a, b), r in refined:
            assert a <= r <= b
            assert f(r, math)[0] >= 0.0 or r == b
            below, x = [], r
            while x > a and x >= r - 2.0 * math.ulp(r):
                x = math.nextafter(x, -math.inf)
                below.append(f(x, math)[0] < 0.0)
            assert r - 2.0 * math.ulp(r) <= a or any(below), (f.__name__, a, r, b)

    @pytest.mark.parametrize("g", [0.0, 1e2], ids=["no_decay", "decay"])
    def test_rise_on_a_slice_is_bit_identical(self, g):
        # Each piece is evaluated on its own slice of the grid, from row 1 at
        # the earliest; that must give the bits of one evaluation over the
        # whole grid.
        t0 = 1.23e-3
        t = t0 + 1e-6 * np.arange(10_001)
        rise = transient._rise(t0, -0.7, 5e3, g, 2 * math.pi * 100.0)
        whole = rise(t)
        for length in (1, 7, 64, 5000):
            for start in (1, 17, 1001, 4999):
                part = rise(t[start : start + length])
                assert part.tobytes() == whole[start : start + length].tobytes()

    @pytest.mark.parametrize("case", ["ideal", "leaky", "finite_storage", "weak_excitation"])
    def test_each_sample_is_evaluated_once(self, monkeypatch, case):
        # A count, not a timing: run() evaluates the rows of its boundary
        # searches, and a read of vpt each sample once besides the rows of
        # the searches that find the clamp rows run() left pending. Where a
        # scalar form guesses a boundary (every clamp here, the release on a
        # fixed rail), its search evaluates two rows per half cycle, whether
        # run() or the read makes it, and a leaky clamp that never reaches
        # the rail none. On the ideal rail run() searches nothing and
        # evaluates the crossing row alone. A later read of vs runs no search
        # and evaluates each sample at most once, as the read of vpt did.
        seen = [0]
        real = transient._rise

        def counting(*piece):  # each bound piece counts the times it is evaluated at
            rise = real(*piece)

            def counted(t, m=np):
                seen[0] += np.size(t)
                return rise(t, m)

            return counted

        monkeypatch.setattr(transient, "_rise", counting)
        searched = count_search_rows(monkeypatch)
        cfg = make_sim_config(n_cycles=10, **BOUNDARY_CASES[case])
        wf = run(cfg).waveform
        planned, seen[0] = seen[0], 0
        by_run = sum(searched.values())
        halves = 2 * cfg.n_cycles
        if case == "ideal":
            assert planned == halves and by_run == 0, (planned, searched)
        assert len(wf.vpt) == len(wf)
        resolving = sum(searched.values()) - by_run  # rows of the read's searches
        assert searched["over"] <= 2 * halves, searched
        if isinstance(cfg.stage.storage, FixedVoltage):
            assert searched["backward"] <= 2 * halves, searched
        assert planned <= len(wf) * (1 + 1 / 16), planned / len(wf)
        assert seen[0] - resolving <= len(wf), seen[0] / len(wf)
        seen[0], before = 0, dict(searched)
        assert len(wf.vs) == len(wf)
        assert dict(searched) == before, searched
        assert seen[0] <= len(wf), seen[0] / len(wf)


def check_leak_free_run(cfg, result, searched):
    """A run on a fixed rail without leak against its brute-force rows: each
    half cycle's clamp row is argmax's over every row of run()'s `over` (0
    for a start on the rail), and that row alone decides the vpt column, the
    crossing row's v_end, the event that starts from it, the ledger's
    q_storage and q_harvested, and the final state. searched holds the
    (args, index) of each search run() made: one for each half cycle whose
    crossing row fails, and none where it holds, which the plan leaves
    pending. Reads vpt, so the Waveform finds the pending rows."""
    wf, c = result.waveform, transient._Circuit.of(cfg)
    pending = [h.i is None for h in wf._plan]
    vpt = wf.vpt
    q_storage = q_harvested = 0.0
    row, befores, unheld = 0, [], []
    for h, flip, was_pending in zip(wf._plan, wf._flips, pending):
        t = transient._Grid(h.t0, c.dt, h.n, h.t_end)
        n, vth = len(t), h.vs0 + c.two_vd
        x = h.v0 + transient._rise(h.t0, h.v0, c.kf, c.gf, c.w)(t[1:])
        held = h.sign * x - vth >= 0.0
        if h.i == 0:  # held from the start
            assert h.sign * h.v0 >= vth and not was_pending, h
            i = 0
        else:
            i = first_held(h.sign * x - vth, 1, n)
            assert was_pending == bool(held[-1]), h  # pending exactly where the crossing row holds
            if not held[-1]:
                unheld.append(h.t0)
        assert h.i == i, h
        rows = np.where(np.arange(1, n) >= i, h.sign * vth + 0.0, x)
        assert rows.tobytes() == vpt[row + 1 : row + n].tobytes(), h
        v_end = float(rows[-1])
        assert repr(h.v_end) == repr(v_end), h
        befores.append(v_end)
        q_source = c.ip / c.w * (math.cos(c.w * h.t0) - math.cos(c.w * h.t_end))
        q = q_source - c.cp * (v_end - h.v0) if i < n else 0.0
        q_storage += q
        q_harvested += h.sign * q
        row += n - 1 + len(flip)
    assert sorted(args[1].t0 for args, _ in searched) == unheld
    assert all(args[0].__name__ == "over" for args, _ in searched)
    assert result.ledger.q_storage == q_storage
    final = result.final_state
    assert final.q_harvested == q_harvested
    if cfg.sshc is not None:
        assert repr([e.v_before for e in result.events]) == repr(befores)
    else:
        assert repr(final.vpt) == repr(befores[-1])
    assert (final.t, final.vpt, final.vt, final.vs) == (wf.t[-1], vpt[-1], wf.vt[-1], wf.vs[-1])


def crossing_map(cfg):
    """A leak-free run in closed form, one scalar step per half cycle and no
    grid: (the node before each flip, the final node, the final storage
    voltage). A start beyond the rail is clipped onto it, a storage cap
    taking the excess charge. The free node then moves one way all half
    cycle, by q/C_P with q = I_P/w*(cos(w*t0) - cos(w*t_end)). Where that
    takes it to the rail s*(vs' + 2*vd), s the current's sign, it ends
    there: a fixed rail keeps vs' = vs, and by charge balance a storage cap
    C_S takes vs' = (s*q + s*C_P*v0 - 2*C_P*vd + C_S*vs)/(C_P + C_S). t0 is
    the last pulse row's time after a flip, the crossing on the full bridge."""
    src, stage = cfg.src, cfg.stage
    cp, w, two_vd = src.cap_cp, src.omega, 2.0 * stage.diode_drop_vd
    cs = stage.storage.cs if isinstance(stage.storage, FiniteCap) else math.inf
    v, vs = cfg.vpt_initial, stage.storage_voltage
    vt = cfg.sshc.volt_vt if cfg.sshc is not None else 0.0
    t0, befores = 0.0, []
    for _, t_end, s in crossings(cfg):
        if abs(v) > vs + two_vd:
            if cs < math.inf:
                vs = (cp * (abs(v) - two_vd) + cs * vs) / (cp + cs)
            v = math.copysign(vs + two_vd, v)
        q = src.amplitude_ip / w * (math.cos(w * t0) - math.cos(w * t_end))
        free = v + q / cp
        if s * free >= vs + two_vd:
            if cs < math.inf:
                vs = (s * q + s * cp * v - cp * two_vd + cs * vs) / (cp + cs)
            free = s * (vs + two_vd)
        v, t0 = free, t_end
        if cfg.sshc is not None:
            befores.append(v)
            last = apply_flip(CircuitState(t_end, v, vt, vs, 0.0), cfg)[-1]
            t0, v, vt = last.t, last.vpt, last.vt
    return befores, v, vs


class TestChartFeed:
    """svg.Envelope keeps one entry per pixel column, which holds only while
    the t it is fed never decreases: write_csv's walk feeds it t in the
    waveform's row order."""

    class Recorder:
        def __init__(self):
            self.chunks = []

        def add(self, t, ys):
            self.chunks.append(np.asarray(t, dtype=np.float64))

    CASES = {
        **BOUNDARY_CASES,
        "full_bridge": {"ct": None},
        # Pulses of 1e-30 s with no gap: a pulse row's t equals the one
        # before it.
        "instant_pulses": {"phase_pulse_width": 1e-30, "phase_gap": 0.0},
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_t_never_decreases(self, case):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            wf = run(make_sim_config(n_cycles=2, **self.CASES[case])).waveform
        chart = self.Recorder()
        wf.write_csv(io.StringIO(), chart)
        t = np.concatenate(chart.chunks)
        assert np.array_equal(t, wf.t)
        for chunk in chart.chunks:
            assert np.all(chunk[1:] >= chunk[:-1])
        assert all(b[0] >= a[-1] for a, b in zip(chart.chunks, chart.chunks[1:]))
        if case == "instant_pulses":
            assert np.count_nonzero(t[1:] == t[:-1]) == 12

    @pytest.mark.parametrize("divisor, n_cycles", [(10_000, 10), (100_000, 1)])
    def test_one_feed_per_window(self, divisor, n_cycles):
        # Row 0, then each window of a half cycle, with the flip's rows in its
        # last, in one call: one per half cycle at the default dt.
        wf = run(make_sim_config(n_cycles=n_cycles, dt=0.01 / divisor)).waveform
        chart = self.Recorder()
        wf.write_csv(io.StringIO(), chart)
        windows = sum(-(-(h.n + 1) // transient._WINDOW) for h in wf._plan)
        assert len(chart.chunks) == 1 + windows
        assert windows == 2 * n_cycles * (1 if divisor == 10_000 else 7)


class TestPendingClampRows:
    """On a fixed rail without leak no result of run() needs a clamp row: a
    crossing row that holds puts the node on the rail there, and the events,
    ledger and final state follow from that. run() leaves such a row pending;
    the Waveform finds it, by the search run() would have made, at the first
    read of any column or write_csv, and keeps it."""

    @pytest.mark.parametrize("read", ["t", "vpt", "vt", "vs", "phase", "write_csv"])
    @pytest.mark.parametrize("ct", [100 * 10e-9, None], ids=["ct=100cp", "full_bridge"])
    def test_a_sample_read_searches_once(self, monkeypatch, ct, read):
        calls = record(monkeypatch, "_first")
        cfg = make_sim_config(ct=ct, n_cycles=20, **REGIMES["ideal"])
        wf = run(cfg).waveform
        assert calls == []  # every crossing row holds
        assert all(h.i is None for h in wf._plan)

        def sample(name):
            if name == "write_csv":
                wf.write_csv(io.StringIO())
            else:
                getattr(wf, name)

        sample(read)
        assert len(calls) == len(wf._plan) == 2 * cfg.n_cycles
        for (f, t, lo, hi, guess), got in calls:
            assert f.__name__ == "over" and (lo, hi) == (1, len(t) - 1) and guess is not None
        assert [h.i for h in wf._plan] == [got for _, got in calls]
        calls.clear()
        for name in ("t", "vpt", "vt", "vs", "phase", "write_csv"):
            sample(name)
        assert calls == []
        check_plan_boundaries(cfg, wf)

    @pytest.mark.parametrize("ct", [10e-9, None], ids=["sshc", "full_bridge"])
    def test_a_graze_at_the_crossing(self, monkeypatch, ct):
        # I_P bisected until the second half cycle's free node meets the rail
        # on its crossing row (u = -1), then moved by a few margins and a few
        # ulps about that point. A crossing row that fails is searched by
        # run(), one that holds is left pending, and either way the run is
        # the one its brute-force rows give.
        calls = record(monkeypatch, "_first")

        def graze(ip):  # the last crossing row past the rail, the run and run()'s searches
            calls.clear()
            cfg = make_sim_config(ct=ct, n_cycles=1, src=make_source(ip=ip))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakExcitationWarning)
                result = run(cfg)
            h, c = result.waveform._plan[-1], transient._Circuit.of(cfg)
            t = transient._Grid(h.t0, c.dt, h.n, h.t_end)
            return free_over(c, h, t)[-1], cfg, result, list(calls)

        lo_ip, hi_ip = 1e-6, 50e-6
        for _ in range(60):
            mid = 0.5 * (lo_ip + hi_ip)
            lo_ip, hi_ip = (mid, hi_ip) if graze(mid)[0] < 0.0 else (lo_ip, mid)
        _, cfg, result, _ = graze(hi_ip)
        h, c = result.waveform._plan[-1], transient._Circuit.of(cfg)
        vth = h.vs0 + c.two_vd
        # At the graze the free node swings vth - sign*v0 in proportion to I_P.
        margin_ip = hi_ip * transient._margin(h.v0, vth, c.kf, c.w, h.t_end) / (
            vth - h.sign * h.v0
        )
        ips = [hi_ip + k * margin_ip for k in (-3.0, -1.5, -0.5, 0.5, 1.5, 3.0)]
        ips += [lo_ip, hi_ip, math.nextafter(lo_ip, 0.0), math.nextafter(hi_ip, 1.0)]
        seen = set()
        for ip in ips:
            value, cfg, result, searched = graze(ip)
            if abs(ip - hi_ip) > margin_ip:
                assert (value >= 0.0) == (ip > hi_ip), (ip, value)
            check_leak_free_run(cfg, result, searched)
            seen.add("pending" if value >= 0.0 else "searched")
        assert seen == {"pending", "searched"}

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        ip=log_uniform(1e-7, 1e-4),
        f=log_uniform(10.0, 1e4),
        cp=log_uniform(1e-10, 1e-7),
        vs=st.floats(0.0, 3.0),
        vd=st.floats(0.0, 0.3),
        ct_ratio=st.one_of(st.none(), log_uniform(0.1, 100.0)),
        cs_ratio=st.one_of(st.none(), log_uniform(1.0, 1e3)),
        start=st.floats(-6.0, 6.0),
        n_cycles=st.integers(1, 20),
    )
    def test_crossing_map(self, ip, f, cp, vs, vd, ct_ratio, cs_ratio, start, n_cycles):
        # Without a leak a half cycle is piecewise affine in its start, so
        # the events and final state follow from scalar steps with no grid,
        # no search and no sample: run()'s v_end, pending or searched, must
        # agree with them on every leak-free rail, full swing or weak.
        storage = FiniteCap(cs_ratio * cp, vs) if cs_ratio else FixedVoltage(vs)
        cfg = make_sim_config(
            ct=ct_ratio and ct_ratio * cp, n_cycles=n_cycles, src=make_source(ip, f, cp),
            stage=make_stage(vd=vd, storage=storage), vpt_initial=start,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            result = run(cfg)
        befores, v_final, vs_final = crossing_map(cfg)
        scale = max(abs(start), vs_final + 2.0 * vd, 2.0 * ip / (cp * cfg.src.omega))
        got = [e.v_before for e in result.events] + [result.final_state.vpt, result.final_state.vs]
        for a, b in zip(got, befores + [v_final, vs_final], strict=True):
            assert abs(a - b) <= 1e-13 * scale, (a, b, scale)


def pulse_rows(wf):
    """The three pulse rows of each flip, one flip per row of the result."""
    return np.flatnonzero(wf.phase != "Idle").reshape(-1, 3)


def with_sshc(cfg, ratio, volt_vt):
    return replace(cfg, sshc=SshcNetwork(cap_ct=ratio * cfg.src.cap_cp, volt_vt=volt_vt))


class TestFlipMatchesApplyPhase:
    """run() flips through apply_flip()'s function: from each pre-flip row,
    apply_flip() gives the bits of the pulse rows, t and phase included, and
    of run()'s flip charges."""

    @staticmethod
    def check(cfg):
        """Compare run(cfg)'s flips with apply_flip's; return run()'s result."""
        result = run(cfg)
        wf = result.waveform
        rows = list(zip(*(getattr(wf, name).tolist() for name in transient._COLUMNS)))
        ledger = ChargeLedger()
        for pulses, event in zip(pulse_rows(wf), result.events):
            pre = CircuitState(*rows[pulses[0] - 1][:4], q_harvested=0.0)
            assert pre.vpt == event.v_before
            states = apply_flip(pre, cfg, ledger)
            want = [(s.t, s.vpt, s.vt, s.vs, s.phase.value) for s in states]
            assert repr([rows[row] for row in pulses]) == repr(want)  # repr tells -0.0 from 0.0
            assert event.v_after == states[-1].vpt
            assert event.efficiency == abs(states[-1].vpt) / abs(event.v_before)
        assert result.ledger.q_cleared == ledger.q_cleared
        assert result.ledger.q_reversal == ledger.q_reversal
        return result

    @pytest.mark.parametrize(
        "ratio, volt_vt",
        [(1.0, 0.0), (100.0, 0.0), (1.0, 0.7), (10.0, 8.0)],
        ids=["ct=cp", "ct=100cp", "vt=0.7", "ct=10cp_vt=8"],
    )
    def test_pulse_rows_events_and_ledger(self, ratio, volt_vt):
        for regime in REGIMES:
            cfg = with_sshc(make_sim_config(n_cycles=1, **REGIMES[regime]), ratio, volt_vt)
            signs = [math.copysign(1.0, e.v_before) for e in self.check(cfg).events]
            assert signs == [1.0, -1.0], regime  # both polarities

    def test_order_follows_the_node_not_the_current(self):
        # The first crossing turns the current from positive to negative, but
        # this weak source leaves the node below zero there: PhiN runs first.
        cfg = make_sim_config(n_cycles=1, src=make_source(ip=1e-6), vpt_initial=-2.0)
        with pytest.warns(WeakExcitationWarning):
            result = self.check(cfg)
        assert result.waveform._plan[0].sign == 1
        assert result.events[0].v_before < 0.0
        first = pulse_rows(result.waveform)[0]
        assert result.waveform.phase[first].tolist() == ["PhiN", "Phi0", "PhiP"]


class TestRowOwnership:
    """A half cycle's slice of the timeline starts at the previous row, which
    it must not write: row 0 keeps the start and each flip's last pulse row
    its post-flip value, even where the next half cycle clips that value."""

    @pytest.mark.parametrize("start", [1.5, 1.0, -1.5], ids=["above", "on_rail", "below"])
    @pytest.mark.parametrize("regime", ["ideal", "leaky", "finite_storage"])
    def test_row_zero_keeps_the_start(self, regime, start):
        cfg = make_sim_config(n_cycles=1, vpt_initial=start * 2.4, **REGIMES[regime])
        wf = run(cfg).waveform
        row = (wf.t[0], wf.vpt[0], wf.vt[0], wf.vs[0], wf.phase[0])
        assert row == (0.0, cfg.vpt_initial, 0.0, 2.0, "Idle")

    @pytest.mark.parametrize("regime", ["ideal", "leaky", "finite_storage"])
    def test_pulse_rows_keep_the_flip(self, regime):
        # A C_T precharged to 8 V flips the node past the next half cycle's
        # rail, so that half cycle starts by clipping it onto the rail.
        cfg = with_sshc(make_sim_config(n_cycles=2, **REGIMES[regime]), 10.0, 8.0)
        result = run(cfg)
        wf = result.waveform
        assert len(pulse_rows(wf)) == len(result.events) == 4
        assert abs(result.events[0].v_after) > 2.4
        for (_, _, last), event in zip(pulse_rows(wf), result.events):
            assert wf.vpt[last] == event.v_after

    @pytest.mark.parametrize("ct", [10e-9, None], ids=["sshc", "full_bridge"])
    @pytest.mark.parametrize("regime", list(REGIMES))
    def test_final_state_is_the_last_row(self, regime, ct):
        result = run(make_sim_config(ct=ct, n_cycles=2, **REGIMES[regime]))
        wf, final = result.waveform, result.final_state
        last = (wf.t[-1], wf.vpt[-1], wf.vt[-1], wf.vs[-1])
        assert (final.t, final.vpt, final.vt, final.vs) == last


class TestMemory:
    @pytest.mark.parametrize("regime", ["ideal", "leaky", "finite_storage", "full_bridge"])
    def test_peak_stays_near_the_columns(self, regime):
        # Traced bytes, not time, so the bound is deterministic. Each read
        # allocates its column once at full length and fills it one half
        # cycle at a time, so holding all five columns peaks at their bytes
        # plus one half cycle's temporaries.
        kwargs = {"ct": None} if regime == "full_bridge" else REGIMES[regime]
        cfg = make_sim_config(n_cycles=10, **kwargs)
        run(cfg).waveform.phase  # one-time allocations stay out of the trace
        tracemalloc.start()
        try:
            wf = run(cfg).waveform
            columns = [wf.t, wf.vpt, wf.vt, wf.vs, wf.phase]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        held = sum(c.nbytes for c in columns)
        assert peak <= 1.25 * held, peak / held

    @pytest.mark.parametrize("divisor", [10_000, 100_000])
    def test_run_holds_no_samples(self, divisor):
        # The paper's slow-convergence case, C_T = 100 C_P over 300 cycles,
        # has 2.96M samples at dt = T/10000 (142 MB of columns when they were
        # stored) and ten times that at T/100000. run() keeps only each half
        # cycle's plan and flip rows, so its peak does not grow with dt.
        cfg = make_sim_config(ct=100 * 10e-9, n_cycles=300, dt=0.01 / divisor)
        run(make_sim_config(n_cycles=1))  # one-time allocations stay out of the trace
        tracemalloc.start()
        try:
            result = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(result.events) == 600
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("divisor", [10_000, 100_000])
    @pytest.mark.parametrize("case", ["leaky", "leaky_weak_sshc", "finite_storage", "full_bridge"])
    def test_run_holds_no_samples_in_any_regime(self, case, divisor):
        # The boundary searches evaluate single rows as floats, so run()'s
        # peak stays under the same bound in every regime, also where a leaky
        # node never reaches the rail.
        kwargs = {"ct": None} if case == "full_bridge" else BOUNDARY_CASES[case]
        cfg = make_sim_config(n_cycles=2, dt=0.01 / divisor, **kwargs)
        run(make_sim_config(n_cycles=1))  # one-time allocations stay out of the trace
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            tracemalloc.start()
            try:
                run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("case", ["leaky", "leaky_weak_sshc", "leaky_finite_storage_217Hz",
                                      "start_on_rail_leak_pulls_off"])
    def test_search_allocates_no_array_at_a_fine_dt(self, monkeypatch, case):
        # At dt = 1e-8 s (T/1e6 at 100 Hz) a half cycle has 2.3e5 to 5e5
        # rows. Every boundary search evaluates single rows as floats, and a
        # leaky node that never reaches the rail is not searched, so run()'s
        # traced peak is that of its plan: below one float64 array of 2,048
        # rows, however many rows a half cycle has.
        searches = record_searches(monkeypatch)  # fails on an array
        cfg = make_sim_config(n_cycles=2, dt=0.01 / 1_000_000, **BOUNDARY_CASES[case])
        run(make_sim_config(n_cycles=1))  # one-time allocations stay out of the trace
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            tracemalloc.start()
            try:
                run(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2048, peak
        assert searches or case == "leaky_weak_sshc"

    def test_csv_write_peak_does_not_grow_with_dt(self):
        # write_csv walks each half cycle in windows of _WINDOW rows, and
        # csvout formats a window's blocks in chunks of bounded size, so its
        # traced peak is that of a window, whatever the rows of a half cycle:
        # 5e4 at T/1e5 and 5e5 at T/1e6.
        class Sink:
            def write(self, text):
                pass

        run(make_sim_config(n_cycles=1)).waveform.write_csv(Sink())  # one-time allocations
        for divisor in (100_000, 1_000_000):
            wf = run(make_sim_config(n_cycles=1, dt=0.01 / divisor)).waveform
            wf._resolved()
            tracemalloc.start()
            try:
                wf.write_csv(Sink())
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4_000_000, (divisor, peak)


class TestOnDemandSamples:
    """The Waveform evaluates its samples from each half cycle's plan when
    read. Each piece is one numpy call over its rows and an element's bits do
    not depend on its neighbours, so every way of reading gives the same
    bits."""

    CASES = {
        **{name: REGIMES[name] for name in ("ideal", "leaky", "finite_storage")},
        "never_reaches_rail": BOUNDARY_CASES["weak_excitation"],
    }

    @staticmethod
    def csv_values(wf, monkeypatch):
        """Every row write_csv formats, as exact floats: (t, vpt, vt, vs)
        columns and the phase tokens. A block's varying fields come from its
        columns and its constant fields from its row template, whose numbers
        are taken in repr, which round-trips, instead of at 12 digits. A held
        block on a fixed rail carries vpt as a constant, so only t varies."""
        monkeypatch.setattr(transient, "fmt", lambda x: repr(float(x)))
        rows, tokens = [], []
        for fields, columns in wf._csv_blocks():
            varying = iter(columns)
            spread = [next(varying) if f in ("g", "s") else [f] * len(columns[0]) for f in fields]
            for *numbers, phase in zip(*spread):
                rows.append(tuple(map(float, numbers)))
                tokens.append(phase)
        return np.array(rows).T, tokens

    @pytest.mark.parametrize("case", list(CASES))
    def test_columns_equal_the_csv_values(self, monkeypatch, case):
        wf = run(make_sim_config(n_cycles=3, **self.CASES[case])).waveform
        (t, vpt, vt, vs), tokens = self.csv_values(wf, monkeypatch)
        for got, column in ((t, wf.t), (vpt, wf.vpt), (vt, wf.vt), (vs, wf.vs)):
            assert got.tobytes() == column.tobytes()
        assert tokens == wf.phase.tolist()

    @pytest.mark.parametrize("case", list(CASES))
    def test_two_reads_are_identical(self, case):
        wf = run(make_sim_config(n_cycles=3, **self.CASES[case])).waveform
        for name in ("t", "vpt", "vt", "vs", "phase"):
            first, second = getattr(wf, name), getattr(wf, name)
            assert first is not second
            assert first.tobytes() == second.tobytes(), name

    @staticmethod
    def walk(h, lo, hi, c):
        """Rows lo..hi-1 of half cycle h as _pieces yields them: the row
        numbers, vpt and rise, each run's constant spread over its rows."""
        rows, vpt, rise = [], [], []
        for a, b, _, v, r in transient._pieces(h, lo, hi, c):
            rows.append(np.arange(a, b))
            vpt.append(np.broadcast_to(v, b - a))
            rise.append(np.broadcast_to(r, b - a))
        return [np.concatenate(x) for x in (rows, vpt, rise)]

    @pytest.mark.parametrize("case", list(CASES))
    def test_a_half_cycle_filled_in_parts(self, case):
        cfg = make_sim_config(n_cycles=2, **self.CASES[case])
        wf = run(cfg).waveform
        c = transient._Circuit.of(cfg)
        for h in wf._resolved():
            end = h.n + 2
            rows, vpt, rise = self.walk(h, 1, end, c)
            assert rows.tolist() == list(range(1, end))
            for split in sorted({2, h.i, h.i + 1, h.j, end // 2, end - 1} & set(range(2, end))):
                low, high = self.walk(h, 1, split, c), self.walk(h, split, end, c)
                parts = [np.concatenate(pair) for pair in zip(low, high)]
                assert parts[0].tolist() == list(range(1, end)), (h, split)  # no gap, no overlap
                assert parts[1].tobytes() == vpt.tobytes(), (h, split)
                assert parts[2].tobytes() == rise.tobytes(), (h, split)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(
        ip=log_uniform(1e-7, 1e-4),
        f=log_uniform(10.0, 1e4),
        cp=log_uniform(1e-10, 1e-7),
        rp=log_uniform(1e3, 1e9),
        vs=st.floats(0.0, 3.0),
        vd=st.floats(0.0, 0.3),
        ct_ratio=st.one_of(st.none(), log_uniform(0.1, 100.0)),
        cs_ratio=st.one_of(st.none(), log_uniform(1.0, 1e3)),
    )
    # A leaky SSHC node on a fixed rail whose v_end moved by one ulp when the
    # crossing row took expm1 from math rather than numpy.
    @example(ip=8.056497574634522e-06, f=74.55291883386664, cp=2.379875694701789e-08,
             rp=270759.8937408094, vs=2.5879469333391283, vd=0.046253878848853215,
             ct_ratio=3.193669391587786, cs_ratio=None)
    def test_crossing_row_is_its_own_sample(self, ip, f, cp, rp, vs, vd, ct_ratio, cs_ratio):
        # run() evaluates each half cycle's crossing row as floats, a column
        # read as an element of an array. On a leaky node both must take
        # expm1 from numpy: math.expm1 differs from np.expm1 by an ulp on
        # about 0.7% of arguments, and the flip starts from the crossing row.
        storage = FiniteCap(cs_ratio * cp, vs) if cs_ratio else FixedVoltage(vs)
        cfg = make_sim_config(
            ct=ct_ratio and ct_ratio * cp, n_cycles=3, src=make_source(ip, f, cp, rp),
            stage=make_stage(vd=vd, storage=storage),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            result = run(cfg)
        wf = result.waveform
        rows, row = [], 0  # each half cycle's crossing row: its grid's last
        for h, flip in zip(wf._plan, wf._flips):
            rows.append(row + h.n + 1)
            row = rows[-1] + len(flip)
        vpt, vs_column = wf.vpt[rows].tolist(), wf.vs[rows].tolist()
        assert repr([h.v_end for h in wf._plan]) == repr(vpt)
        assert repr([h.vs_end for h in wf._plan]) == repr(vs_column)
        if result.events:
            assert repr([e.v_before for e in result.events]) == repr(vpt)
        else:
            assert repr(result.final_state.vpt) == repr(vpt[-1])

    def test_held_rows_lead_with_t_alone(self):
        # On a fixed rail the clamped rows share vpt, so their blocks carry
        # it in the row template and convert only t: most rows of a default run.
        wf = run(make_sim_config(n_cycles=3)).waveform
        held = sum(len(columns[0]) for fields, columns in wf._csv_blocks() if fields[1] != "g")
        assert held > len(wf) // 2


def rendered_csv(wf):
    """waveform.csv rendered row by row from the five whole columns."""
    rows = zip(wf.t.tolist(), wf.vpt.tolist(), wf.vt.tolist(), wf.vs.tolist(), wf.phase.tolist())
    return "t_s,vpt_V,vt_V,vs_V,phase\n" + "".join(
        "%.12g,%.12g,%.12g,%.12g,%s\n" % row for row in rows
    )


class TestCsvOracle:
    """Waveform.write_csv writes exactly the rows of a plain printf over the
    whole columns, however it splits them into blocks."""

    CASES = {
        **BOUNDARY_CASES,
        "full_bridge": {"ct": None},
        "zero_rail": {"stage": make_stage(vs=0.0, vd=0.0)},
        "zero_rail_full_bridge": {"ct": None, "stage": make_stage(vs=0.0, vd=0.0)},
        "instant_pulses": TestChartFeed.CASES["instant_pulses"],
    }

    @staticmethod
    def check(cfg):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            wf = run(cfg).waveform
        # Each half cycle is at most its free, held and released blocks, one
        # more per window boundary, which splits one run, and one block of
        # pulse rows, however many rows share a vs. Each block carries its
        # varying fields, and no other, as columns of one length.
        pulse_blocks = 1 if cfg.sshc is not None else 0
        windows = sum(-(-(h.n + 1) // transient._WINDOW) for h in wf._plan)
        blocks = list(wf._csv_blocks())
        assert len(blocks) <= 1 + windows + 2 * cfg.n_cycles * (2 + pulse_blocks)
        for fields, columns in blocks:
            assert len(columns) == sum(f in ("g", "s") for f in fields)
            assert len({len(c) for c in columns}) == 1
        buf = io.StringIO()
        wf.write_csv(buf)
        got, want = buf.getvalue(), rendered_csv(wf)
        if got != want:  # name the first row that differs, not a diff of the whole file
            rows = enumerate(zip(got.splitlines(), want.splitlines()))
            row, pair = next(((k, p) for k, p in rows if p[0] != p[1]), (None, None))
            pytest.fail(f"{len(got)} != {len(want)} characters; first differing row {row}: {pair}")

    @pytest.mark.parametrize("case", list(CASES))
    def test_named_cases(self, case):
        self.check(make_sim_config(n_cycles=2, **self.CASES[case]))

    @pytest.mark.parametrize("case", list(CASES))
    def test_rows_follow_the_plan(self, case):
        # The row layout from the plan, the flips and pulse_times alone, not
        # from the walk that writes both the columns and waveform.csv: row 0
        # is the initial state; each half cycle's grid rows are t0 + dt*m and
        # the crossing, with the plan's vt and the Idle phase; a flip's rows
        # follow at the pulse times of the crossing, PhiP, Phi0, PhiN from a
        # node >= 0 and the reverse below it.
        cfg = make_sim_config(n_cycles=2, **self.CASES[case])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakExcitationWarning)
            result = run(cfg)
        wf, c, s = result.waveform, transient._Circuit.of(cfg), result.initial_state
        t, vt, phase = [np.array([s.t])], [np.array([s.vt])], [Phase.IDLE.value]
        pulse_rows, flip_rows = [], []
        order = [Phase.PHI_P.value, Phase.PHI_0.value, Phase.PHI_N.value]
        row = 1  # the half cycle's first grid row
        for h, flip in zip(wf._resolved(), wf._flips):
            t += [h.t0 + c.dt * np.arange(1, h.n + 1), np.array([h.t_end])]
            vt.append(np.full(h.n + 1, h.vt))
            phase += [Phase.IDLE.value] * (h.n + 1)
            row += h.n + 1
            assert len(flip) == (3 if cfg.sshc is not None else 0), h
            if flip:
                t.append(np.array(c.pulse_times(h.t_end)))
                vt.append(np.array([r[2] for r in flip]))
                phase += order if h.v_end >= 0.0 else order[::-1]
                pulse_rows += range(row, row + 3)
                flip_rows += flip
                row += 3
        t, vt = np.concatenate(t), np.concatenate(vt)
        assert len(wf) == len(t) == row
        assert wf.t.tobytes() == t.tobytes()
        assert wf.vt.tobytes() == vt.tobytes()
        assert wf.phase.tolist() == phase
        for k, name in ((1, "vpt"), (3, "vs")):
            got = getattr(wf, name)[pulse_rows].tolist()
            assert repr(got) == repr([float(r[k]) for r in flip_rows]), name

    @settings(max_examples=12, derandomize=True, deadline=None)
    @given(CONFIGS)
    def test_drawn_configs(self, overrides):
        try:
            cfg = parse_config(overrides=overrides).sim_config()
        except ConfigError:
            reject()
        self.check(cfg)
