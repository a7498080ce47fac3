import io
import math
from dataclasses import replace

import numpy as np
import pytest

from sshcsim import (
    ChargeLedger,
    CircuitState,
    FiniteCap,
    FlipDirection,
    FlipRatios,
    Phase,
    PhaseOrderError,
    RectifierStage,
    SimConfig,
    SshcNetwork,
    WeakExcitationWarning,
    apply_phase,
    extract_efficiency_trajectory,
    flip_efficiency_series,
    flip_step,
    run,
    step,
    write_flip_events_csv,
    zero_crossing_times,
)

from conftest import make_sim_config, make_source, make_stage


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


class TestZeroCrossings:
    def test_one_cycle_at_100hz(self):
        src = make_source(f=100.0)
        crossings = zero_crossing_times(src, 1)
        assert [t for t, _ in crossings] == pytest.approx([5e-3, 10e-3])

    def test_first_crossing_is_positive_to_negative(self):
        crossings = zero_crossing_times(make_source(), 1)
        assert crossings[0][1] is FlipDirection.POS_TO_NEG

    def test_alternating_directions(self):
        crossings = zero_crossing_times(make_source(f=50.0), 2)
        assert len(crossings) == 4
        dirs = [d for _, d in crossings]
        assert dirs == [
            FlipDirection.POS_TO_NEG,
            FlipDirection.NEG_TO_POS,
            FlipDirection.POS_TO_NEG,
            FlipDirection.NEG_TO_POS,
        ]

    def test_rejects_zero_cycles(self):
        with pytest.raises(ValueError):
            zero_crossing_times(make_source(), 0)


def idle_state(vpt, vt=0.0, vs=2.0):
    return CircuitState(t=0.0, vpt=vpt, vt=vt, vs=vs, q_harvested=0.0)


class TestApplyPhase:
    def test_share_with_equal_caps(self):
        cfg = make_sim_config()
        state = apply_phase(idle_state(vpt=2.4), Phase.PHI_P, cfg)
        assert state.vpt == pytest.approx(1.2, abs=1e-15)
        assert state.vt == pytest.approx(1.2, abs=1e-15)

    def test_short_clears_cp_only(self):
        cfg = make_sim_config()
        state = apply_phase(idle_state(vpt=2.4), Phase.PHI_P, cfg)
        state = apply_phase(state, Phase.PHI_0, cfg)
        assert state.vpt == 0.0
        assert state.vt == pytest.approx(1.2, abs=1e-15)

    def test_full_sequence_from_fixed_point(self):
        # With the flip cap pre-charged at the steady-state value 0.8 V the
        # sequence inverts 2.4 V to exactly -0.8 V.
        cfg = make_sim_config()
        state = idle_state(vpt=2.4, vt=0.8)
        for phase in (Phase.PHI_P, Phase.PHI_0, Phase.PHI_N):
            state = apply_phase(state, phase, cfg)
        assert state.vpt == pytest.approx(-0.8, abs=1e-12)
        assert state.vt == pytest.approx(0.8, abs=1e-12)

    def test_mirrored_sequence_for_negative_crossing(self):
        cfg = make_sim_config()
        state = idle_state(vpt=-2.4, vt=0.8)
        for phase in (Phase.PHI_N, Phase.PHI_0, Phase.PHI_P):
            state = apply_phase(state, phase, cfg)
        assert state.vpt == pytest.approx(0.8, abs=1e-12)

    def test_out_of_order_rejected(self):
        cfg = make_sim_config()
        with pytest.raises(PhaseOrderError):
            apply_phase(idle_state(vpt=2.4), Phase.PHI_N, cfg)
        with pytest.raises(PhaseOrderError):
            apply_phase(idle_state(vpt=-2.4), Phase.PHI_P, cfg)
        with pytest.raises(PhaseOrderError):
            apply_phase(idle_state(vpt=2.4), Phase.PHI_0, cfg)
        state = apply_phase(idle_state(vpt=2.4), Phase.PHI_P, cfg)
        with pytest.raises(PhaseOrderError):
            apply_phase(state, Phase.PHI_N, cfg)  # must short first

    def test_requires_sshc_network(self):
        cfg = make_sim_config(ct=None)
        with pytest.raises(ValueError):
            apply_phase(idle_state(vpt=2.4), Phase.PHI_P, cfg)

    def test_ledger_records_cleared_charge(self):
        cfg = make_sim_config()
        ledger = ChargeLedger()
        state = apply_phase(idle_state(vpt=2.4), Phase.PHI_P, cfg, ledger)
        state = apply_phase(state, Phase.PHI_0, cfg, ledger)
        assert ledger.q_cleared == pytest.approx(cfg.src.cap_cp * 1.2, rel=1e-12)


class TestStep:
    def test_blocking_region_capacitor_law(self):
        cfg = make_sim_config(ct=None)
        state = CircuitState(t=1e-3, vpt=0.5, vt=0.0, vs=2.0, q_harvested=0.0)
        new = step(state, cfg)
        expected = 0.5 + cfg.src.current(1e-3) * cfg.dt / cfg.src.cap_cp
        assert new.vpt == pytest.approx(expected, rel=1e-12)
        assert new.q_harvested == 0.0

    def test_clamped_region_routes_to_storage(self):
        cfg = make_sim_config(ct=None)
        state = CircuitState(t=2.5e-3, vpt=2.4, vt=0.0, vs=2.0, q_harvested=0.0)
        new = step(state, cfg)
        assert new.vpt == pytest.approx(2.4, abs=1e-12)
        assert new.q_harvested == pytest.approx(cfg.src.current(2.5e-3) * cfg.dt, rel=1e-12)

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
    """run() rebuilt from public step() and apply_phase() calls.

    Returns the waveform samples as (t, vpt, vs) lists, the flip events as
    tuples, the ledger, the final state and the number of steps shorter than
    cfg.dt.
    """
    state = CircuitState(
        t=0.0,
        vpt=cfg.vpt_initial,
        vt=cfg.sshc.volt_vt if cfg.sshc is not None else 0.0,
        vs=cfg.stage.storage_voltage,
        q_harvested=0.0,
    )
    ledger = ChargeLedger()
    samples = [state]
    events = []
    short_steps = 0
    for k, (t_cross, _) in enumerate(zero_crossing_times(cfg.src, cfg.n_cycles), 1):
        while state.t < t_cross - 1e-15 * t_cross:
            h = min(cfg.dt, t_cross - state.t)
            short_steps += h < cfg.dt
            state = step(state, cfg, ledger, dt=h)
            samples.append(state)
        if cfg.sshc is None:
            continue
        t0, v_before = state.t, state.vpt
        order = (Phase.PHI_P, Phase.PHI_0, Phase.PHI_N)
        w, g = cfg.phase_pulse_width, cfg.phase_gap
        for j, phase in enumerate(order if v_before >= 0.0 else order[::-1]):
            state = replace(apply_phase(state, phase, cfg, ledger), t=t0 + (j + 1) * w + j * g)
            samples.append(state)
        state = replace(
            state, t=t0 + 3.0 * w + 2.0 * g, phase=Phase.IDLE, last_share_phase=Phase.IDLE
        )
        events.append((k, t0, v_before, state.vpt, abs(state.vpt) / abs(v_before)))
    columns = tuple([getattr(s, name) for s in samples] for name in ("t", "vpt", "vs"))
    return columns, events, ledger, state, short_steps


class TestKernelMatchesStep:
    """run()'s Euler kernel against a loop of step() calls, bit for bit."""

    @pytest.mark.parametrize(
        "cfg_kwargs",
        [
            {"src": make_source(rp=1e6)},
            {"stage": make_stage(storage=FiniteCap(1e-6, 2.0))},
            {"src": make_source(f=217.0, rp=1e7), "stage": make_stage(storage=FiniteCap(1e-6, 2.0))},
        ],
        ids=["leaky", "finite_storage", "leaky_finite_storage_217Hz"],
    )
    def test_bit_identical_to_step_loop(self, cfg_kwargs):
        cfg = make_sim_config(n_cycles=2, **cfg_kwargs)
        (t, vpt, vs), events, ledger, final, short_steps = step_reference(cfg)
        result = run(cfg)
        wf = result.waveform
        assert wf.t.tolist() == t
        assert wf.vpt.tolist() == vpt
        assert wf.vs.tolist() == vs
        got = [(e.cycle_index, e.t, e.v_before, e.v_after, e.efficiency) for e in result.events]
        assert got == events
        assert vars(result.ledger) == vars(ledger)
        assert result.final_state == final
        # Each segment ends with a step shorter than dt, so that path ran too.
        assert short_steps > 0


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
    def test_oracle_equivalence_with_flip_step(self):
        cfg = make_sim_config(n_cycles=10)
        result = run(cfg)
        ratios = FlipRatios.from_caps(cfg.src.cap_cp, cfg.sshc.cap_ct)
        vt = 0.0
        for event in result.events:
            vpt_out, vt = flip_step(abs(event.v_before), vt, ratios)
            assert abs(event.v_after) == pytest.approx(abs(vpt_out), rel=1e-6)
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
            assert got == pytest.approx(want, rel=1e-6)
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
            scale = max(abs(result.ledger.q_source), 1e-15)
            assert abs(residual) < 1e-9 * scale

    @pytest.mark.parametrize("rp", [math.inf, 1e7], ids=["finite_storage", "leaky_finite_storage"])
    def test_charge_ledger_closes_with_finite_storage(self, rp):
        stage = make_stage(storage=FiniteCap(1e-6, 2.0))
        cfg = make_sim_config(src=make_source(rp=rp), stage=stage, n_cycles=3, dt=1e-5 / 2)
        result = run(cfg)
        assert result.final_state.vs > 2.0
        residual = result.ledger.residual(result.initial_state, result.final_state, cfg)
        scale = max(abs(result.ledger.q_source), 1e-15)
        assert abs(residual) < 1e-9 * scale

    def test_step_size_convergence(self):
        q = {}
        for dt in (1e-6, 5e-7):
            cfg = make_sim_config(n_cycles=5, dt=dt)
            q[dt] = run(cfg).final_state.q_harvested
        assert abs(q[5e-7] - q[1e-6]) / q[1e-6] < 0.005

    def test_swapped_phase_order_is_worse(self):
        # Applying the dump-first order against an established C_T polarity
        # cancels stored charge instead of reinforcing it. (A *persistent*
        # swap merely relabels the plates and changes nothing, so the wrong
        # order is applied to a single crossing here.)
        cfg = make_sim_config(n_cycles=5)
        result = run(cfg)
        vt = result.final_state.vt
        assert vt > 0.1
        pre = CircuitState(t=0.0, vpt=2.4, vt=vt, vs=2.0, q_harvested=0.0)
        good = pre
        for phase in (Phase.PHI_P, Phase.PHI_0, Phase.PHI_N):
            good = apply_phase(good, phase, cfg)
        bad = pre
        for phase in (Phase.PHI_N, Phase.PHI_0, Phase.PHI_P):
            bad = apply_phase(bad, phase, cfg, enforce_order=False)
        assert abs(bad.vpt) < abs(good.vpt)

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
        assert abs(residual) < 1e-9 * abs(result.ledger.q_source)

    def test_q_harvested_monotone(self):
        cfg = make_sim_config(n_cycles=4)
        result = run(cfg)
        assert result.final_state.q_harvested > 0


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
