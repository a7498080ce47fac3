"""Acceptance suite: one test per release criterion, each printing a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time
import warnings

import numpy as np
import pytest

from sshcsim import (
    FiniteCap,
    FixedVoltage,
    FlipRatios,
    PiezoSource,
    RectifierStage,
    SimConfig,
    SshcNetwork,
    conduction_threshold,
    extract_efficiency_trajectory,
    flip_efficiency_series,
    flip_step,
    harvest_report,
    open_circuit_vpp,
    run,
    steady_state_efficiency,
)

from conftest import make_sim_config, make_source, make_stage

EQUAL = FlipRatios.from_caps(10e-9, 10e-9)


def report(name):
    print(f"PASS {name}")


class TestAcceptance:
    def test_criterion_1_first_flip_quarter(self):
        start = time.monotonic()
        vpt_out, _ = flip_step(2.4, 0.0, EQUAL)
        assert abs(abs(vpt_out) / 2.4 - 0.25) < 1e-12
        result = run(make_sim_config(n_cycles=1))
        assert result.events[0].efficiency == pytest.approx(0.25, abs=1e-6)
        assert time.monotonic() - start < 1.0
        report("criterion 1: first-flip efficiency 1/4 (analytic exact, transient 1e-6)")

    def test_criterion_2_second_flip_five_sixteenths(self):
        start = time.monotonic()
        series = flip_efficiency_series(EQUAL, 2.4, 2)
        assert series.efficiencies[1] == pytest.approx(5.0 / 16.0, abs=1e-12)
        result = run(make_sim_config(n_cycles=1))
        assert result.events[1].efficiency == pytest.approx(5.0 / 16.0, abs=1e-6)
        assert time.monotonic() - start < 1.0
        report("criterion 2: second-flip efficiency 5/16 (analytic exact, transient 1e-6)")

    def test_criterion_3_series_limit_one_third(self):
        start = time.monotonic()
        series = flip_efficiency_series(EQUAL, 2.4, 10)
        assert series.efficiencies[9] == pytest.approx((1 - 0.25**10) / 3.0, abs=1e-5)
        assert series.efficiencies[9] == pytest.approx(1.0 / 3.0, abs=1e-3)
        for n, eta in enumerate(series.efficiencies, start=1):
            assert eta == pytest.approx((1.0 - 0.25**n) / 3.0, rel=1e-10)
        assert time.monotonic() - start < 1.0
        report("criterion 3: ten-cycle series matches (1-(1/4)^n)/3, limit 1/3")

    def test_criterion_4_large_ct_regime(self):
        start = time.monotonic()
        ratios = FlipRatios.from_caps(10e-9, 1000e-9)
        series = flip_efficiency_series(ratios, 2.4, 300)
        assert 0.49 <= series.efficiencies[299] <= 0.4976
        assert steady_state_efficiency(ratios) == pytest.approx(100.0 / 201.0, rel=1e-12)
        cfg = make_sim_config(ct=1000e-9, n_cycles=150)  # 300 flips, dt = T/1e4
        trajectory = extract_efficiency_trajectory(run(cfg).events)
        for got, want in zip(trajectory, series.efficiencies):
            assert got == pytest.approx(want, abs=1e-6)
        elapsed = time.monotonic() - start
        assert elapsed < 10.0
        report(f"criterion 4: C_T=100*C_P regime, eta_300 and 300-cycle agreement ({elapsed:.2f}s)")

    def test_criterion_5_flip_lands_at_minus_0v8(self):
        start = time.monotonic()
        cfg = make_sim_config(n_cycles=7)  # 14 flips at V_S + 2V_D = 2.4 V
        events = run(cfg).events
        steady = [e for e in events if e.cycle_index >= 11 and e.v_before > 0]
        assert steady
        for event in steady:
            assert event.v_before == pytest.approx(2.4, abs=1e-9)
            assert event.v_after == pytest.approx(-0.800, abs=0.005)
        assert time.monotonic() - start < 5.0
        report("criterion 5: steady-state flip lands at -0.800 V +/- 5 mV from +2.400 V")

    def test_criterion_6_charge_and_energy_property_suite(self):
        start = time.monotonic()
        rng = np.random.default_rng(20260823)
        for i in range(100):
            f = rng.uniform(20.0, 500.0)
            cp = 10.0 ** rng.uniform(-9, -7)
            vs = rng.uniform(0.5, 3.0)
            vd = rng.uniform(0.0, 0.5)
            vth = vs + 2 * vd
            # Swing between 0.5x and 8x of twice the threshold.
            vpp = vth * 2 * rng.uniform(0.5, 8.0)
            ip = vpp * math.pi * f * cp
            rp = math.inf if i % 3 else 10.0 ** rng.uniform(5, 8)
            storage = (
                FixedVoltage(vs)
                if i % 4
                else FiniteCap(cp * 10.0 ** rng.uniform(2, 4), vs)
            )
            src = PiezoSource(ip, f, cp, rp)
            stage = RectifierStage(vd, storage)
            sshc = SshcNetwork(cp * 10.0 ** rng.uniform(-1, 1))
            cfg = SimConfig(src=src, stage=stage, sshc=sshc, n_cycles=2, dt=1.0 / f / 2000.0)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # weak-excitation draws are fine here
                result = run(cfg)

            residual = result.ledger.residual(result.initial_state, result.final_state, cfg)
            scale = result.ledger.q_source_gross
            assert abs(residual) < 1e-12 * scale, f"config {i}: ledger residual {residual}"

            wf = result.waveform
            ct = sshc.cap_ct
            energy = [0.5 * cp * v * v + 0.5 * ct * w * w for v, w in zip(wf.vpt, wf.vt)]
            for j, token in enumerate(wf.phase):
                if token != "Idle":
                    assert energy[j] <= energy[j - 1] * (1 + 1e-12) + 1e-30, (
                        f"config {i}: energy increased across {token}"
                    )
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        report(f"criterion 6: 100 randomized configs close the charge ledger, energy non-increasing ({elapsed:.1f}s)")

    def test_criterion_7_fullbridge_cutoff(self):
        for frac in (0.3, 0.6, 0.95):
            # Open-circuit swing at frac * 2*(V_S + 2V_D): below the cutoff.
            vth = 2.4
            f, cp = 100.0, 10e-9
            vpp_target = frac * 2.0 * vth
            ip = vpp_target * math.pi * f * cp
            src = PiezoSource(ip, f, cp)
            stage = make_stage()
            assert open_circuit_vpp(src) <= 2.0 * vth + 1e-12
            assert harvest_report(src, stage, 0.0).q_harvested_halfcycle == 0.0
            # Transient from the steady-state oscillation midpoint.
            cfg = SimConfig(src=src, stage=stage, n_cycles=4, vpt_initial=-open_circuit_vpp(src) / 2.0)
            assert run(cfg).final_state.q_harvested < 1e-12
            # And from a cold start whenever the swing stays under one threshold.
            if vpp_target <= vth:
                cfg0 = SimConfig(src=src, stage=stage, n_cycles=4)
                assert run(cfg0).final_state.q_harvested < 1e-12
        report("criterion 7: no harvest when open-circuit swing <= 2*(V_S + 2V_D)")

    def test_criterion_8_single_flip_optimum_grid(self):
        ratios = np.logspace(math.log10(0.01), math.log10(100.0), 10_000)
        effs = ratios / (1.0 + ratios) ** 2
        best_idx = int(np.argmax(effs))
        grid_step = ratios[1] / ratios[0]
        assert 1.0 / grid_step <= ratios[best_idx] <= grid_step
        assert effs[best_idx] == pytest.approx(0.25, abs=1e-6)
        report("criterion 8: first-flip efficiency peaks at C_T/C_P = 1 with value 1/4")

    def test_criterion_9_steady_state_monotone(self):
        cp = 10e-9
        etas = [
            steady_state_efficiency(FlipRatios.from_caps(cp, r * cp))
            for r in (0.1, 0.5, 1, 2, 10, 100, 1000)
        ]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        assert all(eta < 0.5 for eta in etas)
        report("criterion 9: steady-state efficiency strictly increasing, bounded by 1/2")
