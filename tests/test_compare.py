import io
import math

import numpy as np
import pytest

from sshcsim import (
    FixedVoltage,
    FlipRatios,
    PiezoSource,
    RectifierStage,
    SshcNetwork,
    SimConfig,
    harvest_report,
    open_circuit_vpp,
    run,
    steady_state_efficiency,
    sweep_ct_ratio,
    sweep_storage_voltage,
    wasted_charge_fullbridge,
)
from sshcsim.circuit import FieldError

from conftest import make_source, make_stage


class TestHarvestReport:
    def test_fullbridge_waste(self):
        src = make_source()
        stage = make_stage()
        report = harvest_report(src, stage, 0.0)
        assert report.q_wasted_halfcycle == pytest.approx(
            wasted_charge_fullbridge(src, stage), rel=1e-12
        )

    def test_generated_charge_is_halfsine_integral(self):
        src = make_source()
        report = harvest_report(src, make_stage(), 0.0)
        assert report.q_generated_halfcycle == pytest.approx(
            2.0 * src.amplitude_ip / src.omega, rel=1e-12
        )
        assert report.q_generated_halfcycle == pytest.approx(
            open_circuit_vpp(src) * src.cap_cp, rel=1e-12
        )

    def test_no_harvest_when_waste_dominates(self):
        src = make_source(ip=1e-6)  # vpp well below 2*threshold
        report = harvest_report(src, make_stage(), 0.0)
        assert report.q_generated_halfcycle <= report.q_wasted_halfcycle
        assert report.q_harvested_halfcycle == 0.0
        assert report.power_out == 0.0

    def test_sshc_wastes_one_third_of_fullbridge(self):
        src = make_source()
        stage = make_stage()
        fb = harvest_report(src, stage, 0.0)
        sshc = harvest_report(src, stage, 1.0 / 3.0)
        assert sshc.q_wasted_halfcycle / fb.q_wasted_halfcycle == pytest.approx(
            1.0 / 3.0, rel=1e-12
        )

    def test_sshc_never_worse(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            src = make_source(ip=rng.uniform(1e-6, 1e-4), cp=rng.uniform(1e-9, 1e-7))
            stage = make_stage(vs=rng.uniform(0, 4), vd=rng.uniform(0, 0.5))
            eta = rng.uniform(0.01, 0.5)
            assert (
                harvest_report(src, stage, eta).q_harvested_halfcycle
                >= harvest_report(src, stage, 0.0).q_harvested_halfcycle
            )

    def test_rejects_invalid_eta(self):
        with pytest.raises(ValueError):
            harvest_report(make_source(), make_stage(), -0.1)
        with pytest.raises(ValueError):
            harvest_report(make_source(), make_stage(), 1.0)

    @pytest.mark.parametrize("eta", [0.0, 0.3])
    @pytest.mark.parametrize(
        "src, vs, bound",
        [
            (PiezoSource(1e150, 1.0, 1e-150), 1e200, "output power"),
            (PiezoSource(1e-300, 1.0, 1.0), 1e308, "wasted charge"),
        ],
        ids=["power", "waste"],
    )
    def test_rejects_an_overflowing_power_or_waste(self, src, vs, bound, eta):
        # Each value type accepts the source and the rail, yet the report's
        # power 2*f*q*V_S or the full bridge's waste would be inf: the report
        # names vs as SimConfig does, and so does a sweep that reaches it.
        stage = RectifierStage(0.0, FixedVoltage(vs))
        with pytest.raises(FieldError) as sim:
            SimConfig(src, stage)
        assert bound in str(sim.value)
        with pytest.raises(FieldError) as got:
            harvest_report(src, stage, eta)
        assert str(got.value) == str(sim.value)
        with pytest.raises(FieldError) as swept:
            sweep_storage_voltage(src, 0.0, [1.0, vs], None if eta == 0.0 else 1.0)
        assert str(swept.value) == str(sim.value)

    def test_matches_transient_steady_state(self):
        # Steady-state per-half-cycle harvest from the simulator agrees with
        # the analytic report at the realized flip efficiency to 1%.
        src = make_source()
        stage = make_stage()
        cfg = SimConfig(src=src, stage=stage, sshc=SshcNetwork(src.cap_cp), n_cycles=14)
        result = run(cfg)
        eta = result.events[-1].efficiency
        report = harvest_report(src, stage, eta)
        # Charge harvested across the last 4 half cycles, via the event grid.
        q = result.final_state.q_harvested
        cfg2 = SimConfig(src=src, stage=stage, sshc=SshcNetwork(src.cap_cp), n_cycles=12)
        q_prev = run(cfg2).final_state.q_harvested
        per_half = (q - q_prev) / 4.0
        assert per_half == pytest.approx(report.q_harvested_halfcycle, rel=0.01)


class TestSweepCtRatio:
    def test_known_eta_points(self):
        src = make_source()
        result = sweep_ct_ratio(src, make_stage(), [1.0, 100.0])
        assert result.reports[0].flip_efficiency_used == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert result.reports[1].flip_efficiency_used == pytest.approx(100.0 / 201.0, rel=1e-12)

    def test_power_monotone_in_ratio(self):
        src = make_source()
        result = sweep_ct_ratio(src, make_stage(), list(np.logspace(-1, 3, 40)))
        powers = [r.power_out for r in result.reports]
        assert all(b >= a for a, b in zip(powers, powers[1:]))

    def test_rejects_bad_axis(self):
        with pytest.raises(ValueError):
            sweep_ct_ratio(make_source(), make_stage(), [1.0, 0.5])
        with pytest.raises(ValueError):
            sweep_ct_ratio(make_source(), make_stage(), [-1.0, 1.0])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_ct_ratio(make_source(), make_stage(), [])
        with pytest.raises(ValueError, match="non-empty"):
            sweep_storage_voltage(make_source(), 0.2, [])


class TestSweepStorageVoltage:
    def test_zero_vs_gives_zero_power(self):
        result = sweep_storage_voltage(make_source(), 0.2, [0.0, 1.0])
        assert result.reports[0].power_out == 0.0

    def test_fullbridge_cutoff(self):
        src = make_source()
        vpp = open_circuit_vpp(src)
        vd = 0.2
        cutoff_vs = vpp / 2.0 - 2.0 * vd
        vs_values = [cutoff_vs * 1.01, cutoff_vs * 1.5, cutoff_vs * 3.0]
        result = sweep_storage_voltage(src, vd, vs_values, ct_ratio=None)
        assert all(r.power_out == 0.0 for r in result.reports)

    def test_sshc_cutoff_exceeds_fullbridge_cutoff(self):
        src = make_source()
        vd = 0.2
        vs = np.linspace(0.0, 12.0, 400).tolist()
        fb = sweep_storage_voltage(src, vd, vs, ct_ratio=None)
        sshc = sweep_storage_voltage(src, vd, vs, ct_ratio=1.0)
        fb_cut = max(v for v, r in zip(vs, fb.reports) if r.power_out > 0)
        sshc_cut = max(v for v, r in zip(vs, sshc.reports) if r.power_out > 0)
        assert sshc_cut > fb_cut

    def test_power_unimodal_in_vs(self):
        src = make_source()
        q_gen = 2.0 * src.amplitude_ip / src.omega
        for ct_ratio, eta in ((None, 0.0), (1.0, 1.0 / 3.0), (100.0, 100.0 / 201.0)):
            factor = 2.0 if eta == 0.0 else 1.0 - eta
            cutoff = q_gen / (src.cap_cp * factor) - 0.4
            vs = np.linspace(0.0, 1.2 * cutoff, 2000).tolist()
            result = sweep_storage_voltage(src, 0.2, vs, ct_ratio=ct_ratio)
            powers = np.array([r.power_out for r in result.reports])
            assert powers.max() > 0
            diffs = np.sign(np.diff(powers))
            nonzero = diffs[diffs != 0]
            changes = np.nonzero(np.diff(nonzero))[0]
            assert len(changes) == 1  # rises once, falls once

    def test_rejects_negative_vs(self):
        with pytest.raises(ValueError):
            sweep_storage_voltage(make_source(), 0.2, [-1.0, 0.0])


class TestCsv:
    def test_schema(self):
        result = sweep_ct_ratio(make_source(), make_stage(), [0.5, 1.0, 2.0])
        buf = io.StringIO()
        result.write_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "axis,q_gen_C,q_wasted_C,q_harvested_C,power_W,eta"
        assert len(lines) == 4
