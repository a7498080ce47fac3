import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sshcsim import (
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
from sshcsim.circuit import FieldError

from conftest import make_source, make_stage


class TestValidation:
    def test_source_rejects_nonpositive_params(self):
        with pytest.raises(ValueError):
            PiezoSource(amplitude_ip=0.0, frequency=100.0, cap_cp=1e-9)
        with pytest.raises(ValueError):
            PiezoSource(amplitude_ip=1e-6, frequency=-1.0, cap_cp=1e-9)
        with pytest.raises(ValueError):
            PiezoSource(amplitude_ip=1e-6, frequency=100.0, cap_cp=0.0)
        with pytest.raises(ValueError):
            PiezoSource(amplitude_ip=1e-6, frequency=100.0, cap_cp=1e-9, res_rp=-5.0)
        # A non-finite value would run on silently into NaN events or a NaN
        # ledger, so each float field is rejected by name; only res_rp = inf
        # is legal.
        good = {"amplitude_ip": 1e-6, "frequency": 100.0, "cap_cp": 1e-9}
        for name in good:
            for bad in (math.nan, math.inf, -math.inf):
                with pytest.raises(ValueError, match=name):
                    PiezoSource(**{**good, name: bad})
        with pytest.raises(ValueError, match="res_rp"):
            PiezoSource(**good, res_rp=math.nan)

    @pytest.mark.parametrize(
        "kwargs,name",
        [
            ({"cap_cp": 1e-320}, "cap_cp"),  # subnormal: charge products lose digits
            ({"cap_cp": 1e-320, "amplitude_ip": 1e-12}, "cap_cp"),
            ({"frequency": 1e-320}, "frequency"),  # infinite period
            ({"frequency": 1e308}, "frequency"),  # infinite omega
            ({"amplitude_ip": 1e3, "cap_cp": 1e-306}, "cap_cp"),  # infinite I_P/(C_P*omega)
            ({"res_rp": 1e-300, "cap_cp": 1e-10}, "res_rp"),  # infinite 1/(R_P*C_P)
            # infinite 2*I_P/omega, the charge of a half cycle
            ({"amplitude_ip": 1e307, "frequency": 1e-5, "cap_cp": 1e20}, "amplitude_ip"),
        ],
    )
    def test_source_rejects_rates_that_overflow(self, kwargs, name):
        good = {"amplitude_ip": 1e-6, "frequency": 100.0, "cap_cp": 1e-9}
        with pytest.raises(FieldError, match=name) as exc:
            PiezoSource(**{**good, **kwargs})
        assert exc.value.field == name
        assert isinstance(exc.value, ValueError)

    def test_rejection_names_field_once(self):
        with pytest.raises(FieldError) as exc:
            FiniteCap(cs=1e-6, vs_initial=-1.0)
        assert (exc.value.field, exc.value.message) == ("vs_initial", "must be >= 0, got -1.0")
        assert str(exc.value) == "vs_initial must be >= 0, got -1.0"

    def test_source_accepts_infinite_leakage(self):
        src = PiezoSource(amplitude_ip=1e-6, frequency=100.0, cap_cp=1e-9)
        assert math.isinf(src.res_rp)

    def test_stage_rejects_negative_drop(self):
        with pytest.raises(ValueError):
            RectifierStage(diode_drop_vd=-0.1, storage=FixedVoltage(1.0))
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="diode_drop_vd"):
                RectifierStage(diode_drop_vd=bad, storage=FixedVoltage(1.0))
            with pytest.raises(ValueError, match="vs"):
                FixedVoltage(bad)

    def test_finite_cap_requires_positive_cs(self):
        with pytest.raises(ValueError):
            FiniteCap(cs=0.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="cs"):
                FiniteCap(cs=bad)
            with pytest.raises(ValueError, match="vs_initial"):
                FiniteCap(cs=1e-6, vs_initial=bad)

    def test_sshc_requires_positive_ct(self):
        with pytest.raises(ValueError):
            SshcNetwork(cap_ct=-1e-9)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="cap_ct"):
                SshcNetwork(cap_ct=bad)
            with pytest.raises(ValueError, match="volt_vt"):
                SshcNetwork(cap_ct=1e-9, volt_vt=bad)

    def test_storage_voltage_both_modes(self):
        assert make_stage(vs=1.5).storage_voltage == 1.5
        stage = RectifierStage(diode_drop_vd=0.0, storage=FiniteCap(1e-6, 0.7))
        assert stage.storage_voltage == 0.7


class TestConductionThreshold:
    def test_degenerate_ideal_case(self):
        assert conduction_threshold(make_stage(vs=0.0, vd=0.0)) == 0.0

    def test_direct_evaluation(self):
        assert conduction_threshold(make_stage(vs=1.0, vd=0.5)) == pytest.approx(2.0, abs=1e-15)

    def test_preflip_plateau_level(self):
        # vs=2.0 with 0.2 V diode drops puts the clamp plateau at 2.4 V.
        assert conduction_threshold(make_stage(vs=2.0, vd=0.2)) == pytest.approx(2.4, abs=1e-15)

    def test_monotone_in_vs_and_vd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            vs, vd = rng.uniform(0, 5, size=2)
            dvs, dvd = rng.uniform(0, 1, size=2)
            base = conduction_threshold(make_stage(vs=vs, vd=vd))
            assert conduction_threshold(make_stage(vs=vs + dvs, vd=vd)) >= base
            assert conduction_threshold(make_stage(vs=vs, vd=vd + dvd)) >= base


class TestWastedCharge:
    def test_zero_threshold(self):
        for cp in (1e-9, 47e-9, 1e-6):
            src = make_source(cp=cp)
            assert wasted_charge_fullbridge(src, make_stage(vs=0.0, vd=0.0)) == 0.0

    def test_against_swing_oracle(self):
        # Oracle: charge to move C_P between the clamp rails is C_P * 2 * Vth.
        src = make_source(cp=1e-9)
        stage = make_stage(vs=1.0, vd=0.5)
        vth = 2.0
        oracle = src.cap_cp * (vth - (-vth))
        assert oracle == pytest.approx(4e-9, rel=1e-15)
        assert wasted_charge_fullbridge(src, stage) == pytest.approx(4e-9, rel=1e-12)

    def test_doubling_cp_doubles_result(self):
        stage = make_stage(vs=1.3, vd=0.25)
        q1 = wasted_charge_fullbridge(make_source(cp=3e-9), stage)
        q2 = wasted_charge_fullbridge(make_source(cp=6e-9), stage)
        assert q2 == pytest.approx(2.0 * q1, rel=1e-12)

    @given(
        cp=st.floats(1e-12, 1e-6),
        vth=st.floats(1e-3, 10.0),
        k=st.floats(0.1, 10.0),
    )
    def test_linearity(self, cp, vth, k):
        stage = RectifierStage(diode_drop_vd=0.0, storage=FixedVoltage(vth))
        stage_k = RectifierStage(diode_drop_vd=0.0, storage=FixedVoltage(vth * k))
        q = wasted_charge_fullbridge(make_source(cp=cp), stage)
        assert wasted_charge_fullbridge(make_source(cp=cp * k), stage) == pytest.approx(k * q, rel=1e-9)
        assert wasted_charge_fullbridge(make_source(cp=cp), stage_k) == pytest.approx(k * q, rel=1e-9)


class TestOpenCircuitVpp:
    def test_analytic_example(self):
        src = make_source(ip=2.0 * math.pi * 1e-6, f=1.0, cp=1e-6)
        # Oracle: fixed-step integration of the half-sine current into C_P, by
        # the trapezoid rule written out (np.trapezoid is numpy 2.0 and later).
        t = np.linspace(0.0, 0.5, 200_001)
        current = src.amplitude_ip * np.sin(src.omega * t)
        q = np.sum(0.5 * (current[1:] + current[:-1]) * np.diff(t))
        assert q / src.cap_cp == pytest.approx(2.0, rel=1e-9)
        assert open_circuit_vpp(src) == pytest.approx(2.0, rel=1e-12)

    def test_scaling_in_amplitude(self):
        base = open_circuit_vpp(make_source(ip=10e-6))
        assert open_circuit_vpp(make_source(ip=30e-6)) == pytest.approx(3.0 * base, rel=1e-12)

    def test_rejects_finite_leakage(self):
        with pytest.raises(ValueError):
            open_circuit_vpp(make_source(rp=1e6))

    @given(
        ip=st.floats(1e-9, 1e-3),
        f=st.floats(1.0, 1e4),
        cp=st.floats(1e-12, 1e-6),
    )
    def test_halfcycle_charge_identity(self, ip, f, cp):
        src = make_source(ip=ip, f=f, cp=cp)
        q_half = 2.0 * ip / src.omega
        assert open_circuit_vpp(src) * cp == pytest.approx(q_half, rel=1e-12)

    def test_full_swing_condition(self):
        stage = make_stage(vs=2.0, vd=0.2)
        strong = make_source(ip=50e-6)   # vpp ~ 15.9 V > 4.8 V
        weak = make_source(ip=1e-6)      # vpp ~ 0.32 V
        assert full_swing_supported(strong, stage)
        assert not full_swing_supported(weak, stage)
        assert open_circuit_vpp(strong) > 2.0 * conduction_threshold(stage)
