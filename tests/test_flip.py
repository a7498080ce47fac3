import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sshcsim import (
    FlipRatios,
    charge_share,
    closed_form_efficiency,
    cycles_to_converge,
    first_flip_efficiency,
    flip_efficiency_series,
    flip_step,
    optimal_single_flip_ct,
    steady_state_efficiency,
)

betas = st.floats(0.01, 0.99)


def ratios_from_beta(beta):
    return FlipRatios(alpha=1.0 - beta, beta=beta)


def equal_caps():
    return FlipRatios.from_caps(1e-8, 1e-8)


class TestFlipRatios:
    def test_from_caps(self):
        r = FlipRatios.from_caps(1e-9, 3e-9)
        assert r.alpha == pytest.approx(0.25, abs=1e-15)
        assert r.beta == pytest.approx(0.75, abs=1e-15)
        assert abs(r.alpha + r.beta - 1.0) <= 1e-15

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            FlipRatios(alpha=0.0, beta=1.0)
        with pytest.raises(ValueError):
            FlipRatios(alpha=0.3, beta=0.6)
        with pytest.raises(ValueError):
            FlipRatios.from_caps(-1e-9, 1e-9)


class TestChargeShare:
    def test_equal_caps_average(self):
        assert charge_share(2.0, 1.0, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_first_phase_from_empty_ct(self):
        v0, cp, ct = 2.4, 1e-8, 3e-8
        assert charge_share(v0, cp, 0.0, ct) == pytest.approx(cp * v0 / (cp + ct), rel=1e-15)

    def test_rejects_nonpositive_caps(self):
        with pytest.raises(ValueError):
            charge_share(1.0, 0.0, 0.0, 1e-9)
        with pytest.raises(ValueError):
            charge_share(1.0, 1e-9, 0.0, -1e-9)

    @pytest.mark.parametrize("caps", [(np.inf, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)])
    def test_rejects_non_finite_caps(self, caps):
        ca, cb = caps
        with pytest.raises(ValueError, match="capacitances must be finite"):
            charge_share(1.0, ca, 1.0, cb)

    @given(
        va=st.floats(-10, 10),
        vb=st.floats(-10, 10),
        ca=st.floats(1e-12, 1e-6),
        cb=st.floats(1e-12, 1e-6),
    )
    def test_conserves_charge(self, va, vb, ca, cb):
        v = charge_share(va, ca, vb, cb)
        assert (ca + cb) * v == pytest.approx(ca * va + cb * vb, rel=1e-12, abs=1e-24)


class TestFlipStep:
    def test_first_flip_quarter(self):
        vpt_out, vt_out = flip_step(2.4, 0.0, equal_caps())
        assert vpt_out == pytest.approx(-0.6, abs=1e-15)
        assert vt_out == pytest.approx(0.6, abs=1e-15)

    def test_second_flip_five_sixteenths(self):
        v0 = 2.4
        vpt_out, _ = flip_step(v0, v0 / 4.0, equal_caps())
        assert abs(vpt_out) == pytest.approx(5.0 / 16.0 * v0, rel=1e-14)

    def test_fixed_point_is_stationary(self):
        for beta in (0.2, 0.5, 100.0 / 101.0):
            r = ratios_from_beta(beta)
            v0 = 3.7
            vt_star = beta * v0 / (1.0 + beta)
            _, vt_out = flip_step(v0, vt_star, r)
            assert vt_out == pytest.approx(vt_star, rel=1e-13)

    def test_rejects_negative_magnitudes(self):
        with pytest.raises(ValueError):
            flip_step(-1.0, 0.0, equal_caps())
        with pytest.raises(ValueError):
            flip_step(1.0, -0.5, equal_caps())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_magnitudes(self, bad):
        with pytest.raises(ValueError, match="v0 must be finite"):
            flip_step(bad, 0.0, equal_caps())
        with pytest.raises(ValueError, match="vt_in must be finite"):
            flip_step(1.0, bad, equal_caps())

    @given(beta=betas, v0=st.floats(0.1, 10.0), vt=st.floats(0.0, 10.0))
    def test_energy_never_increases_over_phases(self, beta, v0, vt):
        # Phase-by-phase capacitive energy with cp + ct = 1 (scale-free).
        cp, ct = 1.0 - beta, beta
        r = ratios_from_beta(beta)

        def energy(v_p, v_t):
            return 0.5 * cp * v_p**2 + 0.5 * ct * v_t**2

        e0 = energy(v0, vt)
        v_shared = r.alpha * v0 + r.beta * vt
        e1 = energy(v_shared, v_shared)
        e2 = energy(0.0, v_shared)
        vpt_out, vt_out = flip_step(v0, vt, r)
        e3 = energy(vpt_out, vt_out)
        tol = 1e-12 * max(e0, 1e-30)
        assert e1 <= e0 + tol
        assert e2 <= e1 + tol
        assert e3 <= e2 + tol
        if abs(v0 - vt) > 1e-6:
            assert e1 < e0


class TestEfficiencySeries:
    def test_equal_caps_leading_terms_and_limit(self):
        series = flip_efficiency_series(equal_caps(), 2.4, 10)
        assert series.efficiencies[0] == pytest.approx(0.25, abs=1e-14)
        assert series.efficiencies[1] == pytest.approx(5.0 / 16.0, abs=1e-14)
        assert series.efficiencies[9] == pytest.approx(1.0 / 3.0, abs=1e-6)
        assert series.limit == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_equal_caps_matches_geometric_sum(self):
        series = flip_efficiency_series(equal_caps(), 1.0, 12)
        for n, eta in enumerate(series.efficiencies, start=1):
            assert eta == pytest.approx((1.0 - 0.25**n) / 3.0, rel=1e-12)

    def test_large_ct_slow_convergence(self):
        r = FlipRatios.from_caps(1e-9, 100e-9)
        series = flip_efficiency_series(r, 2.4, 300)
        assert series.efficiencies[-1] == pytest.approx(100.0 / 201.0, rel=5e-3)
        assert series.efficiencies[-1] < series.limit

    def test_monotone_and_bounded_by_limit(self):
        for beta in (0.1, 0.5, 0.9, 100.0 / 101.0):
            series = flip_efficiency_series(ratios_from_beta(beta), 1.0, 200)
            effs = series.efficiencies
            assert all(b >= a for a, b in zip(effs, effs[1:]))
            assert all(eta < series.limit + 1e-12 for eta in effs)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            flip_efficiency_series(equal_caps(), 1.0, 0)
        with pytest.raises(ValueError):
            flip_efficiency_series(equal_caps(), -1.0, 5)
        with pytest.raises(ValueError, match="n must be >= 1"):
            closed_form_efficiency(equal_caps(), 0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_v0(self, bad):
        with pytest.raises(ValueError, match="v0 must be finite"):
            flip_efficiency_series(equal_caps(), bad, 3)

    @given(beta=betas, n=st.integers(1, 2000))
    @settings(max_examples=40, deadline=None)
    def test_iterated_matches_closed_form(self, beta, n):
        r = ratios_from_beta(beta)
        series = flip_efficiency_series(r, 1.0, n)
        assert series.efficiencies[-1] == pytest.approx(
            closed_form_efficiency(r, n), rel=1e-10
        )

    def test_closed_form_agreement_at_ten_thousand(self):
        r = ratios_from_beta(0.93)
        series = flip_efficiency_series(r, 1.0, 10_000)
        assert series.efficiencies[-1] == pytest.approx(
            closed_form_efficiency(r, 10_000), rel=1e-10
        )

    @given(beta=betas, v0=st.floats(0.5, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_fixed_point_contraction_factor(self, beta, v0):
        r = ratios_from_beta(beta)
        vt_star = beta * v0 / (1.0 + beta)
        vt = 0.0
        prev_gap = abs(vt - vt_star)
        for _ in range(20):
            if prev_gap < 1e-8 * vt_star:
                break  # below this the gap is float noise, not geometry
            _, vt = flip_step(v0, vt, r)
            gap = abs(vt - vt_star)
            assert gap == pytest.approx(beta**2 * prev_gap, rel=1e-6, abs=1e-15 * vt_star)
            prev_gap = gap


class TestSteadyState:
    def test_equal_caps_is_one_third(self):
        assert steady_state_efficiency(equal_caps()) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_large_ct_asymptote_is_half(self):
        r = FlipRatios.from_caps(1e-9, 1e-2)
        assert steady_state_efficiency(r) == pytest.approx(0.5, abs=1e-6)
        assert steady_state_efficiency(r) < 0.5

    def test_hundred_to_one_ratio(self):
        r = FlipRatios.from_caps(1e-9, 100e-9)
        eta = steady_state_efficiency(r)
        assert eta == pytest.approx(100.0 / 201.0, rel=1e-12)
        # Long-iterated series converges to the same value.
        series = flip_efficiency_series(r, 1.0, 100_000)
        assert series.efficiencies[-1] == pytest.approx(eta, rel=1e-10)

    def test_strictly_increasing_in_ct(self):
        cp = 1e-9
        etas = [
            steady_state_efficiency(FlipRatios.from_caps(cp, ratio * cp))
            for ratio in (0.1, 0.5, 1, 2, 10, 100, 1000)
        ]
        assert all(b > a for a, b in zip(etas, etas[1:]))
        assert all(eta < 0.5 for eta in etas)


class TestSingleFlipOptimum:
    def test_optimum_is_cp(self):
        assert optimal_single_flip_ct(1e-9) == 1e-9
        assert optimal_single_flip_ct(47e-9) == 47e-9

    def test_efficiency_at_optimum(self):
        r = FlipRatios.from_caps(1e-9, optimal_single_flip_ct(1e-9))
        assert first_flip_efficiency(r) == pytest.approx(0.25, abs=1e-15)

    def test_grid_search_oracle(self):
        cp = 1e-9
        ratios = np.logspace(-2, 2, 10_000)
        effs = ratios / (1.0 + ratios) ** 2
        best = ratios[np.argmax(effs)]
        step = ratios[1] / ratios[0]
        assert best / 1.0 < step and 1.0 / best < step
        assert np.max(effs) == pytest.approx(0.25, abs=1e-6)
        assert abs(optimal_single_flip_ct(cp) / cp - best) < best * (step - 1.0) * 2

    def test_unimodal_in_ct(self):
        ratios = np.logspace(-3, 3, 2001)
        effs = ratios / (1.0 + ratios) ** 2
        diffs = np.sign(np.diff(effs))
        # Exactly one sign change from rising to falling.
        changes = np.nonzero(np.diff(diffs))[0]
        assert len(changes) == 1

    def test_rejects_nonpositive_cp(self):
        with pytest.raises(ValueError):
            optimal_single_flip_ct(0.0)


class TestCyclesToConverge:
    def scan(self, ratios, fraction):
        limit = steady_state_efficiency(ratios)
        series = flip_efficiency_series(ratios, 1.0, 100_000)
        for n, eta in enumerate(series.efficiencies, start=1):
            if eta >= fraction * limit:
                return n
        raise AssertionError("did not converge in scan")

    def test_equal_caps_99pct(self):
        r = equal_caps()
        expected = self.scan(r, 0.99)
        assert expected == 4  # eta_4 = (1 - 4**-4)/3 is the first >= 0.99/3
        assert cycles_to_converge(r, 0.99) == expected

    def test_hundred_ratio_99pct(self):
        r = FlipRatios.from_caps(1e-9, 100e-9)
        expected = self.scan(r, 0.99)
        assert 200 <= expected <= 300
        assert cycles_to_converge(r, 0.99) == expected

    def test_tiny_fraction_is_one(self):
        assert cycles_to_converge(equal_caps(), 1e-12) == 1

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ValueError):
            cycles_to_converge(equal_caps(), 0.0)
        with pytest.raises(ValueError):
            cycles_to_converge(equal_caps(), 1.0)

    @given(beta=st.floats(0.01, 0.995), fraction=st.floats(0.001, 0.999))
    @settings(max_examples=40, deadline=None)
    # The log estimate is one short (36 for 37) and one over (49 for 48).
    @example(beta=0.9914594434117118, fraction=0.4607419154494519)
    @example(beta=0.9662678205543738, fraction=0.9629010525168098)
    def test_is_the_first_n_counting_up(self, beta, fraction):
        n = 1
        while 1.0 - beta ** (2 * n) < fraction:
            n += 1
        assert cycles_to_converge(ratios_from_beta(beta), fraction) == n

    @given(beta=st.floats(0.05, 0.95), fraction=st.floats(0.01, 0.999))
    @settings(max_examples=40, deadline=None)
    def test_matches_definition(self, beta, fraction):
        r = ratios_from_beta(beta)
        n = cycles_to_converge(r, fraction)
        assert 1.0 - beta ** (2 * n) >= fraction
        if n > 1:
            assert 1.0 - beta ** (2 * (n - 1)) < fraction
