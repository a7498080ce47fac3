"""Derived performance metrics: wasted vs harvested charge per half cycle,
output power, and parameter sweeps against the full-bridge baseline.

The analytic model assumes the fixed-storage regime: the pre-flip magnitude is
the conduction threshold V0 = vs + 2*vd every half cycle. With flip efficiency
eta, C_P recharges from -eta*V0 to -V0 after each inversion, wasting
C_P*V0*(1-eta); the passive bridge (eta = 0, no flip) wastes the full
2*C_P*V0 swing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, List, Optional, Sequence, Tuple, Union

from .circuit import FixedVoltage, PiezoSource, RectifierStage, conduction_threshold
from .circuit import require_finite_harvest, wasted_charge_fullbridge
from .csvout import write_csv
from .flip import FlipRatios, steady_state_efficiency


@dataclass(frozen=True)
class HarvestReport:
    q_generated_halfcycle: float  # C
    q_wasted_halfcycle: float     # C
    q_harvested_halfcycle: float  # C
    power_out: float              # W
    flip_efficiency_used: float


@dataclass(frozen=True)
class SweepResult:
    axis_values: Tuple[float, ...]
    reports: Tuple[HarvestReport, ...]

    def write_csv(self, out: Union[str, IO[str]]) -> None:
        write_reports_csv(out, "axis", "g", self.axis_values, self.reports)


def write_reports_csv(
    out: Union[str, IO[str]],
    label: str,
    label_kind: str,
    labels: Sequence,
    reports: Sequence[HarvestReport],
) -> None:
    """One row per report: its label (kind as in csvout.write_csv), then the
    charge budget, power and flip efficiency."""
    values = [
        x
        for name, r in zip(labels, reports)
        for x in (
            name,
            r.q_generated_halfcycle,
            r.q_wasted_halfcycle,
            r.q_harvested_halfcycle,
            r.power_out,
            r.flip_efficiency_used,
        )
    ]
    write_csv(
        out,
        [label, "q_gen_C", "q_wasted_C", "q_harvested_C", "power_W", "eta"],
        [(label_kind + "ggggg", values)],
    )


def harvest_report(src: PiezoSource, stage: RectifierStage, eta: float) -> HarvestReport:
    """Per-half-cycle charge budget and output power at flip efficiency eta.

    eta = 0 is the full-bridge baseline (both half-swings wasted). A source
    and stage whose power or wasted charge would overflow raise FieldError.
    """
    require_finite_harvest(src, stage)
    return _report(src, stage, eta)


def _report(src: PiezoSource, stage: RectifierStage, eta: float) -> HarvestReport:
    """harvest_report on a source and stage that require_finite_harvest passed."""
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must lie in [0, 1)")
    v0 = conduction_threshold(stage)
    q_generated = 2.0 * src.amplitude_ip / src.omega
    if eta == 0.0:
        q_wasted = wasted_charge_fullbridge(src, stage)
    else:
        q_wasted = src.cap_cp * v0 * (1.0 - eta)
    q_harvested = max(0.0, q_generated - q_wasted)
    power_out = 2.0 * src.frequency * q_harvested * stage.storage_voltage
    return HarvestReport(
        q_generated_halfcycle=q_generated,
        q_wasted_halfcycle=q_wasted,
        q_harvested_halfcycle=q_harvested,
        power_out=power_out,
        flip_efficiency_used=eta,
    )


def sweep_ct_ratio(
    src: PiezoSource, stage: RectifierStage, ratios: Sequence[float]
) -> SweepResult:
    """Harvest reports over C_T = ratio * C_P at the steady-state flip efficiency."""
    _check_axis(ratios)
    require_finite_harvest(src, stage)  # once: no point changes the source or the stage
    reports = []
    for r in ratios:
        eta = steady_state_efficiency(FlipRatios.from_caps(src.cap_cp, r * src.cap_cp))
        reports.append(_report(src, stage, eta))
    return SweepResult(tuple(ratios), tuple(reports))


def sweep_storage_voltage(
    src: PiezoSource,
    vd: float,
    vs_values: Sequence[float],
    ct_ratio: Optional[float] = None,
) -> SweepResult:
    """Output power per storage voltage. ct_ratio = None is the full-bridge
    baseline; otherwise eta is the SSHC steady state at that C_T/C_P ratio.
    Exposes the harvest cutoff where the generated charge just covers the waste.
    """
    _check_axis(vs_values)
    if ct_ratio is None:
        eta = 0.0
    else:
        eta = steady_state_efficiency(
            FlipRatios.from_caps(src.cap_cp, ct_ratio * src.cap_cp)
        )
    stages = [RectifierStage(diode_drop_vd=vd, storage=FixedVoltage(vs)) for vs in vs_values]
    # Both bounds grow with V_S >= 0, so the axis ends bound every point between.
    for stage in (stages[0], stages[-1]):
        require_finite_harvest(src, stage)
    reports = [_report(src, stage, eta) for stage in stages]
    return SweepResult(tuple(vs_values), tuple(reports))


def _check_axis(values: Sequence[float]) -> None:
    if not values:
        raise ValueError("axis must be non-empty")
    pairs: List[Tuple[float, float]] = list(zip(values, list(values)[1:]))
    if any(b <= a for a, b in pairs):
        raise ValueError("axis values must be strictly increasing")
