"""Closed-form engine for the three-phase charge-inversion algebra.

A flip redistributes the charge on the harvester capacitance C_P through a
temporary capacitor C_T in three switch phases: share in like polarity, short
C_P to zero, then reconnect C_T reversed so C_P comes back pre-charged with the
opposite sign. Iterating from an empty C_T, the per-flip voltage ratio follows
a geometric recurrence whose fixed point is beta / (1 + beta) with
beta = C_T / (C_P + C_T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from .circuit import FieldError


@dataclass(frozen=True)
class FlipRatios:
    """Capacitive sharing ratios alpha = C_P/(C_P+C_T), beta = C_T/(C_P+C_T)."""

    alpha: float
    beta: float

    def __post_init__(self):
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise FieldError(name, f"must lie strictly inside (0, 1), got {value!r}")
        if abs(self.alpha + self.beta - 1.0) > 1e-15:
            raise FieldError("beta", f"must equal 1 - alpha, got {self.beta!r}")

    @classmethod
    def from_caps(cls, cap_cp: float, cap_ct: float) -> "FlipRatios":
        for name, cap in (("cap_cp", cap_cp), ("cap_ct", cap_ct)):
            if not cap > 0:
                raise FieldError(name, f"must be > 0, got {cap!r}")
        total = cap_cp + cap_ct
        alpha = cap_cp / total
        return cls(alpha=alpha, beta=1.0 - alpha)


@dataclass(frozen=True)
class FlipSeries:
    """Per-flip efficiency trajectory and its asymptote."""

    efficiencies: Tuple[float, ...]
    vt_trajectory: Tuple[float, ...]  # |V_T| after each flip, V
    limit: float


def charge_share(va: float, ca: float, vb: float, cb: float) -> float:
    """Equalized voltage after connecting two capacitors in parallel.

    Total charge ca*va + cb*vb is preserved; both capacitors end at the
    returned voltage.
    """
    if not (0.0 < ca < math.inf and 0.0 < cb < math.inf):
        raise ValueError("capacitances must be finite and > 0")
    return (ca * va + cb * vb) / (ca + cb)


def flip_step(v0: float, vt_in: float, ratios: FlipRatios) -> Tuple[float, float]:
    """One three-phase inversion in magnitudes, for the positive-to-negative
    direction (mirror case is sign-symmetric; caller negates).

    v0 is |V_PT| before the zero crossing, vt_in is |V_T| carried over from the
    previous flip. Phases: share (V_T' = alpha*v0 + beta*vt_in), short
    (V_PT = 0), reversed dump (both at beta*V_T'). Returns (vpt_out, vt_out)
    with vpt_out = -vt_out.
    """
    if not 0.0 <= v0 < math.inf:
        raise ValueError("v0 must be finite and >= 0 (pass the magnitude)")
    if not 0.0 <= vt_in < math.inf:
        raise ValueError("vt_in must be finite and >= 0 (pass the magnitude)")
    vt_shared = ratios.alpha * v0 + ratios.beta * vt_in
    vt_out = ratios.beta * vt_shared
    return -vt_out, vt_out


def steady_state_efficiency(ratios: FlipRatios) -> float:
    """Fixed point of the flip recurrence: eta_inf = beta / (1 + beta) < 1/2."""
    return ratios.beta / (1.0 + ratios.beta)


def closed_form_efficiency(ratios: FlipRatios, n: int) -> float:
    """Efficiency after the n-th flip: beta * (1 - beta^(2n)) / (1 + beta)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    beta = ratios.beta
    return beta * (1.0 - beta ** (2 * n)) / (1.0 + beta)


def flip_efficiency_series(ratios: FlipRatios, v0: float, n_cycles: int) -> FlipSeries:
    """Iterate flip_step from an empty C_T for n_cycles flips at constant
    pre-flip magnitude v0, recording eta_n = |V_PT after| / v0."""
    if n_cycles < 1:
        raise ValueError("n_cycles must be >= 1")
    if not 0.0 < v0 < math.inf:
        raise ValueError("v0 must be finite and > 0")
    vt = 0.0
    effs = []
    vts = []
    for _ in range(n_cycles):
        vpt_out, vt = flip_step(v0, vt, ratios)
        effs.append(abs(vpt_out) / v0)
        vts.append(vt)
    return FlipSeries(
        efficiencies=tuple(effs),
        vt_trajectory=tuple(vts),
        limit=steady_state_efficiency(ratios),
    )


def first_flip_efficiency(ratios: FlipRatios) -> float:
    """Efficiency of a single flip from an empty C_T: alpha * beta."""
    return ratios.alpha * ratios.beta


def optimal_single_flip_ct(cap_cp: float) -> float:
    """C_T maximizing the single-flip efficiency C_P*C_T/(C_P+C_T)^2.

    The product alpha*beta = r/(1+r)^2 in the ratio r = C_T/C_P is unimodal
    with its maximum 1/4 at r = 1, so the optimum is C_T = C_P.
    """
    if not cap_cp > 0:
        raise ValueError("cap_cp must be > 0")
    return cap_cp


def cycles_to_converge(ratios: FlipRatios, fraction: float) -> int:
    """Smallest n with eta_n >= fraction * eta_inf.

    From the closed form, eta_n / eta_inf = 1 - beta^(2n), giving
    n = ceil(ln(1 - fraction) / (2 ln beta)); nudged by direct evaluation to
    absorb floating-point edge cases.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must lie strictly inside (0, 1)")
    beta = ratios.beta
    n = max(1, math.ceil(math.log1p(-fraction) / (2.0 * math.log(beta))))
    while n > 1 and 1.0 - beta ** (2 * (n - 1)) >= fraction:
        n -= 1
    while 1.0 - beta ** (2 * n) < fraction:
        n += 1
    return n
