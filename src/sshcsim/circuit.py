"""Physical value types for the harvester front-end and the parameter-only formulas.

The piezo harvester is modeled as a sinusoidal current source in parallel with
its plate capacitance (and an optional leakage resistor), feeding a four-diode
bridge into a storage element. Everything here is a pure function of the
parameters; time-domain behavior lives in :mod:`sshcsim.transient`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Union


class FieldError(ValueError):
    """A value out of its range, naming the field that holds it. str() reads
    "<field> <message>"; message alone leaves the naming to the caller."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field} {message}")
        self.field = field
        self.message = message


def require_finite(obj: object, *names: str, sign: str = "") -> None:
    """Raise FieldError naming the first of obj's fields that is NaN or
    infinite, which would run on silently into NaN events, or that breaks
    sign, "> 0" or ">= 0"."""
    for name in names:
        value = getattr(obj, name)
        if not math.isfinite(value):
            raise FieldError(name, f"must be finite, got {value!r}")
        if sign and not (value > 0 or (sign == ">= 0" and value == 0)):
            raise FieldError(name, f"must be {sign}, got {value!r}")


@dataclass(frozen=True)
class PiezoSource:
    """Sinusoidal current source I(t) = amplitude_ip * sin(2*pi*frequency*t)
    in parallel with plate capacitance cap_cp and leakage res_rp
    (math.inf = no leakage, the one non-finite value any field takes)."""

    amplitude_ip: float  # A
    frequency: float     # Hz
    cap_cp: float        # F
    res_rp: float = math.inf  # ohm

    def __post_init__(self):
        require_finite(self, "amplitude_ip", "frequency", "cap_cp", sign="> 0")
        if not self.res_rp > 0:
            raise FieldError("res_rp", f"must be > 0 or inf, got {self.res_rp!r}")
        # C_P must be a normal float, since a subnormal one loses digits in
        # every charge product, and each rate and charge the engine derives finite.
        if self.cap_cp < sys.float_info.min:
            raise FieldError(
                "cap_cp", f"must be a normal float, >= {sys.float_info.min!r}, got {self.cap_cp!r}"
            )
        for name, rate, value in (
            ("frequency", "the period 1/f", self.period),
            ("frequency", "omega = 2*pi*f", self.omega),
            ("cap_cp", "I_P/(C_P*omega)", self.amplitude_ip / self.cap_cp / self.omega),
            ("amplitude_ip", "2*I_P/omega", 2.0 * self.amplitude_ip / self.omega),
            ("res_rp", "1/(R_P*C_P)", 1.0 / self.res_rp / self.cap_cp),
        ):
            if not math.isfinite(value):
                raise FieldError(name, f"must keep {rate} finite, got {getattr(self, name)!r}")

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency

    @property
    def period(self) -> float:
        return 1.0 / self.frequency


@dataclass(frozen=True)
class FixedVoltage:
    """Ideal storage: the output rail is pinned at vs regardless of harvested charge."""

    vs: float  # V

    def __post_init__(self):
        require_finite(self, "vs", sign=">= 0")


@dataclass(frozen=True)
class FiniteCap:
    """Finite storage capacitor cs starting at vs_initial; the rail rises as charge arrives."""

    cs: float          # F
    vs_initial: float = 0.0  # V

    def __post_init__(self):
        require_finite(self, "cs", sign="> 0")
        require_finite(self, "vs_initial", sign=">= 0")


Storage = Union[FixedVoltage, FiniteCap]


@dataclass(frozen=True)
class RectifierStage:
    """Full-bridge rectifier with per-diode drop diode_drop_vd into a storage element."""

    diode_drop_vd: float
    storage: Storage = field(default_factory=lambda: FixedVoltage(0.0))

    def __post_init__(self):
        require_finite(self, "diode_drop_vd", sign=">= 0")
        if not math.isfinite(conduction_threshold(self)):
            vd = self.diode_drop_vd
            raise FieldError(
                "diode_drop_vd", f"must keep the threshold vs + 2*vd finite, got {vd!r}"
            )

    @property
    def storage_voltage(self) -> float:
        """Current (or initial) storage rail voltage."""
        if isinstance(self.storage, FixedVoltage):
            return self.storage.vs
        return self.storage.vs_initial


@dataclass(frozen=True)
class SshcNetwork:
    """Temporary flip capacitor cap_ct and its stored plate voltage volt_vt.

    Sign convention: volt_vt is the voltage of the C_T plate that connects to
    the positive harvester terminal during the like-polarity share phase.
    """

    cap_ct: float       # F
    volt_vt: float = 0.0  # V

    def __post_init__(self):
        require_finite(self, "cap_ct", sign="> 0")
        require_finite(self, "volt_vt")


def conduction_threshold(stage: RectifierStage) -> float:
    """Bridge conduction threshold: |V_PT| at which diodes conduct, vs + 2*vd."""
    return stage.storage_voltage + 2.0 * stage.diode_drop_vd


def wasted_charge_fullbridge(src: PiezoSource, stage: RectifierStage) -> float:
    """Charge spent swinging cap_cp between the two conduction thresholds in a
    half vibration cycle: 2 * cap_cp * (vs + 2*vd). None of it reaches storage."""
    return 2.0 * src.cap_cp * conduction_threshold(stage)


def open_circuit_vpp(src: PiezoSource) -> float:
    """Peak-to-peak open-circuit voltage: the half-sine charge 2*Ip/omega
    integrated into cap_cp. Only defined for a leak-free source."""
    if math.isfinite(src.res_rp):
        raise ValueError(
            "open_circuit_vpp requires res_rp = inf; with leakage the "
            "peak-to-peak swing is load-dependent"
        )
    return 2.0 * src.amplitude_ip / (src.omega * src.cap_cp)


def full_swing_supported(src: PiezoSource, stage: RectifierStage) -> bool:
    """True when the (idealized, leak-free) open-circuit swing exceeds twice the
    conduction threshold, i.e. V_PT re-reaches the clamp rails every half cycle.

    The cycle-constant pre-flip voltage assumed by the closed-form flip series
    only holds in this regime.
    """
    vpp = 2.0 * src.amplitude_ip / (src.omega * src.cap_cp)
    return vpp > 2.0 * conduction_threshold(stage)
