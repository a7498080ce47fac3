"""Flat key=value config files with engineering unit suffixes.

Values accept an optional SI prefix and unit, e.g. ``10nF``, ``50uA``,
``100Hz``, ``2.0V``, ``1e-6s``. Every resolved number must be finite, except
``res_rp = inf``, which means no leakage. ``cap_ct`` additionally accepts the
ratio shorthand ``Nx`` meaning N times ``cap_cp``. Command-line overrides win
over file keys, which win over the documented defaults.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional

from .circuit import FiniteCap, FixedVoltage, PiezoSource, RectifierStage, SshcNetwork
from .transient import SimConfig


class ConfigError(ValueError):
    def __init__(self, key: str, message: str):
        super().__init__(f"{key}: {message}")
        self.key = key


_SI_PREFIXES = {
    "p": 1e-12,
    "n": 1e-9,
    "u": 1e-6,
    "µ": 1e-6,
    "m": 1e-3,
    "k": 1e3,
    "M": 1e6,
    "G": 1e9,
}
_UNIT_NAMES = ("Hz", "Ohm", "ohm", "F", "A", "V", "s", "W")

_DEFAULTS: Dict[str, str] = {
    # Chosen so the conduction threshold is 2.4 V and the open-circuit swing
    # comfortably re-reaches the clamp every half cycle.
    "amplitude_ip": "50uA",
    "frequency": "100Hz",
    "cap_cp": "10nF",
    "res_rp": "inf",
    "diode_drop_vd": "0.2V",
    "storage_vs": "2.0V",
    "storage_cs": "none",
    "cap_ct": "1x",
    "full_bridge": "false",
    "dt": "auto",          # period / 10000
    "n_cycles": "10",
    "phase_pulse_width": "auto",  # period / 500
    "phase_gap": "auto",          # period / 2000
}

_KEYS = frozenset(_DEFAULTS)


def parse_quantity(text: str, key: str = "value") -> float:
    """Parse a number with optional SI prefix and unit; 'inf' is accepted."""
    s = text.strip()
    if s.lower() in ("inf", "infinite", "infinity"):
        return math.inf
    for unit in _UNIT_NAMES:
        if s.endswith(unit):
            s = s[: -len(unit)].strip()
            break
    scale = 1.0
    if s and s[-1] in _SI_PREFIXES:
        scale = _SI_PREFIXES[s[-1]]
        s = s[:-1].strip()
    try:
        return float(s) * scale
    except ValueError:
        raise ConfigError(key, f"cannot parse quantity {text!r}") from None


def _parse_bool(text: str, key: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"cannot parse boolean {text!r}")


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully resolved parameter set plus its canonical string echo."""

    amplitude_ip: float
    frequency: float
    cap_cp: float
    res_rp: float
    diode_drop_vd: float
    storage_vs: float
    storage_cs: Optional[float]
    cap_ct: float
    full_bridge: bool
    dt: float
    n_cycles: int
    phase_pulse_width: float
    phase_gap: float

    def echo(self) -> Dict[str, str]:
        """Canonical key=value form; re-parsing it reproduces this config."""
        return {
            "amplitude_ip": repr(self.amplitude_ip),
            "frequency": repr(self.frequency),
            "cap_cp": repr(self.cap_cp),
            "res_rp": "inf" if math.isinf(self.res_rp) else repr(self.res_rp),
            "diode_drop_vd": repr(self.diode_drop_vd),
            "storage_vs": repr(self.storage_vs),
            "storage_cs": "none" if self.storage_cs is None else repr(self.storage_cs),
            "cap_ct": repr(self.cap_ct),
            "full_bridge": "true" if self.full_bridge else "false",
            "dt": repr(self.dt),
            "n_cycles": str(self.n_cycles),
            "phase_pulse_width": repr(self.phase_pulse_width),
            "phase_gap": repr(self.phase_gap),
        }

    def piezo_source(self) -> PiezoSource:
        try:
            return PiezoSource(
                amplitude_ip=self.amplitude_ip,
                frequency=self.frequency,
                cap_cp=self.cap_cp,
                res_rp=self.res_rp,
            )
        except ValueError as exc:
            raise ConfigError("amplitude_ip/frequency/cap_cp/res_rp", str(exc)) from exc

    def rectifier_stage(self) -> RectifierStage:
        storage = (
            FixedVoltage(self.storage_vs)
            if self.storage_cs is None
            else FiniteCap(self.storage_cs, self.storage_vs)
        )
        try:
            return RectifierStage(diode_drop_vd=self.diode_drop_vd, storage=storage)
        except ValueError as exc:
            raise ConfigError("diode_drop_vd/storage_vs/storage_cs", str(exc)) from exc

    def sshc_network(self) -> Optional[SshcNetwork]:
        if self.full_bridge:
            return None
        try:
            return SshcNetwork(cap_ct=self.cap_ct)
        except ValueError as exc:
            raise ConfigError("cap_ct", str(exc)) from exc

    def sim_config(self) -> SimConfig:
        try:
            return SimConfig(
                src=self.piezo_source(),
                stage=self.rectifier_stage(),
                sshc=self.sshc_network(),
                dt=self.dt,
                n_cycles=self.n_cycles,
                phase_pulse_width=self.phase_pulse_width,
                phase_gap=self.phase_gap,
            )
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError("dt/n_cycles/phase_pulse_width/phase_gap", str(exc)) from exc


def read_config_file(path: str) -> Dict[str, str]:
    raw: Dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            if "=" not in stripped:
                raise ConfigError(f"line {lineno}", f"expected key = value, got {line.strip()!r}")
            key, value = (part.strip() for part in stripped.split("=", 1))
            raw[key] = value
    return raw


def parse_config(
    path: Optional[str] = None, overrides: Optional[Mapping[str, str]] = None
) -> ResolvedConfig:
    """Resolve defaults, optional config file, then overrides into a validated
    parameter set. Unknown keys and out-of-range values name the offending key."""
    raw = dict(_DEFAULTS)
    for source in (read_config_file(path) if path else {}, overrides or {}):
        for key, value in source.items():
            if key not in _KEYS:
                raise ConfigError(key, "unknown key")
            raw[key] = str(value)

    frequency = _positive(parse_quantity(raw["frequency"], "frequency"), "frequency")
    period = 1.0 / frequency
    cap_cp = _positive(parse_quantity(raw["cap_cp"], "cap_cp"), "cap_cp")

    ct_text = raw["cap_ct"].strip()
    if ct_text.endswith("x"):
        try:
            ratio = float(ct_text[:-1])
        except ValueError:
            raise ConfigError("cap_ct", f"cannot parse ratio {ct_text!r}") from None
        cap_ct = _positive(ratio, "cap_ct") * cap_cp
    else:
        cap_ct = _positive(parse_quantity(ct_text, "cap_ct"), "cap_ct")

    cs_text = raw["storage_cs"].strip().lower()
    storage_cs = None if cs_text == "none" else _positive(
        parse_quantity(raw["storage_cs"], "storage_cs"), "storage_cs"
    )

    dt = (
        period / 10_000.0
        if raw["dt"].strip() == "auto"
        else _positive(parse_quantity(raw["dt"], "dt"), "dt")
    )
    pulse_width = (
        period / 500.0
        if raw["phase_pulse_width"].strip() == "auto"
        else _positive(parse_quantity(raw["phase_pulse_width"], "phase_pulse_width"), "phase_pulse_width")
    )
    gap = (
        period / 2_000.0
        if raw["phase_gap"].strip() == "auto"
        else _non_negative(parse_quantity(raw["phase_gap"], "phase_gap"), "phase_gap")
    )

    try:
        n_cycles = int(raw["n_cycles"])
    except ValueError:
        raise ConfigError("n_cycles", f"cannot parse integer {raw['n_cycles']!r}") from None
    if n_cycles < 1:
        raise ConfigError("n_cycles", "must be >= 1")

    res_rp = parse_quantity(raw["res_rp"], "res_rp")
    if res_rp != math.inf:  # inf is the documented "no leakage" value
        _positive(res_rp, "res_rp")

    resolved = ResolvedConfig(
        amplitude_ip=_positive(parse_quantity(raw["amplitude_ip"], "amplitude_ip"), "amplitude_ip"),
        frequency=frequency,
        cap_cp=cap_cp,
        res_rp=res_rp,
        diode_drop_vd=_non_negative(parse_quantity(raw["diode_drop_vd"], "diode_drop_vd"), "diode_drop_vd"),
        storage_vs=_non_negative(parse_quantity(raw["storage_vs"], "storage_vs"), "storage_vs"),
        storage_cs=storage_cs,
        cap_ct=cap_ct,
        full_bridge=_parse_bool(raw["full_bridge"], "full_bridge"),
        dt=dt,
        n_cycles=n_cycles,
        phase_pulse_width=pulse_width,
        phase_gap=gap,
    )
    # Surface range violations (e.g. dt too coarse) with a config error now.
    resolved.sim_config()
    return resolved


def _finite(value: float, key: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(key, f"must be finite, got {value!r}")
    return value


def _positive(value: float, key: str) -> float:
    if not _finite(value, key) > 0:
        raise ConfigError(key, f"must be > 0, got {value!r}")
    return value


def _non_negative(value: float, key: str) -> float:
    if _finite(value, key) < 0:
        raise ConfigError(key, f"must be >= 0, got {value!r}")
    return value
