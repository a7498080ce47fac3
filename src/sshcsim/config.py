"""Flat key=value config files with engineering unit suffixes.

Values accept an optional SI prefix and unit, e.g. ``10nF``, ``50uA``,
``100Hz``, ``2.0V``, ``1e-6s``. ``cap_ct`` also accepts ``Nx``, N times
``cap_cp``, and the timings accept ``auto``, SimConfig's default. Overrides
(the CLI's ``--full-bridge``, ``--set``, ``--ct-ratio`` and ``--cycles``, in
that order) win over config file keys, which win over the defaults. Each key
is declared once, as a ResolvedConfig field that carries its default text and
its parser, and the parsers only turn text into values.
The range rules live in the value types that hold the values (every number
finite except ``res_rp = inf``, which means no leakage; a ratio C_T/C_P that
floats can represent, from about 1e-16 to 1e16). parse_config builds them
once and turns each rejection into a ConfigError naming its key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Dict, Mapping, Optional

from .circuit import FieldError, FiniteCap, FixedVoltage, PiezoSource, RectifierStage, SshcNetwork
from .flip import FlipRatios
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


# A parser takes the stripped text, the key, and the values resolved so far.
Parser = Callable[[str, str, Dict[str, object]], object]


def _quantity(text: str, key: str, got: Dict[str, object]) -> float:
    return parse_quantity(text, key)


def _optional_cap(text: str, key: str, got: Dict[str, object]) -> Optional[float]:
    return None if text.lower() == "none" else parse_quantity(text, key)


def _auto(text: str, key: str, got: Dict[str, object]) -> Optional[float]:
    """'auto' as None: SimConfig's default, the period over the key's entry
    in transient.PERIOD_DIVISORS."""
    return None if text == "auto" else parse_quantity(text, key)


def _cap_ct(text: str, key: str, got: Dict[str, object]) -> float:
    if not text.endswith("x"):
        return parse_quantity(text, key)
    try:
        return float(text[:-1]) * got["cap_cp"]
    except ValueError:
        raise ConfigError(key, f"cannot parse ratio {text!r}") from None


def _bool(text: str, key: str, got: Dict[str, object]) -> bool:
    t = text.lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ConfigError(key, f"cannot parse boolean {text!r}")


def _count(text: str, key: str, got: Dict[str, object]) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(key, f"cannot parse integer {text!r}") from None


def _key(default: str, parse: Parser):
    """A ResolvedConfig field that is a config key: its default text and the
    parser that turns text into its value."""
    return field(metadata={"default": default, "parse": parse})


# The fields of the value types whose config key has another name.
_KEY_OF_FIELD = {"vs": "storage_vs", "vs_initial": "storage_vs", "cs": "storage_cs"}


@dataclass(frozen=True)
class ResolvedConfig:
    """Fully resolved parameter set plus its canonical string echo.

    Each field is a config key, with its default text and parser. Keys are
    resolved in field order, so a parser may read the keys above it: cap_ct
    reads cap_cp."""

    # Chosen so the conduction threshold is 2.4 V and the open-circuit swing
    # comfortably re-reaches the clamp every half cycle.
    amplitude_ip: float = _key("50uA", _quantity)
    frequency: float = _key("100Hz", _quantity)
    cap_cp: float = _key("10nF", _quantity)
    res_rp: float = _key("inf", _quantity)
    diode_drop_vd: float = _key("0.2V", _quantity)
    storage_vs: float = _key("2.0V", _quantity)
    storage_cs: Optional[float] = _key("none", _optional_cap)
    cap_ct: float = _key("1x", _cap_ct)
    full_bridge: bool = _key("false", _bool)
    # The timings are None for 'auto' until parse_config stores SimConfig's
    # resolved values.
    dt: Optional[float] = _key("auto", _auto)
    n_cycles: int = _key("10", _count)
    phase_pulse_width: Optional[float] = _key("auto", _auto)
    phase_gap: Optional[float] = _key("auto", _auto)

    def echo(self) -> Dict[str, str]:
        """Canonical key=value form; re-parsing it reproduces this config.

        str() of a float is its repr, and lower() spells True, False and None
        as the parsers read them."""
        return {f.name: str(getattr(self, f.name)).lower() for f in fields(self)}

    def ratios(self) -> FlipRatios:
        """The sharing ratios of cap_cp and cap_ct, as every subcommand uses them."""
        return FlipRatios.from_caps(self.cap_cp, self.cap_ct)

    def piezo_source(self) -> PiezoSource:
        return PiezoSource(
            amplitude_ip=self.amplitude_ip,
            frequency=self.frequency,
            cap_cp=self.cap_cp,
            res_rp=self.res_rp,
        )

    def rectifier_stage(self) -> RectifierStage:
        storage = (
            FixedVoltage(self.storage_vs)
            if self.storage_cs is None
            else FiniteCap(self.storage_cs, self.storage_vs)
        )
        return RectifierStage(diode_drop_vd=self.diode_drop_vd, storage=storage)

    def sim_config(self) -> SimConfig:
        src = self.piezo_source()
        stage = self.rectifier_stage()
        sshc = None if self.full_bridge else SshcNetwork(cap_ct=self.cap_ct)
        return SimConfig(
            src=src,
            stage=stage,
            sshc=sshc,
            dt=self.dt,
            n_cycles=self.n_cycles,
            phase_pulse_width=self.phase_pulse_width,
            phase_gap=self.phase_gap,
        )


def read_config_file(path: str) -> Dict[str, str]:
    try:
        # utf-8-sig drops the byte-order mark that some editors write first.
        with open(path, "r", encoding="utf-8-sig") as fh:
            lines = list(fh)
    except (OSError, UnicodeDecodeError) as exc:
        # A missing file, a directory or text that is not UTF-8 names the flag.
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ConfigError("--config", f"cannot read {path!r}: {reason}") from None
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(lines, start=1):
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
    keys = fields(ResolvedConfig)
    raw = {f.name: f.metadata["default"] for f in keys}
    for source in (read_config_file(path) if path else {}, overrides or {}):
        for key, value in source.items():
            if key not in raw:
                raise ConfigError(key, "unknown key")
            raw[key] = str(value)

    got: Dict[str, object] = {}
    for f in keys:
        got[f.name] = f.metadata["parse"](raw[f.name].strip(), f.name, got)
    resolved = ResolvedConfig(**got)
    # The value types own the range rules; a rejection names its field. The
    # source comes first, so a bad cap_cp is not reported as a bad ratio.
    try:
        sim = resolved.sim_config()
    except FieldError as exc:
        raise ConfigError(_KEY_OF_FIELD.get(exc.field, exc.field), exc.message) from None
    try:
        resolved.ratios()
    except FieldError as exc:
        # The ratio names cap_ct already; a rule on alpha or beta names its field.
        detail = exc.message if exc.field == "cap_ct" else str(exc)
        ratio = resolved.cap_ct / resolved.cap_cp
        raise ConfigError("cap_ct", f"C_T/C_P = {ratio!r}: {detail}") from None
    return replace(
        resolved, dt=sim.dt, phase_pulse_width=sim.phase_pulse_width, phase_gap=sim.phase_gap
    )
