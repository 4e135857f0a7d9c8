"""Parameter profiles: the embedded default and INI-style profile files.

A profile is structured text with a [laser] section carrying the device
constants, plus optional [drive] and [attack] sections. Laser and drive
entries are written "<value> <unit>" with one fixed accepted unit per key
(the unit the datasheet-style table quotes them in); values are converted
to SI exactly once, here, so the rest of the package never sees cm-based
units. The [attack] entries become an AttackScenario, defined here beside
the Profile that holds it, so that loading a profile imports no numpy.
"""

import configparser
import functools
import io
from dataclasses import dataclass

from .errors import ConfigError, check_range
from .thermal import LaserConstants

# key -> (required unit string, factor converting the quoted value to SI)
LASER_UNITS = {
    "g0_ref": ("cm^3/s", 1e-6),
    "n0_ref": ("cm^-3", 1e6),
    "tau_n_ref": ("ns", 1e-9),
    "tau_p": ("ps", 1e-12),
    "beta_sp": ("-", 1.0),
    "d": ("um", 1e-6),
    "gamma": ("-", 1.0),
    "j_ac": ("A/cm^2", 1e4),
    "j_dc": ("A/cm^2", 1e4),
    "t0": ("K", 1.0),
    "t0a": ("K", 1.0),
    "t_ref": ("degC", 1.0),
}

DRIVE_UNITS = {
    "j_ac_signal": ("A/cm^2", 1e4),
    "j_ac_decoy": ("A/cm^2", 1e4),
    "duration": ("ps", 1e-12),
}

# the range of each entry that is no laser constant, in SI units; the
# laser constants and the [attack] entries are checked by their classes
ENTRY_RANGES = {"j_dc": "[0, inf)", **dict.fromkeys(
    ("j_ac", "j_ac_signal", "j_ac_decoy", "duration"), "(0, inf)")}

# attack entries are dimensionless except the loss coefficient
ATTACK_KEYS = ("mu", "nu", "alpha", "beta_d", "p_dis", "y0", "eta0",
               "delta_db_per_km")

DEFAULT_PROFILE = """\
[laser]
g0_ref = 2.0e-6 cm^3/s
n0_ref = 1.0e18 cm^-3
tau_n_ref = 1.2 ns
tau_p = 5.0 ps
beta_sp = 0.001 -
d = 0.1 um
gamma = 0.5 -
j_ac = 2.4e4 A/cm^2
j_dc = 4.8e2 A/cm^2
t0 = 80.0 K
t0a = 100.0 K
t_ref = 25.0 degC

[drive]
j_ac_signal = 2.4e4 A/cm^2
j_ac_decoy = 2.0e4 A/cm^2
duration = 100.0 ps

[attack]
mu = 0.48
nu = 0.05
alpha = 0.8
beta_d = 0.4
p_dis = 0.8
y0 = 1.7e-6
eta0 = 0.045
delta_db_per_km = 0.21 dB/km
"""


@dataclass(frozen=True)
class AttackScenario:
    """Inputs of the attack: source intensities, detector, and channel."""

    mu: float                  # signal mean photon number
    nu: float                  # decoy mean photon number
    alpha: float               # signal attenuation factor under heating
    beta_d: float              # decoy attenuation factor under heating
    p_dis: float               # probability Eve distinguishes signal vs decoy
    y0: float                  # dark count rate
    eta0: float                # detection-side transmittance prefactor
    delta_db_per_km: float     # channel loss coefficient, dB/km

    # each field's range; mu > nu and alpha > beta_d are checked after
    RANGES = {"mu": "(0, inf)", "nu": "(0, inf)", "alpha": "(0, 1)",
              "beta_d": "(0, 1)", "p_dis": "(0, 1]", "y0": "[0, inf)",
              "eta0": "(0, 1]", "delta_db_per_km": "(0, inf)"}

    def __post_init__(self):
        for name, interval in self.RANGES.items():
            check_range(getattr(self, name), name, interval)
        if not self.mu > self.nu:
            raise ConfigError(
                f"need mu > nu, got mu={self.mu!r}, nu={self.nu!r}")
        if not self.alpha > self.beta_d:
            raise ConfigError(f"need alpha > beta_d, got alpha="
                              f"{self.alpha!r}, beta_d={self.beta_d!r}")


@dataclass(frozen=True)
class Profile:
    """Fully ingested profile, SI units throughout."""

    constants: LaserConstants
    j_dc: float           # DC bias current density, A/m^2
    j_ac: float           # AC amplitude from the laser table, A/m^2
    j_ac_signal: float    # signal-state AC amplitude, A/m^2
    j_ac_decoy: float     # decoy-state AC amplitude, A/m^2
    pulse_duration: float  # s
    attack: AttackScenario


def _number(section, key, text):
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: not a number: {text!r}") from None


def _parse_entry(section, key, raw, unit_table):
    """Split '<value> <unit>', check the unit, and convert to SI."""
    expected_unit, factor = unit_table[key]
    parts = raw.split()
    if len(parts) != 2:
        raise ConfigError(
            f"[{section}] {key}: expected '<value> <unit>', got {raw!r}")
    value = _number(section, key, parts[0])
    if parts[1] != expected_unit:
        raise ConfigError(
            f"[{section}] {key}: bad units {parts[1]!r}, expected {expected_unit!r}")
    si = value * factor
    if key in ENTRY_RANGES:
        check_range(si, f"[{section}] {key}", ENTRY_RANGES[key])
    return si


def _parse_bare(section, key, raw, unit):
    """Parse a dimensionless entry, tolerating an optional unit suffix."""
    parts = raw.split()
    if len(parts) == 2 and parts[1] == unit:
        parts = parts[:1]
    if len(parts) != 1:
        raise ConfigError(
            f"[{section}] {key}: expected a bare number, got {raw!r}")
    return _number(section, key, parts[0])


def _section(parser, section, keys, source):
    """A section's raw entries, which must be exactly the given keys."""
    raw = dict(parser.items(section))
    for key in raw:
        if key not in keys:
            raise ConfigError(f"{source}: unknown key [{section}] {key}")
    missing = sorted(set(keys) - set(raw))
    if missing:
        raise ConfigError(
            f"{source}: missing [{section}] keys: {', '.join(missing)}")
    return raw


def parse_profile(text, source="<embedded>"):
    """Parse profile text into a Profile; raises ConfigError on any problem."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text, source=source)
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        where = f"{source}:{lineno}" if lineno else source
        raise ConfigError(f"{where}: {exc.message}") from None

    for section in parser.sections():
        if section not in ("laser", "drive", "attack"):
            raise ConfigError(f"{source}: unknown section [{section}]")
    if not parser.has_section("laser"):
        raise ConfigError(f"{source}: missing required section [laser]")

    laser_raw = _section(parser, "laser", LASER_UNITS, source)
    laser = {key: _parse_entry("laser", key, raw, LASER_UNITS)
             for key, raw in laser_raw.items()}

    try:
        # every [laser] entry but the two current densities is a constant
        constants = LaserConstants(**{key: value for key, value in laser.items()
                                      if key not in ("j_ac", "j_dc")})
    except ConfigError as exc:
        raise ConfigError(f"{source}: [laser] {exc}") from None

    if parser.has_section("drive"):
        drive_raw = _section(parser, "drive", DRIVE_UNITS, source)
        drive = {key: _parse_entry("drive", key, raw, DRIVE_UNITS)
                 for key, raw in drive_raw.items()}
    else:
        # a profile without [drive] pulses both states at the table amplitude
        drive = {"j_ac_signal": laser["j_ac"], "j_ac_decoy": laser["j_ac"],
                 "duration": 100e-12}

    if parser.has_section("attack"):
        attack_raw = _section(parser, "attack", ATTACK_KEYS, source)
        values = {key: _parse_bare("attack", key, raw, "dB/km"
                                   if key == "delta_db_per_km" else "-")
                  for key, raw in attack_raw.items()}
        try:
            scenario = AttackScenario(**values)
        except ConfigError as exc:
            raise ConfigError(f"{source}: [attack] {exc}") from None
    else:
        scenario = default_profile().attack

    return Profile(
        constants=constants,
        j_dc=laser["j_dc"],
        j_ac=laser["j_ac"],
        j_ac_signal=drive["j_ac_signal"],
        j_ac_decoy=drive["j_ac_decoy"],
        pulse_duration=drive["duration"],
        attack=scenario,
    )


def load_profile(path=None):
    """Load a profile file, or the embedded default when path is None."""
    if path is None:
        return default_profile()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read profile {path!r}: {exc}") from None
    return parse_profile(text, source=str(path))


@functools.cache
def default_profile():
    """The embedded default profile (parsed once and cached)."""
    return parse_profile(DEFAULT_PROFILE)


def dump_profile(profile):
    """Render a Profile back to profile text that re-parses identically."""
    # SI values of the entries that do not live on profile.constants
    si = {"j_ac": profile.j_ac, "j_dc": profile.j_dc,
          "j_ac_signal": profile.j_ac_signal,
          "j_ac_decoy": profile.j_ac_decoy, "duration": profile.pulse_duration}
    out = io.StringIO()
    for section, units in (("laser", LASER_UNITS), ("drive", DRIVE_UNITS)):
        out.write(f"[{section}]\n")
        for key, (unit, factor) in units.items():
            value = si[key] if key in si else getattr(profile.constants, key)
            out.write(f"{key} = {value / factor!r} {unit}\n")
        out.write("\n")
    out.write("[attack]\n")
    for key in ATTACK_KEYS:
        suffix = " dB/km" if key == "delta_db_per_km" else ""
        out.write(f"{key} = {getattr(profile.attack, key)!r}{suffix}\n")
    return out.getvalue()
