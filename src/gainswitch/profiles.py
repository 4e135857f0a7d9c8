"""Parameter profiles: the embedded default and INI-style profile files.

A profile is UTF-8 text, which may start with a byte-order mark, with a
[laser] section carrying the device constants, plus optional [drive] and
[attack] sections; any other section, [DEFAULT] included, is refused.
One table per section (SECTIONS) gives each key's unit, the unit the
datasheet-style table quotes it in, and the unit fixes the factor to SI
(SI_FACTOR); parsing, the defaults of a missing section and dump_profile
all read it.
Laser and drive entries are written "<value> <unit>"; an [attack] entry
is a bare number, which may carry its unit. A '%' has no special meaning.
Values are converted to SI exactly once, here, so the rest of the package
never sees cm-based units. The [attack] entries become an AttackScenario,
defined here beside the Profile that holds it, so that loading a profile
imports no numpy.
"""

import configparser
import functools
from dataclasses import dataclass

from .errors import ConfigError, check_range
from .thermal import LaserConstants

# the SI value of one of each unit a profile quotes
SI_FACTOR = {"cm^3/s": 1e-6, "cm^-3": 1e6, "ns": 1e-9, "ps": 1e-12,
             "um": 1e-6, "A/cm^2": 1e4, "K": 1.0, "degC": 1.0, "-": 1.0,
             "dB/km": 1.0}

# each section's entries, in profile order: key -> unit. The records
# built from them (LaserConstants, AttackScenario, Profile) check the
# ranges, in SI units
SECTIONS = {
    "laser": {"g0_ref": "cm^3/s", "n0_ref": "cm^-3", "tau_n_ref": "ns",
              "tau_p": "ps", "beta_sp": "-", "d": "um", "gamma": "-",
              "j_ac": "A/cm^2", "j_dc": "A/cm^2", "t0": "K", "t0a": "K",
              "t_ref": "degC"},
    "drive": {"j_ac_signal": "A/cm^2", "j_ac_decoy": "A/cm^2",
              "duration": "ps"},
    "attack": {"mu": "-", "nu": "-", "alpha": "-", "beta_d": "-",
               "p_dis": "-", "y0": "-", "eta0": "-",
               "delta_db_per_km": "dB/km"},
}

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

    # each current and duration field's range, and the profile entry that
    # sets it, which a refusal names, in profile order: j_ac comes before
    # the [drive] amplitudes, which a profile without [drive] takes from it
    RANGES = {"j_ac": ("[laser] j_ac", "(0, inf)"),
              "j_dc": ("[laser] j_dc", "[0, inf)"),
              "j_ac_signal": ("[drive] j_ac_signal", "(0, inf)"),
              "j_ac_decoy": ("[drive] j_ac_decoy", "(0, inf)"),
              "pulse_duration": ("[drive] duration", "(0, inf)")}

    def __post_init__(self):
        for name, (entry, interval) in self.RANGES.items():
            check_range(getattr(self, name), entry, interval)


def _parse_entry(section, key, raw):
    """Split '<value> <unit>', check the unit, and convert to SI. An
    [attack] entry is a bare number, which may carry its own unit."""
    unit = SECTIONS[section][key]
    bare = section == "attack"
    parts = raw.split()
    if bare and len(parts) == 1:
        parts.append(unit)
    if len(parts) != 2 or (bare and parts[1] != unit):
        shape = "a bare number" if bare else "'<value> <unit>'"
        raise ConfigError(f"[{section}] {key}: expected {shape}, got {raw!r}")
    try:
        value = float(parts[0])
    except ValueError:
        raise ConfigError(
            f"[{section}] {key}: not a number: {parts[0]!r}") from None
    if parts[1] != unit:
        raise ConfigError(
            f"[{section}] {key}: bad units {parts[1]!r}, expected {unit!r}")
    return value * SI_FACTOR[unit]


def _section(parser, section, source):
    """A section's entries in SI units; its keys must be the table's."""
    entries = SECTIONS[section]
    raw = dict(parser.items(section))
    for key in raw:
        if key not in entries:
            raise ConfigError(f"{source}: unknown key [{section}] {key}")
    missing = sorted(set(entries) - set(raw))
    if missing:
        raise ConfigError(
            f"{source}: missing [{section}] keys: {', '.join(missing)}")
    return {key: _parse_entry(section, key, text) for key, text in raw.items()}


def parse_profile(text, source="<embedded>"):
    """Parse profile text into a Profile; raises ConfigError on any problem."""
    # a profile has no interpolation: a '%' is part of the value. Nor has
    # it a default section: a header names at least one character, so
    # '[DEFAULT]' is a section like any other
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                       interpolation=None, default_section="")
    try:
        parser.read_string(text, source=source)
    except configparser.MissingSectionHeaderError as exc:
        raise ConfigError(f"{source}:{exc.lineno}: no section header before "
                          f"{exc.line.strip()!r}") from None
    except configparser.ParsingError as exc:
        # the first bad line, numbered as configparser splits the text
        lineno = exc.errors[0][0]
        line = text.split("\n")[lineno - 1].strip()
        raise ConfigError(f"{source}:{lineno}: cannot parse {line!r}") from None
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", None)
        where = f"{source}:{lineno}" if lineno else source
        raise ConfigError(f"{where}: {exc.message}") from None

    for section in parser.sections():
        if section not in SECTIONS:
            raise ConfigError(f"{source}: unknown section [{section}]")
    if not parser.has_section("laser"):
        raise ConfigError(f"{source}: missing required section [laser]")

    laser = _section(parser, "laser", source)
    try:
        # every [laser] entry but the two current densities is a constant
        constants = LaserConstants(**{key: value for key, value in laser.items()
                                      if key not in ("j_ac", "j_dc")})
    except ConfigError as exc:
        raise ConfigError(f"{source}: [laser] {exc}") from None

    if parser.has_section("drive"):
        drive = _section(parser, "drive", source)
    else:
        # a profile without [drive] pulses both states at the table amplitude
        drive = {"j_ac_signal": laser["j_ac"], "j_ac_decoy": laser["j_ac"],
                 "duration": default_profile().pulse_duration}

    if parser.has_section("attack"):
        attack = _section(parser, "attack", source)
        try:
            scenario = AttackScenario(**attack)
        except ConfigError as exc:
            raise ConfigError(f"{source}: [attack] {exc}") from None
    else:
        scenario = default_profile().attack

    try:
        return Profile(
            constants=constants,
            j_dc=laser["j_dc"],
            j_ac=laser["j_ac"],
            j_ac_signal=drive["j_ac_signal"],
            j_ac_decoy=drive["j_ac_decoy"],
            pulse_duration=drive["duration"],
            attack=scenario,
        )
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_profile(path=None):
    """Load a profile file, or the embedded default when path is None."""
    if path is None:
        return default_profile()
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read profile {path!r}: {exc}") from None
    return parse_profile(text, source=str(path))


@functools.cache
def default_profile():
    """The embedded default profile (parsed once and cached)."""
    return parse_profile(DEFAULT_PROFILE)


def dump_profile(profile):
    """Render a Profile back to profile text that re-parses identically."""
    si = {**vars(profile.constants), **vars(profile.attack),
          "j_ac": profile.j_ac, "j_dc": profile.j_dc,
          "j_ac_signal": profile.j_ac_signal,
          "j_ac_decoy": profile.j_ac_decoy, "duration": profile.pulse_duration}
    blocks = []
    for section, entries in SECTIONS.items():
        block = f"[{section}]\n"
        for key, unit in entries.items():
            # an [attack] entry leaves out the '-' it may omit
            suffix = "" if (section, unit) == ("attack", "-") else f" {unit}"
            block += f"{key} = {si[key] / SI_FACTOR[unit]!r}{suffix}\n"
        blocks.append(block)
    return "\n".join(blocks)
