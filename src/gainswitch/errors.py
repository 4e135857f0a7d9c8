"""Every error the package raises, under one base class. Each class
carries the exit code (2 bad input, 3 numeric divergence) and the label
of the "<label>: <message>" line that cli.main prints, and keeps its
builtin base, ValueError or RuntimeError. Messages name the bad key;
check_integer names an argument that must be an integer and is not."""

from operator import index


class GainswitchError(Exception):
    """Base of every error the package raises."""
    exit_code = 2
    label = "config error"


class ConfigError(GainswitchError, ValueError):
    """A bad profile entry, flag or argument that no other class covers."""


class DriveError(GainswitchError, ValueError):
    """A drive, pulse-train, time-grid or start-state input that describes
    no usable waveform or no grid of at most dynamics.MAX_STEPS steps."""
    label = "drive error"


class DivergenceError(GainswitchError, RuntimeError):
    """Integration produced a non-finite or badly negative state."""
    exit_code = 3
    label = "divergence"


class OperatingPointError(GainswitchError, ValueError):
    """No gain-switched operating point exists at this temperature."""
    label = "operating point error"


class AboveThresholdBiasError(OperatingPointError):
    """DC bias alone pushes the carrier density to or past threshold."""


class NoSteadyStateError(GainswitchError, ValueError):
    """No below-threshold photon steady state exists for this carrier density."""
    label = "operating point error"


class BelowThresholdPulseError(GainswitchError, RuntimeError):
    """The carrier density never reached threshold during the cycle."""
    label = "operating point error"


class UndefinedRateError(GainswitchError, ValueError):
    """Repetition rate asked of a pulse whose carriers never recovered."""
    label = "operating point error"


class InvalidRegimeError(GainswitchError, ValueError):
    """Closed-form decay estimate outside its regime of validity."""
    label = "operating point error"


class NoCrossingError(GainswitchError, ValueError):
    """No feasibility boundary exists inside the searched distance range."""
    label = "attack error"


class DegenerateAttackError(GainswitchError, ValueError):
    """A balance condition has no answer in double precision: a term the
    closed form divides by rounds to zero or is lost in rounding."""
    label = "attack error"


class ScanRangeError(GainswitchError, ValueError):
    """A distance, range or step that no solve or scan can use."""
    label = "attack error"


class TruncationError(GainswitchError, RuntimeError):
    """Truncated Poisson sum left a tail above the allowed bound."""
    label = "attack error"


def check_integer(value, name, error=ConfigError):
    """Raise error naming name unless value is an integer, as
    operator.index takes it: an int, a bool or a numpy integer."""
    try:
        index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
