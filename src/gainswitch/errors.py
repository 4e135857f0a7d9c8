"""Every error the package raises, under one base class. Each class
carries the exit code (2 bad input, 3 numeric divergence) and the label
of the "<label>: <message>" line that cli.main prints, and keeps its
builtin base, ValueError or RuntimeError. Messages name the bad key;
every numeric argument is checked by check_range or check_integer."""

import math
from functools import cache
from numbers import Integral, Real


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


@cache
def _interval(text):
    """(low, high, low included, high included) of an interval written as
    text, such as "(0, 1]" or "[0, inf)"; each text is parsed once."""
    low, high = (float(end) for end in text[1:-1].split(","))
    return low, high, text[0] == "[", text[-1] == "]"


def shown(value):
    """value!r for a message, or "an int of about N digits" for an int
    too long to print (more digits than sys.get_int_max_str_digits())."""
    try:
        return repr(value)
    except ValueError:
        if not isinstance(value, int):
            raise
        digits = round(value.bit_length() * math.log10(2))
        return f"an int of about {digits} digits"


def check_range(value, name, interval, error=ConfigError):
    """Raise error, "<name> must lie in <interval>, got <value>", unless
    value is a real number, not a bool, whose float is finite and lies in
    interval, written as "(0, 1]": nan, +-inf, an int too large for a
    float, True, numpy's bool_ and a string are refused."""
    low, high, low_in, high_in = _interval(interval)
    try:
        # a float skips the ABC check, which costs more than the rest
        x = (value if type(value) is float else float(value)
             if isinstance(value, Real) and not isinstance(value, bool)
             else math.nan)
    except OverflowError:   # an int too large for a float
        x = math.nan
    # strictly inside the interval, x is finite; at a closed end, test it
    if not (low < x < high or math.isfinite(x)
            and (low_in and x == low or high_in and x == high)):
        raise error(f"{name} must lie in {interval}, got {shown(value)}")


def check_integer(value, name, low, high=None, error=ConfigError):
    """Raise error as check_range does unless value is an integer (an int
    or a numpy integer, not a bool) from low to high, or from low up when
    high is None; the message writes the range as a set: {1, 2, ...}."""
    if (isinstance(value, bool) or not isinstance(value, Integral)
            or value < low or high is not None and value > high):
        span = (f"{low}, {low + 1}, ..." if high is None
                else f"{low}, ..., {high}")
        raise error(f"{name} must lie in {{{span}}}, got {shown(value)}")
