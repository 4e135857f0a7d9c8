"""Photon-number-splitting attack balance for decoy-state links.

The eavesdropper heats the transmitter so that signal and decoy pulses are
attenuated by different factors (alpha and beta_d), replaces the channel
with one of transmittance eta_prime, and blocks a fraction p_block of the
single photons in decoy pulses. The module solves the two count-rate
balance conditions for eta_prime and p_block, and the feasibility boundary
eta_prime = eta0, in closed form, and scans the transmission distance for
feasibility: one scan solves the distances of its grid as columns, up to
_CHUNK of them at a time. Consecutive scans of one channel, source and
grid share every column that does not depend on the heating: the
lengths, eta, the no-attack gains q_mu and q_nu, the decoy photon term,
the lengths where no heating has an answer, and lengths > 0. The
inputs, AttackScenario, are defined in profiles, which parses them, and
are importable from here as well.
"""

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter

import numpy as np

from .errors import (DegenerateAttackError, NoCrossingError, ScanRangeError,
                     check_range)
from .profiles import AttackScenario

# The balances take the photon term 1 - exp(-eta*mean) back out of a gain
# q = y0 + photons, so it keeps only eps*q/photons of relative accuracy;
# past 1e-6 a solution is rounding noise with zero residuals (default
# profile: from 608.4 km; 5.3e-9 at 500 km; eta_ratio 10.69 at 900 km).
PHOTON_TERM_ROUNDING_LIMIT = 1e-6

# the most grid points one scan solves; the integrator's MAX_STEPS figure
MAX_SCAN_POINTS = 10**7

# lengths solved at a time: a scan's temporaries stay those of one chunk
_CHUNK = 2**16


@dataclass(frozen=True, slots=True)
class AttackSolution:
    """Solved attack parameters at one transmission distance."""

    length_km: float
    eta: float                      # no-attack overall transmittance
    eta_prime: float                # required transmittance under attack
    eta_ratio: float                # eta_prime / eta
    p_block: float                  # decoy single-photon blocking probability
    delta_prime_db_per_km: float    # implied replacement-channel loss, dB/km
    feasible: bool                  # eta_prime <= eta0 and 0 < p_block < 1
    residual_signal: float          # signal balance residual, absolute
    residual_decoy: float           # decoy balance residual, absolute


_POW10 = partial(pow, 10.0)


def _libm(fn, values):
    """fn, from math, of each element of a 1-D array, or of a scalar."""
    # Not numpy's ufuncs: on an AVX-512 host np.power, np.expm1 and
    # np.log10 differ from libm in the last bit at 27,858 of the 279,300
    # points of perfbench's attack_map (seed 1), so a scan's bits, and the
    # attack command's output bytes, would depend on the host's SIMD loops.
    if isinstance(values, np.ndarray):
        return np.fromiter(map(fn, values.tolist()), float, len(values))
    return fn(values)


def channel_transmittance(eta0, delta_db_per_km, length_km):
    """Overall transmittance eta0 * 10^(-delta*L/10) of the honest channel;
    length_km may be a 1-D array."""
    return eta0 * _libm(_POW10, -delta_db_per_km * length_km / 10.0)


def yield_n(n, eta, y0):
    """Detection probability of an n-photon pulse: 1 - (1-eta)^n + y0."""
    return 1.0 - (1.0 - eta) ** n + y0


def count_rate_no_attack(mean, eta, y0):
    """Poisson-averaged gain y0 + 1 - exp(-eta*mean) of an undisturbed link;
    eta may be a 1-D array."""
    return y0 - _libm(math.expm1, -eta * mean)


def _honest_link(scenario, lengths):
    """The read-only columns of a 1-D array of lengths that depend on the
    channel and the source (eta0, delta, mu, nu, y0), not on the heating
    (alpha, beta_d, p_dis): lengths, eta, the gains q_mu and q_nu, the
    decoy photon term 1 - exp(-eta*nu), the mask of lengths where no
    heating has an answer (eta underflows, or the photon term is lost in
    rounding against y0), and lengths > 0."""
    sc = scenario
    # eps*q/photons <= PHOTON_TERM_ROUNDING_LIMIT, solved for photons
    eps = sys.float_info.epsilon
    min_photons = eps * sc.y0 / (PHOTON_TERM_ROUNDING_LIMIT - eps)
    with np.errstate(all="ignore"):
        eta = channel_transmittance(sc.eta0, sc.delta_db_per_km, lengths)
        q_mu = count_rate_no_attack(sc.mu, eta, sc.y0)
        # nu < mu: the decoy photon term is the first to be lost
        photons = -_libm(math.expm1, -eta * sc.nu)
        q_nu = sc.y0 + photons
        unsolvable = (eta == 0.0) | (photons < min_photons)
    honest = (lengths, eta, q_mu, q_nu, photons, unsolvable, lengths > 0.0)
    for column in honest:
        column.setflags(write=False)
    return honest


@dataclass(frozen=True, eq=False)
class AttackScan(Sequence):
    """A distance scan as columns: element i of each is the solution at
    length_km[i], with AttackSolution's field names and meanings.

    It is also a sequence of AttackSolution. len, integer indexing and
    iteration build each solution when it is asked for.
    """

    length_km: np.ndarray
    eta: np.ndarray
    eta_prime: np.ndarray
    eta_ratio: np.ndarray
    p_block: np.ndarray
    delta_prime_db_per_km: np.ndarray
    feasible: np.ndarray            # bool
    residual_signal: np.ndarray
    residual_decoy: np.ndarray

    def _columns(self):
        return (getattr(self, name) for name in _FIELDS)

    def __len__(self):
        return len(self.length_km)

    def __getitem__(self, index):
        return AttackSolution(*(column.item(index)
                                for column in self._columns()))

    def __iter__(self):
        return map(AttackSolution,
                   *(column.tolist() for column in self._columns()))


_FIELDS = tuple(field.name for field in fields(AttackSolution))


class _Balance:
    """The distance-independent terms of one scenario's balance conditions.

    attack takes the honest-link columns of an array of lengths
    (_honest_link), the only terms that change between lengths; solve
    takes the lengths. Every expression keeps the operation order of the
    closed forms written out for one distance in Python floats, so each
    element has the bits that one-distance evaluation gives. On arrays,
    the gains and attack's columns are computed in place, each into its
    own array, after their first operation.
    """

    __slots__ = ("scenario", "single_or_vacuum", "multi", "nu_p", "exp_nu_p",
                 "dark_blind")

    def __init__(self, scenario):
        self.scenario = scenario
        mu_p = scenario.alpha * scenario.mu
        self.single_or_vacuum = (mu_p + 1.0) * math.exp(-mu_p)
        self.multi = 1.0 - self.single_or_vacuum
        self.nu_p = scenario.beta_d * scenario.nu
        self.exp_nu_p = math.exp(-self.nu_p)
        # gain when Eve cannot tell the states apart and blocks everything
        self.dark_blind = (1.0 - scenario.p_dis) * scenario.y0

    def signal_gain(self, eta_prime):
        sc = self.scenario
        gain = eta_prime + sc.y0
        gain *= self.multi
        gain += self.single_or_vacuum * sc.y0
        gain *= sc.p_dis
        gain += self.dark_blind
        return gain

    def decoy_unblocked(self, eta_prime):
        """The distinguished decoy gain before any single photon is blocked."""
        return self.scenario.y0 - _libm(math.expm1, -self.nu_p * eta_prime)

    def decoy_gain(self, eta_prime, p_block, unblocked):
        gain = p_block * self.nu_p
        gain *= self.exp_nu_p
        gain *= eta_prime
        gain = unblocked - gain
        gain *= self.scenario.p_dis
        gain += self.dark_blind
        return gain

    def multiphoton(self):
        """The multiphoton fraction, which both closed forms divide by."""
        if self.multi == 0.0:
            sc = self.scenario
            raise DegenerateAttackError(
                f"multiphoton fraction 1 - (mu'+1) exp(-mu') rounds to 0 at "
                f"mu' = alpha*mu = {sc.alpha * sc.mu!r}")
        return self.multi

    def _check(self, honest, failed):
        """Raise at the first length where a closed form has no answer,
        for the first check that fails there: eta underflows, the decoy
        photon term is lost in rounding, the multiphoton fraction rounds
        to 0 (at every length), the decoy single-photon gain underflows.
        Called only when one fails: the multiphoton fraction, or at the
        lengths where failed is set."""
        lengths, eta, _, _, photons, unsolvable, _ = honest
        i = 0 if self.multi == 0.0 else int(failed.argmax())
        length = lengths[i].item()
        if eta[i] == 0.0:
            raise DegenerateAttackError(
                f"channel transmittance underflows to 0 at L = {length!r} km")
        if unsolvable[i]:
            raise DegenerateAttackError(
                f"decoy photon term {photons[i].item()!r} is lost in rounding "
                f"against y0 = {self.scenario.y0!r} at L = {length!r} km")
        self.multiphoton()
        raise DegenerateAttackError(
            f"decoy single-photon gain nu' exp(-nu') eta' underflows "
            f"to 0 at L = {length!r} km")

    def attack(self, honest):
        """The AttackScan of one chunk's honest-link columns, which it
        shares: the scan's length and eta columns are two of them."""
        sc = self.scenario
        lengths, eta, q_mu, q_nu, _, unsolvable, reach = honest
        # entries past a failed check, or masked out below, may divide by
        # 0 or overflow; Python floats would not warn there either
        with np.errstate(all="ignore"):
            # the eta_prime at which the signal gain under attack is q_mu
            eta_prime = q_mu - self.dark_blind
            eta_prime /= sc.p_dis
            eta_prime -= self.single_or_vacuum * sc.y0
            eta_prime /= self.multi
            eta_prime -= sc.y0
            single = self.nu_p * self.exp_nu_p * eta_prime
            positive = eta_prime > 0.0
            failed = positive & (single == 0.0)
            failed |= unsolvable
            if self.multi == 0.0 or failed.any():
                self._check(honest, failed)
            residual_signal = self.signal_gain(eta_prime)
            residual_signal -= q_mu

            unblocked = self.decoy_unblocked(eta_prime)
            excess = q_nu - self.dark_blind
            excess /= sc.p_dis
            np.subtract(unblocked, excess, out=excess)
            p_block = np.full(len(lengths), math.nan)
            np.divide(excess, single, out=p_block, where=positive)
            residual_decoy = self.decoy_gain(eta_prime, p_block, unblocked)
            residual_decoy -= q_nu

            feasible = eta_prime <= sc.eta0
            feasible &= 0.0 < p_block
            feasible &= p_block < 1.0
            eta_ratio = eta_prime / eta
            logged = positive & reach
            decades = _libm(math.log10, np.where(logged, eta_ratio, 1.0))
            decades *= 10.0
            decades /= lengths
            np.subtract(sc.delta_db_per_km, decades, out=decades)
            delta_prime = np.where(logged, decades, math.nan)
        return AttackScan(lengths, eta, eta_prime, eta_ratio, p_block,
                          delta_prime, feasible, residual_signal,
                          residual_decoy)

    def solve(self, lengths):
        """The AttackScan of a 1-D array of lengths, solved _CHUNK lengths
        at a time into columns allocated up front, so a check raises at
        the first failing length in grid order."""
        columns = {field.name: np.empty(len(lengths), field.type)
                   for field in fields(AttackSolution)[1:]}
        for start in range(0, len(lengths), _CHUNK):
            part = self.attack(_honest_link(
                self.scenario, lengths[start:start + _CHUNK]))
            for name, column in columns.items():
                column[start:start + _CHUNK] = getattr(part, name)
        lengths.setflags(write=False)
        columns["eta"].setflags(write=False)
        return AttackScan(lengths, **columns)


def count_rate_decoy_attacked(scenario, eta_prime, p_block):
    """Decoy-state gain under the attack.

    Single photons are blocked with probability p_block (their detector
    contribution is removed, dark counts remain); all other photon numbers
    see the replacement channel eta_prime. When Eve fails to distinguish
    the state (probability 1 - p_dis) she blocks everything and only dark
    counts survive.
    """
    balance = _Balance(scenario)
    return balance.decoy_gain(eta_prime, p_block,
                              balance.decoy_unblocked(eta_prime))


def count_rate_signal_attacked(scenario, eta_prime):
    """Signal-state gain under the attack.

    Multiphoton pulses are split and forwarded with yield eta_prime + y0;
    vacuum and single-photon pulses contribute dark counts only.
    """
    return _Balance(scenario).signal_gain(eta_prime)


def solve_attack(scenario, length_km):
    """Solve both balance conditions at length_km: element 0 of the
    one-point scan.

    Both balances are linear in their unknowns, so each has a closed form:
    eta_prime solves count_rate_signal_attacked = count_rate_no_attack(mu),
    then p_block solves the decoy balance. The solution reports both
    residuals (gain under attack minus gain without) so callers can check
    the closed forms; p_block is nan when eta_prime <= 0. Raises
    DegenerateAttackError when a term the closed form divides by rounds to
    zero: eta at a long enough distance, the multiphoton fraction at a
    tiny mu, or the decoy single-photon gain at a tiny nu; or is lost in
    rounding against y0 (PHOTON_TERM_ROUNDING_LIMIT). Raises
    ScanRangeError unless length_km lies in [0, inf), as a scan's grid
    does; it is solved as a float.
    """
    check_range(length_km, "length_km", "[0, inf)", ScanRangeError)
    return _Balance(scenario).solve(np.array([length_km], dtype=float))[0]


def min_feasible_distance(scenario, l_max=500.0):
    """Shortest distance at which the attack is feasible (eta_prime = eta0).

    y0 cancels from the signal balance, which leaves eta_prime =
    (1 - exp(-eta*mu)) / (p_dis*multi), multi = 1 - (mu'+1) exp(-mu'):
    it falls with distance and meets eta0 where eta = eta_star =
    -log1p(-p_dis*multi*eta0) / mu, so the boundary is the closed form
    10 log10(eta0/eta_star) / delta, or 0.0 when eta_star >= eta0. Raises
    NoCrossingError when the boundary lies past l_max, and
    DegenerateAttackError when multi or eta_star rounds to zero.
    """
    check_range(l_max, "l_max", "(1e-9, inf)", ScanRangeError)
    sc = scenario
    share = sc.p_dis * _Balance(sc).multiphoton() * sc.eta0
    # share = 1: eta_prime stays below eta0 = 1 at every distance
    eta_star = -math.log1p(-share) / sc.mu if share < 1.0 else math.inf
    if eta_star >= sc.eta0:
        return 0.0
    if eta_star == 0.0:
        raise DegenerateAttackError(
            f"boundary transmittance -log1p(-p_dis*multi*eta0)/mu underflows "
            f"to 0 at p_dis*multi*eta0 = {share!r}, mu = {sc.mu!r}")
    boundary = 10.0 * math.log10(sc.eta0 / eta_star) / sc.delta_db_per_km
    if boundary > l_max:
        raise NoCrossingError(
            f"attack infeasible everywhere in (0, {l_max}] km")
    return boundary


def _grid(l_min, l_max, step):
    """The lengths l_min + k*step up to l_max inclusive, as an array."""
    top = l_max + 1e-9 * step   # l_max despite rounding
    span = (top - l_min) / step
    count = 0   # past the cap: raise, never build the grid
    if span < MAX_SCAN_POINTS:
        # the grid ends before the first k past top; k = int(span) - 1 is
        # never past it, as span's rounding error is far below one step
        count = int(span)
        while l_min + count * step <= top:
            count += 1
    if not 0 < count <= MAX_SCAN_POINTS:
        raise ScanRangeError(
            f"a scan from {l_min!r} to {l_max!r} km in steps of {step!r} km "
            f"has more than MAX_SCAN_POINTS = {MAX_SCAN_POINTS} points; "
            f"narrow l_min to l_max or widen step")
    lengths = l_min + np.arange(count, dtype=float) * step
    lengths[0] = l_min   # keeps the sign of l_min = -0.0
    return lengths


# (key, _honest_link columns) of the last grid of at most _CHUNK lengths
# scanned: the heating scenarios of one channel, source and grid share them
_last_grid = (None, None)


def scan_distance(scenario, l_min, l_max, step):
    """Solve the attack on a distance grid from l_min to l_max inclusive.

    Returns an AttackScan, whose length_km and eta columns are read-only:
    consecutive scans of one channel, source and grid share them. Raises
    ScanRangeError for a range that gives no grid, or one of more than
    MAX_SCAN_POINTS points (before it is allocated).
    """
    global _last_grid
    check_range(l_min, "l_min", "[0, inf)", ScanRangeError)
    check_range(l_max, "l_max", "(0, inf)", ScanRangeError)
    check_range(step, "step", "(0, inf)", ScanRangeError)
    if not l_min < l_max:
        raise ScanRangeError(
            f"need l_min < l_max, got l_min={l_min!r}, l_max={l_max!r}")
    sc = scenario
    # the exact bits: equal floats differ only in the sign of zero
    key = tuple((x, math.copysign(1.0, x))
                for x in (sc.eta0, sc.delta_db_per_km, sc.mu, sc.nu, sc.y0,
                          l_min, l_max, step))
    balance = _Balance(sc)
    last_key, honest = _last_grid
    if key != last_key:
        lengths = _grid(l_min, l_max, step)
        if len(lengths) > _CHUNK:
            return balance.solve(lengths)
        honest = _honest_link(sc, lengths)
        _last_grid = key, honest
    return balance.attack(honest)


# the residuals are a check on the closed forms, not part of the scan
SCAN_COLUMNS = (("L_km", attrgetter("length_km")),
                ("eta", attrgetter("eta")),
                ("eta_prime", attrgetter("eta_prime")),
                ("eta_ratio", attrgetter("eta_ratio")),
                ("p_block", attrgetter("p_block")),
                ("delta_prime_db_km", attrgetter("delta_prime_db_per_km")),
                ("feasible", attrgetter("feasible")))


def summarize_scan(scan, minimum_distance=None):
    """Reduce an AttackScan to the headline feasibility numbers."""
    feasible = scan.feasible
    summary = {
        "points": len(scan),
        "feasible_points": int(np.count_nonzero(feasible)),
        "min_feasible_distance_km": minimum_distance,
    }
    for name in ("eta_ratio", "p_block"):
        values = getattr(scan, name)[feasible]
        summary[f"{name}_min"] = values.min().item() if values.size else None
        summary[f"{name}_max"] = values.max().item() if values.size else None
    return summary
