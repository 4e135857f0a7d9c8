import codecs
from dataclasses import replace

import pytest

from gainswitch.attack import AttackScenario
from gainswitch.profiles import (DEFAULT_PROFILE, ConfigError, default_profile,
                                 dump_profile, load_profile, parse_profile)


def test_default_profile_values(profile):
    c = profile.constants
    assert c.g0_ref == 2e-12
    assert c.n0_ref == 1e24
    assert c.tau_n_ref == 1.2e-9
    assert c.tau_p == 5e-12
    assert c.beta_sp == 1e-3
    assert c.d == 1e-7
    assert c.gamma == 0.5
    assert c.t0 == 80.0
    assert c.t0a == 100.0
    assert c.t_ref == 25.0
    assert profile.j_dc == 4.8e6
    assert profile.j_ac == 2.4e8
    assert profile.j_ac_signal == 2.4e8
    assert profile.j_ac_decoy == 2.0e8
    assert profile.pulse_duration == 100e-12


def test_default_attack_block(profile):
    sc = profile.attack
    assert sc == AttackScenario(mu=0.48, nu=0.05, alpha=0.8, beta_d=0.4,
                                p_dis=0.8, y0=1.7e-6, eta0=0.045,
                                delta_db_per_km=0.21)


@pytest.mark.parametrize("line, entry", [
    ("mu = 0.48", "mu = 0.48 -"),
    ("delta_db_per_km = 0.21 dB/km", "delta_db_per_km = 0.21"),
    # a '%' in an inline comment is part of the comment
    ("alpha = 0.8", "alpha = 0.8  # 80%")])
def test_attack_unit_is_optional(profile, line, entry):
    """An [attack] entry parses the same with or without its unit."""
    assert parse_profile(DEFAULT_PROFILE.replace(line, entry)) == profile


def test_load_profile_none_is_default():
    assert load_profile(None) == default_profile()


def test_wrong_unit_names_key():
    bad = DEFAULT_PROFILE.replace("j_ac = 2.4e4 A/cm^2", "j_ac = 2.4e4 mA/cm^2")
    with pytest.raises(ConfigError, match="j_ac"):
        parse_profile(bad)


def test_missing_key_reported():
    bad = DEFAULT_PROFILE.replace("tau_p = 5.0 ps\n", "")
    with pytest.raises(ConfigError, match="tau_p"):
        parse_profile(bad)


def test_not_a_number_reported():
    bad = DEFAULT_PROFILE.replace("tau_p = 5.0 ps", "tau_p = five ps")
    with pytest.raises(ConfigError, match="tau_p"):
        parse_profile(bad)


@pytest.mark.parametrize("line, entry, message", [
    ("tau_p = 5.0 ps", "tau_p = 5.0",
     r"\[laser\] tau_p: expected '<value> <unit>', got '5.0'"),
    ("mu = 0.48", "mu = 0.48 x",
     r"\[attack\] mu: expected a bare number, got '0.48 x'")])
def test_entry_of_the_wrong_shape_names_key(line, entry, message):
    """A [laser] entry needs its unit; an [attack] entry is a bare number,
    at most followed by its own unit ('-' or 'dB/km')."""
    with pytest.raises(ConfigError, match=message):
        parse_profile(DEFAULT_PROFILE.replace(line, entry))


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match="mystery"):
        parse_profile(DEFAULT_PROFILE + "\n[mystery]\nx = 1\n")


def test_unknown_key_rejected():
    bad = DEFAULT_PROFILE.replace("[laser]", "[laser]\nwavelength = 850 nm")
    with pytest.raises(ConfigError, match="wavelength"):
        parse_profile(bad)


def test_syntax_error_carries_line_number(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[laser]\nthis line has no equals sign\n")
    with pytest.raises(ConfigError, match="2"):
        load_profile(path)


def test_missing_laser_section():
    with pytest.raises(ConfigError, match="laser"):
        parse_profile("[drive]\nj_ac_signal = 1.0 A/cm^2\n"
                      "j_ac_decoy = 1.0 A/cm^2\nduration = 100.0 ps\n")


def test_missing_drive_falls_back_to_table_amplitude():
    text = DEFAULT_PROFILE.split("[drive]")[0]
    prof = parse_profile(text)
    assert prof.j_ac_signal == prof.j_ac
    assert prof.j_ac_decoy == prof.j_ac
    assert prof.pulse_duration == 100e-12
    # the attack section was also dropped, so GYS defaults apply
    assert prof.attack == default_profile().attack


def test_bad_attack_value_rejected():
    bad = DEFAULT_PROFILE.replace("alpha = 0.8", "alpha = 1.5")
    with pytest.raises(ConfigError, match="attack"):
        parse_profile(bad)
    for line, key in (("mu = 0.48", "mu"), ("y0 = 1.7e-6", "y0"),
                      ("delta_db_per_km = 0.21", "delta_db_per_km")):
        for value in ("inf", "nan"):
            bad = DEFAULT_PROFILE.replace(line, f"{key} = {value}")
            with pytest.raises(ConfigError,
                               match=rf"\[attack\] {key} must lie in"):
                parse_profile(bad)


def test_non_finite_unit_value_rejected():
    for line, key, section in (("tau_p = 5.0 ps", "tau_p", "laser"),
                               ("j_dc = 4.8e2 A/cm^2", "j_dc", "laser"),
                               ("duration = 100.0 ps", "duration", "drive"),
                               ("j_ac_decoy = 2.0e4 A/cm^2", "j_ac_decoy",
                                "drive")):
        unit = line.split()[-1]
        for value in ("inf", "-inf", "nan"):
            bad = DEFAULT_PROFILE.replace(line, f"{key} = {value} {unit}")
            with pytest.raises(ConfigError,
                               match=rf"\[{section}\] {key} must lie in"):
                parse_profile(bad)


# each rule as the message writes it, its SI value included for 1e308
RULE_TEXT = {"non-negative": r"lie in \[0, inf\)",
             "positive": r"lie in \(0, inf\)",
             "finite in SI units": r"lie in [\[(]0, inf\), got inf"}


@pytest.mark.parametrize("section, key, value, rule", [
    ("laser", "j_dc", "-1", "non-negative"),
    ("laser", "j_ac", "0", "positive"),
    ("drive", "j_ac_signal", "-2.4e4", "positive"),
    ("drive", "j_ac_decoy", "0", "positive"),
    ("drive", "duration", "0", "positive"),
    # 1e308 A/cm^2 overflows to inf A/m^2
    ("laser", "j_dc", "1e308", "finite in SI units"),
    ("drive", "j_ac_decoy", "1e308", "finite in SI units")])
def test_out_of_range_drive_value_names_key(section, key, value, rule):
    """The refusal names the profile file, as the [laser] and [attack]
    range errors do, and the entry."""
    line = next(line for line in DEFAULT_PROFILE.splitlines()
                if line.startswith(f"{key} = "))
    bad = DEFAULT_PROFILE.replace(line, f"{key} = {value} {line.split()[-1]}")
    with pytest.raises(ConfigError, match=rf"^f\.ini: \[{section}\] {key} "
                                          rf"must {RULE_TEXT[rule]}"):
        parse_profile(bad, source="f.ini")


@pytest.mark.parametrize("field, value, entry", [
    ("j_ac", 0.0, r"\[laser\] j_ac must lie in \(0, inf\), got 0.0"),
    ("j_dc", -1.0, r"\[laser\] j_dc must lie in \[0, inf\), got -1.0"),
    ("j_ac_signal", float("nan"), r"\[drive\] j_ac_signal .* got nan"),
    ("j_ac_decoy", True, r"\[drive\] j_ac_decoy .* got True"),
    ("pulse_duration", float("inf"), r"\[drive\] duration .* got inf")])
def test_profile_checks_its_own_fields(profile, field, value, entry):
    """A Profile built in code refuses what a profile file may not hold,
    naming the entry that sets the field."""
    with pytest.raises(ConfigError, match=f"^{entry}$"):
        replace(profile, **{field: value})


def test_unreadable_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="no_such_profile"):
        load_profile(tmp_path / "no_such_profile.ini")


def test_dump_round_trip(profile):
    text = dump_profile(profile)
    assert parse_profile(text) == profile


def test_byte_order_mark_is_read(tmp_path, profile):
    path = tmp_path / "bom.ini"
    path.write_bytes(codecs.BOM_UTF8 + DEFAULT_PROFILE.encode())
    assert load_profile(path) == profile


def test_round_trip_from_file(tmp_path, profile):
    path = tmp_path / "profile.ini"
    path.write_text(dump_profile(profile))
    assert load_profile(path) == profile
