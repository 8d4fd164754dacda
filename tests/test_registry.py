"""Curve registry: builtin data, periods, curve files, user curves."""

from fractions import Fraction

import mpmath as mp
import pytest

from cmtwist.coeffs import CurveContext
from cmtwist.lseries import algebraic_part
from cmtwist.registry import (
    BUILTIN,
    RegistryError,
    builtin_curve,
    omega_infinity,
    omega_lattice,
    parse_curve_file,
    phi_of,
    resolve_curve,
)


def test_builtin_lookup():
    c = builtin_curve("49a")
    assert (c.a1, c.a2, c.a3, c.a4, c.a6) == (1, -1, 0, -2, -1)
    assert c.q == 7 and c.w == 1 and c.conductor == 49
    assert c.lalg_base == Fraction(1, 2)
    d = builtin_curve("121b")
    assert (d.a1, d.a2, d.a3, d.a4, d.a6) == (0, -1, 1, -7, 10)
    assert d.q == 11 and d.w == -1 and d.conductor == 121
    assert d.lalg_base == 0
    with pytest.raises(RegistryError):
        builtin_curve("37a")


def test_alpha_and_phi():
    c49, c121 = builtin_curve("49a"), builtin_curve("121b")
    assert c49.alpha == 1 and c121.alpha == 0      # parity of a1
    assert phi_of(c49) == 1     # max(alpha, -ord2(1/2)) = max(1, 1)
    assert phi_of(c121) == 0    # vanishing base value: alpha


def test_good_reduction_at_2():
    for c in BUILTIN.values():
        assert c.discriminant % 2 != 0


def test_division2_cubic_matches_b_invariants():
    c = builtin_curve("49a")
    assert c.division2_cubic() == (4, c.b2, 2 * c.b4, c.b6)
    assert (c.b2, c.b4, c.b6) == (-3, -4, -4)
    d = builtin_curve("121b")
    assert (d.b2, d.b4, d.b6) == (-4, -14, 41)


def test_lattice_scales():
    # Omega_L from the Chowla-Selberg product; 121b's lattice is rotated a
    # quarter turn and its real scale is twice the normalizing period
    c49, c121 = builtin_curve("49a"), builtin_curve("121b")
    assert c49.lattice_shift == 0 and c49.lattice_rotation == 0
    assert c121.lattice_shift == 1 and c121.lattice_rotation == 1
    with mp.workdps(25):
        assert mp.almosteq(omega_lattice(c49, 22),
                           mp.mpf("1.9333117056168115467"), rel_eps=mp.mpf(10) ** -19)
        assert mp.almosteq(omega_lattice(c121, 22),
                           mp.mpf("1.4479845100251381825"), rel_eps=mp.mpf(10) ** -19)
        assert mp.almosteq(omega_infinity(c121, 22),
                           omega_lattice(c121, 22) / 2, rel_eps=mp.mpf(10) ** -19)


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_curve_file_roundtrip(e29_file):
    with open(e29_file, "a", encoding="utf-8") as fh:
        fh.write("# a built-in line without omega\n49a 1 -1 0 -2 -1 7 1\n")
    curves = parse_curve_file(e29_file)
    assert [c.label for c in curves] == ["e29", "49a"]
    e29 = curves[0]
    assert e29.conductor == 49 * 29 * 29
    assert e29.base_twist == 29            # 49a^(29); 29* = +29
    assert curves[1] is BUILTIN["49a"]     # builtin line resolves to builtin
    assert BUILTIN["49a"].base_twist == BUILTIN["121b"].base_twist == 1


def test_user_curve_end_to_end_algebraic_part(e29_file):
    # the 29-twist as a standalone curve: its base algebraic value must
    # equal the twisted value computed from the builtin model
    e29 = resolve_curve("e29", e29_file)
    res = algebraic_part(CurveContext(e29), 1, target_digits=12)
    assert res.lalg == 2


def test_parse_curve_file_rejects_bad_builtin(tmp_path):
    f = _write(tmp_path / "bad.txt", "49a 1 -1 0 -2 -7 7 1\n")
    with pytest.raises(RegistryError):
        parse_curve_file(f)


def test_parse_curve_file_rejects_malformed(tmp_path):
    with pytest.raises(RegistryError):
        parse_curve_file(_write(tmp_path / "m1.txt", "x 1 2 3\n"))
    with pytest.raises(RegistryError):
        parse_curve_file(_write(tmp_path / "m2.txt", "x 1 0 0 0 one 7 1 2.0\n"))
    # user curve without omega
    with pytest.raises(RegistryError):
        parse_curve_file(_write(tmp_path / "m3.txt", "x 1 -1 0 -2 -1 7 1\n"))


def test_user_curve_validation_errors(tmp_path):
    # singular model
    with pytest.raises(RegistryError):
        parse_curve_file(_write(tmp_path / "v0.txt", "x 0 0 0 0 0 7 1 1.0\n"))
    # even discriminant = bad reduction at 2
    with pytest.raises(RegistryError):
        parse_curve_file(_write(tmp_path / "v1.txt", "x 0 0 0 -1 0 7 1 1.0\n"))
    # unsupported field
    with pytest.raises(RegistryError):
        parse_curve_file(_write(tmp_path / "v2.txt", "x 1 -1 0 -2 -1 5 1 1.0\n"))
    # root number out of range
    with pytest.raises(RegistryError):
        parse_curve_file(_write(tmp_path / "v3.txt", "x 1 -1 0 -2 -1 7 2 1.0\n"))


def test_resolve_curve_fallback_to_builtin(tmp_path):
    f = _write(tmp_path / "c.txt", "# nothing here\n")
    assert resolve_curve("121b", f) is BUILTIN["121b"]
    with pytest.raises(RegistryError):
        resolve_curve("zzz", f)
