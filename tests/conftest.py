"""Shared fixtures."""

import mpmath as mp
import pytest

from cmtwist.registry import builtin_curve, omega_infinity


def _e29_file(tmp_path, digits):
    with mp.workdps(60):
        om = mp.nstr(omega_infinity(builtin_curve("49a"), 50) / mp.sqrt(29), digits)
    f = tmp_path / f"e29_{digits}.txt"
    f.write_text(f"e29 1 -22 0 -1682 -24389 7 1 {om}\n", encoding="utf-8")
    return str(f)


@pytest.fixture
def e29_file(tmp_path):
    """A curve file holding e29, the 29-twist of 49a, as a user curve.

    Its omega is |Omega(49a)| / sqrt(29) to 45 digits, enough for the
    Eisenstein lattice check at up to 45 digits (30 by default).
    """
    return _e29_file(tmp_path, 45)


@pytest.fixture
def e29_file_25(tmp_path):
    """e29 with its omega to 25 digits, too few for the lattice check."""
    return _e29_file(tmp_path, 25)
