"""Shared fixtures."""

import mpmath as mp
import pytest

from cmtwist.registry import builtin_curve, omega_infinity


@pytest.fixture
def e29_file(tmp_path):
    """A curve file holding e29, the 29-twist of 49a, as a user curve.

    Its omega is |Omega(49a)| / sqrt(29) to 45 digits, enough for the
    50-digit Eisenstein lattice check: a shorter omega trips that check
    before any scenario-specific code runs.
    """
    with mp.workdps(60):
        om = mp.nstr(omega_infinity(builtin_curve("49a"), 50) / mp.sqrt(29), 45)
    f = tmp_path / "e29.txt"
    f.write_text(f"e29 1 -22 0 -1682 -24389 7 1 {om}\n", encoding="utf-8")
    return str(f)
