"""Curve registry: the built-in CM curves and user-supplied curve validation.

A registered curve is an integral Weierstrass model y^2 + a1*x*y + a3*y =
x^3 + a2*x^2 + a4*x + a6 over Q with CM by the maximal order of
K = Q(sqrt(-q)) and good reduction at 2 (odd discriminant).  The real
period |Omega| of the Neron differential is evaluated from a Gamma-product
formula (built-in curves) or taken from a user override.  The period is
stored as a positive real; the period lattice Omega*O_K does not depend on
the sign.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

import mpmath as mp

from .qfield import ALLOWED_Q, factor_int, ord2_fraction


class RegistryError(ValueError):
    pass


class Curve(NamedTuple):
    label: str
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    q: int
    w: int  # global root number, +1 or -1
    conductor: int
    # d0: the curve is E0^(d0), E0 the curve of K whose Hecke character
    # has conductor sqrt(-q); 1 for the built-in curves
    base_twist: int
    lalg_base: Fraction | None  # algebraic L(E,1)/omega_lattice when known
    omega_override: str | None = None  # decimal |Omega| for user curves
    # The minimal-model period lattice is
    #     i^lattice_rotation * (2^lattice_shift * Omega) * O_K.
    # Algebraic L-values are normalised by the lattice scale
    # 2^lattice_shift * Omega (omega_lattice); for 121b that is 2*Omega and
    # the lattice sits a quarter turn off the real axis (the real period is
    # then sqrt(q) times the scale).
    lattice_shift: int = 0
    lattice_rotation: int = 0

    # ---- Weierstrass quantities -------------------------------------
    @property
    def b2(self) -> int:
        return self.a1 * self.a1 + 4 * self.a2

    @property
    def b4(self) -> int:
        return 2 * self.a4 + self.a1 * self.a3

    @property
    def b6(self) -> int:
        return self.a3 * self.a3 + 4 * self.a6

    @property
    def b8(self) -> int:
        num = self.b2 * self.b6 - self.b4 * self.b4
        if num % 4:
            raise RegistryError(f"{self.label}: b2*b6 - b4^2 = {num} is not "
                                f"divisible by 4")
        return num // 4

    @property
    def c4(self) -> int:
        return self.b2 * self.b2 - 24 * self.b4

    @property
    def c6(self) -> int:
        return -self.b2 ** 3 + 36 * self.b2 * self.b4 - 216 * self.b6

    @property
    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b2, self.b4, self.b6, self.b8
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    @property
    def alpha(self) -> int:
        """alpha_E = 0 if a1 is even, 1 if odd."""
        return self.a1 % 2

    def division2_cubic(self) -> tuple[int, int, int, int]:
        """Coefficients of 4x^3 + b2 x^2 + 2 b4 x + b6 (the 2-division cubic)."""
        return (4, self.b2, 2 * self.b4, self.b6)


# Quadratic residues mod q index the Gamma factors of the period formula.
def _period_residues(q: int) -> tuple[int, ...]:
    return tuple(sorted({k * k % q for k in range(1, q)}))


BUILTIN: dict[str, Curve] = {
    "49a": Curve(
        label="49a", a1=1, a2=-1, a3=0, a4=-2, a6=-1,
        q=7, w=+1, conductor=49, base_twist=1, lalg_base=Fraction(1, 2),
    ),
    "121b": Curve(
        label="121b", a1=0, a2=-1, a3=1, a4=-7, a6=10,
        q=11, w=-1, conductor=121, base_twist=1, lalg_base=Fraction(0),
        lattice_shift=1, lattice_rotation=1,
    ),
}


def builtin_curve(label: str) -> Curve:
    try:
        return BUILTIN[label]
    except KeyError:
        raise RegistryError(f"unknown curve label: {label!r}") from None


def omega_infinity(curve: Curve, precision: int = 50):
    """|Omega| = omega_lattice / 2^lattice_shift, exactly: a power-of-2
    scaling rounds nothing.  Algebraic L-values L(E^(D),1)*sqrt(|D|) are
    normalised by omega_lattice, not by |Omega|."""
    return mp.ldexp(omega_lattice(curve, precision), -curve.lattice_shift)


def omega_lattice(curve: Curve, precision: int = 50):
    """Positive real scale of the period lattice i^rot * Omega_L * O_K.

    For lattice_rotation = 0 this is literally a lattice generator; when the
    rotation is 1 the lattice is Omega_L * (i*O_K) and the real period equals
    sqrt(q) * Omega_L.

    Built-in curves use the Chowla-Selberg product

        prod_{chi_q(r)=1} Gamma(r/q) / ((2*pi)^((q-3)/4) * sqrt(q)),

    which is the exact generator scale of the minimal-model period lattice
    (it reproduces g2 = c4/12, g3 = c6/216 on the lattice Z + Z*tau).  User
    curves must carry an omega override, the decimal string |Omega| read at
    the working precision and scaled by 2^lattice_shift.
    """
    with mp.workdps(precision + 10):
        if curve.omega_override is not None:
            val = mp.mpf(curve.omega_override)
            if val <= 0:
                raise RegistryError("omega override must be positive")
            return mp.ldexp(val, curve.lattice_shift)
        prod = mp.mpf(1)
        for r in _period_residues(curve.q):
            prod *= mp.gamma(mp.mpf(r) / curve.q)
        return +(prod / ((2 * mp.pi) ** ((curve.q - 3) // 4) * mp.sqrt(curve.q)))


def phi_of(curve: Curve) -> int:
    """phi_E: alpha_E when L(E,1) vanishes, else max(alpha_E, -ord2 L^alg)."""
    if curve.lalg_base is None:
        raise RegistryError(f"base L-value of {curve.label} not recorded")
    if curve.lalg_base == 0:
        return curve.alpha
    return max(curve.alpha, -ord2_fraction(curve.lalg_base))


# the decimal |Omega| of a user curve: digits with at most one point, then
# an optional exponent
_DECIMAL = r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?"


def validate_user_curve(
    label: str,
    a_invariants: tuple[int, int, int, int, int],
    q: int,
    w: int,
    omega: str | None,
    lalg_base: Fraction | None = None,
) -> Curve:
    """Build a Curve from user data, checking the printed hypotheses.

    Checks: integral nonsingular model, odd discriminant (good reduction
    at 2), q in the allow-list, q^2 dividing the conductor (q | disc, before
    any factoring), and an omega that is a finite positive decimal.  The conductor is derived from the bad primes of the
    (assumed minimal) model, each entering squared; factor_int refuses, in
    bounded time, a disc it cannot factor.  CM by O_K itself is assumed, not
    verified here; the point-count check of coeffs.CurveContext raises on a
    curve that is not E0^(d0).

    A curve with CM by O_K is the twist E0^(d0) of the curve E0 of K whose
    character has conductor sqrt(-q).  base_twist is d0, the product of
    p* = (-1)^((p-1)/2) p over the bad primes p != q: the one odd
    fundamental discriminant with those primes (the twist by -q leaves
    the a_n unchanged, so there is no sign to choose).
    """
    if q not in ALLOWED_Q:
        raise RegistryError(f"field not supported: q={q}")
    if w not in (+1, -1):
        raise RegistryError(f"root number must be +-1, got {w}")
    a1, a2, a3, a4, a6 = (int(a) for a in a_invariants)
    curve = Curve(label=label, a1=a1, a2=a2, a3=a3, a4=a4, a6=a6,
                  q=q, w=w, conductor=0, base_twist=1,
                  lalg_base=lalg_base, omega_override=omega)
    disc = curve.discriminant
    if disc == 0:
        raise RegistryError("singular model")
    if disc % 2 == 0:
        raise RegistryError("bad reduction at 2 (even discriminant)")
    if disc % q != 0:
        raise RegistryError("conductor mismatch: q does not divide the conductor twice")
    n, d0 = 1, 1
    for p, _ in factor_int(disc):
        n *= p * p
        if p != q:
            d0 *= p if p % 4 == 1 else -p
    if omega is None:
        raise RegistryError("user curves require an omega override")
    if not re.fullmatch(_DECIMAL, omega) or not mp.mpf(omega) > 0:
        raise RegistryError(f"omega must be a finite positive decimal, got {omega!r}")
    return curve._replace(conductor=n, base_twist=d0)


def parse_curve_file(path: str) -> list[Curve]:
    """Read curve records from a text file.

    Grammar, one record per line (blank lines and '#' comments skipped):

        label a1 a2 a3 a4 a6 q w_E [omega]

    Fields are whitespace- or comma-separated; omega is a finite positive
    decimal |Omega| and is required unless the label is a built-in.  A file
    that cannot be opened or read, or a record that fails validation
    (validate_user_curve), raises RegistryError, the latter naming its
    path:line.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise RegistryError(f"cannot read {path}: {exc.strerror or exc}") from None
    curves: list[Curve] = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) not in (8, 9):
            raise RegistryError(
                f"{path}:{lineno}: expected 'label a1 a2 a3 a4 a6 q w [omega]', got {len(parts)} fields")
        label = parts[0]
        try:
            nums = [int(x) for x in parts[1:8]]
        except ValueError as exc:
            raise RegistryError(f"{path}:{lineno}: non-integral input: {exc}") from None
        omega = parts[8] if len(parts) == 9 else None
        if label in BUILTIN and omega is None:
            ref = BUILTIN[label]
            got = (nums[0], nums[1], nums[2], nums[3], nums[4], nums[5], nums[6])
            want = (ref.a1, ref.a2, ref.a3, ref.a4, ref.a6, ref.q, ref.w)
            if got != want:
                raise RegistryError(f"{path}:{lineno}: data disagrees with built-in {label}")
            curves.append(ref)
            continue
        try:
            curves.append(validate_user_curve(
                label, (nums[0], nums[1], nums[2], nums[3], nums[4]),
                q=nums[5], w=nums[6], omega=omega))
        except RegistryError as exc:
            raise RegistryError(f"{path}:{lineno}: {exc}") from None
    return curves


def resolve_curve(label: str, curve_file: str | None = None) -> Curve:
    """Look up a label among built-ins, then in an optional curve file."""
    if curve_file is None:
        return builtin_curve(label)
    for c in parse_curve_file(curve_file):
        if c.label == label:
            return c
    try:
        return builtin_curve(label)
    except RegistryError:
        raise RegistryError(f"curve {label!r} not found in {curve_file}") from None
