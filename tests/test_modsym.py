"""Modular symbols: lambda+- rebuilt from scratch, the constant of Birch's
formula, and the twisted sums against the series."""

from fractions import Fraction
from math import gcd, lcm

import pytest

from cmtwist import cli, modsym
from cmtwist.coeffs import CurveContext, theta_window
from cmtwist.lseries import algebraic_part
from cmtwist.qfield import kronecker
from cmtwist.registry import BUILTIN, resolve_curve

# the T_p each rebuild uses, as the module docstring states them
HECKE = {7: (2, 3, 5), 11: (2, 3, 5, 7, 13)}


def _canonical(q, c, d):
    """The least (u c, u d) mod q^2 over the units u: one name per point
    of P^1(Z/q^2), found by search."""
    n = q * q
    return min(((u * c) % n, (u * d) % n) for u in range(1, n) if u % q)


def _points(q):
    n = q * q
    return sorted({_canonical(q, c, d) for c in range(n) for d in range(n)
                   if gcd(gcd(c, d), q) == 1})


def _ap_by_count(curve, p):
    """p + 1 - #E(F_p), counting the points of the model one by one."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    affine = sum((y * y + a1 * x * y + a3 * y
                  - (x ** 3 + a2 * x * x + a4 * x + a6)) % p == 0
                 for x in range(p) for y in range(p))
    return p - affine


def _heilbronn_by_search(p):
    return [(a, b, c, d) for a in range(p + 1) for b in range(a)
            for d in range(p + 1) for c in range(d) if a * d - b * c == p]


def _kernel(rows, width):
    """A basis of the rational kernel of the rows (dicts column -> int)."""
    pivots = {}                     # column -> row with 1 there, reduced
    for row in rows:
        r = {k: Fraction(v) for k, v in row.items() if v}
        for col, piv in pivots.items():
            f = r.get(col)
            if f:
                for k, v in piv.items():
                    r[k] = r.get(k, 0) - f * v
                r = {k: v for k, v in r.items() if v}
        if r:
            lead = min(r)
            scale = r[lead]
            r = {k: v / scale for k, v in r.items()}
            for col, piv in pivots.items():
                f = piv.get(lead)
                if f:
                    for k, v in r.items():
                        piv[k] = piv.get(k, 0) - f * v
                    pivots[col] = {k: v for k, v in piv.items() if v}
            pivots[lead] = r
    basis = []
    for free in sorted(set(range(width)) - set(pivots)):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for col, piv in pivots.items():
            v[col] = -piv.get(free, 0)
        basis.append(v)
    return basis


def _rebuilt(label, sign):
    """lambda_sign of the builtin curve, from the relations and the T_p of
    HECKE, over the points of _points; the kernel must be one line."""
    curve = BUILTIN[label]
    q = curve.q
    points = _points(q)
    where = {pt: i for i, pt in enumerate(points)}

    def col(c, d):
        return where[_canonical(q, c, d)]

    def relation(*terms):
        row = {}
        for s, (c, d) in terms:
            row[col(c, d)] = row.get(col(c, d), 0) + s
        return row

    rows = []
    for c, d in points:
        rows.append(relation((1, (c, d)), (1, (d, -c))))
        rows.append(relation((1, (c, d)), (1, (d, -c - d)), (1, (-c - d, c))))
        rows.append(relation((1, (-c, d)), (-sign, (c, d))))
    for p in HECKE[q]:
        ap, mats = _ap_by_count(curve, p), _heilbronn_by_search(p)
        for c, d in points:
            rows.append(relation((-ap, (c, d)), *((1, (c * a + d * cc, c * b + d * dd))
                                                  for a, b, cc, dd in mats)))
    basis = _kernel(rows, len(points))
    assert len(basis) == 1, (label, sign, len(basis))
    (v,) = basis
    den = lcm(*(x.denominator for x in v))
    ints = [int(x * den) for x in v]
    g = gcd(*ints)
    return {pt: x // g for pt, x in zip(points, ints)}


def _module_ap(q):
    window = theta_window(q, 1, modsym.HECKE_BOUND)
    return {p: window[p - 1] for p in range(2, modsym.HECKE_BOUND) if p != q}


@pytest.mark.parametrize("label, sign", [("49a", 1), ("49a", -1),
                                         ("121b", 1), ("121b", -1)])
def test_winding_vector_is_the_rebuilt_kernel(label, sign):
    # the module's lambda is the rebuilt one, both with their first nonzero
    # entry in the module's point order positive
    q = BUILTIN[label].q
    rebuilt = _rebuilt(label, sign)
    got = modsym.winding_vector(q, sign, _module_ap(q))
    points = modsym.p1_points(q)
    assert len(points) == len(rebuilt) == q * (q + 1)
    assert sorted(_canonical(q, c, d) for c, d in points) == sorted(rebuilt)
    want = [rebuilt[_canonical(q, c, d)] for c, d in points]
    if next(x for x in want if x) < 0:
        want = [-x for x in want]
    assert got == want


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_twist_sums_use_the_rebuilt_lambda(label):
    # the lookup rows of TwistSums hold lambda_s at every (c:d), c, d mod
    # q^2 not both divisible by q
    curve = BUILTIN[label]
    q, n = curve.q, curve.q ** 2
    sign, _ = modsym.TWIST_SCALE[label]
    lam = modsym.winding_vector(q, sign, _module_ap(q))
    index = {_canonical(q, c, d): i for i, (c, d) in enumerate(modsym.p1_points(q))}
    rows = modsym.TwistSums(curve)._rows
    assert len(rows) == n and all(len(row) == n for row in rows)
    for d in range(n):
        for c in range(n):
            if c % q or d % q:
                assert rows[d][c] == lam[index[_canonical(q, c, d)]]


def test_heilbronn_matrices_are_merels():
    for p in (2, 3, 5, 7, 11, 13):
        assert sorted(modsym.heilbronn(p)) == sorted(_heilbronn_by_search(p))


def test_twist_scale_is_pinned():
    # S(D) = c L^alg: c = -4 for 49a (lambda_+) and 2 for 121b (lambda_-),
    # under the normalization of winding_vector.  D = 1 reads
    # lambda({oo, 0}) = -2 = -4 * L^alg(49a) = -4 * 1/2
    assert modsym.TWIST_SCALE == {"49a": (1, -4), "121b": (-1, 2)}
    sums = modsym.TwistSums(BUILTIN["49a"])
    assert sums.twisted_sum(1) == -2 and sums.lalg(1) == Fraction(1, 2)


def _full_sum(sums, d):
    """sum_{a mod |d|} (d/a) lambda_s({oo, a/|d|}), every a, each symbol
    normalized by search: the sum without the pairing of a with |d| - a."""
    curve = sums.curve
    q, s = curve.q, sums.sign
    lam = modsym.winding_vector(q, s, _module_ap(q))
    index = {_canonical(q, c, d): i for i, (c, d) in enumerate(modsym.p1_points(q))}
    m = abs(d)
    chi = [kronecker(d, a) if a else int(m == 1) for a in range(m)]
    total = 0
    for a in range(m):
        # convergent denominators q_k of a/m: {oo, a/m} = sum over k >= 0
        # of ((-1)^(k-1) q_k : q_(k-1))
        y, r, q0, q1 = m, a, 0, 1
        term = lam[index[_canonical(q, -1, 0)]]
        k = 0
        while r:
            t, rest = divmod(y, r)
            y, r = r, rest
            q0, q1 = q1, t * q1 + q0
            k += 1
            term += lam[index[_canonical(q, (-1) ** (k - 1) * q1, q0)]]
        total += chi[a] * term
    return total


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_paired_sum_is_the_full_sum(label):
    curve = BUILTIN[label]
    sums = modsym.TwistSums(curve)
    for M in cli._admissible_twists(curve, 1, 200):
        d = M if M % 4 == 1 else -M
        assert sums.twisted_sum(d) == _full_sum(sums, d), M


@pytest.mark.parametrize("label, nonzero_to_1000", [("49a", 119), ("121b", 43)])
def test_twisted_sums_are_c_times_the_series_lalg(label, nonzero_to_1000):
    # every admissible M <= 1500: S(D) = c L^alg exactly, sign included,
    # and every vanishing row an exact 0
    curve = BUILTIN[label]
    ctx = CurveContext(curve)
    sums = modsym.TwistSums(curve)
    scale = modsym.TWIST_SCALE[label][1]
    nonzero = {}
    for M in cli._admissible_twists(curve, 1, 1500):
        d = M if M % 4 == 1 else -M
        want = algebraic_part(ctx, d, target_digits=12).lalg
        assert want is not None and want >= 0
        assert sums.twisted_sum(d) == scale * want, M
        nonzero[M] = want != 0
    assert sum(v for M, v in nonzero.items() if M <= 1000) == nonzero_to_1000
    assert not all(nonzero.values())        # vanishing rows are among them


def test_values_above_the_series_cap():
    # the four 49a twists the series refuses at 12 digits
    sums = modsym.TwistSums(BUILTIN["49a"])
    assert [sums.lalg(M) for M in (22921, 22929, 22937, 22945)] == [225, 72, 49, 4]


def test_algebraic_part_matches_the_series_result():
    curve = BUILTIN["121b"]
    ctx = CurveContext(curve)
    sums = modsym.TwistSums(curve)
    for d in (-7, -19, -151, -227):
        got, want = sums.algebraic_part(ctx, d, 12), algebraic_part(ctx, d, 12)
        assert (got.lalg, got.ord2, got.root_number) == (want.lalg, want.ord2,
                                                         want.root_number)
        assert abs(got.analytic_value - want.analytic_value) < 1e-11
        assert got.n_terms == 0


def test_only_builtin_curves_have_symbols(e29_file):
    e29 = resolve_curve("e29", e29_file)
    assert not modsym.supports(e29)
    with pytest.raises(modsym.ModSymError, match="e29"):
        modsym.TwistSums(e29)
    with pytest.raises(modsym.ModSymError, match="sign"):
        modsym.TwistSums(BUILTIN["49a"]).twisted_sum(-3)


def test_inconsistent_eigenvalues_are_refused():
    # a wrong a_2 leaves no line that T_2 fixes
    ap = _module_ap(7)
    ap[2] += 1
    with pytest.raises(modsym.ModSymError, match="directions"):
        modsym.winding_vector(7, 1, ap)
