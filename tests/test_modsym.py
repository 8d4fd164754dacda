"""Modular symbols: lambda+- rebuilt from scratch, the constant of Birch's
formula, and the twisted sums against the series."""

import functools
import hashlib
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cmtwist import cli, modsym
from cmtwist.coeffs import CurveContext, theta_window, twist_symbol_period
from cmtwist.lseries import algebraic_part
from cmtwist.qfield import factor_int, kronecker
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


def _kernel_vectors(label, sign, three_term=True, primes=None):
    """A basis of the rational kernel of the 2-term, star and (unless
    three_term is false) 3-term relations and T_p - a_p for the p of
    primes (HECKE by default), a_p by point counts, over the points of
    _points: each vector a primitive integer dict point -> value."""
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
        if three_term:
            rows.append(relation((1, (c, d)), (1, (d, -c - d)), (1, (-c - d, c))))
        rows.append(relation((1, (-c, d)), (-sign, (c, d))))
    for p in HECKE[q] if primes is None else primes:
        ap, mats = _ap_by_count(curve, p), _heilbronn_by_search(p)
        for c, d in points:
            rows.append(relation((-ap, (c, d)), *((1, (c * a + d * cc, c * b + d * dd))
                                                  for a, b, cc, dd in mats)))
    vectors = []
    for v in _kernel(rows, len(points)):
        den = lcm(*(x.denominator for x in v))
        ints = [int(x * den) for x in v]
        g = gcd(*ints)
        vectors.append({pt: x // g for pt, x in zip(points, ints)})
    return vectors


@functools.cache
def _rebuilt(label, sign):
    """lambda_sign of the builtin curve, from the relations and the T_p of
    HECKE, over the points of _points; the kernel must be one line.  Kept
    for the whole test run: several tests compare against it."""
    basis = _kernel_vectors(label, sign)
    assert len(basis) == 1, (label, sign, len(basis))
    return basis[0]


def _rebuilt_vector(label, sign, rebuilt=None):
    """_rebuilt (or the given vector of _kernel_vectors) in the order of
    modsym.p1_points, its first nonzero entry made positive: the tuple that
    modsym.WINDING_VECTORS ships."""
    q = BUILTIN[label].q
    rebuilt = _rebuilt(label, sign) if rebuilt is None else rebuilt
    points = modsym.p1_points(q)
    assert len(points) == len(rebuilt) == q * (q + 1)
    assert sorted(_canonical(q, c, d) for c, d in points) == sorted(rebuilt)
    want = [rebuilt[_canonical(q, c, d)] for c, d in points]
    if next(x for x in want if x) < 0:
        want = [-x for x in want]
    return tuple(want)


def _a2(q):
    return theta_window(q, 2, 3)[0]


@pytest.mark.parametrize("label, sign", [("49a", 1), ("49a", -1),
                                         ("121b", 1), ("121b", -1)])
def test_winding_vector_is_the_rebuilt_kernel(label, sign):
    # the kernel rebuilt over Q from the relations and every T_p of HECKE,
    # a_p by point counts, passes the run-time check at its sign; at the
    # sign of the curve's twists it is the shipped tuple, printed on a
    # mismatch so that the data regenerates by one copy
    q = BUILTIN[label].q
    want = _rebuilt_vector(label, sign)
    modsym.winding_rows(q, sign, want, _a2(q))
    if sign == modsym.TWIST_SCALE[label][0]:
        assert modsym.WINDING_VECTORS[label] == want, \
            f"expected WINDING_VECTORS[{label!r}] = {want}"


@pytest.mark.parametrize("three_term", [True, False], ids=["3-term", "no-3-term"])
@pytest.mark.parametrize("label, sign", [("49a", 1), ("49a", -1),
                                         ("121b", 1), ("121b", -1)])
def test_checked_conditions_leave_one_line(label, sign, three_term):
    # the run-time check refuses every wrong vector only if the kernel of
    # its conditions alone (2-term, star, 3-term and T_2) is one line: it
    # is, the line of _rebuilt, and it stays one without the 3-term rows
    basis = _kernel_vectors(label, sign, three_term=three_term, primes=(2,))
    assert len(basis) == 1, (label, sign, three_term, len(basis))
    assert _rebuilt_vector(label, sign, basis[0]) == _rebuilt_vector(label, sign)


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_shipped_winding_vectors_pass_the_check(label):
    curve = BUILTIN[label]
    sign, _ = modsym.TWIST_SCALE[label]
    lam = modsym.WINDING_VECTORS[label]
    rows = modsym.winding_rows(curve.q, sign, lam, _a2(curve.q))
    assert rows == modsym._lookup_rows(curve.q, lam)


def _refusal(label, lam):
    """The message with which winding_rows refuses lam as the lambda of
    the label, or None."""
    q = BUILTIN[label].q
    try:
        modsym.winding_rows(q, modsym.TWIST_SCALE[label][0], lam, _a2(q))
    except modsym.ModSymError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_winding_check_refuses_every_other_vector(label):
    # one entry +1 at any point, the other sign's lambda, 2 lambda, -lambda,
    # a point too few or too many, 0, and vectors that meet the 2-term and
    # star relations only: each fails the check with ModSymError, at the
    # condition it breaks first
    lam = modsym.WINDING_VECTORS[label]
    sign = modsym.TWIST_SCALE[label][0]
    assert _refusal(label, lam) is None
    for i in range(len(lam)):
        bumped = lam[:i] + (lam[i] + 1,) + lam[i + 1:]
        assert _refusal(label, bumped), i
    assert "star" in _refusal(label, _rebuilt_vector(label, -sign))
    assert "primitive" in _refusal(label, tuple(2 * x for x in lam))
    assert "negative" in _refusal(label, tuple(-x for x in lam))
    assert "entries" in _refusal(label, lam[:-1])
    assert "entries" in _refusal(label, lam + (0,))
    assert "primitive" in _refusal(label, (0,) * len(lam))
    # with T_2, the 2-term and star relations already leave the line, so
    # no vector breaks the 3-term relation alone; of the vectors that meet
    # only the 2-term and star relations, some break it at a point before
    # any T_2 failure, and some break T_2 first
    wider = [_refusal(label, _rebuilt_vector(label, sign, v)) or ""
             for v in _kernel_vectors(label, sign, three_term=False, primes=())]
    assert len(wider) > 10
    assert any("3-term" in m for m in wider) and any("T_2" in m for m in wider)


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "O"])
def test_a_mutated_vector_is_refused_under_python_o(tmp_path, flags):
    # the check raises ModSymError, no assert, so python -O keeps it: a
    # TwistSums over a mutated tuple raises, and table exits 2
    script = tmp_path / "mutated.py"
    script.write_text(
        "import sys\n"
        "from cmtwist import cli, modsym\n"
        "from cmtwist.registry import BUILTIN\n"
        "lam = modsym.WINDING_VECTORS['49a']\n"
        "modsym.WINDING_VECTORS['49a'] = (lam[0] + 1,) + lam[1:]\n"
        "try:\n"
        "    modsym.TwistSums(BUILTIN['49a'])\n"
        "except modsym.ModSymError as exc:\n"
        "    print('refused:', exc)\n"
        "sys.exit(cli.main(['table', '1', '100', '--curve', '49a']))\n",
        encoding="utf-8")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    done = subprocess.run([sys.executable, *flags, str(script)],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stdout.startswith("refused: lambda_+1 for q = 7 fails")
    assert "lambda_+1 for q = 7 fails" in done.stderr


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_twist_sums_use_the_rebuilt_lambda(label):
    # the lookup rows of TwistSums hold lambda_s at every (c:d), c, d mod
    # q^2 not both divisible by q
    curve = BUILTIN[label]
    q, n = curve.q, curve.q ** 2
    sign, _ = modsym.TWIST_SCALE[label]
    lam = _rebuilt_vector(label, sign)
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
    # under the normalization of WINDING_VECTORS.  D = 1 reads
    # lambda({oo, 0}) = -2 = -4 * L^alg(49a) = -4 * 1/2
    assert modsym.TWIST_SCALE == {"49a": (1, -4), "121b": (-1, 2)}
    sums = modsym.TwistSums(BUILTIN["49a"])
    assert sums.twisted_sum(1) == -2 and sums.lalg(1) == Fraction(1, 2)


def _full_sum(sums, d):
    """sum_{a mod |d|} (d/a) lambda_s({oo, a/|d|}), every a, each symbol
    normalized by search: the sum without the pairing of a with |d| - a."""
    curve = sums.curve
    q, s = curve.q, sums.sign
    lam = modsym.WINDING_VECTORS[curve.label]
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
    for spec in cli._admissible_specs(curve, 1, 200):
        d = spec.epsilon * spec.M
        assert sums.twisted_sum(d) == _full_sum(sums, d), d


@pytest.mark.parametrize("label, nonzero_to_1000", [("49a", 119), ("121b", 43)])
def test_twisted_sums_are_c_times_the_series_lalg(label, nonzero_to_1000):
    # every admissible M <= 1500: S(D) = c L^alg exactly, sign included,
    # and every vanishing row an exact 0
    curve = BUILTIN[label]
    ctx = CurveContext(curve)
    sums = modsym.TwistSums(curve)
    scale = modsym.TWIST_SCALE[label][1]
    nonzero = {}
    for spec in cli._admissible_specs(curve, 1, 1500):
        M, d = spec.M, spec.epsilon * spec.M
        want = algebraic_part(ctx, d, target_digits=12).lalg
        assert want is not None and want >= 0
        assert sums.twisted_sum(d) == scale * want, M
        nonzero[M] = want != 0
    assert sum(v for M, v in nonzero.items() if M <= 1000) == nonzero_to_1000
    assert not all(nonzero.values())        # vanishing rows are among them


def _walk_sum(sums, d):
    """S(d) by the convergent walk: for each a < |d|/2, {oo, a/|d|} split
    along the convergent denominators q_k of a/|d| by the q_(k-1), q_k
    recurrence, each symbol with its sign s^(k-1), paired with |d| - a.
    The oracle of the remainder-chain kernel of TwistSums.twisted_sum."""
    n, s, rows = sums.curve.q ** 2, sums.sign, sums._rows
    head = rows[0][1]               # k = 0: (-1:0) = (1:0)
    m = abs(d)
    if m == 1:
        return head
    chi = twist_symbol_period(sums.curve, d)
    total = 0
    for a in range(1, (m + 1) // 2):
        if chi[a]:
            acc, sk = head, 1
            y, r, q0, q1 = m, a, 0, 1
            while r:
                t = y // r
                y, r = r, y - t * r
                q0, q1 = q1, (t * q1 + q0) % n
                acc += sk * rows[q0][q1]
                sk *= s
            total += chi[a] * acc
    return 2 * total


def _unreduced_sum(sums, d):
    """S(d) over every unit below |d|/2: 2 (lambda_s(1:0) sum_{a<m/2} chi(a)
    + sum_{e<m/2} chi(e) Phi(m, e)), the chain sums of each chi class from
    TwistSums._chain_sums.  The oracle of the reduced kernel of
    TwistSums.twisted_sum; it holds for any values on P^1."""
    head = sums._rows[0][1]         # lambda_s(1:0)
    m = abs(d)
    if m == 1:
        return head
    half = (m + 1) // 2
    chi = twist_symbol_period(sums.curve, d)[:half]
    plus = sums._chain_sums(m, [e for e in range(half) if chi[e] == 1])
    minus = sums._chain_sums(m, [e for e in range(half) if chi[e] == -1])
    return 2 * (head * sum(chi) + plus - minus)


def _discriminants(curve, m_max, extra=()):
    return [spec.epsilon * spec.M
            for spec in cli._admissible_specs(curve, 1, m_max)] + \
        [M if M % 4 == 1 else -M for M in extra]


# the 121b twists above its series cap: a prime 1 mod 4 times a prime
# 3 mod 4 (29 * 503, 19 * 769, 7 * 2089), and a prime
ABOVE_THE_CAP_121B = (14587, 14611, 14623, 14627)


@pytest.mark.parametrize("label, extra", [
    ("49a", (22893, 22901, 22921, 22929, 22937, 22945)),
    ("121b", ABOVE_THE_CAP_121B)])
def test_kernel_is_the_convergent_walk(label, extra):
    sums = modsym.TwistSums(BUILTIN[label])
    for d in _discriminants(sums.curve, 5000, extra):
        assert sums.twisted_sum(d) == _walk_sum(sums, d), d


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_kernel_is_the_walk_for_any_symbol_values(monkeypatch, label):
    # the chain sums over each chi class give the convergent walk for any
    # values on P^1, not only for lambda_s; random values keep the
    # lambda(1:0) term, which drops out for lambda_s (lambda_-(1:0) = 0,
    # and an even chi sums to 0 over a < m/2).  twisted_sum's reduction
    # needs lambda_s to be a T_p eigenvector, so random values are no test
    # of it
    rng = random.Random(label)
    monkeypatch.setattr(modsym, "winding_rows", lambda q, sign, lam, a2:
                        modsym._lookup_rows(q, [rng.randrange(-50, 51)
                                                for _ in range(q * (q + 1))]))
    sums = modsym.TwistSums(BUILTIN[label])
    assert sums._rows[0][1]
    for d in _discriminants(sums.curve, 1000):
        assert _unreduced_sum(sums, d) == _walk_sum(sums, d), d


ABOVE_THE_CAP = (22921, 22929, 22937, 22945)


@pytest.mark.parametrize("label, extra", [
    ("49a", ABOVE_THE_CAP), ("121b", ABOVE_THE_CAP_121B)])
def test_reduced_sum_is_the_unreduced_sum(label, extra):
    # every admissible D <= 4000, D = 1 and the twists above the series
    # cap, on a fresh instance each, so each D is reduced from its own
    # walk and the S(D_d) of its divisors
    curve = BUILTIN[label]
    oracle = modsym.TwistSums(curve)
    ds = _discriminants(curve, 4000, extra) + [1] * (label == "49a")
    assert len(ds) == {"49a": 521, "121b": 234}[label]
    for d in ds:
        assert modsym.TwistSums(curve).twisted_sum(d) == _unreduced_sum(oracle, d), d


@pytest.mark.parametrize("q", [7, 11])
def test_square_classes_follow_eulers_criterion(q):
    # every odd square-free m <= 2000 prime to q, whatever its primes are
    # mod 4: e is in Sq when e^((p-1)/2) = 1 mod every p | m, so neither
    # class holds e = 0, and the second reads m - e
    def in_sq(x, primes):
        return all(pow(x, (p - 1) // 2, p) == 1 for p in primes)

    mixed = 0
    for m in range(3, 2001, 2):
        factors = factor_int(m)
        if m % q == 0 or any(e > 1 for _, e in factors):
            continue
        primes = [p for p, _ in factors]
        mixed += len({p % 4 for p in primes}) == 2
        first, second = map(list, modsym._square_classes(m, primes))
        units = range((m + 1) // 2)
        assert first == [e for e in units if in_sq(e, primes)], m
        assert second == [e for e in units if in_sq(m - e, primes)], m
        assert 0 not in first and 0 not in second
    assert mixed > 100


def _spy_chain_sums(monkeypatch):
    """The (instance, m) of every TwistSums._chain_sums call, in order."""
    walks = []
    chain_sums = modsym.TwistSums._chain_sums

    def spy(self, m, units):
        walks.append((id(self), m))
        return chain_sums(self, m, units)

    monkeypatch.setattr(modsym.TwistSums, "_chain_sums", spy)
    return walks


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_each_sum_is_walked_once_per_instance(capsys, monkeypatch, label):
    # over a table 1 3000, each S(D), the S(D_d) of the divisors included,
    # walks its chains once: one class when every p | |D| is 1 mod 4, two
    # classes otherwise
    walks = _spy_chain_sums(monkeypatch)
    assert cli.main(["table", "1", "3000", "--curve", label]) == 0
    capsys.readouterr()
    assert len({who for who, _ in walks}) == 1
    calls = Counter(m for _, m in walks)
    for m, n in calls.items():
        one_class = all(p % 4 == 1 for p, _ in factor_int(m))
        assert n == (1 if one_class else 2), m
    assert len(calls) >= len(cli._admissible_specs(BUILTIN[label], 1, 3000))


def test_a_second_instance_starts_with_an_empty_memo(monkeypatch):
    curve = BUILTIN["49a"]
    first = modsym.TwistSums(curve)
    values = [first.twisted_sum(d) for d in (5, 65, 1105)]
    walks = _spy_chain_sums(monkeypatch)
    second = modsym.TwistSums(curve)
    assert second._sums == {}
    assert [second.twisted_sum(d) for d in (5, 65, 1105)] == values
    assert sorted(m for _, m in walks) == [5, 13, 17, 65, 85, 221, 1105]
    assert [first.twisted_sum(d) for d in (5, 65, 1105)] == values
    assert len(walks) == 7                  # the first instance walked no more


@pytest.mark.parametrize("label, d", [("49a", 5), ("49a", 33), ("121b", -3),
                                      ("121b", -15)])
def test_the_memo_is_keyed_by_the_signed_discriminant(label, d):
    # a computed S(D) does not answer for -D, which has the wrong sign
    sums = modsym.TwistSums(BUILTIN[label])
    sums.twisted_sum(d)
    with pytest.raises(modsym.ModSymError, match="sign"):
        sums.twisted_sum(-d)


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_chain_table_is_the_euclid_chain_sum(label):
    # Phi(y, r) = sum_j s^j lambda(y_j : y_(j+1)) over the Euclid chain
    # y_0 = y, y_1 = r, y_(j+2) = y_j mod y_(j+1), for every r < y < B, at
    # index r * B + y
    sums = modsym.TwistSums(BUILTIN[label])
    rows, s, bound = sums._rows, sums.sign, modsym.CHAIN_BOUND
    n = len(rows)
    assert len(sums._phi) == bound * bound
    for y in range(bound):
        for r in range(bound):
            want, sk, a, b = 0, 1, y, r
            while r < y and b:
                want += sk * rows[b % n][a % n]
                a, b, sk = b, a % b, sk * s
            assert sums._phi[r * bound + y] == want, (y, r)


def _fundamental(label, lo, hi):
    """The fundamental D of the sign of the label's twists, prime to q,
    with lo <= |D| <= hi, in increasing |D|."""
    q, s = BUILTIN[label].q, modsym.TWIST_SCALE[label][0]
    out = []
    for m in range(lo, hi + 1):
        if m % 2 == 0 or m % q == 0 or any(e > 1 for _, e in factor_int(m)):
            continue
        d = m if m % 4 == 1 else -m
        if (d > 0) == (s > 0):
            out.append(d)
    return out


# sha256 of "D:S(D)" joined by spaces, taken before chain_table was built
# by columns and lambda_s shipped as literals: every fundamental D of the
# twists' sign prime to q with |D| <= 5000 (D = 1 included), then the 49a
# D from 22877 to 22945 or the 121b ABOVE_THE_CAP_121B
PINNED_SUMS = {
    "49a": (895, "2e4a397ab03a0d53b2791e5554b83aa87f968438f31080e2061177ac4158d4ee"),
    "121b": (939, "227dc1a741319e9033eace7a6b8b59c2e81f4ebdccf491fa4be7d4b140f41e75"),
}


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_twisted_sums_are_pinned(label):
    extra = (_fundamental(label, 22877, 22945) if label == "49a"
             else [-M for M in ABOVE_THE_CAP_121B])
    ds = _fundamental(label, 1, 5000) + extra
    sums = modsym.TwistSums(BUILTIN[label])
    text = " ".join(f"{d}:{sums.twisted_sum(d)}" for d in ds)
    assert (len(ds), hashlib.sha256(text.encode()).hexdigest()) == PINNED_SUMS[label]


def _convergent_denominators(a, m):
    """q_0 = 1, q_1, ..., q_n = m of a/m."""
    qs, y, r, q0, q1 = [1], m, a, 0, 1
    while r:
        t = y // r
        y, r = r, y - t * r
        q0, q1 = q1, t * q1 + q0
        qs.append(q1)
    return qs


@settings(deadline=None)
@given(st.integers(1, 5 * 10 ** 4).flatmap(
    lambda k: st.tuples(st.just(2 * k + 1), st.integers(1, k))))
def test_convergent_denominators_are_euclid_remainders(m_a):
    # odd m up to 10^5 and a < m/2
    m, a = m_a
    assume(gcd(a, m) == 1)
    qs = _convergent_denominators(a, m)
    n, e = len(qs) - 1, qs[-2]
    remainders = [m, e]
    while remainders[-1]:
        remainders.append(remainders[-2] % remainders[-1])
    assert remainders == qs[::-1] + [0]
    assert 2 * e < m and a * e % m == (-1) ** (n - 1) % m
    # chi = (D/.) with |D| = m, D = 1 mod 4, has chi(-1) = s = sign D
    d = m if m % 4 == 1 else -m
    s = 1 if d > 0 else -1
    assert kronecker(d, e) == s ** (n - 1) * kronecker(d, a)


def test_last_denominators_run_once_over_the_units():
    # a -> q_(n-1) permutes the units below m/2
    for m in range(3, 400, 2):
        units = [a for a in range(1, (m + 1) // 2) if gcd(a, m) == 1]
        assert sorted(_convergent_denominators(a, m)[-2] for a in units) == units, m


def test_non_discriminants_are_refused():
    # D = 0 and D = -1 are no fundamental discriminants, whatever the sign;
    # D = 1 is, and S(1) = lambda_+({oo, 0})
    for label in ("49a", "121b"):
        sums = modsym.TwistSums(BUILTIN[label])
        for d in (0, -1):
            with pytest.raises(modsym.ModSymError, match="fundamental"):
                sums.twisted_sum(d)
    assert modsym.TwistSums(BUILTIN["49a"]).twisted_sum(1) == -2


def test_values_above_the_series_cap():
    # the four 49a twists the series refuses at 12 digits
    sums = modsym.TwistSums(BUILTIN["49a"])
    assert [sums.lalg(M) for M in ABOVE_THE_CAP] == [225, 72, 49, 4]


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


def _workdps_value(ctx, lalg, d, target_digits):
    """The value of algebraic_part as it was formed inside an mpmath
    precision context: the oracle of the context-free form."""
    digits = max(target_digits, 15)
    with mp.workdps(digits + 10):
        return ctx.omega(digits) * lalg.numerator / lalg.denominator \
            / mp.sqrt(abs(d))


@pytest.mark.parametrize("label", ["49a", "121b"])
def test_algebraic_part_value_is_the_workdps_value(label):
    # every admissible M <= 5000, at precision 15 and 50: the same mpf, bit
    # for bit, as the value formed inside workdps
    curve = BUILTIN[label]
    ctx, sums = CurveContext(curve), modsym.TwistSums(curve)
    specs = cli._admissible_specs(curve, 1, 5000)
    assert len(specs) > 250
    for precision in (15, 50):
        digits = cli._table_digits(precision)
        for spec in specs:
            d = spec.epsilon * spec.M
            got = sums.algebraic_part(ctx, d, digits)
            want = _workdps_value(ctx, got.lalg, d, digits)
            assert got.analytic_value == want, (spec.M, precision)
            assert got.analytic_value._mpf_ == want._mpf_


def test_only_builtin_curves_have_symbols(e29_file):
    e29 = resolve_curve("e29", e29_file)
    assert not modsym.supports(e29)
    with pytest.raises(modsym.ModSymError, match="e29"):
        modsym.TwistSums(e29)
    with pytest.raises(modsym.ModSymError, match="sign"):
        modsym.TwistSums(BUILTIN["49a"]).twisted_sum(-3)


def test_inconsistent_eigenvalues_are_refused(monkeypatch):
    # a wrong a_2: the shipped lambda is no eigenvector of that T_2
    for label in ("49a", "121b"):
        q = BUILTIN[label].q
        monkeypatch.setattr(modsym, "theta_window",
                            lambda q, lo, hi: [x + 1 for x in theta_window(q, lo, hi)])
        wrong = f"q = {q} fails T_2 = {_a2(q) + 1}"
        with pytest.raises(modsym.ModSymError, match=wrong):
            modsym.TwistSums(BUILTIN[label])
        monkeypatch.undo()
