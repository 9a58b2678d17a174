"""Scalar, polynomial, and rational-function arithmetic."""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import HealthCheck, example, given, seed, settings, strategies as st

from mkdv_a22 import exact
from mkdv_a22.cli import main
from mkdv_a22.exact import (
    ONE,
    X,
    Poly,
    RatFunc,
    laurent_at_infinity,
    log_derivative,
    poly_gcd,
    poly_lcm,
    solve_linear,
    wronskian,
    rat_to_str,
    poly_to_json,
    poly_from_json,
    ratfunc_to_json,
    ratfunc_from_json,
)


def rand_rat(rng, lo=-9, hi=9):
    return F(rng.randint(lo, hi), rng.randint(1, 4))


def rand_poly(rng, max_deg=4):
    return Poly([rand_rat(rng) for _ in range(rng.randint(0, max_deg) + 1)])


# --- ring laws ----------------------------------------------------------------

def test_ring_laws_poly_ratfunc():
    rng = random.Random(2)
    for _ in range(60):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()
    for _ in range(40):
        den1 = rand_poly(rng, 2) + Poly([0] * 3 + [1])
        den2 = rand_poly(rng, 2) + Poly([0] * 3 + [1])
        a = RatFunc(rand_poly(rng), den1)
        b = RatFunc(rand_poly(rng), den2)
        assert a + b == b + a
        assert a * b == b * a
        assert a * b == RatFunc(a.num * b.num, a.den * b.den)
        assert (a - a).is_zero()
        if not b.is_zero():
            assert (a / b) * b == a


# --- polynomials ---------------------------------------------------------------

def test_poly_normalization_and_degree():
    assert Poly([1, 2, 0, 0]).coeffs == (1, 2)
    assert Poly([]).degree() == -1
    assert Poly([0]).is_zero()
    assert (X ** 3).degree() == 3


def test_poly_divmod_and_gcd():
    rng = random.Random(4)
    for _ in range(40):
        a, b = rand_poly(rng, 5), rand_poly(rng, 3)
        if b.is_zero():
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree() < b.degree()
    for _ in range(40):
        g = rand_poly(rng, 2).monic() if not rand_poly(rng, 2).is_zero() else ONE
        a, b = rand_poly(rng, 3), rand_poly(rng, 3)
        if g.is_zero() or a.is_zero() or b.is_zero():
            continue
        d = poly_gcd(a * g, b * g)
        assert (a * g) % d == Poly()
        assert (b * g) % d == Poly()
        lcm = poly_lcm(a * g, b * g)
        assert lcm % (a * g) == Poly()


# --- gcd and reduction against sympy ---------------------------------------------

SX = sp.symbols("x")
RATS = st.fractions(min_value=-30, max_value=30, max_denominator=7)
POLYS = st.lists(RATS, max_size=7).map(Poly)
NONZERO = POLYS.filter(lambda p: not p.is_zero())
SMALL = st.lists(RATS, min_size=1, max_size=4).map(Poly).filter(lambda p: not p.is_zero())
REPEATED = st.builds(
    lambda c, k, a: (X - c) ** k * a,
    st.fractions(min_value=-5, max_value=5, max_denominator=3),
    st.integers(1, 4),
    SMALL,
)
PAIRS = st.one_of(
    st.tuples(POLYS, POLYS),
    st.builds(lambda g, a, b: (g * a, g * b), NONZERO, POLYS, POLYS),
    st.builds(lambda a, b, c: (a * b, a * c.derivative()), REPEATED, SMALL, REPEATED),
    st.tuples(REPEATED, REPEATED),
)
PROPERTY = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def to_sympy(p: Poly) -> sp.Poly:
    cs = [sp.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sp.Poly(cs or [0], SX, domain=sp.QQ)


def from_sympy(p: sp.Poly) -> Poly:
    return Poly(F(int(c.p), int(c.q)) for c in reversed(p.all_coeffs()))


@pytest.fixture(params=["heuristic", "prs-fallback"])
def gcd_path(request):
    """Run a test as is, or with the heuristic gcd always giving up; counts
    the pseudo-remainder steps so each path can be shown to be taken."""
    steps = []
    prem = exact._int_prem
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_int_prem", lambda a, b: steps.append(1) or prem(a, b))
        if request.param == "prs-fallback":
            mp.setattr(exact, "_heu_gcd", lambda fa, fb: None)
        yield request.param, steps


def test_poly_gcd_matches_sympy(gcd_path):
    path, steps = gcd_path

    @seed(20261018)
    @PROPERTY
    @given(PAIRS)
    def check(pair):
        a, b = pair
        assert poly_gcd(a, b) == from_sympy(sp.gcd(to_sympy(a), to_sympy(b)))

    check()
    assert bool(steps) == (path == "prs-fallback")


@seed(20261018)
@PROPERTY
@given(POLYS, NONZERO)
def test_ratfunc_matches_sympy_cancel(n, d):
    p, q = to_sympy(n).cancel(to_sympy(d), include=True)
    lc = q.LC()
    r = RatFunc(n, d)
    assert (r.num, r.den) == (from_sympy(p.quo_ground(lc)), from_sympy(q.quo_ground(lc)))


def test_cli_output_does_not_rest_on_the_heuristic(capsys, gcd_path):
    path, steps = gcd_path
    outputs = []
    for command in ("generate", "miura"):
        assert main([command, "0,1,0,1,0,1,0", "--c=3,-1/2,2,1/3,-2,5/4,1"]) == 0
        outputs.append(capsys.readouterr().out)
    assert bool(steps) == (path == "prs-fallback")
    assert [hashlib.sha256(o.encode()).hexdigest()[:16] for o in outputs] == [
        "73b6ff77174d77f8",  # sha256 prefix of the generate output
        "edc45115306fb1ab",  # and of the miura output
    ]


def test_inexact_division_is_an_arithmetic_error():
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        (X * X + 1).divexact(X + 1)
    with pytest.raises(ArithmeticError, match="inexact polynomial division"):
        (X * X + 1).divexact(2 * X + F(1, 3))
    assert exact._int_divexact([1, 0, 1], [1, 1]) is None
    assert exact._int_divexact([-1, 0, 1], [1, 1]) == [-1, 1]


# --- the content/primitive form against sympy ------------------------------------

HUGE = 2**90
CONTENTS = st.builds(
    F,
    st.integers(-HUGE, HUGE).filter(bool),
    st.integers(1, HUGE),
)
# zero, constants and negative leading coefficients come from POLYS; scaling
# by CONTENTS gives coefficients with large numerators and denominators
WIDE = st.one_of(POLYS, st.builds(lambda p, c: p * c, POLYS, CONTENTS))
WIDE_NONZERO = WIDE.filter(lambda p: not p.is_zero())
SCALARS = st.one_of(st.integers(-5, 5), RATS, CONTENTS)


def assert_canonical(p: Poly) -> None:
    """ints primitive with a positive last entry (() for zero), and the
    Fraction view round-trips to an equal Poly with the same hash."""
    if p.is_zero():
        assert p.ints == () and p.cont == 0 and p.coeffs == ()
    else:
        assert all(type(c) is int for c in p.ints)
        assert math.gcd(*p.ints) == 1 and p.ints[-1] > 0 and p.cont != 0
        assert p.coeffs[-1] != 0 and p.degree() == len(p.coeffs) - 1
    assert all(c == p.cont * k for c, k in zip(p.coeffs, p.ints))
    q = Poly(p.coeffs)
    assert q == p and hash(q) == hash(p)
    assert (q.cont, q.ints) == (p.cont, p.ints)


def same(ours: Poly, theirs: sp.Poly) -> bool:
    assert_canonical(ours)
    return ours == from_sympy(theirs) and to_sympy(ours) == theirs


@seed(20261019)
@PROPERTY
@given(WIDE, WIDE, SCALARS, st.integers(0, 3))
def test_poly_ring_operations_match_sympy(a, b, s, k):
    sa, sb = to_sympy(a), to_sympy(b)
    assert same(a, sa) and same(b, sb)
    assert same(a + b, sa + sb)
    assert same(a - b, sa - sb)
    assert same(-a, -sa)
    assert same(a * b, sa * sb)
    scalar = sp.Rational(F(s).numerator, F(s).denominator)
    assert same(a * s, sa * scalar) and same(s * a, sa * scalar)
    assert same(a ** k, sa ** k)
    assert same(a.derivative(), sa.diff(SX))
    point = F(s) + F(1, 3)
    assert a(point) == F(str(sa.eval(sp.Rational(point.numerator, point.denominator))))
    if not a.is_zero():
        assert same(a.monic(), sa.monic())
        assert a.leading() == F(str(sa.LC()))


@seed(20261019)
@PROPERTY
@given(WIDE, WIDE_NONZERO)
def test_poly_division_matches_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    q, r = divmod(a, b)
    sq, sr = sp.div(sa, sb)
    assert same(q, sq) and same(r, sr)
    assert same(a // b, sq) and same(a % b, sr)
    assert same((a * b).divexact(b), sa)
    if not r.is_zero():
        with pytest.raises(ArithmeticError, match="inexact polynomial division"):
            a.divexact(b)


NONZERO_CONSTANTS = st.builds(lambda c: Poly([c]), st.one_of(RATS.filter(bool), CONTENTS))
DISTINCT_ROOTS = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=3), min_size=2, max_size=2, unique=True
)
# each kind of operand pair, then scaled by large contents so neither is monic
LCM_PAIRS = st.builds(
    lambda pair, s, t: (pair[0] * s, pair[1] * t),
    st.one_of(
        st.builds(lambda a: (a, a), WIDE),
        st.builds(lambda a, b: (a, a * b), NONZERO, SMALL),
        st.builds(lambda a, b: (a * b, b), SMALL, NONZERO),
        st.builds(lambda g, a, b: (g * a, g * b), REPEATED, SMALL, SMALL),
        st.builds(
            lambda r, k, l: ((X - r[0]) ** k, (X - r[1]) ** l),
            DISTINCT_ROOTS,
            st.integers(1, 3),
            st.integers(1, 3),
        ),
        st.tuples(NONZERO_CONSTANTS, WIDE),
        st.tuples(WIDE, NONZERO_CONSTANTS),
        st.tuples(POLYS, POLYS),
    ),
    CONTENTS,
    CONTENTS,
)


def test_poly_lcm_matches_sympy(gcd_path):
    path, steps = gcd_path

    @seed(20261021)
    @PROPERTY
    @given(LCM_PAIRS)
    def check(pair):
        a, b = pair
        got = poly_lcm(a, b)
        if a.is_zero() or b.is_zero():
            # sympy's lcm over QQ divides by the gcd, so zero stays ours alone
            assert got.is_zero()
            return
        assert got.is_monic()
        assert same(got, sp.lcm(to_sympy(a), to_sympy(b)).monic())

    check()
    assert bool(steps) == (path == "prs-fallback")


# zero, nonzero constants, and the non-monic, large-content polynomials of WIDE
POWER_BASES = st.one_of(
    st.just(Poly()),
    st.builds(lambda c: Poly([c]), st.one_of(RATS.filter(bool), CONTENTS)),
    WIDE,
)


@seed(20261020)
@PROPERTY
@given(POWER_BASES, st.integers(0, 9))
def test_poly_power_matches_repeated_multiplication(p, n):
    want = ONE
    for _ in range(n):
        want = want * p
    got = p**n
    assert_canonical(got)
    assert got == want


def test_poly_power_forms_only_the_products_it_keeps(monkeypatch):
    calls = []
    convolve = exact._convolve
    monkeypatch.setattr(exact, "_convolve", lambda a, b: calls.append(1) or convolve(a, b))
    p = Poly([F(-3, 2), 5, F(7, 3)])
    # p**2 and p**4 by squaring, and no p**8 past the top bit of 4
    p4 = p**4
    assert len(calls) == 2
    calls.clear()
    p1, p0 = p**1, p**0
    assert calls == []
    assert p4 == p * p * p * p and p1 == p and p0 == ONE


# --- RatFunc arithmetic against sympy's cancel ------------------------------------

FACTORS = st.one_of(REPEATED, SMALL.filter(lambda p: p.degree() > 0), st.just(ONE))


@st.composite
def ratfunc_pairs(draw):
    """(x, y) whose denominators share a factor g (g = 1 included) and may
    repeat factors, built from non-monic denominators; y is drawn freely, or
    is -x (the sum cancels to 0), a constant, or n/(g*d) - x (the sum cancels
    part of the shared factor)."""
    g = draw(FACTORS)
    scale = draw(st.one_of(RATS, CONTENTS).filter(bool))
    x = RatFunc(draw(NONZERO), g * draw(FACTORS) * scale)
    other = RatFunc(draw(NONZERO), g * draw(FACTORS) * draw(CONTENTS))
    kind = draw(st.sampled_from(["free", "negated", "constant", "split"]))
    if kind == "negated":
        return x, -x
    if kind == "constant":
        return x, RatFunc(draw(RATS))
    if kind == "split":
        return x, other - x
    return x, other


def agrees_with_cancel(r: RatFunc, num: sp.Poly, den: sp.Poly) -> bool:
    """r is reduced with a monic denominator and equals num/den."""
    assert_canonical(r.num)
    assert r.den.is_monic()
    assert sp.gcd(to_sympy(r.num), to_sympy(r.den)).degree() == 0
    p, q = num.cancel(den, include=True)
    lc = q.LC()
    return (r.num, r.den) == (from_sympy(p.quo_ground(lc)), from_sympy(q.quo_ground(lc)))


@seed(20261021)
@PROPERTY
@given(ratfunc_pairs())
@example((RatFunc(ONE, X * (X + 1)), RatFunc(ONE, X * (X - 1))))  # t = 2x shares x with g
def test_ratfunc_arithmetic_matches_sympy_cancel(pair):
    x, y = pair
    (nx, dx), (ny, dy) = [(to_sympy(r.num), to_sympy(r.den)) for r in pair]
    assert agrees_with_cancel(x + y, nx * dy + ny * dx, dx * dy)
    assert agrees_with_cancel(x - y, nx * dy - ny * dx, dx * dy)
    assert agrees_with_cancel(x * y, nx * ny, dx * dy)
    assert agrees_with_cancel(y * x, nx * ny, dx * dy)
    assert agrees_with_cancel(x.derivative(), nx.diff(SX) * dx - nx * dx.diff(SX), dx**2)
    assert agrees_with_cancel(y.derivative(), ny.diff(SX) * dy - ny * dy.diff(SX), dy**2)


# --- pseudo-division: large degree gaps and leading coefficients ---------------------

@st.composite
def gapped_pairs(draw):
    """(a, b) with deg a >= deg b + 8 and a primitive part of b whose leading
    coefficient is not 1, so the pseudo-division scales by lc(b)**k, k >= 9."""
    low = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=3))
    b = Poly([*low, draw(st.integers(2, 40))]) * draw(st.one_of(RATS, CONTENTS))
    size = b.degree() + draw(st.integers(9, 13))
    cs = draw(st.lists(RATS, min_size=size, max_size=size))
    a = Poly([*cs[:-1], cs[-1] or 1]) * draw(st.one_of(st.just(1), CONTENTS))
    return a, b


GAPPED = gapped_pairs().filter(lambda ab: not ab[1].is_zero() and ab[1].ints[-1] != 1)


@seed(20261020)
@settings(PROPERTY, max_examples=30)
@given(GAPPED)
@example((X**12 + 5, X * X * 3 + 1))  # every other step meets a zero top
def test_pseudo_division_with_large_gap_matches_sympy(pair):
    a, b = pair
    sa, sb = to_sympy(a), to_sympy(b)
    sq, sr = sp.div(sa, sb)
    q, r = divmod(a, b)
    assert same(q, sq) and same(r, sr)
    assert same(a // b, sq) and same(a % b, sr)
    # the kernel against sympy's pdiv: lc(b)**(deg a - deg b + 1) * a = q*b + r
    quo, rem = exact._int_pdivmod(a.ints, b.ints)
    assert len(rem) == b.degree()
    sq, sr = sp.pdiv(sp.Poly(a.ints[::-1], SX), sp.Poly(b.ints[::-1], SX))
    assert sp.Poly(quo[::-1], SX) == sq and sp.Poly(rem[::-1] or [0], SX) == sr


def test_prs_gcd_with_large_gap_matches_sympy(gcd_path):
    path, steps = gcd_path

    @seed(20261020)
    @settings(PROPERTY, max_examples=30)
    @given(GAPPED, SMALL)
    def check(pair, g):
        a, b = pair[0] * g, pair[1] * g
        assert poly_gcd(a, b) == from_sympy(sp.gcd(to_sympy(a), to_sympy(b)))

    check()
    assert bool(steps) == (path == "prs-fallback")


# --- wronskian / log derivative / laurent ---------------------------------------

def test_wronskian_values():
    assert wronskian(ONE, X) == ONE
    assert wronskian(X, X) == Poly()
    assert wronskian(X, X * X) == X * X


def test_wronskian_antisymmetry():
    rng = random.Random(5)
    for _ in range(30):
        f, g = rand_poly(rng), rand_poly(rng)
        assert wronskian(f, g) == -wronskian(g, f)


def test_log_derivative_values_and_product_rule():
    assert log_derivative(X + 3) == RatFunc(ONE, X + 3)
    assert log_derivative(ONE).is_zero()
    assert log_derivative((X + 1) ** 2) == RatFunc(ONE * 2, X + 1)
    with pytest.raises(ValueError):
        log_derivative(Poly())
    rng = random.Random(6)
    for _ in range(25):
        f, g = rand_poly(rng), rand_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        assert log_derivative(f * g) == log_derivative(f) + log_derivative(g)


def test_laurent_expansion_values():
    c = F(5, 2)
    assert laurent_at_infinity(RatFunc(ONE, X + c), 3) == [1, -c, c * c]
    assert laurent_at_infinity(RatFunc(Poly()), 2) == [0, 0]
    assert laurent_at_infinity(RatFunc(X, X * X + 1), 4) == [1, 0, -1, 0]


def test_laurent_matches_sympy_series():
    rng = random.Random(7)
    x = sp.symbols('x')
    for _ in range(10):
        num = rand_poly(rng, 2)
        den = (rand_poly(rng, 2) * X + ONE).monic()
        if num.is_zero() or den.degree() == 0:
            continue
        r = RatFunc(num, den)
        sym = sum(sp.Rational(c) * x ** k for k, c in enumerate(r.num.coeffs))
        sym /= sum(sp.Rational(c) * x ** k for k, c in enumerate(r.den.coeffs))
        series = sp.series(sym.subs(x, 1 / x), x, 0, 7).removeO()
        want = [series.coeff(x, k) for k in range(1, 6)]
        got = laurent_at_infinity(r, 5)
        assert [sp.Rational(g) for g in got] == want


def test_laurent_of_log_derivative_leads_with_degree():
    rng = random.Random(8)
    for d in range(1, 6):
        p = (rand_poly(rng, d - 1) + X ** d).monic()
        B = laurent_at_infinity(log_derivative(p), 1)
        assert B[0] == d


@seed(20261020)
@settings(PROPERTY, max_examples=20)
@given(WIDE, WIDE_NONZERO, st.integers(0, 5))
@example(Poly(), X + 1, 3)  # zero
@example(X**4 * F(3, 7) + 2, X * X * 5 - 1, 4)  # a polynomial part
@example(X, X * X + 1, 0)  # n = 0
def test_laurent_matches_sympy_series_at_infinity(num, den, n):
    got = laurent_at_infinity(RatFunc(num, den), n)
    expr = to_sympy(num).as_expr() / to_sympy(den).as_expr()
    series = sp.sympify(sp.series(expr, SX, sp.oo, n + 1).removeO() if n else 0)
    assert got == [F(str(series.coeff(SX, -k))) for k in range(1, n + 1)]


# --- linear solving -------------------------------------------------------------

def test_solve_linear_examples():
    ident = [[F(1), F(0)], [F(0), F(1)]]
    assert solve_linear(ident, [F(4), F(5)]) == [F(4), F(5)]
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
    assert solve_linear([[F(2)]], [F(5)]) == [F(5, 2)]
    assert solve_linear([], []) == []


def test_solve_linear_random_consistency():
    rng = random.Random(9)
    for _ in range(40):
        n, m = rng.randint(1, 4), rng.randint(1, 4)
        a = [[rand_rat(rng) for _ in range(m)] for _ in range(n)]
        x = [rand_rat(rng) for _ in range(m)]
        b = [sum(row[j] * x[j] for j in range(m)) for row in a]
        sol = solve_linear(a, b)
        assert sol is not None
        assert all(sum(row[j] * sol[j] for j in range(m)) == bi for row, bi in zip(a, b))



@st.composite
def linear_systems(draw):
    """(kind, a, b): a consistent system, one with a dependent row (rank
    below the row count), one whose dependent row has a shifted rhs
    (inconsistent), or one with no columns; entries are all ints or all
    Fractions."""
    kind = draw(st.sampled_from(["consistent", "dependent", "inconsistent", "no columns"]))
    entry = draw(st.sampled_from([st.integers(-4, 4), st.fractions(-4, 4, max_denominator=3)]))
    nrows = draw(st.integers(1, 4))
    ncols = 0 if kind == "no columns" else draw(st.integers(1, 4))
    a = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    if kind == "no columns":
        return kind, a, [draw(entry) for _ in a]
    x = [draw(entry) for _ in range(ncols)]
    b = [sum(v * xj for v, xj in zip(row, x)) for row in a]
    if kind != "consistent":
        ks = [draw(entry) for _ in a]
        row = [sum(k * r[j] for k, r in zip(ks, a)) for j in range(ncols)]
        shift = draw(entry.filter(bool)) if kind == "inconsistent" else 0
        at = draw(st.integers(0, nrows))
        a.insert(at, row)
        b.insert(at, sum(k * bi for k, bi in zip(ks, b)) + shift)
    return kind, a, b


@seed(20261022)
@settings(PROPERTY, max_examples=200)
@given(linear_systems())
def test_solve_linear_matches_sympy_rref(case):
    # the reduced row echelon form of [A | b] is unique: the system is
    # inconsistent exactly when the rhs column holds a pivot, and otherwise
    # the solution with free variables zero reads off the pivot rows
    kind, a, b = case
    ncols = len(a[0])
    aug = sp.Matrix([[sp.Rational(F(v).numerator, F(v).denominator) for v in row + [rhs]]
                     for row, rhs in zip(a, b)])
    rref, pivots = aug.rref()
    sol = solve_linear(a, b)
    if ncols in pivots:
        assert sol is None
        assert kind in ("inconsistent", "no columns")
        return
    expected = [F(0)] * ncols
    for i, col in enumerate(pivots):
        expected[col] = F(int(rref[i, ncols].p), int(rref[i, ncols].q))
    assert sol == expected and all(type(v) is F for v in sol)
    assert kind != "inconsistent"


# --- serialization ---------------------------------------------------------------

# integer tuples with interior zeros, scaled by integer-valued or fractional,
# positive or negative, small or huge contents
SCALED_INTS = st.builds(
    lambda ints, c: Poly([F(k) for k in ints]) * c,
    st.lists(st.one_of(st.just(0), st.integers(-HUGE, HUGE)), max_size=6),
    st.one_of(CONTENTS, st.integers(-HUGE, HUGE).filter(bool).map(F)),
)


@seed(20261022)
@PROPERTY
@given(st.one_of(WIDE, SCALED_INTS))
@example(Poly())
@example(Poly([F(3, 4), F(0), F(0), F(-5, 6)]))
@example(Poly([F(2**100 + 1, 3**70), F(0), F(-7, 2**90)]))
@example(Poly([F(-6), F(0), F(-4)]))
def test_poly_to_json_matches_the_fraction_view(p):
    fresh = Poly._make(p.cont, p.ints)
    out = poly_to_json(fresh)
    assert not hasattr(fresh, "_coeffs")  # formatted without the Fraction view
    assert out == [rat_to_str(c) for c in p.coeffs]
    assert poly_from_json(out) == p


def test_serialization_round_trip():
    assert rat_to_str(F(-3, 7)) == "-3/7"
    assert rat_to_str(F(4)) == "4"
    p = Poly([F(1, 2), F(0), F(-3)])
    assert poly_from_json(poly_to_json(p)) == p
    r = RatFunc(p, (X + 1) ** 2)
    assert ratfunc_from_json(ratfunc_to_json(r)) == r


# Recorded from the implementation that printed through the Fraction view:
# ``__str__`` and ``__repr__`` must not move when their source of coefficients does.
POLY_TEXT = [
    ((), "0", "Poly([])"),
    ((0,), "0", "Poly([])"),
    ((1,), "1", "Poly([Fraction(1, 1)])"),
    ((-1,), "-1", "Poly([Fraction(-1, 1)])"),
    ((5,), "5", "Poly([Fraction(5, 1)])"),
    ((F(-3, 2),), "-3/2", "Poly([Fraction(-3, 2)])"),
    ((0, 1), "x", "Poly([Fraction(0, 1), Fraction(1, 1)])"),
    ((0, -1), "-1*x", "Poly([Fraction(0, 1), Fraction(-1, 1)])"),
    ((1, -1), "-1*x + 1", "Poly([Fraction(1, 1), Fraction(-1, 1)])"),
    ((-1, 1), "x - 1", "Poly([Fraction(-1, 1), Fraction(1, 1)])"),
    ((0, 0, 1), "x^2", "Poly([Fraction(0, 1), Fraction(0, 1), Fraction(1, 1)])"),
    ((1, 0, 1), "x^2 + 1", "Poly([Fraction(1, 1), Fraction(0, 1), Fraction(1, 1)])"),
    ((1, 1, 1), "x^2 + x + 1", "Poly([Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)])"),
    (
        (-1, -1, -1),
        "-1*x^2 - 1*x - 1",
        "Poly([Fraction(-1, 1), Fraction(-1, 1), Fraction(-1, 1)])",
    ),
    (
        (-1, 0, 0, -1),
        "-1*x^3 - 1",
        "Poly([Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(-1, 1)])",
    ),
    (
        (2, 0, -1, 0, 3),
        "3*x^4 - 1*x^2 + 2",
        "Poly([Fraction(2, 1), Fraction(0, 1), Fraction(-1, 1), Fraction(0, 1), Fraction(3, 1)])",
    ),
    (
        (7, -1, 0, 0, -5),
        "-5*x^4 - 1*x + 7",
        "Poly([Fraction(7, 1), Fraction(-1, 1), Fraction(0, 1), Fraction(0, 1), Fraction(-5, 1)])",
    ),
    ((F(1, 2), F(-1, 2)), "-1/2*x + 1/2", "Poly([Fraction(1, 2), Fraction(-1, 2)])"),
    ((F(2, 3), F(4, 3)), "4/3*x + 2/3", "Poly([Fraction(2, 3), Fraction(4, 3)])"),
    (
        (F(1, 2), 0, F(-3, 4)),
        "-3/4*x^2 + 1/2",
        "Poly([Fraction(1, 2), Fraction(0, 1), Fraction(-3, 4)])",
    ),
]


@pytest.mark.parametrize("coeffs, text, rep", POLY_TEXT)
def test_poly_str_and_repr_are_pinned(coeffs, text, rep):
    p = Poly(coeffs)
    assert str(p) == text
    assert repr(p) == rep
