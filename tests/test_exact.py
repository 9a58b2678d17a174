"""Scalar, polynomial, and rational-function arithmetic."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp

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


# --- linear solving -------------------------------------------------------------

def test_solve_linear_examples():
    ident = [[F(1), F(0)], [F(0), F(1)]]
    assert solve_linear(ident, [F(4), F(5)]) == [F(4), F(5)]
    assert solve_linear([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)]) is None
    assert solve_linear([[F(2)]], [F(5)]) == [F(5, 2)]


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


# --- serialization ---------------------------------------------------------------

def test_serialization_round_trip():
    assert rat_to_str(F(-3, 7)) == "-3/7"
    assert rat_to_str(F(4)) == "4"
    p = Poly([F(1, 2), F(0), F(-3)])
    assert poly_from_json(poly_to_json(p)) == p
    r = RatFunc(p, (X + 1) ** 2)
    assert ratfunc_from_json(ratfunc_to_json(r)) == r
