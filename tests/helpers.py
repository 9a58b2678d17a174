"""Constructors shared by the unit tests: a RatFunc from one or two
polynomials, and seeded random RatFuncs with rational coefficients."""

from fractions import Fraction as F

from mkdv_a22.exact import ONE, Poly, RatFunc


def rf(num, den=None):
    return RatFunc(num) if den is None else RatFunc(num, den)


def rand_ratfunc(rng, num_deg=2, den_deg=2):
    """num/den with num of degree at most num_deg (1 if it draws zero) and
    den monic of degree den_deg, coefficients p/q with |p| <= 9, 1 <= q <= 4."""
    num = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(num_deg + 1)])
    den = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(den_deg)] + [F(1)])
    return rf(num if not num.is_zero() else ONE, den)
