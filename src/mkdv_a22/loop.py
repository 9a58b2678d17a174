"""The lambda-realization of the sl(3) loop algebra and its twisted subalgebra.

Matrices are 3x3 with entries that are Laurent polynomials in lambda over
rational functions of x.  The cyclic generator is

    L1 = e21 + e32 + lambda*e13,      L1**(-1) = e12 + e23 + lambda**(-1)*e31,

and the principal grading of a monomial lambda**m * e_{k,l} is 3m + k - l
(rows and columns counted from 1).  Since L1**3 = lambda * 1, every power
L1**(3q + s) is lambda**q * L1**s with 0 <= s < 3, read off in closed form.

Dressing factors are the two unipotent exponentials

    exp(g*f0) = 1 + g*e33*L1**(-1)
    exp(g*f1) = 1 + 2g*(e11 + e22)*L1**(-1) + 2g**2*e11*L1**(-2)

coming from the embedding of the twisted algebra that sends f0 to the lowest
root vector and f1 to twice the sum of the two remaining lowering generators.

``conjugate(p, m, p_inv, degrees)`` keeps the part of p * m * p_inv in the
principal degrees of the range ``degrees``; degrees add under
multiplication, so it forms only the products that can land there.  No
dressing factor has a positive degree, and conjugating by exp(g*f_j) lowers
a degree by at most ``REACH[j]``, so the flow layer conjugates L1**r by one
factor at a time and keeps only the degrees the remaining factors can still
lower to zero; the cost does not grow with r.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .exact import RF_ONE, RF_ZERO, RatFunc


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix of the rank-two twisted type and the weights w with
    h_j = w[j] * h0, where h0 = diag(1, 0, -1) and h1 = diag(-2, 0, 2)."""

    a: Tuple[Tuple[int, int], Tuple[int, int]] = ((2, -1), (-4, 2))
    w: Tuple[int, int] = (1, -2)

    def alpha_pairing(self, j: int, i: int) -> int:
        """<alpha_j, h_i> = a[i][j]."""
        return self.a[i][j]


CARTAN = CartanData()

Key = Tuple[int, int, int]  # (row, col, lambda exponent), rows/cols 0-based


class LaurentMat:
    """3x3 matrix of Laurent polynomials in lambda with RatFunc coefficients.

    Stored as a map (row, col, lambda_exp) -> coefficient with no zero values;
    the constructor lifts every value to a ``RatFunc`` and drops the zeros.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, RatFunc]):
        data: Dict[Key, RatFunc] = {}
        for key, val in terms.items():
            i, j, _ = key
            if not (0 <= i <= 2 and 0 <= j <= 2):
                raise ValueError(f"bad matrix position {key}")
            val = RatFunc.lift(val)
            if not val.is_zero():
                data[key] = val
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentMat is immutable")

    @staticmethod
    def zero() -> "LaurentMat":
        return LaurentMat({})

    @staticmethod
    def identity() -> "LaurentMat":
        return LaurentMat({(i, i, 0): RF_ONE for i in range(3)})

    @staticmethod
    def unit(i: int, j: int, e: int = 0, coeff=RF_ONE) -> "LaurentMat":
        """coeff * lambda**e * e_{i+1, j+1}."""
        return LaurentMat({(i, j, e): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def entry(self, i: int, j: int, e: int) -> RatFunc:
        return self.terms.get((i, j, e), RF_ZERO)

    def __add__(self, other: "LaurentMat") -> "LaurentMat":
        out = dict(self.terms)
        for key, val in other.terms.items():
            s = out.get(key)
            out[key] = val if s is None else s + val
        return LaurentMat(out)

    def __sub__(self, other: "LaurentMat") -> "LaurentMat":
        return self + (-other)

    def __neg__(self) -> "LaurentMat":
        return LaurentMat({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentMat):
            return _product(self, other, None)
        c = RatFunc.lift(other)
        return LaurentMat({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def d_dx(self) -> "LaurentMat":
        return LaurentMat({k: v.derivative() for k, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, LaurentMat):
            return self.terms == other.terms
        return NotImplemented

    def __repr__(self):
        parts = [f"({i+1},{j+1})@{e}: {v}" for (i, j, e), v in sorted(self.terms.items())]
        return "LaurentMat[" + "; ".join(parts) + "]"


def _product(a: LaurentMat, b: LaurentMat, keep) -> LaurentMat:
    """a * b, forming only the products whose principal degree passes
    ``keep`` (every product when ``keep`` is None).  Degrees add under
    multiplication and every product summed into one entry has that entry's
    degree, so each kept entry is complete."""
    out: Dict[Key, RatFunc] = {}
    cols: Dict[int, list] = {}
    for (k, j, e2), v2 in b.terms.items():
        cols.setdefault(k, []).append((j, e2, v2))
    for (i, k, e1), v1 in a.terms.items():
        for j, e2, v2 in cols.get(k, ()):
            e = e1 + e2
            if keep is not None and not keep(3 * e + i - j):
                continue
            key = (i, j, e)
            prod = v1 * v2
            s = out.get(key)
            out[key] = prod if s is None else s + prod
    return LaurentMat(out)


_LAMBDA = LaurentMat({(1, 0, 0): RF_ONE, (2, 1, 0): RF_ONE, (0, 2, 1): RF_ONE})
# L1**0, L1**1, L1**2; every other power is lambda**q times one of these
_LAMBDA_POWERS = (LaurentMat.identity(), _LAMBDA, _LAMBDA * _LAMBDA)


def lambda_power(r: int) -> LaurentMat:
    """The r-th power of the cyclic generator, any integer r.

    Since L1**3 = lambda * 1, writing r = 3q + s with 0 <= s < 3 gives
    L1**r = lambda**q * L1**s: the entries of L1**s with their lambda
    exponents shifted by q.
    """
    q, s = divmod(r, 3)
    return LaurentMat({(i, j, e + q): v for (i, j, e), v in _LAMBDA_POWERS[s].terms.items()})


def exp_dressing(g, j: int) -> LaurentMat:
    """Unipotent dressing factor exp(g * f_j) as an explicit matrix."""
    g = RatFunc.lift(g)
    ident = LaurentMat.identity()
    if j == 0:
        return ident + LaurentMat({(2, 0, -1): g})
    if j == 1:
        two_g = g + g
        return ident + LaurentMat(
            {(0, 1, 0): two_g, (1, 2, 0): two_g, (0, 2, 0): two_g * g}
        )
    raise ValueError("direction must be 0 or 1")


# How far conjugation by exp(g * f_j) can lower a principal degree: the
# factor and its inverse each have degrees 0 and -1 (j = 0) or 0, -1, -2
# (j = 1), and neither has a positive degree.
REACH = {0: 2, 1: 4}


def grade(i: int, j: int, e: int) -> int:
    """Principal degree of lambda**e * e_{i+1, j+1}:  3e + (i+1) - (j+1)."""
    return 3 * e + i - j


def grade_project(m: LaurentMat, d: int) -> LaurentMat:
    """Keep exactly the monomials of principal degree d."""
    return LaurentMat({k: v for k, v in m.terms.items() if grade(*k) == d})


def grade_support(m: LaurentMat) -> list:
    return sorted({grade(*k) for k in m.terms})


def conjugate(p: LaurentMat, m: LaurentMat, p_inv: LaurentMat, degrees: range) -> LaurentMat:
    """The part of p * m * p_inv in the principal degrees ``degrees``, after
    checking that p_inv really inverts p.

    Only the products that can land in ``degrees`` are formed: a term of
    p * m below min(degrees) minus the top degree of p_inv cannot reach
    them, and of (p * m) * p_inv only the products of a kept degree are
    summed.
    """
    if p * p_inv != LaurentMat.identity():
        raise ArithmeticError("p_inv is not the inverse of p")
    if not degrees:
        return LaurentMat.zero()
    low = min(degrees) - max(grade(*k) for k in p_inv.terms)
    return _product(_product(p, m, lambda d: d >= low), p_inv, degrees.__contains__)


def lambda_decompose(m: LaurentMat) -> list:
    """Unique decomposition m = sum_j b_j * lambda_power(j) with diagonal b_j.

    Each monomial lambda**e * e_{k,l} belongs to exactly one power
    j = 3e + k - l, contributing its coefficient to row k of b_j, so no
    linear algebra is needed.  Returns [(j, (d1, d2, d3)), ...] sorted by j.
    """
    rows: Dict[int, list] = {}
    for (i, jcol, e), v in m.terms.items():
        d = grade(i, jcol, e)
        diag = rows.setdefault(d, [RF_ZERO, RF_ZERO, RF_ZERO])
        diag[i] = diag[i] + v
    return [(d, tuple(diag)) for d, diag in sorted(rows.items())]


def diag_matrix(diag) -> LaurentMat:
    return LaurentMat({(i, i, 0): diag[i] for i in range(3)})


def lambda_recompose(parts) -> LaurentMat:
    """Inverse of lambda_decompose: sum of b_j * lambda_power(j)."""
    acc = LaurentMat.zero()
    for j, diag in parts:
        acc = acc + diag_matrix(diag) * lambda_power(j)
    return acc
