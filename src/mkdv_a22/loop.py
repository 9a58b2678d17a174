"""The lambda-realization of the sl(3) loop algebra and its twisted subalgebra.

Matrices are 3x3 with entries that are Laurent polynomials in lambda over
rational functions of x.  The cyclic generator is

    L1 = e21 + e32 + lambda*e13,      L1**(-1) = e12 + e23 + lambda**(-1)*e31,

and the principal grading of a monomial lambda**m * e_{k,l} is 3m + k - l
(rows and columns counted from 1).  Since L1**3 = lambda * 1, every power
L1**(3q + s) is lambda**q * L1**s with 0 <= s < 3, read off in closed form.

``conjugate(p, m, p_inv, degree=d)`` is graded only: it returns the principal
degree-d part of p * m * p_inv, for which the three factors are split into
homogeneous pieces and only the products P_a * M_c * Q_b with a + c + b = d
are formed.  Dressing factors have degrees <= 0, so for m = L1**r the pieces
meet degree zero only for small r, and the cost does not grow with r.

Dressing factors are the two unipotent exponentials

    exp(g*f0) = 1 + g*e33*L1**(-1)
    exp(g*f1) = 1 + 2g*(e11 + e22)*L1**(-1) + 2g**2*e11*L1**(-2)

coming from the embedding of the twisted algebra that sends f0 to the lowest
root vector and f1 to twice the sum of the two remaining lowering generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Tuple

from .exact import RF_ONE, RF_ZERO, RatFunc, ratfunc_to_json


@dataclass(frozen=True)
class CartanData:
    """Cartan matrix of the rank-two twisted type and the h_i diagonals."""

    a: Tuple[Tuple[int, int], Tuple[int, int]] = ((2, -1), (-4, 2))
    h0_diag: Tuple[int, int, int] = (1, 0, -1)
    h1_diag: Tuple[int, int, int] = (-2, 0, 2)

    def alpha_pairing(self, j: int, i: int) -> int:
        """<alpha_j, h_i> = a[i][j]."""
        return self.a[i][j]


CARTAN = CartanData()

Key = Tuple[int, int, int]  # (row, col, lambda exponent), rows/cols 0-based


class LaurentMat:
    """3x3 matrix of Laurent polynomials in lambda with RatFunc coefficients.

    Stored as a map (row, col, lambda_exp) -> coefficient with no zero values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Key, RatFunc] | Iterable[tuple] = ()):
        data: Dict[Key, RatFunc] = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, val in items:
            i, j, e = key
            if not (0 <= i <= 2 and 0 <= j <= 2):
                raise ValueError(f"bad matrix position {key}")
            val = RatFunc.lift(val)
            if val.is_zero():
                continue
            prev = data.get((i, j, e))
            val = val if prev is None else prev + val
            if val.is_zero():
                data.pop((i, j, e), None)
            else:
                data[(i, j, e)] = val
        object.__setattr__(self, "terms", data)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("LaurentMat is immutable")

    @staticmethod
    def zero() -> "LaurentMat":
        return LaurentMat()

    @staticmethod
    def identity() -> "LaurentMat":
        return LaurentMat({(i, i, 0): RF_ONE for i in range(3)})

    @staticmethod
    def unit(i: int, j: int, e: int = 0, coeff=RF_ONE) -> "LaurentMat":
        """coeff * lambda**e * e_{i+1, j+1}."""
        return LaurentMat({(i, j, e): RatFunc.lift(coeff)})

    def is_zero(self) -> bool:
        return not self.terms

    def entry(self, i: int, j: int, e: int) -> RatFunc:
        return self.terms.get((i, j, e), RF_ZERO)

    def __add__(self, other: "LaurentMat") -> "LaurentMat":
        out = dict(self.terms)
        for key, val in other.terms.items():
            s = out.get(key)
            s = val if s is None else s + val
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
        return LaurentMat(out)

    def __sub__(self, other: "LaurentMat") -> "LaurentMat":
        return self + (-other)

    def __neg__(self) -> "LaurentMat":
        return LaurentMat({k: -v for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, LaurentMat):
            out: Dict[Key, RatFunc] = {}
            cols: Dict[tuple, list] = {}
            for (k, j, e2), v2 in other.terms.items():
                cols.setdefault(k, []).append((j, e2, v2))
            for (i, k, e1), v1 in self.terms.items():
                for j, e2, v2 in cols.get(k, ()):
                    key = (i, j, e1 + e2)
                    prod = v1 * v2
                    s = out.get(key)
                    s = prod if s is None else s + prod
                    if s.is_zero():
                        out.pop(key, None)
                    else:
                        out[key] = s
            return LaurentMat(out)
        c = RatFunc.lift(other)
        return LaurentMat({k: v * c for k, v in self.terms.items()})

    __rmul__ = __mul__

    def d_dx(self) -> "LaurentMat":
        return LaurentMat({k: v.derivative() for k, v in self.terms.items()})

    def __eq__(self, other):
        if isinstance(other, LaurentMat):
            return self.terms == other.terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        parts = [f"({i+1},{j+1})@{e}: {v}" for (i, j, e), v in sorted(self.terms.items())]
        return "LaurentMat[" + "; ".join(parts) + "]"

    def to_json(self) -> list:
        return [
            {"row": i + 1, "col": j + 1, "lambda_exp": e, "ratfunc": ratfunc_to_json(v)}
            for (i, j, e), v in sorted(self.terms.items())
        ]


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


def centralizer_power(r: int) -> LaurentMat:
    """lambda_power(r) gated to the degrees r = 1, 5 mod 6 where the
    centralizer of the cyclic element is nonzero."""
    if r % 6 not in (1, 5):
        raise ValueError(f"no centralizer generator in degree {r}")
    return lambda_power(r)


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


def grade(i: int, j: int, e: int) -> int:
    """Principal degree of lambda**e * e_{i+1, j+1}:  3e + (i+1) - (j+1)."""
    return 3 * e + i - j


def grade_project(m: LaurentMat, d: int) -> LaurentMat:
    """Keep exactly the monomials of principal degree d."""
    return LaurentMat({k: v for k, v in m.terms.items() if grade(*k) == d})


def grade_support(m: LaurentMat) -> list:
    return sorted({grade(*k) for k in m.terms})


def _grade_pieces(m: LaurentMat) -> Dict[int, LaurentMat]:
    """m split into its nonzero homogeneous pieces, keyed by principal degree."""
    pieces: Dict[int, Dict[Key, RatFunc]] = {}
    for k, v in m.terms.items():
        pieces.setdefault(grade(*k), {})[k] = v
    return {d: LaurentMat(t) for d, t in pieces.items()}


def conjugate(p: LaurentMat, m: LaurentMat, p_inv: LaurentMat, degree: int) -> LaurentMat:
    """The principal degree-``degree`` part of p * m * p_inv, after checking
    that p_inv really inverts p.

    It is formed as the sum of P_a * M_c * Q_b over the grade pieces of p, m
    and p_inv with a + c + b = degree; no other part of the product is
    computed.
    """
    if p * p_inv != LaurentMat.identity():
        raise ValueError("p_inv is not the inverse of p")
    p_parts, m_parts, q_parts = _grade_pieces(p), _grade_pieces(m), _grade_pieces(p_inv)
    acc = LaurentMat.zero()
    for a, pa in p_parts.items():
        for c, mc in m_parts.items():
            qb = q_parts.get(degree - a - c)
            if qb is not None:
                acc = acc + pa * mc * qb
    return acc


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
    return LaurentMat({(i, i, 0): RatFunc.lift(diag[i]) for i in range(3)})


def lambda_recompose(parts) -> LaurentMat:
    """Inverse of lambda_decompose: sum of b_j * lambda_power(j)."""
    acc = LaurentMat.zero()
    for j, diag in parts:
        acc = acc + diag_matrix(diag) * lambda_power(j)
    return acc
