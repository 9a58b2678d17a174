"""Formal pseudodifferential calculus for d^3 + u1*d + u0.

Operators are finite sums a_i d^i with rational-function coefficients and a
truncation marker ``floor``: coefficients at orders >= floor are exact, the
tail below is unknown.  ``floor = None`` means the operator is exact at all
orders (every pure differential operator is).  Products track the worst case

    floor(a*b) = max(floor(a) + top(b), floor(b) + top(a))

so exactness claims never silently degrade.  Every coefficient of a
composition comes from one Leibniz kernel, ``_product_coeff``, by the
generalized Leibniz rule d^k u = sum_s C(k, s) u^(s) d^(k-s), valid for
negative k with the usual falling-factorial binomials.

The cube root R = L^(1/3) of L = d^3 + u1*d + u0 is the unique
d + sum_{i<=0} a_i d^i whose cube reproduces L.  It is solved one
coefficient at a time: a_{-k} enters [R^2]_{1-k} as 2 a_{-k} and [R^3]_{2-k}
as 3 a_{-k}, so each step forms just those two coefficients of R^2 and
R^3 = R*R^2, with every coefficient's derivatives cached across steps.

Fractional powers use r = 3q + s (s = 1, 2): (L^(r/3))+ = (L^q R^s)+, where
L^q is an exact differential operator of order 3q and R^s is R or the R^2
kept by the same solve, so R is needed to depth r only.  ``frac_power_plus``
checks that result, not assumes it: R is solved two orders deeper, (R^s L^q)+
is taken from the full deeper root, and the two nonnegative parts must agree.

The KdV flow needs no (L^(r/3))+.  With X = L^(r/3), [L, X] = 0 turns
[L, X+] into [X-, L], and only x1 = [X]_{-1} and x2 = [X]_{-2} reach its
orders >= 0 (Gelfand & Dickey, Funct. Anal. Appl. 10, 1976):

    u1_dot = -3 x1',    u0_dot = -3 (x1'' + x2').

``kdv_field`` solves R to depth r + 2 and forms just these two coefficients
of R^s L^q.  The tracked floor of that product must be at most -2, so both
residues are exact; a shallower root is an internal error.

This module is the bottom of the operator stack: it imports only ``exact``,
and ``miura`` builds its scalar maps and the mKdV-to-KdV diagram on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Tuple

from .exact import RF_ZERO, RatFunc, ratfunc_to_json


@dataclass(frozen=True)
class DiffOp3:
    """d^3 + u1*d + u0."""

    u1: RatFunc
    u0: RatFunc

    def to_json(self) -> dict:
        return {"u1": ratfunc_to_json(self.u1), "u0": ratfunc_to_json(self.u0)}


class OpTangent(NamedTuple):
    """Tangent to the space of operators d^3 + u1*d + u0."""

    u1: RatFunc
    u0: RatFunc


@lru_cache(maxsize=None)
def _binom(k: int, s: int) -> Fraction:
    """Falling-factorial binomial k(k-1)...(k-s+1)/s!, any integer k."""
    num = 1
    for t in range(s):
        num *= k - t
    den = 1
    for t in range(2, s + 1):
        den *= t
    return Fraction(num, den)


@dataclass(frozen=True)
class PsDO:
    """sum over orders i of terms[i] * d^i, exact at orders >= floor; the
    constructor drops zero terms and terms below the floor."""

    terms: Dict[int, RatFunc]
    floor: Optional[int] = None

    def __post_init__(self):
        cleaned = {
            i: c
            for i, c in self.terms.items()
            if not c.is_zero() and (self.floor is None or i >= self.floor)
        }
        object.__setattr__(self, "terms", cleaned)

    @staticmethod
    def zero() -> "PsDO":
        return PsDO({})

    @staticmethod
    def one() -> "PsDO":
        return PsDO({0: RatFunc.one()})

    @staticmethod
    def d(order: int = 1) -> "PsDO":
        return PsDO({order: RatFunc.one()})

    def coeff(self, i: int) -> RatFunc:
        return self.terms.get(i, RF_ZERO)

    def top(self) -> Optional[int]:
        return max(self.terms) if self.terms else None

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, floor: int) -> "PsDO":
        new_floor = floor if self.floor is None else max(floor, self.floor)
        return PsDO(self.terms, new_floor)

    def plus_part(self) -> "PsDO":
        """Orders >= 0, exact and floor-free; an ``ArithmeticError`` (an
        internal error, exit 3 in the CLI) if the floor is above 0."""
        if self.floor is not None and self.floor > 0:
            raise ArithmeticError("insufficient depth for an exact nonnegative part")
        return PsDO({i: c for i, c in self.terms.items() if i >= 0})

    def __add__(self, other: "PsDO") -> "PsDO":
        terms = dict(self.terms)
        for i, c in other.terms.items():
            s = terms.get(i)
            terms[i] = c if s is None else s + c
        return PsDO(terms, _floor_max(self.floor, other.floor))

    def __sub__(self, other: "PsDO") -> "PsDO":
        return self + (-other)

    def __neg__(self) -> "PsDO":
        return PsDO({i: -c for i, c in self.terms.items()}, self.floor)

    def __mul__(self, other: "PsDO") -> "PsDO":
        return psdo_mul(self, other)

    def __repr__(self):
        body = " + ".join(f"({c})d^{i}" for i, c in sorted(self.terms.items(), reverse=True))
        tail = "" if self.floor is None else f"  [exact above {self.floor}]"
        return (body or "0") + tail

    def to_json(self) -> dict:
        return {
            "floor": self.floor,
            "terms": [
                {"order": i, **ratfunc_to_json(c)} for i, c in sorted(self.terms.items())
            ],
        }


def _floor_max(a: Optional[int], b: Optional[int]) -> Optional[int]:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _mul_floor(a: PsDO, b: PsDO) -> Optional[int]:
    """Lowest surely-exact order of a product, from the unknown tails."""
    cands = []
    if a.floor is not None:
        top_b = b.top()
        cands.append(a.floor + (top_b if top_b is not None else (b.floor or 0) - 1))
    if b.floor is not None:
        top_a = a.top()
        cands.append(b.floor + (top_a if top_a is not None else (a.floor or 0) - 1))
    return max(cands) if cands else None


def psdo_mul(a: PsDO, b: PsDO) -> PsDO:
    """Composition; exact at all orders above the tracked floor."""
    floor = _mul_floor(a, b)
    if a.is_zero() or b.is_zero():
        return PsDO({}, floor)
    low = floor
    if low is None:
        # d^i b_j reaches down to order j for i >= 0, and to i + j - deg b_j
        # for i < 0, which is finite for a polynomial b_j only
        i = min(a.terms)
        if i >= 0:
            low = min(b.terms)
        elif all(bj.is_polynomial() for bj in b.terms.values()):
            low = min(i + j - bj.num.degree() for j, bj in b.terms.items())
        else:
            raise ValueError(
                "product of untruncated operators has an infinite expansion; "
                "truncate one factor first"
            )
    ca, cb = _derivative_lists(a), _derivative_lists(b)
    return PsDO({n: _product_coeff(ca, cb, n) for n in range(low, a.top() + b.top() + 1)}, floor)


def from_diffop3(op: DiffOp3) -> PsDO:
    return PsDO({3: RatFunc.one(), 1: op.u1, 0: op.u0})


def cube_root(op: DiffOp3, depth: int) -> PsDO:
    """d + a_0 + a_{-1} d^{-1} + ... with (result)**3 = op at all retained
    orders; depth counts the coefficients a_0 .. a_{-(depth-1)}."""
    return _root_and_square(op, depth)[0]


def _root_and_square(op: DiffOp3, depth: int) -> Tuple[PsDO, PsDO]:
    """R = L^(1/3) to ``depth`` coefficients, and R^2 as far as they fix it.

    Step k solves for a_{-k}.  Written with the known part of each product,
    [R^2]_{1-k} = 2 a_{-k} + ... and [R^3]_{2-k} = [R.R^2]_{2-k} = 3 a_{-k} + ...,
    so each step forms just those two coefficients.  Every coefficient keeps
    the list of its derivatives, grown on demand and reused by later steps.
    """
    if depth < 1:
        raise ValueError("depth must be at least 1")
    target = from_diffop3(op)
    root: Dict[int, List[RatFunc]] = {1: [RatFunc.one()]}
    square: Dict[int, List[RatFunc]] = {2: [RatFunc.one()]}
    for k in range(depth):
        sq = _product_coeff(root, root, 1 - k)
        cube = _product_coeff(root, square, 2 - k) + sq  # a_1 = 1 times [R^2]_{1-k}
        a = (target.coeff(2 - k) - cube) * Fraction(1, 3)
        root[-k] = [a]
        square[1 - k] = [sq + a * 2]
    return (
        PsDO({i: c[0] for i, c in root.items()}, -(depth - 1)),
        PsDO({j: c[0] for j, c in square.items()}, -(depth - 2)),
    )


def _derivative_lists(p: PsDO) -> Dict[int, List[RatFunc]]:
    """The coefficients of p as the derivative lists ``_product_coeff`` grows."""
    return {i: [c] for i, c in p.terms.items()}


def _product_coeff(a: Dict[int, List[RatFunc]], b: Dict[int, List[RatFunc]], n: int) -> RatFunc:
    """Order-n coefficient of (sum a_i d^i)(sum b_j d^j), by the Leibniz rule;
    each value lists a coefficient followed by its cached derivatives."""
    total = RF_ZERO
    for i, ai in a.items():
        for j, bj in b.items():
            s = i + j - n
            if s < 0 or 0 <= i < s:
                continue
            while len(bj) <= s:
                bj.append(bj[-1].derivative())
            if not bj[s].is_zero():
                total = total + ai[0] * (bj[s] * _binom(i, s))
    return total


def _power_parts(op: DiffOp3, r: int) -> Tuple[int, int, PsDO]:
    """r = 3q + s as (q, s, L^q), for a positive r not divisible by 3."""
    if r <= 0:
        raise ValueError("power must be positive")
    if r % 3 == 0:
        raise ValueError("powers divisible by 3 are plain polynomials in the operator")
    q, s = divmod(r, 3)
    lop = from_diffop3(op)
    lq = PsDO.one()
    for _ in range(q):
        lq = lq * lop
    return q, s, lq


def frac_power_plus(op: DiffOp3, r: int) -> PsDO:
    """Differential-operator part of the r/3 power, exact at every order.

    With r = 3q + s, (L^(r/3))+ = (L^q R^s)+ for R = L^(1/3).  L^q is an
    exact differential operator of order 3q, so R^s is needed down to order
    -3q only: R to depth r.  The check solves R two orders deeper and takes
    the other product, (R^s L^q)+ (the factors commute), from the full
    deeper root; the two nonnegative parts must agree.
    """
    q, s, lq = _power_parts(op, r)
    rs = _root_and_square(op, r + 2)[s - 1]
    plus = (lq * rs.truncate(-3 * q)).plus_part()
    if (rs * lq).plus_part() != plus:
        raise ArithmeticError(
            "truncation instability: (L^q R^s)+ at depth r and (R^s L^q)+ "
            "two orders deeper differ"
        )
    return plus


def kdv_field(op: DiffOp3, r: int) -> OpTangent:
    """Coefficients (u1_dot, u0_dot) of [L, (L^(r/3))+], from two residues.

    [L, X+] = [X-, L] for X = L^(r/3) = R^s L^q, and its orders 1 and 0 are
    -3 x1' and -3 (x1'' + x2') with x1, x2 the coefficients of X at orders
    -1 and -2.  A root to depth r + 2 fixes R^s L^q down to order -2; the
    tracked floor of the product is checked, and anything above -2 is an
    ``ArithmeticError`` (an internal error, exit 3 in the CLI).
    """
    _, s, lq = _power_parts(op, r)
    rs = _root_and_square(op, r + 2)[s - 1]
    floor = _mul_floor(rs, lq)
    if floor is not None and floor > -2:
        raise ArithmeticError(f"R^s L^q is exact only down to order {floor}, residues need -2")
    a, b = _derivative_lists(rs), _derivative_lists(lq)  # shared by both residues
    x1 = _product_coeff(a, b, -1)
    x2 = _product_coeff(a, b, -2)
    dx1 = x1.derivative()
    return OpTangent(dx1 * -3, (dx1.derivative() + x2.derivative()) * -3)
