"""Evaluation of the twisted mKdV vector fields on generated families.

The oper attached to a generation run is the conjugate of d/dx + L1 by the
product of dressing factors P = E(g_m, j_m) ... E(g_1, j_1), so the value of
the r-th flow at that point is

    -(d/dx) of the degree-zero part of  P * L1**r * P**(-1),

a multiple of h0 = diag(1, 0, -1).  Fields and tangents are therefore passed
as their h0 coordinate, a plain ``RatFunc``.  Only the degree-zero pieces of
that conjugate are formed (``loop.conjugate`` with ``degree=0``), so the cost
does not grow with r.

Family tangents are the exact partial derivatives of the attached oper:
v = (2 ln y1 - ln y0)' depends only on the final pair, whose parameter
derivatives come from differentiating each Wronskian step of one generation
run.  Matching the flow value against the span of the tangents is then one
exact linear solve after clearing denominators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import RatFunc, poly_lcm, rat_to_str, ratfunc_to_json, solve_linear
from .generation import (
    GenerationTrace,
    check_basic,
    generate_multistep,
    parameter_derivatives,
)
from .loop import LaurentMat, centralizer_power, conjugate, exp_dressing


@dataclass(frozen=True)
class DecomposeResult:
    gamma: Tuple[Fraction, ...]
    residual_zero: bool
    # first (x-power, coefficient) of the cleared-denominator residual when
    # the system is inconsistent
    witness: Optional[Tuple[int, Fraction]] = None


@dataclass(frozen=True)
class FlowSample:
    J: Tuple[int, ...]
    c: Tuple[Fraction, ...]
    r: int
    field: RatFunc
    gamma: Tuple[Fraction, ...]
    residual_zero: bool

    def to_json(self) -> dict:
        return {
            "J": list(self.J),
            "c": [rat_to_str(ci) for ci in self.c],
            "r": self.r,
            "field": ratfunc_to_json(self.field),
            "gamma": [rat_to_str(g) for g in self.gamma],
            "residual_zero": self.residual_zero,
        }


def admissible_r(r: int) -> bool:
    return r > 0 and r % 6 in (1, 5)


def _check_r(r: int) -> int:
    if not admissible_r(r):
        raise ValueError(f"flow index must be positive and 1 or 5 mod 6, got {r}")
    return r


def dressing_product(trace: GenerationTrace) -> Tuple[LaurentMat, LaurentMat]:
    """P = E(g_m, j_m) ... E(g_1, j_1) and its inverse (reversed, negated)."""
    p = LaurentMat.identity()
    p_inv = LaurentMat.identity()
    # later steps conjugate earlier ones, so each new factor goes on the left
    for j, g in zip(trace.J, trace.gs):
        p = exp_dressing(g, j) * p
        p_inv = p_inv * exp_dressing(-g, j)
    return p, p_inv


def mkdv_field(trace: GenerationTrace, r: int) -> RatFunc:
    """h0 coordinate of the r-th flow at the oper attached to the trace.

    Only the degree-zero pieces of P * L1**r * P**(-1) are formed.  Principal
    degree zero means lambda**0 on the diagonal, so that part is diag(d1, d2,
    d3); twisted closure makes it d1 * h0, and the field is -d1'.  Above the
    vanishing threshold no pair of grade pieces meets degree zero, so the
    field is zero and its cost does not grow with r.
    """
    _check_r(r)
    p, p_inv = dressing_product(trace)
    part = conjugate(p, centralizer_power(r), p_inv, degree=0)
    d1, d2, d3 = (part.entry(i, i, 0) for i in range(3))
    if not (d1 + d2 + d3).is_zero() or not d2.is_zero():
        raise ArithmeticError(
            "twisted closure violated: degree-zero part is not a multiple of h0"
        )
    return -d1.derivative()


def family_tangents(trace: GenerationTrace) -> List[RatFunc]:
    """Exact partial derivatives of the attached oper in each parameter.

    ``parameter_derivatives`` differentiates the given generation run and
    gives the polynomial derivatives (dy0, dy1) of the final pair in each
    c_i, and since v = (2 ln y1 - ln y0)' the i-th tangent is

        (2 dy1/y1 - dy0/y0)'.

    Non-generic points (repeated or shared roots) need no special case.  The
    last coordinate has the closed form

        + a * y1(step m-1)**4 / y0(step m)**2     (last direction 0)
        - 2a * y0(step m-1) / y1(step m)**2       (last direction 1)

    with a the recorded Wronskian constant; it is asserted here as a guard
    on the derivative propagation.
    """
    y0, y1 = trace.final
    tangents = [
        (RatFunc(dy1 * 2, y1) - RatFunc(dy0, y0)).derivative()
        for dy0, dy1 in parameter_derivatives(trace)
    ]
    if trace.J:
        a = trace.consts[-1]
        prev, last = trace.pairs[-2], trace.pairs[-1]
        if trace.J[-1] == 0:
            expected = RatFunc(prev.y1 ** 4 * a, last.y0 ** 2)
        else:
            expected = RatFunc(prev.y0 * (-2 * a), last.y1 ** 2)
        if tangents[-1] != expected:
            raise AssertionError("last family tangent disagrees with its closed form")
    return tangents


def decompose_flow(field: RatFunc, tangents: Sequence[RatFunc]) -> DecomposeResult:
    """Exact scalars gamma with field = sum gamma_i * tangent_i, if they exist.

    Denominators are cleared to a single polynomial identity whose
    x-coefficients give a linear system for gamma over the rationals.  When
    the system is inconsistent the returned gamma is the best-effort solution
    of its consistent rows and the witness records the first failing
    x-coefficient of the residual.
    """
    if not tangents:
        raise ValueError("need at least one tangent")
    den = field.den
    for t in tangents:
        den = poly_lcm(den, t.den)
    target = field.num * den.divexact(field.den)
    cleared = [t.num * den.divexact(t.den) for t in tangents]
    ncoeffs = max([target.degree() + 1] + [p.degree() + 1 for p in cleared] + [1])
    rows = [[p.coeff(k) for p in cleared] for k in range(ncoeffs)]
    rhs = [target.coeff(k) for k in range(ncoeffs)]
    sol = solve_linear(rows, rhs)
    if sol is not None:
        gamma = tuple(Fraction(g) for g in sol)
        residual = field
        for g, t in zip(gamma, tangents):
            residual = residual - t * g
        if not residual.is_zero():
            raise AssertionError("consistent system left a nonzero residual")
        return DecomposeResult(gamma, True)
    # inconsistent: solve the consistent prefix for a best-effort gamma
    witness = None
    for keep in range(ncoeffs - 1, 0, -1):
        sol = solve_linear(rows[:keep], rhs[:keep])
        if sol is not None:
            gamma = tuple(Fraction(g) for g in sol)
            resid = target
            for g, p in zip(gamma, cleared):
                resid = resid - p * g
            k = next(i for i, cc in enumerate(resid.coeffs) if cc != 0)
            witness = (k, Fraction(resid.coeff(k)))
            return DecomposeResult(gamma, False, witness)
    return DecomposeResult(tuple(Fraction(0) for _ in tangents), False, witness)


def vanishing_threshold(j_seq: Sequence[int], r: int) -> bool:
    """True when the r-th flow is guaranteed to vanish on the whole family.

    The dressing factors reach at most one (direction 0) or two (direction 1)
    steps down in the principal grading, which bounds the top power of the
    cyclic generator whose conjugate can meet degree zero.
    """
    _check_r(r)
    js = check_basic(j_seq)
    m = len(js)
    if m % 2 == 0:
        return r > 3 * m
    if js[0] == 0:
        return r > 3 * m - 2
    return r > 3 * m + 1


def flow_sample(j_seq: Sequence[int], c: Sequence[Fraction], r: int) -> FlowSample:
    """Field, tangents, and decomposition for one (J, c, r) case."""
    js = check_basic(j_seq)
    _check_r(r)
    cs = tuple(Fraction(ci) for ci in c)
    trace = generate_multistep(js, cs)
    field = mkdv_field(trace, r)
    if field.is_zero():
        gamma = tuple(Fraction(0) for _ in js)
        return FlowSample(js, cs, r, field, gamma, True)
    tangents = family_tangents(trace)
    dec = decompose_flow(field, tangents)
    return FlowSample(js, cs, r, field, dec.gamma, dec.residual_zero)
