"""Evaluation of the twisted mKdV vector fields on generated families.

The oper attached to a generation run is the conjugate of d/dx + L1 by the
product of dressing factors P = E(g_m, j_m) ... E(g_1, j_1), so the value of
the r-th flow at that point is

    -(d/dx) of the degree-zero part of  P * L1**r * P**(-1),

a multiple of h0 = diag(1, 0, -1).  Fields and tangents are therefore passed
as their h0 coordinate, a plain ``RatFunc``.  The conjugate is built as
E_m(...(E_1 * L1**r * E_1**(-1))...)E_m**(-1), one factor at a time, and
after each factor only the degrees that the remaining factors can still
lower to zero are kept (``loop.REACH``), so neither P nor P**(-1) is formed
and the cost does not grow with r.

Family tangents are the exact partial derivatives of the attached oper:
v = (2 ln y1 - ln y0)' depends only on the final pair, whose parameter
derivatives come from differentiating each Wronskian step of one generation
run.  Matching the flow value against the span of the tangents is then one
pass of exact elimination after clearing denominators: its rows are
eliminated in order until the rank reaches the number of tangents, where one
polynomial identity checks the unique solution against all of them, or until
the first inconsistent row.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .exact import RatFunc, _eliminate, poly_lcm, rat_to_str, ratfunc_to_json
from .generation import (
    GenerationTrace,
    check_basic,
    generate_multistep,
    parameter_derivatives,
    wronskian_rhs,
)
from .loop import CARTAN, REACH, LaurentMat, conjugate, exp_dressing, lambda_power


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


def check_r(r: int) -> None:
    """Reject a flow index that is not positive and 1 or 5 mod 6."""
    if r <= 0 or r % 6 not in (1, 5):
        raise ValueError(f"flow index must be positive and 1 or 5 mod 6, got {r}")


def dressing_product(trace: GenerationTrace) -> Tuple[LaurentMat, LaurentMat]:
    """P = E(g_m, j_m) ... E(g_1, j_1) and its inverse (reversed, negated).

    The flow path never forms P; this is the whole-product reference.
    """
    p = LaurentMat.identity()
    p_inv = LaurentMat.identity()
    # later steps conjugate earlier ones, so each new factor goes on the left
    for j, g in zip(trace.J, trace.gs):
        p = exp_dressing(g, j) * p
        p_inv = p_inv * exp_dressing(-g, j)
    return p, p_inv


def mkdv_field(trace: GenerationTrace, r: int) -> RatFunc:
    """h0 coordinate of the r-th flow at the oper attached to the trace.

    P * L1**r * P**(-1) is built by conjugating with E(g_1, j_1) first and
    E(g_m, j_m) last.  No factor raises a degree and E(g, j) lowers one by
    at most ``REACH[j]``, so after each factor only the degrees from 0 to
    the reach of the remaining factors are kept; each factor is checked
    against its inverse E(-g, j).  Principal degree zero means lambda**0 on
    the diagonal, so the result is diag(d1, d2, d3); twisted closure makes
    it d1 * h0, and the field is -d1'.  Above the vanishing threshold the
    first conjugation keeps nothing, so the field is zero and its cost does
    not grow with r.
    """
    check_r(r)
    reach = sum(REACH[j] for j in trace.J)
    part = lambda_power(r)
    for j, g in zip(trace.J, trace.gs):
        reach -= REACH[j]
        part = conjugate(exp_dressing(g, j), part, exp_dressing(-g, j), range(reach + 1))
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

        a * w[j] * rhs(step m-1) / y_j(step m)**2

    with j the last direction, a the recorded Wronskian constant, rhs the
    Wronskian right-hand side (y1**4 for j = 0, y0 for j = 1) and w the h0
    weights of ``CARTAN``; it is asserted here as a guard on the derivative
    propagation.
    """
    y0, y1 = trace.final
    tangents = [
        (RatFunc(dy1 * 2, y1) - RatFunc(dy0, y0)).derivative()
        for dy0, dy1 in parameter_derivatives(trace)
    ]
    if trace.J:
        j, a = trace.J[-1], trace.consts[-1]
        prev, last = trace.pairs[-2], trace.pairs[-1]
        expected = RatFunc(wronskian_rhs(prev, j) * (a * CARTAN.w[j]), last.component(j) ** 2)
        if tangents[-1] != expected:
            raise AssertionError("last family tangent disagrees with its closed form")
    return tangents


def decompose_flow(field: RatFunc, tangents: Sequence[RatFunc]) -> DecomposeResult:
    """Exact scalars gamma with field = sum gamma_i * tangent_i, if they exist.

    Denominators are cleared to a single polynomial identity whose
    x-coefficients give a linear system for gamma over the rationals.  Its
    rows are eliminated in order, once.  When the rank reaches
    m = len(tangents), gamma is unique and one polynomial check of the whole
    identity confirms it; if the check fails, gamma already solves the
    longest consistent prefix of the rows, and the witness records the first
    nonzero x-coefficient of the residual.  Elimination also stops at the
    first inconsistent row below rank m, with the same witness, or with zero
    gamma and no witness when that is row 0.
    """
    if not tangents:
        raise ValueError("need at least one tangent")
    den = field.den
    for t in tangents:
        den = poly_lcm(den, t.den)
    target = field.num * den.divexact(field.den)
    cleared = [t.num * den.divexact(t.den) for t in tangents]
    ncoeffs = max([target.degree() + 1] + [p.degree() + 1 for p in cleared] + [1])
    m = len(cleared)
    rows = ([p.coeff(k) for p in cleared] + [target.coeff(k)] for k in range(ncoeffs))
    gamma = (Fraction(0),) * m
    for k, step in enumerate(_eliminate(rows, m)):
        if step is None:
            if k == 0:
                return DecomposeResult(gamma, False)
            break
        rank, gamma = step
        if rank == m:
            break
    resid = target
    for g, p in zip(gamma, cleared):
        resid = resid - p * g
    if resid.is_zero():
        return DecomposeResult(gamma, True)
    if step is not None and rank < m:  # every row was consistent
        raise AssertionError("consistent system left a nonzero residual")
    k = next(i for i, n in enumerate(resid.ints) if n)
    return DecomposeResult(gamma, False, (k, resid.coeff(k)))


def vanishing_threshold(j_seq: Sequence[int], r: int) -> bool:
    """True when the r-th flow is guaranteed to vanish on the whole family.

    Conjugating by the dressing factors lowers the degree r of L1**r by at
    most the sum of their ``REACH``, so above that sum nothing meets degree
    zero.
    """
    check_r(r)
    return r > sum(REACH[j] for j in check_basic(j_seq))


def flow_sample(j_seq: Sequence[int], c: Sequence[Fraction], r: int) -> FlowSample:
    """Field, tangents, and decomposition for one (J, c, r) case."""
    js = check_basic(j_seq)
    check_r(r)
    cs = tuple(Fraction(ci) for ci in c)
    trace = generate_multistep(js, cs)
    field = mkdv_field(trace, r)
    if field.is_zero():
        gamma = tuple(Fraction(0) for _ in js)
        return FlowSample(js, cs, r, field, gamma, True)
    tangents = family_tangents(trace)
    dec = decompose_flow(field, tangents)
    return FlowSample(js, cs, r, field, dec.gamma, dec.residual_zero)
