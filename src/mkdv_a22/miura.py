"""Miura opers attached to polynomial pairs and their scalar reductions.

A twisted-type Miura oper is d/dx + L1 + v*h0 and is stored as the single
rational function v; for the pair (y0, y1) the attached oper has

    v = (ln y1**2 / y0)' = 2*(ln y1)' - (ln y0)'.

Embedded diagonally into the untwisted rank-two space, v becomes the
sum-zero triple (v, 0, -v), and the three ordered factorizations

    L_0 = (d - v3)(d - v2)(d - v1)
    L_1 = (d - v1)(d - v3)(d - v2)
    L_2 = (d - v2)(d - v1)(d - v3)

produce third-order operators d^3 + u1*d + u0 (the d^2 coefficient cancels
because the triple sums to zero).  Their derivative maps restricted to
tangents X*h0 collapse to the closed forms

    dm0 : X -> -(2X' + 2vX) d - (X'' + vX' + v'X)
    dm1 : X -> (X' - 2vX) d

which are also available for arbitrary sum-zero tangents via the product
rule over the ordered factors.  The maps are products of first-order
``PsDO`` factors d - v_k; their derivatives take orders 1 and 0 of the
product rule in closed form.

The mKdV-to-KdV diagram closes here: the mKdV flow value X*h0 pushed
through the derivative of a scalar map must equal the KdV flow
[L, (L^(r/3))+] at the image operator L.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from . import psdo
from .exact import RF_ONE, RF_ZERO, RatFunc, log_derivative, ratfunc_to_json
from .flows import mkdv_field
from .generation import GenerationTrace, PolyPair
from .loop import CARTAN
from .psdo import DiffOp3, OpTangent, PsDO

# coefficient of h0 in h_j (the two Cartan diagonals satisfy 2*h0 + h1 = 0)
_H0_COEFF = {0: 1, 1: -2}


@dataclass(frozen=True)
class MiuraOper:
    """d/dx + L1 + v*h0, determined by the rational function v."""

    v: RatFunc

    def to_json(self) -> dict:
        return {"v": ratfunc_to_json(self.v)}


@dataclass(frozen=True)
class MiuraOperA1:
    """Untwisted diagonal oper with sum-zero potential (v1, v2, v3)."""

    v1: RatFunc
    v2: RatFunc
    v3: RatFunc

    def __post_init__(self):
        if not (self.v1 + self.v2 + self.v3).is_zero():
            raise ValueError("diagonal potential must sum to zero")

    @property
    def vs(self) -> Tuple[RatFunc, RatFunc, RatFunc]:
        return (self.v1, self.v2, self.v3)


def miura_from_pair(pair: PolyPair) -> MiuraOper:
    v = log_derivative(pair.y1) * 2 - log_derivative(pair.y0)
    return MiuraOper(v)


def miura_from_trace(trace: GenerationTrace) -> MiuraOper:
    """d/dx + L1 - sum_l g_l * h_{j_l}, collapsed to the h0 coordinate."""
    v = RF_ZERO
    for j, g in zip(trace.J, trace.gs):
        v = v - g * _H0_COEFF[j]
    return MiuraOper(v)


def alpha_pairing(j: int, oper: MiuraOper) -> RatFunc:
    """<alpha_j, v*h0> = v * <alpha_j, h0>."""
    return oper.v * CARTAN.alpha_pairing(j, 0)


def ricatti_check(oper: MiuraOper, g: RatFunc, j: int) -> bool:
    """Exact test of g' - <alpha_j, V> g + g**2 = 0."""
    g = RatFunc.lift(g)
    return (g.derivative() - alpha_pairing(j, oper) * g + g * g).is_zero()


def gauge_step(oper: MiuraOper, g: RatFunc, j: int) -> MiuraOper:
    """Unipotent gauge move v -> v - g * (h_j in h0 units).

    Only Riccati solutions keep the result in Miura form, so anything else
    is rejected.
    """
    g = RatFunc.lift(g)
    if not ricatti_check(oper, g, j):
        raise ValueError("gauge parameter does not satisfy the Riccati equation")
    return MiuraOper(oper.v - g * _H0_COEFF[j])


def embed_a1(oper: MiuraOper) -> MiuraOperA1:
    """v*h0 as the diagonal (v, 0, -v)."""
    return MiuraOperA1(oper.v, RF_ZERO, -oper.v)


# ordered factor positions (0-based indices into (v1, v2, v3)) per scalar map
_FACTOR_ORDER = {0: (2, 1, 0), 1: (0, 2, 1), 2: (1, 0, 2)}


def _factors(oper: MiuraOperA1, i: int) -> List[PsDO]:
    """The ordered first-order factors d - v_k of the i-th scalar map."""
    if i not in _FACTOR_ORDER:
        raise ValueError("scalar map index must be 0, 1, or 2")
    return [PsDO({1: RF_ONE, 0: -oper.vs[k]}) for k in _FACTOR_ORDER[i]]


def miura_map(i: int, oper: MiuraOperA1) -> DiffOp3:
    """Expand the i-th ordered factorization into d^3 + u1*d + u0."""
    a, b, c = _factors(oper, i)
    op = a * b * c
    if op.top() != 3 or op.coeff(3) != RF_ONE or not op.coeff(2).is_zero():
        raise ValueError("factorization did not produce d^3 + u1*d + u0")
    return DiffOp3(op.coeff(1), op.coeff(0))


def d_miura_map(i: int, oper: MiuraOper, x_comp: RatFunc) -> OpTangent:
    """Derivative of the i-th scalar map along the tangent X*h0, i in {0, 1}."""
    x = RatFunc.lift(x_comp)
    v = oper.v
    if i == 0:
        u1 = -(x.derivative() * 2 + v * x * 2)
        u0 = -(x.derivative().derivative() + v * x.derivative() + v.derivative() * x)
        return OpTangent(u1, u0)
    if i == 1:
        return OpTangent(x.derivative() - v * x * 2, RF_ZERO)
    raise ValueError("closed forms exist for maps 0 and 1 only")


def d_miura_map_a1(
    i: int, oper: MiuraOperA1, tangent: Sequence[RatFunc]
) -> OpTangent:
    """Derivative of the i-th scalar map along any sum-zero diagonal tangent,
    by the product rule over the three ordered factors d - p, d - q, d - s.

    Each term replaces one factor by the multiplication -x with x the
    matching tangent component; its d^2 coefficient is -x, so on a sum-zero
    tangent the three cancel and only orders 1 and 0 are formed:

        -x (d - q)(d - s)      x(q + s) d - x(qs - s')
        (d - p) (-x) (d - s)   (xs + px - x') d + (xs)' - pxs
        (d - p)(d - q) (-x)    ((p + q)x - 2x') d + (p + q)x' - x'' - (pq - q')x

    A zero component contributes nothing and is skipped.
    """
    if i not in _FACTOR_ORDER:
        raise ValueError("scalar map index must be 0, 1, or 2")
    xs = [RatFunc.lift(t) for t in tangent]
    if len(xs) != 3 or not (xs[0] + xs[1] + xs[2]).is_zero():
        raise ValueError("tangent must be a sum-zero triple")
    order = _FACTOR_ORDER[i]
    p, q, s = (oper.vs[k] for k in order)
    x1, x2, x3 = (xs[k] for k in order)
    u1 = u0 = RF_ZERO
    if not x1.is_zero():
        u1 = u1 + x1 * (q + s)
        u0 = u0 - x1 * (q * s - s.derivative())
    if not x2.is_zero():
        x2s = x2 * s
        u1 = u1 + x2s + p * x2 - x2.derivative()
        u0 = u0 + x2s.derivative() - p * x2s
    if not x3.is_zero():
        pq, d3 = p + q, x3.derivative()
        u1 = u1 + pq * x3 - d3 * 2
        u0 = u0 + pq * d3 - d3.derivative() - (p * q - q.derivative()) * x3
    return OpTangent(u1, u0)


# --- the mKdV-to-KdV diagram --------------------------------------------------


def consistency_check(trace: GenerationTrace, r: int, i: int) -> bool:
    """One point of the diagram: pushing the mKdV flow value through the
    derivative of the i-th scalar map must equal the KdV flow value at the
    image operator.  Exact equality of both coefficient pairs."""
    _, pushed, kdv = diagram_sides(trace, r, (i,))[i]
    return pushed == kdv


def diagram_sides(
    trace: GenerationTrace, r: int, maps: Sequence[int]
) -> Dict[int, Tuple[DiffOp3, OpTangent, OpTangent]]:
    """For each scalar map i in ``maps``: the image operator and both sides of
    the diagram.  The oper, its embedding and the mKdV field are built once
    and shared by every map.  The oper is read off the final pair: the sum of
    the gauge increments telescopes to (2 ln y1 - ln y0)'."""
    emb = embed_a1(miura_from_pair(trace.final))
    x = mkdv_field(trace, r)
    sides = {}
    for i in maps:
        scalar_op = miura_map(i, emb)
        pushed = d_miura_map_a1(i, emb, (x, RF_ZERO, -x))
        sides[i] = (scalar_op, pushed, psdo.kdv_field(scalar_op, r))
    return sides
