"""Miura opers, gauge moves, scalar reductions, and their derivatives."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp

from mkdv_a22.exact import ONE, RF_ONE, RF_ZERO, X, Poly, RatFunc
from mkdv_a22.generation import PolyPair, generate_multistep, sample_c
from mkdv_a22.miura import (
    MiuraOper,
    MiuraOperA1,
    alpha_pairing,
    d_miura_map,
    d_miura_map_a1,
    embed_a1,
    gauge_step,
    miura_from_pair,
    miura_from_trace,
    miura_map,
    ricatti_check,
)
from mkdv_a22.psdo import PsDO


def rf(num, den=None):
    return RatFunc(num) if den is None else RatFunc(num, den)


def to_sympy(r: RatFunc, x):
    num = sum(sp.Rational(c) * x ** k for k, c in enumerate(r.num.coeffs))
    den = sum(sp.Rational(c) * x ** k for k, c in enumerate(r.den.coeffs))
    return num / den


# --- attachment of opers -----------------------------------------------------------

def test_miura_from_pair_values():
    assert miura_from_pair(PolyPair(ONE, ONE)).v.is_zero()
    c = F(4)
    assert miura_from_pair(PolyPair(X + 4, ONE)).v == rf(-ONE, X + c)
    assert miura_from_pair(PolyPair(ONE, X + 4)).v == rf(ONE * 2, X + c)


def test_miura_from_trace_values_and_pair_equality():
    c = F(4)
    t0 = generate_multistep((0,), (c,))
    assert miura_from_trace(t0).v == rf(-ONE, X + c)
    t1 = generate_multistep((1,), (c,))
    assert miura_from_trace(t1).v == rf(ONE * 2, X + c)
    rng = random.Random(31)
    for j_seq in ((0, 1), (1, 0), (0, 1, 0), (1, 0, 1, 0)):
        cs = sample_c(j_seq, rng)
        t = generate_multistep(j_seq, cs)
        assert miura_from_trace(t).v == miura_from_pair(t.final).v


def test_alpha_pairing():
    zero = MiuraOper(RF_ZERO)
    assert alpha_pairing(0, zero).is_zero()
    oper = miura_from_pair(PolyPair(X + 2, ONE))
    # <alpha_0, V> = (ln (y1^4 / y0^2))' and <alpha_1, V> = (ln (y0 / y1^2))'
    assert alpha_pairing(0, oper) == rf(-ONE * 2, X + 2)
    assert alpha_pairing(1, oper) == rf(ONE, X + 2)


# --- Riccati data along a trace -----------------------------------------------------

def test_ricatti_check_values():
    zero = MiuraOper(RF_ZERO)
    g = rf(ONE, X + 5)
    assert ricatti_check(zero, g, 0)
    assert ricatti_check(zero, RF_ZERO, 0)
    assert ricatti_check(zero, rf(ONE, X), 1)
    assert not ricatti_check(zero, rf(X), 0)


def test_gauge_step_and_replay():
    zero = MiuraOper(RF_ZERO)
    g = rf(ONE, X + 5)
    assert gauge_step(zero, g, 0).v == -g
    assert gauge_step(zero, RF_ZERO, 1).v.is_zero()
    with pytest.raises(ValueError):
        gauge_step(zero, rf(X), 0)

    rng = random.Random(32)
    for j_seq in ((0, 1), (1, 0, 1), (0, 1, 0, 1)):
        c = sample_c(j_seq, rng)
        t = generate_multistep(j_seq, c)
        oper = MiuraOper(RF_ZERO)
        for j, g in zip(t.J, t.gs):
            assert ricatti_check(oper, g, j)
            oper = gauge_step(oper, g, j)
        assert oper.v == miura_from_trace(t).v


# --- scalar reductions ----------------------------------------------------------------

def test_embed_a1():
    assert embed_a1(MiuraOper(RF_ZERO)).vs == (RF_ZERO, RF_ZERO, RF_ZERO)
    v = rf(-ONE, X + 2)
    emb = embed_a1(MiuraOper(v))
    assert emb.vs == (v, RF_ZERO, -v)
    with pytest.raises(ValueError):
        MiuraOperA1(rf(X), rf(X), rf(X))


def test_miura_map_values():
    zero3 = embed_a1(MiuraOper(RF_ZERO))
    for i in (0, 1, 2):
        op = miura_map(i, zero3)
        assert op.u1.is_zero() and op.u0.is_zero()

    c = F(3)
    oper = miura_from_pair(PolyPair(X + 3, ONE))  # v = -1/(x+c)
    emb = embed_a1(oper)
    m1 = miura_map(1, emb)
    assert m1.u1.is_zero() and m1.u0.is_zero()  # (d-v)(d+v)d collapses to d^3
    m0 = miura_map(0, emb)
    assert m0.u1 == rf(-ONE * 3, (X + c) ** 2)
    assert m0.u0 == rf(ONE * 3, (X + c) ** 3)


def test_miura_map_against_sympy_operator_application():
    # apply the ordered factorizations to a generic symbolic function and
    # compare with d^3 + u1 d + u0 from the expansion
    x = sp.symbols('x')
    f = sp.Function('f')(x)
    v = rf(X * X + Poly([F(1, 2)]), (X + 2) * (X - 1))
    emb = embed_a1(MiuraOper(v))
    vs_sym = [to_sympy(t, x) for t in emb.vs]
    order = {0: (2, 1, 0), 1: (0, 2, 1), 2: (1, 0, 2)}
    for i in (0, 1, 2):
        op = miura_map(i, emb)
        expr = f
        for k in reversed(order[i]):
            expr = sp.diff(expr, x) - vs_sym[k] * expr
        expr = sp.expand(expr)
        u1 = sp.simplify(expr.coeff(sp.Derivative(f, x)))
        u0 = sp.simplify(expr.coeff(f))
        assert sp.simplify(u1 - to_sympy(op.u1, x)) == 0
        assert sp.simplify(u0 - to_sympy(op.u0, x)) == 0
        assert sp.simplify(expr.coeff(sp.Derivative(f, x, 2))) == 0


# --- derivative maps --------------------------------------------------------------------

def test_d_miura_map_closed_forms():
    v = rf(-ONE, X + 2)
    oper = MiuraOper(v)
    assert d_miura_map(0, oper, RF_ZERO) == (RF_ZERO, RF_ZERO)
    x_comp = rf(X, (X + 1) ** 2)
    u1, u0 = d_miura_map(0, oper, x_comp)
    assert u1 == -(x_comp.derivative() * 2 + v * x_comp * 2)
    assert u0 == -(
        x_comp.derivative().derivative() + v * x_comp.derivative() + v.derivative() * x_comp
    )
    u1_b, u0_b = d_miura_map(1, oper, x_comp)
    assert u1_b == x_comp.derivative() - v * x_comp * 2
    assert u0_b.is_zero()


def test_d_miura_map_kernels():
    rng = random.Random(33)
    for j_seq in ((0,), (1,), (0, 1), (1, 0), (0, 1, 0)):
        c = sample_c(j_seq, rng)
        pair = generate_multistep(j_seq, c).final
        oper = miura_from_pair(pair)
        k0 = d_miura_map(0, oper, RatFunc(pair.y0, pair.y1 ** 2))
        assert k0.u1.is_zero() and k0.u0.is_zero()
        k1 = d_miura_map(1, oper, RatFunc(pair.y1 ** 4, pair.y0 ** 2))
        assert k1.u1.is_zero() and k1.u0.is_zero()


def test_kernel_is_one_dimensional():
    # a tangent annihilated by the derivative map is a constant multiple of
    # the kernel generator: X'/X must match the generator's, so X/gen is
    # constant
    c = F(2)
    pair = generate_multistep((0, 1), (c, F(5))).final
    oper = miura_from_pair(pair)
    gen0 = RatFunc(pair.y0, pair.y1 ** 2)
    scaled = gen0 * F(7, 3)
    k = d_miura_map(0, oper, scaled)
    assert k.u1.is_zero() and k.u0.is_zero()
    ratio = scaled / gen0
    assert ratio.num.degree() == 0 and ratio.den.degree() == 0
    # anything off the line is not annihilated
    off = gen0 + rf(ONE, X + 9)
    k_off = d_miura_map(0, oper, off)
    assert not (k_off.u1.is_zero() and k_off.u0.is_zero())


def test_d_miura_map_general_matches_closed_forms():
    v = rf(X + 1, X * X + Poly([F(3)]))
    oper = MiuraOper(v)
    emb = embed_a1(oper)
    x_comp = rf(ONE, X + 1)
    tangent = (x_comp, RF_ZERO, -x_comp)
    for i in (0, 1):
        general = d_miura_map_a1(i, emb, tangent)
        closed = d_miura_map(i, oper, x_comp)
        assert general == closed
    # i = 2 exists only through the general product rule
    u1, u0 = d_miura_map_a1(2, emb, tangent)
    assert isinstance(u1, RatFunc) and isinstance(u0, RatFunc)
    with pytest.raises(ValueError):
        d_miura_map_a1(0, emb, (x_comp, x_comp, x_comp))
    with pytest.raises(ValueError):
        d_miura_map(2, oper, x_comp)


def test_d_miura_map_a1_against_sympy_variation():
    # the product rule against d/de at e = 0 of the ordered factorizations
    # applied to a generic symbolic function, with potential vs + e*xs for a
    # sum-zero tangent that is not of the form (X, 0, -X); coefficients are
    # compared as elements of QQ(x), which is far faster than simplify here
    x, eps = sp.symbols('x epsilon')
    f = sp.Function('f')(x)
    field = sp.QQ.frac_field(x)
    v = rf(X * X + Poly([F(1, 2)]), (X + 2) * (X - 1))
    emb = embed_a1(MiuraOper(v))
    x1 = rf(X + 3, X * X + ONE)
    x2 = rf(ONE * F(2, 3), X - 4)
    tangent = (x1, x2, -x1 - x2)
    moved = [to_sympy(t, x) + eps * to_sympy(dt, x) for t, dt in zip(emb.vs, tangent)]
    order = {0: (2, 1, 0), 1: (0, 2, 1), 2: (1, 0, 2)}
    for i in (0, 1, 2):
        u1, u0 = d_miura_map_a1(i, emb, tangent)
        expr = f
        for k in reversed(order[i]):
            expr = sp.diff(expr, x) - moved[k] * expr
        expr = sp.expand(sp.diff(expr, eps).subs(eps, 0))
        assert field.from_sympy(expr.coeff(sp.Derivative(f, (x, 3)))) == field.zero
        assert field.from_sympy(expr.coeff(sp.Derivative(f, (x, 2)))) == field.zero
        assert field.from_sympy(expr.coeff(sp.Derivative(f, x))) == field.from_sympy(to_sympy(u1, x))
        assert field.from_sympy(expr.coeff(f)) == field.from_sympy(to_sympy(u0, x))


def rand_rf(rng):
    num = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 3))])
    den = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(0, 2))] + [F(1)])
    return rf(num, den)


def test_d_miura_map_a1_matches_full_three_product_sum():
    # orders 1 and 0 formed directly equal the full product-rule sum of the
    # three ordered triple products, whose d^2 terms cancel; random sum-zero
    # potentials and tangents, some with a zero component
    rng = random.Random(13)
    for trial in range(12):
        v1, v2 = rand_rf(rng), rand_rf(rng)
        emb = MiuraOperA1(v1, v2, -v1 - v2)
        t1, t2 = rand_rf(rng), rand_rf(rng) if trial % 3 else RF_ZERO
        for tangent in ((t1, t2, -t1 - t2), (t2, -t1 - t2, t1)):
            for i, order in ((0, (2, 1, 0)), (1, (0, 2, 1)), (2, (1, 0, 2))):
                total = PsDO.zero()
                for pos in range(3):
                    pieces = [PsDO({1: RF_ONE, 0: -emb.vs[k]}) for k in order]
                    pieces[pos] = PsDO({0: -tangent[order[pos]]})
                    total = total + pieces[0] * pieces[1] * pieces[2]
                assert (total.top() or 0) <= 1
                assert d_miura_map_a1(i, emb, tangent) == (total.coeff(1), total.coeff(0))


def test_gauge_collapse_of_scalar_maps():
    # the scalar map of index 1 forgets a trailing 0-step, index 0 a
    # trailing 1-step
    rng = random.Random(34)
    for j_seq, i_map in (((0, 1, 0), 1), ((1, 0, 1), 0), ((0, 1), 0), ((1, 0), 1)):
        c = list(sample_c(j_seq, rng))
        images = []
        for delta in (0, 3):
            c2 = list(c)
            c2[-1] += delta
            t = generate_multistep(j_seq, c2)
            images.append(miura_map(i_map, embed_a1(miura_from_trace(t))))
        assert images[0] == images[1]
        shorter = generate_multistep(j_seq[:-1], c[:-1])
        assert images[0] == miura_map(i_map, embed_a1(miura_from_trace(shorter)))


def test_json_shapes():
    oper = miura_from_pair(PolyPair(X + 2, ONE))
    assert oper.to_json() == {"v": {"num": ["-1"], "den": ["2", "1"]}}
    op3 = miura_map(0, embed_a1(oper))
    data = op3.to_json()
    assert set(data) == {"u1", "u0"}
