"""Pseudodifferential calculus, cube roots, KdV flows, and the flow diagram."""

import ast
import random
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, seed, settings, strategies as st

from mkdv_a22.cli import main
from mkdv_a22.exact import ONE, X, Poly, RatFunc
from mkdv_a22.generation import generate_multistep
from mkdv_a22.miura import DiffOp3, consistency_check, embed_a1, miura_from_trace, miura_map
from mkdv_a22 import psdo
from mkdv_a22.psdo import (
    PsDO,
    cube_root,
    frac_power_plus,
    from_diffop3,
    kdv_field,
    psdo_mul,
)

from helpers import rand_ratfunc, rf


# --- composition -------------------------------------------------------------------

def test_psdo_mul_leibniz():
    d = PsDO.d()
    u = PsDO({0: rf(X)})
    assert psdo_mul(d, u) == PsDO({1: rf(X), 0: rf(ONE)})


def test_psdo_mul_inverse_of_d():
    got = psdo_mul(PsDO.d(-1), PsDO.d(1))
    assert got == PsDO.one()
    # and with a truncation marker the tail stays tracked
    t = PsDO({-1: rf(ONE)}, floor=-3)
    got2 = psdo_mul(t, PsDO.d(1))
    assert got2.coeff(0) == rf(ONE) and got2.floor == -2


def test_psdo_mul_first_order_factors():
    v = rf(X, X * X + ONE)
    a = PsDO({1: rf(ONE), 0: v})
    b = PsDO({1: rf(ONE), 0: -v})
    got = psdo_mul(a, b)
    assert got == PsDO({2: rf(ONE), 0: -(v * v) - v.derivative()})


def test_psdo_mul_untruncated_infinite_expansion_rejected():
    with pytest.raises(ValueError):
        psdo_mul(PsDO.d(-1), PsDO({0: rf(ONE, X + 1)}))


def test_floor_tracking_worst_case():
    a = PsDO({1: rf(ONE), -1: rf(X)}, floor=-1)
    b = PsDO({2: rf(X)}, floor=None)
    prod = psdo_mul(a, b)
    assert prod.floor == -1 + 2
    prod2 = psdo_mul(b, a)
    assert prod2.floor == -1 + 2


QX_FIELD, QX = sp.field("x", sp.QQ)
COEFFS = st.builds(
    lambda num, den: RatFunc(Poly(num), Poly([*den, 1])),
    st.lists(st.fractions(-9, 9, max_denominator=4), min_size=1, max_size=3),
    st.lists(st.integers(-4, 4), max_size=1),
)
DIFF_OPS = st.dictionaries(st.integers(0, 3), COEFFS, max_size=3).map(PsDO)


def apply_to(op: PsDO, jet: dict) -> dict:
    """op applied to sum_k jet[k] * f^(k) for an undefined f(x), with the
    coefficients in sympy's field QQ(x) and d/dx f^(k) = f^(k+1)."""
    out: dict = {}
    for i, c in op.terms.items():
        num, den = (
            sum((sp.Rational(str(k)) * QX**e for e, k in enumerate(p.coeffs)), QX_FIELD(0))
            for p in (c.num, c.den)
        )
        cur = jet
        for _ in range(i):
            nxt: dict = {}
            for k, v in cur.items():
                nxt[k] = nxt.get(k, 0) + v.diff(QX)
                nxt[k + 1] = nxt.get(k + 1, 0) + v
            cur = nxt
        for k, v in cur.items():
            out[k] = out.get(k, 0) + num / den * v
    return {k: v for k, v in out.items() if v}


@seed(20261020)
@settings(max_examples=25, deadline=None, database=None)
@given(DIFF_OPS, DIFF_OPS)
def test_psdo_mul_matches_sympy_composition(a, b):
    prod = psdo_mul(a, b)
    assert prod.floor is None
    f = {0: QX_FIELD(1)}
    assert apply_to(prod, f) == apply_to(a, apply_to(b, f))


# --- cube roots and fractional powers ------------------------------------------------

def test_cube_root_of_pure_derivative():
    root = cube_root(DiffOp3(RatFunc.zero(), RatFunc.zero()), 6)
    assert root.terms == {1: rf(ONE)}
    assert root.floor == -5


def test_cube_root_first_coefficients():
    u1 = rf(X, X * X + ONE)
    root = cube_root(DiffOp3(u1, RatFunc.zero()), 4)
    assert root.coeff(0).is_zero()
    assert root.coeff(-1) == u1 * F(1, 3)


def test_cube_root_recomposition_random():
    rng = random.Random(51)
    for _ in range(10):
        op = DiffOp3(rand_ratfunc(rng), rand_ratfunc(rng))
        root = cube_root(op, 8)
        cube = root * root * root
        target = from_diffop3(op)
        assert cube.floor == root.floor + 2
        for order in range(cube.floor, 4):
            assert cube.coeff(order) == target.coeff(order)


def test_frac_power_plus_shapes():
    d3 = DiffOp3(RatFunc.zero(), RatFunc.zero())
    assert frac_power_plus(d3, 1) == PsDO.d(1)
    assert frac_power_plus(d3, 5) == PsDO.d(5)
    u1 = rf(X, X * X + ONE)
    assert frac_power_plus(DiffOp3(u1, RatFunc.zero()), 1) == PsDO.d(1)
    op = DiffOp3(rand_ratfunc(random.Random(52)), rand_ratfunc(random.Random(53)))
    for r in (1, 2, 4, 5):
        plus = frac_power_plus(op, r)
        assert plus.top() == r and plus.coeff(r) == rf(ONE)
        assert plus.floor is None
    with pytest.raises(ValueError):
        frac_power_plus(op, 3)
    with pytest.raises(ValueError):
        frac_power_plus(op, 0)


def test_frac_power_plus_matches_repeated_products():
    # oracle: the plain definition, (R^r)+ from r - 1 products of a root
    # taken to depth r + 5
    rng = random.Random(59)
    for r in (1, 2, 4, 5, 7, 8):
        op = DiffOp3(rand_ratfunc(rng, 1, 1), rand_ratfunc(rng, 1, 1))
        root = cube_root(op, r + 5)
        power = root
        for _ in range(r - 1):
            power = power * root
        assert power.floor <= 0
        assert frac_power_plus(op, r) == power.plus_part()


def test_frac_power_plus_disagreement_raises(monkeypatch):
    # a root solver that forgets [R]_{-1} and [R^2]_{-1}: L^q R^s and R^s L^q
    # then differ at nonnegative orders
    solve = psdo._root_and_square

    def forgetful(op, depth):
        return tuple(
            PsDO({i: c for i, c in p.terms.items() if i != -1}, p.floor) for p in solve(op, depth)
        )

    monkeypatch.setattr(psdo, "_root_and_square", forgetful)
    op = DiffOp3(rand_ratfunc(random.Random(60)), rand_ratfunc(random.Random(61)))
    for r in (4, 5):
        with pytest.raises(ArithmeticError, match="instability"):
            frac_power_plus(op, r)


def test_cube_root_truncation_is_stable():
    # deeper runs extend the coefficient list without changing earlier terms
    op = DiffOp3(rand_ratfunc(random.Random(54)), rand_ratfunc(random.Random(55)))
    shallow = cube_root(op, 6)
    deep = cube_root(op, 8)
    assert deep.truncate(shallow.floor) == shallow


# --- KdV flows ------------------------------------------------------------------------

def test_kdv_field_on_pure_third_derivative():
    d3 = DiffOp3(RatFunc.zero(), RatFunc.zero())
    for r in (1, 2, 5):
        assert kdv_field(d3, r) == (RatFunc.zero(), RatFunc.zero())


def test_kdv_field_r1_is_translation():
    rng = random.Random(56)
    op = DiffOp3(rand_ratfunc(rng), rand_ratfunc(rng))
    u1_dot, u0_dot = kdv_field(op, 1)
    assert u1_dot == -op.u1.derivative()
    assert u0_dot == -op.u0.derivative()


def test_kdv_field_r2_second_flow():
    # [L, (L^{2/3})+] with (L^{2/3})+ = d^2 + (2/3) u1, expanded by hand and
    # cross-checked symbolically:
    #   u1_dot = u1'' - 2 u0',   u0_dot = (2/3) u1''' + (2/3) u1 u1' - u0''
    rng = random.Random(57)
    op = DiffOp3(rand_ratfunc(rng), rand_ratfunc(rng))
    u1_dot, u0_dot = kdv_field(op, 2)
    u1, u0 = op.u1, op.u0
    assert u1_dot == u1.derivative().derivative() - u0.derivative() * 2
    assert u0_dot == (
        u1.derivative().derivative().derivative() * F(2, 3)
        + u1 * u1.derivative() * F(2, 3)
        - u0.derivative().derivative()
    )


def test_kdv_field_vanishes_on_stationary_rational_operator():
    # the scalar operator attached to the one-step family is a rational
    # solution fixed by every higher flow
    t = generate_multistep((0,), (F(3),))
    op = miura_map(0, embed_a1(miura_from_trace(t)))
    assert op.u1 == rf(-ONE * 3, (X + 3) ** 2)
    assert op.u0 == rf(ONE * 3, (X + 3) ** 3)
    for r in (5, 7):
        assert kdv_field(op, r) == (RatFunc.zero(), RatFunc.zero())


def _maps(js):
    # the three scalar maps of a basic word, at c = (0, 1)[:len(js)]
    emb = embed_a1(miura_from_trace(generate_multistep(js, (F(0), F(1))[: len(js)])))
    return [miura_map(i, emb) for i in range(3)]


def test_kdv_field_matches_full_bracket():
    # oracle: the bracket [L, (L^{r/3})+] itself, formed in full; it closes at
    # order <= 1 and its orders 1 and 0 are the two-residue flow.  The random
    # operators stop at r = 7: their coefficients grow fast, and r = 13 costs
    # seconds for each of them.
    rng = random.Random(58)
    words = ((), (0,), (1,), (0, 1), (1, 0))
    cases = [(op, (1, 2, 4, 5, 7, 8, 10, 11, 13)) for js in words for op in _maps(js)]
    cases += [
        (DiffOp3(rand_ratfunc(rng, 1, 1), rand_ratfunc(rng, 1, 1)), (1, 2, 4, 5, 7))
        for _ in range(5)
    ]
    for op, rs in cases:
        lop = from_diffop3(op)
        for r in rs:
            plus = frac_power_plus(op, r)
            comm = lop * plus - plus * lop
            top = comm.top()
            assert top is None or top <= 1
            assert kdv_field(op, r) == (comm.coeff(1), comm.coeff(0)), (op, r)


def test_kdv_field_matches_other_factor_order():
    # the residues of L^q R^s (the factors commute) give the same flow
    for op in _maps((0, 1)):
        for r in (1, 2, 4, 5, 7):
            _, s, lq = psdo._power_parts(op, r)
            x = lq * psdo._root_and_square(op, r + 2)[s - 1]
            assert x.floor <= -2
            dx1 = x.coeff(-1).derivative()
            assert kdv_field(op, r) == (
                dx1 * -3,
                (dx1.derivative() + x.coeff(-2).derivative()) * -3,
            )


def test_kdv_field_shallow_root_raises(monkeypatch, capsys):
    # a root solver one order too shallow leaves R^s L^q exact only down to
    # order -1, so the residue at order -2 is unknown
    solve = psdo._root_and_square
    monkeypatch.setattr(psdo, "_root_and_square", lambda op, depth: solve(op, depth - 1))
    op = DiffOp3(rand_ratfunc(random.Random(60)), rand_ratfunc(random.Random(61)))
    for r in (1, 2, 4, 5):
        with pytest.raises(ArithmeticError, match="residues need -2"):
            kdv_field(op, r)
    assert main(["kdv-check", "0", "--c", "3", "--r", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal error: ArithmeticError:")


# --- the mKdV-to-KdV diagram -------------------------------------------------------------

def test_consistency_one_and_two_steps():
    t0 = generate_multistep((0,), (F(3),))
    for r in (1, 5):
        for i in (0, 1, 2):
            assert consistency_check(t0, r, i)
    # past the vanishing threshold both sides are zero
    assert consistency_check(t0, 7, 0)
    t01 = generate_multistep((0, 1), (F(2), F(5)))
    for i in (0, 1, 2):
        assert consistency_check(t01, 1, i)


def test_consistency_rejects_bad_flow_index():
    t0 = generate_multistep((0,), (F(3),))
    with pytest.raises(ValueError):
        consistency_check(t0, 3, 0)


def test_psdo_imports_only_exact():
    # the calculus is the bottom of the operator stack: miura and flows build
    # on it, never the other way round
    tree = ast.parse(Path(psdo.__file__).read_text())
    relative = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            if node.module:
                relative.add(node.module)
            else:
                relative.update(alias.name for alias in node.names)
    assert relative == {"exact"}


def test_psdo_json():
    p = PsDO({1: rf(ONE), -1: rf(X)}, floor=-2)
    data = p.to_json()
    assert data["floor"] == -2
    assert data["terms"][0]["order"] == -1


# --- the constructor is the one place zero and sub-floor terms are dropped ---------


def test_sum_with_its_negative_keeps_the_floor_and_no_terms():
    rng = random.Random(11)
    p = PsDO({i: rand_ratfunc(rng) for i in range(-3, 3)}, floor=-3)
    total = p + (-p)
    assert total.terms == {}
    assert total.floor == -3
    assert total == PsDO({}, -3)
    assert (p - p).terms == {}


def test_sum_drops_the_order_that_cancels_and_keeps_the_other():
    a = PsDO({2: rf(X), 0: rf(ONE)})
    b = PsDO({2: rf(-X), -1: rf(X, X + 1)}, floor=-2)
    total = a + b
    assert total.terms == {0: rf(ONE), -1: rf(X, X + 1)}
    assert total.floor == -2


def test_constructor_drops_zero_and_sub_floor_terms():
    p = PsDO({3: rf(ONE), 1: RatFunc(Poly(())), -1: rf(X), -4: rf(X)}, floor=-2)
    assert p.terms == {3: rf(ONE), -1: rf(X)}


@pytest.mark.parametrize("floor", [None, -5, -1, 2])
def test_truncate_leaves_no_order_below_the_new_floor(floor):
    rng = random.Random(13)
    p = PsDO({i: rand_ratfunc(rng) for i in range(-4, 4)}, floor)
    for f in range(-6, 6):
        t = p.truncate(f)
        new_floor = f if floor is None else max(f, floor)
        assert t.floor == new_floor
        assert all(i >= new_floor for i in t.terms)
        assert t.terms == {i: c for i, c in p.terms.items() if i >= new_floor}


def test_equality_sees_the_floor_and_values_stay_unhashable():
    terms = {1: rf(ONE), -1: rf(X)}
    a, b = PsDO(terms, floor=-2), PsDO(terms, floor=-3)
    assert a == PsDO(dict(terms), floor=-2)
    assert a != b
    assert PsDO(terms) != a
    assert a.__eq__(3) is NotImplemented
    assert a != 3
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)
