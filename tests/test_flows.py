"""mKdV fields on generated families, exact tangents, and decomposition."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp

from mkdv_a22 import cli
from mkdv_a22.exact import ONE, X, RatFunc
from mkdv_a22.flows import (
    decompose_flow,
    dressing_product,
    family_tangents,
    flow_sample,
    mkdv_field,
    vanishing_threshold,
)
from mkdv_a22.generation import degree_vector, generate_multistep, sample_c
from mkdv_a22.loop import (
    LaurentMat,
    conjugate,
    diag_matrix,
    exp_dressing,
    grade_project,
    grade_support,
    lambda_power,
)


def rf(num, den=None):
    return RatFunc(num) if den is None else RatFunc(num, den)


def test_dressing_product_shapes():
    t_empty = generate_multistep((), ())
    p, p_inv = dressing_product(t_empty)
    assert p == LaurentMat.identity() and p_inv == LaurentMat.identity()

    c = F(3)
    t0 = generate_multistep((0,), (c,))
    p, p_inv = dressing_product(t0)
    g = rf(ONE, X + c)
    assert p == LaurentMat.identity() + LaurentMat({(2, 0, -1): g})
    assert p * p_inv == LaurentMat.identity()

    t01 = generate_multistep((0, 1), (F(2), F(5)))
    p, p_inv = dressing_product(t01)
    assert p * p_inv == LaurentMat.identity()
    # newest factor leftmost
    e1 = exp_dressing(t01.gs[0], 0)
    e2 = exp_dressing(t01.gs[1], 1)
    assert p == e2 * e1


def test_mkdv_field_one_step_families():
    c = F(3)
    t0 = generate_multistep((0,), (c,))
    assert mkdv_field(t0, 1) == rf(-ONE, (X + c) ** 2)
    for r in (5, 7, 11, 13):
        assert mkdv_field(t0, r).is_zero()

    t1 = generate_multistep((1,), (c,))
    # twice the value of the 0-direction family, with opposite sign: the
    # attached potential is 2/(x+c) and the degree-1 flow is translation
    assert mkdv_field(t1, 1) == rf(ONE * 2, (X + c) ** 2)
    for r in (5, 7, 11, 13):
        assert mkdv_field(t1, r).is_zero()

    with pytest.raises(ValueError):
        mkdv_field(t0, 2)
    with pytest.raises(ValueError):
        mkdv_field(t0, 6)


@pytest.mark.parametrize(
    "diag",
    [(rf(X), rf(X), rf(-X * 2)), (rf(X), RatFunc.zero(), RatFunc.zero())],
    ids=["nonzero-middle", "nonzero-trace"],
)
def test_twisted_closure_failure_is_internal_error(monkeypatch, capsys, diag):
    # a degree-zero part off the h0 line is an engine fault, not bad input
    monkeypatch.setattr("mkdv_a22.flows.conjugate", lambda *args, **kw: diag_matrix(diag))
    with pytest.raises(ArithmeticError):
        mkdv_field(generate_multistep((0,), (F(3),)), 1)
    assert cli.main(["flow", "0", "--c", "3", "--r", "1"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ArithmeticError")


def test_family_tangents_one_step():
    c = F(3)
    assert family_tangents(generate_multistep((0,), (c,)))[0] == rf(ONE, (X + c) ** 2)
    assert family_tangents(generate_multistep((1,), (c,)))[0] == rf(-ONE * 2, (X + c) ** 2)


def test_family_tangents_match_difference_quotient_direction():
    # exact tangents agree with the first-order term of the
    # finite difference of v along each coordinate
    j_seq = (0, 1)
    c = (F(2), F(5))
    from mkdv_a22.miura import miura_from_trace

    tangents = family_tangents(generate_multistep(j_seq, c))
    h = F(1, 1000000)
    for i in range(2):
        cp = list(c)
        cp[i] += h
        v_plus = miura_from_trace(generate_multistep(j_seq, cp)).v
        v0 = miura_from_trace(generate_multistep(j_seq, c)).v
        diff = (v_plus - v0) * (1 / h)
        # compare at a sample point to avoid exactness issues of the quotient
        x0 = F(7, 2)
        approx = diff(x0)
        exact = tangents[i](x0)
        assert abs(approx - exact) < F(1, 1000)


def _symbolic_final_pair(j_seq, x, cs):
    """(y0, y1) in x and the parameter symbols, solved step by step with
    sympy from the Wronskian coefficients (monic, zero at the old degree)."""
    y = [sp.Integer(1), sp.Integer(1)]
    for l, j in enumerate(j_seq):
        old = y[j]
        target = degree_vector(j_seq[: l + 1])[j]
        pinned = sp.degree(old, x)
        bs = sp.symbols(f"b0:{target}")
        a = sp.Symbol("a")
        base = x**target + sum(b * x**i for i, b in enumerate(bs) if i != pinned)
        rhs = y[1] ** 4 if j == 0 else y[0]
        wr = old * sp.diff(base, x) - sp.diff(old, x) * base
        eqs = sp.Poly(sp.expand(wr - a * rhs), x).coeffs()
        sol = sp.solve(eqs, [a] + [b for i, b in enumerate(bs) if i != pinned], dict=True)
        assert len(sol) == 1
        y[j] = sp.expand(base.subs(sol[0]) + cs[l] * old)
    return y


@pytest.mark.parametrize("j_seq", [(0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)])
def test_family_tangents_match_sympy_oracle(j_seq):
    # dv/dc_i of v = (2 ln y1 - ln y0)' from a fully symbolic generation,
    # at a generic point and at the non-generic point c = 0
    x = sp.Symbol("x")
    cs = sp.symbols(f"c1:{len(j_seq) + 1}")
    y0, y1 = _symbolic_final_pair(j_seq, x, cs)
    v = sp.diff(2 * sp.log(y1) - sp.log(y0), x)
    for point in ((3, -1, 2)[: len(j_seq)], (0,) * len(j_seq)):
        tangents = family_tangents(generate_multistep(j_seq, [F(p) for p in point]))
        at = dict(zip(cs, point))
        for ci, ours in zip(cs, tangents):
            num = sum(sp.Rational(q) * x**k for k, q in enumerate(ours.num.coeffs))
            den = sum(sp.Rational(q) * x**k for k, q in enumerate(ours.den.coeffs))
            assert sp.cancel(sp.diff(v, ci).subs(at) - num / den) == 0, (j_seq, point, ci)


def test_family_tangents_at_repeated_root():
    # y1 = x**2 at c = 0: the tangents stay exact where v has a double pole
    got = family_tangents(generate_multistep((0, 1), (F(0), F(0))))
    assert got == [rf(-3 * ONE, X**2), rf(-4 * ONE, X**3)]


def test_decompose_flow_one_step():
    c = F(3)
    t0 = generate_multistep((0,), (c,))
    dec = decompose_flow(mkdv_field(t0, 1), family_tangents(generate_multistep((0,), (c,))))
    assert dec.gamma == (F(-1),) and dec.residual_zero

    t1 = generate_multistep((1,), (c,))
    dec1 = decompose_flow(mkdv_field(t1, 1), family_tangents(generate_multistep((1,), (c,))))
    assert dec1.gamma == (F(-1),) and dec1.residual_zero


def test_decompose_flow_two_step_regression():
    # gamma for the translation flow: the family moves along
    # (c1, c2) -> (c1 + h, c2 + 2 c1 h + h^2), so gamma = (-1, -2 c1)
    for c1, c2 in ((F(2), F(5)), (F(1, 2), F(3)), (F(-3), F(7, 4))):
        s = flow_sample((0, 1), (c1, c2), 1)
        assert s.residual_zero
        assert s.gamma == (F(-1), -2 * c1)


def test_decompose_flow_inconsistent_reports_witness():
    field = rf(ONE, X * X + ONE)
    tangents = [rf(ONE, X + 1)]
    dec = decompose_flow(field, tangents)
    assert not dec.residual_zero
    assert dec.witness is not None
    with pytest.raises(ValueError):
        decompose_flow(field, [])


def test_vanishing_threshold_values():
    assert vanishing_threshold((0,), 5)
    assert not vanishing_threshold((0,), 1)
    assert vanishing_threshold((1,), 5)
    assert vanishing_threshold((1,), 7)
    assert not vanishing_threshold((1,), 1)
    assert vanishing_threshold((0, 1), 7)
    assert not vanishing_threshold((0, 1), 5)
    assert vanishing_threshold((0, 1, 0), 11)
    assert not vanishing_threshold((0, 1, 0), 7)
    assert vanishing_threshold((1, 0, 1), 11)
    assert not vanishing_threshold((1, 0, 1), 7)
    with pytest.raises(ValueError):
        vanishing_threshold((0,), 3)


def test_threshold_fields_vanish_identically():
    rng = random.Random(41)
    for j_seq in ((0, 1), (1, 0), (0, 1, 0)):
        c = sample_c(j_seq, rng)
        t = generate_multistep(j_seq, c)
        for r in (1, 5, 7, 11, 13):
            if vanishing_threshold(j_seq, r):
                assert mkdv_field(t, r).is_zero()


def test_exact_decomposition_multi_step():
    rng = random.Random(42)
    for j_seq in ((0, 1), (1, 0), (0, 1, 0), (1, 0, 1)):
        c = sample_c(j_seq, rng)
        for r in (1, 5, 7):
            s = flow_sample(j_seq, c, r)
            assert s.residual_zero, (j_seq, r)


def test_gamma_prefix_independent_of_last_parameter():
    # the decomposition extends the shorter family's vector field by one
    # coordinate, so the leading coefficients cannot depend on c_m
    rng = random.Random(44)
    for j_seq, r in (((0, 1), 1), ((0, 1, 0), 5), ((1, 0, 1), 1)):
        c = list(sample_c(j_seq, rng))
        gammas = []
        for delta in (0, 1):
            c2 = list(c)
            c2[-1] += delta
            s = flow_sample(j_seq, c2, r)
            assert s.residual_zero
            gammas.append(s.gamma)
        assert gammas[0][:-1] == gammas[1][:-1]


def test_gamma_independent_of_sample_for_one_step():
    rng = random.Random(43)
    for j_seq in ((0,), (1,)):
        gammas = {flow_sample(j_seq, sample_c(j_seq, rng), 1).gamma for _ in range(3)}
        assert gammas == {(F(-1),)}


def test_flow_sample_json():
    s = flow_sample((0,), (F(3),), 1)
    data = s.to_json()
    assert data["J"] == [0] and data["c"] == ["3"] and data["r"] == 1
    assert data["gamma"] == ["-1"] and data["residual_zero"] is True
    assert data["field"] == {"num": ["-1"], "den": ["9", "6", "1"]}


def test_graded_conjugate_matches_projection_of_full_conjugate():
    # degree-d part formed from grade pieces == grade_project of the full
    # conjugate, for dressing products of every basic word of length <= 3
    mixed = (
        lambda_power(1)
        + LaurentMat({(0, 0, 0): rf(X), (1, 1, 0): rf(ONE), (2, 2, 0): rf(-X - 1)})
        + LaurentMat({(2, 0, -1): rf(ONE, X + 2), (0, 2, 1): rf(X * X)})
    )
    assert grade_support(mixed) == [-1, 0, 1]
    ms = [lambda_power(r) for r in (-1, 1, 5, 7)] + [mixed]
    params = (F(-3, 2), F(2), F(7, 4))
    for js in [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)]:
        p, p_inv = dressing_product(generate_multistep(js, params[: len(js)]))
        for m in ms:
            full = p * m * p_inv
            for d in range(-3, 4):
                assert conjugate(p, m, p_inv, degree=d) == grade_project(full, d), (js, d)
