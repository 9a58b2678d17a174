"""Loop-algebra matrices, dressings, grading, and diagonal decomposition."""

import random
from fractions import Fraction as F

import pytest

from mkdv_a22.exact import ONE, X, Poly, RatFunc
from mkdv_a22.loop import (
    CARTAN,
    LaurentMat,
    centralizer_power,
    conjugate,
    diag_matrix,
    exp_dressing,
    grade_project,
    grade_support,
    lambda_decompose,
    lambda_power,
    lambda_recompose,
)


def rf(num, den=None):
    return RatFunc(num) if den is None else RatFunc(num, den)


def rand_ratfunc(rng):
    num = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)])
    den = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)), F(1)])
    return rf(num if not num.is_zero() else ONE, den)


def test_cartan_data():
    assert CARTAN.a == ((2, -1), (-4, 2))
    # 2*h0 + h1 = 0 as diagonals
    assert all(2 * a + b == 0 for a, b in zip(CARTAN.h0_diag, CARTAN.h1_diag))
    assert CARTAN.alpha_pairing(0, 0) == 2
    assert CARTAN.alpha_pairing(1, 0) == -1
    assert CARTAN.alpha_pairing(0, 1) == -4
    assert CARTAN.alpha_pairing(1, 1) == 2


def test_lambda_power_base_cases():
    one = RatFunc.one()
    assert lambda_power(1) == LaurentMat({(1, 0, 0): one, (2, 1, 0): one, (0, 2, 1): one})
    assert lambda_power(0) == LaurentMat.identity()
    assert lambda_power(-1) == LaurentMat({(0, 1, 0): one, (1, 2, 0): one, (2, 0, -1): one})
    # r = 7: top-right lambda^3, the two subdiagonal entries lambda^2
    assert lambda_power(7) == LaurentMat(
        {(0, 2, 3): one, (1, 0, 2): one, (2, 1, 2): one}
    )


def test_lambda_power_group_law():
    for r in range(-6, 7):
        for s in range(-6, 7):
            assert lambda_power(r) * lambda_power(s) == lambda_power(r + s)


def test_centralizer_matrices_are_powers():
    one = RatFunc.one()
    for m in range(-2, 3):
        plus = LaurentMat(
            {(0, 2, 2 * m + 1): one, (1, 0, 2 * m): one, (2, 1, 2 * m): one}
        )
        minus = LaurentMat(
            {(0, 1, 2 * m): one, (1, 2, 2 * m): one, (2, 0, 2 * m - 1): one}
        )
        assert lambda_power(6 * m + 1) == plus
        assert lambda_power(6 * m - 1) == minus


def test_centralizer_power_gate():
    assert centralizer_power(7) == lambda_power(7)
    for r in (0, 2, 3, 4, 6, 9):
        with pytest.raises(ValueError):
            centralizer_power(r)


def test_diagonal_shuffle_identities():
    lam, lam_inv = lambda_power(1), lambda_power(-1)
    for i in range(3):
        e_next = LaurentMat.unit((i + 1) % 3, (i + 1) % 3)
        e_i = LaurentMat.unit(i, i)
        assert e_next * lam == lam * e_i
        assert e_i * lam_inv == lam_inv * e_next


def test_exp_dressing_shapes():
    g = rf(ONE, X + 5)
    one = RatFunc.one()
    assert exp_dressing(g, 0) == LaurentMat.identity() + LaurentMat({(2, 0, -1): g})
    assert exp_dressing(RatFunc.zero(), 0) == LaurentMat.identity()
    assert exp_dressing(RatFunc.zero(), 1) == LaurentMat.identity()
    two_g = g * 2
    assert exp_dressing(g, 1) == LaurentMat.identity() + LaurentMat(
        {(0, 1, 0): two_g, (1, 2, 0): two_g, (0, 2, 0): g * g * 2}
    )
    with pytest.raises(ValueError):
        exp_dressing(g, 2)


def test_exp_dressing_inverses():
    rng = random.Random(13)
    for _ in range(5):
        g = rand_ratfunc(rng)
        for j in (0, 1):
            assert exp_dressing(g, j) * exp_dressing(-g, j) == LaurentMat.identity()


def test_grade_project():
    lam = lambda_power(1)
    assert grade_project(lam, 1) == lam
    assert grade_project(lam, 0).is_zero()
    g = rf(ONE, X + 2)
    e0 = exp_dressing(g, 0)
    assert grade_project(e0, -1) == LaurentMat({(2, 0, -1): g})
    # homogeneous pieces add back to the whole
    rng = random.Random(14)
    m = LaurentMat(
        {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)): rand_ratfunc(rng) for _ in range(7)}
    )
    total = LaurentMat.zero()
    for d in grade_support(m):
        total = total + grade_project(m, d)
    assert total == m
    assert all(grade_project(lambda_power(r), d).is_zero() for r in (-3, 2, 5) for d in (0, 1) if d != r)


def test_conjugate_checks_inverse_and_matches_gauge_identity():
    g = rf(ONE, X + 7)
    p = exp_dressing(g, 0)
    p_inv = exp_dressing(-g, 0)
    lam = lambda_power(1)
    assert conjugate(LaurentMat.identity(), lam, LaurentMat.identity(), degree=1) == lam
    assert conjugate(p, LaurentMat.identity(), p_inv, degree=0) == LaurentMat.identity()
    with pytest.raises(ValueError):
        conjugate(p, lam, p, degree=0)  # not the inverse

    # matrix conjugation of the cyclic generator by exp(g f0):
    # diagonal part g*(e33 - e11) plus the strictly negative-degree
    # remainder -g^2 * lambda^{-1} e31, which the derivative of the inverse
    # factor cancels in the full gauge action when g' + g^2 = 0
    conj = p * lam * p_inv
    expected_diag = LaurentMat({(0, 0, 0): -g, (2, 2, 0): g})
    assert grade_project(conj, 0) == expected_diag
    assert conjugate(p, lam, p_inv, degree=0) == expected_diag
    assert conj == lam + expected_diag + LaurentMat({(2, 0, -1): -(g * g)})
    gauge = conj + p * p_inv.d_dx()
    assert gauge == lam + expected_diag  # g = 1/(x+7) solves g' + g^2 = 0


def test_lambda_decompose_values():
    one = RatFunc.one()
    assert lambda_decompose(lambda_power(1)) == [(1, (one, one, one))]
    d = (rf(X), rf(ONE * 3), rf(X + 1))
    assert lambda_decompose(diag_matrix(d)) == [(0, d)]
    g = rf(ONE, X + 2)
    parts = lambda_decompose(exp_dressing(g, 1) - LaurentMat.identity())
    assert parts == [
        (-2, (g * g * 2, RatFunc.zero(), RatFunc.zero())),
        (-1, (g * 2, g * 2, RatFunc.zero())),
    ]


def test_lambda_decompose_round_trip_and_b0():
    rng = random.Random(15)
    for _ in range(8):
        m = LaurentMat(
            {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)): rand_ratfunc(rng)
                for _ in range(6)
            }
        )
        parts = lambda_decompose(m)
        assert lambda_recompose(parts) == m
        b0 = [diag for j, diag in parts if j == 0]
        if b0:
            assert diag_matrix(b0[0]) == grade_project(m, 0)
        else:
            assert grade_project(m, 0).is_zero()


def test_serialization():
    g = rf(ONE, X + 2)
    data = exp_dressing(g, 0).to_json()
    assert {"row": 3, "col": 1, "lambda_exp": -1, "ratfunc": {"num": ["1"], "den": ["2", "1"]}} in data


def test_lambda_power_closed_form_steps():
    for r in range(-20, 21):
        assert lambda_power(r) == lambda_power(r - 1) * lambda_power(1)
    one = RatFunc.one()
    assert lambda_power(3) == LaurentMat({(i, i, 1): one for i in range(3)})


def test_graded_conjugate_checks_inverse():
    g = rf(ONE, X + 7)
    p = exp_dressing(g, 0)
    for d in (-1, 0, 1):
        with pytest.raises(ValueError):
            conjugate(p, lambda_power(1), p, degree=d)
