"""Loop-algebra matrices, dressings, grading, and diagonal decomposition."""

import random
from fractions import Fraction as F

import pytest

from mkdv_a22.exact import ONE, RF_ONE, RF_ZERO, X, Poly, RatFunc
from mkdv_a22.loop import (
    CARTAN,
    REACH,
    LaurentMat,
    conjugate,
    diag_matrix,
    exp_dressing,
    grade_project,
    grade_support,
    lambda_decompose,
    lambda_power,
    lambda_recompose,
)

from helpers import rand_ratfunc, rf


def test_cartan_data():
    assert CARTAN.a == ((2, -1), (-4, 2))
    # h0 = diag(1, 0, -1) and h1 = diag(-2, 0, 2), so h1 = -2 * h0
    assert CARTAN.w == (1, -2)
    # <alpha_j, h_i> = w[i] * <alpha_j, h0>
    assert all(CARTAN.a[i][j] == CARTAN.w[i] * CARTAN.a[0][j] for i in (0, 1) for j in (0, 1))
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
        g = rand_ratfunc(rng, 2, 1)
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
        {(rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)): rand_ratfunc(rng, 2, 1) for _ in range(7)}
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
    assert conjugate(LaurentMat.identity(), lam, LaurentMat.identity(), range(1, 2)) == lam
    assert conjugate(p, LaurentMat.identity(), p_inv, range(0, 1)) == LaurentMat.identity()
    with pytest.raises(ArithmeticError, match="not the inverse"):
        conjugate(p, lam, p, range(0, 1))

    # matrix conjugation of the cyclic generator by exp(g f0):
    # diagonal part g*(e33 - e11) plus the strictly negative-degree
    # remainder -g^2 * lambda^{-1} e31, which the derivative of the inverse
    # factor cancels in the full gauge action when g' + g^2 = 0
    conj = p * lam * p_inv
    expected_diag = LaurentMat({(0, 0, 0): -g, (2, 2, 0): g})
    assert grade_project(conj, 0) == expected_diag
    assert conjugate(p, lam, p_inv, range(0, 1)) == expected_diag
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
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)): rand_ratfunc(rng, 2, 1)
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


def test_lambda_power_closed_form_steps():
    for r in range(-20, 21):
        assert lambda_power(r) == lambda_power(r - 1) * lambda_power(1)
    one = RatFunc.one()
    assert lambda_power(3) == LaurentMat({(i, i, 1): one for i in range(3)})


def test_graded_conjugate_checks_inverse():
    g = rf(ONE, X + 7)
    p = exp_dressing(g, 0)
    for d in (-1, 0, 1):
        with pytest.raises(ArithmeticError, match="not the inverse"):
            conjugate(p, lambda_power(1), p, range(d, d + 1))


def rand_homogeneous(rng, delta):
    """Random matrix of principal degree delta: 3e + i - j = delta fixes e."""
    return LaurentMat(
        {
            (i, j, (delta - i + j) // 3): rand_ratfunc(rng, 2, 1)
            for i in range(3)
            for j in range(3)
            if (delta - i + j) % 3 == 0 and rng.random() < 0.8
        }
    )


def test_dressing_conjugation_lowers_degree_by_at_most_reach():
    # mkdv_field keeps only the degrees the remaining factors can still lower
    # to 0; that is sound only if E(g, j) m E(-g, j) has no degree above that
    # of m and none below it by more than REACH[j]
    rng = random.Random(47)
    deepest = {0: 0, 1: 0}
    for case in range(120):
        j = case % 2
        delta = rng.randint(-7, 7)
        g = rand_ratfunc(rng, 2, 1)
        m = rand_homogeneous(rng, delta)
        full = exp_dressing(g, j) * m * exp_dressing(-g, j)
        support = grade_support(full)
        assert all(delta - REACH[j] <= k <= delta for k in support), (j, delta, support)
        if support:
            deepest[j] = max(deepest[j], delta - support[0])
    # the bound is attained, so REACH is no looser than it must be
    assert deepest == REACH


# --- the constructor is the one place zero entries are dropped ---------------------


def _no_zero_entries(m):
    return all(isinstance(v, RatFunc) and not v.is_zero() for v in m.terms.values())


def test_constructor_drops_zero_entries():
    m = LaurentMat({(0, 0, 0): RF_ZERO, (1, 2, -1): rf(X), (2, 2, 3): rf(Poly(()))})
    assert m.terms == {(1, 2, -1): rf(X)}
    assert LaurentMat({(0, 1, 0): RF_ZERO}).is_zero()
    for zero in (0, F(0), Poly(()), RF_ZERO):
        assert LaurentMat.unit(0, 2, 1, zero).is_zero()


def test_sum_with_its_negative_has_no_terms():
    rng = random.Random(5)
    m = LaurentMat({(i, j, rng.randint(-2, 2)): rand_ratfunc(rng, 2, 1) for i in range(3) for j in range(3)})
    total = m + (-m)
    assert total.terms == {}
    assert total == LaurentMat.zero()
    assert (m - m).terms == {}


def test_sum_drops_the_entry_that_cancels_and_keeps_the_other():
    a = LaurentMat({(0, 0, 0): rf(X), (1, 2, 1): rf(ONE)})
    b = LaurentMat({(0, 0, 0): rf(-X), (1, 2, 1): rf(ONE), (2, 0, -1): rf(X, X + 1)})
    total = a + b
    assert total.terms == {(1, 2, 1): rf(Poly((2,))), (2, 0, -1): rf(X, X + 1)}
    assert _no_zero_entries(total)


def test_product_drops_an_entry_whose_contributions_cancel():
    # (e11 + e12)(e11 - e21 + e22): e11*e11 and e12*(-e21) cancel at (1,1),
    # e12*e22 survives at (1,2)
    e = LaurentMat.unit
    left = e(0, 0) + e(0, 1)
    right = e(0, 0) - e(1, 0) + e(1, 1)
    prod = left * right
    assert prod.terms == {(0, 1, 0): RF_ONE}
    assert prod == e(0, 1)
    assert _no_zero_entries(prod)


@pytest.mark.parametrize("coeff", [3, -1, F(2, 7), X + 1, Poly((F(1, 2), 0, 5))])
def test_unit_and_diag_lift_plain_coefficients(coeff):
    lifted = RatFunc.lift(coeff)
    m = LaurentMat.unit(1, 2, -1, coeff)
    assert m == LaurentMat.unit(1, 2, -1, lifted)
    assert m.terms == {(1, 2, -1): lifted}
    assert _no_zero_entries(m)
    d = diag_matrix((coeff, 0, F(1, 3)))
    assert d == diag_matrix((lifted, RF_ZERO, RatFunc.lift(F(1, 3))))
    assert d.terms == {(0, 0, 0): lifted, (2, 2, 0): RatFunc.lift(F(1, 3))}
    assert _no_zero_entries(d)
