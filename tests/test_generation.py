"""Degree bookkeeping, Wronskian generation, fertility, and numeric residuals."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, seed, settings, strategies as st

from mkdv_a22.exact import ONE, X, Poly, solve_linear, wronskian
from mkdv_a22.generation import (
    DegreeVector,
    EMPTY_PAIR,
    InfertileError,
    PolyPair,
    _solve_below,
    bethe_residuals,
    check_basic,
    degree_transform,
    degree_vector,
    degree_walk,
    generate_multistep,
    generate_step,
    is_fertile,
    is_generic,
    sample_c,
    sample_trace,
    wronskian_rhs,
    wronskian_solve,
)
from mkdv_a22.roots import RootFindingError, durand_kerner


# --- degree arithmetic ----------------------------------------------------------

def test_degree_transform_values():
    assert degree_transform(DegreeVector(0, 0), 0) == (1, 0)
    assert degree_transform(DegreeVector(1, 2), 0) == (8, 2)
    assert degree_transform(DegreeVector(0, 0), 1) == (0, 1)


def test_degree_walks():
    assert [tuple(k) for k in degree_walk((0, 1, 0, 1, 0, 1))] == [
        (0, 0), (1, 0), (1, 2), (8, 2), (8, 7), (21, 7), (21, 15),
    ]
    assert [tuple(k) for k in degree_walk((1, 0, 1, 0, 1, 0))] == [
        (0, 0), (0, 1), (5, 1), (5, 5), (16, 5), (16, 12), (33, 12),
    ]
    assert degree_vector(()) == (0, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_degree_closed_forms(n):
    assert tuple(degree_vector((0, 1) * n)) == (3 * n * n - 2 * n, (3 * n * n + n) // 2)
    word = ((1, 0) * (n + 1))[: 2 * n + 1]
    assert tuple(degree_vector(word)) == (3 * n * n + 2 * n, (3 * n * n + 5 * n + 2) // 2)


def test_basic_word_validation():
    assert check_basic((0, 1, 0)) == (0, 1, 0)
    with pytest.raises(ValueError):
        check_basic((0, 0))
    with pytest.raises(ValueError):
        check_basic((2,))


# --- genericity ------------------------------------------------------------------

def test_is_generic():
    assert is_generic(EMPTY_PAIR)
    assert not is_generic(PolyPair(X * X, ONE))
    assert not is_generic(PolyPair(X + 1, X + 1))
    assert is_generic(PolyPair(X + 1, X - 1))


# --- one Wronskian step -----------------------------------------------------------

def test_wronskian_solve_examples():
    a, base = wronskian_solve(ONE, ONE, 1)
    assert (a, base) == (1, X)

    a, base = wronskian_solve(ONE, X + 3, 2)
    assert a == 2 and base == X * X + 6 * X
    assert wronskian(ONE, base) == (X + 3) * 2

    a, base = wronskian_solve(ONE, (X + 1) ** 4, 5)
    assert a == 5 and base == (X + 1) ** 5 - ONE
    assert wronskian(ONE, base) == (X + 1) ** 4 * 5


def test_wronskian_solve_rejects_non_increasing():
    with pytest.raises(ValueError):
        wronskian_solve(X, ONE, 1)


def test_wronskian_solve_infertile():
    # from the pair (x, x) in direction 1: x*t' - t = x forces the
    # x-coefficient equation 0 = 1
    with pytest.raises(InfertileError):
        wronskian_solve(X, X, 2)
    # deg rhs below target_degree + deg y - 1: only a lower-degree b exists
    with pytest.raises(InfertileError):
        wronskian_solve(ONE, ONE, 2)


def _dense_solve_below(y, target, degree):
    """Oracle: the matrix of b -> Wr(y, b) on x**i, i < degree, i != deg y,
    with Wr(y, x**i) = sum_k (i - k) y_k x**(k + i - 1), solved densely."""
    unknowns = [i for i in range(degree) if i != y.degree()]
    nrows = max(y.degree() + degree, target.degree() + 1)
    rows = [[(2 * i - n - 1) * y.coeff(n + 1 - i) for i in unknowns] for n in range(nrows)]
    sol = solve_linear(rows, [target.coeff(n) for n in range(nrows)])
    if sol is None:
        return None
    coeffs = [F(0)] * degree
    for i, b in zip(unknowns, sol):
        coeffs[i] = b
    return coeffs


def _random_poly(rng, degree, lead):
    return Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree)] + [lead])


def test_back_substitution_matches_dense_oracle():
    rng = random.Random(31)
    solvable = unsolvable = 0
    for case in range(300):
        d = rng.randint(0, 4)
        lead = rng.choice([1, 1, 2, F(-1, 3), F(5, 2)])
        y = X**d * lead if case % 4 == 0 else _random_poly(rng, d, lead)
        degree = rng.randint(1, 6)
        b0 = Poly([F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(degree)])
        target = wronskian(y, b0)
        if case % 3 == 1:
            target = target + X ** rng.randint(0, degree + d) * F(rng.randint(1, 3))
        elif case % 3 == 2:
            target = _random_poly(rng, rng.randint(0, degree + d), 1)
        got = _solve_below(y, target, degree)
        want = _dense_solve_below(y, target, degree)
        assert (got is None) == (want is None), (y, target, degree)
        if got is None:
            unsolvable += 1
            continue
        solvable += 1
        assert got == Poly(want), (y, target, degree)
        assert got.degree() < degree and got.coeff(d) == 0
        assert wronskian(y, got) == target
        if case % 3 == 0:
            assert got == b0 - y * (b0.coeff(d) / F(lead))
    assert solvable > 50 and unsolvable > 50
    # Wr(0, b) = 0: solvable exactly when the target is zero
    assert _dense_solve_below(Poly(), Poly(), 2) == [0, 0]
    assert _solve_below(Poly(), Poly(), 2) == Poly(_dense_solve_below(Poly(), Poly(), 2)) == Poly()
    assert _solve_below(Poly(), ONE, 2) is _dense_solve_below(Poly(), ONE, 2) is None


SMALL_RATS = st.fractions(min_value=-30, max_value=30, max_denominator=7)
# rational contents other than +-1, with numerators and denominators up to
# 2**40, so the integer residual meets large scale factors
CONTENTS = st.builds(F, st.integers(-(2**40), 2**40).filter(bool), st.integers(2, 2**40)).filter(
    lambda c: abs(c) != 1
)


@st.composite
def triangular_systems(draw):
    """(y, target, degree, b) with y zero one time in ten, otherwise of
    degree 0..5 with a leading integer 2..40 times a rational content.  The
    target is a rational content times Wr(y, b0) for a random b0 of degree
    < ``degree``, that plus one monomial, a random polynomial or zero.  For
    the first kind b = content * b0 solves the system, else b is None."""
    if draw(st.integers(0, 9)) == 0:
        y = Poly()
    else:
        d = draw(st.integers(0, 5))
        low = draw(st.lists(st.integers(-30, 30), min_size=d, max_size=d))
        y = Poly([*low, draw(st.integers(2, 40))]) * draw(CONTENTS)
    degree = draw(st.integers(0, 8))
    b0 = Poly(draw(st.lists(SMALL_RATS, min_size=degree, max_size=degree)))
    kind = draw(st.sampled_from(["wronskian", "plus monomial", "random", "zero"]))
    rows = degree + max(y.degree(), 0)
    target = Poly()
    if kind == "wronskian":
        target = wronskian(y, b0)
    elif kind == "plus monomial":
        target = wronskian(y, b0) + X ** draw(st.integers(0, rows))
    elif kind == "random":
        target = Poly(draw(st.lists(SMALL_RATS, min_size=1, max_size=rows + 1)))
    scale = draw(CONTENTS)
    return y, target * scale, degree, b0 * scale if kind == "wronskian" else None


@seed(20261019)
@settings(max_examples=200, deadline=None, database=None)
@given(triangular_systems())
def test_back_substitution_property_against_dense_oracle(system):
    y, target, degree, b = system
    got = _solve_below(y, target, degree)
    want = _dense_solve_below(y, target, degree)
    assert (got is None) == (want is None)
    if b is not None:  # b solves the system, so a solution exists
        assert got is not None
    if got is None:
        return
    assert got == Poly(want)
    assert got.degree() < degree and got.coeff(y.degree()) == 0
    assert wronskian(y, got) == target
    if b is not None and not y.is_zero():
        # the solution is unique once the coefficient at x**deg y is pinned
        assert got == b - y * (b.coeff(y.degree()) / y.leading())


def test_generate_step_examples():
    c1, c2 = F(3), F(5)
    p1 = generate_step(EMPTY_PAIR, 0, c1)
    assert p1 == PolyPair(X + 3, ONE)
    p2 = generate_step(p1, 1, c2)
    assert p2 == PolyPair(X + 3, X * X + 6 * X + 5)
    # same pair as (x+c1)^2 + c2 - c1^2
    assert p2.y1 == (X + 3) ** 2 + Poly([c2 - c1 * c1])
    p3 = generate_step(PolyPair(ONE, X + 3), 0, c2)
    assert p3.y0 == (X + 3) ** 5 - Poly([F(3) ** 5]) + Poly([c2])


def test_generate_multistep_traces():
    t = generate_multistep((0, 1), (F(2), F(5)))
    assert t.final == PolyPair(X + 2, X * X + 4 * X + 5)
    assert len(t.pairs) == 3 and t.pairs[0] == EMPTY_PAIR
    t0 = generate_multistep((), ())
    assert t0.final == EMPTY_PAIR

    rng = random.Random(21)
    c = sample_c((0, 1, 0), rng)
    t3 = generate_multistep((0, 1, 0), c)
    assert tuple(t3.final.degrees()) == (8, 2)

    with pytest.raises(ValueError):
        generate_multistep((0, 1), (F(1),))


def test_trace_invariants_and_recorded_constants():
    rng = random.Random(22)
    for j_seq in ((0, 1), (1, 0), (0, 1, 0), (1, 0, 1, 0)):
        c = sample_c(j_seq, rng)
        t = generate_multistep(j_seq, c)
        for step, (j, a) in enumerate(zip(t.J, t.consts)):
            old, new = t.pairs[step], t.pairs[step + 1]
            # the untouched component is carried over unchanged
            assert old.component(1 - j) == new.component(1 - j)
            assert wronskian(old.component(j), new.component(j)) == wronskian_rhs(old, j) * a
            assert new.y0.is_monic() and new.y1.is_monic()
        assert t.final.degrees() == degree_vector(j_seq)


def test_distinct_parameters_give_distinct_pairs():
    rng = random.Random(23)
    for j_seq in ((0, 1), (1, 0, 1)):
        c1 = sample_c(j_seq, rng)
        c2 = sample_c(j_seq, rng)
        if c1 == c2:
            c2 = tuple(ci + 1 for ci in c2)
        assert generate_multistep(j_seq, c1).final != generate_multistep(j_seq, c2).final


# --- fertility ---------------------------------------------------------------------

def _fertile_oracle(pair: PolyPair, j: int) -> bool:
    """Brute-force solvability of Wr(y_j, t) = rhs with sympy, trying every
    candidate degree up to the analytic bound."""
    x = sp.symbols('x')
    y = sum(sp.Rational(c) * x ** k for k, c in enumerate(pair.component(j).coeffs))
    rhs_poly = wronskian_rhs(pair, j)
    rhs = sum(sp.Rational(c) * x ** k for k, c in enumerate(rhs_poly.coeffs))
    bound = max(pair.component(j).degree(), rhs_poly.degree() + 1 - pair.component(j).degree())
    if bound < 0:
        return False
    coeffs = sp.symbols(f'b0:{bound + 1}')
    t = sum(b * x ** k for k, b in enumerate(coeffs))
    eqn = sp.expand(y * sp.diff(t, x) - sp.diff(y, x) * t - rhs)
    system = [sp.Eq(eqn.coeff(x, k), 0) for k in range(sp.degree(eqn, x) + 1)]
    return bool(sp.solve(system, coeffs))


def test_is_fertile_against_sympy_oracle():
    cases = [
        EMPTY_PAIR,
        PolyPair(X, X),
        PolyPair(X + 1, ONE),
        PolyPair(X * X + Poly([F(-1)]), X + 3),
    ]
    for pair in cases:
        expected = all(_fertile_oracle(pair, j) for j in (0, 1))
        assert is_fertile(pair) == expected
    assert is_fertile(EMPTY_PAIR)
    assert not is_fertile(PolyPair(X, X))


def test_generated_pairs_are_fertile_and_generic():
    rng = random.Random(24)
    for j_seq in ((0,), (1,), (0, 1), (1, 0, 1)):
        c = sample_c(j_seq, rng)
        pair = generate_multistep(j_seq, c).final
        assert is_fertile(pair)
        assert is_generic(pair)


@pytest.mark.parametrize("s", [0, 1, 7, 2024])
def test_sample_trace_is_the_generation_run_of_sample_c(s):
    for j_seq in ((), (0,), (1,), (0, 1), (1, 0, 1), (0, 1, 0, 1)):
        rng_trace, rng_c = random.Random(s), random.Random(s)
        trace = sample_trace(j_seq, rng_trace)
        c = sample_c(j_seq, rng_c)
        assert trace.c == c
        assert trace == generate_multistep(j_seq, c)
        assert all(is_generic(p) for p in trace.pairs)
        # the same draws, so every seeded caller keeps its outputs
        assert rng_trace.getstate() == rng_c.getstate()
    # the empty word has no parameters and draws nothing
    rng = random.Random(s)
    state = rng.getstate()
    assert sample_c((), rng) == ()
    assert rng.getstate() == state


# --- numeric residuals ---------------------------------------------------------------

def test_durand_kerner_roots():
    roots = sorted(durand_kerner([complex(-6), complex(11), complex(-6), complex(1)]), key=lambda z: z.real)
    for got, want in zip(roots, (1, 2, 3)):
        assert abs(got - want) < 1e-9
    assert durand_kerner([complex(5)]) == []
    with pytest.raises(ValueError):
        durand_kerner([complex(0)])
    with pytest.raises(RootFindingError):
        durand_kerner([complex(-2), complex(0), complex(1)], max_iter=1)


def test_bethe_residuals_trivial_and_generated():
    assert bethe_residuals(PolyPair(X + 9, ONE)).max_residual == 0.0
    t = generate_multistep((0, 1), (F(2), F(5)))
    rep = bethe_residuals(t.final, 1e-8)
    assert rep.ok and rep.n_roots == (1, 2)
    with pytest.raises(ValueError):
        bethe_residuals(PolyPair(X * X, ONE))


def test_perturbed_pair_fails_residuals():
    # shifting the constant of y1 moves along the family (it is the second
    # generation parameter), so spoil y0 instead
    t = generate_multistep((0, 1), (F(2), F(5)))
    spoiled = PolyPair(t.final.y0 + Poly([F(1, 3)]), t.final.y1)
    assert is_generic(spoiled)
    rep = bethe_residuals(spoiled, 1e-8)
    assert not rep.ok and rep.max_residual > 1e-4
