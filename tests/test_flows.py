"""mKdV fields on generated families, exact tangents, and decomposition."""

import random
from fractions import Fraction as F

import pytest
import sympy as sp
from hypothesis import given, seed, settings, strategies as st

from mkdv_a22 import cli, exact
from mkdv_a22.exact import ONE, X, RatFunc, poly_lcm
from mkdv_a22.flows import (
    DecomposeResult,
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

from helpers import rf


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


def test_mkdv_field_matches_whole_dressing_product():
    # conjugating one factor at a time and keeping only the degrees the
    # remaining factors can still lower to zero loses nothing against the
    # degree-zero part of the whole P * L1**r * P**(-1)
    rng = random.Random(45)
    words = [(0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 0)]
    for js in words:
        for c in (sample_c(js, rng), (F(0),) * len(js)):
            trace = generate_multistep(js, c)
            p, p_inv = dressing_product(trace)
            for r in (1, 5, 7, 11, 13):
                whole = grade_project(p * lambda_power(r) * p_inv, 0).entry(0, 0, 0)
                assert mkdv_field(trace, r) == -whole.derivative(), (js, c, r)


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
    # cleared: x + 1 = gamma * (x**2 + 1); row 0 gives gamma = 1 and the
    # residual -x**2 + x first fails at x**1
    assert dec == dense_decompose(field, tangents) == DecomposeResult((F(1),), False, (1, F(1)))
    # row 0 alone (0 = 1) is inconsistent: no prefix is, so zero gamma and no witness
    assert decompose_flow(RatFunc.one(), [rf(X, ONE)]) == DecomposeResult((F(0),), False)
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
    # the part kept by conjugate == grade_project of the full conjugate, for
    # dressing products of every basic word of length <= 3 and for pairs of
    # positive degree (conjugate must not assume p_inv tops out at degree 0),
    # on single degrees and on windows with gaps
    mixed = (
        lambda_power(1)
        + LaurentMat({(0, 0, 0): rf(X), (1, 1, 0): rf(ONE), (2, 2, 0): rf(-X - 1)})
        + LaurentMat({(2, 0, -1): rf(ONE, X + 2), (0, 2, 1): rf(X * X)})
    )
    assert grade_support(mixed) == [-1, 0, 1]
    ms = [lambda_power(r) for r in (-1, 1, 5, 7)] + [mixed]
    params = (F(-3, 2), F(2), F(7, 4))
    pairs = [
        dressing_product(generate_multistep(js, params[: len(js)]))
        for js in [(), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)]
    ]
    p, p_inv = pairs[-1]
    pairs += [
        (lambda_power(1), lambda_power(-1)),
        (lambda_power(-2), lambda_power(2)),
        (lambda_power(4) * p, p_inv * lambda_power(-4)),
        (p * lambda_power(-4), lambda_power(4) * p_inv),
    ]
    windows = [range(d, d + 1) for d in range(-3, 4)]
    windows += [range(-3, 4, 3), range(-4, 5, 4), range(2, -5, -3), range(0, 0)]
    for p, p_inv in pairs:
        for m in ms:
            full = p * m * p_inv
            for degrees in windows:
                expected = LaurentMat.zero()
                for d in degrees:
                    expected = expected + grade_project(full, d)
                assert conjugate(p, m, p_inv, degrees) == expected, (p, m, degrees)
    total = LaurentMat.zero()
    for d in grade_support(m):
        total = total + grade_project(m, d)
    assert total == m
    assert all(grade_project(lambda_power(r), d).is_zero() for r in (-3, 2, 5) for d in (0, 1) if d != r)


def dense_gauss_jordan(rows, ncols):
    """Column-pivot reduction of augmented rows in place (last column is the
    rhs); returns (pivots, bad_row) with pivots mapping column -> row and
    bad_row the first inconsistent row, or None.  The oracle's own copy, so
    it shares no code with the engine's row-at-a-time elimination."""
    nrows = len(rows)
    pivots, rank = {}, 0
    for col in range(ncols):
        pr = next((r for r in range(rank, nrows) if rows[r][col] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = F(1) / F(rows[rank][col])
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    return pivots, next((r for r in range(rank, nrows) if rows[r][ncols] != 0), None)


def dense_solve(a, b):
    """One solution of A x = b with free variables zero, or None."""
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    if not rows:
        return []
    ncols = len(rows[0]) - 1
    pivots, bad = dense_gauss_jordan(rows, ncols)
    if bad is not None:
        return None
    x = [F(0)] * ncols
    for col, r in pivots.items():
        x[col] = rows[r][ncols]
    return x


def dense_decompose(field, tangents):
    """decompose_flow as it was before its one-pass elimination: a dense
    solve over every coefficient row, a RatFunc residual, and a re-solve of
    every prefix for the witness, kept as the oracle."""
    den = field.den
    for t in tangents:
        den = poly_lcm(den, t.den)
    target = field.num * den.divexact(field.den)
    cleared = [t.num * den.divexact(t.den) for t in tangents]
    ncoeffs = max([target.degree() + 1] + [p.degree() + 1 for p in cleared] + [1])
    rows = [[p.coeff(k) for p in cleared] for k in range(ncoeffs)]
    rhs = [target.coeff(k) for k in range(ncoeffs)]
    sol = dense_solve(rows, rhs)
    if sol is not None:
        gamma = tuple(F(g) for g in sol)
        residual = field
        for g, t in zip(gamma, tangents):
            residual = residual - t * g
        assert residual.is_zero()
        return DecomposeResult(gamma, True)
    for keep in range(ncoeffs - 1, 0, -1):
        sol = dense_solve(rows[:keep], rhs[:keep])
        if sol is not None:
            gamma = tuple(F(g) for g in sol)
            resid = target
            for g, p in zip(gamma, cleared):
                resid = resid - p * g
            k = next(i for i, cc in enumerate(resid.coeffs) if cc != 0)
            return DecomposeResult(gamma, False, (k, F(resid.coeff(k))))
    return DecomposeResult(tuple(F(0) for _ in tangents), False, None)


SMALL_RATS = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def decompose_inputs(draw):
    """(kind, field, tangents): the family tangents of a short word, a field
    in their span, and either those tangents ("consistent"), the tangents
    with the first repeated ("repeated", rank below m), or a field pushed
    out of the span ("inconsistent")."""
    js = draw(st.sampled_from([(0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)]))
    cs = draw(st.lists(SMALL_RATS, min_size=len(js), max_size=len(js)))
    tangents = family_tangents(generate_multistep(js, tuple(cs)))
    gamma = draw(st.lists(SMALL_RATS, min_size=len(js), max_size=len(js)))
    field = RatFunc.zero()
    for g, t in zip(gamma, tangents):
        field = field + t * g
    kind = draw(st.sampled_from(["consistent", "repeated", "inconsistent"]))
    if kind == "repeated":
        tangents = tangents + tangents[:1]
    if kind == "inconsistent":
        field = field + rf(ONE, X**5 + draw(st.integers(1, 9)))
    return kind, field, tangents


def test_decompose_flow_matches_dense_oracle(monkeypatch):
    # the one-pass elimination never reaches the dense solver
    def no_dense_solve(a, b):
        raise AssertionError("decompose_flow called solve_linear")

    monkeypatch.setattr(exact, "solve_linear", no_dense_solve)
    kinds = set()

    @seed(20261021)
    @settings(max_examples=200, deadline=None, database=None)
    @given(decompose_inputs())
    def check(case):
        kind, field, tangents = case
        assert decompose_flow(field, tangents) == dense_decompose(field, tangents)
        kinds.add(kind)

    check()
    assert kinds == {"consistent", "repeated", "inconsistent"}
