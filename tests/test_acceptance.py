"""Acceptance criteria, one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` (or ``-v``) to see the
PASS/FAIL lines.  Stated time targets are printed for inspection; the
assertions themselves are the exact (or, for the residual check, float)
conditions.
"""

import random
import time
from fractions import Fraction as F

from mkdv_a22.exact import ONE, X, Poly, RatFunc
from mkdv_a22.flows import flow_sample, mkdv_field, vanishing_threshold
from mkdv_a22.generation import (
    PolyPair,
    bethe_residuals,
    degree_vector,
    degree_walk,
    generate_multistep,
    sample_c,
)
from mkdv_a22.loop import (
    LaurentMat,
    exp_dressing,
    grade_project,
    lambda_decompose,
    lambda_power,
    lambda_recompose,
    diag_matrix,
)
from mkdv_a22.miura import (
    consistency_check,
    d_miura_map,
    embed_a1,
    miura_from_pair,
    miura_from_trace,
    miura_map,
    ricatti_check,
)
from mkdv_a22.psdo import cube_root, frac_power_plus, from_diffop3
from mkdv_a22.miura import DiffOp3


def report(n, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n} [{name}]: {status}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def rand_ratfunc(rng, num_deg=2, den_deg=2):
    num = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(num_deg + 1)])
    den = Poly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(den_deg)] + [F(1)])
    return RatFunc(num if not num.is_zero() else ONE, den)


def criterion4_cases():
    """The (J, c) sample plan shared by criteria 4 and 5."""
    rng = random.Random(7)
    cases = []
    for j_seq in ((0, 1), (1, 0), (0, 1, 0), (1, 0, 1), (0, 1, 0, 1), (1, 0, 1, 0)):
        for _ in range(3):
            cases.append((j_seq, sample_c(j_seq, rng)))
    return cases


def test_criterion_1_degree_tables():
    t0 = time.time()
    ok = [tuple(k) for k in degree_walk((0, 1, 0, 1, 0, 1))] == [
        (0, 0), (1, 0), (1, 2), (8, 2), (8, 7), (21, 7), (21, 15),
    ]
    ok = ok and [tuple(k) for k in degree_walk((1, 0, 1, 0, 1, 0))] == [
        (0, 0), (0, 1), (5, 1), (5, 5), (16, 5), (16, 12), (33, 12),
    ]
    for n in range(1, 6):
        ok = ok and tuple(degree_vector((0, 1) * n)) == (
            3 * n * n - 2 * n,
            (3 * n * n + n) // 2,
        )
        word = ((1, 0) * (n + 1))[: 2 * n + 1]
        ok = ok and tuple(degree_vector(word)) == (
            3 * n * n + 2 * n,
            (3 * n * n + 5 * n + 2) // 2,
        )
    report(1, "degree tables", ok, f"{time.time() - t0:.2f}s, target <1s")


def test_criterion_2_two_step_families():
    t0 = time.time()
    rng = random.Random(2)
    ok = True
    for _ in range(5):
        c1 = F(rng.randint(-9, 9), rng.randint(1, 4))
        c2 = F(rng.randint(-9, 9), rng.randint(1, 4))
        got = generate_multistep((0, 1), (c1, c2)).final
        want = PolyPair(X + Poly([c1]), (X + Poly([c1])) ** 2 + Poly([c2 - c1 * c1]))
        ok = ok and got == want
        got10 = generate_multistep((1, 0), (c1, c2)).final
        want10 = PolyPair((X + Poly([c1])) ** 5 + Poly([c2 - c1 ** 5]), X + Poly([c1]))
        ok = ok and got10 == want10 and got10.y0.degree() == 5
    report(2, "two-step families", ok, f"{time.time() - t0:.2f}s, target <1s")


def test_criterion_3a_one_step_direction0():
    t0 = time.time()
    ok = True
    for c in (F(3), F(-1, 2), F(7, 4)):
        s = flow_sample((0,), (c,), 1)
        ok = ok and s.gamma == (F(-1),) and s.residual_zero
        trace = generate_multistep((0,), (c,))
        for r in (5, 7, 11, 13):
            ok = ok and mkdv_field(trace, r).is_zero()
    report("3a", "one-step family, direction 0", ok, f"{time.time() - t0:.2f}s")


def test_criterion_3b_one_step_direction1_vanishing():
    t0 = time.time()
    ok = True
    for c in (F(3), F(-1, 2), F(7, 4)):
        trace = generate_multistep((1,), (c,))
        for r in (5, 7, 11, 13):
            ok = ok and vanishing_threshold((1,), r) and mkdv_field(trace, r).is_zero()
    report("3b", "one-step family, direction 1, vanishing above threshold", ok,
           f"{time.time() - t0:.2f}s")


def test_criterion_3c_one_step_direction1_gamma():
    # Stated expected value: -1/2.  Exact evaluation of the dressing
    # conjugate built from exp(g*(2F1+2F2)) = 1 + 2g(e11+e22)L^-1 + 2g^2 e11 L^-2
    # yields a field of 2/(x+c)^2 in the h0 coordinate and hence gamma = -1
    # (the degree-1 flow is translation, d/dt1 v = -v' for every attached
    # oper, which forces gamma_1 = -1 on any one-parameter translation
    # family).  A factor-1/2 value is incompatible with that exponential;
    # see README, "Known value notes".  The assertion keeps the stated
    # value and therefore fails.
    t0 = time.time()
    s = flow_sample((1,), (F(3),), 1)
    ok = s.residual_zero and s.gamma == (F(-1, 2),)
    report("3c", "one-step family, direction 1, stated gamma = -1/2", ok,
           f"computed gamma = {s.gamma[0]}, {time.time() - t0:.2f}s")


def test_criterion_4_main_theorem_samples():
    t0 = time.time()
    ok = True
    checked = 0
    for j_seq, c in criterion4_cases():
        for r in (1, 5, 7, 11, 13):
            s = flow_sample(j_seq, c, r)
            ok = ok and s.residual_zero
            if vanishing_threshold(j_seq, r):
                ok = ok and s.field.is_zero()
            checked += 1
    report(4, "main-theorem decomposition at samples", ok,
           f"{checked} cases, {time.time() - t0:.1f}s, target <120s")


def test_criterion_5_oper_equality_and_riccati():
    t0 = time.time()
    ok = True
    from mkdv_a22.miura import MiuraOper, gauge_step
    from mkdv_a22.exact import RF_ZERO

    for j_seq, c in criterion4_cases():
        trace = generate_multistep(j_seq, c)
        ok = ok and miura_from_trace(trace).v == miura_from_pair(trace.final).v
        oper = MiuraOper(RF_ZERO)
        for j, g in zip(trace.J, trace.gs):
            ok = ok and ricatti_check(oper, g, j)
            oper = gauge_step(oper, g, j)
    report(5, "oper equality and Riccati chain", ok, f"{time.time() - t0:.1f}s")


def test_criterion_6_gauge_collapse():
    t0 = time.time()
    rng = random.Random(6)
    ok = True
    for j_seq, i_map in (((0, 1, 0), 1), ((1, 0, 1), 0), ((0, 1), 0), ((1, 0), 1)):
        c = list(sample_c(j_seq, rng))
        images = []
        for delta in (0, 2):
            c2 = list(c)
            c2[-1] += delta
            trace = generate_multistep(j_seq, c2)
            images.append(miura_map(i_map, embed_a1(miura_from_trace(trace))))
        ok = ok and images[0] == images[1]
    report(6, "gauge collapse of the scalar maps", ok,
           f"{time.time() - t0:.1f}s, target <10s")


def test_criterion_7_kernel_lemma():
    t0 = time.time()
    rng = random.Random(77)
    ok = True
    for j_seq in ((0,), (1,), (0, 1), (1, 0), (0, 1, 0)):
        c = sample_c(j_seq, rng)
        pair = generate_multistep(j_seq, c).final
        oper = miura_from_pair(pair)
        k0 = d_miura_map(0, oper, RatFunc(pair.y0, pair.y1 ** 2))
        k1 = d_miura_map(1, oper, RatFunc(pair.y1 ** 4, pair.y0 ** 2))
        ok = ok and k0.u1.is_zero() and k0.u0.is_zero()
        ok = ok and k1.u1.is_zero() and k1.u0.is_zero()
    report(7, "kernel directions of the derivative maps", ok, f"{time.time() - t0:.1f}s")


def test_criterion_8_loop_identities():
    t0 = time.time()
    one = RatFunc.one()
    ok = all(
        lambda_power(r) * lambda_power(s) == lambda_power(r + s)
        for r in range(-6, 7)
        for s in range(-6, 7)
    )
    for m in range(-2, 3):
        plus = LaurentMat(
            {(0, 2, 2 * m + 1): one, (1, 0, 2 * m): one, (2, 1, 2 * m): one}
        )
        minus = LaurentMat(
            {(0, 1, 2 * m): one, (1, 2, 2 * m): one, (2, 0, 2 * m - 1): one}
        )
        ok = ok and lambda_power(6 * m + 1) == plus and lambda_power(6 * m - 1) == minus
    rng = random.Random(8)
    for _ in range(3):
        g = rand_ratfunc(rng)
        for j in (0, 1):
            ok = ok and exp_dressing(g, j) * exp_dressing(-g, j) == LaurentMat.identity()
        m = LaurentMat(
            {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)): rand_ratfunc(rng)
                for _ in range(6)
            }
        )
        parts = lambda_decompose(m)
        ok = ok and lambda_recompose(parts) == m
        b0 = [diag for d, diag in parts if d == 0]
        proj = grade_project(m, 0)
        ok = ok and ((diag_matrix(b0[0]) == proj) if b0 else proj.is_zero())
    report(8, "loop-algebra identities", ok, f"{time.time() - t0:.2f}s, target <1s")


def test_criterion_9_psdo():
    t0 = time.time()
    rng = random.Random(9)
    ok = True
    for _ in range(10):
        op = DiffOp3(rand_ratfunc(rng), rand_ratfunc(rng))
        root = cube_root(op, 8)
        cube = root * root * root
        target = from_diffop3(op)
        ok = ok and all(cube.coeff(k) == target.coeff(k) for k in range(cube.floor, 4))
    for _ in range(3):
        op = DiffOp3(rand_ratfunc(rng, 1, 1), rand_ratfunc(rng, 1, 1))
        for r in (1, 2, 4, 5):
            plus = frac_power_plus(op, r)  # includes the depth-stability check
            lop = from_diffop3(op)
            comm = lop * plus - plus * lop
            top = comm.top()
            ok = ok and (top is None or top <= 1)
        deep = cube_root(op, 12)
        ok = ok and deep.truncate(-7) == cube_root(op, 8)
    report(9, "pseudodifferential calculus", ok,
           f"{time.time() - t0:.1f}s, target <30s")


def test_criterion_10_mkdv_to_kdv():
    t0 = time.time()
    rng = random.Random(10)
    ok = True
    checked = 0
    for j_seq in ((), (0,), (1,), (0, 1), (1, 0), (0, 1, 0), (1, 0, 1)):
        for _ in range(2):
            c = sample_c(j_seq, rng) if j_seq else ()
            trace = generate_multistep(j_seq, c)
            for r in (1, 5):
                for i in (0, 1, 2):
                    ok = ok and consistency_check(trace, r, i)
                    checked += 1
    report(10, "mKdV-to-KdV consistency", ok,
           f"{checked} cases, {time.time() - t0:.1f}s, target <120s")


def test_criterion_11_numeric_residuals():
    t0 = time.time()
    rng = random.Random(11)
    ok = True
    worst = 0.0
    for j_seq in ((0,), (0, 1), (1, 0), (0, 1, 0), (0, 1, 0, 1)):
        c = sample_c(j_seq, rng)
        pair = generate_multistep(j_seq, c).final
        rep = bethe_residuals(pair, 1e-8)
        ok = ok and rep.ok
        worst = max(worst, rep.max_residual)
    report(11, "numeric critical-equation residuals", ok,
           f"max {worst:.2e} < 1e-8, {time.time() - t0:.1f}s, target <10s")
