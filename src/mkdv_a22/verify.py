"""Seeded verification suites over every module.

Each suite runs a list of named exact checks (plus one floating-point suite
for the critical-equation residuals) and returns a report; the CLI maps a
report to an exit code and a human or JSON rendering.  All randomness comes
from an explicit seed echoed in the report, so reruns are byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .exact import (
    ONE,
    Poly,
    RatFunc,
    laurent_at_infinity,
    wronskian,
)
from .generation import (
    InfertileError,
    degree_walk,
    degree_vector,
    generate_multistep,
    is_fertile,
    is_generic,
    bethe_residuals,
    sample_rational,
    sample_trace,
    wronskian_rhs,
)
from .loop import (
    CARTAN,
    LaurentMat,
    exp_dressing,
    grade_project,
    grade_support,
    lambda_decompose,
    lambda_power,
    lambda_recompose,
)
from .miura import (
    diagram_sides,
    embed_a1,
    gauge_step,
    miura_from_pair,
    miura_from_trace,
    miura_map,
    d_miura_map,
    ricatti_check,
)
from .flows import (
    decompose_flow,
    family_tangents,
    flow_sample,
    mkdv_field,
    vanishing_threshold,
)
from .psdo import DiffOp3, cube_root, frac_power_plus, from_diffop3, kdv_field


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by the verification suites and the CLI."""

    seed: int = 0
    samples: int = 3
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.samples < 1:
            raise ValueError("samples must be at least 1")
        if not self.tolerance > 0:  # also rejects NaN
            raise ValueError("tolerance must be positive")
        if not math.isfinite(self.tolerance):  # every residual passes an infinite one
            raise ValueError("tolerance must be finite")


@dataclass(frozen=True)
class CaseResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    seed: int
    cases: List[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases)

    def add(self, name: str, ok: bool, detail: str = ""):
        self.cases.append(CaseResult(name, bool(ok), detail))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "ok": self.ok,
            "cases": [
                {"name": c.name, "ok": c.ok, "detail": c.detail} for c in self.cases
            ],
        }

    def lines(self) -> List[str]:
        out = [
            f"[{'PASS' if c.ok else 'FAIL'}] {c.name}" + (f"  ({c.detail})" if c.detail else "")
            for c in self.cases
        ]
        out.append(
            f"suite {self.suite}: {'PASS' if self.ok else 'FAIL'} "
            f"({sum(c.ok for c in self.cases)}/{len(self.cases)} cases, seed {self.seed})"
        )
        return out


def basic_words(ms: Sequence[int]) -> List[Tuple[int, ...]]:
    """The basic (alternating) words of each length in ``ms``, the one that
    starts with 0 first; length 0 has only the empty word."""
    return [
        tuple((first + k) % 2 for k in range(m))
        for m in ms
        for first in ((0, 1) if m else (0,))
    ]


def verify_degrees(config: RunConfig) -> SuiteReport:
    rep = SuiteReport("degrees", config.seed)
    walk0 = [(0, 0), (1, 0), (1, 2), (8, 2), (8, 7), (21, 7), (21, 15)]
    walk1 = [(0, 0), (0, 1), (5, 1), (5, 5), (16, 5), (16, 12), (33, 12)]
    rep.add(
        "walk (0,1,0,1,0,1)",
        [tuple(k) for k in degree_walk((0, 1, 0, 1, 0, 1))] == walk0,
    )
    rep.add(
        "walk (1,0,1,0,1,0)",
        [tuple(k) for k in degree_walk((1, 0, 1, 0, 1, 0))] == walk1,
    )
    for n in range(1, 6):
        word = (0, 1) * n
        expect = (3 * n * n - 2 * n, (3 * n * n + n) // 2)
        rep.add(f"closed form 2n steps of (0,1,...), n={n}",
                tuple(degree_vector(word)) == expect)
    for n in range(0, 5):
        word = ((1, 0) * (n + 1))[: 2 * n + 1]
        expect = (3 * n * n + 2 * n, (3 * n * n + 5 * n + 2) // 2)
        rep.add(f"closed form 2n+1 steps of (1,0,...), n={n}",
                tuple(degree_vector(word)) == expect)
    return rep


def _random_ratfunc(rng: random.Random, num_deg=2, den_deg=2) -> RatFunc:
    num = Poly([sample_rational(rng) for _ in range(rng.randint(0, num_deg) + 1)])
    den = Poly([sample_rational(rng) for _ in range(den_deg)] + [Fraction(1)])
    if num.is_zero():
        num = ONE
    return RatFunc(num, den)


def verify_loop(config: RunConfig) -> SuiteReport:
    rep = SuiteReport("loop", config.seed)
    rng = random.Random(config.seed)
    ident = LaurentMat.identity()

    ok = all(
        lambda_power(r) * lambda_power(s) == lambda_power(r + s)
        for r in range(-6, 7)
        for s in range(-6, 7)
    )
    rep.add("power group law on [-6,6]^2", ok)

    ok = True
    for m in range(-2, 3):
        b_plus = LaurentMat(
            {(0, 2, 2 * m + 1): RatFunc.one(), (1, 0, 2 * m): RatFunc.one(), (2, 1, 2 * m): RatFunc.one()}
        )
        b_minus = LaurentMat(
            {(0, 1, 2 * m): RatFunc.one(), (1, 2, 2 * m): RatFunc.one(), (2, 0, 2 * m - 1): RatFunc.one()}
        )
        ok = ok and lambda_power(6 * m + 1) == b_plus and lambda_power(6 * m - 1) == b_minus
    rep.add("centralizer matrices are plain powers, m in [-2,2]", ok)

    lam = lambda_power(1)
    lam_inv = lambda_power(-1)
    ok = all(
        LaurentMat.unit((i + 1) % 3, (i + 1) % 3) * lam == lam * LaurentMat.unit(i, i)
        and LaurentMat.unit(i, i) * lam_inv == lam_inv * LaurentMat.unit((i + 1) % 3, (i + 1) % 3)
        for i in range(3)
    )
    rep.add("diagonal shuffling across the cyclic generator", ok)

    ok = True
    for _ in range(config.samples):
        g = _random_ratfunc(rng)
        for j in (0, 1):
            ok = ok and exp_dressing(g, j) * exp_dressing(-g, j) == ident
    rep.add("dressing exponential inverses", ok)

    ok = True
    for _ in range(config.samples):
        m = LaurentMat(
            {
                (rng.randint(0, 2), rng.randint(0, 2), rng.randint(-2, 2)): _random_ratfunc(rng)
                for _ in range(6)
            }
        )
        parts = lambda_decompose(m)
        ok = ok and lambda_recompose(parts) == m
        b0 = [diag for j, diag in parts if j == 0]
        proj = grade_project(m, 0)
        if b0:
            ok = ok and LaurentMat({(i, i, 0): b0[0][i] for i in range(3)}) == proj
        else:
            ok = ok and proj.is_zero()
        total = LaurentMat.zero()
        for d in grade_support(m):
            total = total + grade_project(m, d)
        ok = ok and total == m
    rep.add("decomposition round trip, b0 = degree-0 part, grade sum", ok)
    return rep


def verify_generation(config: RunConfig) -> SuiteReport:
    rep = SuiteReport("generation", config.seed)
    rng = random.Random(config.seed)
    for j_seq in basic_words([1, 2, 3, 4]):
        for s in range(config.samples):
            trace = sample_trace(j_seq, rng)
            ok = True
            for step, (j, a) in enumerate(zip(trace.J, trace.consts)):
                old, new = trace.pairs[step], trace.pairs[step + 1]
                rhs = wronskian_rhs(old, j)
                ok = ok and wronskian(old.component(j), new.component(j)) == rhs * a
                ok = ok and new.y0.is_monic() and new.y1.is_monic()
            ok = ok and trace.final.degrees() == degree_vector(j_seq)
            ok = ok and is_generic(trace.final) and is_fertile(trace.final)
            rep.add(f"trace invariants J={j_seq} sample {s}", ok)
        trace = sample_trace(j_seq, rng)
        c2 = tuple(ci + 1 for ci in trace.c)
        distinct = trace.final != generate_multistep(j_seq, c2).final
        rep.add(f"distinct parameters, distinct pairs J={j_seq}", distinct)
    return rep


def verify_miura(config: RunConfig) -> SuiteReport:
    rep = SuiteReport("miura", config.seed)
    rng = random.Random(config.seed)
    for j_seq in basic_words([1, 2, 3, 4]):
        trace = sample_trace(j_seq, rng)
        # the increments of d/dx + L1 - sum_l g_l * h_{j_l} telescope to v
        telescoped = RatFunc.zero()
        for j, g in zip(trace.J, trace.gs):
            telescoped = telescoped - g * CARTAN.w[j]
        rep.add(
            f"oper from trace equals oper from pair J={j_seq}",
            telescoped == miura_from_pair(trace.final).v,
        )
        oper = miura_from_pair(trace.pairs[0])
        ok = True
        for j, g in zip(trace.J, trace.gs):
            ok = ricatti_check(oper, g, j)
            if not ok:
                break
            oper = gauge_step(oper, g, j)
        ok = ok and oper.v == miura_from_trace(trace).v
        rep.add(f"gauge replay along the trace J={j_seq}", ok)

    for j_seq in basic_words([2, 3, 4]):
        trace = sample_trace(j_seq, rng)
        shifted = generate_multistep(j_seq, trace.c[:-1] + (trace.c[-1] + 1,))
        i_map = 1 if j_seq[-1] == 0 else 0
        images = [miura_map(i_map, embed_a1(miura_from_trace(t))) for t in (trace, shifted)]
        rep.add(
            f"scalar map {i_map} forgets the last parameter J={j_seq}",
            images[0] == images[1],
        )

    ok = True
    for j_seq in basic_words([1, 2, 3])[:5]:
        pair = sample_trace(j_seq, rng).final
        oper = miura_from_pair(pair)
        k0 = d_miura_map(0, oper, RatFunc(pair.y0, pair.y1 ** 2))
        k1 = d_miura_map(1, oper, RatFunc(pair.y1 ** 4, pair.y0 ** 2))
        ok = ok and k0.u1.is_zero() and k0.u0.is_zero() and k1.u1.is_zero() and k1.u0.is_zero()
    rep.add("kernel directions of the two derivative maps", ok)
    return rep


def verify_flows(config: RunConfig) -> SuiteReport:
    rep = SuiteReport("flows", config.seed)
    rng = random.Random(config.seed)
    for j_seq in basic_words([1, 2, 3, 4]):
        for s in range(config.samples):
            trace = sample_trace(j_seq, rng)
            tangents = None
            for r in (1, 5, 7, 11, 13):
                fld = mkdv_field(trace, r)
                if vanishing_threshold(j_seq, r):
                    rep.add(f"threshold field J={j_seq} r={r} sample {s}", fld.is_zero())
                    continue
                if fld.is_zero():
                    rep.add(f"residual J={j_seq} r={r} sample {s}", True, "field = 0")
                    continue
                if tangents is None:
                    tangents = family_tangents(trace)
                dec = decompose_flow(fld, tangents)
                rep.add(
                    f"residual J={j_seq} r={r} sample {s}",
                    dec.residual_zero,
                    "gamma=" + ",".join(str(g) for g in dec.gamma),
                )
    # translation flow: gamma_1 is the constant -1 on one-step families
    for j_seq in ((0,), (1,)):
        gammas = set()
        for s in range(config.samples):
            trace = sample_trace(j_seq, rng)
            gammas.add(decompose_flow(mkdv_field(trace, 1), family_tangents(trace)).gamma)
        rep.add(
            f"degree-1 flow is translation on J={j_seq}",
            gammas == {(Fraction(-1),)},
            f"gammas={sorted(gammas)}",
        )
    # the last tangent expands at infinity with leading coefficient 1 after
    # dividing out the recorded Wronskian constant
    ok = True
    for j_seq in basic_words([1, 2, 3]):
        trace = sample_trace(j_seq, rng)
        tangent = family_tangents(trace)[-1]
        a = trace.consts[-1] * CARTAN.w[j_seq[-1]]
        coeffs = laurent_at_infinity(tangent * (Fraction(1) / a), 12)
        lead = next((x for x in coeffs if x != 0), None)
        ok = ok and lead == 1
    rep.add("last tangent is asymptotically monic", ok)
    return rep


def _lagrange_predict(xs: Sequence[Fraction], ys: Sequence[Fraction], x_new: Fraction) -> Fraction:
    total = Fraction(0)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        w = Fraction(1)
        for k, xk in enumerate(xs):
            if k != i:
                w *= (x_new - xk) / (xi - xk)
        total += yi * w
    return total


def verify_gamma_polynomial(config: RunConfig) -> SuiteReport:
    """Spot check that the last decomposition coefficient moves polynomially
    in each parameter: exact Lagrange interpolation through an integer grid
    must predict a held-out point.  Grid size 8 (degree bound 6) covers every
    two-step family and flow index used here; the fixed coordinate sits at
    1/3 to keep the whole grid away from degenerate (non-square-free) pairs.
    """
    rep = SuiteReport("gamma-polynomial", config.seed)
    grid = 8

    for j_seq in ((0, 1), (1, 0)):
        for r in (1, 5):
            if vanishing_threshold(j_seq, r):
                continue
            for coord in range(2):
                xs, ys = [], []
                for k in range(grid):
                    c = [Fraction(1, 3), Fraction(1, 3)]
                    c[coord] = Fraction(k + 1)
                    try:
                        sampled = flow_sample(j_seq, c, r)
                    except InfertileError:
                        break
                    if not sampled.residual_zero:
                        break
                    xs.append(Fraction(k + 1))
                    ys.append(sampled.gamma[-1])
                ok = len(xs) == grid and _lagrange_predict(
                    xs[:-1], ys[:-1], xs[-1]
                ) == ys[-1]
                rep.add(
                    f"gamma_m polynomial in c_{coord + 1}, J={j_seq} r={r}", ok
                )
    return rep


def verify_kdv(config: RunConfig) -> SuiteReport:
    rep = SuiteReport("kdv", config.seed)
    rng = random.Random(config.seed)

    ok = True
    for _ in range(max(config.samples, 10)):
        op = DiffOp3(_random_ratfunc(rng), _random_ratfunc(rng))
        root = cube_root(op, 10)
        cube = root * root * root
        target = from_diffop3(op)
        ok = ok and all(
            cube.coeff(i) == target.coeff(i) for i in range(cube.floor, 4)
        )
    rep.add("cube of the cube root reproduces the operator", ok)

    ok = True
    for _ in range(config.samples):
        op = DiffOp3(_random_ratfunc(rng, 1, 1), _random_ratfunc(rng, 1, 1))
        lop = from_diffop3(op)
        for r in (1, 2, 4, 5):
            plus = frac_power_plus(op, r)
            comm = lop * plus - plus * lop
            field = kdv_field(op, r)
            ok = (
                ok
                and plus.top() == r
                and plus.coeff(r) == RatFunc.one()
                and (comm.top() or 0) <= 1
                and field == (comm.coeff(1), comm.coeff(0))
            )
    rep.add("fractional powers have exact shape; brackets close at order 1", ok)

    for j_seq in basic_words([0, 1, 2, 3]):
        for s in range(min(config.samples, 2)):
            trace = sample_trace(j_seq, rng)
            for r in (1, 5):
                sides = diagram_sides(trace, r, (0, 1, 2)).values()
                ok = all(pushed == kdv for _, pushed, kdv in sides)
                rep.add(f"flow/scalar-flow consistency J={j_seq} r={r} sample {s}", ok)
    return rep


def verify_bethe(config: RunConfig) -> SuiteReport:
    rep = SuiteReport("bethe", config.seed)
    rng = random.Random(config.seed)
    for j_seq in ((0,), (0, 1), (1, 0), (0, 1, 0), (0, 1, 0, 1)):
        pair = sample_trace(j_seq, rng).final
        report = bethe_residuals(pair, config.tolerance)
        rep.add(
            f"critical-equation residuals J={j_seq} degrees {tuple(pair.degrees())}",
            report.ok,
            f"max residual {report.max_residual:.3e}",
        )
    return rep


SUITES: Dict[str, Callable[[RunConfig], SuiteReport]] = {
    "degrees": verify_degrees,
    "loop": verify_loop,
    "generation": verify_generation,
    "miura": verify_miura,
    "flows": verify_flows,
    "gamma-polynomial": verify_gamma_polynomial,
    "kdv": verify_kdv,
    "bethe": verify_bethe,
}
