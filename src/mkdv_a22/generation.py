"""Wronskian generation of critical-point families.

A critical point of the two-color logarithmic potential

    Phi(u) = 2 sum ln(u0_i - u0_i') + 8 sum ln(u1_i - u1_i')
             - 4 sum ln(u0_i - u1_i')

is encoded by the pair of monic polynomials (y0, y1) whose roots are the two
groups of coordinates.  New pairs grow from (1, 1) by replacing one
component through the first-order Wronskian equations

    Wr(y0, t0) = y1**4,        Wr(y1, t1) = y0,

whose exponents are read off the columns of the Cartan matrix.  Along the
alternating direction words (0,1,0,...) and (1,0,1,...) the replacement is
always degree increasing and is normalized so that every pair stays monic:
the new component is y_{j,0} + c*y_j where y_{j,0} is the unique monic
solution with vanishing coefficient at the old degree.

In the monomial basis each Wronskian equation is triangular: Wr(y, x**i)
has top term (i - deg y) lc(y) x**(i + deg y - 1).  One back-substitution
kernel (``_solve_below``) therefore serves a generation step, the
differentiated step of ``parameter_derivatives`` and ``is_fertile``.  It is
fraction-free: it runs on the primitive integer parts of y and the target
with one integer residual over one common denominator, and returns the
solution as a ``Poly`` whose rational content is the only Fraction it makes.

Everything is exact over the rationals, including the parameter derivatives
of a run (``parameter_derivatives``); the only numerics live in
``bethe_residuals``, a floating-point spot check of the critical equations.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .exact import (
    ONE,
    Poly,
    RatFunc,
    _normal,
    _one_over,
    log_derivative,
    poly_gcd,
    poly_to_json,
    rat_to_str,
    ratfunc_to_json,
    wronskian,
)
from .loop import CARTAN
from .roots import durand_kerner


class InfertileError(ArithmeticError):
    """A Wronskian equation admits no polynomial solution (exit 3 in the CLI)."""


class DegreeVector(NamedTuple):
    k0: int
    k1: int


class PolyPair(NamedTuple):
    y0: Poly
    y1: Poly

    def degrees(self) -> DegreeVector:
        return DegreeVector(self.y0.degree(), self.y1.degree())

    def component(self, j: int) -> Poly:
        return self.y1 if j else self.y0

    def with_component(self, j: int, p: Poly) -> "PolyPair":
        return PolyPair(self.y0, p) if j else PolyPair(p, self.y1)


EMPTY_PAIR = PolyPair(ONE, ONE)


def check_basic(j_seq: Sequence[int]) -> Tuple[int, ...]:
    """Validate an alternating direction word over {0, 1}."""
    js = tuple(j_seq)
    for pos, j in enumerate(js):
        if j not in (0, 1):
            raise ValueError(f"direction entries must be 0 or 1, got {j}")
        if pos and j == js[pos - 1]:
            raise ValueError(f"direction word must alternate, got {js}")
    return js


def degree_transform(k: DegreeVector, j: int) -> DegreeVector:
    """Shifted reflection action on degree vectors."""
    k0, k1 = k
    if j == 0:
        return DegreeVector(4 * k1 + 1 - k0, k1)
    if j == 1:
        return DegreeVector(k0, k0 + 1 - k1)
    raise ValueError("direction must be 0 or 1")


def degree_vector(j_seq: Sequence[int]) -> DegreeVector:
    """Fold of degree_transform over a basic word, starting from (0, 0)."""
    return degree_walk(j_seq)[-1]


def degree_walk(j_seq: Sequence[int]) -> List[DegreeVector]:
    """All intermediate degree vectors, from (0, 0) to the full word."""
    k = DegreeVector(0, 0)
    out = [k]
    for j in check_basic(j_seq):
        k = degree_transform(k, j)
        out.append(k)
    return out


def is_generic(pair: PolyPair) -> bool:
    """Square-free components with no common root."""
    y0, y1 = pair
    if y0.is_zero() or y1.is_zero():
        return False
    for y in (y0, y1):
        if y.degree() > 0 and poly_gcd(y, y.derivative()).degree() > 0:
            return False
    return poly_gcd(y0, y1).degree() <= 0


def wronskian_rhs(pair: PolyPair, j: int) -> Poly:
    """prod_{i != j} y_i ** (-a[i][j]) from the Cartan matrix columns."""
    i = 1 - j
    return pair.component(i) ** (-CARTAN.a[i][j])


def _solve_below(y: Poly, target: Poly, degree: int) -> Optional[Poly]:
    """The b of degree < ``degree`` with Wr(y, b) = target and b_{deg y} = 0,
    or None when there is none.

    Wr(y, x**i) = sum_k (i - k) y_k x**(k + i - 1) has top term
    (i - d) lc(y) x**(i + d - 1), d = deg y, so the system is triangular from
    the top: running i from degree - 1 down to 0, row i + d - 1 fixes b_i and
    b_i Wr(y, x**i) leaves the residual.  The kernel of Wr(y, .) is spanned
    by y, so b_d stays 0 and the solution is unique.  What remains of the
    residual sits in rows that fix no coefficient; it must vanish.

    The elimination is fraction-free (Bareiss, Math. Comp. 22, 1968) on the
    primitive integer parts Y = y.ints and T = target.ints: the residual is
    R/D with an integer list R (starting at T) and one common denominator D.
    Step i divides top = R[i + d - 1] and the pivot (i - d) Y_d by their
    gcd to t/s with s > 0, scales R and D by s, subtracts t Wr(Y, x**i) from
    R and records t and D, so that b_i = t/D in the solution of
    Wr(Y, b) = T.  The contents come back in one Fraction at the end:
    b = target.cont / y.cont * sum (t_i/D_i) x**i.
    """
    if y.is_zero():  # Wr(0, b) = 0
        return None if target.ints else Poly()
    ys = y.ints
    d = len(ys) - 1
    lead = ys[-1]
    resid = list(target.ints)
    resid += [0] * (degree + d - 1 - len(resid))
    den = 1
    steps = []
    for i in range(degree - 1, -1, -1):
        if i == d:
            continue
        top = resid[i + d - 1]
        if not top:
            continue
        pivot = (i - d) * lead
        g = math.gcd(top, pivot)
        s, t = pivot // g, top // g
        if s < 0:
            s, t = -s, -t
        if s != 1:
            resid = [s * c for c in resid]
            den *= s
        for k, yk in enumerate(ys):
            if k != i:
                resid[k + i - 1] -= (i - k) * yk * t
        steps.append((i, t, den))
    if any(resid):
        return None
    out = [0] * degree
    for i, t, den_i in steps:
        out[i] = t * (den // den_i)
    return _normal(target.cont / (y.cont * den), out)


def wronskian_solve(y: Poly, rhs: Poly, target_degree: int) -> Tuple[object, Poly]:
    """The unique monic y_base with Wr(y, y_base) = a * rhs.

    y_base has the requested degree, its coefficient at x**deg y vanishes
    (adding a multiple of y does not change the Wronskian), and the constant
    a is pinned by the leading coefficients:
    a = lc(y) * (target_degree - deg y) / lc(rhs).  y_base is the ``Poly``
    of one fraction-free back-substitution (``_solve_below``), whose top row
    gives the leading 1 exactly when deg rhs = target_degree + deg y - 1.
    Requires a degree increasing configuration; raises InfertileError when
    the triangular system is inconsistent or leaves y_base short of that
    degree.
    """
    d = y.degree()
    if target_degree <= d:
        raise ValueError("generation must be degree increasing")
    if rhs.is_zero():
        raise ValueError("right-hand side must be nonzero")
    a = y.leading() * (target_degree - d) * _one_over(rhs.leading())
    base = _solve_below(y, rhs * a, target_degree + 1)
    if base is None or base.degree() != target_degree:
        raise InfertileError(f"no degree-{target_degree} solution with pinned index {d}")
    return a, base


def _step(pair: PolyPair, j: int, c) -> Tuple[PolyPair, object]:
    target = degree_transform(pair.degrees(), j)[j]
    rhs = wronskian_rhs(pair, j)
    a, base = wronskian_solve(pair.component(j), rhs, target)
    new_component = base + pair.component(j) * c
    return pair.with_component(j, new_component), a


def generate_step(pair: PolyPair, j: int, c) -> PolyPair:
    """Replace component j by its normalized descendant y_{j,0} + c*y_j."""
    return _step(pair, j, c)[0]


@dataclass(frozen=True)
class GenerationTrace:
    """A full generation run: every intermediate pair plus the gauge data.

    pairs has length m+1 (from (1,1) to the final pair), gs[l] is the
    logarithmic-derivative increment of the component changed at step l+1,
    and consts[l] is the proportionality constant of that step's Wronskian
    identity Wr(old, new) = a * rhs.
    """

    J: Tuple[int, ...]
    c: Tuple
    pairs: Tuple[PolyPair, ...]
    gs: Tuple[RatFunc, ...]
    consts: Tuple

    @property
    def final(self) -> PolyPair:
        return self.pairs[-1]

    def degrees(self) -> List[DegreeVector]:
        return [p.degrees() for p in self.pairs]

    def to_json(self) -> dict:
        return {
            "J": list(self.J),
            "c": [rat_to_str(ci) for ci in self.c],
            "pairs": [[poly_to_json(p.y0), poly_to_json(p.y1)] for p in self.pairs],
            "gs": [ratfunc_to_json(g) for g in self.gs],
            "degrees": [[k.k0, k.k1] for k in self.degrees()],
        }


def generate_multistep(j_seq: Sequence[int], c: Sequence) -> GenerationTrace:
    """Iterate generate_step from (1, 1) along a basic word."""
    js = check_basic(j_seq)
    if len(c) != len(js):
        raise ValueError(f"need {len(js)} parameters, got {len(c)}")
    pairs = [EMPTY_PAIR]
    gs: List[RatFunc] = []
    consts: List = []
    for j, ci in zip(js, c):
        new_pair, a = _step(pairs[-1], j, ci)
        gs.append(
            log_derivative(new_pair.component(j)) - log_derivative(pairs[-1].component(j))
        )
        consts.append(a)
        pairs.append(new_pair)
    trace = GenerationTrace(js, tuple(c), tuple(pairs), tuple(gs), tuple(consts))
    if trace.final.degrees() != degree_vector(js):
        raise AssertionError("degree bookkeeping mismatch")
    return trace


def parameter_derivatives(trace: GenerationTrace) -> List[PolyPair]:
    """Exact partial derivatives (dy0/dc_i, dy1/dc_i) of the final pair, one
    pair per parameter c_i.

    Step l replaces y_j by base + c_l*y_j, where base solves
    Wr(y_j, base) = a*rhs and depends only on the earlier parameters, so the
    derivative in c_l starts as y_j(old).  Each later step carries it through
    by implicit differentiation: a = deg base - deg y_j is constant because
    every pair stays monic, hence

        Wr(y_j, base') = a*rhs' - Wr(y_j', base)

    is the same triangular system as the step itself (deg base' < deg base,
    vanishing coefficient at x**deg y_j), solved by the same fraction-free
    back-substitution with a new right-hand side; its ``Poly`` base' gives
    y_j' = base' + c_l*y_j'.
    """
    derivs: List[PolyPair] = []
    for l, j in enumerate(trace.J):
        old, new = trace.pairs[l], trace.pairs[l + 1]
        y, c, a = old.component(j), trace.c[l], trace.consts[l]
        base = new.component(j) - y * c
        # rhs = y_i**n, so rhs' = n * y_i**(n - 1) * y_i'
        i = 1 - j
        n = -CARTAN.a[i][j]
        rhs_factor = old.component(i) ** (n - 1) * n
        for k, dy in enumerate(derivs):
            target = rhs_factor * dy.component(i) * a - wronskian(dy.component(j), base)
            base_dot = _solve_below(y, target, base.degree())
            if base_dot is None:
                raise AssertionError("differentiated Wronskian step has no solution")
            derivs[k] = dy.with_component(j, base_dot + dy.component(j) * c)
        derivs.append(PolyPair(Poly(), Poly()).with_component(j, y))
    return derivs


def is_fertile(pair: PolyPair) -> bool:
    """Both Wronskian equations admit a polynomial solution.

    For each direction the solution degree is bounded by
    max(deg y_j, deg rhs + 1 - deg y_j), so solvability is one
    back-substitution per direction over the coefficients up to that bound.
    Pinning the coefficient at x**deg y_j to 0 loses nothing: adding a
    multiple of y_j does not change the Wronskian.
    """
    for j in (0, 1):
        y = pair.component(j)
        rhs = wronskian_rhs(pair, j)
        bound = max(y.degree(), rhs.degree() + 1 - y.degree())
        if _solve_below(y, rhs, bound + 1) is None:
            return False
    return True


@dataclass(frozen=True)
class BetheReport:
    max_residual: float
    ok: bool
    n_roots: Tuple[int, int]


def bethe_residuals(pair: PolyPair, tolerance: float = 1e-8) -> BetheReport:
    """Numerically root both components and evaluate the critical equations.

    Residuals are

        sum_{i' != i} 2/(u0_i - u0_i') - sum_{i'} 4/(u0_i - u1_i')
        sum_{i' != i} 8/(u1_i - u1_i') - sum_{i'} 4/(u1_i - u0_i')

    at every root; the report carries the largest absolute value.
    """
    if not is_generic(pair):
        raise ValueError("residual check requires a generic pair")
    roots = []
    for y in pair:
        coeffs = [complex(y.cont * n) for n in y.ints]
        roots.append(durand_kerner(coeffs) if y.degree() > 0 else [])
    u0, u1 = roots
    worst = 0.0
    for i, u in enumerate(u0):
        s = sum(2.0 / (u - v) for k, v in enumerate(u0) if k != i)
        s -= sum(4.0 / (u - w) for w in u1)
        worst = max(worst, abs(s))
    for i, w in enumerate(u1):
        s = sum(8.0 / (w - v) for k, v in enumerate(u1) if k != i)
        s -= sum(4.0 / (w - u) for u in u0)
        worst = max(worst, abs(s))
    return BetheReport(worst, worst <= tolerance, (len(u0), len(u1)))


def sample_rational(rng: random.Random) -> Fraction:
    """a/b with integers -9 <= a <= 9 and 1 <= b <= 4 drawn uniformly."""
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def sample_c(j_seq: Sequence[int], rng: random.Random) -> Tuple[Fraction, ...]:
    """Draw generation parameters that produce a generic trace.

    Degenerate draws are rare, so rejection sampling converges immediately
    in practice; the bound of 50 tries only guards against misuse.
    """
    js = check_basic(j_seq)
    for _ in range(50):
        c = tuple(sample_rational(rng) for _ in js)
        try:
            trace = generate_multistep(js, c)
        except InfertileError:
            continue
        if all(is_generic(p) for p in trace.pairs):
            return c
    raise ArithmeticError(f"could not sample parameters for {js} in 50 tries")
