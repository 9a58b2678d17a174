"""Exact scalar and polynomial arithmetic used by every other module.

Scalars are ``fractions.Fraction`` (aliased ``Rat``): arbitrary-precision
rationals.  Plain ints are accepted everywhere and promote automatically.

``Poly`` is a dense univariate polynomial over the rationals (degrees stay in
the dozens here, so dense storage is the right trade), stored as a rational
content times a primitive integer polynomial (Geddes, Czapor & Labahn,
*Algorithms for Computer Algebra*, 1992, section 2.6): products, sums,
derivatives, pseudo-divisions and gcds run on integers and make one
``Fraction`` per operation, not one per coefficient.  ``RatFunc`` is a
reduced quotient of two ``Poly`` with monic denominator; a gcd runs only
where a factor can cancel (Henrici's rules for sums and products).  Values
are immutable and operations pure; everything is safe to share across
threads.

Nothing in this module touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

Rat = Fraction


class Poly:
    """Dense univariate polynomial ``cont * sum(ints[i] * x**i)``.

    ``ints`` is a primitive integer tuple (gcd 1) whose last entry is
    positive and ``cont`` a nonzero ``Fraction``; the zero polynomial has
    ``ints == ()`` and ``cont == 0``.  The form is unique, so equality
    compares one tuple and one Fraction.  The rest of the package reads this
    integer form only.  ``coeffs`` is the Fraction view
    ``coeffs[i] == cont * ints[i]``, built on first use and kept for callers
    outside the engine; it has no trailing zero and
    ``degree() == len(coeffs) - 1``.
    """

    __slots__ = ("cont", "ints", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        den = math.lcm(*(c.denominator for c in cs))
        out = [c.numerator * (den // c.denominator) for c in cs]
        p = _normal(Fraction(1, den), out)
        object.__setattr__(self, "cont", p.cont)
        object.__setattr__(self, "ints", p.ints)

    @staticmethod
    def _make(cont: Fraction, ints: tuple) -> "Poly":
        """Bypass normalization; caller guarantees the form above."""
        self = object.__new__(Poly)
        object.__setattr__(self, "cont", cont)
        object.__setattr__(self, "ints", ints)
        return self

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        try:
            return self._coeffs
        except AttributeError:
            cont = self.cont
            view = tuple(c * cont for c in self.ints)
            object.__setattr__(self, "_coeffs", view)
            return view

    @staticmethod
    def lift(p) -> "Poly":
        if isinstance(p, Poly):
            return p
        return Poly((p,))

    def is_zero(self) -> bool:
        return not self.ints

    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.ints) - 1

    def coeff(self, i: int):
        if 0 <= i < len(self.ints):
            return self.cont * self.ints[i]
        return Fraction(0)

    def leading(self):
        if not self.ints:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.cont * self.ints[-1]

    def is_monic(self) -> bool:
        cont = self.cont
        return bool(self.ints) and cont.numerator == 1 and cont.denominator == self.ints[-1]

    def monic(self) -> "Poly":
        if self.leading() == 1:
            return self
        return Poly._make(Fraction(1, self.ints[-1]), self.ints)

    def __add__(self, other):
        o = Poly.lift(other)
        if not o.ints:
            return self
        if not self.ints:
            return o
        # ca*A + cb*B = (h/den) * (sa*A + sb*B) with coprime integers sa, sb
        ca, cb = self.cont, o.cont
        da, db = ca.denominator, cb.denominator
        g = math.gcd(da, db)
        sa, sb = ca.numerator * (db // g), cb.numerator * (da // g)
        h = math.gcd(sa, sb)
        sa, sb = sa // h, sb // h
        a, b = self.ints, o.ints
        if len(a) < len(b):
            a, b, sa, sb = b, a, sb, sa
        out = list(a) if sa == 1 else [sa * c for c in a]
        for i, c in enumerate(b):
            out[i] += sb * c
        return _normal(Fraction(h, da // g * db), out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Poly.lift(other))

    def __rsub__(self, other):
        return Poly.lift(other) + (-self)

    def __neg__(self):
        if not self.ints:
            return self
        return Poly._make(-self.cont, self.ints)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.ints or not other.ints:
                return Poly()
            # Gauss: a product of primitive polynomials is primitive
            return Poly._make(self.cont * other.cont, _convolve(self.ints, other.ints))
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other or not self.ints:
            return Poly()
        return Poly._make(self.cont * other, self.ints)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly exponent must be a nonnegative integer")
        if not n:
            return ONE
        # square only while bits of n remain; the first kept power is taken
        # as it is, so p**4 forms p**2 and p**4 and nothing else
        base, result = self, None
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    def __divmod__(self, other):
        o = Poly.lift(other)
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        k = len(self.ints) - len(o.ints) + 1
        if k <= 0:
            return Poly(), self
        # lc(B)^k A = Q B + R on the primitive parts; the contents rescale
        quo, rem = _int_pdivmod(self.ints, o.ints)
        scale = self.cont / o.ints[-1] ** k
        return _normal(scale / o.cont, quo), _normal(scale, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other) -> "Poly":
        """Quotient of an exact division; ArithmeticError if it is not.

        Primitive over primitive is an integer polynomial when the division
        is exact (Gauss), so the long division never leaves the integers.
        """
        o = Poly.lift(other)
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not self.ints:
            return self
        quo = _int_divexact(self.ints, o.ints) if o.ints != (1,) else self.ints
        if quo is None:
            raise ArithmeticError("inexact polynomial division")
        return Poly._make(self.cont / o.cont, tuple(quo))

    def derivative(self) -> "Poly":
        return _normal(self.cont, [i * c for i, c in enumerate(self.ints) if i])

    def __call__(self, x):
        acc = 0
        for c in reversed(self.ints):
            acc = acc * x + c
        return acc * self.cont

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.ints == other.ints and self.cont == other.cont
        if isinstance(other, (int, Fraction)):
            return self == Poly((other,))
        return NotImplemented

    def __hash__(self):
        return hash((self.cont, self.ints))

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.ints:
            return "0"
        parts = []
        for i in range(len(self.ints) - 1, -1, -1):
            if not self.ints[i]:
                continue
            c = self.coeff(i)
            if i == 0:
                parts.append(f"{c}")
            elif c == 1:
                parts.append("x" if i == 1 else f"x^{i}")
            else:
                parts.append(f"{c}*x" if i == 1 else f"{c}*x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def _normal(cont: Fraction, out: list) -> Poly:
    """The Poly cont * sum(out[i] * x**i) for any integer list ``out``."""
    while out and not out[-1]:
        out.pop()
    if not out:
        return Poly._make(Fraction(0), ())
    g = math.gcd(*out)
    if out[-1] < 0:
        g = -g
    if g != 1:
        out = [c // g for c in out]
        cont = cont * g
    return Poly._make(cont, tuple(out))


def _convolve(a: tuple, b: tuple) -> tuple:
    """Schoolbook product of integer coefficient tuples."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


X = Poly((0, 1))
ONE = Poly((1,))


def _int_content(cs: Sequence[int]) -> int:
    return math.gcd(*cs) or 1


def _int_pdivmod(a: Sequence[int], b: Sequence[int]) -> tuple:
    """Pseudo-division of integer coefficient lists (ascending degree):
    (q, r) with lc(b)**k * a = q*b + r, k = deg a - deg b + 1 and r of
    length deg b (Knuth, TAOCP vol. 2, 4.6.1, Algorithm R).

    Every step scales by lc(b), so k is fixed by the degrees alone; the
    quotient coefficient found at degree m picks up the m later scalings.
    """
    nb, lb = len(b), b[-1]
    rem = list(a)
    quo = [0] * (len(rem) - nb + 1)
    for m in range(len(quo) - 1, -1, -1):
        top = rem.pop()
        quo[m] = top * lb**m
        if lb != 1:
            rem = [c * lb for c in rem]
        if top:
            for i in range(nb - 1):
                rem[m + i] -= top * b[i]
    return quo, rem


def _int_prem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists, without trailing zeros."""
    rem = _int_pdivmod(a, b)[1]
    while rem and not rem[-1]:
        rem.pop()
    return rem


_HEU_GCD_TRIES = 6


def _int_divexact(a: Sequence[int], b: Sequence[int]) -> Optional[list]:
    """Quotient of integer coefficient lists when ``b`` divides ``a`` in Z[x],
    otherwise None.

    For primitive ``b`` this is divisibility over the rationals as well
    (Gauss), so the long division never leaves the integers.
    """
    nb, lb = len(b), b[-1]
    if len(a) < nb:
        return None
    rem = list(a)
    quo = [0] * (len(a) - nb + 1)
    for k in range(len(quo) - 1, -1, -1):
        top = rem[k + nb - 1]
        if top == 0:
            continue
        q, r = divmod(top, lb)
        if r:
            return None
        quo[k] = q
        for i, c in enumerate(b):
            rem[k + i] -= q * c
    if any(rem):
        return None
    return quo


def _heu_gcd(fa: Sequence[int], fb: Sequence[int]) -> Optional[tuple]:
    """(h, fa/h, fb/h) for two primitive integer polynomials, with h their
    primitive gcd of positive leading coefficient, or None.

    GCDHEU: evaluate both at an integer xi, take the integer gcd of the two
    values, and read a candidate off its symmetric xi-adic digits.  With
    xi >= 2*min(|fa|, |fb|) + 2 (max norms) a primitive candidate that
    divides both inputs is their gcd (Char, Geddes & Gonnet, J. Symbolic
    Comput. 7, 1989); a constant candidate therefore certifies coprimality
    without any division.  The same bound keeps xi above every root of the
    input with the smaller norm, so the gcd of the values is never 0.  The
    accepting divisions give the cofactors.  After a rejected candidate xi
    grows by sympy's schedule; None means give up.
    """
    xi = 2 * min(max(map(abs, fa)), max(map(abs, fb))) + 2
    for _ in range(_HEU_GCD_TRIES):
        va = vb = 0
        for c in reversed(fa):
            va = va * xi + c
        for c in reversed(fb):
            vb = vb * xi + c
        gamma = math.gcd(va, vb)
        h = []
        while gamma:
            d = gamma % xi
            if d > xi // 2:
                d -= xi
            h.append(d)
            gamma = (gamma - d) // xi
        if len(h) == 1:
            return [1], fa, fb
        g = _int_content(h)
        if h[-1] < 0:
            g = -g
        h = [c // g for c in h]
        qa = _int_divexact(fa, h)
        if qa is not None:
            qb = _int_divexact(fb, h)
            if qb is not None:
                return h, qa, qb
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011
    return None


def _gcd_cofactors(a: Poly, b: Poly) -> tuple:
    """(g, a/g, b/g) with g the monic gcd of two nonzero polynomials.

    The heuristic ``_heu_gcd`` (GCDHEU, proven start xi >= 2*min(|fa|, |fb|)
    + 2, accepted only after an exact division check) settles almost every
    pair with one integer gcd and hands back both quotients; this is the hot
    path of every RatFunc reduction.  When it gives up after
    ``_HEU_GCD_TRIES`` values of xi, a primitive pseudo-remainder sequence
    over the integers decides, which avoids the coefficient blowup of a
    fraction-based Euclid, and one exact division per input gives the
    cofactors.  With a constant input the gcd is 1.
    """
    fa, fb = a.ints, b.ints
    if len(fa) < 2 or len(fb) < 2:
        return ONE, a, b
    hit = _heu_gcd(fa, fb)
    if hit is not None:
        h, qa, qb = hit
        if len(h) == 1:
            return ONE, a, b
        lead = h[-1]
        return (
            Poly._make(Fraction(1, lead), tuple(h)),
            Poly._make(a.cont * lead, tuple(qa)),
            Poly._make(b.cont * lead, tuple(qb)),
        )
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        r = _int_prem(fa, fb)
        g = _int_content(r)
        fa, fb = fb, [c // g for c in r]
    if len(fa) == 1:
        return ONE, a, b
    g = _normal(Fraction(1), list(fa)).monic()
    return g, a.divexact(g), b.divexact(g)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    if a.is_zero():
        return b.monic() if not b.is_zero() else b
    if b.is_zero():
        return a.monic()
    return _gcd_cofactors(a, b)[0]


def poly_lcm(a: Poly, b: Poly) -> Poly:
    """Monic least common multiple a * (b/g), with b/g the cofactor that
    ``_gcd_cofactors`` hands back; lcm(a, 0) = 0."""
    if a.is_zero() or b.is_zero():
        return Poly()
    return (a * _gcd_cofactors(a, b)[2]).monic()


class RatFunc:
    """Reduced rational function num/den with monic denominator.

    Invariants: den is monic and nonzero, gcd(num, den) = 1, and the zero
    function is stored as 0/1.  Equality of reduced forms is therefore plain
    field-by-field equality.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        num = Poly.lift(num)
        den = ONE if den is None else Poly.lift(den)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            num, den = Poly(), ONE
        else:
            _, num, den = _gcd_cofactors(num, den)
            if not den.is_monic():
                num = num * _one_over(den.leading())
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("RatFunc is immutable")

    @staticmethod
    def lift(r) -> "RatFunc":
        if isinstance(r, RatFunc):
            return r
        return RatFunc(Poly.lift(r))

    @staticmethod
    def _raw(num: Poly, den: Poly) -> "RatFunc":
        """Bypass normalization; caller guarantees the invariants hold."""
        self = object.__new__(RatFunc)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        return self

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(Poly())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(ONE)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return self.den.degree() == 0

    def __add__(self, other):
        o = RatFunc.lift(other)
        # both operands are in canonical form, so a zero one needs no work
        if o.num.is_zero():
            return self
        if self.num.is_zero():
            return o
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        # Henrici: with g = gcd(b, d), b = g*b1 and d = g*d1, the numerator
        # t = a*d1 + c*b1 is prime to b1*d1, so only gcd(t, g) can cancel
        g, b1, d1 = _gcd_cofactors(self.den, o.den)
        t = self.num * d1 + o.num * b1
        if g.degree() == 0:
            return RatFunc._raw(t, self.den * d1)
        _, t, g = _gcd_cofactors(t, g)
        return RatFunc._raw(t, b1 * d1 * g)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-RatFunc.lift(other))

    def __rsub__(self, other):
        return RatFunc.lift(other) + (-self)

    def __neg__(self):
        return RatFunc._raw(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # scalar multiples keep both invariants, no reduction needed
            if other == 0 or self.num.is_zero():
                return RF_ZERO
            return RatFunc._raw(self.num * other, self.den)
        o = RatFunc.lift(other)
        if self.num.is_zero() or o.num.is_zero():
            return RF_ZERO
        # a constant factor is a scalar multiple: nothing can cancel
        if o.den.degree() == 0 and o.num.degree() == 0:
            return RatFunc._raw(self.num * o.num.cont, self.den)
        if self.den.degree() == 0 and self.num.degree() == 0:
            return RatFunc._raw(o.num * self.num.cont, o.den)
        _, n1, d2 = _gcd_cofactors(self.num, o.den)
        _, n2, d1 = _gcd_cofactors(o.num, self.den)
        # both factors are reduced and the cross gcds are cancelled, so the
        # quotient is already in lowest terms; d1 and d2 are monic
        return RatFunc._raw(n1 * n2, d1 * d2)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = RatFunc.lift(other)
        if o.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return self * RatFunc(o.den, o.num)

    def __rtruediv__(self, other):
        return RatFunc.lift(other) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            raise ValueError("RatFunc exponent must be an integer")
        if n < 0:
            return RatFunc.one() / (self ** (-n))
        return RatFunc(self.num ** n, self.den ** n)

    def derivative(self) -> "RatFunc":
        n, d = self.num, self.den
        if d.degree() == 0:
            return RatFunc(n.derivative())
        dp = d.derivative()
        # cancel the repeated part of d up front: with d = g*a, d' = g*b the
        # quotient rule collapses to (n'a - nb)/(d*a), much smaller than /d^2,
        # and already reduced: a prime p of a divides d exactly e >= 1 times
        # and not n, while b = e*p'*(d/p^e)/(g/p^(e-1)) mod p is prime to p
        # (characteristic 0), so p does not divide n'a - nb; a = d/g is monic
        _, a, b = _gcd_cofactors(d, dp)
        return RatFunc._raw(n.derivative() * a - n * b, d * a)

    def __call__(self, x):
        return self.num(x) / self.den(x)

    def __eq__(self, other):
        if isinstance(other, (RatFunc, Poly, int, Fraction)):
            o = RatFunc.lift(other)
            return self.num == o.num and self.den == o.den
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"


def _one_over(c):
    return Fraction(1) / Fraction(c)


RF_ZERO = RatFunc.zero()
RF_ONE = RatFunc.one()


def wronskian(f: Poly, g: Poly) -> Poly:
    """f*g' - f'*g."""
    return f * g.derivative() - f.derivative() * g


def log_derivative(p: Poly) -> RatFunc:
    """p'/p in lowest terms; rejects the zero polynomial."""
    if p.is_zero():
        raise ValueError("logarithmic derivative of the zero polynomial")
    return RatFunc(p.derivative(), p)


def laurent_at_infinity(r: RatFunc, n: int) -> list:
    """First n coefficients B_1..B_n of the expansion sum B_k x**(-k) at
    x = infinity.

    Any polynomial part (degree of num >= degree of den) is discarded.  One
    floor division gives them all: B_k is the coefficient of x**(n - k) in
    (num * x**n) // den, where the polynomial part only reaches degrees >= n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    quo = (r.num * X**n) // r.den
    return [quo.coeff(n - k) for k in range(1, n + 1)]


def _eliminate(rows: Iterable[list], m: int) -> Iterator[Optional[tuple]]:
    """Gauss-Jordan one augmented row at a time (m unknowns, rhs last).

    Each new row is reduced by the pivot rows so far, then clears its own
    pivot column from them, so the pivot rows are always the reduced row
    echelon form of the rows so far; that form is unique, so the solution
    it gives does not depend on the order of elimination.  After each row,
    yields (rank, x): the rank of the rows so far and their solution with
    free variables zero.  At the first inconsistent row it yields None and
    stops.
    """
    pivots: list = []
    x = (Fraction(0),) * m
    for r in rows:
        for col, pr in pivots:
            f = r[col]
            if f:
                r = [a - f * b for a, b in zip(r, pr)]
        col = next((c for c in range(m) if r[c]), None)
        if col is None:
            if r[m]:
                yield None
                return
        else:
            inv = _one_over(r[col])
            r = [a * inv for a in r]
            for i, (c, pr) in enumerate(pivots):
                f = pr[col]
                if f:
                    pivots[i] = (c, [a - f * b for a, b in zip(pr, r)])
            pivots.append((col, r))
            sol = [Fraction(0)] * m
            for c, pr in pivots:
                sol[c] = pr[m]
            x = tuple(sol)
        yield len(pivots), x


def solve_linear(a, b) -> Optional[list]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero, and the entries are ``Fraction`` also
    for int input; no rows give [].  Inconsistency is a value, not an error.
    """
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    x: tuple = ()
    for step in _eliminate(rows, len(rows[0]) - 1 if rows else 0):
        if step is None:
            return None
        _, x = step
    return list(x)


# --- serialization -----------------------------------------------------------

def _ratio_str(num: int, den: int) -> str:
    """``num/den`` in lowest terms with ``den > 0``, written as JSON prints it."""
    return str(num) if den == 1 else f"{num}/{den}"


def rat_to_str(c) -> str:
    c = Fraction(c)
    return _ratio_str(c.numerator, c.denominator)


def poly_to_json(p: Poly) -> list:
    """``[rat_to_str(c) for c in p.coeffs]``, formed from ``cont`` and ``ints``
    without the Fraction view: with cont = a/b in lowest terms, gcd(n*a, b)
    == gcd(n, b), so cont * n reduces to (n//g * a)/(b//g) with g = gcd(n, b)."""
    a, b = p.cont.numerator, p.cont.denominator
    out = []
    for n in p.ints:
        g = math.gcd(n, b)
        out.append(_ratio_str(n // g * a, b // g))
    return out


def poly_from_json(data: Sequence[str]) -> Poly:
    return Poly(tuple(Fraction(s) for s in data))


def ratfunc_to_json(r: RatFunc) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfunc_from_json(data: dict) -> RatFunc:
    return RatFunc(poly_from_json(data["num"]), poly_from_json(data["den"]))
