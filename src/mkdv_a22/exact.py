"""Exact scalar and polynomial arithmetic used by every other module.

Coefficients are ``fractions.Fraction`` (aliased ``Rat``): arbitrary-precision
rationals.  Plain ints are accepted everywhere and promote automatically.

``Poly`` is a dense univariate polynomial over the rationals (degrees stay in
the dozens here, so dense storage is the right trade), and ``RatFunc`` is a
reduced quotient of two ``Poly`` with monic denominator.  Values are
immutable and operations pure; everything is safe to share across threads.

Nothing in this module touches floating point.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Rat = Fraction


def _is_zero(c) -> bool:
    return c == 0


class Poly:
    """Dense univariate polynomial: ``coeffs[i]`` multiplies x**i.

    The zero polynomial is the empty tuple; otherwise there is no trailing
    zero and ``degree() == len(coeffs) - 1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = list(coeffs)
        while cs and _is_zero(cs[-1]):
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - guard only
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def lift(p) -> "Poly":
        if isinstance(p, Poly):
            return p
        return Poly((p,))

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the convention degree(0) = -1."""
        return len(self.coeffs) - 1

    def coeff(self, i: int):
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        lc = self.leading()
        if lc == 1:
            return self
        inv = _one_over(lc)
        return Poly(tuple(c * inv for c in self.coeffs))

    def __add__(self, other):
        o = Poly.lift(other)
        a, b = self.coeffs, o.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Poly.lift(other))

    def __rsub__(self, other):
        return Poly.lift(other) + (-self)

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return Poly()
            return _mul_rational(self, other)
        return Poly(tuple(c * other for c in self.coeffs))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly exponent must be a nonnegative integer")
        result = Poly((1,))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        o = Poly.lift(other)
        if o.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(o.coeffs)
        if dq < 0:
            return Poly(), self
        inv = _one_over(o.leading())
        quo = [Fraction(0)] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + len(o.coeffs) - 1]
            if _is_zero(top):
                continue
            q = top * inv
            quo[k] = q
            for i, c in enumerate(o.coeffs):
                rem[k + i] = rem[k + i] - q * c
        return Poly(quo), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divexact(self, other) -> "Poly":
        other = Poly.lift(other)
        if not self.is_zero() and other.degree() > 0:
            return _divexact_rational(self, other)
        q, r = divmod(self, other)
        if not r.is_zero():
            raise ValueError("inexact polynomial division")
        return q

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        if isinstance(other, Poly):
            return _coeffs_equal(self.coeffs, other.coeffs)
        if isinstance(other, (int, Fraction)):
            return _coeffs_equal(self.coeffs, Poly((other,)).coeffs)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if _is_zero(c):
                continue
            if i == 0:
                parts.append(f"{c}")
            elif c == 1:
                parts.append("x" if i == 1 else f"x^{i}")
            else:
                parts.append(f"{c}*x" if i == 1 else f"{c}*x^{i}")
        return " + ".join(parts).replace("+ -", "- ")


def _coeffs_equal(a, b) -> bool:
    if len(a) != len(b):
        return False
    return all(x == y for x, y in zip(a, b))


X = Poly((Fraction(0), Fraction(1)))
ONE = Poly((Fraction(1),))


def _to_int_scaled(p: Poly) -> tuple[list, int]:
    """Integer coefficient list and the common denominator that was cleared."""
    den = 1
    for c in p.coeffs:
        cd = c.denominator
        den = den * cd // math.gcd(den, cd)
    return [c.numerator * (den // c.denominator) for c in p.coeffs], den


def _mul_rational(a: Poly, b: Poly) -> Poly:
    """Product over the rationals via one integer convolution.

    Clearing denominators first keeps the inner loop on machine integers,
    which is far cheaper than per-term Fraction normalization.
    """
    ca, da = _to_int_scaled(a)
    cb, db = _to_int_scaled(b)
    out = [0] * (len(ca) + len(cb) - 1)
    for i, x in enumerate(ca):
        if x:
            for j, y in enumerate(cb):
                out[i + j] += x * y
    scale = da * db
    return Poly(tuple(Fraction(c, scale) for c in out))


def _int_content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, abs(c))
        if g == 1:
            break
    return g or 1


def _to_int_primitive(p: Poly) -> list:
    """Scale a rational polynomial to a primitive integer coefficient list."""
    cs, _ = _to_int_scaled(p)
    g = _int_content(cs)
    return [c // g for c in cs]


def _int_prem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists (ascending degree).

    The working remainder is stripped to its primitive part periodically;
    the final primitive part is unaffected and intermediate coefficients
    stay small when the degree gap is large.
    """
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    steps = 0
    while len(a) - 1 >= db and a:
        da = len(a) - 1
        la = a[-1]
        a = [c * lb for c in a]
        shift = da - db
        for i, c in enumerate(b):
            a[shift + i] -= la * c
        while a and a[-1] == 0:
            a.pop()
        steps += 1
        if steps % 8 == 0 and a:
            g = _int_content(a)
            if g > 1:
                a = [c // g for c in a]
    return a


_GCD_PRIME = (1 << 31) - 1  # Mersenne prime; products below it stay machine-word sized


def _coprime_mod_p(fa: list, fb: list) -> bool:
    """Certificate that two integer polynomials are coprime over the rationals.

    If gcd(fa mod p, fb mod p) is constant for a prime p dividing neither
    leading coefficient, the rational gcd is constant as well (reduction mod
    p can only increase the gcd degree).  A False answer decides nothing.
    """
    p = _GCD_PRIME
    if fa[-1] % p == 0 or fb[-1] % p == 0:
        return False
    ra = [c % p for c in fa]
    rb = [c % p for c in fb]
    while True:
        while rb and rb[-1] == 0:
            rb.pop()
        if not rb:
            return len(ra) == 1
        inv = pow(rb[-1], p - 2, p)
        while len(ra) >= len(rb):
            la = ra[-1]
            if la:
                f = la * inv % p
                shift = len(ra) - len(rb)
                for i, c in enumerate(rb):
                    ra[shift + i] = (ra[shift + i] - f * c) % p
            ra.pop()
        ra, rb = rb, ra


def _gcd_rational(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals via a primitive pseudo-remainder sequence.

    A cheap modular coprimality certificate short-circuits the common case;
    otherwise the chain runs over the integers with primitive parts, which
    avoids the coefficient blowup of a fraction-based Euclid.  This is the
    hot path of every RatFunc reduction.
    """
    fa, fb = _to_int_primitive(a), _to_int_primitive(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    if len(fb) > 1 and _coprime_mod_p(fa, fb):
        return ONE
    while fb:
        r = _int_prem(fa, fb)
        g = _int_content(r)
        fa, fb = fb, [c // g for c in r]
    lc = Fraction(fa[-1])
    return Poly(tuple(Fraction(c) / lc for c in fa))


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic greatest common divisor; gcd(0, 0) = 0."""
    if a.is_zero():
        return b.monic() if not b.is_zero() else b
    if b.is_zero():
        return a.monic()
    if a.degree() == 0 or b.degree() == 0:
        return ONE
    return _gcd_rational(a, b)


def poly_lcm(a: Poly, b: Poly) -> Poly:
    if a.is_zero() or b.is_zero():
        return Poly()
    g = poly_gcd(a, b)
    return (a * b.divexact(g)).monic()


def _divexact_rational(n: Poly, g: Poly) -> Poly:
    """Exact quotient over the rationals through primitive integer division.

    With both operands reduced to primitive integer polynomials the quotient
    of an exact division is again an integer polynomial (Gauss), so the long
    division runs on machine integers and only two Fraction operations fix
    the overall scale.
    """
    pn = _to_int_primitive(n)
    pg = _to_int_primitive(g)
    if len(pn) < len(pg):
        raise ValueError("inexact polynomial division")
    rem = list(pn)
    lg = pg[-1]
    quo = [0] * (len(pn) - len(pg) + 1)
    for k in range(len(quo) - 1, -1, -1):
        top = rem[k + len(pg) - 1]
        if top == 0:
            continue
        q, r = divmod(top, lg)
        if r:
            raise ValueError("inexact polynomial division")
        quo[k] = q
        for i, c in enumerate(pg):
            rem[k + i] -= q * c
    if any(rem):
        raise ValueError("inexact polynomial division")
    scale = (Fraction(n.leading()) / pn[-1]) / (Fraction(g.leading()) / pg[-1])
    return Poly(tuple(c * scale for c in quo))


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
            g = poly_gcd(num, den)
            if g.degree() > 0:
                num, den = num.divexact(g), den.divexact(g)
            lc = den.leading()
            if lc != 1:
                num = num * (_one_over(lc))
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
        if self.den == o.den:
            return RatFunc(self.num + o.num, self.den)
        g = poly_gcd(self.den, o.den)
        if g.degree() > 0:
            da, db = self.den.divexact(g), o.den.divexact(g)
            return RatFunc(self.num * db + o.num * da, self.den * db)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

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
        g1 = poly_gcd(self.num, o.den)
        g2 = poly_gcd(o.num, self.den)
        n1 = self.num.divexact(g1) if g1.degree() > 0 else self.num
        d2 = o.den.divexact(g1) if g1.degree() > 0 else o.den
        n2 = o.num.divexact(g2) if g2.degree() > 0 else o.num
        d1 = self.den.divexact(g2) if g2.degree() > 0 else self.den
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
        # quotient rule collapses to (n'a - nb)/(d*a), much smaller than /d^2
        g = poly_gcd(d, dp)
        if g.degree() > 0:
            a = d.divexact(g)
            b = dp.divexact(g)
            return RatFunc(n.derivative() * a - n * b, d * a)
        return RatFunc(n.derivative() * d - n * dp, d * d)

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

    Any polynomial part (degree of num >= degree of den) is split off and
    discarded; only the principal part is expanded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if r.is_zero():
        return [Fraction(0)] * n
    num, den = r.num, r.den
    if num.degree() >= den.degree():
        num = num % den
    d = den.degree()
    out: list = []
    for k in range(1, n + 1):
        val = num.coeff(d - k)
        for j in range(1, k):
            val = val - out[j - 1] * den.coeff(d - k + j)
        out.append(val)
    return out


def _gauss_jordan(rows: list, ncols: int):
    """In-place reduction of augmented rows (last column is the rhs).

    Returns (pivots, bad_row) where pivots maps column -> row and bad_row is
    the index of the first inconsistent row, or None.  Pivots are chosen as
    the first nonzero entry scanning rows in order for each column left to
    right, which makes the reduction deterministic.  Rows left below the
    pivots have a zero left side, so only their rhs can be inconsistent.
    """
    nrows = len(rows)
    pivots: dict[int, int] = {}
    rank = 0
    for col in range(ncols):
        pr = None
        for r in range(rank, nrows):
            if not _is_zero(rows[r][col]):
                pr = r
                break
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        inv = _one_over(rows[rank][col])
        rows[rank] = [c * inv for c in rows[rank]]
        for r in range(nrows):
            if r != rank and not _is_zero(rows[r][col]):
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    bad = next((r for r in range(rank, nrows) if not _is_zero(rows[r][ncols])), None)
    return pivots, bad


def solve_linear(a, b) -> Optional[list]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero.  Inconsistency is a value, not an error.
    """
    rows = [list(row) + [rhs] for row, rhs in zip(a, b)]
    if not rows:
        return []
    ncols = len(rows[0]) - 1
    pivots, bad = _gauss_jordan(rows, ncols)
    if bad is not None:
        return None
    x = [Fraction(0)] * ncols
    for col, r in pivots.items():
        x[col] = rows[r][ncols]
    return x


# --- serialization -----------------------------------------------------------

def rat_to_str(c) -> str:
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)


def poly_to_json(p: Poly) -> list:
    return [rat_to_str(c) for c in p.coeffs]


def poly_from_json(data: Sequence[str]) -> Poly:
    return Poly(tuple(Fraction(s) for s in data))


def ratfunc_to_json(r: RatFunc) -> dict:
    return {"num": poly_to_json(r.num), "den": poly_to_json(r.den)}


def ratfunc_from_json(data: dict) -> RatFunc:
    return RatFunc(poly_from_json(data["num"]), poly_from_json(data["den"]))
