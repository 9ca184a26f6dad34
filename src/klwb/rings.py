"""Exact sparse arithmetic over Z[v, v^-1] and its relatives.

Everything downstream (Weyl group combinatorics, Hecke algebra products,
K-group linear algebra) reduces to arithmetic in a handful of rings:

* ``LaurentPoly``: Z[v, v^-1], stored as a sparse map exponent -> integer.
* ``BivarPoly``: polynomials in a second variable x with LaurentPoly
  coefficients: annihilator families such as prod_i (x - v^2i) and every
  minimal polynomial, in primitive form with a unit leading coefficient.
* ``Qv``: the fraction field Q(v), a thin layer over LaurentPoly pairs,
  used for exact linear algebra.
* ``LocalizedScalar``: the localization of Z[v, v^-1] at the multiplicative
  set generated by the binomials (1 - v^2i), kept in factored form
  numerator / prod (1 - v^2i)^k.

All values are immutable after construction and safe to share across
threads; every operation is a pure function returning a new value.

>>> one_minus_v2 = LaurentPoly({0: 1, 2: -1})
>>> str(one_minus_v2 * LaurentPoly({0: 1, 2: 1}))
'1 - v^4'
>>> str(annihilator_family(1))
'(1)*x^2 + (-1 - v^2)*x + (v^2)'
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Iterator, Optional


class NonUnitLeadingCoefficient(ValueError):
    """Divisor's leading x-coefficient is not a unit +-v^k of Z[v, v^-1]."""


# ---------------------------------------------------------------------------
# Laurent polynomials in v over Z
# ---------------------------------------------------------------------------

class LaurentPoly:
    """A Laurent polynomial in v with arbitrary-precision integer coefficients.

    The zero polynomial is the empty map; no stored coefficient is zero.

    >>> p = LaurentPoly({-1: 1, 1: -1})
    >>> str(p)
    'v^-1 - v'
    >>> p * p == LaurentPoly({-2: 1, 0: -2, 2: 1})
    True
    """

    __slots__ = ("_c", "_hash")

    def __init__(self, coeffs: Optional[dict[int, int]] = None):
        c: dict[int, int] = {}
        if coeffs:
            for e, x in coeffs.items():
                if x:
                    c[e] = x
        self._c = c
        self._hash: Optional[int] = None

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _raw(c: dict[int, int]) -> LaurentPoly:
        """The polynomial with coefficient map c, which holds no zero; not copied."""
        out = LaurentPoly.__new__(LaurentPoly)
        out._c = c
        out._hash = None
        return out

    @classmethod
    def zero(cls) -> LaurentPoly:
        return _ZERO

    @classmethod
    def one(cls) -> LaurentPoly:
        return _ONE

    @classmethod
    def const(cls, n: int) -> LaurentPoly:
        return cls({0: n})

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> LaurentPoly:
        return cls({exp: coeff})

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._c

    def __bool__(self) -> bool:
        return bool(self._c)

    def coefficient(self, exp: int) -> int:
        return self._c.get(exp, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        """Pairs (exponent, coefficient) in ascending exponent order."""
        return iter(sorted(self._c.items()))

    @property
    def min_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return min(self._c)

    @property
    def max_exp(self) -> int:
        if not self._c:
            raise ValueError("zero polynomial has no exponents")
        return max(self._c)

    @property
    def is_unit(self) -> bool:
        """True for +-v^k, the units of Z[v, v^-1]."""
        return len(self._c) == 1 and abs(next(iter(self._c.values()))) == 1

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._c.items()))
        return self._hash

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -x for e, x in self._c.items()})

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, x in other._c.items():
            y = c.get(e, 0) + x
            if y:
                c[e] = y
            elif e in c:
                del c[e]
        return LaurentPoly._raw(c)

    __radd__ = __add__

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        c = dict(self._c)
        for e, x in other._c.items():
            y = c.get(e, 0) - x
            if y:
                c[e] = y
            elif e in c:
                del c[e]
        return LaurentPoly._raw(c)

    def __rsub__(self, other: int) -> LaurentPoly:
        return LaurentPoly.const(other) - self

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return _ZERO
            if other == 1:
                return self
            c = {e: x * other for e, x in self._c.items()}
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        else:
            a, b = self._c, other._c
            if not a or not b:
                return _ZERO
            if len(b) == 1:
                (eb, xb), = b.items()
                c = {e + eb: x * xb for e, x in a.items()}
            elif len(a) == 1:
                (ea, xa), = a.items()
                c = {ea + e: xa * x for e, x in b.items()}
            else:
                c = {}
                for ea, xa in a.items():
                    for eb, xb in b.items():
                        e = ea + eb
                        y = c.get(e, 0) + xa * xb
                        if y:
                            c[e] = y
                        elif e in c:
                            del c[e]
        return LaurentPoly._raw(c)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            if not self.is_unit:
                raise ValueError("negative power of a non-unit")
            (e, x), = self._c.items()
            return LaurentPoly({e * n: 1 if x == 1 or n % 2 == 0 else -1})
        result = _ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def shifted(self, k: int) -> LaurentPoly:
        """Multiply by the unit v^k."""
        if k == 0:
            return self
        return LaurentPoly({e + k: x for e, x in self._c.items()})

    def bar(self) -> LaurentPoly:
        """The involution v -> v^-1."""
        return LaurentPoly({-e: x for e, x in self._c.items()})

    # -- evaluation and division --------------------------------------------

    def eval_one(self) -> int:
        """Value at v = 1."""
        return sum(self._c.values())

    def specialize_sqrt_q(self, q: int) -> SqrtValue:
        """Exact value at v = sqrt(q) as a + b*sqrt(q) with rational a, b.

        When q is a perfect square the sqrt part is folded into the
        rational part, so ``b`` is zero.
        """
        if q < 2:
            raise ValueError("q must be at least 2")
        a = Fraction(0)
        b = Fraction(0)
        for e, c in self._c.items():
            if e % 2 == 0:
                a += c * Fraction(q) ** (e // 2)
            else:
                b += c * Fraction(q) ** ((e - 1) // 2)
        r = isqrt(q)
        if r * r == q:
            a += b * r
            b = Fraction(0)
        return SqrtValue(a, b, q)

    def divide_exact(self, d: LaurentPoly) -> Optional[LaurentPoly]:
        """Quotient self / d in Z[v, v^-1] if the division is exact, else None."""
        if d.is_zero:
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero:
            return _ZERO
        # shift both to ordinary polynomials; v^k factors are units
        sf, f = _as_dense(self)
        sd, g = _as_dense(d)
        if len(f) < len(g):
            return None
        # long division in Z: a quotient coefficient outside Z means the
        # quotient in Q[v], if any, is not integral, so stop there
        out: dict[int, int] = {}
        glead = g[-1]
        for k in range(len(f) - len(g), -1, -1):
            coeff, r = divmod(f[k + len(g) - 1], glead)
            if r:
                return None
            if coeff:
                out[k + sf - sd] = coeff
                for j, gx in enumerate(g):
                    f[k + j] -= coeff * gx
        if any(f):
            return None
        return LaurentPoly(out)

    # -- rendering ----------------------------------------------------------

    def render(self) -> str:
        """Canonical text form, terms in ascending exponent: '1 - v^2 + v^4'."""
        if not self._c:
            return "0"
        bits: list[str] = []
        for e in sorted(self._c):
            c = self._c[e]
            mag = abs(c)
            if e == 0:
                term = str(mag)
            else:
                vp = "v" if e == 1 else f"v^{e}"
                term = vp if mag == 1 else f"{mag}*{vp}"
            if not bits:
                bits.append(term if c > 0 else "-" + term)
            else:
                bits.append(("+ " if c > 0 else "- ") + term)
        return " ".join(bits)

    def to_json(self) -> dict[str, int]:
        return {str(e): self._c[e] for e in sorted(self._c)}

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LaurentPoly({{{', '.join(f'{e}: {self._c[e]}' for e in sorted(self._c))}}})"


_ZERO = LaurentPoly()
_ONE = LaurentPoly({0: 1})
V = LaurentPoly({1: 1})
V2 = LaurentPoly({2: 1})


def _as_dense(p: LaurentPoly) -> tuple[int, list[int]]:
    """(shift, coefficient list) with list[0] the v^shift coefficient."""
    lo = p.min_exp
    hi = p.max_exp
    dense = [0] * (hi - lo + 1)
    for e, x in p._c.items():
        dense[e - lo] = x
    return lo, dense


def pack(p: LaurentPoly, lo: int, b: int) -> int:
    """Kronecker substitution: v^-lo p at v = 2^b, for lo <= the least exponent.

    ``unpack`` inverts it when every coefficient is below 2^(b-1) in size.
    """
    return sum(x << b * (e - lo) for e, x in p._c.items())


def unpack(n: int, lo: int, b: int) -> LaurentPoly:
    """Inverse of ``pack``: read n in base 2^b with signed digits (b >= 2 unless n = 0)."""
    if n and b < 2:
        raise ValueError("unpack needs a width of at least 2 bits, got %d" % b)
    c: dict[int, int] = {}
    mask, half, e = (1 << b) - 1, 1 << (b - 1), lo
    while n:
        d = n & mask
        n >>= b
        if d >= half:
            d -= mask + 1
            n += 1
        if d:
            c[e] = d
        e += 1
    return LaurentPoly._raw(c)


class SqrtValue:
    """An exact value a + b*sqrt(q) with rational a, b."""

    __slots__ = ("a", "b", "q")

    def __init__(self, a: Fraction, b: Fraction, q: int):
        self.a = a
        self.b = b
        self.q = q

    @property
    def nonzero(self) -> bool:
        # for non-square q, sqrt(q) is irrational, so a + b*sqrt(q) = 0
        # forces a = b = 0
        return bool(self.a) or bool(self.b)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if not isinstance(other, SqrtValue):
            return NotImplemented
        return (self.a, self.b, self.q) == (other.a, other.b, other.q)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.q))

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}*sqrt({self.q})"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a} {sign} {abs(self.b)}*sqrt({self.q})"

    def __repr__(self) -> str:
        return f"SqrtValue({self.a!r}, {self.b!r}, {self.q})"


# ---------------------------------------------------------------------------
# gcd machinery on Z[v] (used by the fraction field)
# ---------------------------------------------------------------------------

def _zx_content(a: list[int]) -> int:
    g = 0
    for x in a:
        g = gcd(g, x)
    return g


def _zx_primitive(a: list[int]) -> list[int]:
    g = _zx_content(a)
    if g in (0, 1):
        return list(a)
    return [x // g for x in a]


def _zx_strip(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _zx_pseudo_rem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder of a by b (b nonzero), coefficients stay integral."""
    r = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(r) - 1 >= db and r:
        dr = len(r) - 1
        lead = r[-1]
        # multiply r by lb, subtract lead * x^(dr-db) * b
        r = [x * lb for x in r]
        for j in range(db + 1):
            r[dr - db + j] -= lead * b[j]
        _zx_strip(r)
    return r


def _zx_gcd(a: list[int], b: list[int]) -> list[int]:
    """Gcd in Z[v] via the primitive polynomial remainder sequence."""
    a = _zx_strip(list(a))
    b = _zx_strip(list(b))
    ca, cb = _zx_content(a), _zx_content(b)
    cont = gcd(ca, cb)
    a = _zx_primitive(a)
    b = _zx_primitive(b)
    while b:
        r = _zx_pseudo_rem(a, b)
        a, b = b, _zx_primitive(r)
    if not a:
        return [cont] if cont else []
    if a[-1] < 0:
        a = [-x for x in a]
    return [x * cont for x in a] if cont > 1 else a


def gcd_laurent(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """A gcd of p and q in Z[v, v^-1], normalized to Z[v] with nonzero
    constant term and positive leading coefficient."""
    if p.is_zero and q.is_zero:
        return _ZERO
    if p.is_zero:
        p, q = q, p
    if q.is_zero:
        _, dense = _as_dense(p)
        g = _zx_strip(list(dense))
        while g and g[0] == 0:
            g.pop(0)
        if g and g[-1] < 0:
            g = [-x for x in g]
        return LaurentPoly({k: x for k, x in enumerate(g)})
    _, a = _as_dense(p)
    _, b = _as_dense(q)
    g = _zx_gcd(a, b)
    while g and g[0] == 0:
        g.pop(0)
    return LaurentPoly({k: x for k, x in enumerate(g)})


# ---------------------------------------------------------------------------
# the fraction field Q(v)
# ---------------------------------------------------------------------------

class Qv:
    """An element of Q(v) as a reduced pair of Laurent polynomials.

    Canonical form: denominator lies in Z[v], has nonzero constant term,
    positive leading coefficient, and is coprime to the numerator, so
    equality is componentwise.  A unit denominator +-v^k skips the gcd: it
    is folded into the numerator by the shift and the sign below, which is
    all the reduction it needs.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly | int, den: LaurentPoly | int = 1):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if isinstance(den, int):
            den = LaurentPoly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in Q(v)")
        if num.is_zero:
            self.num = _ZERO
            self.den = _ONE
            return
        if not den.is_unit:
            g = gcd_laurent(num, den)
            if not g.is_unit or g.min_exp != 0:
                num = num.divide_exact(g)
                den = den.divide_exact(g)
        # fold the unit part of the denominator into the numerator
        shift = den.min_exp
        if shift:
            den = den.shifted(-shift)
            num = num.shifted(-shift)
        if den.coefficient(den.max_exp) < 0:
            den = -den
            num = -num
        self.num = num
        self.den = den

    @classmethod
    def _raw(cls, num: LaurentPoly, den: LaurentPoly) -> Qv:
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        return out

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self) -> bool:
        return not self.num.is_zero

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, LaurentPoly)):
            other = Qv(other)
        if not isinstance(other, Qv):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __neg__(self) -> Qv:
        return Qv._raw(-self.num, self.den)

    def __add__(self, other: Qv | LaurentPoly | int) -> Qv:
        if not isinstance(other, Qv):
            other = Qv(other)
        if self.den == other.den:
            return Qv(self.num + other.num, self.den)
        return Qv(self.num * other.den + other.num * self.den,
                  self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other: Qv | LaurentPoly | int) -> Qv:
        if not isinstance(other, Qv):
            other = Qv(other)
        if self.den == other.den:
            return Qv(self.num - other.num, self.den)
        return Qv(self.num * other.den - other.num * self.den,
                  self.den * other.den)

    def __rsub__(self, other: LaurentPoly | int) -> Qv:
        return Qv(other) - self

    def __mul__(self, other: Qv | LaurentPoly | int) -> Qv:
        if not isinstance(other, Qv):
            other = Qv(other)
        if self.num.is_zero or other.num.is_zero:
            return QV_ZERO
        return Qv(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other: Qv | LaurentPoly | int) -> Qv:
        if not isinstance(other, Qv):
            other = Qv(other)
        if other.num.is_zero:
            raise ZeroDivisionError("division by zero in Q(v)")
        return Qv(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other: LaurentPoly | int) -> Qv:
        return Qv(other) / self

    def inv(self) -> Qv:
        return Qv(self.den, self.num)

    @property
    def is_polynomial(self) -> bool:
        return self.den == _ONE

    def render(self) -> str:
        if self.den == _ONE:
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Qv({self.num!r}, {self.den!r})"


QV_ZERO = Qv._raw(_ZERO, _ONE)
QV_ONE = Qv._raw(_ONE, _ONE)


# ---------------------------------------------------------------------------
# polynomials in x over Z[v, v^-1]
# ---------------------------------------------------------------------------

class BivarPoly:
    """A polynomial in x with LaurentPoly coefficients.

    ``xcoeffs[k]`` is the coefficient of x^k; the leading entry is nonzero
    unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("xcoeffs",)

    def __init__(self, xcoeffs):
        cs = list(xcoeffs)
        while cs and cs[-1].is_zero:
            cs.pop()
        self.xcoeffs = tuple(cs)

    @classmethod
    def zero(cls) -> BivarPoly:
        return cls(())

    @classmethod
    def const(cls, c: LaurentPoly | int) -> BivarPoly:
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return cls((c,))

    @classmethod
    def x_minus(cls, c: LaurentPoly) -> BivarPoly:
        return cls((-c, _ONE))

    @property
    def is_zero(self) -> bool:
        return not self.xcoeffs

    @property
    def degree(self) -> int:
        """Degree in x; -1 for the zero polynomial."""
        return len(self.xcoeffs) - 1

    def coefficient(self, k: int) -> LaurentPoly:
        if 0 <= k < len(self.xcoeffs):
            return self.xcoeffs[k]
        return _ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return self.xcoeffs == other.xcoeffs

    def __hash__(self) -> int:
        return hash(self.xcoeffs)

    def __neg__(self) -> BivarPoly:
        return BivarPoly(tuple(-c for c in self.xcoeffs))

    def __add__(self, other: BivarPoly) -> BivarPoly:
        n = max(len(self.xcoeffs), len(other.xcoeffs))
        return BivarPoly(tuple(self.coefficient(k) + other.coefficient(k)
                               for k in range(n)))

    def __sub__(self, other: BivarPoly) -> BivarPoly:
        n = max(len(self.xcoeffs), len(other.xcoeffs))
        return BivarPoly(tuple(self.coefficient(k) - other.coefficient(k)
                               for k in range(n)))

    def __mul__(self, other: BivarPoly | LaurentPoly | int) -> BivarPoly:
        if isinstance(other, (LaurentPoly, int)):
            return BivarPoly(tuple(c * other for c in self.xcoeffs))
        if self.is_zero or other.is_zero:
            return BivarPoly(())
        out = [_ZERO] * (len(self.xcoeffs) + len(other.xcoeffs) - 1)
        for i, a in enumerate(self.xcoeffs):
            if a.is_zero:
                continue
            for j, b in enumerate(other.xcoeffs):
                if b.is_zero:
                    continue
                out[i + j] = out[i + j] + a * b
        return BivarPoly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> BivarPoly:
        result = BivarPoly.const(_ONE)
        for _ in range(n):
            result = result * self
        return result

    def eval_x(self, value: LaurentPoly | int) -> LaurentPoly:
        """Evaluate at a scalar x by Horner's rule."""
        if isinstance(value, int):
            value = LaurentPoly.const(value)
        acc = _ZERO
        for c in reversed(self.xcoeffs):
            acc = acc * value + c
        return acc

    def render(self) -> str:
        """x-degree descending with parenthesized Laurent coefficients."""
        if not self.xcoeffs:
            return "(0)"
        bits = []
        for k in range(len(self.xcoeffs) - 1, -1, -1):
            c = self.xcoeffs[k]
            if c.is_zero:
                continue
            if k == 0:
                bits.append(f"({c.render()})")
            elif k == 1:
                bits.append(f"({c.render()})*x")
            else:
                bits.append(f"({c.render()})*x^{k}")
        return " + ".join(bits)

    def to_json(self) -> list[dict[str, int]]:
        return [c.to_json() for c in self.xcoeffs]

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"BivarPoly({list(self.xcoeffs)!r})"


def divmod_x(f: BivarPoly, g: BivarPoly) -> tuple[BivarPoly, BivarPoly]:
    """Exact division with remainder in Z[v, v^-1][x].

    Requires the leading x-coefficient of g to be a unit +-v^k, so the
    division never leaves the ring.  Returns (q, rem) with f = q*g + rem
    and deg_x(rem) < deg_x(g).
    """
    if g.is_zero:
        raise ZeroDivisionError("division by zero polynomial")
    glead = g.xcoeffs[-1]
    if not glead.is_unit:
        raise NonUnitLeadingCoefficient(
            f"leading x-coefficient {glead} is not a unit of Z[v, v^-1]")
    (e, c), = glead._c.items()
    glead_inv = LaurentPoly({-e: c})  # c is +-1
    dg = g.degree
    rem = list(f.xcoeffs)
    if len(rem) - 1 < dg:
        return BivarPoly(()), f
    q = [_ZERO] * (len(rem) - dg)
    for k in range(len(q) - 1, -1, -1):
        lead = rem[k + dg]
        if lead.is_zero:
            continue
        coeff = lead * glead_inv
        q[k] = coeff
        for j in range(dg + 1):
            rem[k + j] = rem[k + j] - coeff * g.xcoeffs[j]
    return BivarPoly(tuple(q)), BivarPoly(tuple(rem[:dg]))


def annihilator_family(m: int, tilde: bool = False) -> BivarPoly:
    """The product prod_{i=0..m} (x - v^2i), or prod_{i=1..m} when tilde.

    The tilde variant drops the (x - 1) factor; for m = 0 it is the
    constant 1.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    out = BivarPoly.const(_ONE)
    for i in range(1 if tilde else 0, m + 1):
        out = out * BivarPoly.x_minus(LaurentPoly.monomial(2 * i))
    return out


def split_at_one(ptilde: BivarPoly) -> tuple[LaurentPoly, BivarPoly]:
    """Split off the value at x = 1: returns (pv, r) with
    pv = ptilde(1) = ptilde(x) + r(x)*(x - 1) exactly.

    r is the negated quotient of (ptilde - pv) by (x - 1); the remainder
    of that division vanishes because ptilde - pv has 1 as a root.
    """
    pv = ptilde.eval_x(1)
    diff = ptilde - BivarPoly.const(pv)
    q, rem = divmod_x(diff, BivarPoly.x_minus(_ONE))
    if not rem.is_zero:
        raise AssertionError("x - 1 must divide ptilde - ptilde(1)")
    return pv, -q


def p_poly(m: int) -> LaurentPoly:
    """The scalar p = prod_{i=1..m} (1 - v^2i), the tilde family at x = 1."""
    out = _ONE
    for i in range(1, m + 1):
        out = out * LaurentPoly({0: 1, 2 * i: -1})
    return out


def divides_p_power(d: LaurentPoly, m: int, rmax: int = 5) -> Optional[int]:
    """Least r <= rmax with d | (prod_{i=1..m}(1 - v^2i))^r, or None.

    r = 0 is reported for units.  Divisibility by p^r is monotone in r,
    so the first success is the least certificate.
    """
    if d.is_zero:
        raise ValueError("d must be nonzero")
    if m < 1 or rmax < 1:
        raise ValueError("m and rmax must be positive")
    if d.is_unit:
        return 0
    p = p_poly(m)
    power = _ONE
    for r in range(1, rmax + 1):
        power = power * p
        if power.divide_exact(d) is not None:
            return r
    return None


# ---------------------------------------------------------------------------
# the localization at the binomials (1 - v^2i)
# ---------------------------------------------------------------------------

def binom(i: int) -> LaurentPoly:
    """The binomial 1 - v^2i."""
    return LaurentPoly({0: 1, 2 * i: -1})


class LocalizedScalar:
    """numerator / prod_i (1 - v^2i)^mult, kept reduced.

    Reduction cancels every whole binomial that exactly divides the
    numerator, and additionally replaces a denominator factor by a smaller
    one when the numerator carries the complementary factor (for instance
    (1 + v^2) / (1 - v^4) reduces to 1 / (1 - v^2)).
    """

    __slots__ = ("num", "den")

    def __init__(self, numerator: LaurentPoly | int,
                 denominator: Optional[dict[int, int]] = None):
        if isinstance(numerator, int):
            numerator = LaurentPoly.const(numerator)
        den: dict[int, int] = {}
        if denominator:
            for i, k in denominator.items():
                if i < 1:
                    raise ValueError(f"denominator index {i} must be >= 1")
                if k < 0:
                    raise ValueError("denominator multiplicity must be >= 0")
                if k:
                    den[i] = den.get(i, 0) + k
        num, den = _localized_reduce(numerator, den)
        self.num = num
        self.den = den

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocalizedScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, frozenset(self.den.items())))

    def __mul__(self, other: LocalizedScalar | LaurentPoly | int) -> LocalizedScalar:
        if not isinstance(other, LocalizedScalar):
            other = LocalizedScalar(other)
        den = dict(self.den)
        for i, k in other.den.items():
            den[i] = den.get(i, 0) + k
        return LocalizedScalar(self.num * other.num, den)

    __rmul__ = __mul__

    def denominator_poly(self) -> LaurentPoly:
        out = _ONE
        for i in sorted(self.den):
            for _ in range(self.den[i]):
                out = out * binom(i)
        return out

    def render(self) -> str:
        if not self.den:
            return self.num.render()
        parts = []
        for i in sorted(self.den):
            base = f"(1 - v^{2 * i})"
            k = self.den[i]
            parts.append(base if k == 1 else f"{base}^{k}")
        return f"({self.num.render()}) / " + " ".join(parts)

    def to_json(self) -> dict:
        return {"numerator": self.num.to_json(),
                "denominator": {str(i): self.den[i] for i in sorted(self.den)}}

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"LocalizedScalar({self.num!r}, {dict(sorted(self.den.items()))!r})"


def _localized_reduce(num: LaurentPoly,
                      den: dict[int, int]) -> tuple[LaurentPoly, dict[int, int]]:
    if num.is_zero:
        return _ZERO, {}
    den = dict(den)
    changed = True
    while changed:
        changed = False
        # cancel whole binomials dividing the numerator
        for i in sorted(den):
            while den.get(i, 0) > 0:
                q = num.divide_exact(binom(i))
                if q is None:
                    break
                num = q
                den[i] -= 1
                changed = True
            if den.get(i) == 0:
                del den[i]
        # partial cancellation: numerator holds a complementary factor of a
        # binomial whose cofactor is again a single binomial (up to sign)
        for i in sorted(den, reverse=True):
            if den.get(i, 0) <= 0:
                continue
            g = gcd_laurent(num, binom(i))
            if g.is_unit:
                continue
            cofactor = binom(i).divide_exact(g)
            swapped = False
            for j in range(1, i):
                for sign in (1, -1):
                    if cofactor == binom(j) * sign:
                        num = num.divide_exact(g) * sign
                        den[i] -= 1
                        if not den[i]:
                            del den[i]
                        den[j] = den.get(j, 0) + 1
                        swapped = True
                        break
                if swapped:
                    break
            if swapped:
                changed = True
                break
    return num, den
