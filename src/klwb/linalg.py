"""Exact linear algebra over Z[v, v^-1] and its fraction field Q(v).

``reduce_pair`` and ``echelon_row`` eliminate fraction-free over
Z[v, v^-1] for the Krylov minimal polynomial.  Minimal polynomials are
primitive ``BivarPoly`` in Z[v, v^-1][x]: an operator with entries in
Z[v, v^-1] has a monic minimal polynomial over Z[v, v^-1] (Gauss's lemma),
so the primitive form has a unit leading coefficient, and ``divmod_x`` by
it, ``lcm_x`` and ``bivar_divides`` never leave the ring.
``solve_linear``, dense Gauss-Jordan over Q(v), has no caller in
the package: the tests solve with it as the reference for the free-span
solver (``k0model.OrbitModule.solve_free``), a cached sparse column
echelon that also stays in Q(v).  Fraction-free elimination does not suit
that echelon: built with ``reduce_pair`` on the 8-dim block of B2/3 (rank
33 of 64), its preimages swelled to 267-bit coefficients and a v-degree
span of 1808, and the build took 63 s against 1.8 s over Q(v) (2-core VM,
CPython 3.11).  Everything here is deterministic and exact.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .rings import QV_ZERO, BivarPoly, LaurentPoly, Qv, divmod_x, gcd_laurent


class DegreeBoundExceeded(ArithmeticError):
    """A minimal polynomial passed the x-degree its caller proved for it."""


def solve_linear(rows: Sequence[Sequence[Qv]], rhs: Sequence[Qv]) -> Optional[List[Qv]]:
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero.  The input is not modified.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        pivot = None
        for i in range(r, m):
            if a[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c].inv()
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n]:
            return None
    out = [QV_ZERO] * n
    for i, c in enumerate(pivots):
        out[c] = a[i][n]
    return out


def reduce_pair(u, w, rows):
    """Clear u at the pivots of fraction-free rows, carrying w along.

    Vectors are over Z[v, v^-1].  A row (piv, ru, rw, d) has ru[piv] = d.
    At a nonzero entry f = u[piv] the pair becomes (u - q ru, w - q rw)
    with q = f / d when d divides f, else (d u - f ru, d w - f rw).
    Returns (u, w, sigma), sigma the product of the factors d applied.
    """
    one = LaurentPoly.one()
    sigma = one
    for piv, ru, rw, d in rows:
        f = u[piv]
        if not f:
            continue
        q = f if d == one else f.divide_exact(d)
        if q is None:
            sigma = sigma * d
            u = [d * a - f * b if b else d * a for a, b in zip(u, ru)]
            w = [d * a - f * b if b else d * a for a, b in zip(w, rw)]
        else:
            u = [a - q * b if b else a for a, b in zip(u, ru)]
            w = [a - q * b if b else a for a, b in zip(w, rw)]
    return u, w, sigma


def echelon_row(u, w):
    """The row (piv, u, w, d) of a reduced pair, d = u[piv] at its first
    nonzero entry, or None when u is zero.  A unit pivot is scaled to 1."""
    piv = next((i for i, a in enumerate(u) if a), None)
    if piv is None:
        return None
    d = u[piv]
    if d.is_unit:
        inv = d ** -1
        u = [inv * a for a in u]
        w = [inv * a for a in w]
        d = LaurentPoly.one()
    return piv, u, w, d


def _primitive(cs: Sequence[LaurentPoly]) -> BivarPoly:
    """The primitive form of the polynomial with x-coefficients cs: no common
    Laurent factor among them, the least v-exponent across them zero, and
    a positive leading v-coefficient in the leading x-coefficient."""
    g = LaurentPoly.zero()
    for c in cs:
        g = gcd_laurent(g, c)
    if g != LaurentPoly.one():
        cs = [c.divide_exact(g) for c in cs]
    shift = min(c.min_exp for c in cs if c)
    lead = next(c for c in reversed(cs) if c)
    sign = -1 if lead.coefficient(lead.max_exp) < 0 else 1
    return BivarPoly([c.shifted(-shift) * sign for c in cs])


def _krylov_annihilator(apply_fn, vec: List[LaurentPoly], limit: int) -> Optional[BivarPoly]:
    """Primitive minimal polynomial killing vec under the operator, or None
    when its x-degree passes limit (at most len(vec)).

    Fraction-free: a row (piv, r, comp, d) has r = comp(A) vec, r[piv] = d
    and comp padded to degree dim.  The final comp is a Z[v, v^-1] multiple
    of the monic annihilator; its primitive form is returned.  The run
    stops after limit + 1 independent vectors A^k vec.
    """
    dim = len(vec)
    rows = []
    cur = list(vec)
    for k in range(limit + 1):
        comp = [LaurentPoly.zero()] * (dim + 1)
        comp[k] = LaurentPoly.one()
        r, comp, _ = reduce_pair(cur, comp, rows)
        row = echelon_row(r, comp)
        if row is None:
            return _primitive(comp)
        rows.append(row)
        cur = apply_fn(cur)
    return None


def sparse_operator(cols, dim: int) -> Callable[[list], list]:
    """The operator on length-dim vectors whose column j is cols[j] = [(row, coeff)]."""

    def apply(vec):
        out = [LaurentPoly.zero()] * dim
        for c, col in zip(vec, cols):
            if c:
                for r, x in col:
                    out[r] = out[r] + c * x
        return out

    return apply


def minpoly_operator(apply_fn: Callable[[list], list], dim: int, max_degree: Optional[int] = None) -> BivarPoly:
    """Minimal polynomial of a linear operator given by its action on vectors.

    The operator acts on vectors over Z[v, v^-1]; the result is primitive
    (``_primitive``) with a unit leading coefficient.  It is the lcm m of
    the annihilators of the basis vectors, built one vector at a time:
    lcm(m, ann(e_i)) = m ann(m(A) e_i), and u = m(A) e_i, one Horner chain
    of deg m operator steps, is zero when ann(e_i) divides m already, so
    e_i is then skipped.  A product of primitive polynomials is primitive
    (Gauss's lemma), so m needs no normalization.

    With max_degree, DegreeBoundExceeded as soon as m would pass that
    x-degree: the Krylov run that would take it past stops there, so a
    wrong operator costs about max_degree steps per vector, not dim.
    """
    top = dim if max_degree is None else min(max_degree, dim)
    m = BivarPoly.const(1)
    for i in range(dim):
        u = [LaurentPoly.zero()] * dim
        u[i] = m.xcoeffs[-1]
        for c in reversed(m.xcoeffs[:-1]):
            u = apply_fn(u)
            u[i] = u[i] + c
        if any(u):
            ann = _krylov_annihilator(apply_fn, u, top - m.degree)
            if ann is None:
                raise DegreeBoundExceeded("minimal polynomial passes x-degree %d" % top)
            m = m * ann
            if m.degree == dim:
                break
    return m


def lcm_x(a: BivarPoly, b: BivarPoly) -> BivarPoly:
    """An lcm of a and b in Q(v)[x], primitive when a is.

    It is a times the annihilator of a mod b under multiplication by x
    modulo b, which is b / gcd(a, b).  b's leading coefficient must be a
    unit (else NonUnitLeadingCoefficient), as it is for every minimal
    polynomial here, so the reductions stay in Z[v, v^-1][x].
    """
    d = b.degree
    x = BivarPoly.x_minus(LaurentPoly.zero())
    cols = [[(k, c) for k, c in enumerate(divmod_x(x ** (j + 1), b)[1].xcoeffs) if c] for j in range(d)]
    rem = list(divmod_x(a, b)[1].xcoeffs)
    return a * _krylov_annihilator(sparse_operator(cols, d), rem + [LaurentPoly.zero()] * (d - len(rem)), d)


def bivar_divides(d: BivarPoly, f: BivarPoly) -> bool:
    """Whether d, with a unit leading coefficient, divides f."""
    return divmod_x(f, d)[1].is_zero
