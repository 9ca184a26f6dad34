"""Exact linear algebra over Z[v, v^-1] and its fraction field Q(v).

``reduce_pair`` and ``echelon_row`` eliminate fraction-free over
Z[v, v^-1] for the Krylov minimal polynomial, and only the monic minimal
polynomial is divided into Q(v).
``solve_linear``, dense Gauss-Jordan on lists of Qv, has no caller in
the package: the tests solve with it as the reference for the free-span
solver (``k0model.OrbitModule.solve_free``), a cached sparse column
echelon that also stays in Q(v).  Fraction-free elimination does not suit
that echelon: built with ``reduce_pair`` on the 8-dim block of B2/3 (rank
33 of 64), its preimages swelled to 267-bit coefficients and a v-degree
span of 1808, and the build took 63 s against 1.8 s over Q(v) (2-core VM,
CPython 3.11).
Univariate polynomials over Q(v) are lists of Qv coefficients in
ascending degree.  Everything here is deterministic and exact.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

from .rings import QV_ONE, QV_ZERO, BivarPoly, LaurentPoly, Qv, gcd_laurent


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


# -- univariate polynomials over Q(v), ascending coefficients ---------------


def qpoly_normalize(p: List[Qv]) -> List[Qv]:
    q = list(p)
    while q and not q[-1]:
        q.pop()
    if q:
        lead = q[-1].inv()
        q = [c * lead for c in q]
    return q


def qpoly_mul(p: Sequence[Qv], q: Sequence[Qv]) -> List[Qv]:
    if not p or not q:
        return []
    out = [QV_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return out


def qpoly_divmod(p: Sequence[Qv], q: Sequence[Qv]):
    q = qpoly_normalize(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quot = [QV_ZERO] * max(0, len(rem) - len(q) + 1)
    while len(rem) >= len(q):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(q):
            break
        shift = len(rem) - len(q)
        f = rem[-1]
        quot[shift] = quot[shift] + f
        for i, c in enumerate(q):
            rem[shift + i] = rem[shift + i] - f * c
        rem.pop()
    while rem and not rem[-1]:
        rem.pop()
    return quot, rem


def qpoly_gcd(p: Sequence[Qv], q: Sequence[Qv]) -> List[Qv]:
    a = qpoly_normalize(list(p))
    b = qpoly_normalize(list(q))
    while b:
        _, r = qpoly_divmod(a, b)
        a, b = b, qpoly_normalize(r)
    return a


def qpoly_lcm(p: Sequence[Qv], q: Sequence[Qv]) -> List[Qv]:
    if not p:
        return qpoly_normalize(list(q))
    if not q:
        return qpoly_normalize(list(p))
    g = qpoly_gcd(p, q)
    quot, rem = qpoly_divmod(qpoly_mul(p, q), g)
    assert not rem
    return qpoly_normalize(quot)


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


def _krylov_annihilator(apply_fn, vec: List[LaurentPoly]) -> List[Qv]:
    """Monic minimal polynomial killing vec under the operator.

    Fraction-free: a row (piv, r, comp, d) has r = comp(A) vec, r[piv] = d
    and comp padded to degree dim.  Only the final comp is made monic.
    """
    dim = len(vec)
    rows = []
    cur = list(vec)
    for k in range(dim + 1):
        comp = [LaurentPoly.zero()] * (dim + 1)
        comp[k] = LaurentPoly.one()
        r, comp, _ = reduce_pair(cur, comp, rows)
        row = echelon_row(r, comp)
        if row is None:
            return qpoly_normalize([Qv(c) for c in comp])
        rows.append(row)
        cur = apply_fn(cur)
    raise AssertionError("Krylov space exceeds the dimension")


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


def minpoly_operator(apply_fn: Callable[[list], list], dim: int) -> List[Qv]:
    """Minimal polynomial of a linear operator given by its action on vectors.

    The operator acts on vectors over Z[v, v^-1]; the result is monic, with
    coefficients over Q(v) in ascending degree.  It is the lcm m of the
    annihilators ann(e_i) of the basis vectors, each from a Krylov sequence
    (``_krylov_annihilator``), except that e_i is skipped when m(A) e_i = 0
    already.  That is exact: then ann(e_i) divides m, so the lcm is m again.
    The test runs Horner on the primitive integral form of m
    (``qpoly_to_bivar``), a nonzero Q(v) multiple of m with the same kernel,
    and costs deg m operator steps against up to dim + 1 for a Krylov
    sequence.
    """
    if dim == 0:
        return [QV_ONE]
    m: List[Qv] = []
    kill: Sequence[LaurentPoly] = ()
    for i in range(dim):
        if kill:
            acc = [LaurentPoly.zero()] * dim
            acc[i] = kill[-1]
            for c in reversed(kill[:-1]):
                acc = apply_fn(acc)
                acc[i] = acc[i] + c
            if not any(acc):
                continue
        e = [LaurentPoly.zero()] * dim
        e[i] = LaurentPoly.one()
        ann = _krylov_annihilator(apply_fn, e)
        m = qpoly_lcm(m, ann) if m else ann
        if len(m) - 1 == dim:
            break
        kill = qpoly_to_bivar(m).xcoeffs
    return m


def qpoly_to_bivar(coeffs: Sequence[Qv]) -> BivarPoly:
    """Clear denominators and content to a primitive integral polynomial.

    Normalization: no common Laurent factor among the x-coefficients, the
    least v-exponent across them is zero, and the leading x-coefficient has a
    positive leading v-coefficient.
    """
    cs = qpoly_normalize(list(coeffs))
    if not cs:
        return BivarPoly.zero()
    den = LaurentPoly.one()
    for c in cs:
        g = gcd_laurent(den, c.den)
        extra = c.den.divide_exact(g) if not g.is_zero else c.den
        den = den * extra
    nums = []
    for c in cs:
        q = den.divide_exact(c.den)
        assert q is not None
        nums.append(c.num * q)
    shift = min(p.min_exp for p in nums if not p.is_zero)
    if shift:
        nums = [p.shifted(-shift) for p in nums]
    g = LaurentPoly.zero()
    for p in nums:
        g = gcd_laurent(g, p)
    if not g.is_zero and g != LaurentPoly.one():
        nums = [p.divide_exact(g) for p in nums]
        assert all(p is not None for p in nums)
    lead = nums[-1]
    if lead.coefficient(lead.max_exp) < 0:
        nums = [-p for p in nums]
    return BivarPoly(tuple(nums))


def bivar_divides(d: BivarPoly, f: BivarPoly) -> bool:
    """Whether d divides f over Q(v)[x]."""
    dq = [Qv(c) for c in d.xcoeffs]
    fq = [Qv(c) for c in f.xcoeffs]
    if not dq:
        return not fq
    _, rem = qpoly_divmod(fq, dq)
    return not rem
