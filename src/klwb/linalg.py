"""Exact linear algebra over Z[v, v^-1] and its fraction field Q(v).

``reduce_pair`` and ``echelon_row`` are the one elimination: fraction-free
over Z[v, v^-1] on sparse vectors, each row divided by its content and
pivoted on its entry of least degree span.  They run the Krylov minimal
polynomials here and the free-span echelon of
``k0model.OrbitModule.solve_free``.  Minimal polynomials are primitive
``BivarPoly`` in Z[v, v^-1][x]: an operator with entries in Z[v, v^-1] has a
monic minimal polynomial over Z[v, v^-1] (Gauss's lemma), so the primitive
form has a unit leading coefficient, and ``divmod_x`` by it, ``lcm_x`` and
``bivar_divides`` never leave the ring.  Without the content division,
fraction-free elimination swelled on the free span: on the 8-dim block of
B2/3 (rank 33 of 64) its preimages reached 267-bit coefficients and a
v-degree span of 1808, and the build took 63 s.  With primitive rows it
takes 0.05 s there, against 0.15 s for the sparse Q(v) echelon it replaced,
and 9.3 s against 12.7 s on G2/2's 12-dim block (2-core VM, CPython 3.11).
``solve_linear``, dense Gauss-Jordan over Q(v), has no caller in the
package: the tests solve with it as an independent reference.  Everything
here is deterministic and exact.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

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


def content(vecs) -> Tuple[LaurentPoly, List[List[LaurentPoly]]]:
    """(g, the vecs divided by g): g a gcd of the nonzero entries of vecs
    (``gcd_laurent``), zero when there are none, and the vecs unchanged when
    g is 0 or 1.  Each entry is divided once: a gcd is taken only for an
    entry the running g does not divide, and the quotients taken so far are
    then multiplied by the old g over the new."""
    zero, one = LaurentPoly.zero(), LaurentPoly.one()
    g = zero
    out = [list(vec) for vec in vecs]
    done: List[Tuple[list, int]] = []
    for vec in out:
        for r, x in enumerate(vec):
            if not x:
                continue
            q = x.divide_exact(g) if g else None
            if q is None:
                h = gcd_laurent(g, x)
                if h == one:
                    return one, [list(vec) for vec in vecs]
                if g:
                    f = g.divide_exact(h)
                    for u, i in done:
                        u[i] = u[i] * f
                g, q = h, x.divide_exact(h)
            vec[r] = q
            done.append((vec, r))
    return g, out


def _sub_scaled(vec: dict, q: LaurentPoly, row: dict) -> None:
    """vec -= q row on sparse vectors, in place; entries that cancel are
    removed."""
    nq = -q
    for i, x in row.items():
        y = vec.get(i)
        z = nq * x if y is None else y + nq * x
        if z:
            vec[i] = z
        else:
            del vec[i]


def reduce_pair(u: dict, w: dict, rows):
    """Clear u at the pivots of fraction-free rows, carrying w along.

    Vectors are sparse, {index: value} over Z[v, v^-1], and are not
    modified.  A row (piv, ru, rw, d) has ru[piv] = d.  At an entry f =
    u[piv] the pair becomes (u - q ru, w - q rw) with q = f / d when d
    divides f, else (d u - f ru, d w - f rw).  Returns (u, w, sigma), sigma
    the product of the factors d applied: sigma u_in - u_out and sigma w_in
    - w_out are the same combination of the rows' ru and rw.
    """
    one = LaurentPoly.one()
    sigma = one
    u, w = dict(u), dict(w)
    for piv, ru, rw, d in rows:
        f = u.get(piv)
        if f is None:
            continue
        q = f if d == one else f.divide_exact(d)
        if q is None:
            sigma = sigma * d
            u = {i: d * x for i, x in u.items()}
            w = {i: d * x for i, x in w.items()}
            q = f
        _sub_scaled(u, q, ru)
        _sub_scaled(w, q, rw)
    return u, w, sigma


def echelon_row(u: dict, w: dict):
    """The row (piv, u, w, d) of a pair reduced by ``reduce_pair``, or None
    when u is zero.  The pair is divided by its content (``content``) and d
    = u[piv] at the entry of least degree span, least index on ties, which
    keeps the entries of later reductions small; a unit pivot is scaled
    to 1."""
    if not u:
        return None
    g, (us, ws) = content([list(u.values()), list(w.values())])
    if g != LaurentPoly.one():
        u, w = dict(zip(u, us)), dict(zip(w, ws))
    piv = min(u, key=lambda i: (u[i].max_exp - u[i].min_exp, i))
    d = u[piv]
    if d.is_unit:
        if d != LaurentPoly.one():
            inv = d ** -1
            u = {i: inv * x for i, x in u.items()}
            w = {i: inv * x for i, x in w.items()}
        d = LaurentPoly.one()
    return piv, u, w, d


def _primitive(cs: Sequence[LaurentPoly]) -> BivarPoly:
    """The primitive form of the polynomial with x-coefficients cs: no common
    Laurent factor among them, the least v-exponent across them zero, and
    a positive leading v-coefficient in the leading x-coefficient."""
    _, (cs,) = content([cs])
    shift = min(c.min_exp for c in cs if c)
    lead = next(c for c in reversed(cs) if c)
    sign = -1 if lead.coefficient(lead.max_exp) < 0 else 1
    return BivarPoly([c.shifted(-shift) * sign for c in cs])


def _krylov_annihilator(apply_fn, vec: List[LaurentPoly], limit: int) -> Optional[BivarPoly]:
    """Primitive minimal polynomial killing vec under the operator, or None
    when its x-degree passes limit (at most len(vec)).

    Fraction-free: a row (piv, r, comp, d) has r = comp(A) vec, sparse, and
    comp a sparse polynomial {k: x^k coefficient}.  The final comp is a
    Z[v, v^-1] multiple of the monic annihilator; its primitive form is
    returned.  The run stops after limit + 1 independent vectors A^k vec.
    """
    rows = []
    cur = vec
    for k in range(limit + 1):
        r, comp, _ = reduce_pair({i: x for i, x in enumerate(cur) if x}, {k: LaurentPoly.one()}, rows)
        row = echelon_row(r, comp)
        if row is None:
            return _primitive([comp.get(i, LaurentPoly.zero()) for i in range(k + 1)])
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
