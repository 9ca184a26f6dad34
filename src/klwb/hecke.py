"""Iwahori-Hecke algebras over Z[v, v^-1] for any enumerated Coxeter carrier.

Two quadratic normalizations of the standard basis are supported:

  std: (T_s + v)(T_s - 1/v) = 0, the Kazhdan-Lusztig-friendly one, and
  ly:  (T_s - 1)(T_s + v^2) = 0, the one monodromic formulas live in,

linked by the algebra isomorphism sending the ly generator to -v times the
inverse of the std generator.  The carrier can be a WeylGroup or a
SubsystemGroup; only the shared table interface is used, so cells, scalars
and minimal polynomials work intrinsically inside reflection subgroups.

``HeckeElement`` is the one sparse element type, also of the orbit algebras
in ``klalgebra``, and ``lmul_gen`` the one generator step: one pass over the
terms, each read from a ``step_table`` that folds in the ascent/descent test
and the rule.  Every product that is a word in generators, or in their
inverses (INV_STD_RULE, INV_LY_RULE), runs as a chain of steps.  Rules:
STD_RULE in std; LY_RULE in ly and in orbit blocks whose W_L contains s;
FREE_RULE (T_s^2 = 1) elsewhere.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from .linalg import minpoly_operator, sparse_operator
from .rings import BivarPoly, LaurentPoly

STD = "std"
LY = "ly"

_ONE = LaurentPoly.one()
_V = LaurentPoly.monomial(1)
_VINV = LaurentPoly.monomial(-1)
_V2 = LaurentPoly.monomial(2)
_VINV2 = LaurentPoly.monomial(-2)

# A rule gives a generator's action on T_w as qa T_sw + qb T_w, one pair
# (qa, qb) on an ascent (l(sw) > l(w)) and one on a descent.  qa is None for
# 1, else the map c -> qa c; qb is None for no T_w term, else c -> qb c.
PLAIN = (None, None)
STD_RULE = (PLAIN, (None, (_VINV - _V).__mul__))
LY_RULE = (PLAIN, (_V2.__mul__, (_ONE - _V2).__mul__))
FREE_RULE = (PLAIN, PLAIN)
INV_STD_RULE = ((None, (_V - _VINV).__mul__), PLAIN)
INV_LY_RULE = ((_VINV2.__mul__, (_ONE - _VINV2).__mul__), PLAIN)


class ConventionMismatch(ValueError):
    """Operands or requests disagree about the quadratic normalization."""


class NotCentral(ValueError):
    """Element fails the centrality check against the generators."""


class HeckeElement:
    """Sparse combination of basis elements of a Hecke-type algebra.

    Keys are the algebra's basis indices: element ids here, (element id,
    point index) pairs for ``klalgebra.OrbitHeckeElement``.  The algebra
    supplies the product (``mul``), the error for mixed operands
    (``mismatch``) and the labels of a key (``key_labels``).
    """

    __slots__ = ("algebra", "_t")

    def __init__(self, algebra, terms):
        self.algebra = algebra
        self._t = {k: c for k, c in terms.items() if not c.is_zero}

    @property
    def terms(self):
        """Map from group-element handle to coefficient."""
        els = self.algebra.group.elements
        return {els[e]: c for e, c in self._t.items()}

    @property
    def is_zero(self) -> bool:
        return not self._t

    def coefficient(self, w) -> LaurentPoly:
        eid = w if isinstance(w, int) else self.algebra.group.id_of(w)
        return self._t.get(eid, LaurentPoly.zero())

    def support_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._t))

    def _check(self, other: "HeckeElement"):
        if other.algebra is not self.algebra:
            raise self.algebra.mismatch(other.algebra)

    def _combine(self, other, op):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self._t)
        for k, c in other._t.items():
            out[k] = op(out.get(k, LaurentPoly.zero()), c)
        return type(self)(self.algebra, out)

    def __add__(self, other):
        return self._combine(other, operator.add)

    def __sub__(self, other):
        return self._combine(other, operator.sub)

    def __neg__(self):
        return type(self)(self.algebra, {k: -c for k, c in self._t.items()})

    def scale(self, c) -> "HeckeElement":
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return type(self)(self.algebra, {k: c * p for k, p in self._t.items()})

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        return self.algebra.mul(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        return (
            isinstance(other, HeckeElement)
            and other.algebra is self.algebra
            and other._t == self._t
        )

    def __hash__(self):
        return hash((id(self.algebra), tuple(sorted(self._t.items()))))

    def render(self) -> str:
        if not self._t:
            return "0"
        bits = []
        for k in sorted(self._t):
            key = "".join("%s[%s]" % t for t in zip("T1", self.algebra.key_labels(k)))
            bits.append("(%s)*%s" % (self._t[k].render(), key))
        return " + ".join(bits)

    def to_json(self):
        return [
            self.algebra.key_labels(k) + [self._t[k].render()] for k in sorted(self._t)
        ]

    def __repr__(self):
        return "%r(%s)" % (self.algebra, self.render())


def word_label(group, eid: int) -> str:
    """A group element's canonical word as digits, "e" for the identity."""
    return "".join(str(i + 1) for i in group.words[eid]) or "e"


def step_table(group, s: int, rule) -> List[tuple]:
    """(sw, qa, qb) per element id w: the generator acts on T_w as qa T_sw +
    qb T_w, with (qa, qb) = rule[l(sw) < l(w)].  Built once per carrier."""
    cache = _algebra_cache(group)
    got = cache.get((s, rule))
    if got is None:
        got = []
        for w in range(group.size):
            j = group.lmul_id(s, w)
            got.append((j,) + rule[group.lengths[j] < group.lengths[w]])
        cache[(s, rule)] = got
    return got


def lmul_gen(table, terms: dict) -> dict:
    """One generator step on a sparse combination {key: coeff}, one pass: the
    term c T_k goes to qa c T_j + qb c T_k for (j, qa, qb) = table[k]."""
    out: dict = {}
    get = out.get
    for k, c in terms.items():
        j, qa, qb = table[k]
        x = c if qa is None else qa(c)
        y = get(j)
        out[j] = x if y is None else y + x
        if qb is not None:
            x = qb(c)
            y = get(k)
            out[k] = x if y is None else y + x
    return out


def _algebra_cache(group) -> dict:
    got = getattr(group, "_hecke_cache", None)
    if got is None:
        got = {}
        group._hecke_cache = got
    return got


def hecke_algebra(group, convention: str = STD) -> "HeckeAlgebra":
    """The Hecke algebra over the carrier, one shared instance per convention."""
    if convention not in (STD, LY):
        raise ConventionMismatch("unknown convention %r" % (convention,))
    cache = _algebra_cache(group)
    got = cache.get(convention)
    if got is None:
        got = HeckeAlgebra(group, convention)
        cache[convention] = got
    return got


class HeckeAlgebra:
    """Hecke algebra bound to one carrier group and one convention."""

    def __init__(self, group, convention: str):
        self.group = group
        self.convention = convention
        rules = (STD_RULE, INV_STD_RULE) if convention == STD else (LY_RULE, INV_LY_RULE)
        self._steps, self._inv_steps = ([step_table(group, s, r) for s in range(group.rank)] for r in rules)
        self._twist: Optional[HeckeElement] = None
        self._kl: Dict[int, HeckeElement] = {}
        self._inv_basis: Dict[int, HeckeElement] = {}
        self._convert: Dict[str, Dict[int, HeckeElement]] = {}
        self._cells: Optional[CellDecomposition] = None
        self._central: Dict[HeckeElement, Callable[[HeckeElement], HeckeElement]] = {}

    def __repr__(self):
        return "Hecke<%s>" % self.convention

    def mismatch(self, other) -> ConventionMismatch:
        """The error for combining this algebra's elements with other's."""
        if other.group is not self.group:
            return ConventionMismatch("elements over different carriers")
        return ConventionMismatch(
            "cannot mix %s and %s conventions" % (self.convention, other.convention)
        )

    def key_labels(self, eid: int) -> List[str]:
        return [word_label(self.group, eid)]

    # -- constructors ------------------------------------------------------

    def zero(self) -> HeckeElement:
        return HeckeElement(self, {})

    def unit(self) -> HeckeElement:
        return HeckeElement(self, {0: _ONE})

    def basis(self, w) -> HeckeElement:
        eid = w if isinstance(w, int) else self.group.id_of(w)
        return HeckeElement(self, {eid: _ONE})

    def generator(self, i: int) -> HeckeElement:
        return self.basis(self.group.id_of(self.group.gens[i]))

    def from_terms(self, terms) -> HeckeElement:
        out: Dict[int, LaurentPoly] = {}
        for k, c in terms.items():
            eid = k if isinstance(k, int) else self.group.id_of(k)
            if isinstance(c, int):
                c = LaurentPoly.const(c)
            out[eid] = out.get(eid, LaurentPoly.zero()) + c
        return HeckeElement(self, out)

    # -- multiplication ------------------------------------------------------

    def t_mul(self, a: HeckeElement, b: HeckeElement) -> HeckeElement:
        if a.algebra is not self or b.algebra is not self:
            a._check(b)
            if a.algebra is not self:
                raise ConventionMismatch("product outside this algebra")
        acc: Dict[int, LaurentPoly] = {}
        for eid, c in a._t.items():
            for k, p in self.steps(self.group.words[eid], b._t).items():
                y = acc.get(k)
                acc[k] = c * p if y is None else y + c * p
        return HeckeElement(self, acc)

    def steps(self, word, terms: dict, tables=None) -> dict:
        """T_word on a sparse combination, the last letter acting first, one
        ``lmul_gen`` step per letter on tables (by default this algebra's)."""
        tables = tables or self._steps
        for s in reversed(word):
            terms = lmul_gen(tables[s], terms)
        return terms

    mul = t_mul

    def basis_inverse(self, w) -> HeckeElement:
        """The inverse of T_w = T_s1 ... T_sk, T_sk^-1 ... T_s1^-1: one
        inverse step per letter."""
        eid = w if isinstance(w, int) else self.group.id_of(w)
        got = self._inv_basis.get(eid)
        if got is None:
            got = HeckeElement(self, self.steps(self.group.words[eid][::-1], {0: _ONE}, self._inv_steps))
            self._inv_basis[eid] = got
        return got

    def bar(self, a: HeckeElement) -> HeckeElement:
        """Bar involution: v -> 1/v and T_w -> (T_{w^{-1}})^{-1}."""
        g = self.group
        out = self.zero()
        for eid, c in a._t.items():
            out = out + self.basis_inverse(g.inv_id(eid)).scale(c.bar())
        return out

    # -- Kazhdan-Lusztig basis (std convention) -----------------------------

    def _require_std(self):
        if self.convention != STD:
            raise ConventionMismatch("operation defined in the std convention")

    def kl_basis(self, w) -> HeckeElement:
        """Self-dual basis element C_w; C_e = T_e and C_s = T_s + v."""
        self._require_std()
        eid = w if isinstance(w, int) else self.group.id_of(w)
        got = self._kl.get(eid)
        if got is None:
            g = self.group
            if g.lengths[eid] == 0:
                got = self.unit()
            else:
                s = g.words[eid][0]
                sw = g.lmul_id(s, eid)
                cs = HeckeElement(self, {g.id_of(g.gens[s]): _ONE, 0: _V})
                got = self.t_mul(cs, self.kl_basis(sw))
                csw = self.kl_basis(sw)
                for z, h in list(csw._t.items()):
                    if z == sw:
                        continue
                    mu = h.coefficient(1)
                    if mu and g.lengths[g.lmul_id(s, z)] < g.lengths[z]:
                        got = got - self.kl_basis(z).scale(mu)
            self._kl[eid] = got
        return got

    def mu(self, z, w) -> int:
        """Leading coefficient mu(z, w) of the KL polynomial."""
        self._require_std()
        zid = z if isinstance(z, int) else self.group.id_of(z)
        wid = w if isinstance(w, int) else self.group.id_of(w)
        if zid == wid:
            return 0
        return self.kl_basis(wid).coefficient(zid).coefficient(1)

    def kl_expand(self, a: HeckeElement) -> Dict[int, LaurentPoly]:
        """Coefficients of a in the KL basis, keyed by element id."""
        self._require_std()
        if a.algebra is not self:
            raise ConventionMismatch("element from another algebra")
        rem = dict(a._t)
        out: Dict[int, LaurentPoly] = {}
        for eid in range(self.group.size - 1, -1, -1):
            c = rem.get(eid)
            if c is None or c.is_zero:
                continue
            out[eid] = c
            for z, h in self.kl_basis(eid)._t.items():
                y = rem.get(z)
                rem[z] = -(c * h) if y is None else y - c * h
        assert all(p.is_zero for p in rem.values())
        return out

    # -- cells ---------------------------------------------------------------

    def cells(self) -> "CellDecomposition":
        if self.convention != STD:
            return hecke_algebra(self.group, STD).cells()
        if self._cells is None:
            self._cells = CellDecomposition(self)
        return self._cells

    # -- distinguished elements ----------------------------------------------

    def tilting_class(self, negative_v2: bool = False) -> HeckeElement:
        """Graded sum of all T_w weighted by codimension from the top.

        Default weight v^(l(w0) - l(w)); with negative_v2 the weight is
        (-v^2)^(l(w0) - l(w)).
        """
        g = self.group
        top = g.lengths[g.longest_id]
        out: Dict[int, LaurentPoly] = {}
        for eid in range(g.size):
            k = top - g.lengths[eid]
            if negative_v2:
                coeff = LaurentPoly({2 * k: (-1) ** k})
            else:
                coeff = LaurentPoly({k: 1})
            out[eid] = coeff
        return HeckeElement(self, out)

    def full_twist(self) -> HeckeElement:
        """T_w0^2, computed once per algebra."""
        if self._twist is None:
            tw0 = self.basis(self.group.longest_id)
            self._twist = self.t_mul(tw0, tw0)
        return self._twist

    def ic_e_coefficient(self, a: HeckeElement) -> LaurentPoly:
        """Coefficient of C_e when a is expanded in the KL basis."""
        if a.algebra.convention != STD:
            a = convert_convention(a, STD)
        alg = a.algebra
        return alg.kl_expand(a).get(0, LaurentPoly.zero())

    def is_central(self, z: HeckeElement) -> bool:
        for i in range(self.group.rank):
            t = self.generator(i)
            if self.t_mul(z, t) != self.t_mul(t, z):
                return False
        return True

    def central_action(self, z: HeckeElement) -> Callable[[HeckeElement], HeckeElement]:
        """Left multiplication by a central z of this algebra, as a map on
        std elements; z is converted to std and checked once per algebra.

        The full twist T_w0^2 acts through the word of w0 twice: 2 l(w0)
        generator steps instead of a product over its |W| terms.  In ly it
        is v^(2 l(w0)) T_w0^-2 in std, each step T_s^-1 = T_s + v - 1/v
        in one pass.
        """
        if z.algebra is not self:
            raise ConventionMismatch("element from another algebra")
        got = self._central.get(z)
        if got is None:
            zs = convert_convention(z, STD)
            std = zs.algebra
            if not std.is_central(zs):
                raise NotCentral("element does not commute with the generators")
            if z != self.full_twist():
                got = lambda a: std.t_mul(zs, a)
            else:
                g = self.group
                word = g.words[g.longest_id] * 2
                ly = self.convention == LY
                shift = 2 * g.lengths[g.longest_id] if ly else 0
                tables = std._inv_steps if ly else std._steps

                def got(a: HeckeElement) -> HeckeElement:
                    cur = std.steps(word, a._t, tables)
                    return HeckeElement(std, {k: c.shifted(shift) for k, c in cur.items()})

            self._central[z] = got
        return got

    def cell_scalar(self, z: HeckeElement, cell) -> Optional[Tuple[int, int]]:
        """Scalar of a central element on one cell subquotient.

        Returns (sign, exponent) when multiplication by z on the subquotient
        spanned by the cell's C_x is the scalar sign * v^exponent; None when
        the matrix is not such a scalar.
        """
        times_z = z.algebra.central_action(z)
        alg = hecke_algebra(z.algebra.group, STD)
        dec = alg.cells()
        cid = dec.cell_index(cell)
        members = [alg.group.id_of(x) for x in dec.two_sided[cid]]
        place = {e: k for k, e in enumerate(members)}
        mat: List[List[LaurentPoly]] = [
            [LaurentPoly.zero()] * len(members) for _ in members
        ]
        for col, x in enumerate(members):
            for y, c in alg.kl_expand(times_z(alg.kl_basis(x))).items():
                if y in place:
                    mat[place[y]][col] = c
                else:
                    below = dec.cell_of_id(y)
                    assert below != cid and dec.leq(below, cid)
        scal = mat[0][0]
        for r in range(len(members)):
            for c in range(len(members)):
                want = scal if r == c else LaurentPoly.zero()
                if mat[r][c] != want:
                    return None
        if scal.is_unit:
            e = scal.min_exp
            return (scal.coefficient(e), e)
        return None

    # -- minimal polynomial ---------------------------------------------------

    def minpoly(self, z: HeckeElement) -> BivarPoly:
        """Minimal polynomial of right multiplication by z on the algebra."""
        if z.algebra is not self:
            raise ConventionMismatch("element from another algebra")
        n = self.group.size
        cols = [list(self.t_mul(self.basis(eid), z)._t.items()) for eid in range(n)]
        return minpoly_operator(sparse_operator(cols, n), n)


def convert_convention(a: HeckeElement, to: str) -> HeckeElement:
    """Transport along the isomorphism fixed by ly T_s = -v * (std T_s)^{-1}.

    Coefficients are unchanged; basis elements map multiplicatively over
    reduced words.  Converting to the element's own convention is a no-op.
    """
    if to not in (STD, LY):
        raise ConventionMismatch("unknown convention %r" % (to,))
    src = a.algebra
    if src.convention == to:
        return a
    target = hecke_algebra(src.group, to)
    cache = src._convert.setdefault(to, {})

    def image(eid: int) -> HeckeElement:
        got = cache.get(eid)
        if got is not None:
            return got
        g = src.group
        if g.lengths[eid] == 0:
            got = target.unit()
        elif g.lengths[eid] == 1:
            i = g.words[eid][0]
            gid = g.id_of(g.gens[i])
            if to == STD:
                # ly T_s -> (1 - v^2) T_e - v T_s
                got = HeckeElement(target, {0: _ONE - _V2, gid: -_V})
            else:
                # std T_s -> (1/v - v) T_e - 1/v T_s
                got = HeckeElement(target, {0: _VINV - _V, gid: -_VINV})
        else:
            s = g.words[eid][0]
            sw = g.lmul_id(s, eid)
            sid = g.id_of(g.gens[s])
            got = target.t_mul(image(sid), image(sw))
        cache[eid] = got
        return got

    out = target.zero()
    for eid, c in a._t.items():
        out = out + image(eid).scale(c)
    return out


def _scc(n: int, edges: Dict[int, set]) -> List[List[int]]:
    # Tarjan, iterative
    index = [0] * n
    low = [0] * n
    state = [0] * n  # 0 unseen, 1 on stack, 2 done
    stack: List[int] = []
    out: List[List[int]] = []
    counter = [1]
    for root in range(n):
        if state[root]:
            continue
        work = [(root, iter(sorted(edges.get(root, ()))))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        state[root] = 1
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if not state[nxt]:
                    index[nxt] = low[nxt] = counter[0]
                    counter[0] += 1
                    stack.append(nxt)
                    state[nxt] = 1
                    work.append((nxt, iter(sorted(edges.get(nxt, ())))))
                    advanced = True
                    break
                if state[nxt] == 1:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    x = stack.pop()
                    state[x] = 2
                    comp.append(x)
                    if x == node:
                        break
                out.append(sorted(comp))
    return out


class CellDecomposition:
    """Left, right and two-sided Kazhdan-Lusztig cells with their order.

    The partial order is oriented so the identity's cell is maximal: c <= c'
    when some C_x, x in c, appears in products H * C_y * H for y in c'.
    two_sided lists cells in a linear extension with the maximal cell first.
    """

    def __init__(self, algebra: HeckeAlgebra):
        g = algebra.group
        n = g.size
        left_edges: Dict[int, set] = {e: set() for e in range(n)}
        right_edges: Dict[int, set] = {e: set() for e in range(n)}
        for eid in range(n):
            cw = algebra.kl_basis(eid)
            for i in range(g.rank):
                cs = algebra.kl_basis(g.id_of(g.gens[i]))
                for y in algebra.kl_expand(algebra.t_mul(cs, cw)):
                    if y != eid:
                        left_edges[eid].add(y)
                for y in algebra.kl_expand(algebra.t_mul(cw, cs)):
                    if y != eid:
                        right_edges[eid].add(y)
        both: Dict[int, set] = {
            e: left_edges[e] | right_edges[e] for e in range(n)
        }
        self.group = g
        self._left_ids = _scc(n, left_edges)
        self._right_ids = _scc(n, right_edges)
        two = _scc(n, both)

        # reachability between two-sided classes; edge a -> b means b <= a
        comp_of = {}
        for k, comp in enumerate(two):
            for e in comp:
                comp_of[e] = k
        m = len(two)
        dag: List[set] = [set() for _ in range(m)]
        for e, outs in both.items():
            for y in outs:
                if comp_of[e] != comp_of[y]:
                    dag[comp_of[e]].add(comp_of[y])
        reach: List[set] = [set() for _ in range(m)]

        def visit(k):
            if reach[k]:
                return reach[k]
            acc = {k}
            for j in dag[k]:
                acc |= visit(j)
            reach[k] = acc
            return acc

        for k in range(m):
            visit(k)

        # linear extension, maximal cell first, deterministic tie break
        order: List[int] = []
        placed = set()
        while len(order) < m:
            # a cell is ready when every cell above it is already placed
            ready = []
            for k in range(m):
                if k in placed:
                    continue
                above = [j for j in range(m) if j != k and k in reach[j]]
                if all(j in placed for j in above):
                    ready.append(k)
            pick = min(ready, key=lambda k: min(two[k]))
            order.append(pick)
            placed.add(pick)
        self._two_ids = [two[k] for k in order]
        self._reach = reach
        self._perm = order  # position -> original scc index
        self._cell_of = {}
        for pos, comp in enumerate(self._two_ids):
            for e in comp:
                self._cell_of[e] = pos

    # -- views ---------------------------------------------------------------

    @property
    def two_sided(self) -> Tuple[Tuple, ...]:
        els = self.group.elements
        return tuple(tuple(els[e] for e in comp) for comp in self._two_ids)

    @property
    def left_cells(self) -> Tuple[Tuple, ...]:
        els = self.group.elements
        return tuple(
            tuple(els[e] for e in comp)
            for comp in sorted(self._left_ids, key=lambda c: c[0])
        )

    def cell_of(self, w) -> int:
        eid = w if isinstance(w, int) else self.group.id_of(w)
        return self._cell_of[eid]

    def cell_of_id(self, eid: int) -> int:
        return self._cell_of[eid]

    def cell_index(self, cell) -> int:
        if isinstance(cell, int):
            if not 0 <= cell < len(self._two_ids):
                raise ValueError("cell index out of range")
            return cell
        members = list(cell)
        return self.cell_of(members[0])

    def leq(self, a: int, b: int) -> bool:
        """Whether cell a <= cell b (the identity's cell is maximal)."""
        return self._perm[a] in self._reach[self._perm[b]]

    def to_json(self):
        g = self.group
        return [[word_label(g, e) for e in comp] for comp in self._two_ids]
