"""Block Hecke modules over orbits of character points.

For one W-orbit o of character points, H_o carries orthogonal idempotents
1_L, one per point, with T_w 1_L = 1_{wL} T_w and a per-block quadratic
rule: T_s^2 1_L is the ly quadratic when s lies in the reflection subgroup
of L, and plain 1_L otherwise.  Its elements are ``hecke.HeckeElement``s
keyed (element id, point index); ``mul`` walks its left factor's words
with the T_s step tables of ``_BlockSteps``.  The signed generators

    a_s = sum over blocks of (+T_s 1_L if s in W_L, else -T_s 1_L)

generate, across a configured family of orbits, the algebra this module
exposes: elements are stored extensionally through their per-orbit
projections, which is faithful because the product of all projections is
injective on the generated algebra.  Every product that is a word in the
a_s runs one ``hecke.lmul_gen`` step per letter (``OrbitAlgebra.steps``),
on a table that also folds in the sign of a_s.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .charpoints import OrbitData, orbit_set
from .hecke import FREE_RULE, LY, LY_RULE, HeckeElement, hecke_algebra, lmul_gen, step_table, word_label
from .linalg import bivar_divides, lcm_x, minpoly_operator, sparse_operator
from .rings import (
    BivarPoly,
    LaurentPoly,
    Qv,
    QV_ZERO,
    annihilator_family,
)

_ONE = LaurentPoly.one()
_V2 = LaurentPoly.monomial(2)
# a_s = -T_s on a block whose W_L does not contain s, where T_s^2 = 1
_NEG = (LaurentPoly.__neg__, None)
SIGNED_FREE_RULE = (_NEG, _NEG)


class OrbitMismatch(ValueError):
    """Operands live over different orbits or orbit families."""


class OrbitHeckeElement(HeckeElement):
    """Sparse combination of T_w 1_L over one orbit, keyed (eid, point index)."""

    __slots__ = ()

    @property
    def terms(self):
        """Map from (group element, character point) to coefficient."""
        els = self.algebra.group.elements
        pts = self.algebra.orbit.points
        return {(els[e], pts[p]): c for (e, p), c in self._t.items()}

    def coefficient(self, w, point) -> LaurentPoly:
        eid = w if isinstance(w, int) else self.algebra.group.id_of(w)
        pidx = point if isinstance(point, int) else self.algebra.orbit.index_of(point)
        return self._t.get((eid, pidx), LaurentPoly.zero())

    def column(self, point) -> "OrbitHeckeElement":
        """Restriction to the right idempotent 1_L of one block."""
        pidx = point if isinstance(point, int) else self.algebra.orbit.index_of(point)
        return OrbitHeckeElement(
            self.algebra, {k: c for k, c in self._t.items() if k[1] == pidx}
        )


class _BlockSteps(dict):
    """{(u, m): ((su, m), qa, qb)}, each entry made on first lookup: T_u 1_m
    lands in the block u m, whose rule is ``on`` (LY_RULE) when s lies in
    its W_L and ``off`` otherwise, both ``hecke.step_table``s of s."""

    def __init__(self, on, off, in_wl, moved):
        self.on, self.off, self.in_wl, self.moved = on, off, in_wl, moved

    def __missing__(self, key):
        u, m = key
        j, qa, qb = (self.on if self.in_wl[self.moved[u][m]] else self.off)[u]
        got = self[key] = ((j, m), qa, qb)
        return got


class OrbitAlgebra:
    """H_o for one orbit: idempotent-decomposed Hecke module over W."""

    def __init__(self, W, orb: OrbitData):
        if orb.group is not W:
            raise OrbitMismatch("orbit was built over a different group")
        self.group = W
        self.orbit = orb
        npts = orb.size
        # per-point kernel membership of each s
        self._in_wl = orb.simple_kernel
        # moved[eid][pidx] = index of w L, filled along canonical words
        moved: List[List[int]] = [list(range(npts))]
        for eid in range(1, W.size):
            s = W.words[eid][0]
            gm = orb.gen_move[s]
            moved.append([gm[q] for q in moved[W.lmul_id(s, eid)]])
        self._moved = moved
        # step tables per s, of T_s for ``mul`` and of a_s for ``steps``
        self._t_steps, self._a_steps = (
            [_BlockSteps(step_table(W, s, LY_RULE), step_table(W, s, off), self._in_wl[s], moved) for s in range(W.rank)]
            for off in (FREE_RULE, SIGNED_FREE_RULE)
        )

    def __repr__(self):
        return "OrbitHecke"

    def mismatch(self, other) -> OrbitMismatch:
        """The error for combining this algebra's elements with other's."""
        return OrbitMismatch("elements over different orbit algebras")

    def key_labels(self, key: Tuple[int, int]) -> List[str]:
        return [word_label(self.group, key[0]), self.orbit.points[key[1]].render()]

    @property
    def dim(self) -> int:
        return self.group.size * self.orbit.size

    def zero(self) -> OrbitHeckeElement:
        return OrbitHeckeElement(self, {})

    def unit(self) -> OrbitHeckeElement:
        return OrbitHeckeElement(
            self, {(0, p): _ONE for p in range(self.orbit.size)}
        )

    def idempotent(self, point) -> OrbitHeckeElement:
        pidx = point if isinstance(point, int) else self.orbit.index_of(point)
        return OrbitHeckeElement(self, {(0, pidx): _ONE})

    def basis(self, w, point) -> OrbitHeckeElement:
        eid = w if isinstance(w, int) else self.group.id_of(w)
        pidx = point if isinstance(point, int) else self.orbit.index_of(point)
        return OrbitHeckeElement(self, {(eid, pidx): _ONE})

    def moved_point(self, w, point) -> int:
        """Index of w applied to the point."""
        eid = w if isinstance(w, int) else self.group.id_of(w)
        pidx = point if isinstance(point, int) else self.orbit.index_of(point)
        return self._moved[eid][pidx]

    def steps(self, word: Sequence[int], el: OrbitHeckeElement) -> OrbitHeckeElement:
        """a_word el for a word in the signed generators, the last letter
        acting first, one ``lmul_gen`` step per letter."""
        cur = el._t
        for s in reversed(word):
            cur = lmul_gen(self._a_steps[s], cur)
        return OrbitHeckeElement(self, cur)

    def mul(self, a: OrbitHeckeElement, b: OrbitHeckeElement) -> OrbitHeckeElement:
        if a.algebra is not self or b.algebra is not self:
            raise OrbitMismatch("operands belong to another orbit algebra")
        g = self.group
        # group the left factor by its idempotent so 1_L 1_{uM} filters cheaply
        by_point: Dict[int, List[Tuple[int, LaurentPoly]]] = {}
        for (eid, pidx), c in a._t.items():
            by_point.setdefault(pidx, []).append((eid, c))
        acc: Dict[Tuple[int, int], LaurentPoly] = {}
        for (u, m), cb in b._t.items():
            for eid, ca in by_point.get(self._moved[u][m], ()):
                cur = {(u, m): cb}
                for s in reversed(g.words[eid]):
                    cur = lmul_gen(self._t_steps[s], cur)
                for k, p in cur.items():
                    y = acc.get(k)
                    acc[k] = ca * p if y is None else y + ca * p
        return OrbitHeckeElement(self, acc)

    def columns(self, el) -> List[List[Tuple[int, LaurentPoly]]]:
        """Sparse columns of left multiplication by el: column flat_index(eid,
        pidx) lists (flat row, coeff) of el T_eid 1_pidx in ascending row.
        el is an element, or a tuple word in the signed generators applied
        by ``steps``."""
        image = (lambda x: self.steps(el, x)) if isinstance(el, tuple) else (lambda x: self.mul(el, x))
        return [
            [(self.flat_index(e, p), c) for (e, p), c in sorted(image(self.basis(eid, pidx))._t.items())]
            for eid in range(self.group.size)
            for pidx in range(self.orbit.size)
        ]

    def pi_generator(self, s: int) -> OrbitHeckeElement:
        """Projection of the signed generator a_s into this orbit."""
        gid = self.group.id_of(self.group.gens[s])
        terms = {}
        for p in range(self.orbit.size):
            terms[(gid, p)] = _ONE if self._in_wl[s][p] else -_ONE
        return OrbitHeckeElement(self, terms)

    def full_twist(self) -> OrbitHeckeElement:
        """Projection of F = a_w0^2: the steps along w0's word, twice."""
        return self.steps(self.group.words[self.group.longest_id] * 2, self.unit())

    def flat_index(self, eid: int, pidx: int) -> int:
        return eid * self.orbit.size + pidx

    def element_to_vector(self, el: OrbitHeckeElement) -> List[Qv]:
        vec = [QV_ZERO] * self.dim
        for (eid, pidx), c in el._t.items():
            vec[self.flat_index(eid, pidx)] = Qv(c)
        return vec


class KLElement:
    """A product of signed generators, stored through all its projections."""

    __slots__ = ("context", "word", "projections")

    def __init__(self, context: "KLAlgebra", word: Tuple[int, ...], projections):
        self.context = context
        self.word = word
        self.projections = tuple(projections)

    def projection(self, orbit) -> OrbitHeckeElement:
        return self.projections[self.context.orbit_index(orbit)]

    def __mul__(self, other):
        if not isinstance(other, KLElement):
            return NotImplemented
        return self.context.mul(self, other)

    def __eq__(self, other):
        # extensional: equal when every projection agrees
        return (
            isinstance(other, KLElement)
            and other.context is self.context
            and other.projections == self.projections
        )

    def __hash__(self):
        return hash((id(self.context), self.projections))

    def to_json(self):
        return {
            "word": [i + 1 for i in self.word],
            "projections": {
                o.representative.render(): el.to_json()
                for o, el in zip(self.context.orbits, self.projections)
            },
        }

    def __repr__(self):
        return "KLElement(word=%s)" % ("".join(str(i + 1) for i in self.word) or "e")


class KLAlgebra:
    """The generator algebra evaluated over a configured orbit family."""

    def __init__(self, W, orbits: Sequence[OrbitData]):
        self.group = W
        self.orbits = tuple(orbits)
        if not self.orbits:
            raise OrbitMismatch("at least one orbit is required")
        self.algebras = tuple(OrbitAlgebra(W, o) for o in self.orbits)
        self._rep_index = {o.representative: i for i, o in enumerate(self.orbits)}
        self._gens = [
            tuple(alg.pi_generator(s) for alg in self.algebras)
            for s in range(W.rank)
        ]

    @classmethod
    def for_type(cls, cartan_type_or_group, den_bound: int = 6) -> "KLAlgebra":
        from .coxeter import build_weyl

        W = cartan_type_or_group
        if isinstance(W, str):
            W = build_weyl(W)
        return cls(W, orbit_set(W, den_bound))

    def orbit_index(self, orbit) -> int:
        if isinstance(orbit, int):
            return orbit
        if isinstance(orbit, OrbitData):
            orbit = orbit.representative
        got = self._rep_index.get(orbit)
        if got is None:
            raise OrbitMismatch("orbit not part of this configuration")
        return got

    def unit(self) -> KLElement:
        return KLElement(self, (), tuple(a.unit() for a in self.algebras))

    def generator(self, s: int) -> KLElement:
        return KLElement(self, (s,), self._gens[s])

    def element(self, word: Iterable[int]) -> KLElement:
        word = tuple(word)
        return KLElement(self, word, (alg.steps(word, alg.unit()) for alg in self.algebras))

    def element_of(self, w) -> KLElement:
        """a_w evaluated along the canonical word of w."""
        eid = w if isinstance(w, int) else self.group.id_of(w)
        return self.element(self.group.words[eid])

    def mul(self, a: KLElement, b: KLElement) -> KLElement:
        if a.context is not self or b.context is not self:
            raise OrbitMismatch("elements from another configuration")
        projs = tuple(
            alg.mul(x, y)
            for alg, x, y in zip(self.algebras, a.projections, b.projections)
        )
        return KLElement(self, a.word + b.word, projs)

    def full_twist(self) -> KLElement:
        word = self.group.words[self.group.longest_id]
        return KLElement(self, word + word, (alg.full_twist() for alg in self.algebras))

    # -- verification suites -------------------------------------------------

    def verify_cubic(self, s: int) -> List[dict]:
        """(a_s + v^2)(a_s^2 - 1) = 0 per orbit."""
        out = []
        for alg, g in zip(self.algebras, self._gens[s]):
            d = alg.steps((s,), g) - alg.unit()
            expr = alg.steps((s,), d) + d.scale(_V2)
            out.append(
                _report(
                    "cubic",
                    self.group.cartan_type,
                    alg.orbit,
                    expr.is_zero,
                    witness=None if expr.is_zero else expr.render(),
                )
            )
        return out

    def operator_square_identity(self, s: int) -> List[dict]:
        """(a_s^2 - 1)^2 = (v^4 - 1)(a_s^2 - 1) per orbit."""
        v4_minus_1 = LaurentPoly.monomial(4) - _ONE
        out = []
        for alg, g in zip(self.algebras, self._gens[s]):
            # d = a_s^2 - 1, so d d = a_s (a_s d) - d
            d = alg.steps((s,), g) - alg.unit()
            diff = alg.steps((s, s), d) - d - d.scale(v4_minus_1)
            out.append(
                _report(
                    "operator_square",
                    self.group.cartan_type,
                    alg.orbit,
                    diff.is_zero,
                    witness=None if diff.is_zero else diff.render(),
                )
            )
        return out

    def check_braid(self) -> List[dict]:
        """Defining braid relations for all generator pairs, per orbit."""
        W = self.group
        out = []
        for i in range(W.rank):
            for j in range(i + 1, W.rank):
                m = _pair_order(W, i, j)
                left = self.element(((i, j) * m)[:m])
                right = self.element(((j, i) * m)[:m])
                for alg, x, y in zip(self.algebras, left.projections, right.projections):
                    ok = x == y
                    out.append(
                        _report(
                            "braid",
                            W.cartan_type,
                            alg.orbit,
                            ok,
                            detail="pair (%d, %d)" % (i + 1, j + 1),
                            witness=None if ok else (x - y).render(),
                        )
                    )
        return out

    def check_twisted_product(self, word1, word2) -> bool:
        """pi_L(a b) = pi_{w2 L}(a) pi_L(b) for every block of every orbit."""
        a = self.element(word1)
        b = self.element(word2)
        ab = self.mul(a, b)
        w2 = self.group.identity
        for s in word2:
            w2 = w2 * self.group.gens[s]
        w2id = self.group.id_of(w2)
        for alg, pa, pb, pab in zip(
            self.algebras, a.projections, b.projections, ab.projections
        ):
            for pidx in range(alg.orbit.size):
                moved = alg._moved[w2id][pidx]
                lhs = pab.column(pidx)
                rhs = alg.mul(pa.column(moved), pb.column(pidx))
                if lhs != rhs:
                    return False
        return True

    def check_w0_identity(self) -> List[dict]:
        """pi_L(a_{w0}^2) equals the intrinsic square of the subsystem's top
        basis element, block by block."""
        z = self.full_twist()
        out = []
        for alg, proj in zip(self.algebras, z.projections):
            for pidx, point in enumerate(alg.orbit.points):
                # T_w0^2 is cached per subsystem carrier, shared by its points
                sq = hecke_algebra(alg.orbit.stabilizers[point].group, LY).full_twist()
                expected = {(self.group.id_of(h), pidx): c for h, c in sq.terms.items()}
                got = proj.column(pidx)
                ok = got == OrbitHeckeElement(alg, expected)
                out.append(
                    _report(
                        "w0_identity",
                        self.group.cartan_type,
                        alg.orbit,
                        ok,
                        detail="block %s" % point.render(),
                        witness=None if ok else got.render(),
                    )
                )
        return out

    def fulltwist_minpoly(self) -> Tuple[BivarPoly, Dict[str, bool]]:
        """Minimal polynomial of left multiplication by a_{w0}^2 on the sum
        of all configured orbit modules, with divisibility verdicts against
        the x - v^2i families for m = l(w0) and m = 2 l(w0).  A block whose
        minimal polynomial passes x-degree 2 l(w0) + 1, the degree of the
        m = 2 l(w0) family, raises DegreeBoundExceeded: it cannot divide
        that family, and its Krylov runs stop there."""
        z = self.full_twist()
        lw0 = self.group.lengths[self.group.longest_id]
        mp = BivarPoly.const(1)
        for alg, proj in zip(self.algebras, z.projections):
            apply = sparse_operator(alg.columns(proj), alg.dim)
            mp = lcm_x(mp, minpoly_operator(apply, alg.dim, 2 * lw0 + 1))
        verdicts = {
            "paper": bivar_divides(mp, annihilator_family(lw0)),
            "safe": bivar_divides(mp, annihilator_family(2 * lw0)),
        }
        return mp, verdicts


def _pair_order(W, i: int, j: int) -> int:
    """Order of s_i s_j from the Cartan entries."""
    nab = W.datum.cartan_matrix[i][j] * W.datum.cartan_matrix[j][i]
    return {0: 2, 1: 3, 2: 4, 3: 6}[nab]


def _report(check, cartan_type, orb, ok, detail=None, witness=None) -> dict:
    out = {
        "check": check,
        "type": cartan_type,
        "orbit": orb.representative.render(),
        "status": "pass" if ok else "fail",
    }
    if detail:
        out["detail"] = detail
    if witness is not None:
        out["witness"] = witness
    return out
