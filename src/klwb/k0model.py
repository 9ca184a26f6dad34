"""W-indexed tuple model of the glued Grothendieck group.

A tuple (a_w)_{w in W} of vectors in a module over the generator algebra
belongs to the glued group exactly when a_{sw} - Phi_s a_w lies in the
image of Phi_s^2 - 1 for every simple s and every w.  The module is the
direct sum of one ``OrbitModule`` per W-orbit of character points; Phi_s,
the full twist F and Phi_s^2 - 1 are block diagonal, and only
``KModule._parts`` knows how blocks sit in a flat vector.  This module
checks the gluing condition with explicit witnesses, realizes the
involution iota and the free tuples, verifies the Euler identity of the
canonical complex on free objects, and runs the localization splitting: a
p(v)-multiple of any gluing tuple decomposes into a free part and a part
annihilated by the twist factors, which is the executable content of the
finiteness theorem.

Scalars: the module is free over Z[v, v^-1] and every identity checked here
is Z[v, v^-1]-linear, so it holds for a vector exactly when it holds for a
nonzero multiple.  A ``KTuple`` is stored as integral numerator vectors
over one common denominator D (``_clear_denominators``), and gluing, the
splitting and ``euclid_descent`` compute on the numerators.
``canonical_identity`` clears the denominators of its vector the same way.
Q(v) appears only where a value leaves: ``KTuple.get``, rendered witnesses
and the coefficients of ``express_in_free_span``.  Its per-block column
echelon is fraction-free over Z[v, v^-1] (``linalg.reduce_pair``), and
each coefficient becomes a Qv once, as an integral numerator over the
product of the pivots applied.  That echelon needs only the residuals of
the free tuples: F(w, e_j) less F(e, Phi_{w^-1} e_j) is zero at y = e, so
the columns F(e, e_j) are independent in closed form and only the
residuals are eliminated (``OrbitModule._build_free_solver``).  Gluing
needs no elimination: a_s = +-T_s maps each span{T_u 1_p, T_su 1_p} to
itself, so Phi_s^2 - 1 is a sum of 2x2 blocks, solved pair by pair
(``OrbitModule.solve_image``).  Each
block builds its pair tables, its full-twist columns, the minimal
polynomial mu_B of F on it, its generators packed per Kronecker width and
the free-span echelon once each, on first use.
``apply_generator``, ``apply_fulltwist`` and ``apply_twist_poly`` take
one route (``KModule._apply_cleared``): they apply the operator over
Z[v, v^-1] to D vec and divide back by D for Q(v) input, so each returns
a vector in the ring of its input entries.

Kronecker packing (``rings.pack``): an int n at base B and width b stands
for v^B times the polynomial whose signed base-2^b digits are n's, that is
n = (v^-B p)(2^b).  v -> 2^b is a ring homomorphism, so sums, products and
shifts of ints compute those of the polynomials whatever the carries; it is
injective on polynomials whose coefficients are below 2^(b-1) in size, so
only the values that are compared or unpacked must fit.  The entries of
every Phi_s and of F lie in Z[v] (a_s = +-T_s with (T_s - 1)(T_s + v^2) =
0), so they are packed at exponent 0 (``OrbitModule._packed_op``, which
rejects an operator with an entry outside Z[v]) and an operator step keeps
the base: every packed value in a kernel sits at the base of the kernel's
input, and sums are plain int sums.  Each generator kernel names the
generator steps of every term it sums, and ``OrbitModule.pack(parts,
steps)``, the one width proof, packs its vectors and generators at the
width those counts prove, per block.  ``OrbitModule.images`` is the one
image kernel.  ``free_sum`` sums the
tables of all its terms as ints and unpacks each entry once (``make_free``
is its one-term case, and ``random_free_combination`` calls it on its
draws); the free-span echelon forms its residuals from the tables of the
basis vectors.  ``check_gluing`` forms each right-hand side t_sw -
Phi_s t_w with one generator step on t packed once and unpacks only its
nonzero entries for the solver, while ``canonical_identity`` and the
Phi_s^2 and proof-step checks of ``polyconj_split`` stay packed to the
verdict and unpack only a failure witness.  ``canonical_identity`` first
sums the signs of its terms per coset representative x
(``canonical_multiplicities``), so it tables images and proves its width
for the x with a nonzero sum only, e and w0, not for all T (J, x) terms.
``apply_twist_poly``, the splitting's kernel, reduces its polynomial
modulo mu_B, which is checked to kill F, and runs Horner on packed ints the
same way (``OrbitModule.twist_packed``), with its own per-row bound, since
its terms carry different scalars c_k: F's eigenvalues on a block are a few
distinct v^2i, so Horner runs 1 to 5 steps where the splitting's
polynomials have degree 2 l(w0) and more.  The splitting's annihilation
check and the precondition of ``euclid_descent`` decide on the packed
result and unpack only a nonzero one.
"""

from __future__ import annotations

import operator
import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .klalgebra import KLAlgebra
from .linalg import DegreeBoundExceeded, content, echelon_row, minpoly_operator, reduce_pair, sparse_operator
from .rings import (
    BivarPoly,
    LaurentPoly,
    LocalizedScalar,
    Qv,
    QV_ONE,
    QV_ZERO,
    annihilator_family,
    divides_p_power,
    divmod_x,
    gcd_laurent,
    p_poly,
    pack,
    split_at_one,
    unpack,
)


class GluingViolation(ValueError):
    """Input tuple fails the gluing membership condition."""


class IdentityFailure(ValueError):
    """An exact identity the construction guarantees did not hold."""


class PreconditionFailure(ValueError):
    """Stated precondition fails; carries the offending residual."""


def resolve_m(m, W) -> int:
    """Exponent bound: 'paper' is l(w0), 'safe' (default) is 2 l(w0)."""
    top = W.lengths[W.longest_id]
    if m is None or m == "safe":
        return 2 * top
    if m == "paper":
        return top
    if isinstance(m, int) and m >= 1:
        return m
    raise ValueError("m must be 'paper', 'safe', or a positive integer")


def canonical_multiplicities(W) -> Dict[int, int]:
    """{x: mu(x)} over the ids x with mu(x) != 0, mu(x) the sum of
    (-1)^(|J|+1) over the nonempty J whose complement K has x among its
    minimal coset representatives (``min_coset_reps(K)``): the summed sign
    of x's terms in the Euler identity of ``KModule.canonical_identity``.

    x is such a representative exactly when its left descent set D(x)
    misses K, so mu(x) sums over J containing D(x) and vanishes unless D(x)
    is empty or all of S: mu = {e: 1, w0: (-1)^(n+1)}."""
    n = W.rank
    mu: Dict[int, int] = {}
    for bits in range(1, 1 << n):
        sign = 1 if bin(bits).count("1") % 2 else -1
        for x in W.min_coset_reps([i for i in range(n) if not bits >> i & 1]):
            eid = W.id_of(x)
            mu[eid] = mu.get(eid, 0) + sign
    return {x: m for x, m in mu.items() if m}


class KTuple:
    """W-indexed family of module vectors.

    Stored over Z[v, v^-1]: ``_c[w]`` is the numerator vector at w and
    ``den`` the one denominator D they share, at construction the lcm of
    the entry denominators (1 for polynomial input).  ``get`` divides back
    into Q(v).  D need not be reduced, so ``==`` cross-multiplies.
    """

    __slots__ = ("module", "_c", "den")

    def __init__(self, module: "KModule", components):
        g = module.group
        nums, den = _clear_denominators(components.values())
        if any(len(vec) != module.dim for vec in nums):
            raise ValueError("component has wrong dimension")
        cs = {k if isinstance(k, int) else g.id_of(k): v for k, v in zip(components, nums)}
        zero = [LaurentPoly.zero()] * module.dim
        self._set(module, [cs.get(e, zero) for e in range(g.size)], den)

    def _set(self, module: "KModule", nums, den: LaurentPoly) -> "KTuple":
        self.module = module
        self._c = [tuple(vec) for vec in nums]
        self.den = den
        return self

    @classmethod
    def _of(cls, module: "KModule", nums, den: LaurentPoly) -> "KTuple":
        """The tuple with numerator vectors nums, one per element id, over den."""
        return cls.__new__(cls)._set(module, nums, den)

    @property
    def components(self):
        els = self.module.group.elements
        return {els[e]: self.get(e) for e in range(len(self._c))}

    def get(self, w) -> Tuple[Qv, ...]:
        eid = w if isinstance(w, int) else self.module.group.id_of(w)
        return tuple(_over(self._c[eid], self.den))

    def _zip(self, other, op):
        if not isinstance(other, KTuple) or other.module is not self.module:
            return NotImplemented
        a, b, den = self._c, other._c, self.den
        if other.den != den:
            den = _lcm(den, other.den)
            a = _scaled(a, den.divide_exact(self.den))
            b = _scaled(b, den.divide_exact(other.den))
        rows = [[op(x, y) if y else x for x, y in zip(u, v)] for u, v in zip(a, b)]
        return KTuple._of(self.module, rows, den)

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def scale(self, c) -> "KTuple":
        [[num]], den = _clear_denominators([[c]])
        return KTuple._of(self.module, _scaled(self._c, num), self.den * den)

    @property
    def is_zero(self) -> bool:
        return not any(a for v in self._c for a in v)

    def __eq__(self, other):
        if not isinstance(other, KTuple) or other.module is not self.module:
            return False
        if other.den == self.den:
            return other._c == self._c
        return _scaled(self._c, other.den) == _scaled(other._c, self.den)

    def __hash__(self):
        # Q(v) values are canonical, so equal tuples hash equal whatever D
        return hash(tuple(self.get(e) for e in range(len(self._c))))

    def to_json(self):
        g = self.module.group
        out = {}
        for e in range(g.size):
            word = "".join(str(i + 1) for i in g.words[e]) or "e"
            out[word] = [a.render() for a in self.get(e)]
        return out


def _scalar(x):
    if isinstance(x, (LaurentPoly, Qv)):
        return x
    if isinstance(x, int):
        return LaurentPoly.const(x)
    raise TypeError("expected a scalar, got %r" % (x,))


def _lcm(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    return a * b.divide_exact(gcd_laurent(a, b))


def _scaled(vecs, c: LaurentPoly):
    return [[c * x for x in vec] for vec in vecs]


def _clear_denominators(vecs) -> Tuple[List[List[LaurentPoly]], LaurentPoly]:
    """Integral vectors D * vec and their common denominator D.

    Entries may be int, LaurentPoly or Qv; D is the lcm of the entry
    denominators, 1 when every entry is a polynomial.  A polynomial entry
    has denominator 1, so D scales it whole.
    """
    vecs = [[_scalar(x) for x in vec] for vec in vecs]
    one = LaurentPoly.one()
    dens = {x.den for vec in vecs for x in vec if isinstance(x, Qv)}
    den = one
    for d in dens:
        den = _lcm(den, d)
    scale = {d: den.divide_exact(d) for d in dens | {one}}

    def cleared(x):
        num, f = (x.num, scale[x.den]) if isinstance(x, Qv) else (x, scale[one])
        return num * f if f != one else num

    return [[cleared(x) for x in vec] for vec in vecs], den


def _over(vec, den: LaurentPoly) -> List[Qv]:
    """Divide an integral vector back into Q(v)."""
    return [Qv(x, den) if x else QV_ZERO for x in vec]


def _sparse_step(entries, acc):
    """F acc for F given by its entries (j, r, F_rj)."""
    out = [0] * len(acc)
    for j, r, f in entries:
        out[r] += f * acc[j]
    return out


def _gen_norm(gen_cols, dim: int) -> int:
    """C, the largest sum_j |(Phi_s)_rj|_1 over s and rows r, for the
    columns ``gen_cols[s][j]`` of Phi_s: a generator step multiplies the
    largest coefficient of an integral vector by at most C."""
    best = 0
    for cols in gen_cols:
        rows = [0] * dim
        for col in cols:
            for r, f in col:
                rows[r] += sum(map(abs, f._c.values()))
        best = max(best, *rows)
    return best


def _horner(packed, bp: BivarPoly, b: int, vp: List[int]) -> Tuple[List[int], int]:
    """(acc, lo_c): bp(F) x by Horner's rule on packed ints, F packed at width
    b (``_packed_op``) and vp the packed x.  Each c_k is packed at its own
    least exponent, so the product is taken with the short int and then
    shifted to base lo_c, the least exponent over all c_k: acc is packed at
    base lo_c plus x's base."""
    lo_c = min(c.min_exp for c in bp.xcoeffs if c)
    acc = [0] * len(vp)
    for c in reversed(bp.xcoeffs):
        acc = _sparse_step(packed, acc)
        if c:
            cp, sh = pack(c, c.min_exp, b), b * (c.min_exp - lo_c)
            acc = [a + (cp * x << sh) for a, x in zip(acc, vp)]
    return acc, lo_c


def _packed_sum(terms) -> List[int]:
    """The sum of c * vec over terms (c, vec) of packed vectors, c an int;
    c = +-1, the common case, adds or subtracts without a product."""
    acc = [0] * len(terms[0][1])
    for c, vec in terms:
        if c in (1, -1):
            acc = list(map(operator.add if c > 0 else operator.sub, acc, vec))
        else:
            acc = [a + c * x for a, x in zip(acc, vec)]
    return acc


def _stacked_diff(left, right, lo: int, b: int) -> Dict[int, LaurentPoly]:
    """{y dim + r: left[y]_r - right[y]_r} over y != e (id 0), for tables of
    packed block vectors indexed by element id: the stacked entries where
    they differ, unpacked at base lo and width b."""
    n = len(left[0])
    return {
        y * n + r: unpack(x - z, lo, b)
        for y in range(1, len(left))
        for r, (x, z) in enumerate(zip(left[y], right[y]))
        if x != z
    }


def _ratio(num: LaurentPoly, d: LaurentPoly, den: LaurentPoly) -> Qv:
    """num / (d den), a gcd taken only when d does not divide num."""
    q = num.divide_exact(d)
    return Qv(num, d * den) if q is None else Qv(q, den)


class OrbitModule:
    """One summand: an orbit algebra acting on itself, in block coordinates
    (``alg.flat_index``).  ``gen_cols[s][j]`` and ``twist_cols[j]`` list the
    (row, coeff) of column j of Phi_s and of the full twist F.  The builders
    share one cache and one reentrant lock (``_solver``), each run on first
    use and once per block even across threads: the pair table of
    Phi_s^2 - 1 per s (``solve_image``), ``twist_cols``, F's minimal
    polynomial mu_B (``minpoly``), each twist polynomial reduced modulo it
    (``twist_packed``), the generators packed at each width (``pack``) and
    the free-span echelon (``solve_free``).  ``pack`` proves the Kronecker
    width of every generator kernel; ``images``, ``apply_packed`` and
    ``twist_packed`` work on the packed ints (module docstring)."""

    def __init__(self, alg):
        self.alg = alg
        self.dim = alg.dim
        self.gen_cols = [alg.columns((s,)) for s in range(alg.group.rank)]
        self.gen_norm = _gen_norm(self.gen_cols, self.dim)
        self._solvers: Dict[object, list] = {}
        self._solver_lock = threading.RLock()

    def _packed_op(self, cols, b: int) -> List[tuple]:
        """[(j, r, pack(f, 0, b)) per entry f = op_rj] for the operator with
        columns cols: ``_sparse_step`` of it maps a packed vector to its
        image at the same base.  Every entry must lie in Z[v]."""
        entries = [(j, r, f) for j, col in enumerate(cols) for r, f in col]
        if any(f.min_exp < 0 for _, _, f in entries):
            raise ValueError("operator entries must lie in Z[v]")
        return [(j, r, pack(f, 0, b)) for j, r, f in entries]

    def pack(self, parts, steps: Sequence[int]) -> Tuple[List[List[tuple]], List[List[int]], int, int]:
        """(gens, packed, lo, b) for a kernel that sums terms, each a vector of
        parts (integral block vectors) under k generator steps, one k in
        steps per term: packed[i][r] = pack(parts[i][r], lo, b) at lo, the
        least exponent of parts (0 when all are zero), and gens[s] is Phi_s
        packed at width b (``_packed_op``, cached per b), so
        ``_sparse_step(gens[s], x)`` is Phi_s x at x's base.

        A generator step multiplies the largest coefficient of an integral
        vector by at most C (``gen_norm``), so the kernel's sum has
        coefficients at most bound = sum_{k in steps} C^k max_x |x|_inf, and
        b = bound.bit_length() + 1 keeps a sign bit.  v -> 2^b is a ring
        homomorphism, injective on polynomials with coefficients below
        2^(b-1) in size, so the sum is zero exactly when its int is, and
        ``unpack(n, lo, b)`` reads it back."""
        norm = max((abs(c) for part in parts for x in part for c in x._c.values()), default=0)
        b = (sum(self.gen_norm ** k for k in steps) * norm).bit_length() + 1
        lo = min((x.min_exp for part in parts for x in part if x), default=0)
        gens = self._solver(("gens", b), lambda: self._build_gens(b))
        return gens, [[pack(x, lo, b) for x in part] for part in parts], lo, b

    def _build_gens(self, b: int) -> List[List[tuple]]:
        """Every Phi_s packed at width b, the gens of ``pack``."""
        return [self._packed_op(cols, b) for cols in self.gen_cols]

    def images(self, vec: List[int], gens) -> List[List[int]]:
        """Phi_z vec for every group element z, on packed ints (gens from
        ``pack``), one ``_sparse_step`` each: in length order, any left
        descent s of z gives the length-additive z = s * (s z), so the image
        at z is Phi_s of one already computed."""
        g = self.alg.group
        out: List[List[int]] = [None] * g.size  # type: ignore[list-item]
        out[g.id_of(g.identity)] = list(vec)
        # the identity, the one element of length 0, sorts first
        for eid in sorted(range(g.size), key=lambda e: g.lengths[e])[1:]:
            for s in range(g.rank):
                par = g.lmul_id(s, eid)
                if g.lengths[par] < g.lengths[eid]:
                    out[eid] = _sparse_step(gens[s], out[par])
                    break
        return out

    def apply_packed(self, gens, word: Sequence[int], vec: List[int]) -> List[int]:
        """Phi_word vec on packed ints, the last letter acting first."""
        for s in reversed(word):
            vec = _sparse_step(gens[s], vec)
        return vec

    def twist_poly(self, bp: BivarPoly, num: List[LaurentPoly]) -> List[LaurentPoly]:
        """bp(F) num for an integral vector num, unpacked from ``twist_packed``."""
        acc, base, b = self.twist_packed(bp, num)
        return [unpack(a, base, b) for a in acc]

    def twist_packed(self, bp: BivarPoly, num: List[LaurentPoly]) -> Tuple[List[int], int, int]:
        """(acc, base, b): bp(F) num for an integral vector num, packed at
        base and width b.  b fits every result coefficient, so an entry of
        acc is zero exactly when that entry of bp(F) num is.

        bp is first reduced modulo the block's minimal polynomial mu_B
        (``minpoly``, cached per bp): mu_B(F) = 0 is checked on every basis
        vector, so bp(F) = (bp mod mu_B)(F), of degree below deg mu_B
        whatever deg bp is.  Horner's rule runs on Kronecker-packed
        integers (``_horner``) at the width of ``_packed_twist``'s bound,
        num packed at its least exponent lo_v.
        """
        if not bp.is_zero and any(num):
            bp = self._solver(("mod", bp), lambda: self._build_mod(bp))
        if bp.is_zero or not any(num):
            return [0] * self.dim, 0, 1
        packed, b = self._packed_twist(bp, [max(map(abs, x._c.values()), default=0) for x in num])
        lo_v = min(x.min_exp for x in num if x)
        acc, lo_c = _horner(packed, bp, b, [pack(x, lo_v, b) for x in num])
        return acc, lo_c + lo_v, b

    def _packed_twist(self, bp: BivarPoly, vnorm: List[int]) -> Tuple[List[tuple], int]:
        """(F packed at width b (``_packed_op``), b) for bp(F) x over integral
        x with |x_r|_inf <= vnorm[r].  As v -> 2^b is a ring homomorphism,
        only the final coefficients of Horner's rule must fit a slot: from
        bound_r = 0, each step sets bound_r = sum_j |F_rj|_1 bound_j +
        |c_k|_1 vnorm_r over this block's rows, and b =
        max(bound).bit_length() + 1 keeps a sign bit."""
        norms = [(j, r, sum(map(abs, f._c.values()))) for j, col in enumerate(self.twist_cols) for r, f in col]
        bound = [0] * self.dim
        for c in reversed(bp.xcoeffs):
            c1 = sum(map(abs, c._c.values()))
            bound = [x + c1 * y for x, y in zip(_sparse_step(norms, bound), vnorm)]
        b = max(bound).bit_length() + 1
        return self._packed_op(self.twist_cols, b), b

    @property
    def minpoly(self) -> BivarPoly:
        return self._solver("minpoly", self._build_minpoly)

    def _build_minpoly(self) -> BivarPoly:
        """mu_B, the minimal polynomial of F on this block, as a primitive
        polynomial in Z[v, v^-1][x] (``linalg.minpoly_operator``).  F has
        entries in Z[v], so its monic minimal polynomial has coefficients in
        Z[v] (Gauss's lemma) and ``divmod_x`` by it stays in the ring; were
        the leading coefficient not a unit, ``divmod_x`` would raise
        NonUnitLeadingCoefficient.

        mu_B divides prod(x - v^2i, i <= 2 l(w0)), as for
        ``KLAlgebra.fulltwist_minpoly``, so the Krylov runs stop at x-degree
        2 l(w0) + 1 and a wrong F fails fast: IdentityFailure when mu_B
        passes that degree, or unless mu_B(F) e_j = 0 for every basis vector
        e_j, decided on packed ints at the width of the norm bound for unit
        vectors."""
        n = self.dim
        bound = 2 * self.alg.group.lengths[self.alg.group.longest_id] + 1
        try:
            mu = minpoly_operator(sparse_operator(self.twist_cols, n), n, bound)
        except DegreeBoundExceeded as e:
            raise IdentityFailure("the minimal polynomial of F passes x-degree %d" % bound) from e
        packed, b = self._packed_twist(mu, [1] * n)
        for j in range(n):
            acc, _ = _horner(packed, mu, b, [int(i == j) for i in range(n)])
            if any(acc):
                raise IdentityFailure("the minimal polynomial of F does not kill basis vector %d" % j)
        return mu

    def _build_mod(self, bp: BivarPoly) -> BivarPoly:
        """bp mod mu_B, the polynomial ``twist_packed`` runs for bp."""
        return divmod_x(bp, self.minpoly)[1]

    def _solver(self, key, build):
        """build(), cached under key and built once per block even across
        threads: s for ``_build_pairs(s)``, "twist", "minpoly", ("mod", bp),
        ("gens", b) and "free" for the other builders.  The lock is
        reentrant, since a builder may read another builder's result."""
        with self._solver_lock:
            got = self._solvers.get(key)
            if got is None:
                got = self._solvers[key] = build()
        return got

    @property
    def twist_cols(self) -> List[list]:
        return self._solver("twist", self._build_twist)

    def _build_twist(self) -> List[list]:
        return self.alg.columns(self.alg.full_twist())

    def _build_pairs(self, s: int) -> List[tuple]:
        """Phi_s^2 - 1 in 2x2 blocks: entry i is (j, k, m, piv, det m, beta)
        for the pair j < k holding i, m[a][b] at row (j, k)[a] and column
        (j, k)[b], piv the first nonzero column of m (None for m = 0) and
        beta = m[1][piv] / m[0][piv] when exact, else None.  ValueError when
        Phi_s does not map each span{T_u 1_p, T_su 1_p} to itself."""
        alg, g, cols = self.alg, self.alg.group, self.gen_cols[s]
        table: List[tuple] = [None] * self.dim  # type: ignore[list-item]
        for e in range(g.size):
            for p in range(alg.orbit.size):
                pair = (alg.flat_index(e, p), alg.flat_index(g.lmul_id(s, e), p))
                if pair[1] < pair[0]:
                    continue
                phi = [[LaurentPoly.zero()] * 2 for _ in pair]
                for b, c in enumerate(pair):
                    for r, f in cols[c]:
                        if r not in pair:
                            raise ValueError("Phi_s must map each pair {T_u 1_p, T_su 1_p} to itself")
                        phi[pair.index(r)][b] = f
                m = [[phi[a][0] * phi[0][b] + phi[a][1] * phi[1][b] - int(a == b) for b in (0, 1)] for a in (0, 1)]
                piv = next((b for b in (0, 1) if m[0][b] or m[1][b]), None)
                beta = m[1][piv].divide_exact(m[0][piv]) if piv is not None and m[0][piv] else None
                table[pair[0]] = table[pair[1]] = pair + (m, piv, m[0][0] * m[1][1] - m[0][1] * m[1][0], beta)
        return table

    def solve_image(self, s: int, rhs: Dict[int, LaurentPoly], den: LaurentPoly) -> Optional[dict]:
        """Solve (Phi_s^2 - 1) x = rhs / den, rhs and x given by their nonzero
        entries {i: value}; None when rhs is outside the image.

        Per pair (``_build_pairs``) where rhs is nonzero: rank 2 by the
        adjugate, rank 1 at the pivot when rhs is parallel to its column,
        rank 0 never.  x is the unique solution supported on the columns
        independent of those before them."""
        x: Dict[int, Qv] = {}
        table = self._solver(s, lambda: self._build_pairs(s))
        zero = LaurentPoly.zero()
        for i in rhs:
            j, k, m, piv, det, beta = table[i]
            if i == k and j in rhs:
                continue  # solved at j
            rj, rk = rhs.get(j, zero), rhs.get(k, zero)
            if det:
                x[j] = _ratio(m[1][1] * rj - m[0][1] * rk, det, den)
                x[k] = _ratio(m[0][0] * rk - m[1][0] * rj, det, den)
            elif piv is None or (rk != rj * beta if beta else rj * m[1][piv] != rk * m[0][piv]):
                return None
            else:
                a = 0 if m[0][piv] else 1
                x[(j, k)[piv]] = _ratio((rj, rk)[a], m[a][piv], den)
        return x

    def _build_free_solver(self):
        """(rows, phi): a fraction-free echelon over Z[v, v^-1] of the
        residuals of the block's stacked free tuples, and phi[(w, j)] =
        Phi_{w^-1} e_j for each residual (w, j) that became a row.

        Column (w, j) is the free tuple F(w, e_j), y -> Phi_{y w^-1} e_j,
        stacked with entry (y, r) at index y dim + r.  The columns F(e, e_j)
        come first (e is id 0) and are independent: F(e, k) is k at y = e.
        For w != e, F(w, e_j) = R(w, j) + F(e, Phi_{w^-1} e_j), where the
        residual R(w, j)_y = Phi_{y w^-1} e_j - Phi_y Phi_{w^-1} e_j is zero
        at y = e.  So the span is the direct sum of the F(e, e_j) and the
        residuals, (w, j) is a pivot of Gauss-Jordan in (w, j) order exactly
        when R(w, j) is outside the span of the residuals before it, and
        the rank is dim + len(rows).

        The residuals are formed on packed ints from the ``images`` tables of
        the unit vectors (terms of l(w0) and 2 l(w0) steps), and only the
        nonzero ones are reduced in (w, j) order against the rows so far
        (``linalg.reduce_pair``), carrying the combination {(w, j): c} of
        residuals that equals the reduced vector.  One that does not reduce
        to zero becomes a row (piv, ru, rw, d) (``linalg.echelon_row``): ru
        the reduced residual and rw its combination, both sparse and
        primitive together.
        """
        g = self.alg.group
        n = self.dim
        assert g.id_of(g.identity) == 0, "the identity must be id 0"
        zero, one = LaurentPoly.zero(), LaurentPoly.one()
        top = g.lengths[g.longest_id]
        units = [[zero] * j + [one] + [zero] * (n - j - 1) for j in range(n)]
        gens, packed, lo, b = self.pack(units, [top, 2 * top])
        tabs = [self.images(x, gens) for x in packed]
        rows, phi = [], {}
        for w in range(1, g.size):
            winv = g.inv_id(w)
            zs = [g.mul_id(y, winv) for y in range(g.size)]
            for j in range(n):
                k = tabs[j][winv]
                u = _stacked_diff([tabs[j][z] for z in zs], self.images(k, gens), lo, b)
                row = echelon_row(*reduce_pair(u, {(w, j): one}, rows)[:2]) if u else None
                if row is not None:
                    rows.append(row)
                    phi[(w, j)] = {r: unpack(x, lo, b) for r, x in enumerate(k) if x}
        return rows, phi

    def solve_free(self, parts) -> Optional[Dict[Tuple[int, int], Qv]]:
        """{(w, j): c}, nonzero, with sum c F(w, e_j) the tuple a whose block
        vector at y is parts[y], an integral vector; None when it is outside
        the span.  Uses ``_build_free_solver``, built once.

        By its residual argument a = F(e, alpha) + sum beta_(w, j) R(w, j)
        over the pivots with w != e, alpha = a_e - sum beta_(w, j) Phi_{w^-1}
        e_j.  R vanishes at y = e, so beta comes from reducing a - F(e, a_e),
        formed on packed ints (terms of 0 and l(w0) steps): ``reduce_pair``
        leaves sigma (a - F(e, a_e)) = -sum negx_(w, j) R(w, j), so beta =
        -negx / sigma and sigma alpha = sigma a_e + sum negx_(w, j) Phi_{w^-1}
        e_j, all integral; the coefficient of (e, j) is alpha_j.

        The solve is linear, so it runs on parts divided by their content g
        (``linalg.content``) and the coefficients are multiplied by g: on
        the p(v)^k-multiples of c08, g carries p(v)^k, whose degree would
        otherwise enter every product of the elimination.  Each coefficient
        becomes a Qv once, as its integral numerator times g over sigma.
        """
        g, parts = content(parts)
        if not g:
            return {}
        grp = self.alg.group
        rows, phi = self._solver("free", self._build_free_solver)
        gens, packed, lo, b = self.pack(parts, [0, grp.lengths[grp.longest_id]])
        u, negx, sigma = reduce_pair(_stacked_diff(packed, self.images(packed[0], gens), lo, b), {}, rows)
        if u:
            return None
        alpha = [sigma * x for x in parts[0]]
        for lab, c in negx.items():
            for r, x in phi[lab].items():
                alpha[r] = alpha[r] + c * x
        coeffs = {lab: -c for lab, c in negx.items()}
        coeffs.update(((0, j), x) for j, x in enumerate(alpha) if x)
        return {lab: Qv(c * g, sigma) for lab, c in coeffs.items()}


class KModule:
    """The direct sum of ``blocks``, one ``OrbitModule`` per ``kl.algebras`` entry.

    Vectors, ``KTuple`` numerators and witness indices are flat, a layout
    only ``_parts`` knows; ``apply_*``, the gluing solver and the free-span
    solve run per block.  ``apply_*`` return vectors in the ring of their
    input entries; see the module docstring for scalars.
    """

    def __init__(self, kl: KLAlgebra):
        self.kl = kl
        self.group = kl.group
        self.blocks = tuple(map(OrbitModule, kl.algebras))
        self.dim = sum(blk.dim for blk in self.blocks)

    @classmethod
    def for_type(cls, cartan_type_or_group, den_bound: int = 6) -> "KModule":
        return cls(KLAlgebra.for_type(cartan_type_or_group, den_bound))

    def _parts(self, vecs):
        """(start, block, [vec on the block for vec in vecs]) per block: the one
        place that knows the layout, blocks concatenated in ``kl.algebras``
        order, block coordinate j at flat index start + j."""
        if any(len(vec) != self.dim for vec in vecs):
            raise ValueError("vector has wrong dimension")
        start = 0
        for blk in self.blocks:
            yield start, blk, [vec[start : start + blk.dim] for vec in vecs]
            start += blk.dim

    def _blockwise(self, f, vec) -> list:
        """The flat vector of f(block, vec on the block) over all blocks."""
        return [x for _, blk, (part,) in self._parts([vec]) for x in f(blk, part)]

    # -- vectors ---------------------------------------------------------------

    def zero_vector(self) -> List[Qv]:
        return [QV_ZERO] * self.dim

    def basis_vector(self, i: int) -> List[Qv]:
        out = self.zero_vector()
        out[i] = QV_ONE
        return out

    def unit_vector(self) -> List[Qv]:
        """The unit of the sum of orbit algebras."""
        units = (blk.alg.element_to_vector(blk.alg.unit()) for _, blk, _ in self._parts([]))
        return [x for unit in units for x in unit]

    def _apply_cleared(self, f, vec):
        """The flat vector of f(block, D vec on the block) over all blocks, f
        linear over Z[v, v^-1] and D the common denominator of vec's
        entries; divided back by D when vec has a Q(v) entry."""
        (num,), den = _clear_denominators([vec])
        out = self._blockwise(f, num)
        return _over(out, den) if Qv in map(type, vec) else out

    def apply_generator(self, s: int, vec):
        return self._apply_cleared(lambda blk, x: sparse_operator(blk.gen_cols[s], blk.dim)(x), vec)

    def apply_word(self, word: Iterable[int], vec):
        """Phi_word vec, the letters applied right to left to D vec, which is
        integral, so denominators are cleared and restored once per word."""
        (out,), den = _clear_denominators([vec])
        for s in reversed(tuple(word)):
            out = self.apply_generator(s, out)
        return _over(out, den) if Qv in map(type, vec) else out

    def apply_element(self, w, vec):
        eid = w if isinstance(w, int) else self.group.id_of(w)
        return self.apply_word(self.group.words[eid], vec)

    def apply_fulltwist(self, vec):
        return self._apply_cleared(lambda blk, x: sparse_operator(blk.twist_cols, blk.dim)(x), vec)

    def apply_twist_poly(self, bp: BivarPoly, vec):
        """bp(F) vec for bp(x) = sum_k c_k x^k and F the full twist, block by
        block (``OrbitModule.twist_poly``, each with its own Kronecker width)."""
        return self._apply_cleared(lambda blk, x: blk.twist_poly(bp, x), vec)

    def _twist_residual(self, bp: BivarPoly, vec) -> Optional[List[LaurentPoly]]:
        """bp(F) vec for an integral vec, or None when it is zero.  Decided on
        the packed results of ``OrbitModule.twist_packed``, exact as pack is
        injective at their width; only a nonzero result is unpacked."""
        packed = [blk.twist_packed(bp, part) for _, blk, (part,) in self._parts([vec])]
        if not any(any(acc) for acc, _, _ in packed):
            return None
        return [unpack(a, base, b) for acc, base, b in packed for a in acc]

    # -- tuples ------------------------------------------------------------------

    def tuple_from(self, components) -> KTuple:
        return KTuple(self, components)

    def zero_tuple(self) -> KTuple:
        return KTuple(self, {})

    def constant_tuple(self, vec=None) -> KTuple:
        if vec is None:
            vec = self.unit_vector()
        return KTuple(self, {e: list(vec) for e in range(self.group.size)})

    def free_sum(self, terms: Sequence[Tuple[int, Sequence]]) -> KTuple:
        """The sum of the free tuples F(w, k) over terms (w, k), F(w, k) the
        tuple with components Phi_{y w^-1} k.

        One packed sum per block: the k are cleared to one denominator D and
        packed once (``OrbitModule.pack``; each of the T terms nonzero on the
        block takes l(w0) steps at most), the ``images`` table of each gives
        Phi_z k, and at each y the T entries at z = y w^-1 are summed as ints
        and unpacked once.
        """
        g = self.group
        zero = LaurentPoly.zero()
        winvs = [g.inv_id(w if isinstance(w, int) else g.id_of(w)) for w, _ in terms]
        ks, den = _clear_denominators([k for _, k in terms])
        comps: List[List[LaurentPoly]] = [[] for _ in range(g.size)]
        for _, blk, parts in self._parts(ks):
            live = [(winv, part) for winv, part in zip(winvs, parts) if any(part)]
            if not live:
                for comp in comps:
                    comp.extend([zero] * blk.dim)
                continue
            gens, packed, lo, b = blk.pack([part for _, part in live], [g.lengths[g.longest_id]] * len(live))
            tabs = [(winv, blk.images(x, gens)) for (winv, _), x in zip(live, packed)]
            for y, comp in enumerate(comps):
                acc = map(sum, zip(*(tab[g.mul_id(y, winv)] for winv, tab in tabs)))
                comp.extend(unpack(a, lo, b) if a else zero for a in acc)
        return KTuple._of(self, comps, den)

    def make_free(self, w, k: Sequence) -> KTuple:
        """The free tuple F(w, k), with components Phi_{y w^-1} k."""
        return self.free_sum([(w, k)])

    def random_poly_vector(self, rng, density: float = 0.5) -> List[LaurentPoly]:
        """Entries c v^e, -2 <= e <= 2 and -3 <= c <= 3, each with chance density."""
        out = [LaurentPoly.zero()] * self.dim
        for i in range(self.dim):
            if rng.random() < density:
                out[i] = LaurentPoly({rng.randrange(-2, 3): rng.randrange(-3, 4)})
        return out

    def random_vector(self, rng, density: float = 0.5) -> List[Qv]:
        """``random_poly_vector`` in Q(v)."""
        return [Qv(x) if x else QV_ZERO for x in self.random_poly_vector(rng, density)]

    def random_free_combination(self, rng, terms: int = 3) -> KTuple:
        """Sum of free tuples, drawn as ``random_vector`` but kept integral;
        satisfies the gluing condition by construction."""
        drawn = []
        for _ in range(terms):
            w = rng.randrange(self.group.size)
            drawn.append((w, self.random_poly_vector(rng)))
        return self.free_sum(drawn)

    # -- gluing -------------------------------------------------------------------

    def check_gluing(self, t: KTuple) -> List[dict]:
        """Per-(s, w) membership reports with solver witnesses.

        Works on the numerators of t; witnesses are divided back by D.  The
        right-hand side t_sw - Phi_s t_w is formed on packed ints, block by
        block: t's numerators are packed once (``OrbitModule.pack``, terms of
        0 and 1 steps) and Phi_s t_w is one ``_sparse_step``.  Only its
        nonzero entries are unpacked, for ``OrbitModule.solve_image`` on the
        blocks where it is nonzero.
        """
        g = self.group
        blocks = [(start, blk, *blk.pack(parts, [0, 1])) for start, blk, parts in self._parts(t._c)]
        out = []
        for s in range(g.rank):
            for w in range(g.size):
                sw = g.lmul_id(s, w)
                rhs = []  # (start, block, its nonzero entries) where nonzero
                for start, blk, gens, tp, lo, b in blocks:
                    d = map(operator.sub, tp[sw], _sparse_step(gens[s], tp[w]))
                    part = {i: unpack(a, lo, b) for i, a in enumerate(d) if a}
                    if part:
                        rhs.append((start, blk, part))
                if not rhs:
                    out.append(_greport(g, s, w, True, witness="0"))
                    continue
                sols = [(start, blk.solve_image(s, part, t.den)) for start, blk, part in rhs]
                ok = all(x is not None for _, x in sols)
                x = {start + i: y for start, got in sols for i, y in got.items()} if ok else None
                out.append(_greport(g, s, w, ok, witness=None if x is None else _render_vec(x)))
        return out

    # -- iota and the canonical complex ---------------------------------------------

    def iota(self, t: KTuple) -> KTuple:
        g = self.group
        w0 = g.longest_id
        comps = [self.apply_element(w0, t._c[g.mul_id(w0, w)]) for w in range(g.size)]
        return KTuple._of(self, comps, t.den)

    def iota_sq(self, t: KTuple) -> KTuple:
        """Double iota; must agree with the componentwise full twist."""
        out = self.iota(self.iota(t))
        for w in range(self.group.size):
            if list(out._c[w]) != self.apply_fulltwist(t._c[w]):
                raise IdentityFailure(
                    "iota^2 differs from the full twist at %s"
                    % self.group.elements[w].word_str
                )
        return out

    def canonical_identity(self, k: Sequence) -> List[dict]:
        """Euler identity of the canonical complex on the free tuple at e.

        For every y, the alternating sum over nonempty J of the restricted
        free components Phi_{y x^-1} Phi_x k, x running over the minimal
        representatives of the cosets W_K x, K the complement of J, equals
        Phi_y k plus (-1)^(n-1) Phi_w0 Phi_{w0 y} k.  A term depends on x
        only, so the left side is sum mu(x) Phi_{y x^-1} Phi_x k with mu from
        ``canonical_multiplicities``: mu(e) = 1 and mu(w0) = (-1)^(n-1), so
        the identity says Phi_{y w0} Phi_w0 k = Phi_w0 Phi_{w0 y} k.

        Checked over Z[v, v^-1] on D k, D the common denominator of k, and
        on Kronecker-packed ints, block by block: k is packed once
        (``OrbitModule.pack``; the sum has sum |mu(x)| + 2 terms, counted
        with multiplicity, of at most 2 l(w0) steps each),
        ``OrbitModule.images`` tables Phi_z Phi_x k for each x with
        mu(x) != 0, Phi_w0 is applied to Phi_{w0 y} k along the word of w0,
        and the terms are summed as ints.
        Only a failing y is unpacked: its witness is lhs - rhs divided back
        by D.
        """
        g = self.group
        n = g.rank
        w0 = g.longest_id
        (k,), den = _clear_denominators([k])
        mu = canonical_multiplicities(g)
        e = g.id_of(g.identity)
        # per y, the left side's terms (mu(x), x, z) for Phi_z Phi_x k
        left = [[(m, x, g.mul_id(y, g.inv_id(x))) for x, m in mu.items()] for y in range(g.size)]
        w0y = [g.mul_id(w0, y) for y in range(g.size)]
        top_sign = 1 if (n - 1) % 2 == 0 else -1
        steps = [2 * g.lengths[w0]] * (sum(map(abs, mu.values())) + 2)
        bad: Dict[int, List[LaurentPoly]] = {}  # y -> lhs - rhs, for failing y
        for start, blk, (part,) in self._parts([k]):
            if not any(part):
                continue
            gens, (packed,), lo_k, b = blk.pack([part], steps)
            tab_k = blk.images(packed, gens)
            tabs = {x: tab_k if x == e else blk.images(tab_k[x], gens) for x in mu}
            for y in range(g.size):
                summands = [(m, tabs[x][z]) for m, x, z in left[y]]
                summands.append((-1, tab_k[y]))
                phi = blk.apply_packed(gens, g.words[w0], tab_k[w0y[y]])
                summands.append((-top_sign, phi))
                diff = _packed_sum(summands)
                if any(diff):
                    vec = bad.setdefault(y, [LaurentPoly.zero()] * self.dim)
                    vec[start : start + blk.dim] = [unpack(a, lo_k, b) for a in diff]
        return [
            {
                "check": "canonical",
                "y": g.elements[y].word_str,
                "status": "fail" if y in bad else "pass",
                "witness": _render_vec(_over(bad[y], den)) if y in bad else None,
            }
            for y in range(g.size)
        ]

    # -- localization splitting ----------------------------------------------------

    def polyconj_split(self, a: KTuple, m=None) -> Tuple[KTuple, KTuple, dict]:
        """Split p(v) * a into a free part a0 and a twist-annihilated part a1.

        a0 = Ptilde(F) a and a1 = r(F)(F - 1) a, where Ptilde is the product
        of (x - v^2i) for 1 <= i <= m and Ptilde(x) + r(x)(x - 1) = p(v).
        Each is one ``apply_twist_poly``, a1 with the polynomial r(x)(x - 1),
        so each block runs Horner on Ptilde and on r(x)(x - 1) reduced
        modulo its mu_B: where mu_B divides Ptilde, Ptilde reduces to 0 and
        r(x)(x - 1) to p(v).
        Verifies exactly: (i) a0 + a1 = p(v) a; (ii) Phi_s^2 a0 = a0;
        (iii) a0_{sw} = Phi_s a0_w, via the proof step that multiplication
        by (Phi_s^2 - 1) on that difference equals multiplication by v^4 - 1,
        a nonzerodivisor; (iv) Ptilde(F) a1 = 0.
        """
        bad = [r for r in self.check_gluing(a) if r["status"] != "pass"]
        if bad:
            raise GluingViolation(
                "tuple fails gluing at s=%s, w=%s" % (bad[0]["s"], bad[0]["w"])
            )
        g = self.group
        mm = resolve_m(m, g)
        ptilde = annihilator_family(mm, tilde=True)
        pv, r = split_at_one(ptilde)
        # over Z[v, v^-1]: comp = D a, and a0, a1 share a's denominator D
        comp, den = a._c, a.den
        a0c = [self.apply_twist_poly(ptilde, vec) for vec in comp]
        r1 = r * BivarPoly.x_minus(LaurentPoly.one())
        a1c = [self.apply_twist_poly(r1, vec) for vec in comp]
        cert = {"m": mm, "p": pv.render()}
        for w in range(g.size):
            got = [x + y for x, y in zip(a0c[w], a1c[w])]
            if got != [x * pv for x in comp[w]]:
                raise IdentityFailure("a0 + a1 differs from p(v) a")
        cert["sum"] = "pass"
        # (ii) and (iii) on packed ints, block by block: d = a0_sw - Phi_s a0_w,
        # and (Phi_s^2 - 1) d = (v^4 - 1) d checked as Phi_s^2 d = v^4 d, v^4 d
        # being d shifted by 4 slots.  Phi_s^2 d - v^4 d sums terms of a0
        # under 0 to 3 generator steps; those of Phi_s^2 a0_w - a0_w and d are
        # among them.
        blocks = [(blk, *blk.pack(parts, [0, 1, 2, 3])) for _, blk, parts in self._parts(a0c)]
        for s in range(g.rank):
            for w in range(g.size):
                sw = g.lmul_id(s, w)
                fixed = step = free = True
                for blk, gens, packed, _, b in blocks:
                    x = packed[w]
                    sx = blk.apply_packed(gens, (s,), x)
                    fixed &= blk.apply_packed(gens, (s,), sx) == x
                    d = list(map(operator.sub, packed[sw], sx))
                    step &= blk.apply_packed(gens, (s, s), d) == [a << 4 * b for a in d]
                    free &= not any(d)
                if not fixed:
                    raise IdentityFailure(
                        "Phi_s^2 does not fix a0 at s=%d, w=%s"
                        % (s + 1, g.elements[w].word_str)
                    )
                if not step:
                    raise IdentityFailure(
                        "proof step fails at s=%d, w=%s"
                        % (s + 1, g.elements[w].word_str)
                    )
                if not free:
                    raise IdentityFailure(
                        "a0 is not free-compatible at s=%d, w=%s"
                        % (s + 1, g.elements[w].word_str)
                    )
        cert["free"] = "pass"
        for w in range(g.size):
            res = self._twist_residual(ptilde, a1c[w])
            if res is not None:
                raise IdentityFailure(
                    "Ptilde(F) does not annihilate a1 at %s: %s"
                    % (g.elements[w].word_str, _render_vec(_over(res, den)))
                )
        cert["annihilated"] = "pass"
        return KTuple._of(self, a0c, den), KTuple._of(self, a1c, den), cert

    def euclid_descent(self, a: KTuple, r: int, m=None) -> Tuple[BivarPoly, dict]:
        """Express p(v)^r a through (F - 1) a given Ptilde^r (F) a = 0.

        Returns g with p(v)^r a = g(F)(F - 1) a, obtained by dividing
        p(v)^r - Ptilde(x)^r by x - 1.
        """
        if r < 1:
            raise ValueError("r must be positive")
        gW = self.group
        mm = resolve_m(m, gW)
        ptilde_r = annihilator_family(mm, tilde=True) ** r
        comp, den = a._c, a.den
        for w in range(gW.size):
            res = self._twist_residual(ptilde_r, comp[w])
            if res is not None:
                raise PreconditionFailure(
                    "Ptilde^r(F) a is nonzero at %s: %s"
                    % (gW.elements[w].word_str, _render_vec(_over(res, den)))
                )
        pr = BivarPoly.const(p_poly(mm)) ** r
        x1 = BivarPoly.x_minus(LaurentPoly.one())
        quo, rem = divmod_x(pr - ptilde_r, x1)
        if not rem.is_zero:
            raise IdentityFailure("x - 1 must divide p^r - Ptilde^r")
        scal = p_poly(mm) ** r
        quo1 = quo * x1
        for w in range(gW.size):
            lhs = self.apply_twist_poly(quo1, comp[w])
            if lhs != [scal * x for x in comp[w]]:
                raise IdentityFailure("descent identity failed")
        return quo, {"check": "euclid_descent", "r": r, "m": mm, "status": "pass"}

    def express_in_free_span(
        self, a: KTuple, m=None, rmax: int = 3
    ) -> Optional[dict]:
        """Solve a as a combination of free tuples over the function field.

        Returns None when a is outside the span.  Otherwise reports the
        nonzero coefficients as localized scalars when every denominator
        divides a power of p(v), with the least power used.  Solved block by
        block (``OrbitModule.solve_free``): the coefficients are the unique
        ones on the free tuples F(w, e_j) that are independent of those
        before them in (w, j) order, zero on the others.
        """
        g = self.group
        mm = resolve_m(m, g)
        coeffs: Dict[Tuple[int, int], Qv] = {}
        # solved on the numerators D a, so each coefficient is divided by D
        inv_den = Qv(LaurentPoly.one(), a.den)
        for start, blk, parts in self._parts(a._c):
            sol = blk.solve_free(parts)
            if sol is None:
                return None
            for (w, j), c in sol.items():
                coeffs[(w, start + j)] = c * inv_den
        max_r = 0
        rendered = {}
        admissible = True
        for (w, b), c in sorted(coeffs.items()):
            den = c.den
            r = divides_p_power(den, mm, rmax)
            if r is None:
                admissible = False
                rendered[(w, b)] = c.render()
                continue
            max_r = max(max_r, r)
            power = p_poly(mm) ** r
            extra = power.divide_exact(den)
            scalar = LocalizedScalar(
                c.num * extra, {i: r for i in range(1, mm + 1)} if r else None
            )
            rendered[(w, b)] = scalar.render()
        return {
            "admissible": admissible,
            "max_power": max_r,
            "m": mm,
            "coefficients": {
                "%s|%d" % (g.elements[w].word_str, b): s
                for (w, b), s in rendered.items()
            },
        }


def _greport(g, s: int, w: int, ok: bool, witness=None) -> dict:
    out = {
        "check": "gluing",
        "s": s + 1,
        "w": g.elements[w].word_str,
        "status": "pass" if ok else "fail",
    }
    if witness is not None:
        out["witness"] = witness
    return out


def _render_vec(vec) -> str:
    """"[i:x_i, ...]" over the nonzero entries of a list or an {i: x_i} dict."""
    items = sorted(vec.items()) if isinstance(vec, dict) else enumerate(vec)
    bits = ["%d:%s" % (i, a.render()) for i, a in items if a]
    return "[" + ", ".join(bits) + "]" if bits else "[0]"
