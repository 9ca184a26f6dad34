"""Torsion character points on the torus with their Weyl orbits.

A point is a vector of rationals mod 1 in fundamental-weight coordinates, so
the pairing with a simple coroot reads off a coordinate.  Each point carries a
reflection subgroup W_L, the subsystem of roots whose coroots pair to zero,
and a Poincare polynomial q_L built from intrinsic lengths.

W acts by integer matrices, so every point of an orbit has the same
denominator N, and orbits are computed on integer numerators mod N:
``OrbitData`` walks the orbit, finds each point's kernel with an integer
pairing mod N, shares one ``Subsystem`` per kernel, and exposes integer
generator-move and simple-kernel tables.  ``CharacterPoint`` keeps Fraction
coordinates for rendering and ordering; the Fraction helpers ``pairing``,
``act_generator``, ``act`` and ``wl_subsystem`` act on single points.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd, lcm
from typing import Dict, Iterable, Iterator, Optional, Sequence, Tuple

from .coxeter import Subsystem, WeylElement, WeylGroup
from .rings import LaurentPoly


class CharacterPoint:
    """Rational vector mod 1 in fundamental-weight coordinates."""

    __slots__ = ("coords", "denominator", "_hash")

    def __init__(self, coords: Iterable):
        cs = tuple(Fraction(c) % 1 for c in coords)
        self.coords = cs
        self.denominator = lcm(*(c.denominator for c in cs)) if cs else 1
        self._hash = hash(cs)

    @property
    def rank(self) -> int:
        return len(self.coords)

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __eq__(self, other):
        return isinstance(other, CharacterPoint) and other.coords == self.coords

    def __lt__(self, other):
        return self.coords < other.coords

    def __le__(self, other):
        return self.coords <= other.coords

    def __hash__(self):
        return self._hash

    @classmethod
    def from_numerators(cls, nums: Sequence[int], den: int) -> "CharacterPoint":
        """The point nums / den, for 0 <= nums[i] < den with gcd(den, *nums) = 1."""
        pt = cls.__new__(cls)
        pt.coords = tuple(Fraction(x, den) for x in nums)
        pt.denominator = den
        pt._hash = hash(pt.coords)
        return pt

    def numerators(self) -> Tuple[int, ...]:
        """The coordinates times the denominator, as integers."""
        N = self.denominator
        return tuple(c.numerator * (N // c.denominator) for c in self.coords)

    def render(self) -> str:
        return ",".join(str(c) for c in self.coords)

    def __repr__(self):
        return "L(%s)" % self.render()


def parse_point(text: str, rank: Optional[int] = None) -> CharacterPoint:
    """Parse "1/2,0" into a point, optionally checking the rank."""
    parts = [p.strip() for p in text.split(",")] if text.strip() else []
    pt = CharacterPoint(Fraction(p) for p in parts)
    if rank is not None and pt.rank != rank:
        raise ValueError("expected %d coordinates, got %d" % (rank, pt.rank))
    return pt


def pairing(lam: CharacterPoint, coroot: Sequence[int]) -> Fraction:
    """<lam, coroot> mod 1 for a coroot in simple-coroot coordinates."""
    total = Fraction(0)
    for c, x in zip(lam.coords, coroot):
        total += c * x
    return total % 1


def act_generator(W: WeylGroup, j: int, lam: CharacterPoint) -> CharacterPoint:
    C = W.datum.cartan_matrix
    lj = lam.coords[j]
    if lj == 0:
        return lam
    return CharacterPoint(
        tuple(lam.coords[i] - lj * C[i][j] for i in range(W.rank))
    )


def act(W: WeylGroup, w: WeylElement, lam: CharacterPoint) -> CharacterPoint:
    # w = s_{i1} ... s_{ik} acts with the rightmost letter first
    out = lam
    for j in reversed(w.word):
        out = act_generator(W, j, out)
    return out


def _cache(W: WeylGroup) -> dict:
    got = getattr(W, "_charpoints_cache", None)
    if got is None:
        got = {}
        W._charpoints_cache = got
    return got


def _kernel_subsystem(W: WeylGroup, kernel: Tuple[int, ...]) -> Subsystem:
    """The reflection subgroup on a point's kernel, one per kernel and group."""
    cache = _cache(W)
    key = ("kernel", kernel)
    got = cache.get(key)
    if got is None:
        got = W.reflection_subgroup(kernel)
        # the roots a character kills are closed under their own reflections
        if got.closure_added:
            raise AssertionError("kernel %r is not reflection-closed" % (kernel,))
        cache[key] = got
    return got


def wl_subsystem(W: WeylGroup, lam: CharacterPoint) -> Subsystem:
    """The reflection subgroup of roots on which lam vanishes."""
    kernel = tuple(
        k for k in range(W.n_positive) if pairing(lam, W.root_pairs[k][1]) == 0
    )
    return _kernel_subsystem(W, kernel)


class OrbitData:
    """Full W-orbit of a point with per-point W_L data.

    points are sorted with the representative (the least point) first, and
    numerators[i] is points[i] times den, the denominator of every point.
    gen_move[s][i] is the index of s applied to points[i], simple_kernel[s][i]
    whether the simple coroot s pairs to zero with it, and kernels[i] its
    positive roots pairing to zero.  The product of the orbit size and the
    group-theoretic stabilizer order is the group order.
    """

    def __init__(self, W: WeylGroup, lam: CharacterPoint):
        self.group = W
        N = lam.denominator
        n = W.rank
        cols = [[row[j] for row in W.datum.cartan_matrix] for j in range(n)]
        start = lam.numerators()
        moves = {}
        seen = {start}
        todo = [start]
        while todo:
            a = todo.pop()
            # s_j subtracts a_j times column j of the Cartan matrix, mod N
            moves[a] = [
                a if not a[j] else tuple((x - a[j] * c) % N for x, c in zip(a, col))
                for j, col in enumerate(cols)
            ]
            for b in moves[a]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        nums = sorted(moves)
        index = {a: i for i, a in enumerate(nums)}
        self.den = N
        self.numerators: Tuple[Tuple[int, ...], ...] = tuple(nums)
        self.gen_move = tuple(
            tuple(index[moves[a][j]] for a in nums) for j in range(n)
        )
        self.simple_kernel = tuple(tuple(not a[j] for a in nums) for j in range(n))
        coroots = [W.root_pairs[k][1] for k in range(W.n_positive)]
        self.kernels = tuple(
            tuple(
                k
                for k, c in enumerate(coroots)
                if not sum(x * y for x, y in zip(a, c)) % N
            )
            for a in nums
        )
        pts = tuple(CharacterPoint.from_numerators(a, N) for a in nums)
        self.points: Tuple[CharacterPoint, ...] = pts
        self.representative = pts[0]
        self._index = {p: i for i, p in enumerate(pts)}
        self.stabilizers: Dict[CharacterPoint, Subsystem] = {
            p: _kernel_subsystem(W, kern) for p, kern in zip(pts, self.kernels)
        }
        self.w0L: Dict[CharacterPoint, WeylElement] = {
            p: sub.w0 for p, sub in self.stabilizers.items()
        }
        # images of the representative along canonical words: w = s (s w)
        img = [0] * W.size
        for eid in range(1, W.size):
            s = W.words[eid][0]
            img[eid] = self.gen_move[s][img[W.lmul_id(s, eid)]]
        self.stabilizer_order = img.count(0)
        if len(pts) * self.stabilizer_order != W.size:
            raise AssertionError(
                "orbit of %s: %d points times stabilizer order %d is not %d"
                % (lam.render(), len(pts), self.stabilizer_order, W.size)
            )

    @property
    def size(self) -> int:
        return len(self.points)

    def index_of(self, p: CharacterPoint) -> int:
        got = self._index.get(p)
        if got is None:
            raise ValueError("%r is not in %r" % (p, self))
        return got

    def __repr__(self):
        return "Orbit(%s; %d points)" % (self.representative.render(), self.size)

    def to_json(self):
        return {
            "representative": self.representative.render(),
            "points": [p.render() for p in self.points],
            "stabilizer_types": {
                p.render(): self.stabilizers[p].cartan_type for p in self.points
            },
            "w0L": {p.render(): self.w0L[p].word_str for p in self.points},
        }


def orbit(W: WeylGroup, lam: CharacterPoint) -> OrbitData:
    cache = _cache(W)
    probe = cache.get(("orbit_of", lam.denominator, lam.numerators()))
    if probe is not None:
        return probe
    data = OrbitData(W, lam)
    for a in data.numerators:
        cache[("orbit_of", data.den, a)] = data
    return data


def _points_with_denominator(W: WeylGroup, N: int) -> Iterator[Tuple[int, ...]]:
    """Numerators of every point a / N, including points whose reduced
    denominator is a proper divisor of N."""
    return product(range(N), repeat=W.rank)


def orbit_set(W: WeylGroup, den_bound: int) -> Tuple[OrbitData, ...]:
    """All orbits of points whose least common denominator is at most the
    bound."""
    if den_bound < 1:
        raise ValueError("denominator bound must be positive")
    seen = set()
    out = []
    for N in range(1, den_bound + 1):
        for a in _points_with_denominator(W, N):
            g = gcd(N, *a)
            key = (N // g, tuple(x // g for x in a))
            if key in seen:
                continue
            data = orbit(W, CharacterPoint.from_numerators(key[1], key[0]))
            seen.update((data.den, b) for b in data.numerators)
            out.append(data)
    out.sort(key=lambda o: o.representative.coords)
    return tuple(out)


NEGATIVE_V2 = "negative_v2"
POSITIVE_V2 = "positive_v2"


def poincare_of_subsystem(sub: Subsystem, convention: str) -> LaurentPoly:
    """Sum of (+-v^2)^length over the subsystem group, intrinsic lengths."""
    if convention not in (NEGATIVE_V2, POSITIVE_V2):
        raise ValueError("unknown sign convention %r" % (convention,))
    sign = -1 if convention == NEGATIVE_V2 else 1
    coeffs: Dict[int, int] = {}
    for l in sub.group.lengths:
        coeffs[2 * l] = coeffs.get(2 * l, 0) + (sign ** l)
    return LaurentPoly(coeffs)


def poincare_q(W: WeylGroup, lam: CharacterPoint, convention: str) -> LaurentPoly:
    return poincare_of_subsystem(wl_subsystem(W, lam), convention)


_cyclotomic_cache: Dict[int, LaurentPoly] = {}


def cyclotomic(e: int) -> LaurentPoly:
    """The e-th cyclotomic polynomial in v."""
    got = _cyclotomic_cache.get(e)
    if got is None:
        num = LaurentPoly({e: 1}) - LaurentPoly.one()
        for d in range(1, e):
            if e % d == 0:
                q = num.divide_exact(cyclotomic(d))
                assert q is not None
                num = q
        got = num
        _cyclotomic_cache[e] = got
    return got


class ChevalleyReport:
    """Outcome of factoring q into divisors of the binomials 1 - v^{2i}."""

    def __init__(self, q, m, success, factors, remainder):
        self.q = q
        self.m = m
        self.success = success
        # list of (factor polynomial, witness i with factor | v^{2i} - 1, mult)
        self.factors = factors
        self.remainder = remainder

    def to_json(self):
        return {
            "q": self.q.render(),
            "m": self.m,
            "success": self.success,
            "factors": [
                {"factor": f.render(), "divides_binomial_i": i, "multiplicity": k}
                for (f, i, k) in self.factors
            ],
            "remainder": self.remainder.render(),
        }


def chevalley_divisibility(q: LaurentPoly, m: int) -> ChevalleyReport:
    """Try to write q as a unit times factors dividing some v^{2i}-1, i <= m.

    Trial division runs over the cyclotomic divisors of those binomials:
    Phi_e(v) qualifies when e is odd and e <= m, or e is even and e <= 2m.
    """
    if q.is_zero:
        return ChevalleyReport(q, m, False, [], q)
    rem = q
    factors = []
    candidates = []
    for e in range(1, 2 * m + 1):
        if e % 2 == 1 and e > m:
            continue
        witness = e if e % 2 == 1 else e // 2
        candidates.append((e, witness))
    for e, witness in candidates:
        phi = cyclotomic(e)
        mult = 0
        while True:
            nxt = rem.divide_exact(phi)
            if nxt is None:
                break
            rem = nxt
            mult += 1
        if mult:
            factors.append((phi, witness, mult))
    return ChevalleyReport(q, m, rem.is_unit, factors, rem)
