"""Finite Weyl groups from Cartan data.

Roots are generated in simple-root coordinates with coroots carried in
parallel, elements are stored as permutations of the full root list, and each
element keeps its lexicographically minimal reduced word.  Reflection
subgroups are first class: `reflection_subgroup` closes a set of positive
roots, recovers the intrinsic simple system, and enumerates the subgroup with
its own length function so algebra downstream can treat it like an ambient
group.
"""

from __future__ import annotations

import re
from math import factorial
from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class UnsupportedType(ValueError):
    """Cartan type outside the supported families or beyond the order cap."""


class MixedAmbient(ValueError):
    """Operands belong to different groups."""


_TYPE_RE = re.compile(r"^([ABCDFG])([0-9]+)$")

_MIN_RANK = {"A": 1, "B": 2, "C": 2, "D": 4, "G": 2, "F": 4}
_FIXED_RANK = {"G": 2, "F": 4}


def parse_cartan_type(tag: str) -> Tuple[str, int]:
    m = _TYPE_RE.match(tag.strip())
    if not m:
        raise UnsupportedType("cannot parse Cartan type %r" % (tag,))
    family, n = m.group(1), int(m.group(2))
    if n < _MIN_RANK[family]:
        raise UnsupportedType("rank %d too small for family %s" % (n, family))
    if family in _FIXED_RANK and n != _FIXED_RANK[family]:
        raise UnsupportedType("family %s exists only in rank %d" % (family, _FIXED_RANK[family]))
    return family, n


def weyl_order(family: str, n: int) -> int:
    if family == "A":
        return factorial(n + 1)
    if family in ("B", "C"):
        return 2 ** n * factorial(n)
    if family == "D":
        return 2 ** (n - 1) * factorial(n)
    if family == "G":
        return 12
    return 1152


def _positive_count(family: str, n: int) -> int:
    if family == "A":
        return n * (n + 1) // 2
    if family in ("B", "C"):
        return n * n
    if family == "D":
        return n * (n - 1)
    if family == "G":
        return 6
    return 24


def cartan_matrix(family: str, n: int) -> Tuple[Tuple[int, ...], ...]:
    """Standard table with C[i][j] = <alpha_j, alpha_i^vee> (0-indexed)."""
    C = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if family in ("A", "B", "C"):
        for i in range(n - 1):
            C[i][i + 1] = C[i + 1][i] = -1
        if family == "B":
            C[n - 1][n - 2] = -2
        if family == "C":
            C[n - 2][n - 1] = -2
    elif family == "D":
        for i in range(n - 2):
            C[i][i + 1] = C[i + 1][i] = -1
        C[n - 3][n - 1] = C[n - 1][n - 3] = -1
    elif family == "G":
        C[0][1] = -3
        C[1][0] = -1
    else:
        C[0][1] = C[1][0] = -1
        C[1][2] = -1
        C[2][1] = -2
        C[2][3] = C[3][2] = -1
    return tuple(tuple(row) for row in C)


def _pairing(C, root, coroot) -> int:
    # <root, coroot> with root in simple-root and coroot in simple-coroot coords
    n = len(root)
    total = 0
    for i in range(n):
        ci = coroot[i]
        if ci:
            row = C[i]
            total += ci * sum(row[j] * root[j] for j in range(n) if root[j])
    return total


def _reflect_pair(C, i, pair):
    root, coroot = pair
    n = len(root)
    k = sum(C[i][j] * root[j] for j in range(n) if root[j])
    kc = sum(C[j][i] * coroot[j] for j in range(n) if coroot[j])
    nr = list(root)
    nr[i] -= k
    nc = list(coroot)
    nc[i] -= kc
    return (tuple(nr), tuple(nc))


def _generate_root_pairs(C):
    n = len(C)
    seen = set()
    queue = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        seen.add((e, e))
        queue.append((e, e))
    while queue:
        pair = queue.pop()
        for i in range(n):
            img = _reflect_pair(C, i, pair)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    pos = [p for p in seen if all(x >= 0 for x in p[0])]
    # simples first (height 1, natural order), then by height
    pos.sort(key=lambda rc: (sum(rc[0]), tuple(-x for x in rc[0])))
    return pos


class RootDatum:
    """Cartan matrix plus parallel positive root and coroot lists.

    Convention: cartan_matrix[i][j] = <alpha_j, alpha_i^vee>, hence
    s_i(alpha_j) = alpha_j - cartan_matrix[i][j] * alpha_i.
    """

    __slots__ = ("cartan_type", "cartan_matrix", "positive_roots", "positive_coroots")

    def __init__(self, cartan_type, C, pos_pairs):
        self.cartan_type = cartan_type
        self.cartan_matrix = C
        self.positive_roots = tuple(r for (r, c) in pos_pairs)
        self.positive_coroots = tuple(c for (r, c) in pos_pairs)

    def pairing(self, root, coroot) -> int:
        return _pairing(self.cartan_matrix, root, coroot)

    def to_json(self):
        return {
            "cartan_type": self.cartan_type,
            "cartan_matrix": [list(row) for row in self.cartan_matrix],
            "positive_roots": [list(r) for r in self.positive_roots],
            "positive_coroots": [list(c) for c in self.positive_coroots],
        }


class WeylElement:
    """Group element: root permutation plus canonical reduced word."""

    __slots__ = ("group", "eid")

    def __init__(self, group, eid):
        self.group = group
        self.eid = eid

    @property
    def word(self) -> Tuple[int, ...]:
        return self.group.words[self.eid]

    @property
    def word_str(self) -> str:
        return "".join(str(i + 1) for i in self.word) or "e"

    @property
    def length(self) -> int:
        return self.group.lengths[self.eid]

    @property
    def perm(self):
        return self.group.perms[self.eid]

    def inv(self) -> "WeylElement":
        return self.group.elements[self.group.inv_id(self.eid)]

    def apply_root(self, k: int) -> int:
        """Index of the image of root k under this element."""
        return self.group.perms[self.eid][k]

    def __mul__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        if other.group is not self.group:
            raise MixedAmbient("elements from different groups")
        return self.group.elements[self.group.mul_id(self.eid, other.eid)]

    def __eq__(self, other):
        return (
            isinstance(other, WeylElement)
            and other.group is self.group
            and other.eid == self.eid
        )

    def __hash__(self):
        return hash((id(self.group), self.eid))

    def __repr__(self):
        return "W[%s]" % self.word_str


def _enumerate(start, rank: int, step) -> Tuple[list, List[Tuple[int, ...]]]:
    """(elements, words): everything reached from start by right steps
    step(x, i), i < rank, each with its lex-least word, in (length, word)
    order.  Breadth first: a level in word order meets each new element
    first through its least word, and appends it in that order."""
    words = {start: ()}
    level = [start]
    while level:
        nxt = []
        for x in level:
            for i in range(rank):
                y = step(x, i)
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
        level = nxt
    return list(words), list(words.values())


class WeylGroup:
    """Enumerated Weyl group; element ids follow the (length, word) order.

    Id 0 is the identity, the last id is the longest element.  The same table
    interface (elements, words, lengths, lmul_id, rmul_id, mul_id, inv_id) is
    implemented by SubsystemGroup, so code written against it runs over
    reflection subgroups too.
    """

    def __init__(self, cartan_type: str, max_order: int = 1152):
        family, n = parse_cartan_type(cartan_type)
        order = weyl_order(family, n)
        if order > max_order:
            raise UnsupportedType(
                "group of type %s has order %d, above the cap %d" % (cartan_type, order, max_order)
            )
        self.cartan_type = family + str(n)
        self.rank = n
        C = cartan_matrix(family, n)
        pos_pairs = _generate_root_pairs(C)
        assert len(pos_pairs) == _positive_count(family, n)
        self.datum = RootDatum(self.cartan_type, C, pos_pairs)
        self.n_positive = len(pos_pairs)
        neg_pairs = [
            (tuple(-x for x in r), tuple(-x for x in c)) for (r, c) in pos_pairs
        ]
        self.root_pairs = tuple(pos_pairs + neg_pairs)
        self._root_index = {p: k for k, p in enumerate(self.root_pairs)}
        nn = len(self.root_pairs)

        gen_perms = []
        for i in range(n):
            gen_perms.append(
                tuple(self._root_index[_reflect_pair(C, i, p)] for p in self.root_pairs)
            )

        perms, words = _enumerate(tuple(range(nn)), n, lambda perm, i: tuple(perm[k] for k in gen_perms[i]))
        assert len(perms) == order

        self.size = order
        self.perms = perms
        self.words = words
        N = self.n_positive
        self.lengths = [sum(1 for k in range(N) if p[k] >= N) for p in perms]
        for eid in range(order):
            assert self.lengths[eid] == len(words[eid])
        self._eid: Dict[tuple, int] = {p: k for k, p in enumerate(perms)}
        self.elements = tuple(WeylElement(self, k) for k in range(order))
        self.identity = self.elements[0]
        self.gens = tuple(
            self.elements[self._eid[gen_perms[i]]] for i in range(n)
        )
        self.longest_id = order - 1
        assert self.lengths[self.longest_id] == N
        assert order < 2 or self.lengths[order - 2] < N

        self._rmul = [
            [self._eid[tuple(p[gp[k]] for k in range(nn))] for p in perms]
            for gp in gen_perms
        ]
        self._lmul = [
            [self._eid[tuple(gp[p[k]] for k in range(nn))] for p in perms]
            for gp in gen_perms
        ]
        inv = [0] * order
        for eid, p in enumerate(perms):
            q = [0] * nn
            for k in range(nn):
                q[p[k]] = k
            inv[eid] = self._eid[tuple(q)]
        self._inv = inv
        self._mul_rows: List[Optional[List[int]]] = [None] * order
        self._bruhat_memo: Dict[Tuple[int, int], bool] = {}
        self._refl_cache: Dict[int, WeylElement] = {}

    # -- table interface -------------------------------------------------

    def id_of(self, el: WeylElement) -> int:
        if el.group is not self:
            raise MixedAmbient("element from a different group")
        return el.eid

    def mul_id(self, aid: int, bid: int) -> int:
        row = self._mul_rows[aid]
        if row is None:  # aid's row of the table, built on first use
            pa = self.perms[aid]
            row = self._mul_rows[aid] = [self._eid[tuple(pa[k] for k in pb)] for pb in self.perms]
        return row[bid]

    def lmul_id(self, i: int, eid: int) -> int:
        return self._lmul[i][eid]

    def rmul_id(self, eid: int, i: int) -> int:
        return self._rmul[i][eid]

    def inv_id(self, eid: int) -> int:
        return self._inv[eid]

    def longest(self) -> WeylElement:
        return self.elements[self.longest_id]

    # -- element level helpers -------------------------------------------

    def mul(self, a: WeylElement, b: WeylElement) -> WeylElement:
        if a.group is not self or b.group is not self:
            raise MixedAmbient("elements from different groups")
        return self.elements[self.mul_id(a.eid, b.eid)]

    def length(self, a: WeylElement) -> int:
        return self.lengths[self.id_of(a)]

    def element_from_word(self, word) -> WeylElement:
        """Accepts an iterable of 0-based indices or a string like "121"."""
        if isinstance(word, str):
            if word in ("", "e"):
                word = ()
            else:
                word = tuple(int(ch) - 1 for ch in word)
        eid = 0
        for i in word:
            if not 0 <= i < self.rank:
                raise ValueError("generator index out of range: %r" % (i,))
            eid = self.rmul_id(eid, i)
        return self.elements[eid]

    def reflection(self, pos_idx: int) -> WeylElement:
        """The reflection through positive root number pos_idx."""
        el = self._refl_cache.get(pos_idx)
        if el is None:
            root, coroot = self.root_pairs[pos_idx]
            C = self.datum.cartan_matrix
            perm = []
            for (r, c) in self.root_pairs:
                k = _pairing(C, r, coroot)
                kc = _pairing(C, root, c)
                nr = tuple(r[j] - k * root[j] for j in range(self.rank))
                ncr = tuple(c[j] - kc * coroot[j] for j in range(self.rank))
                perm.append(self._root_index[(nr, ncr)])
            el = self.elements[self._eid[tuple(perm)]]
            self._refl_cache[pos_idx] = el
        return el

    # -- Bruhat order ------------------------------------------------------

    def bruhat_leq(self, a: WeylElement, b: WeylElement) -> bool:
        aid, bid = self.id_of(a), self.id_of(b)
        return self._bruhat_id(aid, bid)

    def _bruhat_id(self, aid: int, bid: int) -> bool:
        if aid == bid:
            return True
        la, lb = self.lengths[aid], self.lengths[bid]
        if la >= lb:
            return False
        if la == 0:
            return True
        key = (aid, bid)
        got = self._bruhat_memo.get(key)
        if got is None:
            # lift through a left descent of b
            s = self.words[bid][0]
            sb = self._lmul[s][bid]
            sa = self._lmul[s][aid]
            if self.lengths[sa] < la:
                got = self._bruhat_id(sa, sb)
            else:
                got = self._bruhat_id(aid, sb)
            self._bruhat_memo[key] = got
        return got

    # -- cosets and parabolics ----------------------------------------------

    def min_coset_reps(self, K: Iterable[int]) -> Tuple[WeylElement, ...]:
        """Minimal-length representatives x of the right cosets W_K x.

        Every u * x with u in W_K has length(u) + length(x); output is sorted
        by (length, canonical word).
        """
        ks = sorted(set(K))
        for k in ks:
            if not 0 <= k < self.rank:
                raise ValueError("simple index out of range: %r" % (k,))
        reps = []
        for eid in range(self.size):
            l = self.lengths[eid]
            if all(self.lengths[self._lmul[k][eid]] > l for k in ks):
                reps.append(self.elements[eid])
        return tuple(reps)

    def parabolic_subgroup_elements(self, J: Iterable[int]) -> Tuple[WeylElement, ...]:
        js = set(J)
        return tuple(
            self.elements[eid]
            for eid in range(self.size)
            if set(self.words[eid]) <= js
        )

    def parabolic_closure_iter(self):
        """All (J, elements of W_J, minimal coset reps) by (size, lex) of J."""
        for size in range(self.rank + 1):
            for J in combinations(range(self.rank), size):
                yield J, self.parabolic_subgroup_elements(J), self.min_coset_reps(J)

    # -- reflection subgroups ----------------------------------------------

    def reflection_subgroup(self, roots) -> "Subsystem":
        """Subsystem generated by the given positive roots.

        Accepts positive-root indices or coordinate vectors; the set is closed
        under its own reflections and the closure flag records whether that
        added anything.
        """
        idxs = set()
        for r in roots:
            if isinstance(r, int):
                if not 0 <= r < self.n_positive:
                    raise ValueError("positive root index out of range: %r" % (r,))
                idxs.add(r)
            else:
                v = tuple(r)
                hit = None
                for k in range(self.n_positive):
                    if self.root_pairs[k][0] == v:
                        hit = k
                        break
                    if tuple(-x for x in self.root_pairs[k][0]) == v:
                        hit = k
                        break
                if hit is None:
                    raise ValueError("not a root: %r" % (v,))
                idxs.add(hit)
        initial = frozenset(idxs)
        N = self.n_positive
        changed = True
        while changed:
            changed = False
            for b in sorted(idxs):
                perm = self.reflection(b).perm
                for g in sorted(idxs):
                    im = perm[g]
                    if im >= N:
                        im -= N
                    if im not in idxs:
                        idxs.add(im)
                        changed = True
        return Subsystem(self, frozenset(idxs), frozenset(idxs) != initial)


def _simple_part(ambient: WeylGroup, pos_idxs: frozenset) -> Tuple[int, ...]:
    # subsystem simples: positives not a sum of two subsystem positives
    vecs = {ambient.root_pairs[k][0]: k for k in pos_idxs}
    out = []
    items = sorted(pos_idxs)
    for k in items:
        r = ambient.root_pairs[k][0]
        dec = False
        for a in items:
            ra = ambient.root_pairs[a][0]
            rb = tuple(x - y for x, y in zip(r, ra))
            if rb in vecs:
                dec = True
                break
        if dec:
            continue
        out.append(k)
    return tuple(out)


def _component_label(comp, bonds, pairing_of) -> str:
    k = len(comp)
    if k == 1:
        return "A1"
    deg = {u: 0 for u in comp}
    heavy = []
    for (u, v), m in bonds.items():
        deg[u] += 1
        deg[v] += 1
        if m >= 4:
            heavy.append(((u, v), m))
    if any(m == 6 for _, m in heavy):
        assert k == 2
        return "G2"
    if not heavy:
        if max(deg.values()) <= 2:
            return "A%d" % k
        assert sorted(deg.values())[-1] == 3
        return "D%d" % k
    assert len(heavy) == 1
    (u, v), _ = heavy[0]
    if k == 2:
        return "B2"
    if deg[u] > 1 and deg[v] > 1:
        assert k == 4
        return "F4"
    leaf = u if deg[u] == 1 else v
    other = v if leaf == u else u
    # <other, leaf^vee> = -2 exactly when the leaf is short
    short_leaf = pairing_of(other, leaf) == -2
    return ("B%d" if short_leaf else "C%d") % k


def subsystem_type(ambient: WeylGroup, simples: Sequence[int]) -> str:
    """Cartan type string of the subsystem with the given simple roots."""
    if not simples:
        return "1"
    C = ambient.datum.cartan_matrix

    def pairing_of(u, v):
        return _pairing(C, ambient.root_pairs[u][0], ambient.root_pairs[v][1])

    bonds = {}
    adj = {u: [] for u in simples}
    for a, b in combinations(simples, 2):
        nab = pairing_of(a, b) * pairing_of(b, a)
        if nab == 0:
            continue
        m = {1: 3, 2: 4, 3: 6}[nab]
        bonds[(a, b)] = m
        adj[a].append(b)
        adj[b].append(a)
    labels = []
    seen = set()
    for u in simples:
        if u in seen:
            continue
        comp = [u]
        seen.add(u)
        stack = [u]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.append(y)
                    stack.append(y)
        cb = {e: m for e, m in bonds.items() if e[0] in comp}
        labels.append(_component_label(comp, cb, pairing_of))
    labels.sort()
    return "x".join(labels)


def type_order(tag: str) -> int:
    """Group order predicted by a type string like "A2xA1"."""
    if tag == "1":
        return 1
    total = 1
    for part in tag.split("x"):
        family, n = parse_cartan_type(part)
        total *= weyl_order(family, n)
    return total


class SubsystemGroup:
    """Reflection subgroup enumerated over its intrinsic simple reflections.

    Handles are ambient WeylElements; ids, lengths and words are intrinsic to
    the subsystem.  Mirrors the WeylGroup table interface.
    """

    def __init__(self, ambient: WeylGroup, simples: Tuple[int, ...], pos_idxs):
        self.ambient = ambient
        self.rank = len(simples)
        self.simples = simples
        pos = sorted(pos_idxs)
        N = ambient.n_positive
        gen_aeids = [ambient.id_of(ambient.reflection(b)) for b in simples]

        def intrinsic_len(aeid):
            p = ambient.perms[aeid]
            return sum(1 for b in pos if p[b] >= N)

        # a g = (g^-1 a^-1)^-1 reads only the generators' rows of mul_id
        inv = ambient.inv_id
        rmul = lambda a, g: inv(ambient.mul_id(inv(g), inv(a)))
        aeids, words = _enumerate(0, self.rank, lambda aeid, i: rmul(aeid, gen_aeids[i]))
        self.size = len(aeids)
        self._aeids = aeids
        self._local = {a: i for i, a in enumerate(aeids)}
        self.words = words
        self.lengths = [intrinsic_len(a) for a in aeids]
        for i in range(self.size):
            assert self.lengths[i] == len(words[i])
        self.elements = tuple(ambient.elements[a] for a in aeids)
        self.identity = self.elements[0]
        self.gens = tuple(ambient.elements[a] for a in gen_aeids)
        self._gen_aeids = gen_aeids
        self.longest_id = self.size - 1
        assert self.lengths[self.longest_id] == len(pos)
        assert self.size < 2 or self.lengths[self.size - 2] < len(pos)
        self._rmul = [
            [self._local[rmul(a, g)] for a in aeids] for g in gen_aeids
        ]
        self._lmul = [
            [self._local[ambient.mul_id(g, a)] for a in aeids] for g in gen_aeids
        ]
        self._inv = [self._local[ambient.inv_id(a)] for a in aeids]

    def id_of(self, el: WeylElement) -> int:
        if el.group is not self.ambient:
            raise MixedAmbient("element from a different ambient group")
        got = self._local.get(el.eid)
        if got is None:
            raise ValueError("element not in the subsystem group: %r" % (el,))
        return got

    def __contains__(self, el) -> bool:
        return (
            isinstance(el, WeylElement)
            and el.group is self.ambient
            and el.eid in self._local
        )

    def mul_id(self, aid: int, bid: int) -> int:
        return self._local[self.ambient.mul_id(self._aeids[aid], self._aeids[bid])]

    def lmul_id(self, i: int, eid: int) -> int:
        return self._lmul[i][eid]

    def rmul_id(self, eid: int, i: int) -> int:
        return self._rmul[i][eid]

    def inv_id(self, eid: int) -> int:
        return self._inv[eid]

    def longest(self) -> WeylElement:
        return self.elements[self.longest_id]


class Subsystem:
    """Closed set of positive roots plus its enumerated reflection subgroup."""

    def __init__(self, ambient: WeylGroup, pos_idxs: frozenset, closure_added: bool):
        self.ambient = ambient
        self.positive_roots = tuple(sorted(pos_idxs))
        self.closure_added = closure_added
        self.simple_system = _simple_part(ambient, pos_idxs)
        self.cartan_type = subsystem_type(ambient, self.simple_system)
        self.group = SubsystemGroup(ambient, self.simple_system, pos_idxs)
        assert self.group.size == type_order(self.cartan_type)

    @property
    def order(self) -> int:
        return self.group.size

    @property
    def w0(self) -> WeylElement:
        return self.group.longest()

    def intrinsic_length(self, el: WeylElement) -> int:
        return self.group.lengths[self.group.id_of(el)]

    def root_vectors(self):
        return tuple(self.ambient.root_pairs[k][0] for k in self.positive_roots)

    def __contains__(self, el) -> bool:
        return el in self.group

    def to_json(self):
        return {
            "cartan_type": self.cartan_type,
            "order": self.order,
            "positive_roots": [list(v) for v in self.root_vectors()],
            "simple_system": [
                list(self.ambient.root_pairs[k][0]) for k in self.simple_system
            ],
            "w0": self.w0.word_str,
        }


def build_weyl(cartan_type: str, max_order: int = 1152) -> WeylGroup:
    return WeylGroup(cartan_type, max_order=max_order)
