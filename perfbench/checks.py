"""Output checks that do not go through the code path under test.

Each check raises CheckFailed with a one-line reason.  Polynomial
arithmetic here is done on plain {exponent: coefficient} dicts, group
orders, Jordan totients and hook lengths come from closed formulas, and the
module action is recomputed from the orbit algebra's multiplication rather
than from the cached generator columns of KModule.
"""

from __future__ import annotations

import re
from math import factorial, prod

from klwb.klalgebra import OrbitHeckeElement
from klwb.rings import LaurentPoly, Qv


class CheckFailed(Exception):
    """A benchmark output check rejected a result."""


# -- Laurent polynomials as dicts --------------------------------------------


def padd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        x = out.get(e, 0) + sign * c
        if x:
            out[e] = x
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def p_of_v(m: int) -> dict:
    """prod_{i <= m} (1 - v^2i)."""
    out = {0: 1}
    for i in range(1, m + 1):
        out = pmul(out, {0: 1, 2 * i: -1})
    return out


def as_dict(x) -> dict:
    """A polynomial entry (LaurentPoly, or Qv with denominator 1) as a dict."""
    if isinstance(x, Qv):
        if dict(x.den.items()) != {0: 1}:
            raise CheckFailed("entry %s is not a Laurent polynomial" % x.render())
        x = x.num
    return dict(x.items())


_TERM = re.compile(r"^(?:(\d+)\*)?v(?:\^(-?\d+))?$")


def parse_laurent(text: str) -> dict:
    """Read LaurentPoly.render output ('1 - 2*v^2 + v^-1') back into a dict."""
    tokens = text.split()
    if tokens == ["0"]:
        return {}
    if tokens and tokens[0].startswith("-") and tokens[0] != "-":
        tokens = ["-", tokens[0][1:]] + tokens[1:]
    else:
        tokens = ["+"] + tokens
    out = {}
    for sign, term in zip(tokens[::2], tokens[1::2]):
        if sign not in "+-" or len(tokens) % 2:
            raise CheckFailed("cannot read polynomial %r" % text)
        if term.isdigit():
            e, c = 0, int(term)
        else:
            m = _TERM.match(term)
            if not m:
                raise CheckFailed("cannot read polynomial %r" % text)
            c = int(m.group(1) or 1)
            e = int(m.group(2) or 1)
        out = padd(out, {e: c if sign == "+" else -c})
    return out


_DEN = re.compile(r"\(1 - v\^(\d+)\)(?:\^(\d+))?")


def parse_localized(text: str):
    """Read LocalizedScalar.render output into (numerator, {i: multiplicity})."""
    if not text.startswith("("):
        return parse_laurent(text), {}
    num, sep, den = text.rpartition(") / ")
    if not sep:
        raise CheckFailed("cannot read scalar %r" % text)
    mults = {}
    for two_i, k in _DEN.findall(den):
        mults[int(two_i) // 2] = int(k or 1)
    if _DEN.sub("", den).strip():
        raise CheckFailed("cannot read denominator %r" % den)
    return parse_laurent(num[1:]), mults


# -- Weyl group data from closed formulas ----------------------------------------


def type_data(cartan_type: str):
    """(rank, |W|, number of positive roots) for A_n, B_n and G2."""
    family, n = cartan_type[0], int(cartan_type[1:])
    if family == "A":
        return n, factorial(n + 1), n * (n + 1) // 2
    if family == "B":
        return n, 2 ** n * factorial(n), n * n
    if cartan_type == "G2":
        return 2, 12, 6
    raise ValueError("no closed formula for %s" % cartan_type)


def jordan_totient(k: int, n: int) -> int:
    out = n ** k
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            out = out // p ** k * (p ** k - 1)
            while m % p == 0:
                m //= p
        p += 1
    return out


def _partitions(n: int, most: int = None):
    most = n if most is None else most
    if n == 0:
        yield ()
        return
    for first in range(min(n, most), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def hook_dimension(shape) -> int:
    """f^shape, the number of standard tableaux, by the hook length formula."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = prod(
        (shape[i] - j) + (cols[j] - i) - 1
        for i in range(len(shape))
        for j in range(shape[i])
    )
    return factorial(sum(shape)) // hooks


def expected_cell_sizes(cartan_type: str):
    """Sorted two-sided cell sizes: (f^lambda)^2 in type A, {1, |W|-2, 1} in rank two."""
    rank, order, _ = type_data(cartan_type)
    if cartan_type[0] == "A":
        return sorted(hook_dimension(s) ** 2 for s in _partitions(rank + 1))
    if rank == 2:
        return sorted([1, order - 2, 1])
    raise ValueError("no cell formula for %s" % cartan_type)


# -- euler ------------------------------------------------------------------------


def euler_sides(M, k, y: int):
    """Both sides of the Euler identity at y, straight from its definition.

    The left side sums, over nonempty J and the minimal representatives x
    of the right cosets W_K x (K the complement of J), the y-component of
    the free tuple make_free(x, Phi_x k), which is Phi_{y x^-1} Phi_x k;
    each term is applied with apply_element over Q(v).  The right side is
    Phi_y k + (-1)^(n-1) Phi_w0 Phi_{w0 y} k.
    """
    g = M.group
    n = g.rank
    k = [x if isinstance(x, Qv) else Qv(x) for x in k]
    lhs = M.zero_vector()
    phi_x = {}
    for bits in range(1, 1 << n):
        kset = [s for s in range(n) if not bits >> s & 1]
        sign = 1 if bin(bits).count("1") % 2 else -1
        for x in range(g.size):
            if all(g.lengths[g.lmul_id(s, x)] > g.lengths[x] for s in kset):
                if x not in phi_x:
                    phi_x[x] = M.apply_element(x, k)
                part = M.apply_element(g.mul_id(y, g.inv_id(x)), phi_x[x])
                lhs = [a + b if sign > 0 else a - b for a, b in zip(lhs, part)]
    w0 = g.longest_id
    top = M.apply_element(w0, M.apply_element(g.mul_id(w0, y), k))
    phi_y = M.apply_element(y, k)
    if (n - 1) % 2 == 0:
        rhs = [a + b for a, b in zip(phi_y, top)]
    else:
        rhs = [a - b for a, b in zip(phi_y, top)]
    return lhs, rhs


def check_euler(M, k, reports, ys) -> None:
    """canonical_identity(k) reports a pass for every y, and it truly holds at ys."""
    words = [el.word_str for el in M.group.elements]
    if [r.get("y") for r in reports] != words:
        raise CheckFailed("reports do not cover every group element once")
    bad = [r["y"] for r in reports if r.get("status") != "pass"]
    if bad:
        raise CheckFailed("identity reported failing at y=%s" % bad[0])
    for y in ys:
        lhs, rhs = euler_sides(M, k, y)
        if lhs != rhs:
            raise CheckFailed("identity does not hold at y=%s" % words[y])


# -- split ------------------------------------------------------------------------


class ModuleAction:
    """Generators and the full twist acting through OrbitAlgebra.mul.

    Vectors are lists of polynomial dicts, laid out block after block in
    the order of the module's orbit algebras, as KModule lays them out.
    """

    def __init__(self, M):
        g = M.group
        self.size = M.dim
        self.blocks = []
        off = 0
        for alg in M.kl.algebras:
            gens = [alg.pi_generator(s) for s in range(g.rank)]
            self.blocks.append((off, alg, gens))
            off += alg.dim
        word = g.words[g.longest_id]
        self.twist_word = tuple(reversed(word + word))
        self.group = g

    def generator(self, s: int, vec):
        out = [{}] * self.size
        for off, alg, gens in self.blocks:
            terms = {}
            for eid in range(self.group.size):
                for p in range(alg.orbit.size):
                    c = vec[off + alg.flat_index(eid, p)]
                    if c:
                        terms[(eid, p)] = LaurentPoly(c)
            if not terms:
                continue
            image = alg.element_to_vector(alg.mul(gens[s], OrbitHeckeElement(alg, terms)))
            for j, c in enumerate(image):
                out[off + j] = as_dict(c)
        return out

    def twist(self, vec):
        for s in self.twist_word:
            vec = self.generator(s, vec)
        return vec


def check_split(M, a, result, m: int, ws) -> None:
    """polyconj_split(a) = (a0, a1, cert): a0 + a1 = p(v) a and Phi_s^2 a0 = a0
    at every w, and prod_{i <= m} (F - v^2i) a1 = 0, F the full twist, at ws."""
    a0, a1, cert = result
    if cert.get("m") != m:
        raise CheckFailed("certificate m=%r, expected %d" % (cert.get("m"), m))
    for key in ("sum", "free", "annihilated"):
        if cert.get(key) != "pass":
            raise CheckFailed("certificate %s=%r" % (key, cert.get(key)))
    g = M.group
    act = ModuleAction(M)
    p = p_of_v(m)
    for w in range(g.size):
        x0 = [as_dict(c) for c in a0.get(w)]
        x1 = [as_dict(c) for c in a1.get(w)]
        xa = [as_dict(c) for c in a.get(w)]
        if [padd(u, v) for u, v in zip(x0, x1)] != [pmul(p, z) for z in xa]:
            raise CheckFailed("a0 + a1 differs from p(v) a at w=%s" % g.elements[w].word_str)
        for s in range(g.rank):
            if act.generator(s, act.generator(s, x0)) != x0:
                raise CheckFailed(
                    "Phi_s^2 a0 differs from a0 at s=%d, w=%s" % (s + 1, g.elements[w].word_str)
                )
        if w in ws:
            y = x1
            for i in range(1, m + 1):
                y = [padd(u, {e + 2 * i: c for e, c in v.items()}, -1) for u, v in zip(act.twist(y), y)]
            if any(y):
                raise CheckFailed("Ptilde(F) a1 is nonzero at w=%s" % g.elements[w].word_str)


# the largest power of p(v) an admissible free-span coefficient's denominator
# may divide: express_in_free_span's default rmax
MAX_POWER = 3


def check_free_span(M, scaled, out, m: int, ys) -> None:
    """express_in_free_span(scaled) is admissible, and its coefficients, read
    back from their rendered form, rebuild the tuple's components at ys.

    The free tuple make_free(w, k) has y-component Phi_{y w^-1} k; only the
    sampled components are computed.
    """
    if out is None:
        raise CheckFailed("tuple reported outside the free span")
    if out.get("admissible") is not True or out.get("m") != m:
        raise CheckFailed("result not admissible for m=%d: %r" % (m, out.get("admissible")))
    top = out.get("max_power")
    if not isinstance(top, int) or not 0 <= top <= MAX_POWER:
        raise CheckFailed("max_power %r outside [0, %d]" % (top, MAX_POWER))
    g = M.group
    ids = {el.word_str: i for i, el in enumerate(g.elements)}
    ks = {}
    for key, text in out["coefficients"].items():
        word, _, b = key.partition("|")
        num, mults = parse_localized(text)
        if any(i > m or r > top for i, r in mults.items()):
            raise CheckFailed("coefficient %s=%s is not admissible" % (key, text))
        den = {0: 1}
        for i, r in mults.items():
            for _ in range(r):
                den = pmul(den, {0: 1, 2 * i: -1})
        vec = ks.setdefault(ids[word], M.zero_vector())
        vec[int(b)] = Qv(LaurentPoly(num), LaurentPoly(den))
    for y in ys:
        total = M.zero_vector()
        for w, k in ks.items():
            part = M.apply_element(g.mul_id(y, g.inv_id(w)), k)
            total = [u + x for u, x in zip(total, part)]
        if total != list(scaled.get(y)):
            raise CheckFailed(
                "free-span coefficients do not rebuild the tuple at y=%s" % g.elements[y].word_str
            )


# -- cli ------------------------------------------------------------------------


_SUMMARY = re.compile(r"^(\d+) results: (\d+) pass, (\d+) finding, (\d+) fail$")


def check_report(text: str) -> None:
    """A text report ends with a summary that matches its result lines."""
    lines = text.splitlines()
    m = _SUMMARY.match(lines[-1]) if lines else None
    if not m:
        raise CheckFailed("report has no summary line")
    statuses = [ln[1:ln.index("]")] for ln in lines if ln.startswith("[")]
    total, npass, nfind, nfail = map(int, m.groups())
    if (total, npass, nfind, nfail) != (
        len(statuses), statuses.count("pass"), statuses.count("finding"), statuses.count("fail"),
    ):
        raise CheckFailed("summary %r does not match the result lines" % lines[-1])


_ORBIT_ROW = re.compile(r"lambda=\S+ size=(\d+) stabilizer=\S+ order=(\d+) ")


def check_orbit_table(text: str, cartan_type: str, den: int) -> None:
    """Orbit sizes sum to sum_{N <= den} J_rank(N); size * stabilizer order = |W|."""
    rank, order, _ = type_data(cartan_type)
    rows = [tuple(map(int, m.groups())) for m in _ORBIT_ROW.finditer(text)]
    if not rows:
        raise CheckFailed("orbit table is empty")
    for size, stab in rows:
        if size * stab != order:
            raise CheckFailed("orbit size %d times stabilizer order %d is not %d" % (size, stab, order))
    points = sum(jordan_totient(rank, n) for n in range(1, den + 1))
    if sum(size for size, _ in rows) != points:
        raise CheckFailed("orbits cover %d points, expected %d" % (sum(s for s, _ in rows), points))


_SPECIALIZE = re.compile(r"m=(\d+) q=(\d+): p\(sqrt\(q\)\) = (-?\d+) ")


def check_specialize(text: str, cartan_type: str, q: int) -> None:
    """p(sqrt(q)) at the default m = 2 l(w0) is the integer prod_{i <= m} (1 - q^i)."""
    m = _SPECIALIZE.search(text)
    if not m:
        raise CheckFailed("no specialization line")
    mm, qq, value = int(m.group(1)), int(m.group(2)), m.group(3)
    npos = type_data(cartan_type)[2]
    if mm != 2 * npos or qq != q:
        raise CheckFailed("m=%d q=%d, expected m=%d q=%d" % (mm, qq, 2 * npos, q))
    if int(value) != prod(1 - q ** i for i in range(1, mm + 1)):
        raise CheckFailed("p(sqrt(%d)) = %s is not prod(1 - q^i)" % (q, value))


_CELL_SIZE = re.compile(r"cell \d+ \(?size (\d+)")


def check_cell_sizes(text: str, cartan_type: str) -> None:
    sizes = sorted(int(s) for s in _CELL_SIZE.findall(text))
    want = expected_cell_sizes(cartan_type)
    if sizes != want:
        raise CheckFailed("two-sided cell sizes %s, expected %s" % (sizes, want))


_XTERM = re.compile(r"\(([^()]*)\)(\*x(?:\^(\d+))?)?")


def check_a1_minpoly(text: str) -> None:
    """The A1 full-twist minimal polynomial is (x - 1)(x - v^4)."""
    m = re.search(r"minimal polynomial (.*?); divides", text)
    if not m:
        raise CheckFailed("no minimal polynomial line")
    got = {}
    for term in _XTERM.finditer(m.group(1)):
        k = 0 if term.group(2) is None else int(term.group(3) or 1)
        got[k] = parse_laurent(term.group(1))
    want = {2: {0: 1}, 1: {0: -1, 4: -1}, 0: {4: 1}}
    if got != want:
        raise CheckFailed("A1 minimal polynomial %s is not (x - 1)(x - v^4)" % m.group(1))
