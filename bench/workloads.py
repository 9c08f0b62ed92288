"""Seeded input generators for the rbakit benchmark.

Nothing here imports rbakit: every input is built from first principles
(groups from multiplication rules, schemes from point sets, the rank-7
witness from its fixture text), and every expectation the oracle checks is
derived here from the same first principles, not from the library under test.

Each workload is a fixed list of algebras, each appearing a fixed number of
times per pass. Pass ``p`` of seed ``s`` draws fresh relabellings (and, on
``rank7_screen``, fresh rescalings) from ``Random("<workload>:<s>:<p>")``;
which algebras are in a pass, and which screen inputs are perturbed and
where, does not depend on the seed. rbakit's own ``rng_seed`` is never set.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np

@dataclass
class BenchInput:
    """One algebra as the benchmark feeds it to rbakit, plus what it must yield."""

    id: str
    kind: str                 # "cayley" | "scheme" | "rba"
    text: str
    expect: dict


# ---------------------------------------------------------------------------
# groups: elements, multiplication, and the character data of each family
# ---------------------------------------------------------------------------

@dataclass
class Group:
    """A finite group with its elements in a fixed order (identity first).

    ``chars`` is the multiset of (degree, Frobenius-Schur indicator) of the
    irreducible characters, from the closed form of the group's family.
    """

    name: str
    elements: list
    mul: object
    chars: list

    def table(self) -> np.ndarray:
        index = {e: i for i, e in enumerate(self.elements)}
        return np.array(
            [[index[self.mul(a, b)] for b in self.elements] for a in self.elements],
            dtype=np.int64,
        )


def _elements(identity, gens, mul):
    """Closure of the generators, breadth first, identity first."""
    seen = [identity]
    known = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = mul(a, g)
                if b not in known:
                    known.add(b)
                    seen.append(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def cyclic(n: int) -> Group:
    def mul(a, b):
        return (a + b) % n

    real = 2 if n % 2 == 0 else 1
    chars = [(1, 1)] * real + [(1, 0)] * (n - real)
    return Group(f"C{n}", _elements(0, [1], mul), mul, chars)


def dihedral(n: int) -> Group:
    """Symmetries of the n-gon, order 2n (so D24 has rank 48): (k, e) is r^k s^e."""
    def mul(a, b):
        (k1, e1), (k2, e2) = a, b
        return ((k1 + (k2 if e1 == 0 else -k2)) % n, (e1 + e2) % 2)

    linear = 4 if n % 2 == 0 else 2
    chars = [(1, 1)] * linear + [(2, 1)] * ((n - linear // 2) // 2)
    return Group(f"D{n}", _elements((0, 0), [(1, 0), (0, 1)], mul), mul, chars)


def dicyclic(m: int) -> Group:
    """<a, x | a^2m = 1, x^2 = a^m, x a x^-1 = a^-1>, order 4m (Q8 for m = 2)."""
    def mul(a, b):
        (k1, e1), (k2, e2) = a, b
        if e1 == 0:
            return ((k1 + k2) % (2 * m), e2)
        if e2 == 0:
            return ((k1 - k2) % (2 * m), 1)
        return ((k1 - k2 + m) % (2 * m), 0)

    if m % 2 == 0:
        linear = [(1, 1)] * 4
    else:
        linear = [(1, 1)] * 2 + [(1, 0)] * 2
    chars = linear + [(2, -1 if k % 2 else 1) for k in range(1, m)]
    name = "Q8" if m == 2 else f"Dic{4 * m}"
    return Group(name, _elements((0, 0), [(1, 0), (0, 1)], mul), mul, chars)


def _perm_mul(p, q):
    return tuple(p[x] for x in q)


def alternating4() -> Group:
    gens = [(1, 2, 0, 3), (1, 0, 3, 2)]
    chars = [(1, 1), (1, 0), (1, 0), (3, 1)]
    return Group("A4", _elements((0, 1, 2, 3), gens, _perm_mul), _perm_mul, chars)


def symmetric4() -> Group:
    gens = [(1, 2, 3, 0), (1, 0, 2, 3)]
    chars = [(1, 1), (1, 1), (2, 1), (3, 1), (3, 1)]
    return Group("S4", _elements((0, 1, 2, 3), gens, _perm_mul), _perm_mul, chars)


def product(g: Group, h: Group) -> Group:
    def mul(a, b):
        return (g.mul(a[0], b[0]), h.mul(a[1], b[1]))

    elements = [(a, b) for a in g.elements for b in h.elements]
    chars = [(d1 * d2, n1 * n2) for d1, n1 in g.chars for d2, n2 in h.chars]
    return Group(f"{g.name}x{h.name}", elements, mul, chars)


def group_invariants(table: np.ndarray) -> dict:
    """Class count, involution count and order, read off the Cayley table alone."""
    m = len(table)
    inv = np.argmax(table == 0, axis=1)
    classes = set()
    for g in range(m):
        classes.add(frozenset(int(table[table[x, g], inv[x]]) for x in range(m)))
    involutions = sum(1 for g in range(1, m) if table[g, g] == 0)
    return {"order": m, "classes": len(classes), "involutions": involutions}


def group_expect(group: Group, table: np.ndarray) -> dict:
    """Expected report invariants; the family formula is cross-checked against
    the class count, the involution count and sum deg^2 = |G|."""
    inv = group_invariants(table)
    degs = [d for d, _ in group.chars]
    s = 1 + inv["involutions"]
    if (
        len(group.chars) != inv["classes"]
        or sum(d * d for d in degs) != inv["order"]
        or sum(d * nu for d, nu in group.chars) != s
    ):
        raise AssertionError(f"character data of {group.name} contradicts its table")
    return {
        "family": "group",
        "order": Fraction(inv["order"]),
        "chars": sorted((d, Fraction(d), nu) for d, nu in group.chars),
        "s": s,
        "overall_pass": True,
    }


def cayley_text(table: np.ndarray) -> str:
    lines = [f"order {len(table)}"]
    lines += [" ".join(map(str, row)) for row in table.tolist()]
    return "\n".join(lines) + "\n"


def relabel_table(table: np.ndarray, rng: random.Random) -> np.ndarray:
    """The same group with its non-identity elements renumbered."""
    perm = relabelling(len(table), rng)
    out = np.empty_like(table)
    out[np.ix_(perm, perm)] = perm[table]
    return out


def group_tensor(table: np.ndarray):
    """Structure constants lam[i,j,k] = [g_i g_j = g_k] and star = inversion."""
    m = len(table)
    lam = np.zeros((m, m, m), dtype=np.int64)
    idx = np.arange(m)
    lam[idx[:, None], idx[None, :], table] = 1
    star = np.argmax(table == 0, axis=1)
    return lam, star


# ---------------------------------------------------------------------------
# association schemes
# ---------------------------------------------------------------------------

def hamming_points(d: int, q: int) -> np.ndarray:
    return np.array(list(itertools.product(range(q), repeat=d)), dtype=np.int64)


def hamming_relations(d: int, q: int) -> list:
    pts = hamming_points(d, q)
    dist = (pts[:, None, :] != pts[None, :, :]).sum(axis=2)
    return [(dist == k).astype(np.int64) for k in range(d + 1)]


def johnson_relations(n: int, k: int) -> list:
    pts = [frozenset(c) for c in itertools.combinations(range(n), k)]
    meet = np.array([[len(a & b) for b in pts] for a in pts], dtype=np.int64)
    return [(meet == k - j).astype(np.int64) for j in range(k + 1)]


def hamming_multiplicities(d: int, q: int) -> list:
    return [comb(d, k) * (q - 1) ** k for k in range(d + 1)]


def johnson_multiplicities(n: int, k: int) -> list:
    return [comb(n, j) - (comb(n, j - 1) if j else 0) for j in range(k + 1)]


def scheme_expect(order: int, mults: list) -> dict:
    """Commutative symmetric scheme: every character is linear and real."""
    return {
        "family": "scheme",
        "order": Fraction(order),
        "chars": sorted((1, Fraction(m), 1) for m in mults),
        "s": len(mults),
        "overall_pass": True,
    }


def relabel_relations(mats: list, rng: random.Random) -> list:
    """The same scheme with its points and its non-identity relations renumbered."""
    v = len(mats[0])
    pts = list(range(v))
    rng.shuffle(pts)
    order = list(range(1, len(mats)))
    rng.shuffle(order)
    return [mats[i][np.ix_(pts, pts)] for i in [0] + order]


def scheme_text(mats: list) -> str:
    v = len(mats[0])
    lines = [f"points {v} classes {len(mats)}"]
    for m in mats:
        lines += [" ".join(map(str, row)) for row in m.tolist()]
        lines.append("")
    return "\n".join(lines)


def intersection_numbers(mats: list) -> np.ndarray:
    """lam[i,j,k] = p^k_ij, read at one pair (x, y) in relation k."""
    r = len(mats)
    lam = np.zeros((r, r, r), dtype=np.int64)
    for k in range(r):
        x, y = np.argwhere(mats[k])[0]
        for i in range(r):
            for j in range(r):
                lam[i, j, k] = int((mats[i][x] * mats[j][:, y]).sum())
    return lam


def tensor_product(lam1, lam2):
    r1, r2 = len(lam1), len(lam2)
    return np.einsum("ace,bdf->abcdef", lam1, lam2).reshape(r1 * r2, r1 * r2, r1 * r2)


# ---------------------------------------------------------------------------
# .rba text
# ---------------------------------------------------------------------------

def rba_text(lam, star, fmt=str) -> str:
    r = len(lam)
    lines = [f"rank {r}", "star " + " ".join(str(int(s)) for s in star)]
    for i, j, k in zip(*np.nonzero(lam)):
        lines.append(f"lambda {i} {j} {k} {fmt(lam[i, j, k])}")
    return "\n".join(lines) + "\n"


def parse_rba(text: str):
    """Minimal reader for the bundled .rba fixture (decimal entries only)."""
    lam = star = None
    for raw in text.splitlines():
        f = raw.split("#", 1)[0].split()
        if not f:
            continue
        if f[0] == "rank":
            r = int(f[1])
            lam = np.zeros((r, r, r))
        elif f[0] == "star":
            star = np.array([int(t) for t in f[1:]])
        elif f[0] == "lambda":
            lam[int(f[1]), int(f[2]), int(f[3])] = float(f[4])
    return lam, star


def relabelling(r: int, rng: random.Random) -> np.ndarray:
    """A random renumbering of 0..r-1 that keeps 0 (the identity) in place."""
    rest = list(range(1, r))
    rng.shuffle(rest)
    return np.array([0] + rest)


def relabel_tensor(lam, star, perm):
    """The same algebra with basis element i renamed perm[i]."""
    out = np.zeros_like(lam)
    out[np.ix_(perm, perm, perm)] = lam
    new_star = np.empty_like(star)
    new_star[perm] = perm[star]
    return out, new_star


# ---------------------------------------------------------------------------
# the three workloads
# ---------------------------------------------------------------------------

@dataclass
class Algebra:
    """One algebra of a workload: ``build(rng, n)`` returns (kind, text, expect)
    for a fresh relabelling; ``n`` numbers the inputs of a pass."""

    name: str
    copies: int
    build: object


@dataclass
class Workload:
    name: str
    force_float: bool         # analyse with force_float=True (the CLI's --float)
    algebras: list
    min_inputs: int = 100     # per run; so that p90 has at least 10 samples beyond it

    def pass_inputs(self, seed: int, index: int) -> list:
        """The inputs of pass ``index`` for ``seed``: the same seed and index give
        the same inputs."""
        rng = random.Random(f"{self.name}:{seed}:{index}")
        out = []
        for alg in self.algebras:
            for _ in range(alg.copies):
                kind, text, expect = alg.build(rng, len(out))
                out.append(BenchInput(f"{alg.name}#{len(out)}", kind, text, expect))
        return out

    @staticmethod
    def one_each(inputs: list) -> list:
        """The first input of each algebra."""
        return _first_of_each(inputs, lambda x: x.id.split("#")[0])

    def warmup_inputs(self, seed: int) -> list:
        """The smallest input of each kind of algebra: the untimed warm-up."""
        inputs = sorted(self.pass_inputs(seed, -1), key=lambda x: len(x.text))
        return _first_of_each(inputs, lambda x: (x.kind, x.expect["family"]))


def _first_of_each(inputs: list, key) -> list:
    seen, out = set(), []
    for x in inputs:
        if key(x) not in seen:
            seen.add(key(x))
            out.append(x)
    return out


def _group_algebra(group: Group, copies: int, as_rba: bool) -> Algebra:
    table = group.table()
    expect = group_expect(group, table)

    def build(rng, n):
        relabelled = relabel_table(table, rng)
        if as_rba:
            return "rba", rba_text(*group_tensor(relabelled)), expect
        return "cayley", cayley_text(relabelled), expect

    return Algebra(f"{group.name}:r{len(table)}", copies, build)


def _scheme_algebra(name: str, mats: list, mults: list, copies: int) -> Algebra:
    expect = scheme_expect(len(mats[0]), mults)

    def build(rng, n):
        return "scheme", scheme_text(relabel_relations(mats, rng)), expect

    return Algebra(f"{name}:r{len(mats)}", copies, build)


def _scheme_product(name, first, second, copies: int) -> Algebra:
    """Tensor product of two schemes' adjacency algebras, as exact .rba text."""
    (mats1, mults1), (mats2, mults2) = first, second
    lam = tensor_product(intersection_numbers(mats1), intersection_numbers(mats2))
    expect = scheme_expect(len(mats1[0]) * len(mats2[0]),
                           [a * b for a in mults1 for b in mults2])

    def build(rng, n):
        perm = relabelling(len(lam), rng)
        return "rba", rba_text(*relabel_tensor(lam, np.arange(len(lam)), perm)), expect

    return Algebra(f"{name}:r{len(lam)}", copies, build)


def exact_ladder() -> Workload:
    """Each algebra once: 14 groups of rank 6-12 and 31 schemes on 4-256 points.

    The costs form a continuum from milliseconds to seconds. There are 45
    algebras, so with k passes the median falls on the middle sample of the
    23rd cheapest algebra and p90 inside the 41st, for every k. With a
    multiple of 10, both would fall on the edge between two algebras, where
    one slow sample moves them by up to a third. C11 sits between D6 and
    the four algebras of about half a second (C10, D5, H(5,3), H(4,4)), so
    that p90 falls mid-way through their samples, not at the lowest.
    """
    c2 = cyclic(2)
    groups = [cyclic(6), dihedral(3), cyclic(7), cyclic(8), dihedral(4), dicyclic(2),
              product(c2, product(c2, c2)), product(c2, cyclic(4)), cyclic(9),
              product(cyclic(3), cyclic(3)), cyclic(10), dihedral(5), cyclic(11), dihedral(6)]
    algebras = [_group_algebra(g, 1, False) for g in groups]
    for d, q in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6),
                 (4, 2), (4, 3), (4, 4), (5, 2), (6, 2), (7, 2), (5, 3)):
        algebras.append(_scheme_algebra(f"H({d},{q})", hamming_relations(d, q),
                                        hamming_multiplicities(d, q), 1))
    for n, k in ((5, 2), (6, 2), (6, 3), (7, 2), (7, 3), (8, 2), (8, 3), (8, 4), (9, 2),
                 (9, 3), (9, 4), (10, 2), (10, 3), (10, 4), (11, 2), (11, 3)):
        algebras.append(_scheme_algebra(f"J({n},{k})", johnson_relations(n, k),
                                        johnson_multiplicities(n, k), 1))
    return Workload("exact_ladder", False, algebras)


def float_ladder() -> Workload:
    """Six rank-48 groups per pass put p90 (the tail, with two passes) inside
    a block of near-identical rank-48 analyses; the cheap rank-24 groups
    appear five times each, so their labelling-dependent failures average
    out in ok_frac."""
    c2 = cyclic(2)
    r24 = [cyclic(24), dihedral(12), symmetric4(), dicyclic(6), product(c2, alternating4()),
           product(c2, cyclic(12)), product(cyclic(3), dicyclic(2))]
    r32 = [cyclic(32), dihedral(16), dicyclic(8), product(c2, dihedral(8)),
           product(cyclic(4), cyclic(8))]
    r48 = [cyclic(48), dihedral(24), product(c2, symmetric4()), dicyclic(12),
           product(c2, dihedral(12)), product(cyclic(4), cyclic(12))]
    algebras = [_group_algebra(g, 5, True) for g in r24]
    algebras += [_group_algebra(g, 1, True) for g in r32 + r48 + [cyclic(64)]]
    ham = {(d, q): (hamming_relations(d, q), hamming_multiplicities(d, q))
           for d, q in ((3, 2), (5, 2), (4, 3), (5, 3))}
    j84 = (johnson_relations(8, 4), johnson_multiplicities(8, 4))
    algebras += [
        _scheme_product("H(3,2)xH(5,2)", ham[3, 2], ham[5, 2], 1),
        _scheme_product("J(8,4)xH(4,3)", j84, ham[4, 3], 1),
        _scheme_product("H(5,3)xH(5,2)", ham[5, 3], ham[5, 2], 1),
    ]
    # Which labellings rbakit refuses varies (C3xQ8 about half, D12 and Dic24
    # one in six); over the 100 analyses of two passes ok_frac spread by 0.10
    # of its median across seeds, so a run makes three passes.
    return Workload("float_ladder", True, algebras, min_inputs=150)


# The rank-7 witness: degrees in the fixture's (standard) basis, and its
# frozen character data (PAPER.md).
RANK7_DELTA = (1, 2, 2, 2, 2, 2, 2)
RANK7_EXPECT = {
    "family": "rank7",
    "order": Fraction(13),
    "chars": sorted([(1, Fraction(1), 1), (1, Fraction(52, 45), 1),
                     (1, Fraction(4, 9), 1), (2, Fraction(26, 5), -1)]),
    "s": 1,
    "overall_pass": False,     # correct verdict: the tensor is not integral
    "two_adic": "obstructed-non-integral",
}

INVALID_EXPECT = {"family": "invalid", "failing_check": "associativity", "overall_pass": False}

SCREEN_SIZE = 1200      # per pass; every fourth input is perturbed, so a quarter are invalid


def _decimal(v) -> str:
    return repr(float(v))


def rescale(lam, t):
    """b_i -> t_i b_i: lam[i,j,k] t_i t_j / t_k. With t_i = t_{i*} the result is
    again an RBA (same axioms, same character data, new degrees t_i delta_i)."""
    t = np.asarray(t, dtype=float)
    return lam * t[:, None, None] * t[None, :, None] / t[None, None, :]


def break_associativity(lam, star, rng: random.Random):
    """Add the same amount to lam[i,j,k] and lam[j*,i*,k*] with i, j, k != 0.

    The identity, the anti-automorphism and the pseudo-inverse condition
    (which reads only k = 0) still hold, so associativity is the one axiom
    that fails.
    """
    r = len(lam)
    out = lam.copy()
    i, j, k = (rng.randrange(1, r) for _ in range(3))
    bump = 0.25 * max(1.0, float(abs(lam).max()))
    out[i, j, k] += bump
    if (star[j], star[i], star[k]) != (i, j, k):
        out[star[j], star[i], star[k]] += bump
    return out


def _screen_algebra(name, lam, star, delta, expect) -> Algebra:
    delta = np.asarray(delta, dtype=float)

    def build(rng, n):
        base, want = lam, expect
        if n % 4 == 3:
            # which inputs are perturbed, and where, does not depend on the seed
            base, want = break_associativity(lam, star, random.Random(n)), INVALID_EXPECT
        perm = relabelling(len(lam), rng)
        relabelled, new_star = relabel_tensor(base, star, perm)
        new_delta = np.empty_like(delta)
        new_delta[perm] = delta
        t = np.ones(len(lam))
        for i in range(1, len(lam)):
            if i <= new_star[i]:
                t[i] = t[new_star[i]] = rng.uniform(0.5, 2.0)
        if want is expect:
            want = dict(expect, input_order=float(t @ new_delta))
        return "rba", rba_text(rescale(relabelled, t), new_star, _decimal), want

    return Algebra(name, SCREEN_SIZE // 3, build)


def rank7_screen(root: Path) -> Workload:
    fixture = root / "src" / "rbakit" / "fixtures" / "rank7_h.rba"
    lam7, star7 = parse_rba(fixture.read_text(encoding="utf-8"))
    algebras = []
    for name, group in (("s3", dihedral(3)), ("d8", dihedral(4))):
        table = group.table()
        lam, star = group_tensor(table)
        algebras.append(_screen_algebra(name, lam.astype(float), star, np.ones(len(lam)),
                                        group_expect(group, table)))
    algebras.append(_screen_algebra("rank7_h", lam7, star7, RANK7_DELTA, RANK7_EXPECT))
    return Workload("rank7_screen", False, algebras)


def make(workload: str, root: Path) -> Workload:
    if workload == "exact_ladder":
        return exact_ladder()
    if workload == "float_ladder":
        return float_ladder()
    if workload == "rank7_screen":
        return rank7_screen(root)
    raise ValueError(f"unknown workload {workload!r}")
