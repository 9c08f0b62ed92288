"""Shared fixtures and independent oracles for the test suite."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from rbakit.core import RBA, ToleranceConfig
from rbakit.fixtures import load_fixture
from rbakit.ingest import from_group
from rbakit.integrality import build_rank7_example

TOL = ToleranceConfig()


# ---------------------------------------------------------------------------
# group tables (built here, independently of the bundled fixture files)
# ---------------------------------------------------------------------------

def s3_table():
    """S3 as permutations of {0,1,2}; order: e, r, r2, s, rs, r2s."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]

    def mul(p, q):
        return tuple(p[q[x]] for x in range(3))

    idx = {p: i for i, p in enumerate(perms)}
    return np.array([[idx[mul(perms[i], perms[j])] for j in range(6)] for i in range(6)])


def d8_table():
    """Dihedral group of order 8; order: e, r, r2, r3, s, rs, r2s, r3s."""
    elems = [("r", k) for k in range(4)] + [("s", k) for k in range(4)]

    def mul(a, b):
        (ta, ka), (tb, kb) = a, b
        if ta == "r" and tb == "r":
            return ("r", (ka + kb) % 4)
        if ta == "r" and tb == "s":
            return ("s", (ka + kb) % 4)
        if ta == "s" and tb == "r":
            return ("s", (ka - kb) % 4)
        return ("r", (ka - kb) % 4)

    idx = {e: i for i, e in enumerate(elems)}
    return np.array([[idx[mul(elems[i], elems[j])] for j in range(8)] for i in range(8)])


def s_n_table(n):
    """S_n as permutations of {0,...,n-1} in lexicographic order (identity first)."""
    perms = list(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    return np.array([[idx[tuple(p[q[x]] for x in range(n))] for q in perms] for p in perms])


def s4_table():
    return s_n_table(4)


def c_n_table(n):
    return np.array([[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral_table(n):
    """D_n of order 2n; element t*n + k is s^t r^k."""
    def mul(a, b):
        (ta, ka), (tb, kb) = divmod(a, n), divmod(b, n)
        return ((ta + tb) % 2) * n + ((-ka if tb else ka) + kb) % n

    return np.array([[mul(a, b) for b in range(2 * n)] for a in range(2 * n)])


def relations(color):
    """The 0/1 relation matrices of a colouring, one per colour."""
    arr = np.array(color)
    return [(arr == k).astype(int) for k in range(arr.max() + 1)]


def hamming(d, q):
    """The Hamming scheme H(d, q) as a colouring: the distance of each pair of words."""
    pts = list(itertools.product(range(q), repeat=d))
    return [[sum(a != b for a, b in zip(x, y)) for y in pts] for x in pts]


def johnson(n, k):
    """The Johnson scheme J(n, k) as a colouring: k less the meet of each pair of k-sets."""
    pts = [set(c) for c in itertools.combinations(range(n), k)]
    return [[k - len(a & b) for b in pts] for a in pts]


def rescale(rba, scale):
    """Rescaled basis b_i' = scale[i] * b_i (scale must respect the pairing)."""
    r = rba.rank
    lam = rba.lam.copy()
    for i, j, k in itertools.product(range(r), repeat=3):
        lam[i, j, k] = rba.lam[i, j, k] * scale[i] * scale[j] / scale[k]
    return RBA(lam, rba.star)


def s3_associativity_variant():
    """The bundled exact S3 with lam[4,5,3] += 3 and lam[4,5,4] -= 3, and the same
    on lam[5,4,*]. The identity, *, pseudo-inverse and degree-map checks hold;
    associativity alone fails (residual 9)."""
    rba = load_fixture("s3.rba")
    lam = rba.lam.copy()
    for i, j in ((4, 5), (5, 4)):
        lam[i, j, 3] += 3
        lam[i, j, 4] -= 3
    return RBA(lam, rba.star)


def overflow_rba_text(h) -> str:
    """Rank 3 with b_0 an identity: b_1 b_1 = h b_2, b_2 b_2 = h b_1 and
    b_1 b_2 = b_2 b_1 = h b_0. Associativity sets h^2 against h (and h^2
    against h^2), so for h = 1e308 or 10^300 its residual does not fit a double."""
    entries = [(0, 0, 0, 1), (0, 1, 1, 1), (0, 2, 2, 1), (1, 0, 1, 1), (2, 0, 2, 1),
               (1, 1, 2, h), (2, 2, 1, h), (1, 2, 0, h), (2, 1, 0, h)]
    return "rank 3\nstar 0 1 2\n" + "".join(f"lambda {i} {j} {k} {v}\n" for i, j, k, v in entries)


def rank5_split_rba(seed):
    """Exact rank-5 RBA Q + M_2(Q) with one nonreal pair, split by construction.

    An element is (alpha, X), X a 2x2 Fraction matrix. The involution is
    X* = S^-1 X^T S with S = diag(1, s), and the trace is
    tau = m1 alpha + m2 tr X. The basis 1, P, P*, b_3, b_4 is orthogonal for
    <u, v> = tau(u v*), so lam[i, j, k] = <b_i b_j, b_k> / <b_k, b_k>.
    P = h + k with h self-adjoint, k skew, tau(h) = 0 and <h, h> = <k, k>,
    so tau(P) = tau(P P) = 0; the choice of s makes the last condition
    rational. b_3, b_4 are self-adjoint, from Gram-Schmidt, each rescaled
    to a small positive rational degree.
    """
    rng = random.Random(seed)

    def frac(lo, hi, den):
        return Fraction(rng.randint(lo, hi), rng.randint(1, den))

    m1, m2, alpha, u = frac(1, 4, 3), frac(1, 4, 3), frac(1, 3, 2), rng.randint(1, 3)
    a = d = -m1 * alpha / m2 / 2
    while a == d:  # h = (alpha, a I) would leave every real b_3, b_4 of degree 0
        a = frac(-3, 3, 2)
        d = -m1 * alpha / m2 - a
    s = 2 * m2 * u * u / (m1 * alpha**2 + m2 * (a * a + d * d))

    def mul(x, y):
        (p, xm), (q, ym) = x, y
        return p * q, [[sum(xm[i][t] * ym[t][j] for t in range(2)) for j in range(2)]
                       for i in range(2)]

    def comb(*terms):  # sum of c * x over (c, x)
        return (sum(c * x[0] for c, x in terms),
                [[sum(c * x[1][i][j] for c, x in terms) for j in range(2)] for i in range(2)])

    def star(x):
        p, m = x
        return p, [[m[0][0], m[1][0] * s], [m[0][1] / s, m[1][1]]]

    def inner(x, y):
        p, m = mul(x, star(y))
        return m1 * p + m2 * (m[0][0] + m[1][1])

    zero = Fraction(0)
    one = (Fraction(1), [[Fraction(1), zero], [zero, Fraction(1)]])
    h = (alpha, [[a, zero], [zero, d]])
    k = (zero, [[zero, Fraction(u)], [-u / s, zero]])
    real = []
    while len(real) < 2:
        y = frac(-3, 3, 1)
        v = (frac(-3, 3, 1), [[frac(-3, 3, 1), s * y], [y, frac(-3, 3, 1)]])
        v = comb((1, v), *[(-inner(v, w) / inner(w, w), w) for w in [one, h] + real])
        real = real + [v] if v[0] else []  # a zero degree draws both again
    basis = [one, comb((1, h), (1, k)), comb((1, h), (-1, k))]
    basis += [comb((frac(1, 3, 2) / v[0], v)) for v in real]
    norms = [inner(b, b) for b in basis]
    lam = np.array([[[inner(mul(bi, bj), bk) / nk for bk, nk in zip(basis, norms)]
                     for bj in basis] for bi in basis], dtype=object)
    return RBA(lam, [0, 2, 1, 3, 4])


# classical character tables, frozen from the representation theory of the
# groups themselves (degrees, values in the element order above)
S3_CLASSICAL = {
    "degrees": [1, 1, 2],
    "multiplicities": [Fraction(1), Fraction(1), Fraction(2)],
    "rows": {
        (1, 1, 1, 1, 1, 1): Fraction(1),
        (1, 1, 1, -1, -1, -1): Fraction(1),
        (2, -1, -1, 0, 0, 0): Fraction(2),
    },
    "nu": [1, 1, 1],
    "s": 4,
}

D8_CLASSICAL = {
    "degrees": [1, 1, 1, 1, 2],
    "rows": {
        (1, 1, 1, 1, 1, 1, 1, 1): Fraction(1),
        (1, 1, 1, 1, -1, -1, -1, -1): Fraction(1),
        (1, -1, 1, -1, 1, -1, 1, -1): Fraction(1),
        (1, -1, 1, -1, -1, 1, -1, 1): Fraction(1),
        (2, 0, -2, 0, 0, 0, 0, 0): Fraction(2),
    },
    "nu": [1, 1, 1, 1, 1],
    "s": 6,
}

RANK7_TABLE = {
    "degrees": [1, 1, 1, 2],
    "delta": tuple(Fraction(v) for v in (1, 2, 2, 2, 2, 2, 2)),
    "phi": (Fraction(1), Fraction(-5, 2), Fraction(-5, 2), Fraction(0),
            Fraction(0), Fraction(2), Fraction(2)),
    "psi": (Fraction(1), Fraction(2), Fraction(2), Fraction(-9, 2),
            Fraction(-9, 2), Fraction(2), Fraction(2)),
    "chi": tuple(Fraction(v) for v in (2, 0, 0, 0, 0, -1, -1)),
    "multiplicities": [Fraction(1), Fraction(52, 45), Fraction(4, 9), Fraction(26, 5)],
    "nu": [1, 1, 1, -1],
    "s": 1,
    "n": Fraction(13),
}


@pytest.fixture(scope="session")
def tol():
    return TOL


@pytest.fixture(scope="session")
def s3_rba():
    return from_group(s3_table())


@pytest.fixture(scope="session")
def d8_rba():
    return from_group(d8_table())


@pytest.fixture(scope="session")
def c2_rba():
    return from_group(c_n_table(2))


@pytest.fixture(scope="session")
def c3_rba():
    return from_group(c_n_table(3))


@pytest.fixture(scope="session")
def rank1_rba():
    return RBA(np.full((1, 1, 1), Fraction(1), dtype=object), [0])


@pytest.fixture(scope="session")
def rank7_rba():
    return build_rank7_example()


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def cayley_check(table):
    """Direct group-axiom check of a Cayley table (identity, Latin, associativity)."""
    table = np.asarray(table)
    m = len(table)
    if not np.array_equal(table[0], np.arange(m)):
        return False
    if not np.array_equal(table[:, 0], np.arange(m)):
        return False
    for i in range(m):
        if sorted(table[i]) != list(range(m)):
            return False
    for i, j, k in itertools.product(range(m), repeat=3):
        if table[table[i, j], k] != table[i, table[j, k]]:
            return False
    return True


def squarefree_part(n: int) -> int:
    """n modulo squares (sign kept), by trial division."""
    sign = -1 if n < 0 else 1
    n = abs(n)
    out = 1
    f = 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        if e % 2:
            out *= f
        f += 1
    return sign * out * n


def padic_norm_oracle(a, b, p) -> int:
    """Brute-force local solvability of z^2 = a x^2 + b y^2.

    Reduces a, b modulo squares, then searches primitive solutions modulo
    p^3 (odd p) or 2^6; Hensel's lemma lifts any such solution (every
    primitive solution has x or y a unit, whose gradient coordinate has
    small enough valuation). Returns +1 / -1 like a Hilbert symbol.
    """
    a = Fraction(a)
    b = Fraction(b)
    if p == "inf":
        return -1 if (a < 0 and b < 0) else 1
    aa = squarefree_part(a.numerator * a.denominator)
    bb = squarefree_part(b.numerator * b.denominator)
    modulus = 2**6 if p == 2 else p**3
    xs = np.arange(modulus, dtype=np.int64)
    squares = np.unique((xs * xs) % modulus)
    is_square = np.zeros(modulus, dtype=bool)
    is_square[squares] = True
    ax2 = (aa * xs * xs) % modulus
    by2 = (bb * xs * xs) % modulus
    unit = (xs % p) != 0
    # x or y must be a unit in any primitive solution
    w1 = (ax2[unit][:, None] + by2[None, :]) % modulus
    if is_square[w1].any():
        return 1
    w2 = (ax2[~unit][:, None] + by2[None, unit]) % modulus
    if is_square[w2].any():
        return 1
    return -1


def two_dim_s3_star_rep():
    """Orthogonal 2-dim irreducible *-representation of S3: the permutation
    action on the plane x+y+z = 0 in an orthonormal basis."""
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    basis = np.array([[1.0, -1.0, 0.0], [1.0, 1.0, -2.0]]).T
    basis /= np.linalg.norm(basis, axis=0)
    mats = []
    for p in perms:
        perm_mat = np.zeros((3, 3))
        for x in range(3):
            perm_mat[p[x], x] = 1.0
        mats.append(basis.T @ perm_mat @ basis)
    return np.array(mats)
