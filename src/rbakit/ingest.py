"""Building RBAs from group Cayley tables and association-scheme relations.

Cayley file: line 1 "order m", then m rows of m whitespace-separated
0-based element indices; element 0 is the identity.

Scheme file: line 1 "points v classes r", then r blocks of v rows of 0/1
(blank lines between blocks allowed, "#" comments everywhere).
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import RBA, StructuralError

__all__ = [
    "parse_cayley",
    "from_group",
    "parse_scheme",
    "from_scheme",
    "thin_scheme",
]


def _content_lines(text: str):
    """(line number, content) of each line that is not blank or a comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _int64_rows(rows, m: int, shape: str) -> np.ndarray:
    """m x m int64 array of (line number, content) rows, else StructuralError(shape).
    A bad token raises int()'s ValueError; a token beyond int64 is a StructuralError
    naming its line. Single digits one space apart are read from their bytes."""
    if len(rows) == m and all(len(line) == 2 * m - 1 for _, line in rows):
        chars = np.frombuffer(" ".join(line for _, line in rows).encode(), dtype=np.uint8)
        digits = chars[::2] - np.uint8(ord("0"))  # a non-digit wraps past 9
        if len(chars) == 2 * m * m - 1 and (chars[1::2] == ord(" ")).all() and (digits < 10).all():
            return digits.astype(np.int64).reshape(m, m)
    rows = [(n, line.split()) for n, line in rows]
    if len(rows) != m or any(len(tokens) != m for _, tokens in rows):
        raise StructuralError(shape)
    try:
        return np.array([tokens for _, tokens in rows], dtype=np.int64)
    except OverflowError:
        lineno = next(n for n, tokens in rows if any(not -2**63 <= int(t) < 2**63 for t in tokens))
        raise StructuralError(f"line {lineno}: entry out of range") from None


def parse_cayley(text: str) -> np.ndarray:
    lines = list(_content_lines(text))
    if not lines or not lines[0][1].startswith("order"):
        raise StructuralError("Cayley file must start with an 'order m' line")
    try:
        m = int(lines[0][1].split()[1])
    except (IndexError, ValueError) as exc:
        raise StructuralError("bad 'order' line") from exc
    table = _int64_rows(lines[1:], m, f"expected {m} rows of {m} entries")
    if table.min() < 0 or table.max() >= m:
        raise StructuralError("table entries out of range")
    return table


def from_group(table) -> RBA:
    """Group-algebra RBA of a Cayley table: lam[i,j,k] = [g_i g_j = g_k],
    star = inversion. Degrees are all 1 and the order is the group order."""
    if isinstance(table, str):
        table = parse_cayley(table)
    table = np.asarray(table, dtype=int)
    m = table.shape[0]
    if table.shape != (m, m):
        raise StructuralError("Cayley table must be square")
    full = np.arange(m)
    bad = (np.sort(table, axis=1) != full).any(axis=1)  # rows
    bad |= (np.sort(table.T, axis=1) != full).any(axis=1)  # columns
    if bad.any():
        raise StructuralError(f"not a Latin square: row/column {int(np.argmax(bad))}")
    if not (np.array_equal(table[0], full) and np.array_equal(table[:, 0], full)):
        raise StructuralError("element 0 is not a two-sided identity")
    for i in range(m):
        bad = table[table[i]] != table[i, table]  # (g_i g_j) g_k vs g_i (g_j g_k), over (j, k)
        if bad.any():
            j, k = divmod(int(np.argmax(bad)), m)
            raise StructuralError(f"not associative at triple ({i},{j},{k})")
    lam = np.zeros((m, m, m), dtype=np.int64)
    lam[full[:, None], full, table] = 1
    return RBA(lam, np.argmax(table == 0, axis=1))


def parse_scheme(text: str) -> list:
    lines = list(_content_lines(text))
    if not lines or not lines[0][1].startswith("points"):
        raise StructuralError("scheme file must start with 'points v classes r'")
    fields = lines[0][1].split()
    try:
        v, r = int(fields[1]), int(fields[3])
    except (IndexError, ValueError) as exc:
        raise StructuralError("bad scheme header") from exc
    shape = f"expected {r} blocks of {v} rows of {v} entries"
    body = lines[1:]
    if len(body) != v * r:
        raise StructuralError(shape)
    return [_int64_rows(body[b * v:(b + 1) * v], v, shape) for b in range(r)]


def from_scheme(relations) -> RBA:
    """Adjacency-algebra RBA of an association scheme, in its standard basis.

    lam[i,j,k] is the intersection number read off from R_i R_j = sum_k p R_k;
    star is the transpose permutation and the valencies are the degrees.
    The products R_i R_j run in float32 BLAS and are exact: every entry, and
    every partial sum of it, is a count of at most v < 2^24 points. Products
    with R_0 = I are not formed, and R_j* R_i* = (R_i R_j)^T is not formed again.
    """
    if isinstance(relations, str):
        relations = parse_scheme(relations)
    mats = [np.asarray(m, dtype=int) for m in relations]
    r = len(mats)
    if r == 0:
        raise StructuralError("no relation matrices")
    v = mats[0].shape[0]
    for m in mats:
        if m.shape != (v, v) or not ((m == 0) | (m == 1)).all():
            raise StructuralError("relations must be square 0/1 matrices of equal size")
    if not np.array_equal(mats[0], np.eye(v, dtype=int)):
        raise StructuralError("R_0 must be the identity relation")
    if not np.array_equal(sum(mats), np.ones((v, v), dtype=int)):
        raise StructuralError("relations must partition the point pairs (sum to all-ones)")
    star = [next((j for j in range(r) if np.array_equal(m.T, mats[j])), -1) for m in mats]
    if -1 in star:
        raise StructuralError(f"transpose of relation {star.index(-1)} is not a relation")
    color = sum(k * m for k, m in enumerate(mats)).ravel()  # the relation of each pair
    sizes = np.bincount(color, minlength=r)
    if not sizes.all():
        raise StructuralError(f"relation {int(np.argmin(sizes))} is empty")
    first = np.argmax(color == np.arange(r)[:, None], axis=1)  # one pair per relation
    lam = np.zeros((r, r, r), dtype=np.int64)
    lam[0, np.arange(r), np.arange(r)] = lam[np.arange(r), 0, np.arange(r)] = 1  # R_0 = I
    floats = [m.astype(np.float32) for m in mats]
    for i, j in itertools.product(range(1, r), repeat=2):
        if (star[j], star[i]) < (i, j):  # lam[j*,i*,k*] = lam[i,j,k], checked already
            lam[i, j] = lam[star[j], star[i]][star]
            continue
        prod = (floats[i] @ floats[j]).ravel()
        lam[i, j] = const = prod[first]
        bad = prod != const[color]
        if bad.any():
            raise StructuralError(f"not a scheme: R_{i} R_{j} is not constant on "
                                  f"R_{int(color[bad].min())}")
    return RBA(lam, star)


def thin_scheme(table) -> list:
    """Relation matrices of the regular action of a group: R_g[u, v] = [v = u g].

    from_scheme of this output reproduces from_group of the same table.
    """
    if isinstance(table, str):
        table = parse_cayley(table)
    table = np.asarray(table, dtype=int)
    eye = np.eye(table.shape[0], dtype=int)
    return [eye[col] for col in table.T]  # row u of R_g is the unit vector of u g
