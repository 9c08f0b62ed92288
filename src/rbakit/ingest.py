"""Building RBAs from group Cayley tables and association-scheme relations.

Cayley file: line 1 "order m", then m rows of m whitespace-separated
0-based element indices; element 0 is the identity.

Scheme file: line 1 "points v classes r", then r blocks of v rows of 0/1
(blank lines between blocks allowed, "#" comments everywhere).
"""

from __future__ import annotations

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


def _digit_rows(data: bytes, start: int, blocks: int, m: int):
    """(blocks, m, m) uint8 array of the ASCII in data from `start` when it is
    `blocks` blocks of m lines of m single digits one space apart, every line
    ending in a newline, with blank lines only before, between and after the
    blocks; None for anything else. Each block is read from its bytes at once."""
    if len(data) - start < blocks * 2 * m * m:
        return None
    pairs = np.full(m, ord("0") + 256 * ord(" "), dtype=np.uint16)  # a digit and its separator
    pairs[-1] = ord("0") + 256 * ord("\n")
    digits = np.empty((blocks, m, m), dtype=np.uint16)
    for b in range(blocks):
        while start < len(data) and data[start] == ord("\n"):
            start += 1
        if len(data) - start < 2 * m * m:
            return None
        block = np.frombuffer(data, dtype="<u2", count=m * m, offset=start).reshape(m, m)
        np.subtract(block, pairs, out=digits[b])  # a non-digit or a wrong separator wraps past 9
        start += 2 * m * m
    if data.count(b"\n", start) != len(data) - start or digits.max() > 9:
        return None
    return digits.astype(np.uint8)


def _int64_rows(rows, m: int, shape: str) -> np.ndarray:
    """m x m int64 array of (line number, content) rows, else StructuralError(shape).
    A bad token raises int()'s ValueError; a token beyond int64 is a StructuralError
    naming its line."""
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
    if m < 1:
        raise StructuralError("bad 'order' line")
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


def parse_scheme(text: str) -> np.ndarray:
    """(r, v, v) int64 stack of the relation matrices of scheme text."""
    return _scheme_stack(text).astype(np.int64, copy=False)


def _scheme_stack(text: str) -> np.ndarray:
    """parse_scheme's stack; uint8 when, under a header on line 1, the blocks are
    single digits one space apart with blank lines only between them, each read
    from its bytes at once. Other text goes line by line, to the same values or
    the same error."""
    head = text[:text.find("\n")] if "\n" in text else text  # partition() would copy the body
    fast = head.startswith("points") and len(head.splitlines()) == 1
    lines = [(1, head.split("#", 1)[0])] if fast else list(_content_lines(text))
    if not lines or not lines[0][1].startswith("points"):
        raise StructuralError("scheme file must start with 'points v classes r'")
    fields = lines[0][1].split()
    try:
        v, r = int(fields[1]), int(fields[3])
    except (IndexError, ValueError) as exc:
        raise StructuralError("bad scheme header") from exc
    if v < 1 or r < 1:
        raise StructuralError("bad scheme header")
    data = (text if text.endswith("\n") else text + "\n").encode() if fast else b""
    digits = _digit_rows(data, data.find(b"\n") + 1, r, v)
    if digits is not None:
        return digits
    shape = f"expected {r} blocks of {v} rows of {v} entries"
    body = list(_content_lines(text))[1:]
    if len(body) != v * r:
        raise StructuralError(shape)
    return np.array([_int64_rows(body[b * v:(b + 1) * v], v, shape) for b in range(r)])


def from_scheme(relations) -> RBA:
    """Adjacency-algebra RBA of an association scheme, in its standard basis.

    lam[i,j,k] is the intersection number read off from R_i R_j = sum_k p R_k;
    star is the transpose permutation and the valencies are the degrees. The
    axioms are checked on the colour matrix color = sum_k k R_k of the uint8
    stack. The span V of the R_k holds I, so V is an algebra once R_g V lies in
    V for a set of generators g whose words span V: relations are tried by
    smallest valency, valency-1 ones last, and the next outside the span so far
    becomes one. Its r - 1 products run as one float32 BLAS product: every
    count (R_g R_j)[x, y] is below B = 1 + the largest row sum of R_g, so
    R_g W, with W[z, y] = B^(colour(z, y) - j0) on the colours of a group
    [j0, j0 + w) and 0 elsewhere, holds the group's counts as base-B digits.
    With B^w <= 2^24 every partial sum is an integer below 2^24, exact in
    float32 in any order; a product is constant on R_k when its packed values
    are, and digits are read at one pair of each R_k (and where that fails).
    The span grows by u -> u lam[g] mod p = 2^31 - 1 until its rank is r, which
    gives rank r over Q (rank mod p is at most rank over Q) in any generator
    order. An entry of u lam[g] is below p times the valency of R_g, so int64
    holds it while v < 2^32 (past that the step needs Python ints); an
    elimination step stays below p^2 < 2^62. Then each lam[i,j,k] is read at
    one pair of R_k.
    """
    if isinstance(relations, str):
        relations = _scheme_stack(relations)
    elif not isinstance(relations, np.ndarray):
        relations = list(relations)
    if len(relations) == 0:
        raise StructuralError("no relation matrices")
    rel = np.asarray(relations) if len({np.shape(m) for m in relations}) == 1 else np.zeros(0)
    if rel.ndim != 3 or not rel.shape[1] == rel.shape[2] > 0 or not (
            rel.max() <= 1 if rel.dtype in (np.uint8, np.bool_) else ((rel == 0) | (rel == 1)).all()):
        raise StructuralError("relations must be square 0/1 matrices of equal size")
    rel = rel.astype(np.uint8, copy=False)
    r, v = rel.shape[:2]
    flat = rel.reshape(r, v * v)
    if flat[0].sum() != v or not flat[0, ::v + 1].all():
        raise StructuralError("R_0 must be the identity relation")
    small = np.min_scalar_type(r)  # holds every count and colour
    if (flat.sum(axis=0, dtype=small) != 1).any():
        raise StructuralError("relations must partition the point pairs (sum to all-ones)")
    color = np.einsum("k,kz->z", np.arange(r, dtype=small), flat).astype(np.intp).reshape(v, v)
    x, y = np.divmod(np.argmax(flat, axis=1), v)  # one pair (x, y) of each relation
    star = color[y, x]
    if (np.take(star, color) != color.T).any():
        k = next(k for k in range(r) if not (rel == rel[k].T).all(axis=(1, 2)).any())
        raise StructuralError(f"transpose of relation {k} is not a relation")
    empty = color[x, y] != np.arange(r)
    if empty.any():
        raise StructuralError(f"relation {int(np.argmax(empty))} is empty")
    valency = rel[:, 0].sum(axis=1)  # of a scheme; the row of point 0 in any case
    order = sorted(range(1, r), key=lambda k: (valency[k] == 1, valency[k], k))
    p, unit = 2**31 - 1, np.eye(r, dtype=np.int64)
    span, gens, todo = [(0, unit[0])], [], []  # echelon rows (pivot, u) mod p; u to add

    def reduce(u):  # u minus its part in the span, mod p
        for c, b in span:
            if u[c]:
                u = (u - u[c] * b) % p
        return u

    while len(span) < r:
        i = next(i for i in order if reduce(unit[i]).any())  # the next generator
        base, w = int(rel[i].sum(axis=1).max()) + 1, 1
        while base ** (w + 1) <= 2**24:
            w += 1
        groups, j = -(-(r - 1) // w), np.arange(r - 1)  # colour 1 + j is digit j % w of group j // w
        weight = np.zeros((groups, r), dtype=np.float32)
        weight[j // w, 1 + j] = base ** (j % w)
        stack = np.take(weight, color, axis=1).transpose(1, 0, 2).reshape(v, groups * v)
        packed = (rel[i].astype(np.float32) @ stack).reshape(v, groups, v).transpose(1, 0, 2)
        const = packed[:, x, y]  # (group, k)
        bad = packed != np.take(const, color, axis=1)
        if bad.any():  # the first failing j, then the smallest colour where its digit fails
            g = int(np.argmax(bad.any(axis=(1, 2))))
            at = bad[g]
            got, want = (a.astype(np.int64)[:, None] // base ** np.arange(w) % base
                         for a in (packed[g][at], const[g][color[at]]))
            d = int(np.argmax((got != want).any(axis=0)))
            raise StructuralError(f"not a scheme: R_{i} R_{1 + g * w + d} is not constant on "
                                  f"R_{int(color[at][got[:, d] != want[:, d]].min())}")
        gen = unit[[i] * r]  # row j is lam[i, j]; R_i R_0 = R_i
        digits = const.astype(np.int64)[:, None] // (base ** np.arange(w))[:, None] % base
        gen[1:] = digits.reshape(groups * w, r)[:r - 1]
        gens.append(gen)
        todo += [b @ gen % p for _, b in span]
        while todo and len(span) < r:  # the Krylov closure of I under the generators
            u = reduce(todo.pop())
            if u.any():
                c = int(np.argmax(u != 0))
                span.append((c, u * pow(int(u[c]), -1, p) % p))
                todo += [span[-1][1] @ g % p for g in gens]
    idx = (color[x] * r + color[:, y].T) * r + np.arange(r)[:, None]  # (i, j, k) at each z
    return RBA(np.bincount(idx.ravel(), minlength=r**3).reshape(r, r, r), star)


def thin_scheme(table) -> list:
    """Relation matrices of the regular action of a group: R_g[u, v] = [v = u g].

    from_scheme of this output reproduces from_group of the same table.
    """
    if isinstance(table, str):
        table = parse_cayley(table)
    table = np.asarray(table, dtype=int)
    eye = np.eye(table.shape[0], dtype=int)
    return [eye[col] for col in table.T]  # row u of R_g is the unit vector of u g
