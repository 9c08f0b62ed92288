"""Cayley-table and association-scheme ingestion."""

import itertools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbakit import ingest
from rbakit.cli import main
from rbakit.core import StructuralError, degree_map, validate
from rbakit.fixtures import fixture_text
from rbakit.ingest import from_group, from_scheme, parse_cayley, parse_scheme, thin_scheme

from conftest import TOL, c_n_table, cayley_check, d8_table, hamming, johnson, relations, s3_table, s4_table


# a Latin square with identity that is not associative (order-5 loop)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_from_group_c2():
    rba = from_group(c_n_table(2))
    assert rba.rank == 2
    assert rba.nonreal_pairs() == []
    assert validate(rba, TOL).passed
    dm = degree_map(rba, TOL)
    assert dm.n == 2


def test_from_group_s3(s3_rba):
    assert cayley_check(s3_table())  # oracle: group axioms hold
    assert validate(s3_rba, TOL).passed
    dm = degree_map(s3_rba, TOL)
    assert list(dm.values_float) == [1.0] * 6
    assert dm.n == 6
    assert s3_rba.nonreal_pairs() == [(1, 2)]


def test_from_group_d8(d8_rba):
    assert cayley_check(d8_table())
    assert d8_rba.rank == 8
    assert d8_rba.nonreal_pairs() == [(1, 3)]
    assert validate(d8_rba, TOL).passed


def test_from_group_rejects_non_latin():
    bad = [[0, 1], [1, 1]]
    with pytest.raises(StructuralError, match="Latin"):
        from_group(np.array(bad))


def test_from_group_names_first_failing_column():
    # every row is a permutation; column 0 is too, column 1 = (1, 2, 1) is not
    bad = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(StructuralError, match=r"not a Latin square: row/column 1$"):
        from_group(np.array(bad))


def test_from_group_rejects_bad_identity():
    bad = [[1, 0], [0, 1]]
    with pytest.raises(StructuralError, match="identity"):
        from_group(np.array(bad))


def test_from_group_rejects_non_associative():
    assert not cayley_check(NONASSOC_LOOP)
    with pytest.raises(StructuralError, match=r"associative at triple \(1,1,2\)"):
        from_group(np.array(NONASSOC_LOOP))


def test_parse_cayley_round_trip():
    text = "# comment\norder 2\n0 1\n1 0\n"
    assert np.array_equal(parse_cayley(text), [[0, 1], [1, 0]])
    with pytest.raises(StructuralError):
        parse_cayley("order 2\n0 1\n")      # missing row
    with pytest.raises(StructuralError):
        parse_cayley("0 1\n1 0\n")          # missing header


# ---------------------------------------------------------------------------
# schemes
# ---------------------------------------------------------------------------

def test_from_scheme_k2():
    r0 = np.eye(2, dtype=int)
    r1 = np.array([[0, 1], [1, 0]])
    rba = from_scheme([r0, r1])
    assert rba.rank == 2
    assert rba.lam[1, 1, 0] == 1
    assert validate(rba, TOL).passed
    dm = degree_map(rba, TOL)
    assert dm.n == 2


def test_thin_scheme_equals_group(s3_rba):
    scheme = from_scheme(thin_scheme(s3_table()))
    assert np.array_equal(scheme.lam, s3_rba.lam)
    assert np.array_equal(scheme.star, s3_rba.star)


def test_thin_scheme_d8(d8_rba):
    scheme = from_scheme(thin_scheme(d8_table()))
    assert np.array_equal(scheme.lam, d8_rba.lam)
    assert np.array_equal(scheme.star, d8_rba.star)


def test_from_scheme_valencies_are_degrees():
    # Johnson-style example: the cycle on 4 points with 3 classes
    pts = 4
    r0 = np.eye(pts, dtype=int)
    r1 = np.zeros((pts, pts), dtype=int)  # adjacent on the 4-cycle
    for a in range(pts):
        r1[a, (a + 1) % pts] = r1[a, (a - 1) % pts] = 1
    r2 = 1 - r0 - r1                       # antipodal
    rba = from_scheme([r0, r1, r2])
    assert validate(rba, TOL).passed
    dm = degree_map(rba, TOL)
    assert list(dm.values_float) == [1.0, 2.0, 1.0]
    # standard basis: lam[i,i*,0] equals the valency
    for i in range(3):
        assert rba.lam[i, rba.star[i], 0] == dm.values[i]


def test_from_scheme_rejects_non_scheme():
    # the path on 4 points does not close under multiplication in the span
    p4 = np.zeros((4, 4), dtype=int)
    for a, b in [(0, 1), (1, 2), (2, 3)]:
        p4[a, b] = p4[b, a] = 1
    r0 = np.eye(4, dtype=int)
    r2 = 1 - r0 - p4
    with pytest.raises(StructuralError, match="not a scheme"):
        from_scheme([r0, p4, r2])


def test_from_scheme_rejects_bad_partition():
    r0 = np.eye(2, dtype=int)
    with pytest.raises(StructuralError, match="partition"):
        from_scheme([r0, r0])


def test_from_scheme_rejects_missing_transpose():
    # directed relations whose transposes are not in the set
    r0 = np.eye(3, dtype=int)
    cyc = np.zeros((3, 3), dtype=int)
    for a in range(3):
        cyc[a, (a + 1) % 3] = 1
    mixed = np.zeros((3, 3), dtype=int)   # one forward edge + two backward
    mixed[0, 2] = mixed[2, 1] = mixed[1, 0] = 0
    # build a partition: r0, cyc, cyc^T works; corrupt it by merging unequal parts
    bad1 = cyc.copy()
    bad1[0, 2] = 1
    bad2 = 1 - r0 - bad1
    with pytest.raises(StructuralError):
        from_scheme([r0, bad1, bad2])


def test_parse_scheme():
    text = (
        "points 2 classes 2\n"
        "1 0\n0 1\n"
        "0 1\n1 0\n"
    )
    mats = parse_scheme(text)
    assert len(mats) == 2
    assert np.array_equal(mats[0], np.eye(2, dtype=int))
    with pytest.raises(StructuralError):
        parse_scheme("points 2 classes 2\n1 0\n0 1\n")  # missing block


def test_parse_rows_of_digits_match_tokens():
    # single digits one space apart are read from their bytes; any other
    # spacing or token is split into tokens, with the same result
    r1 = "0 1 1\n1 0 1\n1 1 0\n"
    mats = parse_scheme("points 3 classes 2\n1 0 0\n0 1 0\n0 0 1\n" + r1)
    spaced = parse_scheme("points 3 classes 2\n1\t0 0\n0  1 0\n00 0 01\n" + r1)
    assert all(np.array_equal(a, b) and a.dtype == b.dtype == np.int64 for a, b in zip(mats, spaced))
    assert np.array_equal(parse_cayley("order 3\n0 1 2\n1 2 0\n2 0 1\n"),
                          parse_cayley("order 3\n0 1 2\n1 2 0\n2 00 1\n"))
    with pytest.raises(StructuralError, match="expected 2 blocks of 3 rows of 3 entries"):
        parse_scheme("points 3 classes 2\n1 0 0\n10  0\n0 0 1\n" + r1)  # 5 characters, 2 tokens
    with pytest.raises(ValueError, match="'-'"):
        parse_cayley("order 2\n0 1\n1 -\n")


# ---------------------------------------------------------------------------
# intersection numbers against a pure-Python oracle
# ---------------------------------------------------------------------------

def _oracle(color):
    """p_ij^k = #{z : (x,z) in R_i, (z,y) in R_j}, counted at the first pair
    (x, y) in R_k, from the relation index of each pair (a list of lists)."""
    v = len(color)
    r = 1 + max(map(max, color))
    p = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k in range(r):
        x, y = next((x, y) for x in range(v) for y in range(v) if color[x][y] == k)
        for z in range(v):
            p[color[x][z]][color[z][y]][k] += 1
    return p


def _relabelled(color, rng):
    """The same colouring with its points and non-identity relations renumbered."""
    v, r = len(color), 1 + max(map(max, color))
    pts = rng.sample(range(v), v)
    rel = [0] + rng.sample(range(1, r), r - 1)
    return [[rel[color[pts[x]][pts[y]]] for y in range(v)] for x in range(v)]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: _relabelled(hamming(3, 3), random.Random(3)), id="H(3,3)-relabelled"),
    pytest.param(lambda: johnson(6, 3), id="J(6,3)"),
    pytest.param(lambda: hamming(4, 4), id="H(4,4)"),
])
def test_from_scheme_matches_oracle(build):
    start = time.process_time()
    color = build()
    rba = from_scheme(relations(color))
    assert rba.lam.tolist() == _oracle(color)
    assert list(rba.star) == list(range(rba.rank))  # symmetric schemes
    assert time.process_time() - start <= 1.0


def test_from_scheme_names_first_failing_relation():
    # C6: R_1 R_1 is 2 on R_0 and 0 on R_1, but 1 or 0 on the non-edges R_2
    r0 = np.eye(6, dtype=int)
    r1 = np.zeros((6, 6), dtype=int)
    for a in range(6):
        r1[a, (a + 1) % 6] = r1[(a + 1) % 6, a] = 1
    with pytest.raises(StructuralError, match=r"not a scheme: R_1 R_1 is not constant on R_2$"):
        from_scheme([r0, r1, 1 - r0 - r1])


def test_from_scheme_rejects_empty_relation():
    r0 = np.eye(2, dtype=int)
    r1 = 1 - r0
    empty = np.zeros((2, 2), dtype=int)
    with pytest.raises(StructuralError, match=r"relation 1 is empty"):
        from_scheme([r0, empty, r1, empty])


@pytest.mark.parametrize("m", [0, -3])
def test_parse_cayley_refuses_a_non_positive_order(m):
    with pytest.raises(StructuralError, match="^bad 'order' line$"):
        parse_cayley(f"order {m}\n")


@pytest.mark.parametrize("command,text,message", [
    ("from-group", "order 0\n", "bad 'order' line"),
    ("from-scheme", "points -1 classes 2\n1 0\n", "bad scheme header"),
], ids=["from-group", "from-scheme"])
def test_cli_refuses_non_positive_header_sizes(command, text, message, tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_from_scheme_bad_token(tmp_path, capsys):
    path = tmp_path / "bad.scheme"
    path.write_text("points 2 classes 2\n1 0\n0 1\n0 1\n1 x\n")
    assert main(["from-scheme", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid literal for int() with base 10: 'x'" in captured.err


@pytest.mark.parametrize("command,text,lineno", [
    ("from-group", "order 2\n0 1\n1 99999999999999999999\n", 3),
    ("from-scheme", "points 2 classes 2\n1 0\n0 1\n# R_1\n0 1\n-99999999999999999999 0\n", 6),
], ids=["from-group", "from-scheme"])
def test_cli_token_beyond_int64_names_its_line(command, text, lineno, tmp_path, capsys):
    path = tmp_path / "big.txt"
    path.write_text(text)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: line {lineno}: entry out of range\n"


# ---------------------------------------------------------------------------
# closure from generators: inputs that need more than R_1, and non-schemes
# ---------------------------------------------------------------------------

def _q8_table():
    """Q8 as the unit quaternions +-1, +-i, +-j, +-k (identity first)."""
    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    units = [tuple(s * (k == i) for k in range(4)) for i in range(4) for s in (1, -1)]
    idx = {u: n for n, u in enumerate(units)}
    return np.array([[idx[mul(p, q)] for q in units] for p in units])


def test_from_scheme_needs_a_second_generator():
    # H(4,2) with distance 2 as R_1: R_1 spans only the even distances (the
    # halved cube), so closure takes a second generator
    dist = hamming(4, 2)
    rel = [0, 2, 1, 3, 4]  # distance d becomes relation rel[d]
    color = [[rel[d] for d in row] for row in dist]
    oracle = _oracle(color)
    even = [0, 1, 4]
    assert all(oracle[1][j][k] == 0 for j in even for k in range(5) if k not in even)
    rba = from_scheme(relations(color))
    assert rba.lam.tolist() == oracle


@pytest.mark.parametrize("table", [_q8_table, s4_table], ids=["Q8", "S4"])
def test_thin_scheme_matches_group(table):
    assert cayley_check(table())
    scheme, group = from_scheme(thin_scheme(table())), from_group(table())
    assert np.array_equal(scheme.lam_int[1], group.lam_int[1])
    assert np.array_equal(scheme.star, group.star)


SCHEMES = {
    "H(3,2)": lambda: hamming(3, 2),
    "J(5,2)": lambda: johnson(5, 2),
    "S3": lambda: np.argsort(s3_table(), axis=1).tolist(),  # (u, u g) has colour g
}


@settings(max_examples=40, deadline=None, database=None, derandomize=True)
@given(st.sampled_from(sorted(SCHEMES)), st.data())
def test_from_scheme_commutes_with_renumbering(name, data):
    color = SCHEMES[name]()
    v, r = len(color), 1 + max(map(max, color))
    pts = data.draw(st.permutations(range(v)))
    rel = [0] + data.draw(st.permutations(range(1, r)))
    renumbered = [[rel[color[pts[x]][pts[y]]] for y in range(v)] for x in range(v)]
    base, moved = from_scheme(relations(color)), from_scheme(relations(renumbered))
    inv = np.argsort(rel)  # relation k of the renumbered scheme is relation inv[k] here
    assert np.array_equal(moved.lam_int[1], base.lam_int[1][np.ix_(inv, inv, inv)])
    assert list(moved.star) == [rel[base.star[inv[k]]] for k in range(r)]


@pytest.mark.parametrize("seed", range(8))
def test_from_scheme_rejects_a_swapped_pair(seed):
    # moving one point pair (and its transpose) from R_i to R_j and another back
    # changes a valency in some row, so R_i R_i is not constant on R_0
    rng = random.Random(seed)
    mats = relations(_relabelled(johnson(6, 2) if seed % 2 else hamming(3, 3), rng))
    i, j = rng.sample(range(1, len(mats)), 2)
    for src, dst in ((i, j), (j, i)):
        a, b = rng.choice(np.argwhere(mats[src] == 1).tolist())
        mats[src][a, b] = mats[src][b, a] = 0
        mats[dst][a, b] = mats[dst][b, a] = 1
    with pytest.raises(StructuralError, match="^not a scheme: "):
        from_scheme(mats)


def test_from_scheme_checks_products_beyond_the_first_generator():
    # pairs of points (blocks) over the blocks of the 4-path: R_1 is "same block",
    # R_2 joins blocks adjacent on the path and R_3 the rest. R_1 R_j = R_j for
    # j > 1, so R_1's products are all constant; R_2 R_2 is not (its diagonal
    # is twice the block degree), and only a second generator finds that
    block = np.arange(8) // 2
    path = np.zeros((4, 4), dtype=int)
    for a in range(3):
        path[a, a + 1] = path[a + 1, a] = 1
    same = block[:, None] == block[None, :]
    color = np.where(same, 1, np.where(path[block][:, block] == 1, 2, 3)) - np.eye(8, dtype=int)
    with pytest.raises(StructuralError, match=r"^not a scheme: R_2 R_2 is not constant on R_0$"):
        from_scheme(relations(color))


def test_from_scheme_names_the_relation_whose_transpose_breaks():
    # C4 as a thin scheme with x -> x+2 first; one pair swapped between
    # x -> x+1 (relation 2) and x -> x+3 (relation 3)
    shift = [np.roll(np.eye(4, dtype=int), s, axis=1) for s in (0, 2, 1, 3)]
    shift[2][0, 1], shift[2][0, 3] = 0, 1
    shift[3][0, 3], shift[3][0, 1] = 0, 1
    with pytest.raises(StructuralError, match=r"^transpose of relation 2 is not a relation$"):
        from_scheme(shift)


def test_from_scheme_reads_intersection_numbers_past_float32():
    # the thin scheme of C_257: a flat index (i r + j) r + k passes 2^24, where
    # float32 stops holding every integer. C_n has lam[i, j, i + j mod n] = 1
    # and nothing else, and star[g] = -g mod n, as from_group gives
    n = 257
    g = np.arange(n)
    rel = (g[None, :, None] + g[:, None, None]) % n == g  # R_g[u, w] = [w = u + g]
    rba = from_scheme(rel.view(np.uint8))
    lam = rba.lam_int[1]
    assert lam.sum() == n * n and (lam[g[:, None], g, (g[:, None] + g) % n] == 1).all()
    assert np.array_equal(rba.star, -g % n)


def test_from_scheme_rejects_ragged_relations():
    with pytest.raises(StructuralError, match="square 0/1 matrices of equal size"):
        from_scheme([np.eye(2, dtype=int), np.ones((3, 3), dtype=int)])
    # entries other than 0 and 1, in dtypes other than uint8 and bool
    for bad in (0.5, -1, 2):
        rel = np.array([np.eye(2), 1 - np.eye(2)], dtype=type(bad))
        rel[1, 0, 1] = bad
        with pytest.raises(StructuralError, match="square 0/1 matrices of equal size"):
            from_scheme(rel)
    with pytest.raises(StructuralError, match="no relation matrices"):
        from_scheme([])


# ---------------------------------------------------------------------------
# scheme text: the whole body from its bytes, or line by line
# ---------------------------------------------------------------------------

PETERSEN = fixture_text("petersen")


@pytest.mark.parametrize("edit", [
    lambda t: t.replace("\n", " # note\n", 4),
    lambda t: t.replace(" ", "\t", 7),
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n", "  \n"),
    lambda t: t.replace("\n", "\n\n\n") + "\n\n",
    lambda t: t.replace("\n\n", "\n"),
    lambda t: t.rstrip("\n"),
], ids=["comments", "tabs", "crlf", "trailing-spaces", "blank-lines", "no-blank-lines",
        "no-final-newline"])
def test_parse_scheme_byte_and_token_paths_agree(edit):
    plain = "".join(line for line in PETERSEN.splitlines(True) if not line.startswith("#"))
    body = plain.partition("\n")[2].encode()
    assert ingest._digit_rows(body, 0, 3, 10).shape == (3, 10, 10)  # read from its bytes
    expect = parse_scheme("# line by line\n" + plain)  # no header on line 1: the token path
    assert expect.dtype == np.int64 and expect.shape == (3, 10, 10)
    assert np.array_equal(parse_scheme(plain), expect)
    assert np.array_equal(parse_scheme(PETERSEN), expect)
    got = parse_scheme(edit(plain))
    assert got.dtype == np.int64 and np.array_equal(got, expect)


@pytest.mark.parametrize("text,error,message", [
    ("points 2 classes 2\n1 0\n0 1\n0 1\n", StructuralError,
     "^expected 2 blocks of 2 rows of 2 entries$"),
    ("points 2 classes 2\n1 0\n0 1\n0 1\n1 0 0\n", StructuralError,
     "^expected 2 blocks of 2 rows of 2 entries$"),
    ("points 2 classes 2\n1 0\n0 1\n0 1\n1 x\n", ValueError, "'x'"),
    ("points 2 classes 2\n1 0\n0 1\n0 1\n1 99999999999999999999\n", StructuralError,
     "^line 5: entry out of range$"),
    ("points 2 classes\n1 0\n", StructuralError, "^bad scheme header$"),
    ("points -1 classes 2\n1 0\n", StructuralError, "^bad scheme header$"),
    ("points 0 classes 1\n", StructuralError, "^bad scheme header$"),
    ("points 2 classes 0\n", StructuralError, "^bad scheme header$"),
    ("points 100000 classes 10\n0 1\n", StructuralError,  # nothing the header's size
     "^expected 10 blocks of 100000 rows of 100000 entries$"),  # is allocated first
    ("1 0\npoints 1 classes 1\n", StructuralError, "must start with 'points v classes r'"),
])
def test_parse_scheme_errors(text, error, message):
    with pytest.raises(error, match=message):
        parse_scheme(text)


# ---------------------------------------------------------------------------
# packed products: one float32 product per generator, digits base B
# ---------------------------------------------------------------------------

def test_from_scheme_packs_products_into_two_groups():
    # thin C30: every valency is 1, so B = 2 and a group holds w = 24 digits;
    # R_1's 29 products R_1 R_j span two groups
    table = c_n_table(30)
    color = [[(w - u) % 30 for w in range(30)] for u in range(30)]  # (u, u + g) has colour g
    rba, group = from_scheme(thin_scheme(table)), from_group(table)
    assert rba.lam.tolist() == _oracle(color)
    assert np.array_equal(rba.lam_int[1], group.lam_int[1])
    assert np.array_equal(rba.star, group.star)


def _first_failure(mats, g):
    """The message of the first R_g R_j (j = 1, 2, ...) that is not constant on
    a relation, from one int64 product per j."""
    color = sum(k * m for k, m in enumerate(mats))
    pairs = [np.argwhere(m == 1)[0] for m in mats]
    for j in range(1, len(mats)):
        prod = mats[g].astype(np.int64) @ mats[j]
        const = np.array([prod[x, y] for x, y in pairs])
        bad = prod != const[color]
        if bad.any():
            return f"not a scheme: R_{g} R_{j} is not constant on R_{color[bad].min()}"
    return None


def test_from_scheme_names_a_failure_at_a_later_digit():
    # H(5,2) by the support of x - y, with distance 2 split into five supports
    # and the other five: every relation is a Cayley graph of Z_2^5, so every
    # row sum is a valency (1, 5, 5, 1, 5, 5, 10 by colour). R_1 (distance 1)
    # goes first, and R_1 R_j is constant for j = 1, 2, 3; R_1 R_4 is not.
    # B = 6, so every j sits in one group, R_4 at its fourth digit
    half = {(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)}
    colour_of = {0: 0, 1: 1, 4: 2, 5: 3, 3: 6}  # by distance, distance 2 aside
    pts = list(itertools.product(range(2), repeat=5))
    support = [[tuple(i for i in range(5) if x[i] != y[i]) for y in pts] for x in pts]
    color = [[(4 if s in half else 5) if len(s) == 2 else colour_of[len(s)] for s in row]
             for row in support]
    mats = relations(color)
    message = _first_failure(mats, 1)
    assert message is not None and message.startswith("not a scheme: R_1 R_4 ")
    with pytest.raises(StructuralError, match=f"^{message}$"):
        from_scheme(mats)


def test_from_scheme_names_a_failure_in_the_second_group():
    # thin C32 with point 0's pairs at shifts 26 and 27 swapped, and their
    # transposes at shifts 6 and 5: still a partition closed under transpose,
    # but not a scheme. R_1 R_j (shift j + 1) fails for the shifts j = 4, 5, 6,
    # 25, 26 and 27 only. They are renumbered 26 to 31 after shift 16 at 25, so
    # with B = 2 and w = 24 the first failure is the second digit of group two
    color = np.array([[(w - u) % 32 for w in range(32)] for u in range(32)])
    color[0, 26], color[0, 27], color[26, 0], color[27, 0] = 27, 26, 5, 6
    last = [16, 4, 5, 6, 25, 26, 27]
    order = [g for g in range(32) if g not in last] + last
    mats = relations(np.argsort(order)[color].tolist())
    message = _first_failure(mats, 1)
    assert message is not None and message.startswith("not a scheme: R_1 R_26 ")
    with pytest.raises(StructuralError, match=f"^{message}$"):
        from_scheme(mats)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: hamming(5, 3), id="H(5,3)"),
    pytest.param(lambda: johnson(10, 4), id="J(10,4)"),
])
def test_from_scheme_matches_oracle_relabelled(build):
    color = _relabelled(build(), random.Random(7))
    rba = from_scheme(relations(color))
    assert rba.lam.tolist() == _oracle(color)
    assert list(rba.star) == list(range(rba.rank))
