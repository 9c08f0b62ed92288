"""Regular representation, idempotents, character tables, *-rep machinery."""

import warnings
from fractions import Fraction

import numpy as np
import pytest

from rbakit.core import (
    RBA,
    DegreeMap,
    NumericalError,
    ToleranceConfig,
    degree_map,
    to_standard_basis,
    validate,
)
from rbakit.decomp import (
    center_basis,
    central_idempotents,
    character_table,
    charpoly_check,
    regular_rep,
    rep_residual,
    star_rep_extract,
    symmetrize,
    averaging_matrix,
)

from rbakit.fixtures import load_fixture
from rbakit.indicator import indicator_report
from rbakit.ingest import from_group, from_scheme

from conftest import (
    D8_CLASSICAL,
    RANK7_TABLE,
    S3_CLASSICAL,
    TOL,
    c_n_table,
    dihedral_table,
    hamming,
    rank5_split_rba,
    relations,
    s3_associativity_variant,
    s3_table,
    s4_table,
    two_dim_s3_star_rep,
)


def _pipeline(rba):
    dm = degree_map(rba, TOL)
    return dm, character_table(rba, dm, TOL)


# ---------------------------------------------------------------------------
# regular representation
# ---------------------------------------------------------------------------

def test_regular_rep_rank1(rank1_rba):
    rr = regular_rep(rank1_rba)
    assert np.array_equal(rr, np.ones((1, 1, 1)))


def test_regular_rep_s3_permutation_matrices(s3_rba):
    rr = regular_rep(s3_rba)
    assert np.array_equal(rr[0], np.eye(6))
    for mat in rr:
        # group algebra: each L_i is a permutation matrix of the Cayley table
        assert set(np.unique(mat)) == {0.0, 1.0}
        assert np.array_equal(mat.sum(axis=0), np.ones(6))
        assert np.array_equal(mat.sum(axis=1), np.ones(6))
    assert rep_residual(s3_rba, rr)[0] == 0.0


def test_regular_rep_rank7_residual(rank7_rba):
    product, star = rep_residual(rank7_rba, regular_rep(rank7_rba))
    assert product < 1e-10
    assert star > 0.1  # L(b_{i*}) = L(b_i)^T only in the Gram-orthonormal basis


def test_rep_residual_exact_path():
    # the regular matrices of exact S3 as Fractions: checked on lam_int, exactly
    rba = from_group(s3_table())
    den, lam = rba.lam_int
    mats = lam.transpose(0, 2, 1).astype(object) * Fraction(1, den)
    assert rep_residual(rba, mats) == (0, 0)
    eps = Fraction(1, 10**30)
    i, a, b = next((i, a, b) for i in range(1, 6) for a, b in np.argwhere(mats[i] == 1) if a != b)
    mats[i, a, b] += eps
    product, _ = rep_residual(rba, mats)
    assert type(product) is Fraction and product == eps
    assert rep_residual(rba, mats.astype(float))[0] == 0.0  # 1 + 1e-30 == 1 in doubles


def test_rep_residual_mode_follows_the_images():
    # exact S3: Fraction or integer images are checked exactly, floats in an
    # object array take the float path (they have no denominator)
    rba = from_group(s3_table())
    den, lam = rba.lam_int
    regular = lam.transpose(0, 2, 1)
    for mats in (regular.astype(object) * Fraction(1, den), regular):
        assert [type(x) for x in rep_residual(rba, mats)] == [Fraction, Fraction]
        assert rep_residual(rba, mats) == (0, 0)
    residuals = rep_residual(rba, regular_rep(rba).astype(object))
    assert [type(x) for x in residuals] == [float, float] and residuals == (0.0, 0.0)


# ---------------------------------------------------------------------------
# center
# ---------------------------------------------------------------------------

def test_center_commutative(c2_rba, c3_rba, rank1_rba):
    for rba in (rank1_rba, c2_rba, c3_rba):
        assert center_basis(rba, TOL).shape[0] == rba.rank


@pytest.mark.parametrize(
    "fixture,dim",
    [("s3_rba", 3), ("d8_rba", 5), ("rank7_rba", 4)],
)
def test_center_dimension(fixture, dim, request):
    rba = request.getfixturevalue(fixture)
    assert center_basis(rba, TOL).shape[0] == dim


def _center_without_svd(rba, monkeypatch):
    """center_basis(rba) with np.linalg.svd raising; it must be np.eye(r), the vt
    that the SVD of the zero commutation matrix gives."""
    r = rba.rank
    assert np.linalg.svd(np.zeros((r * r, r)), full_matrices=False)[2].tobytes() == np.eye(r).tobytes()

    def svd(*args, **kwargs):
        raise AssertionError("center_basis ran an SVD")

    monkeypatch.setattr(np.linalg, "svd", svd)
    got = center_basis(rba, TOL)
    assert got.tobytes() == np.eye(r).tobytes() and got.shape == (r, r)


@pytest.mark.parametrize("build", [
    lambda: from_group(c_n_table(5)),
    lambda: from_group(c_n_table(12)),
    lambda: from_scheme(relations(hamming(3, 3))),
], ids=["C5", "C12", "H(3,3)"])
def test_center_of_exact_commutative_algebra_needs_no_svd(build, monkeypatch):
    _center_without_svd(build(), monkeypatch)


@pytest.mark.parametrize("n", [5, 12, 64], ids=["C5", "C12", "C64"])
def test_center_of_float_commutative_algebra_needs_no_svd(n, monkeypatch):
    rba = from_group(c_n_table(n))
    _center_without_svd(RBA(rba.lam_float, rba.star), monkeypatch)


def test_center_vectors_commute(s3_rba):
    zb = center_basis(s3_rba, TOL)
    lam = s3_rba.lam_float
    for z in zb:
        left = np.einsum("i,ijk->jk", z, lam)
        right = np.einsum("j,ijk->ik", z, lam)
        assert abs(left - right).max() < 1e-12


def test_center_rank_ambiguous(s3_rba):
    # noise sized right at the eps_cluster gap leaves the null space undecidable
    rng = np.random.default_rng(0)
    lam = s3_rba.lam_float + rng.uniform(-1e-6, 1e-6, (6, 6, 6))
    with pytest.raises(NumericalError, match="ambiguous"):
        center_basis(RBA(lam, s3_rba.star), TOL)


def test_central_idempotents_refuse_a_trace_that_rounds_to_rank_0():
    # an idempotent of the associativity-broken S3 variant has trace exactly
    # 0.5: round(0.5) == 0 would give a block of dimension 0, divided by later
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match=r"idempotent trace 0\.5 is not a positive rank"):
            central_idempotents(s3_associativity_variant(), TOL)


def test_central_idempotents_refuse_eigenvalues_that_never_separate(s3_rba):
    # a cluster gap of 10 merges every pair of eigenvalues, whatever the seed
    with pytest.raises(NumericalError, match="idempotent separation failed after 8 reseeds"):
        central_idempotents(s3_rba, ToleranceConfig(eps_residual=10))


def _with_noise(rba, size, seed):
    """Float copy of rba with +-size added to every nonzero structure constant."""
    rng = np.random.default_rng(seed)
    lam = rba.lam_float.copy()
    nonzero = lam != 0
    lam[nonzero] += rng.choice([-size, size], int(nonzero.sum()))
    return RBA(lam, rba.star)


@pytest.mark.parametrize("n,size", [(5, 1e-15), (9, 1e-15), (12, 1e-15), (9, 1e-12), (9, 1e-10)])
def test_center_of_noisy_commutative_algebra(n, size):
    # every singular value of the commutation matrix is noise here: the
    # center is the whole algebra, not a cut between two noise levels
    base = from_group(c_n_table(n))
    for seed in range(20 if size == 1e-15 else 10):
        rba = _with_noise(base, size, seed)
        assert validate(rba, TOL).passed
        assert center_basis(rba, TOL).shape[0] == n
        dm = degree_map(rba, TOL)
        table = character_table(rba, dm, tol=TOL)
        assert table.degrees() == [1] * n
        assert indicator_report(rba, dm, table, TOL).consistent


# ---------------------------------------------------------------------------
# idempotents
# ---------------------------------------------------------------------------

def test_idempotents_rank1(rank1_rba):
    e, ranks = central_idempotents(rank1_rba, TOL)
    assert np.allclose(e, [[1.0]])
    assert ranks.tolist() == [1]


@pytest.mark.parametrize(
    "fixture,dims",
    [("s3_rba", [1, 1, 2]), ("d8_rba", [1, 1, 1, 1, 2]), ("rank7_rba", [1, 1, 1, 2]),
     ("c2_rba", [1, 1]), ("petersen_rba", [1, 1, 1])],
)
def test_idempotent_ranks_are_squares_of_the_degrees(fixture, dims, request):
    rba = request.getfixturevalue(fixture)
    e, ranks = central_idempotents(rba, TOL)
    assert e.shape == (len(dims), rba.rank) and e.dtype == complex
    assert ranks.dtype.kind == "i"
    assert sorted(ranks.tolist()) == sorted(d * d for d in dims)
    table = character_table(rba, degree_map(rba, TOL), TOL)
    assert sorted(table.degrees()) == sorted(dims)


def test_character_table_refuses_an_idempotent_rank_that_is_not_a_square(s3_rba, monkeypatch):
    e, ranks = central_idempotents(s3_rba, TOL)
    ranks[ranks == 4] = 3
    monkeypatch.setattr("rbakit.decomp.central_idempotents", lambda rba, tol: (e, ranks))
    with pytest.raises(NumericalError, match="idempotent rank 3 is not a square"):
        character_table(s3_rba, degree_map(s3_rba, TOL), TOL)


def _complex_multiplicity(e):
    e[1, 0] += 1e-3j


def _scaled_idempotent(e):
    e[2] *= 1.01


@pytest.mark.parametrize("perturb, message", [
    (_complex_multiplicity, "complex multiplicity: idempotents are inconsistent"),
    (_scaled_idempotent, "multiplicity inconsistency: idempotent route gives 1.0100000000000002, "
                         "trace solve gives (0.9900990099009896+0j)"),
], ids=["complex-multiplicity", "routes-disagree"])
def test_character_table_cross_checks_refuse_inconsistent_idempotents(s3_rba, monkeypatch, perturb, message):
    # route (a) reads e[:, 0]; route (b) solves for the multiplicities from the values
    e, ranks = central_idempotents(s3_rba, TOL)
    perturb(e)
    monkeypatch.setattr("rbakit.decomp.central_idempotents", lambda rba, tol: (e, ranks))
    with pytest.raises(NumericalError) as info:
        character_table(s3_rba, degree_map(s3_rba, TOL), TOL)
    assert str(info.value) == message


def test_idempotent_algebra(s3_rba, d8_rba, rank7_rba):
    for rba in (s3_rba, d8_rba, rank7_rba):
        idems, _ = central_idempotents(rba, TOL)
        total = np.zeros(rba.rank, dtype=complex)
        for e in idems:
            total += e
            esq = rba.mul(e, e)
            assert abs(esq - e).max() < 1e-9
            # e* = e for real-valued components: coefficient-level c_{i*} = conj(c_i)
            assert abs(np.conj(e)[rba.star] - e).max() < 1e-9
        for a in range(len(idems)):
            for b in range(a + 1, len(idems)):
                prod = rba.mul(idems[a], idems[b])
                assert abs(prod).max() < 1e-9
        unit = np.zeros(rba.rank)
        unit[0] = 1.0
        assert abs(total - unit).max() < 1e-9


@pytest.mark.parametrize("n", [5, 12])
def test_idempotent_algebra_irrational_characters(n):
    # e_a e_b = delta_ab e_a and sum e_a = b_0, to rounding, where the
    # characters take irrational values (cyclic groups)
    rba = from_group(c_n_table(n))
    coeffs, _ = central_idempotents(rba, TOL)
    prods = np.einsum("ai,bj,ijk->abk", coeffs, coeffs, rba.lam_float)
    assert abs(prods - np.eye(n)[:, :, None] * coeffs[:, None, :]).max() <= 1e-12
    assert abs(coeffs.sum(axis=0) - np.eye(n)[0]).max() <= 1e-12


def _float_group(table):
    """Float group algebra of a Cayley table, built without the exact checks."""
    r = len(table)
    lam = np.zeros((r, r, r))
    lam[np.arange(r)[:, None], np.arange(r), table] = 1.0
    return RBA(lam, np.argmin(table, axis=1))


FLOAT_LADDER = [("C", n, c_n_table(n)) for n in (12, 16, 24, 32, 48, 64)] + [
    ("D", n, dihedral_table(n)) for n in (7, 9, 12, 14, 16, 18, 20, 24, 32)
]
LADDER_IDS = [f"{f}{n}" for f, n, _ in FLOAT_LADDER]


@pytest.mark.parametrize("family,n,table", FLOAT_LADDER, ids=LADDER_IDS)
def test_float_group_ladder(family, n, table):
    # well-conditioned group algebras analyse in float mode for every seed
    rba = _float_group(table)
    if family == "C":
        degrees = [1] * n
    else:
        linear = 2 if n % 2 else 4
        degrees = [1] * linear + [2] * ((2 * n - linear) // 4)
    for seed in range(5 if len(table) < 64 else 1):
        tol = ToleranceConfig(rng_seed=seed)
        dm = degree_map(rba, tol)
        chars = character_table(rba, dm, tol=tol)
        assert sorted(chars.degrees()) == degrees
        assert chars.multiplicities() == chars.degrees()
        assert indicator_report(rba, dm, chars, tol).consistent


# ---------------------------------------------------------------------------
# character tables
# ---------------------------------------------------------------------------

def test_character_table_refuses_a_degree_map_that_is_not_a_character(s3_rba):
    dm = degree_map(s3_rba, TOL)
    doubled = DegreeMap(np.array([2 * v for v in dm.values], dtype=object), exact=True)
    with pytest.raises(NumericalError, match="degree map not found among the characters"):
        character_table(s3_rba, doubled, TOL)


def test_s3_table_matches_classical(s3_rba):
    dm, table = _pipeline(s3_rba)
    assert table.degrees() == S3_CLASSICAL["degrees"]
    assert table.multiplicities() == S3_CLASSICAL["multiplicities"]
    for char in table:
        key = tuple(char.values)
        assert key in S3_CLASSICAL["rows"]
        assert char.multiplicity == S3_CLASSICAL["rows"][key]
    assert table.delta.values == [Fraction(1)] * 6


def test_d8_table_matches_classical(d8_rba):
    _, table = _pipeline(d8_rba)
    assert table.degrees() == D8_CLASSICAL["degrees"]
    for char in table:
        assert tuple(char.values) in D8_CLASSICAL["rows"]


def test_rank7_table_exact(rank7_rba):
    _, table = _pipeline(rank7_rba)
    assert table.degrees() == RANK7_TABLE["degrees"]
    assert table.multiplicities() == RANK7_TABLE["multiplicities"]
    assert tuple(table[0].values) == RANK7_TABLE["delta"]
    assert tuple(table[1].values) == RANK7_TABLE["phi"]
    assert tuple(table[2].values) == RANK7_TABLE["psi"]
    assert tuple(table[3].values) == RANK7_TABLE["chi"]
    assert table.order == RANK7_TABLE["n"]


def test_c3_complex_characters(c3_rba):
    _, table = _pipeline(c3_rba)
    assert table.degrees() == [1, 1, 1]
    omega = np.exp(2j * np.pi / 3)
    rows = {tuple(np.round(c.values_raw, 8)) for c in table}
    expected = {
        tuple(np.round(np.array([1, 1, 1], dtype=complex), 8)),
        tuple(np.round(np.array([1, omega, omega.conjugate()]), 8)),
        tuple(np.round(np.array([1, omega.conjugate(), omega]), 8)),
    }
    assert rows == expected


def test_sum_identities(s3_rba, d8_rba, c2_rba, rank7_rba):
    for rba in (s3_rba, d8_rba, c2_rba, rank7_rba):
        dm, table = _pipeline(rba)
        assert sum(d * d for d in table.degrees()) == rba.rank
        total = sum(
            Fraction(c.multiplicity) * c.degree for c in table
            if isinstance(c.multiplicity, Fraction)
        )
        assert total == Fraction(round(dm.n_float))
        # row sums vanish away from the degree map
        for c in table.characters[1:]:
            assert abs(c.values_raw.sum()) < 1e-8


def _decimal_s3():
    """S3 rescaled by decimal t_i = t_{i*} in float: associative only to rounding."""
    t = np.array([1.0, 1.3, 1.3, 0.7, 1.1, 2.3])
    lam = from_group(s3_table()).lam_float * t[:, None, None] * t[None, :, None] / t
    return RBA(lam, [0, 2, 1, 3, 4, 5])


REFERENCE_INPUTS = {
    "s3": lambda: from_group(s3_table()),
    "d8": lambda: load_fixture("d8"),
    "rank7_h": lambda: load_fixture("rank7_h"),
    "C12": lambda: from_group(c_n_table(12)),
    "S4": lambda: from_group(s4_table()),
    **{f"rank5_{seed}": (lambda seed=seed: rank5_split_rba(seed)) for seed in range(4)},
    "s3_decimal": _decimal_s3,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
def test_values_and_indicators_match_regular_rep_formulas(name):
    # the trace-vector identities against the formulas they replace:
    # chi(b_i) = tr(L_i L(e)) / n_chi, and the indicator sum
    # sum_i psi(b_i^2) / delta_i with psi(b_i^2) = sum_k lam[i,i,k] psi(b_k)
    rba = REFERENCE_INPUTS[name]()
    _, rba, dm = to_standard_basis(rba, TOL)
    lam, r = rba.lam_float, rba.rank
    table = character_table(rba, dm, tol=TOL)
    L = regular_rep(rba)
    for c in table:
        le = np.einsum("i,iab->ab", c.idempotent, L)
        values = np.array([np.trace(L[i] @ le) for i in range(r)]) / c.degree
        assert abs(c.values_raw - values).max() <= 1e-10
    raw = indicator_report(rba, dm, table, TOL).raw
    for c, got in zip(table, raw):
        squares = [sum(lam[i, i, k] * c.values_raw[k] for k in range(r)) for i in range(r)]
        total = sum(squares[i] / dm.values_float[i] for i in range(r))
        assert abs(got - c.multiplicity_raw / (dm.n_float * c.degree) * total) <= 1e-10


def test_multiplicity_routes_agree(s3_rba, rank7_rba):
    # route agreement is enforced inside character_table; recheck route (a)
    # against the idempotent expansion directly
    for rba in (s3_rba, rank7_rba):
        dm, table = _pipeline(rba)
        n = dm.n_float
        for char in table:
            assert abs(n * char.idempotent[0].real / char.degree - char.multiplicity_raw) < 1e-8


# ---------------------------------------------------------------------------
# star-rep extraction
# ---------------------------------------------------------------------------

def test_star_rep_degree_one(s3_rba):
    dm, table = _pipeline(s3_rba)
    for char in table:
        if char.degree != 1:
            continue
        rep = star_rep_extract(s3_rba, dm, char, TOL)
        assert rep.shape == (6, 1, 1)
        assert abs(rep.ravel() - char.values_raw.real).max() < 1e-9


@pytest.mark.parametrize("fixture", ["s3_rba", "d8_rba"])
def test_star_rep_degree_two(fixture, request):
    rba = request.getfixturevalue(fixture)
    dm, table = _pipeline(rba)
    chi = table.degree_two()[0]
    rep = star_rep_extract(rba, dm, chi, TOL)
    assert rep.shape == (rba.rank, 2, 2)
    product, star = rep_residual(rba, rep)
    assert product < 1e-8
    assert star < 1e-8
    assert abs(np.einsum("iaa->i", rep) - chi.values_raw.real).max() < 1e-8


def test_star_rep_rejects_complex_component(c3_rba):
    # the nonreal characters of C3 have complex idempotents: no real *-rep
    dm, table = _pipeline(c3_rba)
    complex_chars = [c for c in table if c.idempotent.imag.any()]
    assert len(complex_chars) == 2
    assert all(abs(c.values_raw.imag).max() > 0.5 for c in complex_chars)
    with pytest.raises(NumericalError, match="not split over the reals"):
        star_rep_extract(c3_rba, dm, complex_chars[0], TOL)


def test_star_rep_quaternionic_detection(rank7_rba):
    # the degree-2 component is quaternionic: no real 2x2 *-rep exists and
    # extraction must fail (the nu-first routing rule sends this case to
    # the quaternion images instead)
    dm, table = _pipeline(rank7_rba)
    chi = table.degree_two()[0]
    with pytest.raises(NumericalError):
        star_rep_extract(rank7_rba, dm, chi, TOL)


# ---------------------------------------------------------------------------
# symmetrization
# ---------------------------------------------------------------------------

def test_symmetrize_fixed_point(s3_rba):
    dm = degree_map(s3_rba, TOL)
    x = two_dim_s3_star_rep()
    rep = symmetrize(s3_rba, dm, x, TOL)
    assert rep_residual(s3_rba, rep)[1] < 1e-10
    # the averaging matrix commutes with the image of an irreducible *-rep
    avg = averaging_matrix(dm, x)
    assert max(abs(avg @ x[i] - x[i] @ avg).max() for i in range(6)) < 1e-10


def test_symmetrize_conjugated(s3_rba):
    dm = degree_map(s3_rba, TOL)
    x = two_dim_s3_star_rep()
    rng = np.random.default_rng(11)
    for _ in range(25):
        m = rng.uniform(-1, 1, (2, 2))
        while abs(np.linalg.det(m)) < 0.2:
            m = rng.uniform(-1, 1, (2, 2))
        phi = np.array([m @ x[i] @ np.linalg.inv(m) for i in range(6)])
        rep = symmetrize(s3_rba, dm, phi, TOL)
        assert rep_residual(s3_rba, rep)[1] < 1e-8
        assert abs(np.einsum("iaa->i", rep) - np.einsum("iaa->i", phi)).max() < 1e-8


def test_symmetrize_direct_sum_two_copies(s3_rba):
    dm = degree_map(s3_rba, TOL)
    x = two_dim_s3_star_rep()
    rng = np.random.default_rng(13)
    m = rng.uniform(-1, 1, (4, 4)) + 2 * np.eye(4)
    minv = np.linalg.inv(m)
    phi = np.array([
        m @ np.block([[x[i], np.zeros((2, 2))], [np.zeros((2, 2)), x[i]]]) @ minv
        for i in range(6)
    ])
    rep = symmetrize(s3_rba, dm, phi, TOL)
    assert rep_residual(s3_rba, rep)[1] < 1e-8


def test_symmetrize_rejects_non_rep(s3_rba):
    dm = degree_map(s3_rba, TOL)
    bad = np.array([np.eye(2) * (i + 1) for i in range(6)], dtype=float)
    with pytest.raises(ValueError):
        symmetrize(s3_rba, dm, bad, TOL)


@pytest.mark.parametrize("images,error,message", [
    (np.zeros((5, 2, 2)), ValueError, r"^expected \(r, d, d\) images, got \(5, 2, 2\)$"),
    (np.zeros((6, 2, 2)), NumericalError, "averaging matrix not positive definite"),
], ids=["wrong-count", "all-zero"])
def test_symmetrize_refuses(s3_rba, images, error, message):
    with pytest.raises(error, match=message):
        symmetrize(s3_rba, degree_map(s3_rba, TOL), images, TOL)


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def test_charpoly_identity(s3_rba):
    dm, table = _pipeline(s3_rba)
    chi = table.degree_two()[0]
    rep = star_rep_extract(s3_rba, dm, chi, TOL)
    polys = charpoly_check(rep, TOL)
    assert None not in polys
    # X(b_0) has char poly (t - 1)^2
    assert polys[0] == [Fraction(1), Fraction(-2), Fraction(1)]
    # X(r) rotates by 2*pi/3: t^2 + t + 1
    assert polys[1] == [Fraction(1), Fraction(1), Fraction(1)]


def test_charpoly_irrational_coefficients():
    # rank-2 algebra with b_1^2 = 2 b_0: rational tensor, but the characters
    # take values +-sqrt(2), so the char poly coefficient is irrational
    lam = np.full((2, 2, 2), Fraction(0), dtype=object)
    lam[0, 0, 0] = lam[0, 1, 1] = lam[1, 0, 1] = Fraction(1)
    lam[1, 1, 0] = Fraction(2)
    rba = RBA(lam, [0, 1])
    dm = degree_map(rba, TOL)
    assert abs(dm.n_float - (1 + np.sqrt(2))) < 1e-9
    table = character_table(rba, dm, TOL)
    rep = star_rep_extract(rba, dm, table.delta, TOL)
    polys = charpoly_check(rep, TOL)
    assert [i for i, p in enumerate(polys) if p is None] == [1]
