"""Semisimple decomposition of the span of an RBA basis.

Regular representation, center, central primitive idempotents (eigenvectors
of a random central element acting on the center), character
table with multiplicities by two independent routes, extraction of an
irreducible real *-representation, and symmetrization of an arbitrary real
representation into a *-representation. A representation is its images of
the basis, an (r, d, d) array, and rep_residual is its one checker.

Character values need no representation matrices. With the trace vector
t_k = tr L(b_k) and P[i, j] = sum_k lam[i,j,k] t_k = tr L(b_i b_j), the
character of the central idempotent e of degree n_chi is
chi(b_i) = tr L(b_i e) / n_chi = (P e)_i / n_chi: one r x r matrix per table.

All eigenwork is done in doubles; derived values are snapped back to small
rationals where they fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    DEFAULT_TOL,
    DegreeMap,
    NumericalError,
    RBA,
    ToleranceConfig,
    _frame,
    gram_matrix,
    snap_value,
)

__all__ = [
    "Character",
    "CharacterTable",
    "regular_rep",
    "rep_residual",
    "center_basis",
    "central_idempotents",
    "character_table",
    "star_rep_extract",
    "symmetrize",
    "averaging_matrix",
    "charpoly_check",
]


def regular_rep(rba: RBA) -> np.ndarray:
    """Left regular matrices L_i with (L_i)[k, j] = lam[i, j, k], shape (r, r, r)."""
    return np.ascontiguousarray(rba.lam_float.transpose(0, 2, 1))


def _trace_products(rba: RBA) -> np.ndarray:
    """P[i, j] = tr L(b_i b_j) = sum_k lam[i,j,k] tr L(b_k), shape (r, r)."""
    lam = rba.lam_float
    return lam @ np.einsum("ijj->i", lam)


def rep_residual(rba: RBA, mats) -> tuple:
    """(product, star) residuals of images mats, shape (r, d, d), of the basis:
    max |X(b_i) X(b_j) - sum_k lam[i,j,k] X(b_k)| and max |X(b_{i*}) - X(b_i)^T|.

    Both are zero iff the images multiply as the basis does and * maps to the
    transpose. An exact RBA with rational images (integers or Fractions) is
    checked exactly, as D M_i M_j - E sum_k N[i,j,k] M_k in the integer frame
    lam = N / D, X = M / E (core._frame), to Fractions; else floats from lam_float.
    """
    den, lam, ((e, mats),) = _frame(rba, np.asarray(mats))
    mats = mats.astype(float) if lam is rba.lam_float else mats  # Fraction images of a float RBA too
    product = max(
        abs(den * (mats[i] @ mats) - e * np.tensordot(lam[i], mats, 1)).max()
        for i in range(rba.rank)
    )
    star = abs(mats[rba.star] - mats.transpose(0, 2, 1)).max()
    if lam is rba.lam_float:
        return float(product), float(star)
    return Fraction(int(product), den * e * e), Fraction(int(star), e)


def center_basis(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal coefficient vectors spanning the center, shape (m, r).

    Null space of the commutation system sum_i z_i (lam[i,j,k] - lam[j,i,k]) = 0.
    Singular values are cut at eps_cluster relative to the largest, but never
    below the noise that validate accepts in the tensor (eps_residual relative
    to max(1, max|lam|)): on a commutative algebra every singular value is noise.
    A tensor whose commutator is exactly zero is its own center: np.eye(r), the
    vt that the SVD of the zero matrix gives, with no SVD run.
    """
    r = rba.rank
    lam = rba.lam_float
    comm = (lam - lam.transpose(1, 0, 2)).transpose(1, 2, 0).reshape(r * r, r)
    if not comm.any():
        return np.eye(r)
    _, svals, vt = np.linalg.svd(comm, full_matrices=False)
    thr = max(
        tol.eps_cluster * svals.max(initial=0.0),
        tol.eps_residual * rba.scale,
    )
    null_mask = svals <= thr
    kept = svals[~null_mask]
    dropped = svals[null_mask & (svals > 0)]
    if kept.size and dropped.size and kept.min() < 100.0 * dropped.max():
        raise NumericalError(
            "center rank ambiguous: singular values "
            f"{dropped.max():.3e} vs {kept.min():.3e} straddle the eps_cluster gap; "
            "adjust tolerances"
        )
    m = int(null_mask.sum())
    return vt[r - m:, :]


def central_idempotents(rba: RBA, tol: ToleranceConfig = DEFAULT_TOL):
    """Central primitive idempotents from the eigenvectors of a central element.

    Returns (e, ranks): e[a] is the complex coefficient vector of one
    idempotent, shape (m, r), and ranks[a] = rank L(e[a]), n_chi^2 over C.

    A seeded random central element z whose action on the center has all
    eigenvalues distinct separates the components (up to 8 reseeds); each
    eigenvector of that action is a multiple of one idempotent e, rescaled so
    that e*e = e (e[0] = m*n_chi/n > 0). An e whose imaginary parts are all
    below eps_zero is made real, the one realness cut. L(e) is a projection,
    so its rank is its trace. All eigenvectors are rescaled, traced and ranked
    together; each is lifted by its own product with zb, as one gemm changes
    the last bits of some values. The rows come sorted by eigenvalue.
    """
    zb = center_basis(rba, tol)
    m = zb.shape[0]
    lam = rba.lam_float
    traces = np.einsum("ijj->i", lam)
    unit = lam[:, :, 0]  # (v v)[0] = v unit v: the b_0 coefficient alone
    for attempt in range(8):
        rng = tol.rng(attempt)
        z = rng.uniform(-1.0, 1.0, m) @ zb
        # z acts on the center as zb L(z) zb^T: the rows of zb are orthonormal
        zc = zb @ np.einsum("i,ijk->kj", z, lam) @ zb.T
        evals, evecs = np.linalg.eig(zc)
        close = abs(evals[:, None] - evals) < tol.eps_cluster * (1.0 + abs(evals[:, None]))
        if np.triu(close, 1).any():
            continue
        vs = np.array([evecs[:, a] @ zb for a in range(m)], dtype=complex)
        vs *= (vs[:, 0] / np.einsum("ai,aj,ij->a", vs, vs, unit))[:, None]
        real = abs(vs.imag).max(axis=1) < tol.eps_zero
        vs[real] = vs[real].real
        trace = (vs @ traces).real
        bad = ~(trace > 0.5)  # NaN included; a trace of 0.5 rounds to rank 0
        if bad.any():
            raise NumericalError(f"idempotent trace {trace[bad][0]:.3g} is not a positive rank")
        order = np.lexsort((evals.imag, evals.real))
        return vs[order], np.round(trace[order]).astype(int)
    raise NumericalError("idempotent separation failed after 8 reseeds")


# ---------------------------------------------------------------------------
# character table
# ---------------------------------------------------------------------------

@dataclass
class Character:
    """One irreducible character: degree, values on the basis, multiplicity."""

    degree: int
    values_raw: np.ndarray          # complex128, length r
    multiplicity_raw: float
    values: list = field(default_factory=list)   # per-entry Fraction when snapped
    multiplicity: object = None                  # Fraction | float
    idempotent: np.ndarray = None                # complex128 coefficients of e, length r

    @property
    def is_exact(self) -> bool:
        return all(isinstance(v, Fraction) for v in self.values)


@dataclass
class CharacterTable:
    """Ordered characters, the degree map first."""

    characters: list
    order: object                    # n (Fraction | float)

    def __iter__(self):
        return iter(self.characters)

    def __len__(self):
        return len(self.characters)

    def __getitem__(self, i) -> Character:
        return self.characters[i]

    @property
    def delta(self) -> Character:
        return self.characters[0]

    def degrees(self):
        return [c.degree for c in self.characters]

    def multiplicities(self):
        return [c.multiplicity for c in self.characters]

    def degree_two(self):
        """The characters of degree 2 (handles for the quaternion pipeline)."""
        return [c for c in self.characters if c.degree == 2]


def character_table(rba: RBA, dm: DegreeMap, tol: ToleranceConfig = DEFAULT_TOL) -> CharacterTable:
    """Character values, degrees and multiplicities of every irreducible character.

    Values are chi(b_i) = (P e)_i / n_chi with P = _trace_products(rba), one
    matrix for the whole table (see the module docstring), and e the idempotent
    of central_idempotents(rba, tol) that chi keeps as chi.idempotent.
    Multiplicities come from two independent routes that must agree:
    (a) m = n * e[0] / n_chi from the idempotent expansion, and
    (b) the linear solve sum_psi m_psi psi(b_i) = n * [i = 0].
    The degree is sqrt(rank L(e)); a rank that is not a square raises NumericalError.
    Every check runs on the arrays first; each Character is then built once, complete.
    """
    e, ranks = central_idempotents(rba, tol)
    degrees = np.round(np.sqrt(ranks)).astype(int)
    bad = degrees * degrees != ranks  # over C each simple component is M_n(C), of rank n^2
    if bad.any():
        raise NumericalError(f"idempotent rank {ranks[bad][0]} is not a square")
    trace_products = _trace_products(rba)
    vmat = np.array([trace_products @ coeffs / deg for coeffs, deg in zip(e, degrees.tolist())])
    n = dm.n_float
    mult_a = n * e[:, 0] / degrees
    if (abs(mult_a.imag) > tol.eps_residual).any():
        raise NumericalError("complex multiplicity: idempotents are inconsistent")
    mult_raw = mult_a.real

    # route (b): the trace functional decomposes over the characters
    rhs = np.zeros(rba.rank, dtype=complex)
    rhs[0] = n
    mult_b, *_ = np.linalg.lstsq(vmat.T, rhs, rcond=None)
    scale = max(1.0, abs(vmat).max())
    bound = tol.eps_residual * scale
    bad = (abs(mult_raw - mult_b) > bound) | (abs(vmat.T @ mult_b - rhs).max() > bound)
    if bad.any():
        a = bad.argmax()  # the first row that disagrees, or row 0 when the solve itself fails
        raise NumericalError(
            "multiplicity inconsistency: idempotent route gives "
            f"{mult_raw[a]}, trace solve gives {mult_b[a]}"
        )

    # identify the degree-map row, snap, and order deterministically
    delta = (degrees == 1) & (abs(vmat - dm.values_float).max(axis=1) < tol.eps_cluster * scale)
    if not delta.any():
        raise NumericalError("degree map not found among the characters")
    delta_idx = int(delta.argmax())
    m, r = vmat.shape
    snapped = snap_value(np.concatenate([vmat.ravel(), mult_raw, [n]]), tol.eps_zero)  # values, mults, order
    mults = snapped[m * r:m * r + m]
    mults[delta_idx] = Fraction(1)
    values = [snapped[a * r:(a + 1) * r] for a in range(m)]
    chars = list(map(Character, degrees.tolist(), vmat, mult_raw.tolist(), values, mults, e))
    rounded = np.round(vmat, 6).view(np.float64).tolist()  # sort by degree, then rounded (re, im) values
    rest = sorted((a for a in range(m) if a != delta_idx), key=lambda a: (chars[a].degree, rounded[a]))
    return CharacterTable([chars[a] for a in [delta_idx, *rest]], order=snapped[-1])


# ---------------------------------------------------------------------------
# *-representations
# ---------------------------------------------------------------------------

def _orthonormalized_regular(rba: RBA, dm: DegreeMap):
    """Regular matrices conjugated by the Gram square root, and its diagonal d.

    In these coordinates left multiplication by b_{i*} is the transpose of
    left multiplication by b_i. The pseudo-inverse axiom (lam[i, j*, 0] != 0
    only for j = i) makes the Gram matrix diagonal in any basis, so its
    square root is the diagonal scaling d = sqrt(diag G).
    """
    d = np.sqrt(np.diag(gram_matrix(rba, dm)))
    return d[None, :, None] * regular_rep(rba) / d[None, None, :], d


def star_rep_extract(
    rba: RBA,
    dm: DegreeMap,
    chi: Character,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Irreducible real *-representation of the character chi of a component
    split over the reals: images X of shape (r, n_chi, n_chi) with
    X(b_{i*}) = X(b_i)^T.

    Restricts right multiplication by a seeded random *-symmetric element to
    the isotypic subspace of chi.idempotent; its eigenvalue clusters of size
    n_chi span irreducible submodules (right multiplications are the commutant
    of the left regular action, and *-symmetry makes them self-adjoint for the
    Gram form), and their traces must give chi.values_raw. An idempotent with
    any nonzero imaginary part, which central_idempotents leaves only above
    eps_zero, is refused; quaternionic components produce the wrong cluster
    size, which is reported as an extraction failure.
    """
    if chi.idempotent.imag.any():
        raise NumericalError(
            "component is not split over the reals (idempotent has complex coefficients)"
        )
    r = rba.rank
    nchi = chi.degree
    lam = rba.lam_float
    y, d = _orthonormalized_regular(rba, dm)
    proj = np.einsum("i,iab->ab", chi.idempotent.real, y)
    pw, pv = np.linalg.eigh((proj + proj.T) / 2)
    basis = pv[:, pw > 0.5]
    bound = tol.eps_residual * rba.scale

    for attempt in range(8):
        rng = tol.rng(1000 + attempt)
        c = rng.uniform(-1.0, 1.0, r)
        c = (c + c[rba.star]) / 2.0
        rmat = np.einsum("i,jik->kj", c, lam)
        ry = d[:, None] * rmat / d[None, :]
        restricted = basis.T @ ry @ basis
        mw, mv = np.linalg.eigh((restricted + restricted.T) / 2)
        gaps = np.flatnonzero(np.diff(mw) >= tol.eps_cluster * (1.0 + abs(mw[:-1])))
        pick = next((g for g in np.split(np.arange(len(mw)), gaps + 1) if len(g) == nchi), None)
        if pick is None:
            continue
        emb = basis @ mv[:, pick]
        mats = np.einsum("pa,ipq,qb->iab", emb, y, emb)
        product, star = rep_residual(rba, mats)
        if (
            product < bound
            and star < bound
            and abs(np.einsum("iaa->i", mats) - chi.values_raw).max() < bound
        ):
            return mats
    raise NumericalError(
        "irreducible subspace extraction failed after 8 reseeds "
        f"(component of degree {nchi} is likely not split over the reals)"
    )


def averaging_matrix(dm: DegreeMap, phi) -> np.ndarray:
    """The positive definite average sum_i Phi(b_i)^T Phi(b_i) / delta_i."""
    phi = np.array(phi, dtype=float)
    weights = 1.0 / dm.values_float
    return np.einsum("i,iba,ibc->ac", weights, phi, phi)


def symmetrize(
    rba: RBA,
    dm: DegreeMap,
    phi,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> np.ndarray:
    """Turn a real representation into a *-representation by conjugation.

    Steps: (i) form the positive definite symmetric average A of the images,
    (ii) take its symmetric square root B, (iii) conjugate: X = B Phi B^{-1}.
    Then A Phi(b_j) = Phi(b_{j*})^T A forces X(b_{i*}) = X(b_i)^T.
    """
    phi = np.array(phi, dtype=float)
    r = rba.rank
    if phi.shape[0] != r or phi.ndim != 3 or phi.shape[1] != phi.shape[2]:
        raise ValueError(f"expected (r, d, d) images, got {phi.shape}")
    scale = max(rba.scale, float(abs(phi).max()) ** 2)
    prod_res, _ = rep_residual(rba, phi)
    if prod_res > tol.eps_residual * scale:
        raise ValueError(f"Phi is not a representation (product residual {prod_res:.3e})")
    avg = averaging_matrix(dm, phi)
    avg = (avg + avg.T) / 2
    w, v = np.linalg.eigh(avg)
    if w.min() <= tol.eps_zero * max(1.0, w.max()):
        raise NumericalError(
            f"averaging matrix not positive definite: eigenvalue {w.min():.3e} failed"
        )
    b = v @ np.diag(np.sqrt(w)) @ v.T
    binv = v @ np.diag(1.0 / np.sqrt(w)) @ v.T
    mats = np.einsum("ab,ibc,cd->iad", b, phi, binv)
    _, star = rep_residual(rba, mats)
    if star > tol.eps_residual * scale:
        raise NumericalError(
            f"symmetrization failed to restore *-compatibility (residual {star:.3e})"
        )
    return mats


# ---------------------------------------------------------------------------
# characteristic polynomials
# ---------------------------------------------------------------------------

def charpoly_check(mats, tol: ToleranceConfig = DEFAULT_TOL) -> list:
    """Characteristic-polynomial coefficients of every image, snapped to rationals.

    Entry i lists the Fraction coefficients of X(b_i), leading 1 first, or is
    None when one of them fails to snap: the field of the character is then
    bigger than the rationals (or the image carries noise).
    """
    polys = snap_value(np.array([np.poly(mat) for mat in mats]), tol.eps_zero)
    return [row if all(isinstance(c, Fraction) for c in row) else None for row in polys]
