"""Banded discretizations of H and the metric operator on a truncated line.

The infinite line is replaced by [a, b] with Dirichlet ends and N interior
points.  H = -D2 + diag(V + iW) with the 3-point second difference D2;
build_hamiltonian is that stencil's one source, and eigenfunction_residual
applies it to a sampled eigenfunction.  The metric operator -d^2/dx^2 -
2iG d/dx + Q + G^2 - iG' is discretized in the symmetrized form -D2 -
i(Gh D1 + D1 Gh) + diag(Q + G^2), with D1 the antisymmetric central first
difference and Gh = diag(G).  The symmetrized form reproduces the G' term
through the operator identity G d/dx + d/dx G = 2G d/dx + G' and is
Hermitian exactly, at any spacing.

Both are three-point stencils, so each operator is stored as its diagonals,
and this module is the one that reads them: products, adjoints, products
with vectors, Frobenius norms and every residual work on the diagonals in
O(N).  A dense N x N matrix is assembled only on request, for the
full-spectrum eigensolver and CSV export, and for products of operands
that store many diagonals (a full matrix read from CSV).

verify_residuals forms the intertwining defect eta H - H^dag eta in its
defining form.  For a Hermitian eta, H^dag eta is P^dag with P = eta H, so
the defect is P - P^dag and one product P gives all three verify
residuals; any other eta takes the second product H^dag eta.  Every
residual is a ratio of degree 0 in each operand, so an operand whose norm
would underflow or overflow in the sums of squares is first rescaled by a
power of two.
"""

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .expressions import refuse
from .generator import SpecError, effective_potential

STIFFNESS_WARN = 0.1


class GridMismatchError(ValueError):
    """Two operators were combined across different grids."""


@dataclass(frozen=True)
class Grid:
    """Interior points x_j = a + j*h, j = 1..n, with h = (b-a)/(n+1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b)):
            raise SpecError("grid needs finite ends, got [%g, %g]" % (self.a, self.b))
        if not self.a < self.b:
            raise SpecError("grid needs a < b, got [%g, %g]" % (self.a, self.b))
        if not np.isfinite(self.b - self.a):
            raise SpecError("grid span b - a of [%g, %g] overflows" % (self.a, self.b))
        if self.n < 3:
            raise SpecError("grid needs at least 3 interior points")
        # a complex band of the grid takes 16 bytes a point, and numpy sizes
        # an array by a signed machine integer
        if 16 * int(self.n) > np.iinfo(np.intp).max:
            raise SpecError("grid of %d interior points is too large: one complex band"
                            " would take %d bytes" % (self.n, 16 * int(self.n)))

    @property
    def h(self):
        return (self.b - self.a) / (self.n + 1)

    @property
    def points(self):
        return self.a + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class DiscreteOperator:
    """An n x n operator stored as its diagonals.

    bands[k] is np.diagonal(M, k): M[i, i+k] for k >= 0 and M[i-k, i] for
    k < 0, of length n - |k|.  Absent offsets are zero.  The main diagonal
    bands[0] is always present, so it gives n.
    """

    bands: dict
    grid: Grid = None
    label: str = ""

    @classmethod
    def from_matrix(cls, matrix):
        """The nonzero diagonals of a square matrix (and its main diagonal)."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise SpecError("an operator needs a square matrix, got shape %s"
                            % (matrix.shape,))
        n = matrix.shape[0]
        bands = {}
        for k in range(1 - n, n):
            band = np.diagonal(matrix, k)
            if k == 0 or np.any(band):
                bands[k] = band.astype(complex)
        return cls(bands)

    @property
    def n(self):
        return self.bands[0].size

    @property
    def matrix(self):
        """The dense n x n array, assembled on each access."""
        n = self.n
        out = np.zeros((n, n), dtype=complex)
        for k, band in self.bands.items():
            rows = np.arange(band.size) + max(-k, 0)
            out[rows, rows + k] = band
        return out


class ZeroEigenfunctionError(ValueError):
    """A supplied eigenfunction is numerically zero on the grid."""


def _step(grid):
    """grid.h, refused where h^2 or the stencil weight 2/h^2 leaves the float range."""
    h = grid.h
    if not 0.0 < h * h < math.inf or math.isinf(2.0 / (h * h)):
        raise SpecError("grid step h = %g puts 2/h^2 outside the float range" % h)
    return h


def build_hamiltonian(model, grid):
    """H = -D2 + diag(V + iW) on the grid's interior points.  A V + iW that
    overflows (V holds G^2, Q and alpha / I^2, which evaluate does not see)
    raises EvaluationError at the first such x."""
    h = _step(grid)
    x = grid.points
    veff = effective_potential(model, x)
    refuse(~np.isfinite(veff), "non-finite potential", x)
    stiffness = np.max(np.abs(veff)) * h * h
    if stiffness > STIFFNESS_WARN:
        warnings.warn(
            "max|V+iW|*h^2 = %.3g; the grid underresolves this potential"
            % stiffness,
            stacklevel=2,
        )
    diag = 2.0 / h**2 + veff
    off = np.full(grid.n - 1, -1.0 / h**2, dtype=complex)
    return DiscreteOperator({-1: off, 0: diag, 1: off}, grid, "H")


def build_eta(model, grid):
    """Symmetrized metric operator; Hermitian by construction."""
    h = _step(grid)
    x = grid.points
    g = model.G(x)
    diag = 2.0 / h**2 + model.Q(x) + g**2 + 0j
    mean_g = 0.5 * (g[:-1] + g[1:])
    upper = -1.0 / h**2 - 1j * mean_g / h
    lower = -1.0 / h**2 + 1j * mean_g / h
    return DiscreteOperator({-1: lower, 0: diag, 1: upper}, grid, "eta")


def eigenfunction_residual(model, grid, psi, energy):
    """||H psi - E psi||_2 / ||psi||_2 with build_hamiltonian's H applied to
    psi sampled on the closed interval [a, b].

    H's outermost rows read psi(a) = psi(b) = 0; their stencil reads the
    two boundary samples of the callable instead, so that the Dirichlet
    matrix does not inject the truncation error of psi(a), psi(b) at 1/h^2.
    psi is called once, on the array of sample points, and must return one
    value per point: any other shape is ValueError.
    """
    closed = grid.a + grid.h * np.arange(0, grid.n + 2)
    samples = np.asarray(psi(closed), dtype=complex)
    if samples.shape != closed.shape:
        raise ValueError("psi returned shape %s for %d points" % (samples.shape, closed.size))
    inner = samples[1:-1]
    norm = np.linalg.norm(inner)
    if norm < 1e-12 * grid.n:
        raise ZeroEigenfunctionError("eigenfunction is numerically zero on the grid"
                                     " (norm %.3g)" % norm)
    applied = apply(build_hamiltonian(model, grid), inner[:, None])[:, 0]
    applied[[0, -1]] -= samples[[0, -1]] / grid.h**2
    return float(np.linalg.norm(applied - energy * inner) / norm)


def as_operator(op):
    """op itself, or the operator of the diagonals of a plain matrix."""
    return op if isinstance(op, DiscreteOperator) else DiscreteOperator.from_matrix(op)


def tridiagonal(op):
    """(diag, lower, upper) of a tridiagonal operator, an absent off-diagonal
    as zeros; ValueError for an operator with any other diagonal."""
    bands = op.bands
    if not set(bands) <= {-1, 0, 1}:
        raise ValueError("a window solve needs a tridiagonal operator, got"
                         " diagonals %s" % sorted(bands))
    return (bands[0], *(bands.get(k, np.zeros(op.n - 1, dtype=complex)) for k in (-1, 1)))


def _adjoint(bands):
    """Bands of M^dag: offset k holds the conjugate of offset -k."""
    return {-k: band.conj() for k, band in bands.items()}


def _dense(left, right):
    """Whether L R is formed as one dense product.  The band loops make one
    numpy call per pair of stored diagonals, so operands with more pairs
    than rows (a full n x n matrix has about 4n^2) are multiplied densely."""
    return len(left) * len(right) > left[0].size


def _product(left, right):
    """Bands of L R: band p of L times band q of R lands on offset p + q.

    (L R)[i, i+p+q] gets L[i, i+p] R[i+p, i+p+q] over the rows i where all
    three column indices i, i+p and i+p+q lie in [0, n).
    """
    n = left[0].size
    if _dense(left, right):
        dense = DiscreteOperator(left).matrix @ DiscreteOperator(right).matrix
        return DiscreteOperator.from_matrix(dense).bands
    out = {0: np.zeros(n, dtype=complex)}
    for p, lband in left.items():
        for q, rband in right.items():
            s = p + q
            lo, hi = max(0, -p, -s), n - max(0, p, s)
            if lo >= hi:
                continue
            if s not in out:
                out[s] = np.zeros(n - abs(s), dtype=complex)
            l0, r0, s0 = lo - max(0, -p), lo + p - max(0, -q), lo - max(0, -s)
            out[s][s0:s0 + hi - lo] += lband[l0:l0 + hi - lo] * rband[r0:r0 + hi - lo]
    return out


def apply(op, vectors):
    """M @ vectors for the columns of a 2-D array, from the bands, or as one
    dense product for a matrix with many diagonals (the rule of _product)."""
    bands, n = op.bands, op.n
    if _dense(bands, bands):
        return op.matrix @ vectors
    out = np.zeros_like(vectors, dtype=complex)
    for k, band in bands.items():
        out[max(-k, 0):n - max(k, 0)] += band[:, None] * vectors[max(k, 0):n - max(-k, 0)]
    return out


def _difference(left, right):
    return {k: left.get(k, 0.0) - right.get(k, 0.0) for k in left.keys() | right.keys()}


def _frobenius(bands):
    """Frobenius norm: the root of the summed squared band norms, summed as
    Python floats, which overflow to inf without a warning (see _normed)."""
    return math.sqrt(sum(float(np.vdot(band, band).real) for band in bands.values()))


def _ldexp(array, shift):
    """A complex array times 2^shift, exact but where an entry underflows."""
    return np.ldexp(np.ascontiguousarray(array, complex).view(float), shift).view(complex)


def _normed(bands):
    """(bands times 2^shift, their Frobenius norm, shift), with shift 0
    unless the norm lies outside [2^-200, 2^200], where squared entries or
    products of two operands could leave the float range; there the
    largest entry is brought into [1/2, 1).  A zero or non-finite matrix is
    left as it is."""
    norm = _frobenius(bands)
    if not 2.0**-200 <= norm <= 2.0**200:
        peak = np.max([np.abs(band).max(initial=0.0) for band in bands.values()])
        if 0.0 < peak < np.inf:
            shift = -int(np.frexp(peak)[1])
            bands = {k: _ldexp(band, shift) for k, band in bands.items()}
            return bands, _frobenius(bands), shift
    return bands, norm, 0


def compose(left, right, label=""):
    """Product of two operators on the same grid."""
    left, right = as_operator(left), as_operator(right)
    _check_grids(left, right)
    return DiscreteOperator(_product(left.bands, right.bands), left.grid, label)


def _check_grids(left, right):
    if left.n != right.n:
        raise GridMismatchError(
            "operators have different shapes: %s vs %s"
            % ((left.n, left.n), (right.n, right.n))
        )
    if left.grid is not None and right.grid is not None and left.grid != right.grid:
        raise GridMismatchError(
            "operators live on different grids: %r vs %r" % (left.grid, right.grid)
        )


def _skew(bands):
    """Bands of M - M^dag."""
    return _difference(bands, _adjoint(bands))


def _relative(norm, scale):
    """norm / scale, and 0 for a zero scale: a zero factor in the scale
    makes the norm 0 too."""
    return 0.0 if scale == 0.0 else float(norm / scale)


def verify_residuals(hamiltonian, eta):
    """(intertwining, eta_hermiticity, etaH_hermiticity) of one pair, the
    residuals verify reports: ||eta H - H^dag eta||_F / (||eta||_F ||H||_F),
    ||eta - eta^dag||_F / ||eta||_F and ||P - P^dag||_F / ||P||_F with
    P = eta H, each 0 when its scale is.  For a Hermitian eta, H^dag eta =
    P^dag, so the first and third share the numerator ||P - P^dag||_F and
    the one product P serves all three; any other eta takes a second
    product for H^dag eta.
    """
    hamiltonian, eta = as_operator(hamiltonian), as_operator(eta)
    _check_grids(hamiltonian, eta)
    h_bands, h_norm, _ = _normed(hamiltonian.bands)
    eta_bands, eta_norm, _ = _normed(eta.bands)
    product = _product(eta_bands, h_bands)
    eta_skew = _skew(eta_bands)
    defect = skew = _frobenius(_skew(product))
    # a complex band's float view is tested in half the time of the band
    if any(band.view(band.real.dtype).any() for band in eta_skew.values()):
        defect = _frobenius(_difference(product, _product(_adjoint(h_bands), eta_bands)))
    return (
        _relative(defect, eta_norm * h_norm),
        _relative(_frobenius(eta_skew), eta_norm),
        _relative(skew, _frobenius(product)),
    )


def intertwining_residual(hamiltonian, eta):
    """|| eta H - H^dag eta ||_F / (||eta||_F ||H||_F), the first of
    verify_residuals."""
    return verify_residuals(hamiltonian, eta)[0]


def hermiticity_residual(op):
    """|| M - M^dag ||_F / ||M||_F (0 for the zero matrix)."""
    bands, norm, _ = _normed(as_operator(op).bands)
    return _relative(_frobenius(_skew(bands)), norm)


def eigenpair_residuals(op, values, vectors):
    """||M v - lambda v||_2 / (||M||_F ||v||_2) per column v of vectors, with
    M and the values rescaled together (see _normed); 0, not 0/0, for
    M = 0."""
    bands, norm, shift = _normed(op.bands)
    if norm == 0.0:
        return np.zeros(values.size)
    applied = apply(DiscreteOperator(bands), vectors)
    defect = np.linalg.norm(applied - vectors * _ldexp(values, shift), axis=0)
    return defect / (norm * np.linalg.norm(vectors, axis=0))


def matrix_to_csv(op, path):
    """Row-major re,im pairs: row i holds re(M[i,0]), im(M[i,0]), re(M[i,1]), ..."""
    matrix = as_operator(op).matrix
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in matrix:
            flat = np.empty(2 * row.size)
            flat[0::2] = row.real
            flat[1::2] = row.imag
            writer.writerow([repr(float(v)) for v in flat])


def matrix_from_csv(path):
    """Inverse of matrix_to_csv.  Input that cannot be read, holds a
    non-numeric or non-finite field or is not a square matrix raises
    SpecError; a bad field is named by its row and column, from 1."""
    try:
        with open(path, newline="") as handle:
            records = [record for record in csv.reader(handle) if record]
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("cannot read matrix CSV: %s" % exc) from None
    rows = []
    for row, record in enumerate(records, 1):
        values = []
        try:
            for field in record:
                values.append(float(field))
        except ValueError as exc:
            raise SpecError("%s, row %d, column %d: %s"
                            % (path, row, len(values) + 1, exc)) from None
        flat = np.array(values)
        bad = np.flatnonzero(~np.isfinite(flat))
        if bad.size:
            raise SpecError("%s, row %d, column %d: non-finite field '%s'"
                            % (path, row, bad[0] + 1, record[bad[0]].strip()))
        if flat.size % 2:
            raise SpecError("CSV row length %d is not re,im paired" % flat.size)
        rows.append(flat[0::2] + 1j * flat[1::2])
    if not rows or any(row.size != len(rows) for row in rows):
        raise SpecError("%s is not a square matrix of re,im pairs" % path)
    return np.array(rows)
