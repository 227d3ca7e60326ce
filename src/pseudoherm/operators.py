"""Banded discretizations of H and the metric operator on a truncated line.

The infinite line is replaced by [a, b] with Dirichlet ends and N interior
points.  H = -D2 + diag(V + iW) with the 3-point second difference D2.
The metric operator -d^2/dx^2 - 2iG d/dx + Q + G^2 - iG' is discretized in
the symmetrized form -D2 - i(Gh D1 + D1 Gh) + diag(Q + G^2), with D1 the
antisymmetric central first difference and Gh = diag(G).  The symmetrized
form reproduces the G' term through the operator identity
G d/dx + d/dx G = 2G d/dx + G' and is Hermitian exactly, at any spacing.

Both are three-point stencils, so each operator is stored as its diagonals.
Products, adjoints and the Frobenius-norm residuals work on the diagonals in
O(N); a dense N x N matrix is assembled only on request, for the full-spectrum
eigensolver and CSV export, and for products of operands that store many
diagonals (a full matrix read from CSV).

The intertwining eta H = H^dag eta is, for a Hermitian eta, the statement
that P = eta H is Hermitian, so verify_residuals reads all three verify
residuals from the one product P: for any eta,
eta H - H^dag eta = (P - P^dag) - H^dag (eta - eta^dag), and the second
term is formed only when eta is not Hermitian.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .expressions import _refuse
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


def build_hamiltonian(model, grid):
    """H = -D2 + diag(V + iW) on the grid's interior points.  A V + iW that
    overflows (V holds G^2, Q and alpha / I^2, which evaluate does not see)
    raises EvaluationError at the first such x."""
    x = grid.points
    h = grid.h
    veff = effective_potential(model, x)
    _refuse(~np.isfinite(veff), "non-finite potential", x)
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
    x = grid.points
    h = grid.h
    g = model.G(x)
    diag = 2.0 / h**2 + model.Q(x) + g**2 + 0j
    mean_g = 0.5 * (g[:-1] + g[1:])
    upper = -1.0 / h**2 - 1j * mean_g / h
    lower = -1.0 / h**2 + 1j * mean_g / h
    return DiscreteOperator({-1: lower, 0: diag, 1: upper}, grid, "eta")


def _operator(op):
    return op if isinstance(op, DiscreteOperator) else DiscreteOperator.from_matrix(op)


def _matrix(op):
    """Dense array of an operator or a plain matrix, for the dense edges:
    the full-spectrum eigensolver and CSV export."""
    return op.matrix if isinstance(op, DiscreteOperator) else np.asarray(op)


def _adjoint(bands):
    """Bands of M^dag: offset k holds the conjugate of offset -k."""
    return {-k: band.conj() for k, band in bands.items()}


def _product(left, right):
    """Bands of L R: band p of L times band q of R lands on offset p + q.

    (L R)[i, i+p+q] gets L[i, i+p] R[i+p, i+p+q] over the rows i where all
    three column indices i, i+p and i+p+q lie in [0, n).  The loop makes
    one numpy call per pair of stored diagonals, so operands with more
    pairs than rows (a full n x n matrix has about 4n^2) are multiplied as
    one dense product instead.
    """
    n = left[0].size
    if len(left) * len(right) > n:
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


def _difference(left, right):
    return {k: left.get(k, 0.0) - right.get(k, 0.0) for k in left.keys() | right.keys()}


def _frobenius(bands):
    """Frobenius norm: the root of the summed squared band norms."""
    return np.sqrt(sum(np.vdot(band, band).real for band in bands.values()))


def compose(left, right, label=""):
    """Product of two operators on the same grid."""
    left, right = _operator(left), _operator(right)
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


def _defects(hamiltonian, eta):
    """From one band product P = eta H: the bands of P and of eta - eta^dag,
    ||P - P^dag||_F, and ||eta H - H^dag eta||_F by the identity

        eta H - H^dag eta = (P - P^dag) - H^dag (eta - eta^dag),

    so for a Hermitian eta the intertwining defect is the Hermiticity defect
    of P.  The second term is formed, from the nonzero bands of
    eta - eta^dag, only for an eta that is not Hermitian (build_eta's is
    Hermitian exactly; a CSV matrix need not be).
    """
    product = _product(eta.bands, hamiltonian.bands)
    product_skew, eta_skew = _skew(product), _skew(eta.bands)
    defect = skew = _frobenius(product_skew)
    # a complex band's float view is tested in half the time of the band
    nonzero = {k: band for k, band in eta_skew.items() if band.view(band.real.dtype).any()}
    if nonzero:
        # the main band stays, since _product's dense path sizes an operand by it
        nonzero.setdefault(0, eta_skew[0])
        correction = _product(_adjoint(hamiltonian.bands), nonzero)
        defect = _frobenius(_difference(product_skew, correction))
    return product, eta_skew, skew, defect


def verify_residuals(hamiltonian, eta):
    """(intertwining, eta_hermiticity, etaH_hermiticity) of one pair, the
    residuals verify reports, all from one band product P = eta H (see
    _defects).  With eta Hermitian the first and third share the numerator
    ||P - P^dag||_F and differ in scale: ||eta||_F ||H||_F against ||P||_F.
    """
    hamiltonian, eta = _operator(hamiltonian), _operator(eta)
    _check_grids(hamiltonian, eta)
    product, eta_skew, skew, defect = _defects(hamiltonian, eta)
    eta_norm = _frobenius(eta.bands)
    return (
        _relative(defect, eta_norm * _frobenius(hamiltonian.bands)),
        _relative(_frobenius(eta_skew), eta_norm),
        _relative(skew, _frobenius(product)),
    )


def intertwining_residual(hamiltonian, eta):
    """|| eta H - H^dag eta ||_F normalized by ||eta||_F ||H||_F (0 when
    either is the zero matrix, since the defect is then 0 too), from one
    band product by the identity of _defects."""
    hamiltonian, eta = _operator(hamiltonian), _operator(eta)
    _check_grids(hamiltonian, eta)
    defect = _defects(hamiltonian, eta)[3]
    return _relative(defect, _frobenius(eta.bands) * _frobenius(hamiltonian.bands))


def hermiticity_residual(op):
    """|| M - M^dag ||_F / ||M||_F (0 for the zero matrix)."""
    bands = _operator(op).bands
    return _relative(_frobenius(_skew(bands)), _frobenius(bands))


def matrix_to_csv(op, path):
    """Row-major re,im pairs: row i holds re(M[i,0]), im(M[i,0]), re(M[i,1]), ..."""
    matrix = _matrix(op)
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
