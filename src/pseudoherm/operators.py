"""Dense discretizations of H and the metric operator on a truncated line.

The infinite line is replaced by [a, b] with Dirichlet ends and N interior
points.  H = -D2 + diag(V + iW) with the 3-point second difference D2.
The metric operator -d^2/dx^2 - 2iG d/dx + Q + G^2 - iG' is discretized in
the symmetrized form -D2 - i(Gh D1 + D1 Gh) + diag(Q + G^2), with D1 the
antisymmetric central first difference and Gh = diag(G).  The symmetrized
form reproduces the G' term through the operator identity
G d/dx + d/dx G = 2G d/dx + G' and is Hermitian exactly, at any spacing.
"""

import csv
import warnings
from dataclasses import dataclass

import numpy as np

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
        if not self.a < self.b:
            raise SpecError("grid needs a < b, got [%g, %g]" % (self.a, self.b))
        if self.n < 3:
            raise SpecError("grid needs at least 3 interior points")

    @property
    def h(self):
        return (self.b - self.a) / (self.n + 1)

    @property
    def points(self):
        return self.a + self.h * np.arange(1, self.n + 1)


@dataclass(frozen=True)
class DiscreteOperator:
    matrix: np.ndarray
    grid: Grid = None
    label: str = ""


def _tridiag(diag, upper, lower):
    matrix = np.diag(diag).astype(complex)
    n = len(diag)
    matrix[np.arange(n - 1), np.arange(1, n)] = upper
    matrix[np.arange(1, n), np.arange(n - 1)] = lower
    return matrix


def build_hamiltonian(model, grid):
    """H = -D2 + diag(V + iW) on the grid's interior points."""
    x = grid.points
    h = grid.h
    veff = effective_potential(model, x)
    stiffness = np.max(np.abs(veff)) * h * h
    if stiffness > STIFFNESS_WARN:
        warnings.warn(
            "max|V+iW|*h^2 = %.3g; the grid underresolves this potential"
            % stiffness,
            stacklevel=2,
        )
    diag = 2.0 / h**2 + veff
    off = np.full(grid.n - 1, -1.0 / h**2, dtype=complex)
    return DiscreteOperator(_tridiag(diag, off, off), grid, "H")


def build_eta(model, grid):
    """Symmetrized metric-operator matrix; Hermitian by construction."""
    x = grid.points
    h = grid.h
    g = model.G(x)
    diag = 2.0 / h**2 + model.Q(x) + g**2 + 0j
    mean_g = 0.5 * (g[:-1] + g[1:])
    upper = -1.0 / h**2 - 1j * mean_g / h
    lower = -1.0 / h**2 + 1j * mean_g / h
    return DiscreteOperator(_tridiag(diag, upper, lower), grid, "eta")


def _matrix(op):
    return op.matrix if isinstance(op, DiscreteOperator) else np.asarray(op)


def compose(left, right, label=""):
    """Matrix product of two operators on the same grid."""
    _check_grids(left, right)
    grid = left.grid if isinstance(left, DiscreteOperator) else None
    return DiscreteOperator(_matrix(left) @ _matrix(right), grid, label)


def _check_grids(left, right):
    left_shape, right_shape = np.shape(_matrix(left)), np.shape(_matrix(right))
    if left_shape != right_shape:
        raise GridMismatchError(
            "operators have different shapes: %s vs %s" % (left_shape, right_shape)
        )
    if (
        isinstance(left, DiscreteOperator)
        and isinstance(right, DiscreteOperator)
        and left.grid is not None
        and right.grid is not None
        and left.grid != right.grid
    ):
        raise GridMismatchError(
            "operators live on different grids: %r vs %r" % (left.grid, right.grid)
        )


def intertwining_residual(hamiltonian, eta):
    """|| eta H - H^dag eta ||_F normalized by ||eta||_F ||H||_F."""
    _check_grids(hamiltonian, eta)
    h_mat = _matrix(hamiltonian)
    e_mat = _matrix(eta)
    defect = e_mat @ h_mat - h_mat.conj().T @ e_mat
    scale = np.linalg.norm(e_mat) * np.linalg.norm(h_mat)
    return float(np.linalg.norm(defect) / scale)


def hermiticity_residual(op):
    """|| M - M^dag ||_F / ||M||_F (0 for the zero matrix)."""
    matrix = _matrix(op)
    scale = np.linalg.norm(matrix)
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(matrix - matrix.conj().T) / scale)


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
    non-numeric field or is not a square matrix raises SpecError."""
    try:
        with open(path, newline="") as handle:
            records = [record for record in csv.reader(handle) if record]
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError("cannot read matrix CSV: %s" % exc) from None
    rows = []
    for record in records:
        try:
            flat = np.array([float(v) for v in record])
        except ValueError as exc:
            raise SpecError("%s: %s" % (path, exc)) from None
        if flat.size % 2:
            raise SpecError("CSV row length %d is not re,im paired" % flat.size)
        rows.append(flat[0::2] + 1j * flat[1::2])
    if not rows or any(row.size != len(rows) for row in rows):
        raise SpecError("%s is not a square matrix of re,im pairs" % path)
    return np.array(rows)
