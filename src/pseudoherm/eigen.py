"""Non-Hermitian eigensolver and spectrum post-processing.

eig is the one solver entry point, with two paths:

- Without a window it returns the full spectrum from LAPACK's dense QR
  pipeline (zgeev: balancing, Hessenberg reduction, shifted QR) as
  numpy.linalg ships it.  Plain matrices take this path.
- eig(op, below=E) returns only the eigenvalues with real part below E of
  a tridiagonal operator, in O(N m) time and memory with no N x N array.
  H = A + iB with A, B Hermitian, so Gershgorin discs of A and B bound a
  box that holds them all.  window_count takes the winding number of
  det(H - z) around the box edge, which counts the eigenvalues inside
  (argument principle; Delves & Lyness, Math. Comp. 21, 1967), first at
  16 points on each side; each pass takes the leading-minor recurrence
  D_j = (d_j - z) D_(j-1) - l_(j-1) u_(j-1) D_(j-2) of H - z (Wilkinson,
  The Algebraic Eigenvalue Problem, 1965) in blocks of rows, with
  d/dz log det(H - z), which guards every segment and places every further
  point.  The final contour's moment over the count is the mean of
  the eigenvalues inside, and the shift sigma is next to it.  The LU of
  H - sigma takes its pivots row by row, p_j = d_j - sigma -
  l_(j-1) u_(j-1) / p_(j-1), and solves with each factor as one
  cumulative sum: x_j = f_j + a_j x_(j-1) is x = P cumsum(f / P) with P the
  running product of a, restarted before 1/P overflows.  Shift-invert
  Arnoldi (ARPACK's design; Lehoucq, Sorensen & Yang, 1998) then finds the
  eigenvalues until its converged Ritz values in the box number the
  certified count; a mismatch at the largest Krylov dimension is
  EigenSolverError.

Post-processing reports a defective level that discretization split in
two as one level at its group mean, separates grid-localized bound states
from discretized continuum, matches computed levels against analytic ones
(catalog_states picks the states a catalog spectrum compares), and
measures how well a closed-form eigenfunction satisfies the discrete
eigenvalue equation.  Every report comes from one constructor, _report,
which sorts it by (re, im) and sets its reality flags.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .generator import effective_potential
from .operators import DiscreteOperator, _frobenius, _matrix, _operator

TAU_REAL = 1e-5
# Two eigenvalues at most SPLIT_WINDOW apart whose unit right eigenvectors
# v, w have 1 - |<v, w>| <= TAU_PARALLEL are one defective level split by the
# discretization.  The split pairs of the catalog models (scarf2 at even A,
# periodic level 4) sit about 8e-3 apart with 1 - |<v, w>| between 8e-6 and
# 3.1e-5; every other pair that close has 1 - |<v, w>| >= 0.9.
TAU_PARALLEL = 1e-3
SPLIT_WINDOW = 0.05
BOUND_MASS_FRACTION = 0.999
INNER_FRACTION = 0.8

# Window solver.  The box is widened on its left, top and bottom edges by
# BOX_PAD times its larger side, so that no eigenvalue lies near them; its
# right edge is the window's `below`, or nearer, past every eigenvalue.
BOX_PAD = 0.05
SIDE_POINTS = 16  # each side's points on the count's first contour
CONTOUR_MAX_POINTS = 1 << 16
SHIFT_OFFSET = 1e-4 * (1 + 1j)  # sigma's step off the eigenvalue mean, per box side
# A Ritz pair (theta, y) of (H - sigma)^-1 has converged when the Arnoldi
# residual estimate |h_(m+1,m) y_m| is at most TAU_RITZ |theta|.
TAU_RITZ = 1e-12
KRYLOV_START = 8
KRYLOV_CAP = 640
KRYLOV_SEED = 20261018
# An Arnoldi step whose new vector keeps at most INVARIANT of its norm after
# reorthogonalization has closed an invariant subspace: multiples of the
# identity keep 1.1e-16 at most, and every catalog step at least 9.9e-5.
INVARIANT = 64 * np.finfo(float).eps
# A triangular solve's running product P restarts where it falls
# 2^-RESTART_BITS below its segment's start, so that f / P keeps 2^400 of
# headroom below the float range.
RESTART_BITS = 600


class EigenSolverError(RuntimeError):
    """The eigensolver failed: QR did not converge, a pivot vanished, or the
    eigenvalues found disagree with the certified count."""


class ZeroEigenfunctionError(ValueError):
    """A supplied eigenfunction is numerically zero on the grid."""


@dataclass(frozen=True)
class LevelMatch:
    level: float
    eigenvalue: complex
    distance: float
    matched: bool


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenvalues sorted by (re, im), with right-eigenvector residuals
    ||Mv - lambda v||_2 / (||M||_F ||v||_2) and reality flags
    |Im| <= TAU_REAL * max(1, |Re|); the ordering and the flags come from
    _report, the one constructor.  group_sizes, set once split levels
    are merged, counts the computed eigenvalues behind each entry.  A
    window solve sets below and certified_count, the number of eigenvalues
    with real part below it, with how it found them: the shift sigma, by the
    mean of the eigenvalues counted (None when the count is 0), the Krylov
    dimension it stopped at (0 when no Arnoldi step ran) and the number of
    points of the count's final contour (0 when no eigenvalue can lie below)."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    reality_flags: np.ndarray
    eigenvectors: np.ndarray
    matches: tuple = field(default_factory=tuple)
    group_sizes: np.ndarray = None
    below: float = None
    certified_count: int = None
    sigma: complex = None
    krylov_dimension: int = None
    contour_points: int = None


def _report(values, vectors, residuals, group_sizes=None, **fields):
    """The report of eigenpairs (values, columns of vectors), sorted by
    (re, im).  residuals and group_sizes follow the order of values;
    residuals may instead be a function of the sorted values and vectors,
    since a column's residual rounds differently by its position.
    fields are the remaining SpectrumReport fields."""
    order = np.lexsort((values.imag, values.real))
    values, vectors = values[order], vectors[:, order]
    return SpectrumReport(
        eigenvalues=values,
        residuals=residuals(values, vectors) if callable(residuals) else residuals[order],
        reality_flags=np.abs(values.imag) <= TAU_REAL * np.maximum(1.0, np.abs(values.real)),
        eigenvectors=vectors,
        group_sizes=None if group_sizes is None else group_sizes[order],
        **fields,
    )


def eig(op, below=None):
    """Eigenvalues with right eigenvectors and residuals: the full spectrum,
    or with a finite `below` those of a tridiagonal operator with real part
    below it, their number certified by the argument principle."""
    if below is not None and not np.isfinite(below):
        raise ValueError("the window's below must be finite, got %r" % below)
    bands = _operator(op).bands
    if not all(np.all(np.isfinite(band)) for band in bands.values()):
        raise EigenSolverError("matrix contains non-finite entries")
    if below is not None:
        return _eig_window(bands, float(below))
    matrix = np.asarray(_matrix(op), dtype=complex)
    try:
        values, vectors = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError("QR iteration did not converge: %s" % exc) from exc
    return _report(values, vectors, functools.partial(_band_residuals, bands))


def _eig_window(bands, below):
    if not set(bands) <= {-1, 0, 1}:
        raise ValueError("a window solve needs a tridiagonal operator, got"
                         " diagonals %s" % sorted(bands))
    diag = bands[0]
    n = diag.size
    lower, upper = (bands.get(k, np.zeros(n - 1, dtype=complex)) for k in (-1, 1))
    box = window_box(diag, lower, upper, below)
    count, points, sigma = (0, 0, None) if box is None else window_count(diag, lower * upper, box)
    values, vectors, m = np.zeros(0, dtype=complex), np.zeros((n, 0), dtype=complex), 0
    if count:
        factors = _tridiagonal_lu(diag - sigma, lower, upper)
        for m, values, vectors in _shift_invert_ritz(factors, sigma):
            keep = _inside(box, values)
            if np.count_nonzero(keep) == count:
                values, vectors = values[keep], vectors[:, keep]
                break
        else:
            raise EigenSolverError(
                "%d converged Ritz values below %g, but the argument principle"
                " counts %d eigenvalues there; Arnoldi stopped at Krylov dimension %d,"
                " the cap min(N, %d)" % (np.count_nonzero(keep), below, count, m, KRYLOV_CAP))
    return _report(values, vectors, functools.partial(_band_residuals, bands),
                   below=below, certified_count=count, sigma=sigma,
                   krylov_dimension=m, contour_points=points)


def window_box(diag, lower, upper, below):
    """(re_lo, re_hi, im_lo, im_hi): a box that holds every eigenvalue of the
    tridiagonal matrix with real part below `below`, or None when no
    eigenvalue can have one.  Its right edge is `below`, or the Gershgorin
    bound of Re lambda plus BOX_PAD times the spread of the discs when that
    is nearer, so that a window past the spectrum keeps its contour near it.

    For an eigenpair, lambda = v*Av / v*v + i v*Bv / v*v with the Hermitian
    A = (M + M^dag)/2 and B = (M - M^dag)/2i, so Re lambda and Im lambda lie
    in the Gershgorin intervals of A and B."""
    a_off = 0.5 * (upper + lower.conj())
    b_off = -0.5j * (upper - lower.conj())

    def radii(off):
        mags = np.abs(off)
        return np.concatenate(([0.0], mags)) + np.concatenate((mags, [0.0]))

    a_radii, b_radii = radii(a_off), radii(b_off)
    re_lo = float(np.min(diag.real - a_radii))
    re_max = float(np.max(diag.real + a_radii))
    im_lo = float(np.min(diag.imag - b_radii))
    im_hi = float(np.max(diag.imag + b_radii))
    if below <= re_lo:
        return None
    # a `below` past every eigenvalue would stretch the contour, and sigma
    # with its moment, far from them all; a multiple of the identity has no spread
    spread = max(re_max - re_lo, im_hi - im_lo) or max(1.0, abs(re_max))
    right = min(below, re_max + BOX_PAD * spread)
    pad = BOX_PAD * max(right - re_lo, im_hi - im_lo)
    return (re_lo - pad, right, im_lo - pad, im_hi + pad)


def _inside(box, values):
    re_lo, re_hi, im_lo, im_hi = box
    return ((values.real > re_lo) & (values.real < re_hi)
            & (values.imag > im_lo) & (values.imag < im_hi))


def _blocked_phase(diag, couplings, z):
    """(det / |det|, log|det|, f'/f = d/dz log det) of det(M - z) at each
    point z, in about 2.5 sqrt(N) array steps of O(sqrt(N)) memory per point:
    blocks of ceil(2 sqrt(N)) rows, the first padded ahead with rows d - z = 1
    and no coupling, advance the two fundamental solutions of the leading
    minors' recurrence D_j = (d_j - z) D_(j-1) - c_(j-1) D_(j-2), c =
    couplings, and their derivatives D'_j = (d_j - z) D'_(j-1) - D_(j-1) -
    c_(j-1) D'_(j-2) a row of every block per step, all divided every 16 rows
    by the solutions' size, whose log is kept; the block transfers [[T, 0],
    [T', T]] then carry (D, D_prev, D', D'_prev) from (1, 0, 0, 0), rescaled alike."""
    length = int(np.ceil(2 * np.sqrt(diag.size)))  # half sqrt(N)'s blocks, half its state
    blocks = -(-diag.size // length)
    pad = blocks * length - diag.size
    rows = np.concatenate((np.zeros(pad), diag)).reshape(blocks, length).T[:, :, None]
    coupling = np.concatenate((np.zeros(pad + 1), couplings)).reshape(blocks, length).T[:, :, None]
    # [D or D'][start e_i] at rows j and j - 1, and a buffer for row j + 1
    current, previous, spare = np.zeros((3, 2, 2, blocks, z.size), dtype=complex)
    current[0, 0] = previous[0, 1] = 1.0
    log_size = np.zeros(z.size)
    for k in range(length):
        shifted = rows[k] - z
        if k < pad:
            shifted[0] = 1.0
        np.multiply(current, shifted, out=spare)
        previous *= coupling[k]
        spare -= previous
        spare[1] -= current[0]
        current, previous, spare = spare, current, previous
        if k % 16 == 15:
            scale = np.abs(current[0]).sum(axis=0)
            scale += scale == 0
            current /= scale
            previous /= scale
            log_size += np.log(scale).sum(axis=0)
    ends = np.stack((current, previous), 1).reshape(4, 2, blocks, z.size)  # [row, start i]
    transfer = np.concatenate((ends, np.concatenate((0 * ends[:2], ends[:2]))), axis=1)
    pair = np.outer([1, 0, 0, 0], np.ones_like(z))
    for end in np.moveaxis(transfer, 2, 0):
        pair = (end * pair).sum(axis=1)
        scale = np.abs(pair[:2]).sum(axis=0)
        scale += scale == 0
        pair /= scale
        log_size += np.log(scale)
    size = np.abs(pair[0])
    if not np.all(np.isfinite(size)):
        raise EigenSolverError(
            "det(H - z) overflowed on the counting contour: the diagonal reaches |d| = %.3g,"
            " so 16 rows between rescalings exceed the floating-point range; the grid is"
            " too stiff for its potential" % np.max(np.abs(diag)))
    if not np.all(size > 0):
        raise EigenSolverError("det(H - z) vanished on the counting contour")
    # each pad row took D' -= D, though it does not depend on z: f'/f lacks pad
    return pair[0] / size, log_size + np.log(size), pair[2] / pair[0] + pad


def window_count(diag, couplings, box):
    """(count, points, sigma): the number of eigenvalues of the tridiagonal
    matrix inside the box, as the winding number of det(M - z) around its
    edge (argument principle), the number of points of its final contour,
    and the window solve's shift (None for count 0).

    The edge starts as SIDE_POINTS equally spaced points on each side, and
    every pass runs _blocked_phase; the guard alone places the rest, however
    long a side is next to the others.  A segment is halved while
    the phase turn sampled at its ends, read in (-pi, pi], and the trapezoid
    value of the integral of Im(f'/f dz) differ by more than pi/2, or while
    |f'/f dz| at either end exceeds pi, as next to a double root, whose two
    ends cancel in the trapezoid (Ying & Katz, Numer. Math. 53, 1988).
    sigma is the mean s_1 / count by the final contour's moment s_1 =
    (1/2 pi i) sum z_mid (d log|det(M - z)| + i turn), moved by SHIFT_OFFSET,
    clamped into the box; where not finite, the box centre."""
    re_lo, re_hi, im_lo, im_hi = box
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    steps = np.arange(SIDE_POINTS) / SIDE_POINTS
    sides = [start + (end - start) * steps
             for start, end in zip(corners, corners[1:] + corners[:1])]
    z = np.concatenate(sides + [np.array([corners[0]])])
    samples = np.array([z, *_blocked_phase(diag, couplings, z)])
    while True:
        z, phase, log_det, slope = samples
        turns = np.angle(phase[1:] * phase[:-1].conj())
        left, right = slope[:-1] * np.diff(z), slope[1:] * np.diff(z)  # f'/f dz at each end
        coarse = np.flatnonzero((np.abs(0.5 * (left + right).imag - turns) > np.pi / 2)
                                | (np.maximum(np.abs(left), np.abs(right)) > np.pi))
        if coarse.size == 0:
            break
        if z.size + coarse.size > CONTOUR_MAX_POINTS:
            raise EigenSolverError("an eigenvalue lies too close to the edge of the counting box")
        middle = 0.5 * (z[coarse] + z[coarse + 1])
        samples = np.insert(samples, coarse + 1, [middle, *_blocked_phase(diag, couplings, middle)],
                            axis=1)
    count = int(round(np.sum(turns) / (2.0 * np.pi)))
    moment = np.sum(0.5 * (z[1:] + z[:-1]) * (np.diff(log_det.real) + 1j * turns)) / (2j * np.pi)
    sigma = moment / max(count, 1) + SHIFT_OFFSET * max(re_hi - re_lo, im_hi - im_lo)
    sigma = sigma if np.isfinite(sigma) else complex(0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi))
    sigma = complex(np.clip(sigma.real, re_lo, re_hi), np.clip(sigma.imag, im_lo, im_hi))
    return count, z.size, sigma if count else None


def _tridiagonal_lu(diag, lower, upper):
    """M = LU without pivoting, as the factors of _tridiagonal_solve: the
    prefix products of Ly = b, 1/u and those of Ux = y from the last row
    up.  With l and r the lower and upper bands, the pivots are
    u_j = d_j - l_(j-1) r_(j-1) / u_(j-1) from u_0 = d_0, L has multipliers
    m_j = l_(j-1) / u_(j-1) and U the upper band r_j, so y_j = b_j -
    m_j y_(j-1), x_j = y_j / u_j - (r_j / u_j) x_(j+1).  A pivot with
    |u_j| <= eps max|d| is refused before the next row divides by it."""
    tiny = np.finfo(float).eps * float(np.max(np.abs(diag)))
    pivots, pivot = [], 1.0
    for d, c in zip(diag.tolist(), [0.0] + (lower * upper).tolist()):
        pivot = d - c / pivot
        pivots.append(pivot)
        if not abs(pivot) > tiny:
            raise EigenSolverError("pivot %d of the shifted factorization vanished" % len(pivots))
    pivots = np.array(pivots, dtype=complex)
    inverse = 1.0 / pivots
    backward = np.concatenate(([0j], (-upper * inverse[:-1])[::-1]))
    forward = np.concatenate(([0j], -lower / pivots[:-1]))
    return _prefix_products(forward), inverse, _prefix_products(backward)


def _prefix_products(coef):
    """The factor of _scan for x_j = f_j + coef_j x_(j-1), coef_0 unread,
    as (P, 1/P, segments): x = P cumsum(f / P), with P_j the product of
    coef_1 ... coef_j.

    P restarts at 1 on the row where it falls 2^-RESTART_BITS below its
    value at the segment's start.  The few segments (start, stop,
    coef_start, rows, bases) are summed one after another, each start
    taking coef_start x_(start-1) as its carry.  A zero coefficient coef_z
    makes x_z = f_z with no carry: P takes the factor 1/2 there, which
    keeps the sums before z from swamping those after it, and the rows j
    of the segment from z on subtract the sum up to z - 1 (bases = z - 1
    for rows = j).  A product that grows to 2^1023 over some span is
    refused, like a vanishing pivot, so 2^-RESTART_BITS <= |P| < 2^1023
    and neither P nor 1/P overflows."""
    n = coef.size
    zero = coef == 0
    zero[0] = False
    factor = np.where(zero, 0.5, coef)
    factor[0] = 1.0
    bits = np.cumsum(np.log2(np.abs(factor)))
    low = np.minimum.accumulate(bits)
    if np.max(bits - low) >= 1023:  # a span's product reaches the float range's top binade
        raise EigenSolverError("the prefix products of the shifted factorization overflow")
    # every row before a restart lies above it, so the running minimum finds the next
    starts = [0]
    while True:
        start = int(np.searchsorted(-low, RESTART_BITS - bits[starts[-1]], side="right"))
        if start >= n:
            break
        starts.append(start)
    last = np.maximum.accumulate(np.where(zero, np.arange(n), 0)) if np.any(zero) else None
    segments = []
    for start, stop in zip(starts, starts[1:] + [n]):
        factor[start] = 1.0
        rows = bases = None
        if last is not None and last[stop - 1] > start:
            rows = np.arange(start, stop)[last[start:stop] > start]
            bases = last[rows] - 1
        segments.append((start, stop, coef[start], rows, bases))
        np.cumprod(factor[start:stop], out=factor[start:stop])
    return factor, 1.0 / factor, segments


def _scan(factor, f):
    """x with x_j = f_j + coef_j x_(j-1), from the factor of _prefix_products:
    per segment one cumulative sum of f / P, less the sums before a zero
    coefficient, times P; one segment takes three numpy calls."""
    products, inverse, segments = factor
    x = f * inverse
    for start, stop, carry, rows, bases in segments:
        part = x[start:stop]
        if carry:  # coef_0 and a zero coefficient carry nothing
            part[0] += carry * x[start - 1]
        np.cumsum(part, out=part)
        if rows is not None:
            x[rows] -= x[bases]
        part *= products[start:stop]
    return x


def _tridiagonal_solve(factors, rhs):
    """x with LU x = rhs: the scan of L, then that of U on reversed rows."""
    forward, inverse, backward = factors
    return _scan(backward, (_scan(forward, rhs) * inverse)[::-1])[::-1]


def _shift_invert_ritz(factors, sigma):
    """Ritz pairs of (M - sigma)^-1, M - sigma = LU by factors, from Arnoldi
    with full (twice repeated Gram-Schmidt) reorthogonalization and a
    fixed-seed start vector.  A step that closes an invariant subspace (see
    INVARIANT) sets h_(k+1,k) = 0 and goes on from a fresh vector of the same
    generator, orthogonalized twice.

    Yields the Krylov dimension m with the converged pairs there
    (eigenvalues sigma + 1/theta, unit Ritz vectors as columns), at
    m = KRYLOV_START and then m + max(KRYLOV_START, m // 2) (8, 16, 24, 36,
    54, ...) up to min(n, KRYLOV_CAP); each extends the previous basis,
    whose rows and (m + 1) x m Hessenberg matrix grow by one copy into new
    zeros (_grown)."""
    n = factors[1].size
    rng = np.random.default_rng(KRYLOV_SEED)
    start = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    limit = min(n, KRYLOV_CAP)
    m = min(KRYLOV_START, limit)
    basis = np.zeros((m + 1, n), dtype=complex)
    hessenberg = np.zeros((m + 1, m), dtype=complex)
    basis[0] = start / np.linalg.norm(start)
    k = 0
    while True:
        for k in range(k, m):
            w = _tridiagonal_solve(factors, basis[k])
            size = np.linalg.norm(w)
            hessenberg[:k + 1, k] = _orthogonalize(basis[:k + 1], w)
            beta = np.linalg.norm(w)
            if beta > INVARIANT * size:
                hessenberg[k + 1, k] = beta
                basis[k + 1] = w / beta
            elif k + 1 < n:  # h_(k+1,k) stays 0; a complete basis needs no next vector
                w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                _orthogonalize(basis[:k + 1], w)
                basis[k + 1] = w / np.linalg.norm(w)
        theta, ritz = np.linalg.eig(hessenberg[:m])
        converged = np.abs(hessenberg[m, m - 1] * ritz[m - 1]) <= TAU_RITZ * np.abs(theta)
        yield m, sigma + 1.0 / theta[converged], basis[:m].T @ ritz[:, converged]
        if m >= limit:
            return
        k, m = m, min(m + max(KRYLOV_START, m // 2), limit)
        basis = _grown(basis, (m + 1, n))
        hessenberg = _grown(hessenberg, (m + 1, m))


def _grown(array, shape):
    """A zero array of shape with array copied into its leading corner."""
    out = np.zeros(shape, dtype=array.dtype)
    out[:array.shape[0], :array.shape[1]] = array
    return out


def _orthogonalize(basis, w):
    """Removes from w, in place, its projection on the orthonormal rows of
    basis by twice repeated Gram-Schmidt; returns the summed coefficients."""
    total = 0
    for _ in range(2):
        coef = (basis @ w.conj()).conj()
        w -= coef @ basis
        total += coef
    return total


def _band_residuals(bands, values, vectors):
    """||M v - lambda v||_2 / (||M||_F ||v||_2) per column, from the bands;
    0, not 0/0, for M = 0, as in operators.hermiticity_residual."""
    frobenius = _frobenius(bands)
    if frobenius == 0.0:
        return np.zeros(values.size)
    n = vectors.shape[0]
    if len(bands) ** 2 > n:  # many diagonals: one dense product, as in operators._product
        applied = DiscreteOperator(bands).matrix @ vectors
    else:
        applied = np.zeros_like(vectors)
        for k, band in bands.items():
            applied[max(-k, 0):n - max(k, 0)] += band[:, None] * vectors[max(k, 0):n - max(-k, 0)]
    defect = np.linalg.norm(applied - vectors * values, axis=0)
    return defect / (frobenius * np.linalg.norm(vectors, axis=0))


def merge_split_levels(report):
    """One entry per defective level that the discrete problem splits.

    At an exceptional point a level has algebraic multiplicity 2 but a
    single eigenvector.  A perturbation of size e splits it into eigenvalues
    about sqrt(e) apart whose eigenvectors stay parallel; only their mean
    converges (Kato, Perturbation Theory for Linear Operators).  The
    perturbation is the step h and the truncation of the line to the box;
    on the catalog boxes the truncation dominates (scarf2 A=4 at fixed h:
    split 7.7e-3 on [-12, 12], 1.5e-3 on [-16, 16]).  Eigenvalues
    at most SPLIT_WINDOW apart whose unit right eigenvectors have
    1 - |<v, w>| <= TAU_PARALLEL form one group.  Eigenvectors are compared
    only for such nearby pairs.  A group is reported at its mean, with the
    largest residual of its members, the eigenvector of one member and its
    size.
    """
    values = report.eigenvalues
    vectors = report.eigenvectors
    group = np.arange(values.size)  # each group is labelled by one member
    order = np.argsort(values.real, kind="stable")
    for pos, i in enumerate(order):
        for j in order[pos + 1:]:
            if values[j].real - values[i].real > SPLIT_WINDOW:
                break
            if abs(values[j] - values[i]) > SPLIT_WINDOW:
                continue
            cos = abs(np.vdot(vectors[:, i], vectors[:, j])) / (
                np.linalg.norm(vectors[:, i]) * np.linalg.norm(vectors[:, j]))
            if 1.0 - cos <= TAU_PARALLEL:
                group[group == group[j]] = group[i]
    heads, labels = np.unique(group, return_inverse=True)
    sizes = np.bincount(labels)
    means = values[heads]
    for g in np.flatnonzero(sizes > 1):
        means[g] = np.mean(values[labels == g])
    residuals = np.zeros(heads.size)
    np.maximum.at(residuals, labels, report.residuals)
    return _report(means, vectors[:, heads], residuals, group_sizes=sizes,
                   matches=report.matches)


def bound_state_filter(report, grid, v_inf):
    """Keep eigenvalues below v_inf whose eigenvectors hold at least 99.9%
    of their l2 mass in the inner 80% of the grid, with each split defective
    level merged into one entry (merge_split_levels)."""
    margin = int(round(0.5 * (1.0 - INNER_FRACTION) * grid.n))
    # one vector per contiguous row: numpy then sums each vector pairwise,
    # as np.sum does for one vector, where a column sum adds row by row
    mass = np.abs(report.eigenvectors.T, order="C") ** 2
    inner = np.sum(mass[:, margin:grid.n - margin], axis=1)
    keep = (report.eigenvalues.real < v_inf) & (
        inner >= BOUND_MASS_FRACTION * np.sum(mass, axis=1))
    return merge_split_levels(_report(
        report.eigenvalues[keep], report.eigenvectors[:, keep], report.residuals[keep]))


def match_levels(report, analytic, tol):
    """Greedy nearest pairing of analytic levels with computed eigenvalues.

    A report whose split levels are not merged yet (group_sizes None) is
    merged first, so a split defective level is matched at its group mean.
    Pairs are assigned in order of increasing distance, each eigenvalue
    used at most once; a pair with distance > tol leaves its level
    unmatched.  The result is ordered like sorted(analytic), so it does
    not depend on the input permutation.
    """
    levels = sorted(analytic)
    if not levels:
        return []
    if report.group_sizes is None:
        report = merge_split_levels(report)
    values = report.eigenvalues
    # hypot rounds like the scalar abs(); np.abs on a complex array does not
    gap = values[None, :] - np.array(levels, dtype=float)[:, None]
    distance = np.hypot(gap.real, gap.imag)
    # a stable sort of the flattened matrix orders pairs by (distance, i, j)
    rows, cols = np.unravel_index(np.argsort(distance, axis=None, kind="stable"), distance.shape)
    matches, used = {}, set()
    for i, j in zip(rows.tolist(), cols.tolist()):
        if i not in matches and j not in used:
            d = float(distance[i, j])
            matches[i] = LevelMatch(levels[i], complex(values[j]), d, d <= tol)
            used.add(j)
    return [matches.get(i, LevelMatch(lv, complex("nan"), float("inf"), False))
            for i, lv in enumerate(levels)]


def catalog_states(report, grid, entry, tol_level):
    """(states, matches): the one rule for the states a catalog spectrum
    compares with its analytic levels, and their matches within tol_level.

    A model with a continuum threshold keeps its bound states
    (bound_state_filter); one without keeps every eigenvalue below its
    spectrum_window, split levels merged.  A window report is already inside
    its window, so there the cut is a no-op; it matters for a dense report.
    entry is a catalog entry, grid the one the report was solved on."""
    if entry.continuum_threshold is not None:
        states = bound_state_filter(report, grid, entry.continuum_threshold)
    else:
        keep = report.eigenvalues.real < entry.spectrum_window
        states = merge_split_levels(_report(
            report.eigenvalues[keep], report.eigenvectors[:, keep], report.residuals[keep]))
    return states, tuple(match_levels(states, entry.analytic_levels, tol_level))


def eigenfunction_residual(model, grid, psi, energy):
    """||H psi - E psi||_2 / ||psi||_2 with the difference stencil applied
    directly to psi sampled on the closed interval [a, b].

    Sampling the two boundary points from the callable keeps the stencil
    consistent in the outermost rows, where the Dirichlet matrix would
    otherwise inject the truncation error of psi(a), psi(b) at 1/h^2.
    A psi that raises TypeError on an array, or returns another shape for
    it, is sampled point by point.
    """
    closed = grid.a + grid.h * np.arange(0, grid.n + 2)
    try:
        samples = np.asarray(psi(closed), dtype=complex)
    except TypeError:  # a psi written for scalars, with the math module
        samples = None
    if samples is None or samples.shape != closed.shape:
        samples = np.array([psi(t) for t in closed], dtype=complex)
    inner = samples[1:-1]
    norm = np.linalg.norm(inner)
    if norm < 1e-12 * grid.n:
        raise ZeroEigenfunctionError(
            "eigenfunction is numerically zero on the grid (norm %.3g)" % norm
        )
    second = (-samples[:-2] + 2.0 * inner - samples[2:]) / grid.h**2
    applied = second + effective_potential(model, grid.points) * inner
    return float(np.linalg.norm(applied - energy * inner) / norm)


def report_to_dict(report):
    """JSON-ready form: eigenvalues as [re, im] sorted by real part,
    group_sizes for a report whose split levels were merged, and below with
    certified_count, sigma as [re, im] (null without a shift),
    krylov_dimension and contour_points for a window solve."""
    data = {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in report.eigenvalues],
        "residuals": [float(r) for r in report.residuals],
        "reality_flags": [bool(f) for f in report.reality_flags],
    }
    if report.certified_count is not None:
        data["below"] = float(report.below)
        data["certified_count"] = int(report.certified_count)
        data["sigma"] = None if report.sigma is None else [
            float(report.sigma.real), float(report.sigma.imag)]
        data["krylov_dimension"] = int(report.krylov_dimension)
        data["contour_points"] = int(report.contour_points)
    if report.group_sizes is not None:
        data["group_sizes"] = [int(k) for k in report.group_sizes]
    if report.matches:
        # a level paired with no eigenvalue has eigenvalue and distance null
        data["matches"] = [
            {
                "level": float(m.level),
                "eigenvalue": [float(m.eigenvalue.real), float(m.eigenvalue.imag)]
                if np.isfinite(m.distance) else None,
                "distance": float(m.distance) if np.isfinite(m.distance) else None,
                "matched": bool(m.matched),
            }
            for m in report.matches
        ]
    return data

