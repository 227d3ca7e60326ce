"""Non-Hermitian eigensolver and spectrum post-processing.

eig is the one solver entry point, with two paths:

- Without a window it returns the full spectrum from LAPACK's dense QR
  pipeline (zgeev: balancing, Hessenberg reduction, shifted QR) as
  numpy.linalg ships it.  Plain matrices take this path.
- eig(op, below=E) returns only the eigenvalues with real part below E of
  a tridiagonal operator, in O(N m) time and memory with no N x N array.
  H = A + iB with A, B Hermitian, so every eigenvalue lies in the box
  Re in [min spec A, E], Im in [min spec B, max spec B], bounded through
  Gershgorin discs of A and B.  The argument principle (Delves & Lyness,
  Math. Comp. 21, 1967) counts the eigenvalues in that box: det(H - z)
  comes from the ratio recurrence r_j = d_j - z - l_(j-1) u_(j-1) / r_(j-1)
  around its edge.  Shift-invert Arnoldi (the design of ARPACK; Lehoucq,
  Sorensen & Yang, 1998) with the shift at the box centre and full
  reorthogonalization finds them, and its Krylov dimension doubles until
  the converged Ritz values in the box number exactly the certified count.
  A mismatch at the largest dimension raises EigenSolverError.

Post-processing reports a defective level that discretization split in
two as one level at its group mean, separates grid-localized bound states
from discretized continuum, matches computed levels against analytic ones,
and measures how well a closed-form eigenfunction satisfies the discrete
eigenvalue equation.  Every report comes from one constructor, _report,
which sorts it by (re, im) and sets its reality flags.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from .generator import effective_potential
from .operators import _matrix, _operator

TAU_REAL = 1e-5
# Two eigenvalues at most SPLIT_WINDOW apart whose unit right eigenvectors
# v, w have 1 - |<v, w>| <= TAU_PARALLEL are one defective level split by the
# discretization.  The split pairs of the catalog models (scarf2 at even A,
# periodic level 4) sit about 8e-3 apart with 1 - |<v, w>| between 8e-6 and
# 3.1e-5; every other pair that close has 1 - |<v, w>| >= 0.9.
TAU_PARALLEL = 1e-3
SPLIT_WINDOW = 0.05
TAU_SOLVER = 1e-8
BOUND_MASS_FRACTION = 0.999
INNER_FRACTION = 0.8

# Window solver.  The box is widened on its left, top and bottom edges by
# BOX_PAD times its larger side, so that no eigenvalue lies near them; its
# right edge is the window's `below`.
BOX_PAD = 0.05
CONTOUR_POINTS = 1024
# Contour segments over which the phase of det(H - z) turns by more than
# PHASE_STEP are halved.  Along one straight segment each eigenvalue turns
# the phase by less than pi, so a measured turn that small is the true one
# unless two eigenvalues crowd the same segment.
PHASE_STEP = np.pi / 4
CONTOUR_MAX_POINTS = 1 << 16
# A Ritz pair (theta, y) of (H - sigma)^-1 has converged when the Arnoldi
# residual estimate |h_(m+1,m) y_m| is at most TAU_RITZ |theta|.
TAU_RITZ = 1e-12
KRYLOV_START = 40
KRYLOV_CAP = 640
KRYLOV_SEED = 20261018
SOLVE_BLOCK = 16


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
    with real part below it."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    reality_flags: np.ndarray
    eigenvectors: np.ndarray
    matches: tuple = field(default_factory=tuple)
    group_sizes: np.ndarray = None
    below: float = None
    certified_count: int = None


def _report(values, vectors, residuals, group_sizes=None, **fields):
    """The report of eigenpairs (values, columns of vectors), sorted by
    (re, im).  residuals and group_sizes follow the order of values;
    residuals may instead be a function of the sorted values and vectors,
    since a BLAS product rounds a column differently by its position.
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
    """Eigenvalues with right eigenvectors and per-eigenvalue residuals: the
    full spectrum, or with `below` those of a tridiagonal operator whose
    real part is below it, their number certified by the argument
    principle."""
    if below is not None:
        return _eig_window(_operator(op), float(below))
    matrix = np.asarray(_matrix(op), dtype=complex)
    if not np.all(np.isfinite(matrix)):
        raise EigenSolverError("matrix contains non-finite entries")
    try:
        values, vectors = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError("QR iteration did not converge: %s" % exc) from exc
    scale = np.linalg.norm(matrix)
    return _report(values, vectors, lambda values, vectors: np.linalg.norm(
        matrix @ vectors - vectors * values, axis=0) / (scale * np.linalg.norm(vectors, axis=0)))


def _eig_window(op, below):
    if not set(op.bands) <= {-1, 0, 1}:
        raise ValueError("a window solve needs a tridiagonal operator, got"
                         " diagonals %s" % sorted(op.bands))
    n = op.n
    diag = op.bands[0]
    lower = op.bands.get(-1, np.zeros(n - 1, dtype=complex))
    upper = op.bands.get(1, np.zeros(n - 1, dtype=complex))
    if not all(np.all(np.isfinite(band)) for band in (diag, lower, upper)):
        raise EigenSolverError("matrix contains non-finite entries")
    box = window_box(diag, lower, upper, below)
    count = 0 if box is None else window_count(diag, lower * upper, box)
    values = np.zeros(0, dtype=complex)
    vectors = np.zeros((n, 0), dtype=complex)
    if count:
        sigma = complex(0.5 * (box[0] + box[1]), 0.5 * (box[2] + box[3]))
        factors = _tridiagonal_lu(lower, diag - sigma, upper)
        for values, vectors in _shift_invert_ritz(factors, n, sigma):
            keep = _inside(box, values)
            if np.count_nonzero(keep) == count:
                values, vectors = values[keep], vectors[:, keep]
                break
        else:
            raise EigenSolverError(
                "%d converged Ritz values below %g, but the argument principle"
                " counts %d eigenvalues there"
                % (np.count_nonzero(keep), below, count)
            )
    return _report(values, vectors, functools.partial(_band_residuals, diag, lower, upper),
                   below=below, certified_count=count)


def window_box(diag, lower, upper, below):
    """(re_lo, below, im_lo, im_hi): a box that holds every eigenvalue of the
    tridiagonal matrix with real part below `below`, or None when no
    eigenvalue can have one.

    For an eigenpair, lambda = v*Av / v*v + i v*Bv / v*v with the Hermitian
    A = (M + M^dag)/2 and B = (M - M^dag)/2i, so Re lambda and Im lambda lie
    in the Gershgorin intervals of A and B."""
    a_off = 0.5 * (upper + lower.conj())
    b_off = -0.5j * (upper - lower.conj())

    def radii(off):
        mags = np.abs(off)
        return np.concatenate(([0.0], mags)) + np.concatenate((mags, [0.0]))

    re_lo = float(np.min(diag.real - radii(a_off)))
    b_radii = radii(b_off)
    im_lo = float(np.min(diag.imag - b_radii))
    im_hi = float(np.max(diag.imag + b_radii))
    if below <= re_lo:
        return None
    pad = BOX_PAD * max(below - re_lo, im_hi - im_lo)
    return (re_lo - pad, below, im_lo - pad, im_hi + pad)


def _inside(box, values):
    re_lo, re_hi, im_lo, im_hi = box
    return ((values.real > re_lo) & (values.real < re_hi)
            & (values.imag > im_lo) & (values.imag < im_hi))


def _det_phase(diag, couplings, z):
    """det(M - z) / |det(M - z)| at each point z, from the ratio recurrence
    r_1 = d_1 - z, r_j = d_j - z - couplings_(j-1) / r_(j-1) whose product
    is the determinant; couplings_j = M[j+1, j] M[j, j+1]."""
    ratio = diag[0] - z
    phase = ratio / np.abs(ratio)
    for j in range(1, diag.size):
        ratio = (diag[j] - z) - couplings[j - 1] / ratio
        phase *= ratio
        if j % 16 == 0:  # keep |phase| far from overflow and underflow
            phase /= np.abs(phase)
    phase /= np.abs(phase)
    if not np.all(np.isfinite(phase)):
        raise EigenSolverError("det(H - z) vanished on the counting contour")
    return phase


def window_count(diag, couplings, box):
    """Number of eigenvalues of the tridiagonal matrix inside the box, as the
    winding number of det(M - z) around its edge (argument principle).

    The edge starts as CONTOUR_POINTS points spread over the four sides by
    length, and each segment over which the phase turns by more than
    PHASE_STEP is halved until none does."""
    re_lo, re_hi, im_lo, im_hi = box
    corners = [complex(re_lo, im_lo), complex(re_hi, im_lo),
               complex(re_hi, im_hi), complex(re_lo, im_hi)]
    perimeter = 2.0 * ((re_hi - re_lo) + (im_hi - im_lo))
    sides = []
    for start, end in zip(corners, corners[1:] + corners[:1]):
        k = max(16, int(CONTOUR_POINTS * abs(end - start) / perimeter))
        sides.append(start + (end - start) * np.arange(k) / k)
    z = np.concatenate(sides + [np.array([corners[0]])])
    phase = _det_phase(diag, couplings, z)
    while True:
        turns = np.angle(phase[1:] * phase[:-1].conj())
        coarse = np.flatnonzero(np.abs(turns) > PHASE_STEP)
        if coarse.size == 0:
            return int(round(np.sum(turns) / (2.0 * np.pi)))
        if z.size + coarse.size > CONTOUR_MAX_POINTS:
            raise EigenSolverError(
                "an eigenvalue lies too close to the edge of the counting box")
        middle = 0.5 * (z[coarse] + z[coarse + 1])
        phase = np.insert(phase, coarse + 1, _det_phase(diag, couplings, middle))
        z = np.insert(z, coarse + 1, middle)


def _tridiagonal_lu(lower, diag, upper):
    """M = LU without pivoting, prepared for _tridiagonal_solve.

    L is unit lower bidiagonal and U upper bidiagonal.  Padded with
    identity rows to whole blocks of SOLVE_BLOCK rows, each is kept as the
    inverses of its diagonal blocks and the one entry per block that
    couples it to the block before (L) or after (U)."""
    n = diag.size
    tiny = np.finfo(float).eps * float(np.max(np.abs(diag)))
    pivots = [complex(diag[0])]
    multipliers = [0j]
    for a, d, c in zip(lower.tolist(), diag[1:].tolist(), upper.tolist()):
        if abs(pivots[-1]) <= tiny:
            break
        multipliers.append(a / pivots[-1])
        pivots.append(d - multipliers[-1] * c)
    if abs(pivots[-1]) <= tiny:
        raise EigenSolverError(
            "pivot %d of the shifted factorization vanished" % len(pivots))
    size = SOLVE_BLOCK
    blocks = -(-n // size)
    pad = blocks * size - n
    l = np.concatenate((multipliers, np.zeros(pad))).reshape(blocks, size)
    u = np.concatenate((pivots, np.ones(pad))).reshape(blocks, size)
    c = np.concatenate((upper, np.zeros(pad + 1))).reshape(blocks, size)
    lower_inv = np.zeros((blocks, size, size), dtype=complex)
    lower_inv[:, 0, 0] = 1.0
    for i in range(1, size):
        lower_inv[:, i, :i] = -l[:, i, None] * lower_inv[:, i - 1, :i]
        lower_inv[:, i, i] = 1.0
    upper_inv = np.zeros((blocks, size, size), dtype=complex)
    upper_inv[:, -1, -1] = 1.0 / u[:, -1]
    for i in range(size - 2, -1, -1):
        upper_inv[:, i, i + 1:] = -c[:, i, None] * upper_inv[:, i + 1, i + 1:] / u[:, i, None]
        upper_inv[:, i, i] = 1.0 / u[:, i]
    return n, lower_inv, upper_inv, -l[:, 0], -c[:, -1]


def _carry(coupling, ends, gain):
    """t_0 = 0, t_k = coupling_k (ends_(k-1) + t_(k-1) gain_(k-1)): the
    multiple of a block's edge column that the block before it adds."""
    out = [0j]
    for c, e, g in zip(coupling[1:].tolist(), ends[:-1].tolist(), gain[:-1].tolist()):
        out.append(c * (e + out[-1] * g))
    return np.array(out)


def _tridiagonal_solve(factors, rhs):
    """x with LU x = rhs: each block solved on its own by one batched
    product, then corrected through the entry that couples it to its
    neighbour, forward through L and backward through U."""
    n, lower_inv, upper_inv, lower_coupling, upper_coupling = factors
    blocks, size, _ = lower_inv.shape
    padded = np.zeros((blocks, size, 1), dtype=complex)
    padded.reshape(-1)[:n] = rhs
    local = np.matmul(lower_inv, padded)[:, :, 0]
    carry = _carry(lower_coupling, local[:, -1], lower_inv[:, -1, 0])
    forward = local + carry[:, None] * lower_inv[:, :, 0]
    local = np.matmul(upper_inv, forward[:, :, None])[:, :, 0]
    carry = _carry(upper_coupling[::-1], local[::-1, 0], upper_inv[::-1, 0, -1])[::-1]
    return (local + carry[:, None] * upper_inv[:, :, -1]).reshape(-1)[:n]


def _shift_invert_ritz(factors, n, sigma):
    """Ritz pairs of (M - sigma)^-1 from Arnoldi with full (twice repeated
    Gram-Schmidt) reorthogonalization and a fixed-seed start vector.

    Yields the converged pairs (eigenvalues sigma + 1/theta, unit Ritz
    vectors as columns) at Krylov dimensions m = KRYLOV_START, 2m, ... up
    to min(n, KRYLOV_CAP); each extends the previous basis."""
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
            for _ in range(2):
                coef = (basis[:k + 1] @ w.conj()).conj()
                w -= coef @ basis[:k + 1]
                hessenberg[:k + 1, k] += coef
            beta = np.linalg.norm(w)
            hessenberg[k + 1, k] = beta
            if beta == 0.0:  # the Krylov space is invariant: every pair is exact
                m = k + 1
                break
            basis[k + 1] = w / beta
        theta, ritz = np.linalg.eig(hessenberg[:m, :m])
        converged = np.abs(hessenberg[m, m - 1] * ritz[m - 1]) <= TAU_RITZ * np.abs(theta)
        yield sigma + 1.0 / theta[converged], basis[:m].T @ ritz[:, converged]
        if m >= limit or hessenberg[m, m - 1] == 0.0:
            return
        k, m = m, min(2 * m, limit)
        basis = np.pad(basis, ((0, m - k), (0, 0)))
        hessenberg = np.pad(hessenberg, ((0, m - k), (0, m - k)))


def _band_residuals(diag, lower, upper, values, vectors):
    """||M v - lambda v||_2 / (||M||_F ||v||_2) per column, from the bands."""
    applied = diag[:, None] * vectors
    applied[:-1] += upper[:, None] * vectors[1:]
    applied[1:] += lower[:, None] * vectors[:-1]
    defect = np.linalg.norm(applied - vectors * values, axis=0)
    scale = np.linalg.norm(np.concatenate((diag, lower, upper)))
    return defect / (scale * np.linalg.norm(vectors, axis=0))


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
    certified_count for a window solve."""
    data = {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in report.eigenvalues],
        "residuals": [float(r) for r in report.residuals],
        "reality_flags": [bool(f) for f in report.reality_flags],
    }
    if report.certified_count is not None:
        data["below"] = float(report.below)
        data["certified_count"] = int(report.certified_count)
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

