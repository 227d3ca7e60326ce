"""Dense non-Hermitian eigensolver wrapper and spectrum post-processing.

Eigenvalues come from LAPACK's dense QR pipeline (zgeev: balancing,
Hessenberg reduction, shifted QR) as numpy.linalg ships it.  Post-processing
classifies reality, reports a defective level that discretization split in
two as one level at its group mean, separates grid-localized bound states
from discretized continuum, matches computed levels against analytic ones,
and measures how well a closed-form eigenfunction satisfies the discrete
eigenvalue equation.
"""

from dataclasses import dataclass, field

import numpy as np

from .generator import effective_potential
from .operators import _matrix

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


class EigenSolverError(RuntimeError):
    """The QR iteration failed to converge."""


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
    """Eigenvalues sorted by real part, with right-eigenvector residuals
    ||Mv - lambda v||_2 / (||M||_F ||v||_2) and reality flags
    |Im| <= TAU_REAL * max(1, |Re|).  group_sizes, set once split levels
    are merged, counts the computed eigenvalues behind each entry."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    reality_flags: np.ndarray
    eigenvectors: np.ndarray
    matches: tuple = field(default_factory=tuple)
    group_sizes: np.ndarray = None


def is_real_eigenvalue(value, tol=TAU_REAL):
    return abs(value.imag) <= tol * max(1.0, abs(value.real))


def eig(op):
    """Full spectrum with right eigenvectors and per-eigenvalue residuals."""
    matrix = np.asarray(_matrix(op), dtype=complex)
    if not np.all(np.isfinite(matrix)):
        raise EigenSolverError("matrix contains non-finite entries")
    try:
        values, vectors = np.linalg.eig(matrix)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError("QR iteration did not converge: %s" % exc) from exc
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    scale = np.linalg.norm(matrix)
    defect = matrix @ vectors - vectors * values
    residuals = np.linalg.norm(defect, axis=0) / (
        scale * np.linalg.norm(vectors, axis=0)
    )
    flags = np.array([is_real_eigenvalue(v) for v in values])
    return SpectrumReport(
        eigenvalues=values,
        residuals=residuals,
        reality_flags=flags,
        eigenvectors=vectors,
    )


def merge_split_levels(report):
    """One entry per defective level that the discretization split.

    At an exceptional point a level has algebraic multiplicity 2 but a
    single eigenvector.  A perturbation of size e splits it into eigenvalues
    about sqrt(e) apart whose eigenvectors stay parallel; only their mean
    converges (Kato, Perturbation Theory for Linear Operators).  Eigenvalues
    at most SPLIT_WINDOW apart whose unit right eigenvectors have
    1 - |<v, w>| <= TAU_PARALLEL form one group.  Eigenvectors are compared
    only for such nearby pairs.  A group is reported at its mean, with the
    largest residual of its members, the eigenvector of one member and its
    size.
    """
    values = report.eigenvalues
    vectors = report.eigenvectors
    root = np.arange(values.size)

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    order = np.argsort(values.real, kind="stable")
    for pos, i in enumerate(order):
        for j in order[pos + 1:]:
            if values[j].real - values[i].real > SPLIT_WINDOW:
                break
            if abs(values[j] - values[i]) > SPLIT_WINDOW:
                continue
            cos = abs(np.vdot(vectors[:, i], vectors[:, j])) / (
                np.linalg.norm(vectors[:, i]) * np.linalg.norm(vectors[:, j])
            )
            if 1.0 - cos <= TAU_PARALLEL:
                root[find(j)] = find(i)
    heads, labels = np.unique(
        np.array([find(k) for k in range(values.size)], dtype=int), return_inverse=True
    )
    means = values[heads]
    for g in np.flatnonzero(np.bincount(labels) > 1):
        members = labels == g
        means[g] = np.mean(values[members])
    residuals = np.zeros(heads.size)
    np.maximum.at(residuals, labels, report.residuals)
    order = np.lexsort((means.imag, means.real))
    means = means[order]
    return SpectrumReport(
        eigenvalues=means,
        residuals=residuals[order],
        reality_flags=np.array([is_real_eigenvalue(v) for v in means], dtype=bool),
        eigenvectors=vectors[:, heads[order]],
        matches=report.matches,
        group_sizes=np.bincount(labels)[order],
    )


def bound_state_filter(report, grid, v_inf):
    """Keep eigenvalues below v_inf whose eigenvectors hold at least 99.9%
    of their l2 mass in the inner 80% of the grid, with each split defective
    level merged into one entry (merge_split_levels)."""
    n = grid.n
    margin = int(round(0.5 * (1.0 - INNER_FRACTION) * n))
    inner = slice(margin, n - margin)
    keep = []
    for i, value in enumerate(report.eigenvalues):
        if value.real >= v_inf:
            continue
        vec = report.eigenvectors[:, i]
        total = np.sum(np.abs(vec) ** 2)
        if np.sum(np.abs(vec[inner]) ** 2) >= BOUND_MASS_FRACTION * total:
            keep.append(i)
    keep = np.array(keep, dtype=int)
    return merge_split_levels(
        SpectrumReport(
            eigenvalues=report.eigenvalues[keep],
            residuals=report.residuals[keep],
            reality_flags=report.reality_flags[keep],
            eigenvectors=report.eigenvectors[:, keep],
        )
    )


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
    if values.size == 0:
        return [LevelMatch(lv, complex("nan"), float("inf"), False) for lv in levels]
    pairs = sorted(
        ((abs(values[j] - lv), i, j) for i, lv in enumerate(levels) for j in range(values.size)),
        key=lambda t: (t[0], t[1], t[2]),
    )
    assigned = {}
    used = set()
    for distance, i, j in pairs:
        if i in assigned or j in used:
            continue
        assigned[i] = (values[j], distance)
        used.add(j)
    out = []
    for i, lv in enumerate(levels):
        value, distance = assigned.get(i, (complex("nan"), float("inf")))
        out.append(LevelMatch(lv, complex(value), float(distance), distance <= tol))
    return out


def eigenfunction_residual(model, grid, psi, energy):
    """||H psi - E psi||_2 / ||psi||_2 with the difference stencil applied
    directly to psi sampled on the closed interval [a, b].

    Sampling the two boundary points from the callable keeps the stencil
    consistent in the outermost rows, where the Dirichlet matrix would
    otherwise inject the truncation error of psi(a), psi(b) at 1/h^2.
    """
    closed = grid.a + grid.h * np.arange(0, grid.n + 2)
    samples = np.asarray(psi(closed), dtype=complex)
    if samples.shape != closed.shape:
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
    """JSON-ready form: eigenvalues as [re, im] sorted by real part, and
    group_sizes for a report whose split levels were merged."""
    data = {
        "eigenvalues": [[float(v.real), float(v.imag)] for v in report.eigenvalues],
        "residuals": [float(r) for r in report.residuals],
        "reality_flags": [bool(f) for f in report.reality_flags],
    }
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

