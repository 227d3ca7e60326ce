"""Ready-made models: three exactly solvable generators and one degenerate
constant generator.

Each model is a MODELS row of data: its parameters, W and its closed-form
antiderivative (parsed once, at import), the known real potential, the
analytic levels, a recommended grid, and a function of the bound parameters
that returns the fields they change (levels, eigenfunctions).  get builds
the spec and checks its antiderivative on the grid span before it calls that
function.  A parameter that makes W vanish (scarf2 A = 0, morse xi = 0,
constant_w W0 = 0) is refused there: I = int W would vanish too, and every
pipeline function divides by it.  alpha and beta are set on the spec, not
parameters.  The morse reference ground state grows like e^(-x/2) towards
the left end of its grid, so its level is not an eigenvalue of the
Dirichlet problem on the real line.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import parse
from .generator import GeneratorSpec, SpecError
from .operators import Grid

PERIODIC_LEVEL_CUTOFF = 8
_PERIODIC_N = range(1, PERIODIC_LEVEL_CUTOFF + 1)
_GRID_N = 2000  # interior points of every recommended grid
# A model with analytic levels but no continuum solves up to this far above
# its top level: periodic up to 17, clear of its next Dirichlet level near
# 81/4 = 20.25.
LEVEL_MARGIN = 1.0


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    spec: GeneratorSpec
    analytic_V: object
    analytic_levels: tuple
    grid: Grid
    eigenfunctions: dict = field(default_factory=dict)
    scarf_s_t: tuple = None
    continuum_threshold: float = None
    notes: str = ""

    @property
    def spectrum_window(self):
        """The `below` of the eigenvalue window that spectrum solves in: the
        continuum threshold, else LEVEL_MARGIN above the top analytic level,
        else None: the model has no spectrum to solve."""
        if self.continuum_threshold is not None:
            return self.continuum_threshold
        if self.analytic_levels:
            return max(self.analytic_levels) + LEVEL_MARGIN
        return None

    @property
    def solvable(self):
        """Whether the model has a spectrum, that is, a spectrum_window."""
        return self.spectrum_window is not None


def scarf_parameters(A):
    """(s, t) = (|A-2|/2, |A+2|/2), the solvable-potential exponents."""
    return (abs(A - 2.0) / 2.0, abs(A + 2.0) / 2.0)


def scarf_levels(A):
    """Distinct levels of both quasi-parity branches, ascending: the ladder
    -(n + (1-|A|)/2)^2 for integers 0 <= n < (|A|-1)/2, plus -1/4.

    The branches are -(n + 1/2 - p)^2 for n < p - 1/2 with p = (t + s)/2
    and (t - s)/2 (Ahmed, Phys. Lett. A 282, 2001); one p is |A|/2, the
    other 1.  A and -A are mirror images with the same spectrum.  For even
    A the branches meet at -1/4, an exceptional point: the level is
    defective, and a discretized spectrum splits it into two eigenvalues
    that eigen.merge_split_levels reports as one.
    """
    A = abs(A)
    ladder = {-((n + (1.0 - A) / 2.0) ** 2) for n in range(math.ceil((A - 1.0) / 2.0))}
    return tuple(sorted(ladder | {-0.25}))


def periodic_eigenfunction(n, x):
    """Closed-form band-edge state on (-pi, pi) at level n^2/4.

    n = 2 degenerates to the zero function (the missing state); callers
    probing it get exact zeros, not an error.
    """
    x = np.asarray(x, dtype=float)
    half = 0.5 * n * (np.pi + x)
    value = (
        ((16.0 - n * n) * np.cos(x) - 2j * (n * n - 4.0) * np.sin(x)) * np.sin(half)
        - 6.0 * n * np.sin(x) * np.cos(half)
    ) / (np.cos(x) + 2j * np.sin(x))
    return complex(value) if value.ndim == 0 else value


def morse_eigenfunction(xi, z_scale=1j):
    """Ground state z^(1/2) e^(-z/2) with z = z_scale * xi * e^(-x).

    The derived scale is i; callers can pass 2i to reproduce the other
    printed variant and observe that it fails the residual check.  With
    z = i xi e^(-x), |psi| = sqrt(xi) e^(-x/2) grows towards -inf, so the
    state is not normalizable on the real line.
    """

    def psi(x):
        z = z_scale * xi * np.exp(-np.asarray(x, dtype=float))
        return np.sqrt(z) * np.exp(-z / 2.0)

    return psi


def _scarf2(A):
    if A == 0.0:
        raise SpecError("model 'scarf2' requires A != 0")
    top = 2 * _GRID_N + 1  # ceil((|A|-1)/2) ladder levels, one per grid point at most
    if abs(A) > top:
        raise SpecError("model 'scarf2' requires |A| <= %d, got A=%g" % (top, A))
    return dict(analytic_levels=scarf_levels(A), scarf_s_t=scarf_parameters(A))


def _morse(xi):
    if xi == 0.0:
        raise SpecError("model 'morse' requires xi != 0")
    return dict(eigenfunctions={0: morse_eigenfunction(xi)})


def _constant_w(W0, C0):
    if W0 == 0.0:
        raise SpecError("constant generator requires W0 != 0")
    return {}


def _row(required, of_params, W, antiderivative, beta=0.0, **fields):
    """A MODELS row: (parameters, spec fields, fixed entry fields, of_params)."""
    spec = dict(W=W, antiderivative=antiderivative, beta=beta)
    return required, spec, fields, of_params


MODELS = {
    "scarf2": _row(
        ("A",),
        _scarf2,
        W=parse("-A*sinh(x)/cosh(x)^2"),
        antiderivative=parse("A/cosh(x)"),
        beta=-0.25,
        analytic_V=parse("-(3+A^2)/(4*cosh(x)^2)"),
        grid=Grid(-12.0, 12.0, _GRID_N),
        continuum_threshold=0.0,
        notes="hyperbolic model, V even and W odd; levels from both quasi-parity"
        " branches below the continuum at 0, which meet at -1/4 for even A",
    ),
    "periodic": _row(
        (),
        lambda: dict(  # a new dict per entry, shared by none
            eigenfunctions={
                n: functools.partial(periodic_eigenfunction, n) for n in _PERIODIC_N
            }
        ),
        W=parse("4*sin(2*x)/(3*(cos(x)^2-4/3)^2)"),
        antiderivative=parse("4/(3*(cos(x)^2-4/3))"),
        beta=1.0,
        analytic_V=parse("(-30*cos(x)^2+24)/(9*(cos(x)^2-4/3)^2)"),
        analytic_levels=tuple(n * n / 4.0 for n in _PERIODIC_N if n != 2),
        grid=Grid(-math.pi, math.pi, _GRID_N),
        notes="levels n^2/4 with the n=2 state missing (its closed form"
        " cancels to zero); box domain fixed at (-pi, pi)",
    ),
    "morse": _row(
        ("xi",),
        _morse,
        W=parse("-xi*exp(-x)"),
        antiderivative=parse("xi*exp(-x)"),
        beta=-0.25,
        analytic_V=parse("-xi^2*exp(-2*x)/4"),
        analytic_levels=(-0.25,),
        grid=Grid(-2.0, 14.0, _GRID_N),
        continuum_threshold=0.0,
        notes="exponential model, not PT symmetric; single analytic"
        " level at -1/4 with eigenfunction scale z = i*xi*exp(-x), which"
        " grows towards -inf, so the real-line grid holds no state there",
    ),
    "constant_w": _row(
        ("W0", "C0"),
        _constant_w,
        W=parse("W0"),
        antiderivative=parse("W0*x + C0"),
        analytic_V=None,
        analytic_levels=(),
        grid=Grid(-20.0, 20.0, _GRID_N),
        notes="degenerate constant generator; the real part of the effective"
        " potential is unbounded below, so no bound states exist and no"
        " spectrum is asserted",
    ),
}

MODEL_NAMES = tuple(MODELS)


def get(name, env=None):
    """Look up a catalog entry; env binds exactly the model's parameters."""
    env = env or {}
    if name not in MODELS:
        raise SpecError(
            "unknown model '%s'; available: %s" % (name, ", ".join(MODEL_NAMES))
        )
    required, spec_fields, fields, of_params = MODELS[name]
    for param in (*required, *env):
        if param not in env:
            raise SpecError("model '%s' requires parameter '%s'" % (name, param))
        if param not in required:
            raise SpecError("model '%s' takes no parameter '%s'" % (name, param))
    params = {param: float(env[param]) for param in required}
    grid = fields["grid"]
    spec = GeneratorSpec(env=params, check_interval=(grid.a, grid.b), **spec_fields)
    return CatalogEntry(name=name, spec=spec, **fields, **of_params(**params))
