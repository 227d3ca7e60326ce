"""Ready-made models: three exactly solvable generators and one degenerate
constant generator.

Each solvable entry bundles the generator spec with its closed-form
antiderivative, the known real potential, the analytic bound/band levels,
eigenfunction formulas where available, and a recommended grid.  The morse
reference ground state does not decay on it: it grows like e^(-x/2)
towards the left end, so its level is not an eigenvalue of the Dirichlet
problem on the real line.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .expressions import parse
from .generator import ConstantWModel, GeneratorSpec, SpecError
from .operators import Grid

PERIODIC_LEVEL_CUTOFF = 8


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
    solvable: bool = True
    constant_model: ConstantWModel = None
    notes: str = ""


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


def periodic_effective_closed_form(x):
    """-6/(cos x + 2i sin x)^2, the compact form of the periodic V + iW."""
    x = np.asarray(x, dtype=float)
    value = -6.0 / (np.cos(x) + 2j * np.sin(x)) ** 2
    return complex(value) if value.ndim == 0 else value


def _scarf2(env):
    A = float(env["A"])
    return dict(
        spec=GeneratorSpec(
            W="-A*sinh(x)/cosh(x)^2",
            antiderivative="A/cosh(x)",
            alpha=0.0,
            beta=-0.25,
            env={"A": A},
            check_interval=(-12.0, 12.0),
        ),
        analytic_V=parse("-(3+A^2)/(4*cosh(x)^2)"),
        analytic_levels=scarf_levels(A),
        grid=Grid(-12.0, 12.0, 2000),
        scarf_s_t=scarf_parameters(A),
        continuum_threshold=0.0,
        notes="hyperbolic model, V even and W odd; levels from both"
        " quasi-parity branches below the continuum at 0, which meet at"
        " -1/4 for even A",
    )


def _periodic(env):
    return dict(
        spec=GeneratorSpec(
            W="4*sin(2*x)/(3*(cos(x)^2-4/3)^2)",
            antiderivative="4/(3*(cos(x)^2-4/3))",
            alpha=0.0,
            beta=1.0,
            env={},
            check_interval=(-math.pi, math.pi),
        ),
        analytic_V=parse("(-30*cos(x)^2+24)/(9*(cos(x)^2-4/3)^2)"),
        analytic_levels=tuple(
            n * n / 4.0 for n in range(1, PERIODIC_LEVEL_CUTOFF + 1) if n != 2
        ),
        grid=Grid(-math.pi, math.pi, 2000),
        eigenfunctions={
            n: functools.partial(periodic_eigenfunction, n)
            for n in range(1, PERIODIC_LEVEL_CUTOFF + 1)
        },
        notes="levels n^2/4 with the n=2 state missing (its closed form"
        " cancels to zero); box domain fixed at (-pi, pi)",
    )


def _morse(env):
    xi = float(env["xi"])
    return dict(
        spec=GeneratorSpec(
            W="-xi*exp(-x)",
            antiderivative="xi*exp(-x)",
            alpha=0.0,
            beta=-0.25,
            env={"xi": xi},
            check_interval=(-2.0, 14.0),
        ),
        analytic_V=parse("-xi^2*exp(-2*x)/4"),
        analytic_levels=(-0.25,),
        grid=Grid(-2.0, 14.0, 2000),
        eigenfunctions={0: morse_eigenfunction(xi)},
        continuum_threshold=0.0,
        notes="exponential model, not PT symmetric; single analytic"
        " level at -1/4 with eigenfunction scale z = i*xi*exp(-x), which"
        " grows towards -inf, so the real-line grid holds no state there",
    )


def _constant_w(env):
    W0, C0 = float(env["W0"]), float(env["C0"])
    alpha, beta = float(env.get("alpha", 0.0)), float(env.get("beta", 0.0))
    return dict(
        spec=GeneratorSpec(
            W="W0",
            antiderivative="W0*x + C0",
            alpha=alpha,
            beta=beta,
            env={"W0": W0, "C0": C0},
        ),
        analytic_V=None,
        analytic_levels=(),
        grid=Grid(-20.0, 20.0, 2000),
        solvable=False,
        constant_model=ConstantWModel(W0=W0, C0=C0, alpha=alpha, beta=beta),
        notes="degenerate constant generator; the real part of the"
        " effective potential is unbounded below, so no bound states"
        " exist and no spectrum is asserted",
    )


# name -> (required parameters, builder); a builder reads its parameters
# from env and returns the entry's fields other than its name.
MODELS = {
    "scarf2": (("A",), _scarf2),
    "periodic": ((), _periodic),
    "morse": (("xi",), _morse),
    "constant_w": (("W0", "C0"), _constant_w),
}

MODEL_NAMES = tuple(MODELS)


def get(name, env=None):
    """Look up a catalog entry; env binds the model's parameters."""
    env = env or {}
    if name not in MODELS:
        raise SpecError(
            "unknown model '%s'; available: %s" % (name, ", ".join(MODEL_NAMES))
        )
    required, build = MODELS[name]
    for param in required:
        if param not in env:
            raise SpecError("model '%s' requires parameter '%s'" % (name, param))
    return CatalogEntry(name=name, **build(env))
