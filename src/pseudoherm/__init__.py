"""Non-Hermitian Hamiltonians with a built-in metric operator.

The library derives the real part of an effective potential V + iW from
its imaginary part W, builds the corresponding Hamiltonian and metric
operator on a Dirichlet-truncated grid, verifies the intertwining
identity that makes the pair consistent, and compares computed spectra
against exactly solvable reference models.
"""

from .catalog import CatalogEntry, get, morse_eigenfunction, periodic_eigenfunction, scarf_parameters
from .eigen import (
    EigenSolverError,
    LevelMatch,
    SpectrumReport,
    ZeroEigenfunctionError,
    bound_state_filter,
    eig,
    eigenfunction_residual,
    match_levels,
)
from .expressions import (
    EvaluationError,
    ExprSyntaxError,
    differentiate,
    evaluate,
    free_parameters,
    parse,
    to_source,
)
from .generator import (
    DerivedModel,
    GeneratorSpec,
    GZeroError,
    QuadratureError,
    SpecError,
    antiderivative,
    derive,
    effective_potential,
    spec_to_config,
)
from .operators import (
    DiscreteOperator,
    Grid,
    GridMismatchError,
    build_eta,
    build_hamiltonian,
    compose,
    hermiticity_residual,
    intertwining_residual,
    matrix_from_csv,
    matrix_to_csv,
)

__version__ = "0.1.0"
