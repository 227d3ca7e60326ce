"""Non-Hermitian Hamiltonians with a built-in metric operator.

The library derives the real part of an effective potential V + iW from
its imaginary part W, builds the corresponding Hamiltonian and metric
operator on a Dirichlet-truncated grid, verifies the intertwining
identity that makes the pair consistent, and compares computed spectra
against exactly solvable reference models.
"""

__version__ = "0.1.0"
