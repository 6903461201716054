"""Exact bound states of the pseudo-Coulomb plus ring-shaped potential in D
dimensions, with independent spectral verification.

Layout:

- :mod:`ringcoulomb.nu` -- generic Nikiforov-Uvarov reduction engine
- :mod:`ringcoulomb.spectrum` -- potential, quantum numbers, closed-form
  energies and the published limiting cases
- :mod:`ringcoulomb.wavefunctions` -- normalized radial/angular/azimuthal
  factors with in-house Laguerre and Jacobi kernels
- :mod:`ringcoulomb.quadrature` -- the decay-rule cutoff radius of a radial envelope
- :mod:`ringcoulomb.oracle` -- Galerkin eigensolvers for the separated
  equations and state verification
- :mod:`ringcoulomb.cli` -- the ``ringcoulomb`` command

numpy is the one runtime dependency; no command loads scipy.
"""

__version__ = "0.1.0"

from .nu import (
    AmbiguousBranch,
    InvalidGamma,
    NoRealK,
    NoValidBranch,
    NUBranch,
    NUProblem,
    NUSolution,
    Poly2,
    quantize_epsilon,
    quantize_epsilon_bisect,
    radial_coulomb_problem,
)
from .spectrum import (
    FallToCenter,
    NoBoundState,
    PhysicalConstants,
    PotentialParams,
    QuantumNumbers,
    SpectrumEntry,
    energy,
    energy_coulombic_form,
)
from .wavefunctions import (
    BoundState,
    EvalPoint,
    bound_state,
    total_psi,
)
from .oracle import (
    GridSpec,
    VerificationReport,
    angular_eigen,
    radial_eigen,
    verify_state,
    verify_states,
)

__all__ = [
    "__version__",
    "AmbiguousBranch", "InvalidGamma", "NoRealK", "NoValidBranch",
    "NUBranch", "NUProblem", "NUSolution", "Poly2",
    "quantize_epsilon", "quantize_epsilon_bisect", "radial_coulomb_problem",
    "FallToCenter", "NoBoundState", "PhysicalConstants", "PotentialParams",
    "QuantumNumbers", "SpectrumEntry", "energy", "energy_coulombic_form",
    "BoundState", "EvalPoint", "bound_state", "total_psi",
    "GridSpec", "VerificationReport", "angular_eigen", "radial_eigen",
    "verify_state", "verify_states",
]
