"""Solver for a heat equation whose potential sees the solution's time integral.

The unknown couples to itself through the integral over the whole time
interval, so the problem is not a marching evolution: it is solved as a
fixed point of the map that freezes the potential at a trial integral,
evolves the datum linearly, and integrates the trajectory in time.
"""

from .mesh import Field, Grid, inner_product, norm_lp, restrict
from .laplacian import (
    DirichletLaplacian,
    SolverFailure,
    assemble,
    dirichlet_lambda1,
    dirichlet_lambda1_discrete,
)
from .potential import EvaluationError, Potential, catalog, nemytskii
from .evolution import EvolutionConfig, Trajectory, evolve, phi_map
from .fixedpoint import (
    FixedPointReport,
    PicardConfig,
    ProbeReport,
    UniquenessThreshold,
    picard_solve,
    uniqueness_probe,
    uniqueness_threshold,
)
from .verify import (
    EllipticCheck,
    EnergyCheck,
    SolutionBoundsCheck,
    VerificationReport,
    verify_all,
)

__version__ = "0.1.0"

__all__ = [
    "Field",
    "Grid",
    "inner_product",
    "norm_lp",
    "restrict",
    "DirichletLaplacian",
    "SolverFailure",
    "assemble",
    "dirichlet_lambda1",
    "dirichlet_lambda1_discrete",
    "EvaluationError",
    "Potential",
    "catalog",
    "nemytskii",
    "EvolutionConfig",
    "Trajectory",
    "evolve",
    "phi_map",
    "FixedPointReport",
    "PicardConfig",
    "ProbeReport",
    "UniquenessThreshold",
    "picard_solve",
    "uniqueness_probe",
    "uniqueness_threshold",
    "EllipticCheck",
    "EnergyCheck",
    "SolutionBoundsCheck",
    "VerificationReport",
    "verify_all",
]
