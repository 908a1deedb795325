"""Spin-model search for Hadamard matrices.

Builds the energy functions of the Williamson, Baumert-Hall, Turyn, and
extended-Turyn constructions as sums of squared residuals, reduces them to
2-body Ising form, minimises them exhaustively or by simulated annealing,
and assembles and verifies the resulting matrices.
"""

from .polynom import Assignment, Domain, Monomial, MultilinearPoly, SquareSum
from .quadratize import AncillaMap, compute_delta, quadratize, select_pair, substitute_pair
from .ising import IsingModel, from_quadratic
from .constructions import (
    PrototypeSpec,
    TurynQuadruple,
    base_sequences,
    enumerate_prototypes,
    extended_energy,
    extended_residuals,
    nac,
    nac_values,
    normalized_turyn_quadruple,
    prototype_filter,
    seed_sequences,
    t_sequences,
    turyn_energy,
    turyn_residuals,
    williamson_energy,
    williamson_residuals,
)
from .hadamard import (
    back_diagonal,
    baumert_hall_array,
    circulant,
    goethals_seidel,
    verify,
    williamson_array,
)
from .solver import Sample, SampleSet, anneal, exhaustive_min

__version__ = "0.1.0"

__all__ = [
    "AncillaMap",
    "Assignment",
    "Domain",
    "IsingModel",
    "Monomial",
    "MultilinearPoly",
    "PrototypeSpec",
    "Sample",
    "SampleSet",
    "SquareSum",
    "TurynQuadruple",
    "anneal",
    "back_diagonal",
    "base_sequences",
    "baumert_hall_array",
    "circulant",
    "compute_delta",
    "enumerate_prototypes",
    "exhaustive_min",
    "extended_energy",
    "extended_residuals",
    "from_quadratic",
    "goethals_seidel",
    "nac",
    "nac_values",
    "normalized_turyn_quadruple",
    "prototype_filter",
    "quadratize",
    "seed_sequences",
    "select_pair",
    "substitute_pair",
    "t_sequences",
    "turyn_energy",
    "turyn_residuals",
    "verify",
    "williamson_array",
    "williamson_energy",
    "williamson_residuals",
]
