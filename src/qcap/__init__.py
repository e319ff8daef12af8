"""Stabilizer codes over prime fields: capacity bounds, error exponents,
and concatenated-decoder simulation for Pauli channels."""

__version__ = "0.1.0"

from ._util import ConvergenceError, GuardError, QcapError, ValidationError
from .channels import PauliChannel, depolarizing, shannon_entropy
from .codes import (
    StabilizerCode,
    bar_map,
    catalog,
    catalog_names,
    concatenate,
    direct_sum,
    read_code_file,
    write_code_file,
)
from .exponent import exponent, exponent_grid_oracle
from .qoracle import oracle_report
from .simconcat import SimConfig, SimReport, fidelity_bound_exact, simulate
from .spectra import BoundReport, ProbabilityArray, coherent_bound, probability_array
from .symplectic import (
    HyperbolicBasis,
    Subspace,
    hyperbolic_complete,
    is_self_orthogonal,
    perp,
    sample_self_orthogonal,
    symplectic_form,
)

__all__ = [
    "ConvergenceError",
    "GuardError",
    "QcapError",
    "ValidationError",
    "PauliChannel",
    "depolarizing",
    "shannon_entropy",
    "StabilizerCode",
    "bar_map",
    "catalog",
    "catalog_names",
    "concatenate",
    "direct_sum",
    "read_code_file",
    "write_code_file",
    "symplectic_form",
    "exponent",
    "exponent_grid_oracle",
    "oracle_report",
    "SimConfig",
    "SimReport",
    "fidelity_bound_exact",
    "simulate",
    "BoundReport",
    "ProbabilityArray",
    "coherent_bound",
    "probability_array",
    "HyperbolicBasis",
    "Subspace",
    "hyperbolic_complete",
    "is_self_orthogonal",
    "perp",
    "sample_self_orthogonal",
    "__version__",
]
