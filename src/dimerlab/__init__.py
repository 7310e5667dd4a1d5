"""Exact computation and statistics for disordered monomer-dimer systems
on cylinder graphs: transfer-based partition polynomials, Lee-Yang spectra,
perfect Gibbs sampling, ground states, and replica experiment harnesses."""

__version__ = "0.1.0"

from .graphs import (
    CylinderGraph,
    DisorderSpec,
    HGraph,
    Law,
    RngSeed,
    WeightAssignment,
    build_cylinder,
    sample_weights,
)
from .transfer import (
    CapacityError,
    CountingMask,
    MonomerPolynomial,
    partition_polynomial,
    scalar_log_z,
)
from .leeyang import LeeYangSpectrum, density_functionals, spectrum
from .sampler import GibbsSampler, Matching
from .groundstate import GroundState, gse_remainder, max_weight
from .jacobi import JacobiMatrix, det_abs, omega_spectrum, resolvent_U
from .experiments import ExperimentConfig, ReplicaTable, estimate_limits, run_replicas

__all__ = [
    "CapacityError",
    "CountingMask",
    "CylinderGraph",
    "DisorderSpec",
    "ExperimentConfig",
    "GibbsSampler",
    "GroundState",
    "HGraph",
    "JacobiMatrix",
    "Law",
    "LeeYangSpectrum",
    "Matching",
    "MonomerPolynomial",
    "ReplicaTable",
    "RngSeed",
    "WeightAssignment",
    "build_cylinder",
    "density_functionals",
    "det_abs",
    "estimate_limits",
    "gse_remainder",
    "max_weight",
    "omega_spectrum",
    "partition_polynomial",
    "resolvent_U",
    "run_replicas",
    "sample_weights",
    "scalar_log_z",
    "spectrum",
    "__version__",
]
