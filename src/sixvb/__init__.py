"""Exact partition functions of the six-vertex model on half-disk lattices
with a reflecting boundary, computed three independent ways: by weaving the
invariant state out of crossing weights, from creation operators on a
reference state, and from a coordinate wave sum over permutations and
reflections.  All arithmetic is exact rational."""

from .exact import format_rational, parse_rational
from .errors import DegenerateSpecError, InvalidSpecError, PoleError
from .lattice import (
    BetheRootSet,
    Chord,
    ExternalConfig,
    LatticeSpec,
    all_configs,
    canonical_bethe_roots,
    ice_rule_satisfied,
    inhomogeneities,
    magnon_positions,
    q_function,
    reference_config,
    validate_spec,
)
from .monodromy import QuantumState, reference_state
from .aba import bethe_state
from .contraction import build_invariant
from .pipeline import compute_report

__version__ = "0.1.0"

__all__ = [
    "BetheRootSet",
    "Chord",
    "DegenerateSpecError",
    "ExternalConfig",
    "InvalidSpecError",
    "LatticeSpec",
    "PoleError",
    "QuantumState",
    "all_configs",
    "bethe_state",
    "build_invariant",
    "canonical_bethe_roots",
    "compute_report",
    "format_rational",
    "ice_rule_satisfied",
    "inhomogeneities",
    "magnon_positions",
    "parse_rational",
    "q_function",
    "reference_config",
    "reference_state",
    "validate_spec",
    "__version__",
]
