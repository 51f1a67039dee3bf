"""Linear regression with an unknown row correspondence.

Solvers for the joint least-squares problem over weights and a permutation of
the responses: a (1+eps)-approximation scheme, an exhaustive oracle, and an
exact-recovery pipeline for noiseless instances on a dyadic grid, plus
instance generators, a 3-partition hardness reduction and a Monte-Carlo
sweep harness.  See the ``shuffle-regress`` command line tool for the file
formats.
"""
from .approx import Solution, fptas_solve
from .errors import (
    BudgetExceededError,
    CapExceededError,
    DegenerateInstanceError,
    InternalInvariantError,
    ParseError,
    RankDeficiencyError,
    SchemaError,
)
from .hardness import ThreePartitionInstance, reduce_3partition
from .lattice import LatticeBasis, RecoveryResult, lll_reduce, recover
from .model import (
    AnchoredInstance,
    GroundTruth,
    Instance,
    Permutation,
    gen_gaussian_noisy,
    gen_noiseless_anchored,
    gen_uniform_noisy,
    quantize_noiseless,
)
from .oracle import brute_force
from .perm1d import MatchResult, sort_match
from .rowsample import SamplingMatrix, row_sample

__version__ = "0.1.0"

# The README's surface: its functions, the types they take or return, and the
# error classes.  Everything else is imported from its submodule.
__all__ = [
    "AnchoredInstance",
    "BudgetExceededError",
    "CapExceededError",
    "DegenerateInstanceError",
    "GroundTruth",
    "Instance",
    "InternalInvariantError",
    "LatticeBasis",
    "MatchResult",
    "ParseError",
    "Permutation",
    "RankDeficiencyError",
    "RecoveryResult",
    "SamplingMatrix",
    "SchemaError",
    "Solution",
    "ThreePartitionInstance",
    "brute_force",
    "fptas_solve",
    "gen_gaussian_noisy",
    "gen_noiseless_anchored",
    "gen_uniform_noisy",
    "lll_reduce",
    "quantize_noiseless",
    "recover",
    "reduce_3partition",
    "row_sample",
    "sort_match",
]
