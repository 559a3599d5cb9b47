"""conespec: positive eigenvectors of order-preserving homogeneous maps.

Decide whether the interior eigenspace of an order-preserving homogeneous
map on the positive orthant (or the additive eigenspace of a topical map) is
nonempty and bounded in the Hilbert projective metric, certify the verdict
with Collatz-Wielandt brackets and hypergraph reachability, and compute the
eigenvector by the normalized (f + id) iteration.
"""

from .core import (ConeMap, ExtVec, Side, SubsetMask, hilbert_distance,
                   project)
from .errors import (ConespecError, DimensionTooLargeError, EmptySupportError,
                     FlagMissingError, MixedPolesError, NumericRangeError,
                     ParseError, SemanticError, ValidationError, ZeroRowError)
from .existence import (Analyzer, ClassRadius, Convergence, ConvexReport,
                        Route, SubsetCertificate, Uniqueness, Verdict,
                        VerdictKind, check_subset, classify, classify_convex,
                        infer_uniqueness_and_convergence)
from .graphs import (Digraph, HypergraphProbe, SCCDecomposition, digraph_of,
                     digraph_to_dot, hypergraph_to_dot, scc_decompose)
from .maps import (SparsityPattern, build_tensor_map, eval_mean, from_exprs,
                   matrix_map, max_times_map, monomial, restrict_lower,
                   restrict_upper, schoen_map, sparsity_probe, theta)
from .maps import conjugate_map as reciprocal_conjugate
from .spectral import (CWBracket, DisplacementInterval, EigenResult,
                       NonconvergedError, cw_lower, cw_upper,
                       iterate_normalized, min_displacement, plus_identity,
                       solve_eigenvector)
from .topical import (AdditiveBracket, AdditiveCertificate, AdditiveEigen,
                      AdditiveVerdict, GameAction, GameSpec, TopicalMap,
                      build_shapley, check_additive_eigenvector, mean_payoff,
                      variation_norm)
from .dsl import (MapDocument, parse_game, parse_map, serialize_game,
                  serialize_map)

__version__ = "0.1.0"
