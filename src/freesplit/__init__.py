"""Outer automorphisms of free groups acting on free splittings.

Exact combinatorial kernels (words, graph maps, Stallings folds, the
Whitehead algorithm), lamination approximations, marked graph pairs, the
integer displacement projection, and a classifier with machine-checkable
witnesses.  Values are immutable after construction, except that
``estimate_M`` sets a projection context's constant once; operations are
otherwise pure functions, and nothing uses randomness.
"""

from .config import Config, load_config
from .errors import (BudgetExhausted, FixtureInvalid, InvalidInput,
                     NotApplicable, NumericalTolerance)
from .words import canonical_cyclic, cyclic_reduce, invert, reduce_word
from .automorphisms import (BasisMap, abelianization, apply_map,
                            compose_maps, identity_map, invert_map,
                            outer_equal)
from .graphs import (Filtration, Graph, GraphMap, MarkedGraph, Stratum,
                     TransitionMatrix, compose, graph_map, identity_graph_map,
                     is_invariant_subgraph, is_nielsen, map_path, marked_rose,
                     parse_marked_graph, pf_eigenvalue, print_marked_graph,
                     rose, rose_map, strata, subgraph_factor_system,
                     transition_matrix)
from .factors import (CoreGraph, FreeFactorSystem, carries, co_edge_number,
                      enumerate_classes, ffs_carried, ffs_from_generators,
                      fold, whole_group)
from .whitehead import (FillsVerdict, fills, free_factor_support,
                        whitehead_minimize)
from .laminations import (LaminationApprox, lamination_approx,
                          lamination_fills, laminations_jointly_fill,
                          pf_estimate)
from .pairs import (MarkedGraphPair, OneEdgeSplitting, elliptic_system,
                    faces, one_edge_splitting, pair_relation_check,
                    remark_pair, remark_splitting, splitting_of_pair,
                    validate_pair)
from .wproj import (WContext, WValue, build_context, candidate_classes,
                    displacement_table, divergence_check, estimate_M,
                    in_U, lipschitz_check, w_of, W_of_ffs)
from .fixtures import ExampleSpec, fixture, fixture_names
from .classify import (Classification, bounded_path_witness, classify,
                       periodic_vertex_witness, rank2_classify)

__version__ = "0.1.0"
