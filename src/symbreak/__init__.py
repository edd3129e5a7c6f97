"""Symmetry breaking by random colourings on finite graphs and truncations.

Core surfaces: graphs and family truncations (``graphs``), permutation
groups with Schreier-Sims chains (``groups``), automorphism search
(``autsearch``), colourings and distinguishing probabilities
(``colourings``), the agreement ultrametric and its coset balls
(``topology``), and structural sufficient conditions (``conditions``).
"""

from .colourings import (
    Colouring,
    PartialColouring,
    colouring_stabiliser,
    distinguishing_probability_exact,
    distinguishing_probability_mc,
    find_tree_automorphism,
    is_distinguishing,
    partial_stabiliser,
    preserves_partial,
    random_colouring,
    russel_sundaram_bound,
)
from .autsearch import automorphism_group
from .conditions import (
    dsc_check,
    gamma_refinement_iterate,
    growth_bound,
    growth_classifier,
    layer_fixing_report,
    match_probability,
    sphere_classes,
    sphere_equivalence,
    suborbit_classes,
    suborbit_equivalence,
)
from .errors import CapExceededError, GraphFormatError, InvariantError, SymbreakError
from .graphs import (
    FamilySpec,
    Graph,
    GrowthProfile,
    cartesian_product,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate_family,
    growth_sequence,
    hypercube,
    path_graph,
    rooted_tree,
    star_graph,
    truncate_to_ball,
)
from .groups import MotionReport, PermGroup
from .perms import Perm
from .rng import SeededRng
from .topology import (
    BallDecomposition,
    ExhaustionSequence,
    agreement_level,
    ball_decomposition,
    expected_stabiliser_measure,
    haar_fraction,
    ultrametric_distance,
)

__version__ = "0.1.0"
