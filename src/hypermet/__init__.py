"""Certified distances between closed sets, induced set-maps, and
group actions on the space of closed subsets."""

from .actions import (GroupElement, act, affine_sup_norm, compose,
                      group_distance, inverse, maps_into,
                      probe_action_continuity, ucb_nbhd_contains)
from .errors import (AmbientMismatch, GeneratorFault, HypermetError,
                     Indeterminate, UnsupportedPair)
from .hitmiss import (Constraint, ConvergenceReport, OpenSetRep,
                      canonical_neighborhoods, converges, hits, misses,
                      neighborhood, subset_of)
from .hypermetrics import (INF, CertifiedValue, ExtReal, aw_distance,
                           aw_less_than, excess, hausdorff, hausdorff_lower,
                           hausdorff_upper, set_gap, sup_gap_on_ball)
from .induced import (Affine, ArctanOfDistance, Composed, Identity,
                      LinearMatrix, PiecewiseMonotone1D, SinReciprocal,
                      aw_continuity_conditions, check_preimage_boundedness,
                      estimate_uniform_modulus, induced_image,
                      probe_induced_continuity, uniform_continuity_witness)
from .sets import (ClosedSet, bounding_radius, dist_to_set, dists_to_set,
                   in_r_neighborhood, is_bounded, is_subset,
                   representative_points, truncate, union_sets)
from .spaces import AmbientSpace

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace", "ClosedSet", "CertifiedValue", "ExtReal", "INF",
    "excess", "hausdorff", "hausdorff_lower", "hausdorff_upper", "set_gap",
    "sup_gap_on_ball", "aw_distance", "aw_less_than",
    "hits", "misses", "subset_of", "OpenSetRep", "Constraint",
    "neighborhood", "canonical_neighborhoods", "converges", "ConvergenceReport",
    "Identity", "Affine", "LinearMatrix", "SinReciprocal", "ArctanOfDistance",
    "PiecewiseMonotone1D", "Composed", "induced_image",
    "check_preimage_boundedness", "estimate_uniform_modulus",
    "uniform_continuity_witness", "aw_continuity_conditions",
    "probe_induced_continuity",
    "GroupElement", "compose", "inverse", "act", "maps_into",
    "affine_sup_norm", "group_distance", "ucb_nbhd_contains",
    "probe_action_continuity",
    "dist_to_set", "dists_to_set", "in_r_neighborhood", "is_bounded", "is_subset",
    "bounding_radius", "truncate", "union_sets", "representative_points",
    "HypermetError", "AmbientMismatch", "UnsupportedPair", "Indeterminate",
    "GeneratorFault",
]
