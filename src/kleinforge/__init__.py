"""Algebraic and geometric invariants of the n-dimensional Klein bottles.

K_n is the quotient of the n-torus by the involution that conjugates the
first n-1 circle coordinates and rotates the last by half a turn.  The
package computes its mod-2 cohomology ring, characteristic classes,
integral cohomology and stable splitting, fundamental-group normal
forms, zero-divisor cup lengths with the resulting topological
complexity bounds, immersions/embeddings with a self-intersection
scanner, and the genetic-code classification of polygon configuration
spaces that produces these manifolds.
"""

from .abelian import AbelianGroup
from .char_classes import ManifoldReport, manifold_report, stiefel_whitney, wu_classes
from .cohomology_f2 import CohomologyClass, basis, cup, cup_length, sq
from .errors import CapacityError, FeasibilityError
from .fundamental_group import GroupWord, NormalForm, abelianization, reduce_word
from .geometry import Mesh, MeshSpec, build_mesh, self_intersection_scan
from .integral_splitting import consistency_check, integral_cohomology, splitting
from .polygon_genetics import classify, genetic_code, prepare_lengths
from .tensor_zcl import tc_bounds, zcl_exhaustive, zcl_witness
from .verification import verify_paper

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup",
    "CapacityError",
    "CohomologyClass",
    "FeasibilityError",
    "GroupWord",
    "ManifoldReport",
    "Mesh",
    "MeshSpec",
    "NormalForm",
    "abelianization",
    "basis",
    "build_mesh",
    "classify",
    "consistency_check",
    "cup",
    "cup_length",
    "genetic_code",
    "integral_cohomology",
    "manifold_report",
    "prepare_lengths",
    "reduce_word",
    "self_intersection_scan",
    "splitting",
    "sq",
    "stiefel_whitney",
    "tc_bounds",
    "verify_paper",
    "wu_classes",
    "zcl_exhaustive",
    "zcl_witness",
    "__version__",
]
