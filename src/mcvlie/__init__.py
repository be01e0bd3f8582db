"""mcvlie: exact middle convolution for logarithmic Pfaffian systems on
hyperplane-arrangement complements.

Everything is computed over Q with exact arithmetic: dense rational linear
algebra and canonical subspaces (exactcore), arrangement combinatorics with
codimension-2 flats and Y-closures (arrangement), holonomy presentations and
integrability of residue tuples (holonomy), free Lie algebras on Lyndon
bases with the braid-style derivation action (freelie), the convolution and
middle convolution constructions (convolution), and the structural
predicates around them (analysis).  The cli module exposes all of it as the
`mcvlie` command.
"""

from .analysis import (
    CompositionReport,
    IsoResult,
    StarReport,
    check_star_conditions,
    composition_harness,
    is_irreducible,
    rh_hypotheses,
)
from .arrangement import (
    Arrangement,
    Hyperplane,
    Line,
    braid_arrangement,
    canonicalize,
    codim2_flats,
    is_y_closed,
    split_parallel,
    y_closure,
)
from .convolution import (
    ConvolvedSystem,
    MiddleConvolvedSystem,
    dr_convolution,
    dr_k_l,
    dr_middle_convolution,
    haraoka_convolution,
    haraoka_middle_convolution,
    phi_compose,
    phi_zero,
)
from .errors import InputError, InternalInvariantError, MCVError, PreconditionError
from .exactcore import (
    ExactMatrix,
    Poly,
    Subspace,
    charpoly,
    integer_spectrum_hits,
    kernel,
    subspace_sum,
)
from .freelie import (
    Derivation,
    DKWord,
    LieElement,
    adjoint_witness,
    bracket,
    lyndon_basis,
    theta,
    verify_braid_relations,
)
from .holonomy import (
    PfaffianSystem,
    Presentation,
    check_integrability,
    presentation,
    residue_sum,
    zero_extend,
)

__version__ = "0.1.0"
