"""Executable calculus for finite groupoids with a two-element-group action.

The package implements, at finite scale, the two type-theoretic fibration
structures on groupoids-with-involution (projective and injective), the
dependent product along a fibration, canonical path objects, the universe
of small discrete groupoids with involution, and the resulting univalence
and function-extensionality verdicts: function extensionality and
univalence fail projectively and univalence holds injectively, all
checkable by exhaustive finite search.
"""

from .budget import Budget, DEFAULT_BUDGET
from .core import (
    Functor,
    FunctorReport,
    Groupoid,
    binary_product,
    classify_functor,
    codiscrete,
    coproduct,
    discrete,
    empty_groupoid,
    identity_functor,
    interval,
    pullback,
    subgroupoid,
    unit,
    validate_functor,
    validate_groupoid,
)
from .equivariant import (
    EquivariantFunctor,
    InvolutiveGroupoid,
    REGISTRY,
    ShapeRegistry,
    attach_cell,
    attach_cells,
    equivariant_coproduct,
    equivariant_product,
    equivariant_pullback,
    fixed_points,
    swap_double,
    terminal_map,
    trivial_action,
    validate_equivariant,
    validate_involutive,
)
from .errors import (
    BaseTooSmall,
    BudgetExceeded,
    CodomainMismatch,
    InvalidAttachment,
    InvariantViolated,
    InvgpdError,
    IterationCapExceeded,
    MalformedDocument,
    MalformedFunctor,
    MalformedSliceMorphism,
    NonCommutingSquare,
    NotAFibration,
    NotSmall,
    NotTrivialCofibration,
    ShapeMismatch,
)
from .homotopy import (
    HomotopyWitness,
    PathFactorization,
    find_homotopy_inverse,
    find_right_homotopy,
    is_homotopy_equivalence_projective,
    path_object,
)
from .lifting import (
    CellSequence,
    LiftingProblem,
    StructureTag,
    decompose_trivial_cofibration,
    factorize,
    generator_orthogonal,
    has_llp,
    has_rlp,
    injective_classify,
    is_fibrant,
    is_injective_fibration,
    projective_classify,
    solve_lifting,
)
from .pi import (
    PiBundle,
    adjunction_backward,
    adjunction_forward,
    enumerate_slice_homs,
    pi_of,
)
from .search import find_isomorphism
from .universe import (
    UniverseBundle,
    build_universe,
    check_funext_counterexample,
    check_univalence,
    classify_small_fibration,
    equivalence_space,
    is_small_fibration,
    universe_closure_checks,
)

__version__ = "0.1.0"
