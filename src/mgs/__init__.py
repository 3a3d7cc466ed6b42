"""Exact computation in the space of marked groups.

Marked groups seen through relation balls, generalized dihedral and
finitely generated abelian groups with exact arithmetic, limit and
residual decision procedures, universal-sentence checking on finite
tables, marking classification, and rank computations for the closures
of the cyclic, abelian and dihedral families.
"""

from .abelian import (
    AbelianElement,
    AbelianGroup,
    CyclicQuotientMap,
    canonical_invariant_factors,
    cyclic_residual_quotient,
    express_in_generators,
    generates_full,
    is_limit_of_cyclic,
    smith_normal_form,
)
from .classify import (
    DihAutomorphism,
    MarkingClass,
    canonical_classes,
    canonical_marking,
    count_marking_classes,
    decide_marking_equivalence,
    enumerate_markings,
    free_by_flip,
    reflection_index_set,
)
from .dihedral import (
    GenDihedralElement,
    GenDihedralGroup,
    evaluate_word,
    is_generating_dih,
    materialize_table,
)
from .logic import (
    And,
    Atom,
    BudgetExceeded,
    Implies,
    Not,
    Or,
    SentenceCheck,
    UniversalSentence,
    builtin_sentence,
    holds_in,
    squared_sentence,
)
from .tables import (
    DihedralRecognition,
    FiniteGroupTable,
    TableError,
    automorphism_group,
    load_fixture,
    load_table,
    recognize_generalized_dihedral,
    validate_table,
)
from .topology import (
    AccumulationWitness,
    CharacteristicSystem,
    ConvergenceReport,
    FamilyError,
    LimitDecision,
    MarkedGroup,
    NotGenerating,
    RelationBall,
    accumulation_witness,
    agreement_radius,
    cb_rank,
    check_convergence,
    closure_characteristic,
    dih_embed,
    dihedral_residual_witness,
    is_limit_of_dihedral,
    marked_distance,
    rank_of_limit,
    relation_ball,
    separating_word,
)
from .words import (
    BallCapExceeded,
    NielsenMove,
    Word,
    ball_size,
    enumerate_ball,
    free_reduce,
    nielsen_apply,
)

__version__ = "0.1.0"
