"""Weighted shift operators on finite rooted trees and their complex symmetry.

The package builds the shift matrix of a weighted rooted tree, decides
whether it is complex symmetric (producing an independently checkable
certificate or obstruction either way), implements the explicit conjugation
constructions and printed criteria for two-branch and binary trees, the
broom-tree h-sequence constructions, and cross-validation audits of the
printed criteria against certified verdicts.
"""

from .audit import (
    cross_validate,
    random_tree,
    random_weights,
    sample_binary_weights,
    sample_two_branch_weights,
    soundness_fuzz,
    two_branch_mirror_classes,
)
from .broom import (
    BroomEmbedding,
    BroomSchedule,
    HSequence,
    InfeasibleScheduleError,
    build_broom_conjugation,
    solve_h_sequence,
    two_level_kernel_structure,
)
from .conjugation import (
    Conjugation,
    ConjugationError,
    CSymmetryReport,
    conjugation_from_matrix,
    verify_c_symmetry,
)
from .decider import (
    DeciderOptions,
    Verdict,
    decide_cs,
    kernel_obstruction,
    reevaluate_obstruction,
    unitary_search,
    word_trace_obstruction,
    word_value,
)
from .families import (
    BinaryWeights,
    BlockDecomposition,
    ConditionReport,
    FamilyConditionError,
    TwoBranchWeights,
    binary_cs_condition,
    binary_pairing_moduli,
    chains_to_matrix,
    classify_tree_family,
    decompose_equal_weight_tree,
    is_palindromic,
    reversal_pairing_conjugation,
    two_branch_conjugation,
    two_branch_cs_condition,
    two_branch_phase_sequences,
)
from .serialize import dump_json, weights_from_doc, weights_to_doc
from .shift import (
    KernelTable,
    ShiftMatrix,
    WeightError,
    build_shift,
    kernel_table,
    numerical_rank,
    positivize_weights,
)
from .trees import (
    DirectedTree,
    TreeValidation,
    generate_binary,
    generate_broom,
    generate_path,
    generate_two_branch,
    generate_two_level_broom,
    tree_from_doc,
    tree_to_doc,
    validate_tree,
)

__version__ = "0.1.0"

__all__ = [
    "BinaryWeights",
    "BlockDecomposition",
    "BroomEmbedding",
    "BroomSchedule",
    "ConditionReport",
    "Conjugation",
    "ConjugationError",
    "CSymmetryReport",
    "DeciderOptions",
    "DirectedTree",
    "FamilyConditionError",
    "HSequence",
    "InfeasibleScheduleError",
    "KernelTable",
    "ShiftMatrix",
    "TreeValidation",
    "TwoBranchWeights",
    "Verdict",
    "WeightError",
    "binary_cs_condition",
    "binary_pairing_moduli",
    "build_broom_conjugation",
    "build_shift",
    "chains_to_matrix",
    "classify_tree_family",
    "conjugation_from_matrix",
    "cross_validate",
    "decide_cs",
    "decompose_equal_weight_tree",
    "dump_json",
    "generate_binary",
    "generate_broom",
    "generate_path",
    "generate_two_branch",
    "generate_two_level_broom",
    "is_palindromic",
    "kernel_obstruction",
    "kernel_table",
    "numerical_rank",
    "positivize_weights",
    "random_tree",
    "random_weights",
    "reevaluate_obstruction",
    "reversal_pairing_conjugation",
    "sample_binary_weights",
    "sample_two_branch_weights",
    "solve_h_sequence",
    "soundness_fuzz",
    "tree_from_doc",
    "tree_to_doc",
    "two_branch_conjugation",
    "two_branch_cs_condition",
    "two_branch_mirror_classes",
    "two_branch_phase_sequences",
    "two_level_kernel_structure",
    "unitary_search",
    "validate_tree",
    "verify_c_symmetry",
    "weights_from_doc",
    "weights_to_doc",
    "word_trace_obstruction",
    "word_value",
]
