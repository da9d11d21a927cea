"""Pictures, Littlewood-Richardson crystals of type A, and the bijection
between them.

The library enumerates pictures between a straight shape and a skew
shape, filters semistandard tableaux into LR crystals by box addition,
converts each side into the other, and cross-checks every count against
an independent lattice-word oracle.  The cli module exposes the same
operations as the lrpictures command.
"""

from .shapes import (AdditionResult, AdditionStep, BoxAddition, Cell, NegativePart,
                     NotContained, NotWeaklyDecreasing, Partition, SkewShape,
                     add_box, add_sequence, cells, make_partition, partitions_of,
                     skew, subpartitions)
from .pictures import (OrderCellMismatch, OrderNotAdmissible, Picture, SizeMismatch,
                       TotalOrder, enumerate_admissible_orders, enumerate_pictures,
                       is_admissible_order, is_picture, is_standard, leq_F, leq_J,
                       leq_P)
from .tableaux import (CellOutsideShape, ColumnNotStrictlyIncreasing,
                       EntryExceedsBound, RowNotWeaklyIncreasing, ShapeMismatch,
                       Tableau, Word, enumerate_ssyt, far_eastern_reading,
                       level_set, make_tableau, middle_eastern_reading, p_function,
                       reading_by_order, weight)
from .wordcrystal import (EmbeddingReport, IndexOutOfRange, TooManyTableaux,
                          lowering_operator, raising_operator, verify_embedding)
from .lr import (BijectionReport, ConjectureReport, CountTriple, LRInstance,
                 NotAPicture, NotLRCrystal, RankTooSmall, SizeSummary, SweepReport,
                 conjecture_experiment, conjecture_rows, conjecture_sweep, decompose_tensor,
                 instances_of_size, iter_instances, lemma_add_check,
                 lemma_destination_check, lr_coefficient_all_methods,
                 lr_coefficient_lattice, lr_filter, phi, psi, sweep,
                 verify_bijection)

__all__ = [
    "AdditionResult", "AdditionStep", "BijectionReport", "BoxAddition", "Cell",
    "CellOutsideShape", "ColumnNotStrictlyIncreasing", "ConjectureReport",
    "CountTriple", "EmbeddingReport", "EntryExceedsBound", "IndexOutOfRange",
    "LRInstance", "NegativePart", "NotAPicture", "NotContained", "NotLRCrystal",
    "NotWeaklyDecreasing", "OrderCellMismatch", "OrderNotAdmissible", "Partition",
    "Picture", "RankTooSmall", "RowNotWeaklyIncreasing", "ShapeMismatch",
    "SizeMismatch", "SizeSummary", "SkewShape", "SweepReport", "Tableau",
    "TooManyTableaux", "TotalOrder", "Word", "add_box", "add_sequence", "cells",
    "conjecture_experiment", "conjecture_rows", "conjecture_sweep", "decompose_tensor",
    "enumerate_admissible_orders", "enumerate_pictures", "enumerate_ssyt",
    "far_eastern_reading", "instances_of_size", "is_admissible_order",
    "is_picture", "is_standard", "iter_instances", "lemma_add_check",
    "lemma_destination_check", "leq_F", "leq_J", "leq_P", "level_set",
    "lowering_operator", "lr_coefficient_all_methods", "lr_coefficient_lattice",
    "lr_filter", "make_partition", "make_tableau", "middle_eastern_reading",
    "p_function", "partitions_of", "phi", "psi", "raising_operator",
    "reading_by_order", "skew", "subpartitions", "sweep", "verify_bijection",
    "verify_embedding", "weight",
]

__version__ = "0.1.0"
