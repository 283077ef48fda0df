"""quasilogic: the logic of sequential yes-no questions.

Four layers, usable independently:

* :mod:`quasilogic.logic`: exact four-valued connectives of ordered question
  pairs, their truth tables, and the identity suite.
* :mod:`quasilogic.hilbert`: projector questions and density states with the
  Lüders update rule: sequential and logical joint probabilities,
  Kirkwood-Dirac distributions, weak values, negativity witnesses.
* :mod:`quasilogic.jordan`: numerical verification of the symmetrised-product
  algebra the commutative connectives land in.
* :mod:`quasilogic.survey`: reconstruction of order-invariant logical joint
  probabilities from two-order yes/no survey counts, with significance tests
  and bootstrap intervals.
"""

__version__ = "0.9.0"

from .logic import (
    ALL_RECORDS,
    CounterfactualRecord,
    conjunction_value,
    identity_suite,
    or_value,
    sequential_conjunction_value,
    truth_table,
    xor_value,
)
from .hilbert import (
    DensityState,
    Projector,
    QuasiProbTable,
    born_probability,
    complement_projector,
    kd_distribution,
    logical_joint,
    lueders_update,
    quasi_prob_table,
    rank_one_projector,
    sequential_probability,
    validate_density,
    validate_projector,
    weak_value,
    xor_expectation,
)
from .jordan import jordan_product, mapped_conjunction
from .survey import (
    ReconstructionReport,
    SequentialCountTable,
    classicality_report,
    load_counts,
    order_effect_stat,
    parse_counts,
    qq_equality_stat,
    reconstruct_logical_joint,
    sequential_probs,
)

__all__ = [
    "__version__",
    # logic
    "ALL_RECORDS",
    "CounterfactualRecord",
    "conjunction_value",
    "identity_suite",
    "or_value",
    "sequential_conjunction_value",
    "truth_table",
    "xor_value",
    # hilbert
    "DensityState",
    "Projector",
    "QuasiProbTable",
    "born_probability",
    "complement_projector",
    "kd_distribution",
    "logical_joint",
    "lueders_update",
    "quasi_prob_table",
    "rank_one_projector",
    "sequential_probability",
    "validate_density",
    "validate_projector",
    "weak_value",
    "xor_expectation",
    # jordan
    "jordan_product",
    "mapped_conjunction",
    # survey
    "ReconstructionReport",
    "SequentialCountTable",
    "classicality_report",
    "load_counts",
    "order_effect_stat",
    "parse_counts",
    "qq_equality_stat",
    "reconstruct_logical_joint",
    "sequential_probs",
]
