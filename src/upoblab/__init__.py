"""Unextendible product operator bases: construction, certification, and
LOCC discrimination replay over small multipartite operator spaces."""

__version__ = "0.1.0"

from .matrix import (
    DEFAULT_TOL,
    Tolerance,
    hs_inner,
    is_unitary,
    kron,
    nearest_unitary,
    numeric_rank,
)
from .product import (
    IndexSet,
    OperatorSet,
    ProductOperator,
    check_orthonormal,
    gram,
    product_vector_set,
    row_major_index_set,
    upb_to_upob,
    vector_to_matrix,
)
from .unextend import (
    Classification,
    ExtendibilityVerdict,
    classify,
    extendibility_search,
    extract_witness,
    unitary_witness_search,
    verify_witness,
)
from .catalog import (
    LiftParams,
    antisym_witness_2x3,
    example1_upb,
    example1_upob,
    example_upuob_2x3,
    lift_uuo,
    nqubit_strong_upuob,
    qutrit_uuo_set,
    tensor_combine,
    u2_strong_upuob,
    weyl_heisenberg,
)
from .locc import (
    MeasurementOperator,
    ProtocolTrace,
    StateVector,
    build_a_states,
    genuine_nonlocality_evidence,
    measurement_branch,
    mes,
    mes_counting_bound,
    qutrit_embed,
    regroup_bipartite,
    run_three_ebit_protocol,
    triple_independence_check,
)
