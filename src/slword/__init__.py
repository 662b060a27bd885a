"""slword: exact conjugate-word factorizations and word-norm diameters in SL_n.

Writes special linear matrices over Q or F_p as short products of conjugates
of a generating set, with machine-checkable certificates, and brute-forces
exact word-norm diameters of small finite SL_n(F_p).
"""

from .bruhat import (
    BigCellForm,
    BruhatForm,
    big_cell_decompose,
    bruhat_decompose,
    split_over_big_cell,
)
from .certificate import (
    Certificate,
    CertificateMismatch,
    Letter,
    certificate_from_json,
    certificate_to_json,
    conjugate_certificate,
    evaluate_certificate,
    require_valid,
    substitute_certificate,
    verify_certificate,
)
from .decompose import (
    GeneratingSet,
    SearchBudgetExceeded,
    decompose_as_conjugates_of,
    decompose_full,
    decompose_via_sourour,
    decompose_via_unipotents,
    find_regular_in_ball,
    random_sl,
    random_sl_bounded,
    smallest_radius,
)
from .fields import GF, QQ, Field, Fp, Scalar
from .matrix import (
    SLMatrix,
    is_central,
    is_diagonal,
    is_upper_triangular,
    is_upper_unitriangular,
    leading_principal_minors,
    mat_product,
    matrix_from_json,
    matrix_to_json,
)
from .oracle import (
    DeltaReport,
    GroupSizeCapExceeded,
    GroupTable,
    NormTable,
    brute_force_elements,
    delta,
    enumerate_group,
    norm_ball_table,
    normally_generates,
    norms_by_fixed_point,
    transvection_diameter,
)
from .rootdata import (
    elementary,
    longest_element_rep,
    standard_generators,
    weyl_representative,
)
from .torus import sl2_coroot_factor, torus_factor
from .unipotent import (
    solve_twisted_conjugation,
    unipotent_as_two_conjugates,
)

__version__ = "0.1.0"
