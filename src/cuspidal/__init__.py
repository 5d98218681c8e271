"""Exact arithmetic of cusps on X0(N): eta-quotient units, their leading
Fourier coefficients, cuspidal divisor class groups, and the rational torsion
of the generalized Jacobian with the reduced cuspidal modulus."""

from .classgroup import (
    ClassGroupResult,
    OrderMatrices,
    class_group,
    class_group_for_level,
    class_group_pq,
    eta_unit_divisor_lattice,
    eta_unit_exponent_basis,
    order_matrices,
)
from .curve import Cusp, CuspDivisor, cusp_degrees, cusps
from .errors import InputError, NotModularError, ScopeError
from .eta import (
    EtaQuotient,
    LigozatReport,
    check_modular_function,
    divisor,
    order_at_cusp,
    pq_generators,
    prime_power_generators,
)
from .jacobian import (
    TorsionResult,
    delta_cokernel,
    delta_kernel_on_cuspidal,
    delta_matrix,
    generalized_torsion,
    mu_contribution,
    pq_delta_kernel,
)
from .linalg import (
    AbelianGroup,
    IntMatrix,
    QmodZ,
    SmithDecomposition,
    cokernel,
    smith_normal_form,
)
from .transform import (
    CuspExpansion,
    LeadingCoeff,
    NumericLeadingCoeff,
    SigmaMatrix,
    cusp_expansion,
    eta_multiplier,
    eta_numeric,
    jacobi_symbol,
    numeric_leading_coefficient,
    pq_leading_coefficients,
    pq_sigma_matrix,
    sigma_matrix,
    suggested_height,
)
from .verify import ling_structure

__version__ = "0.1.0"
