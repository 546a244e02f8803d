"""Canonical systems in Arov gauge.

Transfer-matrix propagation for j-monotonic 2x2 families, gauge conversion,
Weyl-disk geometry, Schur functions, the Riccati stripping flow, exponential
type, and reflectionless diagnostics.
"""

from .coefficients import (ABPair, ArovParameters, GeneralCoefficients,
                           TAIL_CONSTANT, TAIL_FINITE, TAIL_PERIODIC,
                           ab_from_a, constant_parameters, dirac_coefficients,
                           load_parameters, parameters_from_dict, reflect,
                           reparametrize, save_parameters,
                           schroedinger_coefficients, strip_head,
                           validate_general)
from .errors import (ArvcanonError, CoefficientError, DegenerateActionError,
                     DomainError, GaugeError, InconsistencyError, InputError,
                     ParseError, PreconditionError)
from .mat2 import (J, J1, JClass, JKind, ProjPoint, j_defect, mat2,
                   mobius_right, su11_normalizer)
from .propagate import (GAUGE_AROV, GAUGE_PDB, GAUGE_RAW, RecoveryResult,
                        TransferFamily, propagate_constant, recover_parameters,
                        to_arov_gauge, to_pdb_gauge, transfer, transfer_between,
                        transfer_family, transfer_general, transfer_scaled)
from .riccati import (BoundaryLimit, RiccatiState, a_to_c, blaschke_matrix,
                      boundary_limit, c_to_a, integrate_riccati,
                      riccati_fixed_point, riccati_rhs, riccati_trajectory)
from .spectral import (BPReport, ReflectionlessReport, TypeReport, bp_defect,
                       exponential_type_integral, exponential_type_numeric,
                       gamma_metric, harmonic_measure, reflectionless_defect,
                       reflectionless_ladder, type_report)
from .weyl import (Disk, LIMIT_CIRCLE, LIMIT_POINT, SchurValue, classify_limit,
                   diameter_direct, herglotz_from_schur, mobius_factor,
                   schur_minus, schur_plus, schur_stripped, weyl_disk,
                   weyl_disk_at)

__version__ = "0.1.0"
