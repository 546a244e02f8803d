"""Canonical systems in Arov gauge.

Transfer-matrix propagation for j-monotonic 2x2 families, gauge conversion,
Weyl-disk geometry, Schur functions, the Riccati stripping flow, exponential
type, and reflectionless diagnostics.
"""

from .coefficients import (ArovParameters, GeneralCoefficients, TAIL_CONSTANT,
                           TAIL_FINITE, TAIL_PERIODIC, constant_parameters,
                           dirac_coefficients, load_parameters,
                           parameters_from_dict, reflect, save_parameters,
                           schroedinger_coefficients, strip_head)
from .errors import (ArvcanonError, CoefficientError, DegenerateActionError,
                     DomainError, GaugeError, InconsistencyError, InputError,
                     ParseError, PreconditionError)
from .mat2 import (J, J1, JClass, JKind, j_defect, mat2, mobius_right,
                   su11_normalizer)
from .propagate import (GAUGE_AROV, GAUGE_PDB, GAUGE_RAW, RecoveryResult,
                        TransferFamily, recover_parameters, to_arov_gauge,
                        to_pdb_gauge, transfer, transfer_between,
                        transfer_family, transfer_scaled)
from .riccati import (BoundaryLimit, RiccatiState, a_to_c, boundary_limit,
                      c_to_a, integrate_riccati, riccati_fixed_point,
                      riccati_trajectory)
from .spectral import (BPReport, ReflectionlessReport, TypeReport, bp_defect,
                       exponential_type_integral, exponential_type_numeric,
                       harmonic_measure, reflectionless_defect,
                       reflectionless_ladder, type_report)
from .weyl import (Disk, LIMIT_CIRCLE, LIMIT_POINT, SchurValue, classify_limit,
                   herglotz_from_schur, schur_minus, schur_plus, weyl_disk,
                   weyl_disk_at)

__version__ = "0.1.0"
