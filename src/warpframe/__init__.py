"""Verify-and-reconstruct engine for submanifolds of semi-Riemannian
warped products over space forms."""

from .ambient import (SignatureSpec, WarpingFunction, curvature_coefficients,
                      validate_signature, warped_dot, warped_lower,
                      warped_nabla)
from .bundle_data import ChartGrid, GeometricData, load_data
from .frame_solver import (FrameField, build_base_frame, integrate_frame,
                           path_independence_defect, pseudo_orthonormalize)
from .immersion import (ImmersionField, Isometry, congruence_align,
                        extract_immersion, verify_immersion)
from .oracle import (ExplicitImmersion, canonical_example, exact_base_frame,
                     exact_frame_field, example_names, induce_data,
                     make_example, reference_field)
from .verifier import (ResidualEntry, ResidualReport, aux_identity_residuals,
                       flatness_residual, structure_residual_fields,
                       structure_residuals)

__version__ = "0.1.0"
