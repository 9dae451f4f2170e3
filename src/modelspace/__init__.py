"""Numerics for Blaschke products, model-space projections and trace classifiers."""

from .blaschke import (
    BlaschkeProduct,
    all_derivatives,
    blaschke_factor,
    diagnose,
    eval_product,
    frostman_sum,
    frostman_sup,
    interpolation_delta,
    sublevel_indicator,
)
from .boundary import (
    BoundaryFunction,
    BoundaryGrid,
    bmo_norm,
    bmo_norm_exhaustive,
    h2_defect,
    lp_norm,
    membership_defect,
    model_project,
    riesz_project,
    tilde,
)
from .classify import (
    DecayVerdict,
    classify_trace,
    log_growth_check,
    measure_smoothness,
    projection_decay_report,
)
from .core import (
    ETA_MIN,
    DiagnosticsReport,
    SmoothnessDescriptor,
    ValueSequence,
    ZeroSequence,
    generate_sequence,
    pseudohyperbolic_distance,
)
from .experiments import (
    ExperimentResult,
    exp_dichotomy,
    exp_nonduality,
    exp_noninterpolation,
    exp_sublevel,
    kernel_l1_quadrature,
    log_samples,
)
from .interp import (
    InterpolantRepresentation,
    cauchy_eval,
    conjugate_matrix,
    conjugate_sequence,
    invert_conjugate,
    kernel_interpolant,
    lagrange_interpolant,
    residue_identity_check,
    trace,
)

__version__ = "0.1.0"
