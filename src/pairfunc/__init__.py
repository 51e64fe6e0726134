"""Simulation library for pair functionals of marked Poisson point processes
with column-type dependence: projected crossing numbers, barcode inversion
counts and tree realization numbers, plus the statistics needed to check their
variance scaling, stabilization, concentration and normal approximation."""

__version__ = "0.1.0"

from .geometry import (
    AxisBox,
    Cube,
    Window,
    segments_properly_cross,
)
from .process import (
    MarkModel,
    MarkedPoint,
    PointConfiguration,
    derive_rng,
    dump_configuration,
    insert_point,
    load_configuration,
    sample_ppp,
)
from .graphs import (
    DirectedRandom,
    FixedRadius,
    GeometricGraph,
    Localized,
    MaxKernel,
    build_edges,
    crossing_number,
    crossing_number_direct,
)
from .barcodes import (
    Bar,
    Barcode,
    MergeForest,
    build_merge_forest,
    elder_lifetimes,
    inversion_count,
    inversion_score,
    shield_membership,
    shield_property_check,
    uniform_lifetimes,
)
from .functionals import (
    AdmissibilityRule,
    FunctionalValue,
    diff_first,
    diff_second,
    double_sum,
    empirical_stabilization_radius,
    sum_log_sum,
)
from .stats import (
    SampleSummary,
    ScalingFit,
    binomial_lower_tail_bound,
    kolmogorov_to_standard_normal,
    poisson_upper_tail_bound,
    summarize_sample,
    variance_scaling_fit,
    wasserstein1_to_standard_normal,
)
from .models import Model, get_model
