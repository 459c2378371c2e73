"""Skew-information coherence of one- and two-qubit states in mutually
unbiased bases: numeric evaluation, closed forms, local noise channels,
and constant-coherence level surfaces."""

from .bases import (
    OrthonormalBasis,
    amub_basis,
    amub_from_mubs,
    qubit_amubs,
    qubit_mubs,
    represent_in_basis,
    verify_mub,
)
from .channels import (
    KrausChannel,
    apply_product_channel,
    dynamics_curve,
    make_channel,
    predicted_coefficients,
)
from .coherence import (
    bd_coherence,
    bd_coherence_sum,
    coherence,
    coherence_from_skew_information,
    isotropic_coherence,
    l1_coherence,
    relative_entropy_coherence,
    skew_information,
    werner_coherence,
    xz_coherence_a1,
    xz_coherence_sum,
)
from .states import (
    BellDiagonalParams,
    DensityMatrix,
    XStateZParams,
    bell_diagonal,
    correlation_coefficients,
    isotropic,
    werner,
    x_state_z,
)
from .surfaces import (
    Curve1D,
    IsoSurfaceMesh,
    ScalarField3D,
    extract_isosurface,
    sample_bd_field,
    sample_channel_field,
    sample_xz_field,
)
from .verify import run_suites

__version__ = "0.1.0"
