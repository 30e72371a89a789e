"""Bessel-type convolution structures on cones of positive semidefinite matrices.

Matrix-argument Bessel functions, the explicit hypergroup convolution on the
cone, squared Wishart laws, cone automorphisms and their action on
characters, and random-walk limit experiments, over the real and complex
fields.
"""

__version__ = "0.1.0"

from .cone_core import (
    HypergroupParams,
    HermitianMatrix,
    ConePoint,
    psd_sqrt,
)
from .jack_series import (
    Partition,
    BesselEval,
    BesselSeriesError,
    partitions,
    jack_C,
    zonal_Z,
    bessel_J,
    character_phi,
    character_from_squares,
    character_panel,
)
from .ball_measure import (
    EmpiricalMeasure,
    phi_bochner,
    conv_expect,
    support_window_fraction,
)
from .hypergroup_algebra import (
    Automorphism,
    automorphism_apply,
    fourier_empirical,
)
from .wishart import (
    WishartSpec,
    density,
    fourier_closed,
    translated_density,
    semigroup_check,
)
from .randwalk_limits import (
    WalkConfig,
    MomentSpec,
    PointMassStep,
    WishartStep,
    EmpiricalStep,
    walk_simulate,
    moment_m2,
    moment_numeric,
    clt_experiment,
    slln_experiment,
    martingale_check,
)

__all__ = [
    "__version__",
    "HypergroupParams",
    "HermitianMatrix",
    "ConePoint",
    "psd_sqrt",
    "Partition",
    "BesselEval",
    "BesselSeriesError",
    "partitions",
    "jack_C",
    "zonal_Z",
    "bessel_J",
    "character_phi",
    "character_from_squares",
    "character_panel",
    "EmpiricalMeasure",
    "phi_bochner",
    "conv_expect",
    "support_window_fraction",
    "Automorphism",
    "automorphism_apply",
    "fourier_empirical",
    "WishartSpec",
    "density",
    "fourier_closed",
    "translated_density",
    "semigroup_check",
    "WalkConfig",
    "MomentSpec",
    "PointMassStep",
    "WishartStep",
    "EmpiricalStep",
    "walk_simulate",
    "moment_m2",
    "moment_numeric",
    "clt_experiment",
    "slln_experiment",
    "martingale_check",
]
