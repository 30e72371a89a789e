"""Bessel-type convolution structures on cones of positive semidefinite matrices.

Matrix-argument Bessel functions, the explicit hypergroup convolution on the
cone, squared Wishart laws, cone automorphisms and their action on
characters, and random-walk limit experiments, over the real and complex
fields.
"""

__version__ = "0.1.0"

from .cone_core import (
    HypergroupParams,
    psd_sqrt,
)
from .jack_series import (
    Partition,
    BesselEval,
    BesselSeriesError,
    partitions,
    jack_C,
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
    automorphism_apply,
    fourier_empirical,
)
from .wishart import (
    WishartSpec,
    fourier_closed,
    translated_density,
)
from .randwalk_limits import (
    PointMassStep,
    WishartStep,
    EmpiricalStep,
    walk_simulate,
    moment,
    moment_m2,
    clt_experiment,
    slln_experiment,
    martingale_check,
)

__all__ = [
    "__version__",
    "HypergroupParams",
    "psd_sqrt",
    "Partition",
    "BesselEval",
    "BesselSeriesError",
    "partitions",
    "jack_C",
    "character_phi",
    "character_from_squares",
    "character_panel",
    "EmpiricalMeasure",
    "phi_bochner",
    "conv_expect",
    "support_window_fraction",
    "automorphism_apply",
    "fourier_empirical",
    "WishartSpec",
    "fourier_closed",
    "translated_density",
    "PointMassStep",
    "WishartStep",
    "EmpiricalStep",
    "walk_simulate",
    "moment",
    "moment_m2",
    "clt_experiment",
    "slln_experiment",
    "martingale_check",
]
