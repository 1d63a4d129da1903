"""repro — Scalar Wave Modeling (SWM) of 3D surface-roughness loss.

A from-scratch Python reproduction of:

    Q. Chen and N. Wong, "New Simulation Methodology of 3D Surface
    Roughness Loss for Interconnects Modeling", DATE 2009, pp. 1184-1189.

Subpackages
-----------
``surfaces``
    Random rough-surface characterization (correlation functions,
    spectral synthesis, statistics extraction, KL reduction) and the
    deterministic test geometries.
``greens``
    Free-space and periodic scalar Green's functions (Ewald method).
``swm``
    The 3D and 2D scalar-wave boundary-element solvers (the paper's
    core contribution).
``models``
    Closed-form baselines: empirical eq. (1), SPM2, HBM, Huray.
``stochastic``
    Monte-Carlo, Hermite chaos, Smolyak sparse grids, SSCM.
``core``
    End-to-end pipelines tying it all together.
``engine``
    Parallel sweep-execution engine with content-addressed result
    caching (``run_sweep`` over scenarios x frequencies x estimators).
``interconnects``
    Transmission-line application layer (RLGC/ABCD/S-parameters with
    roughness-corrected conductor loss).
``experiments``
    One declarative Experiment (plan/reduce over the engine) per
    figure/table of the paper's evaluation.
``api``
    The facade: ``repro.api.run("fig3", scale="quick", jobs=4)``,
    ``repro.api.run_many([...])``, ``repro.api.plan(...)``.

Quickstart
----------
>>> import numpy as np
>>> from repro import GaussianCorrelation, StochasticLossModel
>>> from repro import StochasticLossConfig
>>> from repro.constants import UM, GHZ
>>> model = StochasticLossModel(
...     GaussianCorrelation(sigma=1 * UM, eta=1 * UM),
...     StochasticLossConfig(points_per_side=10, max_modes=6))
>>> stats = model.sscm(5 * GHZ, order=1)
>>> 1.0 < stats.mean < 2.5
True
"""

from . import constants
from .core import (
    DeterministicLossModel,
    StochasticLossConfig,
    StochasticLossModel,
)
from .errors import (
    ConfigurationError,
    ConvergenceError,
    MeshError,
    ReproError,
    SolverError,
    StochasticError,
)
from .materials import (
    PAPER_SYSTEM,
    Conductor,
    Dielectric,
    TwoMediumSystem,
    skin_depth,
)
from .models import (
    HemisphericalBossModel,
    HurayModel,
    hammerstad_enhancement,
    spm2_enhancement,
    spm2_enhancement_profile,
)
from .stochastic import (
    MonteCarloEstimator,
    SSCMEstimator,
    smolyak_grid,
)
from .surfaces import (
    ExponentialCorrelation,
    ExtractedCorrelation,
    GaussianCorrelation,
    MaternCorrelation,
    ProfileGenerator,
    SurfaceGenerator,
    extract_statistics,
)
from .swm import SWMSolver2D, SWMSolver3D

__version__ = "1.0.0"


def __getattr__(name: str):
    # The facade pulls in the whole experiments package; loading it
    # lazily keeps `import repro` (and every fleet-worker interpreter)
    # from paying for all seven figure modules up front. NB: must use
    # import_module — `from . import api` here would re-enter this
    # __getattr__ through the fromlist hasattr check and recurse.
    if name == "api":
        import importlib

        return importlib.import_module(".api", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Conductor",
    "ConfigurationError",
    "ConvergenceError",
    "DeterministicLossModel",
    "Dielectric",
    "ExponentialCorrelation",
    "ExtractedCorrelation",
    "GaussianCorrelation",
    "HemisphericalBossModel",
    "HurayModel",
    "MaternCorrelation",
    "MeshError",
    "MonteCarloEstimator",
    "PAPER_SYSTEM",
    "ProfileGenerator",
    "ReproError",
    "SSCMEstimator",
    "SWMSolver2D",
    "SWMSolver3D",
    "SolverError",
    "StochasticError",
    "StochasticLossConfig",
    "StochasticLossModel",
    "SurfaceGenerator",
    "TwoMediumSystem",
    "api",
    "constants",
    "extract_statistics",
    "hammerstad_enhancement",
    "skin_depth",
    "smolyak_grid",
    "spm2_enhancement",
    "spm2_enhancement_profile",
    "__version__",
]
