"""Conformal permutation inference for counterfactual and synthetic controls.

The package tests sharp hypotheses about policy-effect trajectories: a
counterfactual proxy for the treated unit is fitted on the null-adjusted
full sample, and the post-treatment residuals are compared against their
permutation distribution.  Exactness under exchangeability and robustness
under weak dependence come from the procedure, not from the proxy model,
so any of the bundled estimators (difference-in-differences, synthetic
control, constrained and penalized regression, factor and matrix models,
autoregressions, and fused two-stage models) can be plugged in.

Each module's ``__all__`` declares its public names; the package exports
them all.
"""

from . import estimators, exceptions, inference, io, panel, simulation, solvers
from .estimators import *  # noqa: F401,F403
from .exceptions import *  # noqa: F401,F403
from .inference import *  # noqa: F401,F403
from .io import *  # noqa: F401,F403
from .panel import *  # noqa: F401,F403
from .simulation import *  # noqa: F401,F403
from .solvers import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__", *panel.__all__, *solvers.__all__, *estimators.__all__, *inference.__all__,
           *simulation.__all__, *io.__all__, *exceptions.__all__]
