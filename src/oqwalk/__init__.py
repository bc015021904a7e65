"""Homogeneous open quantum random walks on integer lattices.

Model definition and validation, structural analysis of the auxiliary map
(irreducibility, period, recurrent/decaying splitting), asymptotic statistics
(drift, CLT covariance, tilted-eigenvalue curves, large-deviation rate
function), and seeded quantum-trajectory simulation with exact small-horizon
cross-checks.
"""
from . import asymptotics, errors, model, rng, structure, superop, trajectories
from .asymptotics import *  # noqa: F403
from .errors import *  # noqa: F403
from .model import *  # noqa: F403
from .rng import *  # noqa: F403
from .structure import *  # noqa: F403
from .superop import *  # noqa: F403
from .trajectories import *  # noqa: F403

__version__ = "0.1.0"

# Each module's ``__all__`` is the one list of its public names.
__all__ = [name for module in (asymptotics, errors, model, rng, structure, superop,
                               trajectories)
           for name in module.__all__]
