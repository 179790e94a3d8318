"""Data-driven optimal control of diffusions via kernel mean embeddings.

The pipeline: simulate or load one-step snapshot data of a
control-affine diffusion (``systems``), fit embedded transition
operators by kernel ridge regression (``estimator``), run the backward
value recursion to extract optimal feedback laws (``hjb``), push state
distributions forward to forecast observables (``fpk``), and score the
whole thing against systems with known optimal laws (``bench``).

The package re-exports every name in each module's ``__all__``.
"""

from . import bench, errors, estimator, fpk, hjb, kernel, store, systems
from .bench import *  # noqa: F401,F403
from .errors import *  # noqa: F401,F403
from .estimator import *  # noqa: F401,F403
from .fpk import *  # noqa: F401,F403
from .hjb import *  # noqa: F401,F403
from .kernel import *  # noqa: F401,F403
from .store import *  # noqa: F401,F403
from .systems import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (kernel, systems, estimator, hjb, fpk, bench, store, errors)
    for name in module.__all__
]
