"""First-order convex solvers with two-level Tikhonov regularization.

Fixed-step projected gradient and conditional gradient baselines converge in
objective value only; the two-level variants here (run_gprm, run_cgrm) drive
their iterates to the minimal-norm solution by solving a shrinking sequence
of strongly convex perturbed problems, with measurable iteration complexity.
The bench module bundles problems with known ground truth and the machinery
to check measured complexity against the closed-form bounds.

The package re-exports the __all__ of core, oracles, regularization, solvers
and bench.
"""

from . import bench, core, oracles, regularization, solvers
from .core import *
from .oracles import *
from .regularization import *
from .solvers import *
from .bench import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__, *oracles.__all__, *regularization.__all__, *solvers.__all__, *bench.__all__,
    "__version__",
]
