"""Linear-threshold network hierarchies.

Tools for networks of rate neurons with clipped-linear activations
arranged in layered hierarchies with separated time constants: fixed-step
simulation, exact piecewise-affine equilibrium maps and their composition
across layers, spectral certificates of global exponential stability,
synthesis of inhibitory feedback and feedforward controls that recruit or
silence task-relevant subpopulations, timescale-separation sweeps, and
identification of structured models from firing-rate data.
"""

from . import network, equilibria, stability, control, hierarchy, io, sysid
from .network import *
from .equilibria import *
from .stability import *
from .control import *
from .hierarchy import *

__version__ = "0.1.0"

__all__ = [
    *network.__all__,
    *equilibria.__all__,
    *stability.__all__,
    *control.__all__,
    *hierarchy.__all__,
    "io",
    "sysid",
    "__version__",
]
