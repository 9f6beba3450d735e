"""Derivative-free pattern search with an exactly simulated quantum search
step.

The classical machinery is a standard generalized pattern search: a mesh of
candidate points, an opportunistic search step, and a convergence-carrying
poll step.  The quantum backend replaces the search step's O(N) scan with
amplitude amplification, simulated exactly on one amplitude per candidate,
using a finite-termination stopping rule, and keeps a strict ledger
separating classical from quantum oracle calls.  A sparse statevector over
full-width bitstrings is kept as the reference simulator.
"""

# Each module's __all__ is the one list of its public names.
from .amplify import *
from .fixedpoint import *
from .ledger import *
from .objectives import *
from .pattern import *
from .quantum_step import *
from .state import *

__version__ = "0.1.0"
