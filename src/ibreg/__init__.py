"""Complexity-relevance regions for collaborative information bottleneck problems.

Exact closed-form Gaussian regions, analytically characterised binary
relevance-rate curves with their convex-analysis solvers, and search-based
evaluation of single-letter inner bounds over cardinality-bounded auxiliary
channels.  All information quantities are in bits.
"""

from .bentropy import *
from .binary import *
from .curves import RegionCurve
from .errors import *
from .gaussian import *
from .pmf import *
from .search import *

__version__ = "0.1.0"
