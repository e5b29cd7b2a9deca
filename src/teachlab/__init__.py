"""Exact teaching-dimension computations on finite concept classes.

Concepts over a domain [n] = {1..n} are bit masks; classes are ordered,
duplicate-free tuples of concepts.  The library computes classical teaching
dimensions (TD, TD_min, TD_max, RTD), no-clash teaching dimensions and
teachers, tournament-induced classes with their canonical order-1 teachers,
Johnson-graph extremal families, the Sauer-type bound family, and the
desk-scale probabilistic experiments.  Everything is exact integer or
rational arithmetic except where a report is explicitly a float estimate.

Each module's __all__ is its public surface; the package root re-exports
every one of them.
"""

from . import bounds, classical, concepts, errors, experiments, johnson, ncteach, rng, tournaments
from .bounds import *
from .classical import *
from .concepts import *
from .errors import *
from .experiments import *
from .johnson import *
from .ncteach import *
from .rng import *
from .tournaments import *

__version__ = "0.1.0"

__all__ = []
__all__ += bounds.__all__
__all__ += classical.__all__
__all__ += concepts.__all__
__all__ += errors.__all__
__all__ += experiments.__all__
__all__ += johnson.__all__
__all__ += ncteach.__all__
__all__ += rng.__all__
__all__ += tournaments.__all__
