"""Spirallike maps anchored at a boundary point: construction and verification.

The package builds disk maps from atomic probability measures on the
unit circle, evaluates them through a single branch-safe log kernel,
and numerically verifies the distortion, subordination, and covering
statements that characterize the class, at explicit tolerances.

The public names are those in the `__all__` of the five library
modules below; this file re-exports them and lists none itself.
"""

# a plain literal: pyproject.toml reads it without importing the package
__version__ = "0.1.0"

from . import kernel, measures, functions, verification, geometry
from .kernel import *
from .measures import *
from .functions import *
from .verification import *
from .geometry import *

__all__ = [*kernel.__all__, *measures.__all__, *functions.__all__, *verification.__all__, *geometry.__all__]
