"""Planar curve synthesis from curvature profiles and curve interrogation.

The package generates curves whose curvature follows constant, linear,
quadratic, or rational-linear (Generalized Cornu Spiral) profiles, computes
logarithmic curvature graphs and their gradients in closed form and from
sampled data, classifies curves under the linear-gradient criterion, and
builds radius-of-curvature histograms with an analytic cross-check.
"""

from . import errors, lcg, lddc, profiles, synthesis
from .errors import *
from .lcg import *
from .lddc import *
from .profiles import *
from .synthesis import *

__version__ = "0.1.0"

__all__ = ["__version__"]
__all__ += errors.__all__
__all__ += lcg.__all__
__all__ += lddc.__all__
__all__ += profiles.__all__
__all__ += synthesis.__all__
