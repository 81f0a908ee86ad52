"""Equal-weight quadrature on complex unit spheres.

Triangular designs on the complex sphere in C^d are built by optimizing
real spherical designs on S^(2d-1) (a variational zonal-kernel criterion
drives the search), verified by exact monomial integration, and graded by
geometric quality: separation, covering radius, and mesh ratio.
"""

from . import bridge, criteria, metrics, optimize, orthopoly, sphere
from .bridge import *  # noqa: F401,F403
from .criteria import *  # noqa: F401,F403
from .metrics import *  # noqa: F401,F403
from .optimize import *  # noqa: F401,F403
from .orthopoly import *  # noqa: F401,F403
from .sphere import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = sorted(
    {name for mod in (bridge, criteria, metrics, optimize, orthopoly, sphere)
     for name in mod.__all__}
)
