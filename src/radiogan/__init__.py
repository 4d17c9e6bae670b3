"""GAN-based synthesis of pseudo-radio-signals from recorded I/Q prototypes.

Library names are imported from their modules, e.g.
``from radiogan.validation import validate``.
"""

__version__ = "0.1.0"

# Importing blocks runs numpy's OpenBLAS on one thread, so no bits depend on a
# BLAS thread count whichever module is imported first.
from . import blocks  # noqa: F401
