"""The polynomial multiplication kernel (see _poly_py)."""

from . import _poly_py as _impl
from ._poly_py import KERNEL_NAME, mul_terms
