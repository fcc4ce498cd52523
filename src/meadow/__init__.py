"""Exact arithmetic where division is total: x/0 is 0, never an error.

The package provides term trees for the two equivalent signatures (binary
division and unary reciprocal), a parser and printer, normalization into
sums of numeral fractions, evaluation and equation checking over the
zero-totalized rationals, the modular rings mk(k), and the Galois fields
gf(p, n), canonical polynomials, and the fraction transforms built on
top of them.  Everything is exact; no floats are involved anywhere.

Each module lists its public names in its own ``__all__``; the package
exports exactly the union of those lists.
"""
from .errors import *
from .models import *
from .normal_forms import *
from .polynomials import *
from .syntax import *
from .terms import *
from .transforms import *

__version__ = "0.1.0"

__all__ = (errors.__all__ + models.__all__ + normal_forms.__all__
           + polynomials.__all__ + syntax.__all__ + terms.__all__
           + transforms.__all__)
