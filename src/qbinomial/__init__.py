"""Kemp q-binomial distribution, its limit family, and convergence diagnostics."""

from .asymptotics import *
from .distributions import *
from .metrics import *
from .qcalc import *
from .solvers import *

__version__ = "0.1.0"
