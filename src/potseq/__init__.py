"""Degree-sequence toolkit: graphicality tests, potentially K6-C4 / K5-C4
deciders with reasoned verdicts, witness construction, and an exhaustive
search oracle for verifying the closed-form tests at small n."""

from .sequences import *
from .graphs import *
from .characterize import *
from .search import *

__version__ = "0.1.0"
