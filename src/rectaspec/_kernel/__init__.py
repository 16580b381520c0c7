"""Backtracking kernels.

The signature DFS (``run_search``) is pure Python.  The weighing search
(``run_weighing_search``) uses the compiled extension when it imports and its
pure-Python twin otherwise; ``active_backend()`` reports which one is in use.
"""

from . import pysearch
from .pysearch import run_search

try:
    from . import _sigsearch as _weighing  # type: ignore[attr-defined]
except ImportError:
    _weighing = pysearch

run_weighing_search = _weighing.run_weighing_search


def active_backend() -> str:
    return _weighing.IMPL
