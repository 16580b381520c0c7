"""Pure-Python backtracking kernels, kept as references for the tests.

``run_search`` is the signature DFS behind ``search.search_signatures_dfs``.
``run_weighing_search`` is the old sign-by-sign weighing search, the oracle
the tests compare ``search.search_weighing`` against.  ``active_backend()``
always reports ``"python"``: no compiled kernel is left.
"""

from .pysearch import run_search, run_weighing_search


def active_backend() -> str:
    return "python"
