"""Pure-Python backtracking kernels, kept in the package only because the
benchmark (``perfbench/``) imports them; the tests use them as references.

``run_search`` is the paper's signature DFS, the kernel of the tests'
reference search.  ``run_weighing_search`` is the old sign-by-sign weighing
search, the oracle the tests compare ``search.search_weighing`` against.
``active_backend()`` always reports ``"python"``: no compiled kernel is left.
"""

from .pysearch import run_search, run_weighing_search


def active_backend() -> str:
    return "python"
