"""Build hook for the compiled weighing-search kernel.

The extension is optional: when Cython or a C compiler is unavailable the
package installs anyway and falls back to the pure-Python kernel at import
time (see rectaspec._kernel).
"""

from setuptools import Extension, setup

ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("rectaspec._kernel._sigsearch",
                   ["src/rectaspec/_kernel/_sigsearch.pyx"])],
        language_level=3,
    )
except ImportError:
    pass

setup(ext_modules=ext_modules)
