"""scipy's LAPACK wrappers, loaded without importing ``scipy.linalg``.

The package calls LAPACK through scipy's f2py extension
``scipy/linalg/_flapack``, and through nothing else of ``scipy.linalg``;
importing that package costs more than half of this one's import time
(its array-API layer pulls in ``numpy.f2py`` and ``numpy.testing``).
So the extension is loaded from its file: ``find_spec("scipy")`` finds a
top-level package without running its ``__init__``. Where the file is
not there, ``lapack`` is ``scipy.linalg.lapack``, which re-exports the
same functions of the same extension: only the import cost differs.
"""

import importlib.machinery
import importlib.util
import os
import sys

_NAME = "scipy.linalg._flapack"


def _load():
    if _NAME in sys.modules:  # scipy.linalg is imported already
        return sys.modules[_NAME]
    scipy = importlib.util.find_spec("scipy")
    if scipy is not None and scipy.origin:
        folder = os.path.join(os.path.dirname(scipy.origin), "linalg")
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(folder, "_flapack" + suffix)
            if os.path.isfile(path):
                spec = importlib.util.spec_from_file_location(_NAME, path)
                module = importlib.util.module_from_spec(spec)
                spec.loader.exec_module(module)
                # loading entered it in sys.modules without its parent
                # package; a later import of scipy.linalg enters its own
                sys.modules.pop(_NAME, None)
                return module
    from scipy.linalg import lapack

    return lapack


lapack = _load()
