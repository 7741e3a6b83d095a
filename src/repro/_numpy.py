"""The one place :mod:`repro` imports numpy.

numpy is optional: every vectorized kernel has a pure-Python twin
that gives bit-identical answers.  Set the environment variable
``REPRO_NO_NUMPY`` to any non-empty value before the first ``repro``
import to ignore an installed numpy (CI runs tier-1 that way to prove
the fallback).  Each kernel module binds :data:`np` to its own
``_np`` name, so a test can switch one module to the fallback by
patching ``module._np``.
"""

import os

try:  # pragma: no cover - exercised via the no-numpy CI job
    if os.environ.get("REPRO_NO_NUMPY"):
        np = None
    else:
        import numpy as np
except ImportError:  # pragma: no cover - numpy is present in dev envs
    np = None
