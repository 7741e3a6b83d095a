"""The one place :mod:`repro` imports numpy.

numpy is optional, and one kernel uses it: the STP closure
(:mod:`repro.constraints.stp`), which runs numpy only on closures large
enough for it to win and whose pure-Python loop gives bit-identical
answers; without numpy every closure runs that loop.  The kernel
module binds :data:`np` to its own ``_np`` name, so a test can switch
it to the pure-Python loop by patching ``stp._np``.

numpy is found here but loaded on first use: :data:`np` is a module
whose body runs at the first attribute read
(:class:`importlib.util.LazyLoader`), so a command that never runs a
numpy closure (``repro serve``, ``repro mine`` on mining-size
structures) never pays for it, while ``_np is None`` stays the test for
"no numpy".  A numpy that is installed but fails to load raises at that
first read, not here.

On Python before 3.12.3 the first load is not thread-safe: a second
thread that reads a numpy attribute while the first is still loading
it can see a partly run module.  No thread of the program does that
today - the sampling profiler only reads frames and the service runs
on one event loop - so a new thread that may touch numpy first should
load it (``np.ndarray``) before it starts.
"""

import importlib.util
import sys


def _find_numpy():
    loaded = sys.modules.get("numpy")
    if loaded is not None:
        return loaded
    try:
        spec = importlib.util.find_spec("numpy")
    except ImportError:  # pragma: no cover - a blocked or broken finder
        return None
    if spec is None:  # pragma: no cover - numpy is present in dev envs
        return None
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _find_numpy()
