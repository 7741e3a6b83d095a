"""Package exports resolved on first use (PEP 562).

Each package ``__init__`` maps every public name to the submodule that
defines it and installs the module hooks this helper returns, so
``import repro`` (or any package) loads no submodule until a name of it
is read.  ``from repro import X``, ``from repro import *``,
``hasattr`` and ``dir()`` behave as with eager imports.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """The ``__getattr__`` and ``__dir__`` of a package.

    ``exports`` maps each exported name to the module, relative to
    ``package``, that defines it.  The first read of a name imports
    that module and binds the value in the package, so later reads are
    plain attribute lookups.
    """

    def __getattr__(name):
        try:
            source = exports[name]
        except KeyError:
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            ) from None
        value = getattr(importlib.import_module("." + source, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
