"""raidlab: storage reliability and performance engineering toolkit.

Analytic queueing and rebuild models for disk arrays, erasure codes as
explicit parity-equation systems, declustered and replicated placement
schemes, a finite CTMC engine, closed-form reliability metrics, and the
Monte-Carlo simulators that validate them.

``import raidlab`` loads none of these layers: each is imported on first
use, as ``raidlab.codes``, ``from raidlab import sim`` or
``import raidlab.ctmc``.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "builders", "codes", "config", "ctmc", "declustering", "disk", "gf",
    "queueing", "rebuild", "reliability", "sim",
]


def __getattr__(name):
    # PEP 562: reached only while the submodule is not yet loaded, since
    # importing it binds it as an attribute of the package
    if name in __all__:
        return importlib.import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__))
