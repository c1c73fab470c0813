"""Timing models of the memory hierarchy.

Two models share one :class:`Cache` level implementation: the flat
synchronous :class:`MemoryHierarchy` (default) and the port-based
:class:`PortedMemorySystem` (L1I + L1D behind a shared L2, MSHRs,
completion-cycle requests).
"""

from repro.mem.cache import Cache
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.ports import (MemPort, MSHRFile, PortedICache,
                             PortedMemorySystem)

__all__ = ["Cache", "MemoryHierarchy", "MemPort", "MSHRFile",
           "PortedICache", "PortedMemorySystem"]
