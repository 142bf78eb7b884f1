"""REP003 fixture: downward and sideways imports only. All clean."""

import repro.perf
from repro.topology.physical import PhysicalTopology
from . import generators
from .soa import ArrayOverlay
