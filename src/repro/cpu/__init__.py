"""Simulated host (CPU) side of a GPU process.

CPU state is page-granular, mirroring the OS-mediated data paths the
paper relies on for the CPU half of a checkpoint (Table 1): write
protection drives copy-on-write, the soft-dirty bit drives recopy, and
the present bit drives on-demand restore.
"""

from repro.cpu.criu import CriuEngine
from repro.cpu.memory import HostMemory
from repro.cpu.process import HostProcess

__all__ = ["CriuEngine", "HostMemory", "HostProcess"]
