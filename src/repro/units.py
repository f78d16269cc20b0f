"""Units and constants used throughout the simulation.

Time is expressed in seconds (floats on the virtual clock) and sizes in
bytes (ints).  Bandwidths are bytes per second.  The constants below match
the testbed described in §8 of the paper: A800 GPUs on PCIe 4.0 x16 with
NVLink interconnects and a 100 Gbps RDMA network.
"""

from __future__ import annotations

# --- sizes ---------------------------------------------------------------
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

PAGE_SIZE = 4 * KIB

# --- time ----------------------------------------------------------------
USEC = 1e-6
MSEC = 1e-3
HOUR = 3600.0

# --- testbed bandwidths (§8: A800 servers, PCIe 4.0, 100 Gbps RDMA) -------
#: Measured PCIe bandwidth (paper footnote 1: "slightly below the limit").
PCIE_GEN4_MEASURED = 25 * GB
#: NVLink bandwidth between GPUs in the same server (400 GBps per §8).
NVLINK_BW = 400 * GB
#: 100 Gbps RDMA NIC per GPU, in bytes per second.
RDMA_100GBPS = 100 * GB // 8
#: One-way RDMA message latency between machines (and the fleet's
#: control-message latency).
RDMA_LINK_LATENCY = 5 * USEC
#: A800 HBM2e bandwidth (approximately 2 TB/s).
HBM_BW = 2000 * GB
#: Local NVMe SSD write bandwidth (a typical datacenter drive).
SSD_BW = 3 * GB

#: Checkpoint copy chunk size used by the prioritized PCIe transfer (§5).
CHECKPOINT_CHUNK = 4 * MIB


def fmt_bytes(n: int) -> str:
    """Render a byte count with a binary-prefix unit, e.g. ``'72.0 GiB'``."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if value < 1024.0 or unit == "TiB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    raise AssertionError("unreachable")


def fmt_seconds(t: float) -> str:
    """Render a duration with an adaptive unit, e.g. ``'185 ms'``."""
    if t < 0:
        return "-" + fmt_seconds(-t)
    if t < 1e-3:
        return f"{t * 1e6:.0f} us"
    if t < 1.0:
        return f"{t * 1e3:.0f} ms"
    if t < 120.0:
        return f"{t:.2f} s"
    return f"{t / 60.0:.1f} min"


def transfer_time(nbytes: int, bandwidth: float, latency: float = 0.0) -> float:
    """Time to move ``nbytes`` over a link of ``bandwidth`` bytes/second."""
    if bandwidth <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    if nbytes < 0:
        raise ValueError(f"nbytes must be non-negative, got {nbytes}")
    return latency + nbytes / bandwidth
