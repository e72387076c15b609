"""Measurement equipment substrate.

The paper measures *system* power at the wall outlet with a Yokogawa
WT1600 digital power meter (50 ms sampling) and collects workload
statistics with the CUDA Profiler v2.01.  This package reproduces both
instruments plus the host machine they are attached to, and wraps them in
the :class:`~repro.instruments.testbed.Testbed` measurement protocol
(repeat kernels to at least 500 ms so the meter sees >= 10 samples).
"""

from repro.instruments.host import HostSystem
from repro.instruments.powermeter import PowerMeter, PowerTrace
from repro.instruments.profiler import CudaProfiler
from repro.instruments.testbed import Measurement, Testbed

__all__ = [
    "HostSystem",
    "PowerMeter",
    "PowerTrace",
    "CudaProfiler",
    "Measurement",
    "Testbed",
]
