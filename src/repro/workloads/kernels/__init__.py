"""Computational kernels executed by the benchmark workloads.

The paper's benchmarks run real firmware kernels (software AES-128 for the
data-encryption benchmark, digital filtering of microphone samples for the
sense-and-compute benchmark).  The simulator accounts for their *energy*
cost through the MCU's active current, but the kernels are also implemented
here so that "work completed" is grounded in actual computation: the DE
workload runs :class:`AES128`, SC runs :class:`FirFilter`, and RT and PF
checksum their packets with :func:`crc16_ccitt`.
"""

from repro.workloads.kernels.aes import AES128, aes128_encrypt_block, aes128_self_test
from repro.workloads.kernels.fir import FirFilter, design_lowpass
from repro.workloads.kernels.crc import crc16_ccitt

__all__ = [
    "AES128",
    "aes128_encrypt_block",
    "aes128_self_test",
    "FirFilter",
    "design_lowpass",
    "crc16_ccitt",
]
