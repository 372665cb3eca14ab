"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared VM the same code can run up to about 1.8 times slower for
seconds or minutes at a time, as other tenants load the host. The
worker times this kernel before and after the set-up and after every unit, and
``run.py`` scales each time it reports to the kernel's nominal speed, so
that the figures follow the package's code and not the host's load.
The kernel mixes the kinds of work the package does: interpreter loops
and dicts, AES and SHA-256 through ``cryptography`` and ``hashlib``,
numpy vector arithmetic and a big-integer modular power.

Changing the kernel or ``NOMINAL_S`` changes every time the benchmark
reports, so it must stay fixed once a baseline is measured.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes

# About the kernel's time in the fastest state of a shared 2-vCPU Intel
# Xeon KVM guest with Python 3.11; it only sets the scale of every figure.
NOMINAL_S = 0.020

_KEY = bytes(range(16))
_BLOCK = bytes(1024)
_VECTOR = np.arange(4096, dtype=np.uint64)
_MODULUS = (1 << 1024) - 105


def kernel() -> int:
    acc, table = 0, {}
    for i in range(40000):
        acc += i * i % 7
        table[i & 1023] = acc
    for i in range(300):
        encryptor = Cipher(algorithms.AES(_KEY), modes.CTR(i.to_bytes(16, "big"))).encryptor()
        acc ^= hashlib.sha256(encryptor.update(_BLOCK)).digest()[0]
    for i in range(200):
        acc += int(((_VECTOR * (i + 3)) % 8143).sum())
    acc ^= pow(acc | 2, _MODULUS - 2, _MODULUS) & 0xFF
    return acc


def sample() -> float:
    """Seconds the kernel takes now: the faster of two calls, so a stray interrupt does not count."""
    times = []
    for _ in range(2):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)
