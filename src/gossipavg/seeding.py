"""Deterministic seed derivation for independent per-run random streams.

Every run of an ensemble gets its own PCG64 generator seeded by mixing
(master_seed, run_index) through the SplitMix64 finalizer, a standard
full-avalanche 64-bit permutation.  Runs are therefore reproducible and
order-independent: run r never depends on how many other runs exist or
in which order they execute.

``make_rng`` gives numpy's ``Generator(PCG64(mix64(...)))``, for the
library, ``verify`` and the step API, and for a run where there is no
compiled kernel.  Where there is one, ``harness.run_single`` draws from
the kernel's own PCG64 seeded with the same ``mix64`` value
(``dynamics.KernelPCG64``): numpy's ``SeedSequence`` hash, state and
outputs, bit for bit, without importing ``numpy.random``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(master_seed: int, run_index: int) -> int:
    """SplitMix64-mix a (seed, index) pair into one 64-bit stream seed."""
    z = (master_seed + _GOLDEN * (run_index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def make_rng(master_seed: int, run_index: int = 0) -> np.random.Generator:
    """Seeded PCG64 generator for one run."""
    return np.random.Generator(np.random.PCG64(mix64(master_seed, run_index)))


GENERATOR_NAME = "pcg64"
