"""Seed derivation shared by the training and evaluation pipelines.

Every RNG stream in a run is keyed on (run seed, stream tag, indices...),
which makes any point in a run reconstructible from the seed plus counters.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError


def derive_seed(*parts: int) -> int:
    """Stable 64-bit seed from a tuple of non-negative integers."""
    return int(np.random.SeedSequence(list(parts)).generate_state(1, dtype=np.uint64)[0])


def check_seed(seed: int) -> None:
    """ConfigError unless seed fits the unsigned 64-bit field that checkpoints store it in."""
    if not 0 <= seed < 2**64:
        raise ConfigError(f"seed must be in [0, 2**64), got {seed}")
