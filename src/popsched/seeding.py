"""Deterministic random-stream derivation.

Every stream used in a run is derived from (master_seed, agent_id, kind)
through numpy's SeedSequence, so streams are disjoint across agents and
kinds, reproducible across platforms, and independent of the order in
which agents are trained.
"""

from __future__ import annotations

import numpy as np

STREAM_KINDS = {"init": 0, "train": 1, "eval": 2, "evolve": 3}


def seed_hierarchy(master_seed: int, agent_id: int, stream_kind: str) -> np.random.Generator:
    """Return the dedicated random stream for one (agent, kind) pair."""
    try:
        code = STREAM_KINDS[stream_kind]
    except KeyError:
        raise ValueError(f"unknown stream kind {stream_kind!r}") from None
    ss = np.random.SeedSequence((int(master_seed), int(agent_id), code))
    return np.random.default_rng(ss)


def restore_generator(state: dict) -> np.random.Generator:
    """A PCG64 generator continuing from a saved bit-generator state."""
    # Seeded, because an unseeded generator reads OS entropy for a state overwritten next.
    bit_generator = np.random.PCG64(0)
    bit_generator.state = state  # the setter copies it, and refuses another bit generator's
    return np.random.Generator(bit_generator)


def agent_trainable_seed(master_seed: int, agent_id: int) -> int:
    """Stable integer seed handed to a trainable's init().

    The trainable derives its own internal train/eval streams from this
    value, keeping them disjoint from the runner-owned streams above.
    """
    ss = np.random.SeedSequence((int(master_seed), int(agent_id)))
    return int(ss.generate_state(1, np.uint64)[0])
