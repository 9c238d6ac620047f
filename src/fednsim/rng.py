"""Deterministic, order-independent random streams.

Every source of randomness in the simulator is a Philox (counter-based)
generator keyed by a master seed plus an integer namespace path.  Streams
with different paths are statistically independent and do not depend on
the order in which they are created, so a client's draws do not depend on
which other clients train in the same round or in what order.
"""

from __future__ import annotations

import numpy as np

# Namespace constants.  Never reuse a value: stream identity is (seed, path).
NS_INIT = 0  # model weight initialization
NS_SYNTH_MEANS = 1  # synthetic dataset class means
NS_SYNTH_SAMPLES = 2  # synthetic dataset draws (sub-keyed by split)
NS_PARTITION = 3  # shard dealing / per-class dirichlet draws
NS_ROUND_SAMPLE = 4  # per-round client sampling
NS_CLIENT_SHUFFLE = 5  # per-(round, client) batch shuffling
NS_VERIFY = 6  # verification-suite instance generation


def stream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator for namespace `path` under `seed`.

    Same (seed, path) always yields the same stream; distinct paths are
    independent regardless of creation order.
    """
    seq = np.random.SeedSequence(entropy=int(seed) & ((1 << 64) - 1), spawn_key=tuple(int(p) for p in path))
    return np.random.Generator(np.random.Philox(seq))
