"""Counter-based random stream derivation.

Every Monte Carlo trial draws from its own generator whose Philox key encodes
``(seed, experiment id, trial index, substream tag)``.  Streams therefore do
not depend on scheduling order, which is what makes results byte-identical
regardless of how many worker processes participate in a run.
"""

from __future__ import annotations

import math

import numpy as np

# Experiment identifiers baked into stream keys.  Never renumber entries:
# doing so silently changes every random draw of the affected experiment.
EXPERIMENT_IDS = {
    "aoa_rmse": 1,
    "chest_tradeoff": 2,
    "rf_chain_sweep": 3,
    "beampattern": 4,
    "unit_test": 99,
}

# Substream tags, one per independent randomness consumer within a trial.
TAG_CHANNEL = 0
TAG_NOISE_HRIS = 1
TAG_NOISE_BS = 2
TAG_TRUTH = 3
TAG_PHASES = 4
TAG_NOISE_BASELINE = 5

_MASK32 = 0xFFFFFFFF
_MASK16 = 0xFFFF


def substream(seed: int, experiment: str, trial: int, tag: int = 0) -> np.random.Generator:
    """Return the generator for one (seed, experiment, trial, tag) tuple.

    ``experiment`` is a key of ``EXPERIMENT_IDS``.  The 128-bit Philox key is
    ``[seed, experiment id<<48 | tag<<32 | trial]``, so distinct tuples map to
    distinct, statistically independent streams.
    """
    exp_id = EXPERIMENT_IDS[experiment]
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed {seed} outside the 64-bit key field")
    if not 0 <= trial <= _MASK32:
        raise ValueError(f"trial index {trial} outside the 32-bit key field")
    if not 0 <= tag <= _MASK16:
        raise ValueError(f"substream tag {tag} outside the 16-bit key field")
    key = np.array([seed, (exp_id << 48) | (tag << 32) | trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def complex_normal(rng: np.random.Generator, shape, var: float = 1.0) -> np.ndarray:
    """Draw circularly-symmetric complex Gaussians with per-entry variance ``var``.

    Real and imaginary parts are independent N(0, var/2) so that
    E[|x|^2] = var exactly.
    """
    scale = np.sqrt(var / 2.0)
    return scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def complex_normal_prefixes(rng: np.random.Generator, shapes, var: float = 1.0) -> list:
    """One stack of ``complex_normal`` draws per entry of ``shapes``, all from one draw.

    The stack of ``shape`` is ``shape[0]`` calls of ``complex_normal(rng,
    shape[1:], var)``.  Those calls consume the stream in C order, so a smaller
    stack's normals are a prefix of a larger one's: one draw sized for the
    largest serves them all.  ``complex_normal_prefixes(rng, [shape], var)[0]``
    is a single stack.
    """
    sizes = [2 * math.prod(shape) for shape in shapes]
    normals = rng.standard_normal(max(sizes))
    return [np.sqrt(var / 2.0) * (z[:, 0] + 1j * z[:, 1])
            for z in (normals[:size].reshape(shape[0], 2, *shape[1:])
                      for size, shape in zip(sizes, shapes))]
