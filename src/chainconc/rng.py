"""Counter-based uniform variates keyed by (seed, replicate, coordinate).

Built on numpy's Philox generator. Each replicate owns a whole number of
Philox counter blocks (4 outputs per block), so the variate consumed for
(seed, replicate, coordinate) is a pure function of those three integers.
Replicates can therefore be generated in any order, in any chunking, with
bit-identical results: `uniform_matrix(seed, m, n)[r]` equals
`uniform_matrix(seed, 1, n, first=r)[0]` for every r < m.
"""

from __future__ import annotations

import numpy as np

_OUTPUTS_PER_BLOCK = 4  # Philox-4x64 emits 4 uint64 words per counter step


def _blocks_per_replicate(n_vars: int) -> int:
    return -(-n_vars // _OUTPUTS_PER_BLOCK)


def uniform_matrix(seed: int, replicates: int, n_vars: int, first: int = 0) -> np.ndarray:
    """Uniform variates for replicates [first, first+replicates), shape (replicates, n_vars).

    Row r is the uniform [0,1) variates of replicate first + r, independent
    of any other draws.
    """
    if replicates == 0:
        return np.empty((0, n_vars))
    bpr = _blocks_per_replicate(n_vars)
    width = bpr * _OUTPUTS_PER_BLOCK
    bg = np.random.Philox(key=seed).advance(first * bpr)
    flat = np.random.Generator(bg).random(replicates * width)
    return flat.reshape(replicates, width)[:, :n_vars]


def chunk_ranges(replicates: int, chunks: int) -> list[tuple[int, int]]:
    """Split [0, replicates) into `chunks` contiguous ranges (some may be empty)."""
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    bounds = np.linspace(0, replicates, chunks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(chunks)]
