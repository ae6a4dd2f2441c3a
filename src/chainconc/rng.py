"""Counter-based uniform variates keyed by (seed, replicate, coordinate).

Built on numpy's Philox generator. Each replicate owns a whole number of
Philox counter blocks (4 outputs per block), so the variate consumed for
(seed, replicate, coordinate) is a pure function of those three integers.
Replicates can therefore be generated in any order, in any chunking, with
bit-identical results: `uniform_matrix(seed, m, n)[r]` equals
`uniform_matrix(seed, 1, n, first=r)[0]` for every r < m.

`uniform_matrix` is the one-shot draw. `uniform_blocks` yields the same bits
for a sequence of replicate ranges, drawn one block ahead by one worker
thread into two reused buffers; numpy releases the GIL while it fills them,
so the draws overlap the caller's work on the current block. A yielded block
is valid until the next one is requested. The worker lives for one stream
and is shut down when the stream ends, is closed or fails.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

_OUTPUTS_PER_BLOCK = 4  # Philox-4x64 emits 4 uint64 words per counter step


def _blocks_per_replicate(n_vars: int) -> int:
    return -(-n_vars // _OUTPUTS_PER_BLOCK)


def _fill(seed: int, first: int, replicates: int, n_vars: int, buffer: np.ndarray) -> np.ndarray:
    """Draw replicates [first, first+replicates) into the head of a flat float buffer;
    returns them as a (replicates, n_vars) view of it."""
    bpr = _blocks_per_replicate(n_vars)
    width = bpr * _OUTPUTS_PER_BLOCK
    flat = buffer[:replicates * width]
    if replicates:
        np.random.Generator(np.random.Philox(key=seed).advance(first * bpr)).random(out=flat)
    return flat.reshape(replicates, width)[:, :n_vars]


def uniform_matrix(seed: int, replicates: int, n_vars: int, first: int = 0) -> np.ndarray:
    """Uniform variates for replicates [first, first+replicates), shape (replicates, n_vars).

    Row r is the uniform [0,1) variates of replicate first + r, independent
    of any other draws.
    """
    width = _blocks_per_replicate(n_vars) * _OUTPUTS_PER_BLOCK
    return _fill(seed, first, replicates, n_vars, np.empty(replicates * width))


def uniform_blocks(seed: int, n_vars: int, ranges):
    """Yield uniform_matrix(seed, b - a, n_vars, first=a) for each (a, b) of ranges.

    Block k + 1 is drawn on the worker while the caller holds block k, into
    the buffer that block k does not occupy, so block k is overwritten once
    block k + 1 is requested: copy a block to keep it.
    """
    ranges = list(ranges)
    if not ranges:
        return
    width = _blocks_per_replicate(n_vars) * _OUTPUTS_PER_BLOCK
    size = max(b - a for a, b in ranges) * width
    buffers = (np.empty(size), np.empty(size))
    with ThreadPoolExecutor(1) as worker:
        pending = worker.submit(_fill, seed, ranges[0][0], ranges[0][1] - ranges[0][0],
                                n_vars, buffers[0])
        for k in range(len(ranges)):
            block = pending.result()
            if k + 1 < len(ranges):
                a, b = ranges[k + 1]
                pending = worker.submit(_fill, seed, a, b - a, n_vars, buffers[(k + 1) % 2])
            yield block


def chunk_ranges(replicates: int, chunks: int) -> list[tuple[int, int]]:
    """Split [0, replicates) into `chunks` contiguous ranges (some may be empty)."""
    if chunks < 1:
        raise ValueError("chunks must be >= 1")
    bounds = np.linspace(0, replicates, chunks + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(chunks)]
