"""Deterministic, seed-reproducible dithers uniform over the scaled Voronoi cell.

A counter-based 64-bit generator drives everything: word i of the stream
seeded s is mix64(s + (i+1) * golden), mix64 the splitmix64 finalizer, a
pure function of (s, i), so decoders can jump straight to the draw they
need without replaying the sequence.  Uniform deviates take the top 53
bits of a word.  Dither draw k of an n-dimensional stream consumes the
fixed word stride [reserved + k*n, reserved + (k+1)*n).

All state updates are plain uint64 arithmetic (wrapping mod 2**64, word
positions too), so streams are bit-identical across platforms and between
encoder and decoder.  Both generators, `stream_uniforms` (a run of words
per seed) and `gathered_uniforms` (given word positions per seed), compute
word-major through one kernel: the words are a C-contiguous (words, seeds)
array, mixed in place, and the (seeds, words) result is its transpose.
"""

from __future__ import annotations

import numpy as np

from .lattices import Lattice

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DERIVE = np.uint64(0xD1342543DE82EF95)
_U53 = 2.0 ** -53


def _mix_in_place(x):
    # the splitmix64 finalizer of the uint64 array x, written over x
    x ^= x >> np.uint64(30)
    x *= _MIX1
    x ^= x >> np.uint64(27)
    x *= _MIX2
    x ^= x >> np.uint64(31)
    return x


def _uniforms(seeds, steps):
    # Uniforms of the words seed + steps, mixed: steps holds (i + 1) * golden
    # for word i, as a (words, rows) array (overwritten) or a (words, 1)
    # column shared by every seed.  For a column or a C-contiguous steps the
    # words are one C-contiguous (words, rows) array, so each step runs along
    # rows of every seed; the result is its transpose, one row per seed.
    seeds = np.asarray(seeds, dtype=np.uint64)
    x = np.add(steps, seeds, out=steps if steps.shape[1] == len(seeds) else None)
    _mix_in_place(x)
    x >>= np.uint64(11)
    u = x.astype(np.float64)
    u *= _U53
    return u.T


def derive_seed(seed, index) -> int:
    """Decorrelated stream seed for batch element `index`.

    Part of the container format: vector i of an encoded stream uses the
    stream seeded with derive_seed(header.seed, i).
    """
    return int(derive_seeds(seed, np.asarray([index], dtype=np.uint64))[0])


def derive_seeds(seed, indices):
    """Vectorized derive_seed over an array of element indices."""
    x = np.asarray(indices, dtype=np.uint64) * _DERIVE
    x += np.uint64(1)
    _mix_in_place(x)
    x += _mix_in_place(np.array([seed], dtype=np.uint64))
    return _mix_in_place(x)


def stream_uniforms(seeds, first_word, count):
    """(len(seeds), count) uniforms at words [first_word, first_word+count).

    Row i holds the words of the stream seeded seeds[i], as
    `gathered_uniforms` gives them, and the result is the transpose of a
    C-contiguous (count, len(seeds)) array, one row per word, so the
    rejection loop, which keeps one row per coordinate, takes `.T` without a
    copy.  Word positions wrap mod 2**64.
    """
    steps = np.arange(count, dtype=np.uint64) + np.uint64((int(first_word) + 1) % 2 ** 64)
    steps *= _GOLDEN
    return _uniforms(seeds, steps[:, None])


def gathered_uniforms(seeds, word_index):
    """Uniforms at per-row word positions; word_index has shape (N, count).

    Computed on word_index.T, so the transpose of a C-contiguous (count, N)
    index gives the transpose of a C-contiguous (count, N) result."""
    steps = np.asarray(word_index, dtype=np.uint64).T + np.uint64(1)
    steps *= _GOLDEN
    return _uniforms(seeds, steps)


def fold_rows(lat: Lattice, U):
    """Measure-preserving fold of cube samples into the Voronoi cell.

    U in [0,1)^n is mapped through the fundamental parallelepiped G U and
    reduced mod the lattice, landing uniformly in the (unscaled) cell.
    """
    W = lat.embed_rows(U)
    return W - lat.nearest_points(W)
