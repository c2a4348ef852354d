"""Deterministic, seed-reproducible dithers uniform over the scaled Voronoi cell.

A counter-based 64-bit generator drives everything: word i of a stream is
a pure function of (seed, i), so decoders can jump straight to the draw
they need without replaying the sequence.  Uniform deviates take the top
53 bits of a word.  Dither draw k of an n-dimensional stream consumes the
fixed word stride [reserved + k*n, reserved + (k+1)*n).

All state updates are plain uint64 arithmetic (wrapping mod 2**64), so
streams are bit-identical across platforms and between encoder and decoder.
"""

from __future__ import annotations

import numpy as np

from .lattices import Lattice

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_DERIVE = np.uint64(0xD1342543DE82EF95)
_U53 = 2.0 ** -53


def mix64(x):
    """Scramble uint64 values (array in, array out)."""
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def rand_words(seed, index):
    """Word i of the stream seeded `seed`: mix64(seed + (i+1)*golden); both broadcast."""
    idx = np.asarray(index, dtype=np.uint64)
    return mix64(np.asarray(seed, dtype=np.uint64) + (idx + np.uint64(1)) * _GOLDEN)


def uniform53(words):
    """Map 64-bit words to [0, 1) doubles from their top 53 bits."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * _U53


def derive_seed(seed, index) -> int:
    """Decorrelated stream seed for batch element `index`.

    Part of the container format: vector i of an encoded stream uses the
    stream seeded with derive_seed(header.seed, i).
    """
    return int(derive_seeds(seed, np.asarray([index], dtype=np.uint64))[0])


def derive_seeds(seed, indices):
    """Vectorized derive_seed over an array of element indices."""
    a = mix64(np.asarray([seed], dtype=np.uint64))
    b = mix64(np.asarray(indices, dtype=np.uint64) * _DERIVE + np.uint64(1))
    return mix64(a + b)


def stream_uniforms(seeds, first_word, count):
    """(len(seeds), count) uniforms at words [first_word, first_word+count)."""
    return gathered_uniforms(seeds, np.arange(first_word, first_word + count,
                                              dtype=np.uint64)[None, :])


def gathered_uniforms(seeds, word_index):
    """Uniforms at per-row word positions; word_index has shape (N, count)."""
    return uniform53(rand_words(np.asarray(seeds, dtype=np.uint64)[:, None], word_index))


def fold_rows(lat: Lattice, U):
    """Measure-preserving fold of cube samples into the Voronoi cell.

    U in [0,1)^n is mapped through the fundamental parallelepiped G U and
    reduced mod the lattice, landing uniformly in the (unscaled) cell.
    """
    W = lat.embed_rows(U)
    return W - lat.nearest_points(W)
