"""Reference generator for the dither tests, used as a test oracle.

The counter-based stream written out plainly, with a fresh array at every
step and in whatever layout numpy broadcasts to, apart from the package's
word-major in-place kernel: word i of the stream seeded s is
mix64(s + (i + 1) * golden), every operation wrapping mod 2**64, and its
uniform deviate is its top 53 bits times 2**-53.
"""

import numpy as np

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
MIX1 = np.uint64(0xBF58476D1CE4E5B9)
MIX2 = np.uint64(0x94D049BB133111EB)


def mix64(x):
    """The splitmix64 finalizer of a uint64 array."""
    x = np.asarray(x, dtype=np.uint64)
    x = x ^ (x >> np.uint64(30))
    x = x * MIX1
    x = x ^ (x >> np.uint64(27))
    x = x * MIX2
    return x ^ (x >> np.uint64(31))


def rand_words(seed, index):
    """Word `index` of the stream seeded `seed`, for a uint64 index array; both broadcast."""
    index = np.asarray(index, dtype=np.uint64)
    return mix64(np.asarray(seed, dtype=np.uint64) + (index + np.uint64(1)) * GOLDEN)


def uniform53(words):
    """[0, 1) doubles from the top 53 bits of 64-bit words."""
    return (np.asarray(words, dtype=np.uint64) >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
