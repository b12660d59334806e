"""Portable seedable random numbers for synthetic noise.

Noise streams must be reproducible bit for bit from a 64-bit seed alone, so
that runs can be replayed and so that ports to other languages can generate
identical data.  numpy's generators do not guarantee that across versions,
hence this small hand-rolled pair:

* SplitMix64 (Steele/Lea/Vigna) as the raw 64-bit stream.  Output k (counting
  from 0) is obtained by mixing ``seed + (k+1) * 0x9E3779B97F4A7C15`` mod 2^64
  through the standard xor-shift/multiply finalizer.  Because the state is an
  arithmetic progression the whole stream vectorizes.
* uniforms: ``u_k = (raw_k >> 11) * 2^-53`` in [0, 1).
* standard normals via the basic Box-Muller transform on consecutive uniform
  pairs ``(u_{2i}, u_{2i+1})``:

      R   = sqrt(-2 log(1 - u_{2i}))        # 1-u keeps the log argument in (0, 1]
      phi = 2 pi u_{2i+1}
      n_{2i} = R cos(phi),  n_{2i+1} = R sin(phi)

  For an odd count the trailing sin variate is discarded.
"""

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53


def raw_stream(seed, count):
    """First `count` raw 64-bit outputs of SplitMix64(seed), as uint64."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    k = np.arange(1, count + 1, dtype=np.uint64)
    z = np.uint64(seed & 0xFFFFFFFFFFFFFFFF) + k * _GAMMA
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def uniforms(seed, count):
    """`count` uniforms in [0, 1) drawn from the seeded raw stream."""
    return (raw_stream(seed, count) >> np.uint64(11)).astype(np.float64) * _U53


def normals(seed, count):
    """`count` independent standard normal variates, Box-Muller from pairs."""
    if count == 0:
        return np.zeros(0)
    pairs = (count + 1) // 2
    u = uniforms(seed, 2 * pairs)
    u1 = 1.0 - u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:count]
