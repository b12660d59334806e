"""Portable RNG: raw stream, uniforms, and Box-Muller normals."""

import math

import numpy as np
import pytest

from lkreg.rng import normals, raw_stream, uniforms

MASK = (1 << 64) - 1


def scalar_splitmix(seed, count):
    """Independent integer-arithmetic reference for the raw stream."""
    out = []
    state = seed & MASK
    for k in range(1, count + 1):
        z = (state + k * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_raw_stream_matches_scalar_reference():
    for seed in (0, 1, 42, (1 << 63) + 11, MASK):
        got = raw_stream(seed, 16)
        assert got.dtype == np.uint64
        assert [int(v) for v in got] == scalar_splitmix(seed, 16)


def test_raw_stream_known_first_output():
    # frozen first outputs of the seed-0 stream
    first = raw_stream(0, 3)
    assert int(first[0]) == 0xE220A8397B1DCDAF
    assert [int(v) for v in first] == scalar_splitmix(0, 3)


def test_raw_stream_offset_is_a_pure_shift():
    # a seed advanced by 5 SplitMix64 increments starts the stream 5 outputs later
    full = raw_stream(7, 12)
    assert np.array_equal(full[5:], raw_stream(7 + 5 * 0x9E3779B97F4A7C15, 7))
    assert raw_stream(7, 0).size == 0


def test_raw_stream_rejects_negative_count():
    with pytest.raises(ValueError):
        raw_stream(1, -1)


def test_uniforms_range_and_construction():
    u = uniforms(3, 1000)
    assert np.all(u >= 0.0) and np.all(u < 1.0)
    raw = raw_stream(3, 1000)
    assert np.array_equal(u, (raw >> np.uint64(11)).astype(float) * 2.0 ** -53)


def test_normals_match_manual_box_muller():
    u = uniforms(11, 8)
    want = np.empty(8)
    for i in range(4):
        r = math.sqrt(-2.0 * math.log(1.0 - u[2 * i]))
        phi = 2.0 * math.pi * u[2 * i + 1]
        want[2 * i] = r * math.cos(phi)
        want[2 * i + 1] = r * math.sin(phi)
    assert np.allclose(normals(11, 8), want, rtol=0.0, atol=1e-15)


def test_normals_odd_count_truncates_pair():
    assert np.array_equal(normals(5, 7), normals(5, 8)[:7])
    assert normals(5, 0).size == 0


def test_normals_moments_are_sane():
    x = normals(1234, 200_000)
    assert abs(float(np.mean(x))) < 0.01
    assert abs(float(np.std(x)) - 1.0) < 0.01


def test_streams_differ_across_seeds():
    assert not np.array_equal(raw_stream(1, 8), raw_stream(2, 8))
    assert not np.array_equal(normals(1, 8), normals(2, 8))
