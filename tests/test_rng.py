"""Deterministic stream randomness.

stream_bits evaluates indices in parallel lanes of one int, 4,096 lanes
at a time; the per-index loop over stream_bit below is its reference.
"""

import os
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from teachlab import mix64, rng, stream, stream_bit, stream_bits
from teachlab.rng import MASK64


def loop_bits(seed: int, count: int) -> int:
    bits = 0
    for r in range(count):
        bits |= stream_bit(seed, r) << r
    return bits


def test_mix64_known_values():
    # SplitMix64 reference outputs for seed 1234567: first three draws
    s = 1234567
    gamma = 0x9E3779B97F4A7C15
    want = [6457827717110365317, 3203168211198807973, 9817491932198370423]
    got = [mix64((s + (i + 1) * gamma) & MASK64) for i in range(3)]
    assert got == want
    assert [stream(s, i) for i in range(3)] == want


def test_stream_is_order_independent():
    assert stream(42, 7) == stream(42, 7)
    a = [stream(9, i) for i in (5, 1, 3)]
    b = [stream(9, i) for i in (1, 3, 5)]
    assert a[0] == b[2] and a[1] == b[0] and a[2] == b[1]


def test_stream_rejects_negative_index():
    with pytest.raises(ValueError):
        stream(0, -1)


def test_stream_bit_balance():
    bits = [stream_bit(2024, i) for i in range(4096)]
    assert set(bits) <= {0, 1}
    # 3 sigma for 4096 fair coins is about 96
    assert abs(sum(bits) - 2048) < 150


@given(st.integers(0, MASK64))
def test_mix64_stays_in_range(x):
    y = mix64(x)
    assert 0 <= y <= MASK64


def test_mix64_is_injective_on_a_sample():
    xs = list(range(10000))
    assert len({mix64(x) for x in xs}) == len(xs)


@pytest.mark.parametrize(
    "seed", [0, -1, -5, MASK64, (1 << 64) + 5, 1 << 70, -(1 << 64), -(1 << 80), 1 << 200])
@pytest.mark.parametrize("count", [0, 1, 2, comb(64, 2), 4095, 4096, 4097, comb(128, 2), 8192])
def test_stream_bits_matches_per_index_stream_bit(seed, count):
    assert stream_bits(seed, count) == loop_bits(seed, count)


@given(st.integers(-(1 << 80), 1 << 80), st.integers(0, 300))
def test_stream_bits_matches_loop_property(seed, count):
    assert stream_bits(seed, count) == loop_bits(seed, count)


def test_stream_bits_agrees_after_its_lane_constants_are_evicted():
    # the per-count lane constants are cached for a few counts only: cycle
    # through more counts than that, then come back to the first
    held = rng._lane_constants.cache_info().maxsize
    counts = [7 + 5 * i for i in range(held + 2)] + [7, 4096 + 7]
    for seed, count in enumerate(counts):
        assert stream_bits(seed, count) == loop_bits(seed, count)
    assert rng._lane_constants.cache_info().currsize <= held


def test_stream_bits_rejects_negative_count():
    with pytest.raises(ValueError):
        stream_bits(0, -1)


def test_stream_bits_memory_stays_small_as_count_grows():
    # C(2000, 2) pairs: mixing every lane at once held 128 bits per pair in
    # several temporaries (about 200 MB); ru_maxrss is in KB on Linux
    probe = (
        "import resource\n"
        "from teachlab import random_tournament\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "random_tournament(2000, 1)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before)\n"
    )
    # a process inherits its parent's peak across exec, so the probe runs
    # under a small launcher rather than directly under this large process
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", probe], env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert int(r.stdout) < 32 * 1024
