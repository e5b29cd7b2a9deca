"""Deterministic 64-bit pseudo-randomness.

Every random draw in this package is the SplitMix64 output at an explicit
stream index, so draws are order-independent: index i under seed s yields
the same value no matter which other draws happen, which makes tournament
sampling reproducible pair by pair and experiment trials safe to reorder or
run in parallel.

stream_bits evaluates many indices at once.  Index r's state sits in its
own 128-bit lane (bits 128r .. 128r+127) of one Python int, reduced to the
lane's low 64 bits, so each xor-shift and multiply of mix64 is a single
big-int operation over all lanes: a 64-bit product fits its 128-bit lane
without spilling into the next, and masking every shifted copy to the low
64 bits keeps the next lane's bits out.  The result is bit-identical to
calling stream_bit once per index.  Indices are taken 4,096 lanes at a
time, so the temporaries stay small however many bits are drawn; only the
ASCII bits of each chunk are kept, and they are joined once at the end.
Each chunk is a step of the search budget (errors), as wide as its lanes,
whose first read waits 2^20 units: up to 8,192 bits read no budget.
A chunk's lane states are (seed mod 2^64)*ones + steps, cut to 64 bits,
where ones holds 1 and steps (r+1)*GAMMA in lane r: constants of the lane
count alone, built once by doubling and cached for the last few counts.
"""

from functools import lru_cache

from .errors import _steps

__all__ = ["mix64", "stream", "stream_bit", "stream_bits"]

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15

_LANE_BYTES = 16  # 128 bits per lane: room for a 64-bit state times a 64-bit constant
_LANE = 8 * _LANE_BYTES
_CHUNK = 4096  # lanes mixed at once, so each big-int temporary stays within 64 KB

_BIT_CHAR = bytes(ord("0") + (b & 1) for b in range(256))  # byte -> ASCII of its bit 0


def _mix_lanes(x: int, low: int) -> int:
    """mix64 on every lane of x at once; low holds MASK64 in each lane and x & low == x."""
    x ^= (x >> 30) & low
    x = (x * 0xBF58476D1CE4E5B9) & low
    x ^= (x >> 27) & low
    x = (x * 0x94D049BB133111EB) & low
    x ^= (x >> 31) & low
    return x


def mix64(x: int) -> int:
    """SplitMix64 finalizer (Steele, Lea, Flood 2014), a bijection on 64 bits."""
    return _mix_lanes(x & MASK64, MASK64)


def stream(seed: int, index: int) -> int:
    """The index-th output of the SplitMix64 sequence started at seed."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    return mix64((seed + (index + 1) * _GAMMA) & MASK64)


def stream_bit(seed: int, index: int) -> int:
    """One unbiased bit per (seed, index)."""
    return stream(seed, index) & 1


@lru_cache(maxsize=4)
def _lane_constants(count: int) -> tuple[int, int, int]:
    """(ones, steps, low) over count lanes: 1, (r+1)*GAMMA and MASK64 in lane r.

    Built by doubling, in O(count * log count) bits: lanes 0..c-1 of steps
    hold (r+1)*GAMMA, unreduced (below 2^76), and step holds
    c*GAMMA in each of them.  Both run on to the power of two c >= count;
    ones is cut back by a shift, steps by low when it is used.
    """
    steps, step, ones, c = _GAMMA, _GAMMA, 1, 1
    while c < count:
        shift = _LANE * c
        steps |= (steps + step) << shift
        step = (step | step << shift) << 1
        ones |= ones << shift
        c <<= 1
    ones >>= _LANE * (c - count)
    return ones, steps, (ones << 64) - ones


def _chunk_bits(seed: int, count: int) -> bytes:
    """ASCII of stream_bit(seed, r) for r = 0..count-1 (count >= 1), index 0 first."""
    ones, steps, low = _lane_constants(count)
    x = _mix_lanes(((seed & MASK64) * ones + steps) & low, low)
    return x.to_bytes(_LANE_BYTES * count, "little")[::_LANE_BYTES].translate(_BIT_CHAR)


def stream_bits(seed: int, count: int) -> int:
    """The int whose bit r is stream_bit(seed, r) for every r < count.

    Lanes are mixed _CHUNK at a time; the chunk starting at index start is
    the stream of seed + start*GAMMA.
    """
    if count < 0:
        raise ValueError("stream count must be nonnegative")
    if count == 0:
        return 0
    step = _steps("random bit stream", _CHUNK * _LANE, first=False)
    chunks = []
    for start in range(0, count, _CHUNK):
        step()
        chunks.append(_chunk_bits(seed + start * _GAMMA, min(_CHUNK, count - start)))
    return int(b"".join(chunks)[::-1], 2)
