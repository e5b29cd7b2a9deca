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
calling stream_bit once per index.
"""

__all__ = ["MASK64", "mix64", "stream", "stream_bit", "stream_bits"]

MASK64 = (1 << 64) - 1

_GAMMA = 0x9E3779B97F4A7C15

_LANE_BYTES = 16  # 128 bits per lane: room for a 64-bit state times a 64-bit constant
_LANE = 8 * _LANE_BYTES

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


def stream_bits(seed: int, count: int) -> int:
    """The int whose bit r is stream_bit(seed, r) for every r < count, all lanes mixed at once."""
    if count < 0:
        raise ValueError("stream count must be nonnegative")
    if count == 0:
        return 0
    # Doubling: lanes 0..c-1 hold seed + (r+1)*GAMMA (reduced below), step
    # holds c*GAMMA in each of them, and low holds MASK64 in each of them.
    state, step, low, c = (seed + _GAMMA) & MASK64, _GAMMA, MASK64, 1
    while c < count:
        shift = _LANE * c
        state |= (state + step) << shift
        step = (step | step << shift) << 1
        low |= low << shift
        c <<= 1
    low &= (1 << _LANE * count) - 1
    x = _mix_lanes(state & low, low)
    low_bytes = x.to_bytes(_LANE_BYTES * count, "little")[::_LANE_BYTES]  # byte 0 of every lane
    return int(low_bytes.translate(_BIT_CHAR)[::-1], 2)
