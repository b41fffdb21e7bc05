"""The shared energy scorer's bit-twiddling primitives.

The scorer's bit identity with the reference engine is enforced by the
differential suites (``test_fastpath.py``, ``test_vector.py``); these
tests pin its popcount, including the SWAR fallback NumPy < 2.0 runs,
against Python's ``int.bit_count``.
"""

import numpy as np
import pytest

from repro.machine.scoring import popcount, popcount_swar


def _words(dtype):
    bits = np.iinfo(dtype).bits
    edge = [0, 1, 0x8000_0000, (1 << 32) - 1, (1 << bits) - 1,
            1 << (bits - 1), 0x5555_5555, 0xAAAA_AAAA]
    random = np.random.default_rng(5).integers(
        0, (1 << bits) - 1, size=500, dtype=dtype, endpoint=True)
    return np.concatenate([np.asarray(edge, dtype), random])


@pytest.mark.parametrize("function", [popcount, popcount_swar],
                         ids=["popcount", "swar"])
@pytest.mark.parametrize("dtype", [np.uint32, np.uint64])
def test_popcount_matches_bit_count(function, dtype):
    words = _words(dtype)
    counts = function(words)
    assert counts.dtype == np.uint8
    assert counts.tolist() == [int(word).bit_count() for word in words]


def test_popcount_swar_keeps_shape_and_input():
    words = _words(np.uint32)[:12].reshape(3, 4)
    before = words.copy()
    counts = popcount_swar(words)
    assert counts.shape == (3, 4)
    assert np.array_equal(words, before)
