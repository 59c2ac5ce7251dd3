"""Bit-identity, memory and advise tests of the cache-blocked slab kernels.

The expected values are the literal formula ``0.5 * (E[l] + E[r])``
evaluated here over all pairs at once, never another call of the kernels.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.simulation import slab
from repro.simulation.slab import (
    ADVISE_PAIR_CHUNK,
    STEP_BYTES,
    average_pairs_inplace,
    half_average_pairs_inplace,
    scatter_rows,
    step_rows,
)

WIDTH = 100
DTYPES = (np.float64, np.float32)


def _block(width: int, dtype) -> int:
    return max(1, STEP_BYTES // (width * np.dtype(dtype).itemsize))


def _slab(n_pairs: int, width: int, dtype, seed: int = 0):
    rng = np.random.default_rng(seed)
    n_rows = 2 * n_pairs + 3
    estimates = rng.standard_normal((n_rows, width)).astype(dtype)
    pairs = rng.permutation(n_rows)[: 2 * n_pairs].reshape(n_pairs, 2)
    return estimates, pairs.astype(np.int64)


def _expected(estimates: np.ndarray, pairs: np.ndarray, both: bool) -> np.ndarray:
    expected = estimates.copy()
    left, right = pairs[:, 0], pairs[:, 1]
    mean = 0.5 * (estimates[left] + estimates[right])
    if both:
        expected[left] = mean
    expected[right] = mean
    return expected


def _assert_bitwise(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


KERNELS = [
    pytest.param(average_pairs_inplace, True, id="full"),
    pytest.param(half_average_pairs_inplace, False, id="half"),
]


@pytest.mark.parametrize("kernel, both", KERNELS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize(
    "count", ["zero", "one", "block-1", "block", "block+1", "50k"]
)
def test_matches_the_literal_formula(kernel, both, dtype, count):
    block = _block(WIDTH, dtype)
    n_pairs = {
        "zero": 0, "one": 1, "block-1": block - 1, "block": block,
        "block+1": block + 1, "50k": 50_000,
    }[count]
    estimates, pairs = _slab(n_pairs, WIDTH, dtype)
    expected = _expected(estimates, pairs, both)
    kernel(estimates, pairs)
    _assert_bitwise(estimates, expected)


@pytest.mark.parametrize("kernel, both", KERNELS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
def test_row_wider_than_a_step(kernel, both, dtype):
    width = STEP_BYTES // np.dtype(dtype).itemsize + 1
    estimates, pairs = _slab(5, width, dtype)
    assert step_rows(estimates) == 1
    expected = _expected(estimates, pairs, both)
    kernel(estimates, pairs)
    _assert_bitwise(estimates, expected)


@pytest.mark.parametrize("kernel, both", KERNELS)
@pytest.mark.parametrize("dtype", DTYPES, ids=lambda d: np.dtype(d).name)
@pytest.mark.parametrize("advise", [False, True], ids=["plain", "advise"])
def test_chunk_rows_below_and_above_the_block(kernel, both, dtype, advise):
    block = _block(WIDTH, dtype)
    estimates, pairs = _slab(3 * block + 7, WIDTH, dtype)
    expected = _expected(estimates, pairs, both)
    for chunk_rows in (block // 3, block + 5, 10 * block):
        assert step_rows(estimates, chunk_rows) == min(block, chunk_rows)
        result = estimates.copy()
        kernel(result, pairs, chunk_rows, advise=advise)
        _assert_bitwise(result, expected)


def test_scatter_steps_are_exact():
    rng = np.random.default_rng(1)
    n, series_length, k = 1000, 9, 3
    data = rng.standard_normal((n, series_length))
    assigned = rng.integers(0, k, n).astype(np.int32)
    expected = np.zeros((n, k * (series_length + 1)))
    for row in range(n):
        base = int(assigned[row]) * (series_length + 1)
        expected[row, base:base + series_length] = data[row]
        expected[row, base + series_length] = 1.0
    for chunk_rows in (0, 7, _block(expected.shape[1], np.float64) + 1, 5000):
        estimates = np.full_like(expected, np.nan)
        scatter_rows(estimates, data, assigned, 0, n, chunk_rows)
        _assert_bitwise(estimates, expected)


MIB = 1 << 20


def _peak_bytes(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_averaging_round_peak_memory_is_a_few_steps():
    # A whole-round gather of 50k pairs x 800-byte rows would allocate four
    # 40 MB temporaries; the blocked loop holds a couple of 128 KiB ones.
    estimates, pairs = _slab(50_000, WIDTH, np.float64)
    assert estimates.shape[0] >= 100_000
    assert _peak_bytes(lambda: average_pairs_inplace(estimates, pairs)) < 2 * MIB
    assert _peak_bytes(lambda: half_average_pairs_inplace(estimates, pairs)) < 2 * MIB


def test_scatter_peak_memory_is_a_few_steps():
    rng = np.random.default_rng(2)
    n, series_length, k = 100_000, 24, 4
    data = rng.standard_normal((n, series_length))
    assigned = rng.integers(0, k, n).astype(np.int32)
    estimates = np.empty((n, k * (series_length + 1)))
    assert _peak_bytes(
        lambda: scatter_rows(estimates, data, assigned, 0, n)
    ) < 2 * MIB


@pytest.mark.parametrize("kernel", [average_pairs_inplace, half_average_pairs_inplace])
@pytest.mark.parametrize("n_pairs", [1, ADVISE_PAIR_CHUNK, 3 * ADVISE_PAIR_CHUNK + 1])
@pytest.mark.parametrize("chunk_rows", [0, 2 * ADVISE_PAIR_CHUNK])
def test_advise_cadence_is_per_advise_chunk(monkeypatch, kernel, n_pairs, chunk_rows):
    calls = []
    monkeypatch.setattr(slab, "advise_dontneed", lambda array: calls.append(array))
    estimates, pairs = _slab(n_pairs, 4, np.float64)
    kernel(estimates, pairs, chunk_rows, advise=True)
    assert len(calls) == math.ceil(n_pairs / ADVISE_PAIR_CHUNK)
    calls.clear()
    kernel(estimates, pairs, chunk_rows, advise=False)
    assert calls == []
