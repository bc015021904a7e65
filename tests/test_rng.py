"""The counter-based generator against a from-scratch reimplementation."""
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oqwalk import random_initial_state
from oqwalk.rng import (
    GAMMA,
    MASK64,
    derive_seed,
    derive_seeds,
    mix64,
    mix64_array,
    to_unit,
    unit_draw,
    unit_draws_array,
)
from model_zoo import random_isometry_model

M64 = (1 << 64) - 1


def mix64_by_hand(x):
    # independent transcription of the standard 64-bit avalanche finalizer
    x &= M64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & M64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & M64
    x ^= x >> 33
    return x


def test_mix64_matches_reference_values():
    for x in (0, 1, 2, 63, 2**32, 2**63, 2**64 - 1, 0xDEADBEEF):
        assert mix64(x) == mix64_by_hand(x)


def test_mix64_fixes_zero():
    assert mix64(0) == 0


@given(st.integers(min_value=0, max_value=M64))
def test_mix64_matches_reference_everywhere(x):
    assert mix64(x) == mix64_by_hand(x)


@given(st.integers(min_value=0, max_value=M64),
       st.integers(min_value=0, max_value=M64))
def test_mix64_never_collides_on_samples(a, b):
    # the finalizer is a bijection of 64-bit words
    if a != b:
        assert mix64(a) != mix64(b)


def test_mix64_array_agrees_with_scalar():
    xs = np.array([0, 1, 12345, 2**63, M64], dtype=np.uint64)
    out = mix64_array(xs)
    assert out.dtype == np.uint64
    assert [int(v) for v in out] == [mix64(int(x)) for x in xs]


def test_derive_seed_is_mix_of_xor():
    assert derive_seed(42, 7) == mix64(42 ^ 7)
    np.testing.assert_array_equal(
        derive_seeds(42, 6),
        np.array([derive_seed(42, i) for i in range(6)], dtype=np.uint64),
    )


def test_unit_draw_formula_and_range():
    seed = derive_seed(2024, 3)
    for k in range(12):
        u = unit_draw(seed, k)
        assert u == to_unit(mix64((seed + (k + 1) * GAMMA) & MASK64))
        assert 0.0 <= u < 1.0


def test_unit_draws_array_agrees_with_scalar():
    seeds = derive_seeds(9, 8)
    for k in (0, 1, 5, 63):
        vectorized = unit_draws_array(seeds, k)
        scalar = np.array([unit_draw(int(s), k) for s in seeds])
        np.testing.assert_array_equal(vectorized, scalar)


def test_unit_draws_array_takes_an_array_of_indices():
    # seeds within 2^10 of 2^64 make seed + (k + 1) GAMMA wrap; k = 0 included
    seeds = np.concatenate([derive_seeds(9, 5),
                            np.array([M64, M64 - 1, M64 - 1023], dtype=np.uint64)])
    ks = np.array([0, 1, 2, 63, 2**20, 0, 7, 2**40], dtype=np.uint64)
    vectorized = unit_draws_array(seeds, ks)
    scalar = np.array([unit_draw(int(s), int(k)) for s, k in zip(seeds, ks)])
    assert vectorized.tobytes() == scalar.tobytes()
    # one index for all streams and the same index spelled out agree
    same = unit_draws_array(seeds, np.full(len(seeds), 5, dtype=np.uint64))
    assert same.tobytes() == unit_draws_array(seeds, 5).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", [0, 77, 2**64 + 5])
def test_random_initial_state_reads_the_stream_row_major(n, seed):
    # X[i, j] is draw i n + j of the stream rooted at the masked seed
    root = seed & M64
    x = np.array([[(mix64_by_hand(root + (i * n + j + 1) * GAMMA) >> 11) * 2.0**-53
                   for j in range(n)] for i in range(n)])
    g = x @ x.T
    state = random_initial_state(random_isometry_model(0, n=n), seed)
    assert state.positions == [(0,)]
    expected = np.asarray(g / np.trace(g), dtype=complex)
    assert state.blocks[(0,)].tobytes() == expected.tobytes()


def test_streams_decorrelate_across_indices():
    # different trajectory indices under the same root must not share draws
    a = derive_seed(5, 0)
    b = derive_seed(5, 1)
    assert a != b
    draws_a = [unit_draw(a, k) for k in range(16)]
    draws_b = [unit_draw(b, k) for k in range(16)]
    assert draws_a != draws_b


def test_draws_have_no_gross_bias():
    u = unit_draws_array(derive_seeds(123, 4096), 0)
    assert abs(u.mean() - 0.5) < 0.02
    assert abs(np.mean(u < 0.25) - 0.25) < 0.03
