import tracemalloc

import numpy as np
import pytest

from relaysim.errors import DegenerateInputError, InvalidParameterError
from relaysim.numerics import (
    ROW_BLOCK,
    RngStream,
    dominant_singular_pair,
    dominant_singular_pair_batch,
    row_blocks,
    sample_gaussian_blocks,
    sample_complex_gaussian,
)


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = sample_complex_gaussian(RngStream(42, 7), 3, 2)
        b = sample_complex_gaussian(RngStream(42, 7), 3, 2)
        assert np.array_equal(a, b)

    def test_different_index_different_sequence(self):
        a = sample_complex_gaussian(RngStream(42, 7), 3, 2)
        b = sample_complex_gaussian(RngStream(42, 8), 3, 2)
        assert not np.array_equal(a, b)

    def test_seed_range_validated(self):
        with pytest.raises(InvalidParameterError):
            RngStream(-1)
        with pytest.raises(InvalidParameterError):
            RngStream(0, 2**64)


class TestSampleComplexGaussian:
    def test_moments(self):
        # E|entry|^2 = lambda, real/imag independent with variance lambda/2
        x = sample_complex_gaussian(RngStream(1), 1000, 1000, variance=1.0)
        assert 0.99 <= np.mean(np.abs(x) ** 2) <= 1.01
        assert abs(np.mean(x.real * x.imag)) < 0.01
        assert 0.49 <= np.var(x.real) <= 0.51

    def test_variance_scales(self):
        x = sample_complex_gaussian(RngStream(2), 1000, 1000, variance=4.0)
        assert 3.96 <= np.mean(np.abs(x) ** 2) <= 4.04

    def test_rejects_bad_variance(self):
        with pytest.raises(InvalidParameterError):
            sample_complex_gaussian(RngStream(1), 2, 2, variance=0.0)
        with pytest.raises(InvalidParameterError):
            sample_complex_gaussian(RngStream(1), 2, 2, variance=-1.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidParameterError):
            sample_complex_gaussian(RngStream(1), 0, 2)


class TestRowBlocks:
    def test_first_block_of_a_huge_range_allocates_little(self):
        # the slices are made one at a time: a list of all 24,415 of them
        # took 3.0 MiB
        tracemalloc.start()
        try:
            first = next(iter(row_blocks(10**8)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first == slice(0, ROW_BLOCK) and peak < 2**20


class TestDominantSingularPair:
    def test_diagonal(self):
        sigma, v = dominant_singular_pair(np.diag([3.0, 1.0]))
        assert sigma == pytest.approx(3.0, rel=1e-12)
        assert np.allclose(v, [1.0, 0.0], atol=1e-6)

    def test_rank_one(self):
        u = np.array([2.0, 0.0, 0.0])
        w = np.array([0.6, 0.8j])
        sigma, _ = dominant_singular_pair(np.outer(u, w.conj()))
        assert sigma == pytest.approx(2.0, rel=1e-10)

    def test_against_full_svd(self):
        gen = RngStream(9).generator()
        for _ in range(50):
            a = sample_complex_gaussian(gen, 4, 4)
            sigma, v = dominant_singular_pair(a)
            ref = np.linalg.svd(a, compute_uv=False)[0]
            assert abs(sigma - ref) <= 1e-10 * ref
            assert np.linalg.norm(v) == pytest.approx(1.0, rel=1e-10)
            assert np.linalg.norm(a @ v) == pytest.approx(sigma, rel=1e-10)

    def test_dominates_column_norms(self):
        gen = RngStream(11).generator()
        for _ in range(100):
            a = sample_complex_gaussian(gen, 3, 5)
            sigma, _ = dominant_singular_pair(a)
            assert sigma ** 2 >= np.max(np.sum(np.abs(a) ** 2, axis=0)) - 1e-12

    def test_phase_convention(self):
        gen = RngStream(13).generator()
        a = sample_complex_gaussian(gen, 3, 3)
        _, v = dominant_singular_pair(a)
        pivot = v[np.flatnonzero(np.abs(v) > 1e-12)[0]]
        assert abs(pivot.imag) < 1e-10
        assert pivot.real >= 0

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            dominant_singular_pair(np.zeros((2, 2)))

    @pytest.mark.parametrize("shape", [(3,), (1, 2, 2)])
    def test_non_matrix_rejected(self, shape):
        with pytest.raises(InvalidParameterError, match=f"ndim={len(shape)}"):
            dominant_singular_pair(np.ones(shape))

    def test_batch_matches_svd(self):
        gen = RngStream(17).generator()
        a = (gen.standard_normal((500, 3, 4)) + 1j * gen.standard_normal((500, 3, 4))) / np.sqrt(2)
        sigma, v = dominant_singular_pair_batch(a)
        ref = np.linalg.svd(a, compute_uv=False)[:, 0]
        assert np.max(np.abs(sigma - ref) / ref) < 1e-8
        av = np.einsum("bmn,bn->bm", a, v)
        assert np.max(np.abs(np.linalg.norm(av, axis=1) - sigma) / sigma) < 1e-10

    @pytest.mark.parametrize("dims", [(1, 1), (4, 4), (2, 3), (4, 1), (1, 4)])
    def test_batch_rows_are_bit_identical_to_a_subset(self, dims):
        # optimal-relay-filter outage solves only the trials its bounds leave
        # undecided; its counts equal the full batch's only if every item's
        # pair is independent of the rest of the batch, bit for bit
        blocks = sample_gaussian_blocks(RngStream(23, 1), 1000, *dims, variance=0.6)
        h = blocks.values()
        sigma, v = dominant_singular_pair_batch(h)
        pick = np.flatnonzero(RngStream(23, 2).generator().random(1000) < 0.2)
        for idx in (pick, pick[:1], pick[:0], np.arange(1000), np.arange(999, 0, -7)):
            assert np.array_equal(blocks.values(np.s_[idx]), h[idx])
            sub_sigma, sub_v = dominant_singular_pair_batch(h[idx])
            assert np.array_equal(sub_sigma, sigma[idx])
            assert np.array_equal(sub_v, v[idx])
