"""Tests for the Laplace, geometric and sparse-vector mechanisms."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp.mechanisms import (
    AboveThreshold,
    GeometricMechanism,
    LaplaceBlockStream,
    LaplaceMechanism,
)


class TestLaplaceBlockStream:
    @settings(max_examples=100, deadline=None)
    @given(
        block_size=st.integers(min_value=1, max_value=40),
        blocks=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=90),
                st.integers(min_value=0, max_value=90),
            ),
            max_size=30,
        ),
    )
    def test_bit_identical_to_direct_draws_across_mixed_scales(self, block_size, blocks):
        """The k-th stream value equals the k-th direct Generator draw.

        This is the contract the strategy hot loops rely on: interleaved
        scales (Perturb's 1/eps, AboveThreshold's 2/eps1 and 4/eps1) served
        from predrawn standard blocks must match direct scaled draws
        bit-for-bit, including across block boundaries -- and so must
        variates served as arrays (``peek``) and consumed in bulk (``skip``,
        of any prefix of the peeked array), in any mix with scalar draws.
        """
        scales = [2.0, 8.0, 1 / 0.25, 0.5, 123.456, 1e-3]
        stream = LaplaceBlockStream(np.random.default_rng(77), block_size=block_size)
        direct = np.random.default_rng(77)
        for index, (peeked, taken) in enumerate(blocks):
            scale = scales[index % len(scales)]
            assert stream.laplace(0.0, scale) == direct.laplace(0.0, scale)
            taken = min(taken, peeked)
            window = scale * stream.peek(peeked)
            assert len(window) == peeked
            stream.skip(taken)
            expected = [direct.laplace(0.0, scale) for _ in range(taken)]
            assert window[:taken].tolist() == expected
        for index in range(500):
            scale = scales[index % len(scales)]
            assert stream.laplace(0.0, scale) == direct.laplace(0.0, scale)

    def test_mechanisms_accept_the_stream_in_place_of_a_generator(self):
        stream = LaplaceBlockStream(np.random.default_rng(5))
        direct = np.random.default_rng(5)
        mechanism = LaplaceMechanism(epsilon=0.5)
        assert mechanism.randomize(3.0, stream) == mechanism.randomize(3.0, direct)
        sparse_a = AboveThreshold(theta=4.0, epsilon=0.5)
        sparse_b = AboveThreshold(theta=4.0, epsilon=0.5)
        sparse_a.reset(stream)
        sparse_b.reset(direct)
        for count in range(20):
            assert sparse_a.step(count, stream) == sparse_b.step(count, direct)

    def test_nonzero_loc_and_defaults(self):
        stream = LaplaceBlockStream(np.random.default_rng(9))
        direct = np.random.default_rng(9)
        assert stream.laplace(10.0, 2.0) == 10.0 + 2.0 * direct.laplace(0.0, 1.0)
        assert isinstance(stream.laplace(), float)
        assert stream.generator is not None

    def test_block_size_validated(self):
        with pytest.raises(ValueError):
            LaplaceBlockStream(np.random.default_rng(0), block_size=0)


class TestLaplaceMechanism:
    def test_validation(self):
        with pytest.raises(ValueError):
            LaplaceMechanism(epsilon=0.0)
        with pytest.raises(ValueError):
            LaplaceMechanism(epsilon=1.0, sensitivity=0.0)

    def test_scale(self):
        assert LaplaceMechanism(epsilon=0.5).scale == pytest.approx(2.0)
        assert LaplaceMechanism(epsilon=2.0, sensitivity=4.0).scale == pytest.approx(2.0)

    def test_randomize_is_unbiased(self):
        mechanism = LaplaceMechanism(epsilon=1.0)
        rng = np.random.default_rng(0)
        values = [mechanism.randomize(10.0, rng) for _ in range(20_000)]
        assert np.mean(values) == pytest.approx(10.0, abs=0.05)

    def test_randomize_count_returns_int(self):
        mechanism = LaplaceMechanism(epsilon=1.0)
        rng = np.random.default_rng(1)
        value = mechanism.randomize_count(5, rng)
        assert isinstance(value, int)

    def test_randomize_count_can_be_negative(self):
        mechanism = LaplaceMechanism(epsilon=0.01)
        rng = np.random.default_rng(2)
        values = [mechanism.randomize_count(0, rng) for _ in range(200)]
        assert any(v < 0 for v in values)

    def test_error_quantile(self):
        mechanism = LaplaceMechanism(epsilon=0.5)
        beta = 0.05
        expected = 2.0 * math.log(1 / beta)
        assert mechanism.error_quantile(beta) == pytest.approx(expected)
        with pytest.raises(ValueError):
            mechanism.error_quantile(0.0)

    def test_error_quantile_holds_empirically(self):
        mechanism = LaplaceMechanism(epsilon=1.0)
        rng = np.random.default_rng(3)
        bound = mechanism.error_quantile(0.1)
        errors = [abs(mechanism.randomize(0.0, rng)) for _ in range(20_000)]
        assert np.mean(np.array(errors) > bound) <= 0.11

    def test_dp_likelihood_ratio_bound(self):
        """Empirical epsilon of the Laplace mechanism stays within budget."""
        epsilon = 0.8
        mechanism = LaplaceMechanism(epsilon=epsilon)
        rng = np.random.default_rng(4)
        bins = np.linspace(-10, 12, 45)
        a = np.histogram(
            [mechanism.randomize(0.0, rng) for _ in range(200_000)], bins=bins
        )[0]
        b = np.histogram(
            [mechanism.randomize(1.0, rng) for _ in range(200_000)], bins=bins
        )[0]
        mask = (a > 200) & (b > 200)
        ratios = a[mask] / b[mask]
        assert np.all(ratios <= math.exp(epsilon) * 1.25)
        assert np.all(ratios >= math.exp(-epsilon) / 1.25)


class TestGeometricMechanism:
    def test_validation(self):
        with pytest.raises(ValueError):
            GeometricMechanism(epsilon=-1.0)
        with pytest.raises(ValueError):
            GeometricMechanism(epsilon=1.0, sensitivity=-2.0)

    def test_alpha(self):
        assert GeometricMechanism(epsilon=1.0).alpha == pytest.approx(math.exp(-1.0))

    def test_outputs_are_integers(self):
        mechanism = GeometricMechanism(epsilon=0.5)
        rng = np.random.default_rng(5)
        for _ in range(100):
            assert isinstance(mechanism.randomize_count(7, rng), int)

    def test_noise_is_symmetric_and_centered(self):
        mechanism = GeometricMechanism(epsilon=1.0)
        rng = np.random.default_rng(6)
        noise = [mechanism.sample_noise(rng) for _ in range(50_000)]
        assert abs(float(np.mean(noise))) < 0.05

    def test_smaller_epsilon_means_larger_noise(self):
        rng = np.random.default_rng(7)
        tight = GeometricMechanism(epsilon=2.0)
        loose = GeometricMechanism(epsilon=0.1)
        tight_spread = np.std([tight.sample_noise(rng) for _ in range(20_000)])
        loose_spread = np.std([loose.sample_noise(rng) for _ in range(20_000)])
        assert loose_spread > tight_spread


class TestAboveThreshold:
    def test_validation(self):
        with pytest.raises(ValueError):
            AboveThreshold(theta=10.0, epsilon=0.0)
        with pytest.raises(ValueError):
            AboveThreshold(theta=-1.0, epsilon=1.0)

    def test_scales_match_algorithm3(self):
        sparse = AboveThreshold(theta=15.0, epsilon=0.25)
        assert sparse.threshold_scale == pytest.approx(2.0 / 0.25)
        assert sparse.query_scale == pytest.approx(4.0 / 0.25)

    def test_step_before_reset_raises(self):
        sparse = AboveThreshold(theta=5.0, epsilon=1.0)
        with pytest.raises(RuntimeError):
            sparse.step(3.0, np.random.default_rng(0))
        with pytest.raises(RuntimeError):
            sparse.first_crossing(
                np.array([3.0]), LaplaceBlockStream(np.random.default_rng(0))
            )

    def test_reset_draws_noisy_threshold(self):
        sparse = AboveThreshold(theta=10.0, epsilon=1.0)
        rng = np.random.default_rng(8)
        values = {sparse.reset(rng) for _ in range(10)}
        assert len(values) > 1  # fresh noise each reset
        assert all(abs(v - 10.0) < 60 for v in values)

    def test_crossing_resets_threshold_and_counts(self):
        sparse = AboveThreshold(theta=3.0, epsilon=2.0)
        rng = np.random.default_rng(9)
        sparse.reset(rng)
        fired = False
        for count in range(0, 100):
            if sparse.step(float(count), rng):
                fired = True
                break
        assert fired
        assert sparse.crossings == 1

    def test_large_counts_cross_quickly_small_counts_rarely(self):
        rng = np.random.default_rng(10)
        high, low = 0, 0
        trials = 300
        for _ in range(trials):
            sparse = AboveThreshold(theta=20.0, epsilon=2.0)
            sparse.reset(rng)
            if sparse.step(100.0, rng):
                high += 1
            sparse2 = AboveThreshold(theta=20.0, epsilon=2.0)
            sparse2.reset(rng)
            if sparse2.step(0.0, rng):
                low += 1
        assert high > trials * 0.95
        assert low < trials * 0.2

    @given(theta=st.floats(min_value=0.0, max_value=100.0), epsilon=st.floats(min_value=0.05, max_value=5.0))
    @settings(max_examples=50, deadline=None)
    def test_step_always_returns_bool(self, theta, epsilon):
        sparse = AboveThreshold(theta=theta, epsilon=epsilon)
        rng = np.random.default_rng(11)
        sparse.reset(rng)
        assert sparse.step(theta, rng) in (True, False)
