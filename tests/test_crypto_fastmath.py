"""Tests of the modular-arithmetic fast path (crypto/fastmath.py).

The whole point of the fastmath layer is that it changes wall-clock time and
*nothing else*: CRT decryption must agree with plain decryption, pooled
encryption/rerandomisation must agree with the fresh path (bit for bit given
the same randomness stream), multi-exponentiation must agree with a product
of ``pow`` calls, and ``fastmath=off`` must reproduce the seed pipeline.
Most invariants are property-based (Hypothesis) over all supported degrees.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ChiaroscuroConfig
from repro.core import run_chiaroscuro
from repro.crypto import damgard_jurik as dj
from repro.crypto import fastmath
from repro.crypto import paillier
from repro.crypto import threshold as th
from repro.crypto.backends import DamgardJurikBackend, make_backend
from repro.crypto.fastmath import (
    BlinderPool,
    FixedBaseTable,
    PrecomputedKey,
    multi_pow,
    normalize_fastmath,
    plan_pool_batch,
)
from repro.datasets import load_dataset
from repro.exceptions import ConfigurationError, CryptoError, ValidationError
from repro.gossip.encrypted_sum import (
    average_estimates,
    fresh_estimate,
    rerandomize_estimate,
)

# One shared key pair per degree: key generation inside @given is far too slow.
KEYS = {s: dj.generate_keypair(key_bits=128, s=s) for s in (1, 2, 3)}
PRECOMPUTED = {s: PrecomputedKey.from_private_key(private) for s, (_, private) in KEYS.items()}

plaintext_fractions = st.floats(min_value=0.0, max_value=1.0, allow_nan=False,
                                allow_infinity=False)


def _plaintext(s: int, fraction: float) -> int:
    """Map a fraction to a plaintext spanning the whole Z_{n^s} range."""
    modulus = KEYS[s][0].plaintext_modulus
    return min(int(fraction * modulus), modulus - 1)


class TestCrtDecryption:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(fraction=plaintext_fractions)
    @settings(max_examples=25, deadline=None)
    def test_crt_decrypt_equals_plain_decrypt(self, s, fraction):
        public, private = KEYS[s]
        plaintext = _plaintext(s, fraction)
        ciphertext = dj.encrypt(public, plaintext)
        plain = dj.decrypt(private, ciphertext)
        fast = dj.decrypt(private, ciphertext, precomputed=PRECOMPUTED[s])
        assert plain == fast == plaintext

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_crt_decrypt_boundary_plaintexts(self, s):
        public, private = KEYS[s]
        for plaintext in (0, 1, public.plaintext_modulus - 1):
            ciphertext = dj.encrypt(public, plaintext)
            assert dj.decrypt(private, ciphertext, precomputed=PRECOMPUTED[s]) == plaintext

    def test_crt_decrypt_requires_private_key(self):
        public, _private = KEYS[1]
        public_only = PrecomputedKey.from_public_key(public)
        assert not public_only.has_private
        with pytest.raises(CryptoError):
            public_only.decrypt(dj.encrypt(public, 5))

    def test_mismatched_primes_rejected(self):
        public, _ = KEYS[1]
        with pytest.raises(CryptoError):
            PrecomputedKey(public, p=3, q=5)


class TestCrtPow:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(exponent=st.integers(min_value=-(2**220), max_value=2**220))
    @settings(max_examples=25, deadline=None)
    def test_crt_pow_equals_pow(self, s, exponent):
        public, _private = KEYS[s]
        base = dj.encrypt(public, 42)  # coprime to n by construction
        expected = pow(base, exponent, public.ciphertext_modulus)
        assert PRECOMPUTED[s].crt_pow(base, exponent) == expected

    def test_non_coprime_base_falls_back_exactly(self):
        public, private = KEYS[1]
        base = private.p * 3  # shares a factor with n: no CRT shortcut exists
        exponent = 1 << 200
        assert PRECOMPUTED[1].crt_pow(base, exponent) == pow(
            base, exponent, public.ciphertext_modulus
        )

    def test_exponent_residues_are_cached(self):
        precomputed = PRECOMPUTED[1]
        base = dj.encrypt(KEYS[1][0], 7)
        exponent = 3 << 180
        precomputed.crt_pow(base, exponent)
        assert exponent in precomputed._exponent_residues


class TestBlinderPools:
    @pytest.mark.parametrize("s", [1, 2, 3])
    @given(fraction=plaintext_fractions)
    @settings(max_examples=10, deadline=None)
    def test_pooled_encrypt_decrypts_like_fresh(self, s, fraction):
        public, private = KEYS[s]
        plaintext = _plaintext(s, fraction)
        pool = BlinderPool(PRECOMPUTED[s], batch_size=2)
        pooled = dj.encrypt(public, plaintext, precomputed=PRECOMPUTED[s], pool=pool)
        assert dj.decrypt(private, pooled) == plaintext

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pooled_rerandomize_preserves_plaintext(self, s):
        public, private = KEYS[s]
        plaintext = _plaintext(s, 0.37)
        pool = BlinderPool(PRECOMPUTED[s], batch_size=2)
        ciphertext = dj.encrypt(public, plaintext)
        refreshed = dj.rerandomize(public, ciphertext, pool=pool)
        assert refreshed != ciphertext
        assert dj.decrypt(private, refreshed) == plaintext

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_pooled_ciphertexts_bit_identical_given_same_stream(self, s):
        """The exact pool mode consumes randomness like the fresh path."""
        from repro.crypto.math_utils import random_coprime

        public, _private = KEYS[s]
        draws = [random_coprime(public.n) for _ in range(4)]
        fresh = [dj.encrypt(public, m, randomness=r) for m, r in zip((1, 2, 3, 4), draws)]
        stream = iter(draws)
        pool = BlinderPool(PRECOMPUTED[s], batch_size=2, rng=lambda _n: next(stream))
        pooled = [
            dj.encrypt(public, m, precomputed=PRECOMPUTED[s], pool=pool)
            for m in (1, 2, 3, 4)
        ]
        assert fresh == pooled

    def test_derived_mode_uses_fixed_base_table(self):
        public, private = KEYS[1]
        pool = BlinderPool(PRECOMPUTED[1], batch_size=3, mode="derived")
        assert pool._table is not None
        ciphertext = dj.encrypt(public, 123, precomputed=PRECOMPUTED[1], pool=pool)
        assert dj.decrypt(private, ciphertext) == 123

    def test_take_refills_in_fifo_batches(self):
        pool = BlinderPool(PRECOMPUTED[1], batch_size=3)
        assert len(pool) == 0
        pool.take()
        assert pool.generated == 3
        assert pool.served == 1
        assert len(pool) == 2

    def test_pool_validation(self):
        with pytest.raises(CryptoError):
            BlinderPool(PRECOMPUTED[1], batch_size=0)
        with pytest.raises(CryptoError):
            BlinderPool(PRECOMPUTED[1], mode="bogus")

    def test_plan_pool_batch_clamps(self):
        assert plan_pool_batch(1) == 16
        assert plan_pool_batch(100) == 100
        assert plan_pool_batch(10**6) == 1024
        with pytest.raises(CryptoError):
            plan_pool_batch(0)


class TestBackgroundRefill:
    """The refill worker thread moves generation off the hot path without
    perturbing the exact-mode randomness stream (PR 2 follow-up)."""

    def test_background_pooled_ciphertexts_bit_identical_to_fresh(self):
        """pooled == fresh still holds with the refill thread running."""
        import time

        from repro.crypto.math_utils import random_coprime

        public, _private = KEYS[1]
        n_messages = 12
        draws = [random_coprime(public.n) for _ in range(n_messages + 8)]
        fresh = [
            dj.encrypt(public, m, randomness=r)
            for m, r in zip(range(1, n_messages + 1), draws)
        ]
        stream = iter(draws)
        pool = BlinderPool(PRECOMPUTED[1], batch_size=2, rng=lambda _n: next(stream))
        pool.start_background_refill(low_water=2)
        try:
            pooled = []
            for m in range(1, n_messages + 1):
                pooled.append(
                    dj.encrypt(public, m, precomputed=PRECOMPUTED[1], pool=pool)
                )
                if m == n_messages // 2:
                    # Give the refiller a chance to interleave with takes.
                    time.sleep(0.01)
        finally:
            pool.stop_background_refill()
        assert fresh == pooled

    def test_background_refill_keeps_pool_above_low_water(self):
        import time

        pool = BlinderPool(PRECOMPUTED[1], batch_size=4)
        pool.start_background_refill(low_water=3)
        try:
            deadline = time.monotonic() + 5.0
            while len(pool) <= 3 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(pool) > 3
            served_target = 6
            for _ in range(served_target):
                pool.take()
            assert pool.served == served_target
        finally:
            pool.stop_background_refill()
        assert pool._refill_thread is None

    def test_reset_discards_pooled_blinders(self):
        """A fork-inherited pool must be cleared before first use: shared
        blinders would make two processes' ciphertexts linkable."""
        pool = BlinderPool(PRECOMPUTED[1], batch_size=3)
        pool.refill()
        assert len(pool) == 3
        pool.reset()
        assert len(pool) == 0
        # The next take still works (fresh synchronous refill).
        pool.take()
        assert pool.served == 1

    def test_start_and_stop_are_idempotent(self):
        pool = BlinderPool(PRECOMPUTED[1], batch_size=2)
        pool.start_background_refill()
        pool.start_background_refill()
        pool.stop_background_refill()
        pool.stop_background_refill()
        with pytest.raises(CryptoError):
            pool.start_background_refill(low_water=0)

    def test_configure_pool_background_starts_thread(self):
        backend = make_backend(
            "damgard_jurik", key_bits=128, threshold=2, n_shares=3,
            fastmath="auto",
        )
        try:
            backend.configure_pool(8, background=True)
            assert backend._pool._refill_thread is not None
            vector = backend.encrypt_vector([0.25, 0.5])
            decrypted = backend.decrypt_with_shares(vector, [1, 2])
            assert decrypted == pytest.approx([0.25, 0.5], abs=1e-5)
        finally:
            backend._pool.stop_background_refill()


class TestMultiExponentiation:
    @given(
        bases=st.lists(st.integers(min_value=2, max_value=2**64), min_size=1, max_size=9),
        exponents=st.lists(
            st.integers(min_value=-(2**80), max_value=2**80), min_size=1, max_size=9
        ),
        modulus=st.integers(min_value=3, max_value=2**64) | st.just((1 << 89) - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_multi_pow_equals_product_of_pows(self, bases, exponents, modulus):
        length = min(len(bases), len(exponents))
        bases, exponents = bases[:length], exponents[:length]
        import math

        expected = 1
        for base, exponent in zip(bases, exponents):
            if exponent < 0 and math.gcd(base, modulus) != 1:
                return  # no inverse exists; pow would fail identically
            expected = (expected * pow(base, exponent, modulus)) % modulus
        assert multi_pow(bases, exponents, modulus) == expected

    def test_multi_pow_empty_exponents(self):
        assert multi_pow([5, 7], [0, 0], 101) == 1

    def test_multi_pow_validation(self):
        with pytest.raises(CryptoError):
            multi_pow([2, 3], [1], 101)
        with pytest.raises(CryptoError):
            multi_pow([2], [1], 0)


class TestFixedBaseTable:
    @given(
        base=st.integers(min_value=2, max_value=2**64),
        exponent=st.integers(min_value=0, max_value=2**192 - 1),
        window=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_table_pow_equals_pow(self, base, exponent, window):
        modulus = (1 << 127) - 1
        table = FixedBaseTable(base, modulus, max_exponent_bits=192, window=window)
        assert table.pow(exponent) == pow(base, exponent, modulus)

    def test_table_rejects_out_of_range_exponents(self):
        table = FixedBaseTable(3, 101, max_exponent_bits=8)
        with pytest.raises(CryptoError):
            table.pow(1 << 9)
        with pytest.raises(CryptoError):
            table.pow(-1)


class TestThresholdFastPath:
    @pytest.fixture(scope="class")
    def threshold_key(self):
        public, shares, dealer = th.generate_threshold_keypair(
            key_bits=128, s=2, threshold=3, n_shares=5
        )
        return public, shares, PrecomputedKey.from_private_key(dealer)

    def test_partial_decrypt_crt_is_identical(self, threshold_key):
        public, shares, precomputed = threshold_key
        ciphertext = dj.encrypt(public.public_key, 31337)
        for share in shares:
            plain = th.partial_decrypt(public, share, ciphertext)
            fast = th.partial_decrypt(public, share, ciphertext, precomputed=precomputed)
            assert plain.value == fast.value

    def test_combine_multiexp_matches_loop(self, threshold_key):
        public, shares, precomputed = threshold_key
        message = 987654321
        ciphertext = dj.encrypt(public.public_key, message)
        partials = [
            th.partial_decrypt(public, share, ciphertext, precomputed=precomputed)
            for share in shares[:3]
        ]
        assert (
            th.combine_partial_decryptions(public, partials, multiexp=True)
            == th.combine_partial_decryptions(public, partials, multiexp=False)
            == message
        )


class TestPaillierCrt:
    @pytest.fixture(scope="class")
    def keypair(self):
        return paillier.generate_paillier_keypair(key_bits=128)

    @given(fraction=plaintext_fractions)
    @settings(max_examples=25, deadline=None)
    def test_crt_decrypt_equals_classic(self, keypair, fraction):
        public, private = keypair
        plaintext = min(int(fraction * public.n), public.n - 1)
        ciphertext = paillier.encrypt(public, plaintext)
        assert (
            paillier.decrypt(private, ciphertext, crt=True)
            == paillier.decrypt(private, ciphertext, crt=False)
            == plaintext
        )

    def test_legacy_keys_without_primes_still_decrypt(self, keypair):
        public, private = keypair
        legacy = paillier.PaillierPrivateKey(public, private.lam, private.mu)
        ciphertext = paillier.encrypt(public, 424242)
        assert paillier.decrypt(legacy, ciphertext) == 424242


class TestBackendFastmath:
    @pytest.fixture(scope="class")
    def backends(self):
        fast = DamgardJurikBackend(key_bits=128, threshold=2, n_shares=3, fastmath="auto")
        slow = DamgardJurikBackend(key_bits=128, threshold=2, n_shares=3, fastmath="off")
        return fast, slow

    def test_round_trip_agrees_between_modes(self, backends):
        fast, slow = backends
        values = np.linspace(-0.9, 0.9, 7)
        for backend in backends:
            decoded = backend.decrypt_with_shares(backend.encrypt_vector(values), [1, 2])
            np.testing.assert_allclose(decoded, values, atol=1e-5)
        assert fast.fastmath_enabled and not slow.fastmath_enabled

    def test_pooled_encryptions_are_counted(self, backends):
        fast, slow = backends
        fast.counter.reset()
        slow.counter.reset()
        fast.encrypt_vector([0.25, -0.5])
        slow.encrypt_vector([0.25, -0.5])
        assert fast.counter.pooled_encryptions == 2
        assert fast.counter.encryptions == 2
        assert slow.counter.pooled_encryptions == 0
        assert slow.counter.encryptions == 2

    def test_rerandomize_preserves_decryption_and_counts(self, backends):
        fast, _slow = backends
        vector = fast.encrypt_vector([0.125, 0.75])
        before = fast.counter.rerandomizations
        refreshed = fast.rerandomize(vector)
        assert fast.counter.rerandomizations == before + 2
        assert refreshed.payload != vector.payload
        np.testing.assert_allclose(
            fast.decrypt_with_shares(refreshed, [1, 2]),
            fast.decrypt_with_shares(vector, [1, 2]),
            atol=1e-6,
        )

    def test_linear_combination_matches_lift_then_add(self, backends):
        fast, slow = backends
        for backend in (fast, slow):
            first = backend.encrypt_vector([0.5, -0.25])
            second = backend.encrypt_vector([0.125, 0.5])
            combined = backend.linear_combination([first, second], [4, 2])
            reference = backend.add(
                backend.multiply_scalar(first, 4), backend.multiply_scalar(second, 2)
            )
            assert combined.weight == reference.weight == 6
            np.testing.assert_allclose(
                backend.decrypt_with_shares(combined, [1, 2]),
                backend.decrypt_with_shares(reference, [1, 2]),
                atol=1e-6,
            )

    def test_linear_combination_counts_like_the_historical_path(self, backends):
        fast, slow = backends
        results = {}
        for backend in (fast, slow):
            first = backend.encrypt_vector([0.5, -0.25])
            second = backend.encrypt_vector([0.125, 0.5])
            backend.counter.reset()
            backend.linear_combination([first, second], [4, 1])
            results[backend.fastmath] = backend.counter.additions
        # One non-unit factor (one lift) plus one fold over 2 ciphertexts.
        assert results["auto"] == results["off"] == 4

    def test_linear_combination_validation(self, backends):
        fast, _slow = backends
        vector = fast.encrypt_vector([0.5])
        with pytest.raises(CryptoError):
            fast.linear_combination([], [])
        with pytest.raises(CryptoError):
            fast.linear_combination([vector], [1, 2])
        with pytest.raises(CryptoError):
            fast.linear_combination([vector], [0])

    def test_gossip_average_identical_across_modes(self, backends):
        fast, slow = backends
        for backend in (fast, slow):
            first = fresh_estimate(backend, [0.8, -0.4])
            second = fresh_estimate(backend, [0.2, 0.6])
            averaged = average_estimates(backend, first, second)
            refreshed = rerandomize_estimate(backend, averaged)
            decoded = backend.decrypt_with_shares(refreshed.vector, [1, 2])
            np.testing.assert_allclose(
                decoded / (1 << refreshed.halvings), [0.5, 0.1], atol=1e-5
            )

    def test_make_backend_accepts_fastmath(self):
        backend = make_backend("plain", fastmath="off")
        assert backend.fastmath == "off"
        with pytest.raises(ValidationError):
            make_backend("plain", fastmath="fast")

    def test_normalize_fastmath(self):
        assert normalize_fastmath("auto") == "auto"
        assert normalize_fastmath("off") == "off"
        with pytest.raises(ValidationError):
            normalize_fastmath("on")


class TestEndToEndEquivalence:
    """``fastmath=off`` reproduces the seed pipeline; ``auto`` matches it."""

    @staticmethod
    def _run(fastmath: str):
        collection = load_dataset("gaussian", n_series=12, series_length=6,
                                  n_clusters=2, seed=3)
        config = ChiaroscuroConfig().with_overrides(
            kmeans={"n_clusters": 2, "max_iterations": 2},
            privacy={"epsilon": 4.0, "noise_shares": 8},
            gossip={"cycles_per_aggregation": 4},
            crypto={"backend": "paillier", "key_bits": 128, "threshold": 2,
                    "n_key_shares": 3, "packing": "off", "fastmath": fastmath},
            simulation={"n_participants": 12, "seed": 3},
        )
        return run_chiaroscuro(collection, config)

    def test_profiles_identical_with_and_without_fastmath(self):
        off = self._run("off")
        auto = self._run("auto")
        np.testing.assert_array_equal(off.profiles, auto.profiles)
        assert off.assignments.tolist() == auto.assignments.tolist()
        assert off.metadata["fastmath"] == {"mode": "off", "pooled": False,
                                            "bigint": "python"}
        assert auto.metadata["fastmath"] == {"mode": "auto", "pooled": True,
                                             "bigint": fastmath.BIGINT}
        assert auto.costs.encryptions == off.costs.encryptions
        assert auto.costs.homomorphic_additions == off.costs.homomorphic_additions

    def test_config_rejects_bad_fastmath(self):
        with pytest.raises(ConfigurationError):
            ChiaroscuroConfig().with_overrides(crypto={"fastmath": "turbo"})
