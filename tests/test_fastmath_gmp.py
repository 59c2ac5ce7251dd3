"""Tests of the libgmp bigint engine behind ``fastmath.powmod`` / ``invert``.

The engine is a pure wall-clock play: ``powmod`` / ``invert`` must return
exactly the integers the built-in ``pow`` / ``mod_inverse`` return, on the
libgmp binding and on the built-in fallback alike.  The C boundary is
pinned by edge cases (moduli 0, 1 and negative, even moduli, unreduced and
negative bases, huge operands, non-invertible bases), by concurrent use from
several threads and by use from a forked child.  The hypothesis contract
``powmod`` == ``pow`` and ``invert`` == ``mod_inverse`` lives in
``test_fastmath_gmpy2.py``.
"""

from __future__ import annotations

import ctypes.util
import gc
import json
import os
import subprocess
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.config import ChiaroscuroConfig
from repro.core import run_chiaroscuro
from repro.crypto import damgard_jurik as dj
from repro.crypto import fastmath
from repro.crypto.fastmath import BlinderPool, PrecomputedKey, invert, multi_pow, powmod
from repro.crypto.math_utils import mod_inverse
from repro.crypto.threshold import (
    combine_partial_decryptions,
    generate_threshold_keypair,
    partial_decrypt,
)
from repro.datasets import load_dataset
from repro.exceptions import CryptoError

integers = st.integers(min_value=-(10**40), max_value=10**40)
moduli = st.integers(min_value=2, max_value=10**40)

KEYPAIR = dj.generate_keypair(key_bits=128, s=2)
PRECOMPUTED = PrecomputedKey.from_private_key(KEYPAIR[1])


def _stream(seed: int):
    """Deterministic stand-in randomness, consumed in draw order."""
    state = seed

    def draw(n: int) -> int:
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % n
        return state or 1

    return draw


def _small_run(backend: str = "paillier"):
    collection = load_dataset("gaussian", n_series=10, series_length=6,
                              n_clusters=2, seed=5)
    config = ChiaroscuroConfig().with_overrides(
        kmeans={"n_clusters": 2, "max_iterations": 1},
        privacy={"epsilon": 4.0, "noise_shares": 6},
        gossip={"cycles_per_aggregation": 3},
        crypto={"backend": backend, "key_bits": 128, "threshold": 2,
                "n_key_shares": 3},
        simulation={"n_participants": 10, "seed": 5},
    )
    return run_chiaroscuro(collection, config)


def test_libgmp_is_used_wherever_it_is_installed():
    expected = "gmp" if ctypes.util.find_library("gmp") else "python"
    assert fastmath.BIGINT == expected


class TestContract:
    @given(base=integers, exponent=st.integers(min_value=1, max_value=10**12),
           modulus=moduli)
    @settings(max_examples=100, deadline=None)
    def test_negative_exponent_matches_builtin_pow(self, base, exponent, modulus):
        try:
            expected = pow(base, -exponent, modulus)
        except ValueError:
            with pytest.raises(CryptoError):
                powmod(base, -exponent, modulus)
        else:
            assert powmod(base, -exponent, modulus) == expected


class TestBoundaryEdgeCases:
    @pytest.mark.parametrize("modulus", [0, -1, -7, -(2**300)])
    def test_non_positive_modulus_raises(self, modulus):
        with pytest.raises(CryptoError):
            powmod(3, 5, modulus)
        with pytest.raises(CryptoError):
            invert(3, modulus)

    def test_modulus_one_gives_zero(self):
        assert powmod(12345, 678, 1) == 0
        assert powmod(0, 0, 1) == 0
        assert powmod(3, -1, 1) == pow(3, -1, 1) == 0
        assert invert(5, 1) == mod_inverse(5, 1) == 0

    @pytest.mark.parametrize("modulus", [2, 4, 1024, 2**127, 6 * 10**30, 2**4096 + 2])
    def test_even_moduli(self, modulus):
        for base in (0, 1, 3, 2**200 + 1, modulus - 1):
            for exponent in (0, 1, 2, 65537, 2**255 - 19):
                assert powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    def test_base_at_or_above_modulus(self):
        modulus = 2**521 - 1
        for base in (modulus, modulus + 1, 5 * modulus + 3, modulus**3 + 7):
            assert powmod(base, 2**130 + 5, modulus) == pow(base, 2**130 + 5, modulus)
        assert invert(modulus + 2, modulus) == mod_inverse(2, modulus)

    def test_negative_base(self):
        modulus = 10**40 + 121
        for base in (-1, -2, -(10**50) - 3, -modulus):
            assert powmod(base, 12345, modulus) == pow(base, 12345, modulus)
        assert invert(-3, modulus) == mod_inverse(-3, modulus)

    def test_exponent_zero(self):
        for base in (0, 1, 7, -5, 2**900):
            assert powmod(base, 0, 97) == 1
            assert powmod(base, 0, 2**600) == 1

    def test_sixteen_kilobit_operands(self):
        modulus = (1 << 16384) - 159
        base = (3 << 16300) + 12345
        exponent = (1 << 16383) + 987654321
        assert powmod(base, exponent, modulus) == pow(base, exponent, modulus)
        assert invert(base, modulus) == mod_inverse(base, modulus)

    def test_non_invertible_base_with_negative_exponent_raises(self):
        with pytest.raises(CryptoError):
            powmod(6, -1, 9)
        with pytest.raises(CryptoError):
            powmod(0, -3, 2**200)
        with pytest.raises(CryptoError):
            powmod(2**100, -5, 2**64)
        with pytest.raises(CryptoError):
            invert(0, 7)
        # The interpreter is still alive and the engine still correct.
        assert powmod(3, -5, 7) == pow(3, -5, 7)


class TestEquivalenceThroughTheEngine:
    @given(fraction=st.floats(min_value=0.0, max_value=1.0,
                              allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_crt_decrypt_equals_plain_decrypt(self, fraction):
        public, private = KEYPAIR
        plaintext = min(int(fraction * public.plaintext_modulus),
                        public.plaintext_modulus - 1)
        ciphertext = dj.encrypt(public, plaintext)
        assert PRECOMPUTED.decrypt(ciphertext) == dj.decrypt(private, ciphertext) \
            == plaintext

    def test_pooled_equals_fresh(self):
        public, private = KEYPAIR
        modulus = public.ciphertext_modulus
        pool = BlinderPool(PRECOMPUTED, batch_size=4, rng=_stream(12345))
        fresh_draw = _stream(12345)
        for message in (0, 1, 17, public.plaintext_modulus - 1):
            pooled = (PRECOMPUTED.one_plus_n_pow(message) * pool.take()) % modulus
            blinder = pow(fresh_draw(public.n), public.plaintext_modulus, modulus)
            fresh = (pow(1 + public.n, message, modulus) * blinder) % modulus
            assert pooled == fresh
            assert dj.decrypt(private, pooled) == message

    def test_multi_pow_matches_product_of_pows(self):
        modulus = KEYPAIR[0].ciphertext_modulus
        bases = [3, 5, 7, 11, 13]
        exponents = [10**20 + i for i in range(4)] + [-3]
        expected = 1
        for base, exponent in zip(bases, exponents):
            expected = (expected * pow(base, exponent, modulus)) % modulus
        assert multi_pow(bases, exponents, modulus) == expected


class TestForcedFallback:
    def test_fallback_returns_the_same_integers_and_says_python(self, monkeypatch):
        gmp_run = _small_run("damgard_jurik")
        cases = [(3, 10**30 + 7, 2**255 - 19), (-7, 65537, 10**40 + 2),
                 (5, -3, 2**127 - 1), (2**300, 0, 97)]
        gmp_values = [powmod(*case) for case in cases]
        monkeypatch.setattr(fastmath, "_gmp", None)
        assert fastmath.BIGINT == "python"
        assert [powmod(*case) for case in cases] == gmp_values \
            == [pow(*case) for case in cases]
        assert invert(12345, 2**127 - 1) == mod_inverse(12345, 2**127 - 1)
        with pytest.raises(CryptoError):
            powmod(6, -1, 9)
        with pytest.raises(CryptoError):
            powmod(3, 5, 0)
        python_run = _small_run("damgard_jurik")
        assert python_run.metadata["fastmath"]["bigint"] == "python"
        assert python_run.profiles.tolist() == gmp_run.profiles.tolist()
        assert python_run.costs.messages_sent == gmp_run.costs.messages_sent
        assert python_run.costs.bytes_sent == gmp_run.costs.bytes_sent


class TestReportedEngine:
    def test_run_reports_the_engine_in_result_log_and_cli(self, capsys):
        result = _small_run("damgard_jurik")
        assert result.metadata["fastmath"]["bigint"] == fastmath.BIGINT
        assert result.log.metadata["fastmath"]["bigint"] == fastmath.BIGINT
        plain = _small_run("plain")
        # Nothing exponentiates on the plain backend: built-in arithmetic.
        assert plain.metadata["fastmath"]["bigint"] == "python"
        assert main([
            "run", "--dataset", "gaussian", "--participants", "10", "--clusters", "2",
            "--iterations", "1", "--noise-shares", "6", "--gossip-cycles", "3",
            "--backend", "paillier", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fastmath"]["bigint"] == fastmath.BIGINT

    def test_library_loads_on_first_use_only(self):
        script = (
            "from repro.crypto import fastmath, make_backend\n"
            "make_backend('plain')\n"
            "assert fastmath._gmp is fastmath._NOT_LOADED\n"
            "assert fastmath.powmod(3, 5, 7) == 5\n"
            "assert fastmath._gmp is not fastmath._NOT_LOADED\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
             env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run([sys.executable, "-c", script], env=env,
                                   capture_output=True, text=True, timeout=120)
        assert completed.returncode == 0, completed.stderr


class TestThreadAndForkSafety:
    def test_two_threads_on_different_moduli(self):
        moduli = [(1 << 1021) - 1, (1 << 1024) + 643]
        barrier = threading.Barrier(len(moduli))
        failures: list[str] = []

        def work(modulus: int) -> None:
            barrier.wait()
            for step in range(150):
                base = (modulus // 3) + step * 7919
                exponent = (1 << 600) + step
                if powmod(base, exponent, modulus) != pow(base, exponent, modulus):
                    failures.append(f"powmod mismatch mod {modulus} at step {step}")
                if invert(base, modulus) != pow(base, -1, modulus):
                    failures.append(f"invert mismatch mod {modulus} at step {step}")

        threads = [threading.Thread(target=work, args=(modulus,)) for modulus in moduli]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []

    def test_background_refill_while_partial_decrypting(self):
        public, shares, private = generate_threshold_keypair(
            key_bits=128, s=1, threshold=2, n_shares=3
        )
        precomputed = PrecomputedKey.from_private_key(private)
        pool = BlinderPool(precomputed, batch_size=16)
        pool.start_background_refill()
        try:
            plain_public = public.public_key
            for message in range(0, 400, 7):
                ciphertext = dj.encrypt(plain_public, message,
                                        precomputed=precomputed, pool=pool)
                partials = [
                    partial_decrypt(public, share, ciphertext, precomputed=precomputed)
                    for share in shares[:2]
                ]
                assert combine_partial_decryptions(public, partials) == message
                assert dj.decrypt(private, ciphertext) == message
        finally:
            pool.stop_background_refill()
        assert pool.generated >= pool.served > 0

    def test_forked_child_computes_correct_results(self):
        modulus = (1 << 1279) - 1
        cases = [(modulus // 5 + step, (1 << 700) + step) for step in range(20)]
        expected = [pow(base, exponent, modulus) for base, exponent in cases]
        assert powmod(*cases[0], modulus) == expected[0]  # engine loaded pre-fork
        stop = threading.Event()

        def spin() -> None:
            # Keep another thread inside the engine while the fork happens.
            while not stop.is_set():
                powmod(modulus // 7, 1 << 900, modulus)

        spinner = threading.Thread(target=spin)
        spinner.start()
        read_end, write_end = os.pipe()
        try:
            pid = os.fork()
            if pid == 0:  # pragma: no cover - runs in the child
                status = 1
                try:
                    os.close(read_end)
                    gc.collect()
                    results = [powmod(base, exponent, modulus) for base, exponent in cases]
                    inverse = invert(cases[1][0], modulus)
                    ok = results == expected and inverse == pow(cases[1][0], -1, modulus)
                    os.write(write_end, b"ok" if ok else b"mismatch")
                    status = 0
                finally:
                    os._exit(status)
        finally:
            stop.set()
            spinner.join(timeout=60)
        os.close(write_end)
        with os.fdopen(read_end, "rb") as reader:
            message = reader.read()
        _, status = os.waitpid(pid, 0)
        assert os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0
        assert message == b"ok"
