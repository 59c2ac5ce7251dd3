"""E3 — encryption costs and their extrapolation (claim C3, "privacy vs performance").

The demo measures the Damgård–Jurik operation times beforehand and displays
the overhead that real homomorphic operations would add at full scale.  This
benchmark reproduces both halves: the per-operation timings as a function of
key size and degree, and the per-participant cost prediction of a complete
run for populations from 10^3 to 10^6.

Expected shape: per-operation cost grows roughly cubically with the key size;
the per-participant compute time is independent of the population size (the
gossip design's whole point) and stays in the "seconds to minutes per
iteration" range the paper calls affordable for personal devices.
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np
import pytest
from conftest import run_once

from repro.analysis import CostModel, ProtocolWorkload, format_table, measure_crypto_costs
from repro.crypto import damgard_jurik as dj
from repro.crypto.backends import DamgardJurikBackend, PlainBackend
from repro.crypto import fastmath
from repro.crypto.fastmath import BlinderPool, PrecomputedKey, powmod
from repro.crypto.math_utils import random_coprime
from repro.crypto.threshold import (
    combine_partial_decryptions,
    generate_threshold_keypair,
    partial_decrypt,
)
from repro.gossip.encrypted_sum import average_estimates, fresh_estimate

KEY_SIZES = [256, 512, 1024]


@pytest.mark.parametrize("key_bits", KEY_SIZES)
def test_per_operation_costs_vs_key_size(benchmark, key_bits):
    """Measured per-operation times for increasing key sizes."""
    profile = run_once(
        benchmark, measure_crypto_costs, key_bits=key_bits, degree=1,
        threshold=3, n_shares=5, repetitions=3,
    )
    print()
    print(format_table(
        [profile.as_dict()],
        columns=["key_bits", "encryption_seconds", "addition_seconds",
                 "partial_decryption_seconds", "combination_seconds", "ciphertext_bytes"],
        title=f"E3 - Damgard-Jurik per-operation cost, {key_bits}-bit key",
    ))
    benchmark.extra_info.update(profile.as_dict())
    assert profile.encryption_seconds > profile.addition_seconds


def test_degree_two_costs(benchmark):
    """Degree s=2 doubles the plaintext space and increases per-op cost."""
    profile = run_once(
        benchmark, measure_crypto_costs, key_bits=512, degree=2,
        threshold=3, n_shares=5, repetitions=3,
    )
    print()
    print(format_table([profile.as_dict()],
                       title="E3 - Damgard-Jurik per-operation cost, 512-bit key, degree 2"))
    assert profile.ciphertext_bytes > 512 // 8 * 2


def test_encryption_throughput_single_op(benchmark):
    """Raw single-encryption latency with a realistic 1024-bit key."""
    public, _private = dj.generate_keypair(key_bits=1024, s=1)
    benchmark(dj.encrypt, public, 123456789)


@pytest.mark.parametrize("packing", ["off", "auto"])
def test_packed_gossip_exchange_costs(benchmark, packing):
    """Operation counts and wall clock of gossip exchanges, packed vs off.

    The plain backend widens its simulated plaintext to the 2048-bit space of
    a 4096-bit degree-1 ciphertext when packing is on; the counters then show
    the ≥ 4× (here ~30×) cut in bigint operations that the packed layer buys
    on a 64-point series.
    """
    backend = PlainBackend(threshold=3, n_shares=5, packing=packing)
    series = np.linspace(0.0, 1.0, 64)

    def exchanges():
        backend.counter.reset()
        first = fresh_estimate(backend, series)
        second = fresh_estimate(backend, series[::-1])
        for _ in range(50):
            averaged = average_estimates(backend, first, second)
            first, second = second, averaged
        return backend.counter.as_dict()

    counts = benchmark(exchanges)
    row = {"packing": packing, "slots": backend.packing.slots if backend.is_packed else 1}
    row.update(counts)
    print()
    print(format_table([row], title=f"E3 - gossip exchange crypto ops, packing={packing}"))
    benchmark.extra_info.update(row)
    if packing == "auto":
        assert counts["encryptions"] * 4 <= 2 * 64
        assert counts["additions"] * 4 <= 50 * 3 * 64


@pytest.mark.parametrize("packing", ["off", "auto"])
def test_packed_real_encryption_walltime(benchmark, packing):
    """Wall-clock win of packing with *real* Damgård–Jurik encryption.

    Packing a 64-point series into ~2048-bit plaintext slots divides the
    number of modular exponentiations by the slot count, which is the whole
    point of the packed cipher layer.
    """
    backend = DamgardJurikBackend(
        key_bits=512, degree=1, threshold=3, n_shares=5, packing=packing,
        packing_weight_bits=30,
    )
    series = np.linspace(0.0, 1.0, 64)
    vector = benchmark(backend.encrypt_vector, series)
    print()
    print(format_table(
        [{"packing": packing, "ciphertexts": vector.n_ciphertexts,
          "encryptions_counted": backend.counter.encryptions}],
        title=f"E3 - real 512-bit encryption of a 64-point series, packing={packing}",
    ))
    if packing == "auto":
        assert vector.n_ciphertexts * 4 <= 64


@pytest.mark.parametrize("fastmath", ["off", "auto"])
def test_fastmath_decryption_speedup(benchmark, fastmath):
    """CRT decryption (half-width moduli, half-size exponents) vs full pow.

    At 1024 bits the CRT split is already a multiple; the committed
    BENCH_crypto.json records the ≥3× figure at the paper's 2048-bit keys.
    """
    public, private = dj.generate_keypair(key_bits=1024, s=1)
    precomputed = PrecomputedKey.from_private_key(private) if fastmath == "auto" else None
    ciphertext = dj.encrypt(public, 123456789)
    plaintext = benchmark(dj.decrypt, private, ciphertext, precomputed)
    assert plaintext == 123456789
    benchmark.extra_info["fastmath"] = fastmath


@pytest.mark.parametrize("fastmath", ["off", "auto"])
def test_fastmath_pooled_encrypt_speedup(benchmark, fastmath):
    """Hot-path encryption: one multiply with a pooled blinder vs one pow."""
    public, private = dj.generate_keypair(key_bits=1024, s=1)
    precomputed = pool = None
    if fastmath == "auto":
        precomputed = PrecomputedKey.from_private_key(private)
        pool = BlinderPool(precomputed, batch_size=512)
        pool.refill(4096)  # amortized: filled outside the hot path

    ciphertext = benchmark(dj.encrypt, public, 123456789, None, precomputed, pool)
    assert dj.decrypt(private, ciphertext) == 123456789
    benchmark.extra_info["fastmath"] = fastmath


def _time_op(operation, repetitions: int) -> float:
    start = time.perf_counter()
    for _ in range(repetitions):
        operation()
    return (time.perf_counter() - start) / repetitions


def collect_fastmath_baseline(
    key_bits: int = 2048,
    degree: int = 1,
    threshold: int = 3,
    n_shares: int = 5,
    repetitions: int = 5,
    pooled_repetitions: int = 2000,
) -> dict:
    """Ops/sec of every hot operation with and without fastmath.

    This is the machine-readable perf baseline (BENCH_crypto.json): encrypt
    and rerandomize contrast the fresh exponentiation against the amortized
    pool, decrypt and the threshold share contrast full-width ``pow``
    against the CRT split, halve exercises the recurring
    ``2^{-1} mod n^s`` exponent, and combine contrasts the per-share pow
    loop against Straus multi-exponentiation.  blinder times one fresh
    public-key ``r^{n^s} mod n^{s+1}`` with the built-in ``pow`` and with
    :func:`~repro.crypto.fastmath.powmod`: the offline price of every
    pool-served operation.  ``bigint`` records the engine under ``powmod``.

    These are *simulation wall-clock* figures for the library's hot loop,
    where the in-process backend legitimately holds the dealer key (CRT).
    Device-cost extrapolation uses
    :func:`repro.analysis.costs.measure_crypto_costs`, which deliberately
    restricts itself to participant-achievable accelerations.
    """
    public, shares, private = generate_threshold_keypair(
        key_bits=key_bits, s=degree, threshold=threshold, n_shares=n_shares
    )
    plain_public = public.public_key
    precomputed = PrecomputedKey.from_private_key(private)
    pool = BlinderPool(precomputed, batch_size=pooled_repetitions)
    pool.refill(2 * pooled_repetitions)  # amortized: filled outside the hot path
    message = 123456789 % plain_public.plaintext_modulus
    ciphertext = dj.encrypt(plain_public, message)
    partials = [
        partial_decrypt(public, share, ciphertext, precomputed=precomputed)
        for share in shares[:threshold]
    ]
    randomness = random_coprime(plain_public.n)
    blinder_args = (randomness, plain_public.plaintext_modulus,
                    plain_public.ciphertext_modulus)

    operations = {
        "encrypt": (
            lambda: dj.encrypt(plain_public, message),
            lambda: dj.encrypt(plain_public, message, precomputed=precomputed, pool=pool),
        ),
        "rerandomize": (
            lambda: dj.rerandomize(plain_public, ciphertext),
            lambda: dj.rerandomize(plain_public, ciphertext, pool=pool),
        ),
        "decrypt": (
            lambda: dj.decrypt(private, ciphertext),
            lambda: dj.decrypt(private, ciphertext, precomputed=precomputed),
        ),
        "halve": (
            lambda: dj.halve_plaintext(plain_public, ciphertext),
            lambda: dj.halve_plaintext(plain_public, ciphertext, precomputed=precomputed),
        ),
        "threshold_share": (
            lambda: partial_decrypt(public, shares[0], ciphertext),
            lambda: partial_decrypt(public, shares[0], ciphertext, precomputed=precomputed),
        ),
        "combine": (
            lambda: combine_partial_decryptions(public, partials, multiexp=False),
            lambda: combine_partial_decryptions(public, partials, multiexp=True),
        ),
        "blinder": (
            lambda: pow(*blinder_args),
            lambda: powmod(*blinder_args),
        ),
    }
    rows = {}
    for name, (off_operation, fast_operation) in operations.items():
        # Pool-served operations are microseconds each; use more repetitions
        # so the timer resolution does not dominate.
        fast_repetitions = (
            pooled_repetitions if name in ("encrypt", "rerandomize") else repetitions
        )
        off_seconds = _time_op(off_operation, repetitions)
        fast_seconds = _time_op(fast_operation, fast_repetitions)
        rows[name] = {
            "off_seconds": off_seconds,
            "fastmath_seconds": fast_seconds,
            "off_ops_per_sec": 1.0 / off_seconds,
            "fastmath_ops_per_sec": 1.0 / fast_seconds,
            "speedup": off_seconds / fast_seconds,
        }
    return {
        "benchmark": "crypto_fastmath",
        "key_bits": key_bits,
        "degree": degree,
        "threshold": threshold,
        "repetitions": repetitions,
        "bigint": fastmath.BIGINT,
        "operations": rows,
    }


def main(argv=None) -> int:
    """Write the BENCH_crypto.json perf-trajectory datapoint."""
    parser = argparse.ArgumentParser(
        description="Measure fastmath on/off ops/sec and write BENCH_crypto.json"
    )
    parser.add_argument("--key-bits", type=int, default=2048)
    parser.add_argument("--degree", type=int, default=1)
    parser.add_argument("--repetitions", type=int, default=5)
    parser.add_argument("--pooled-repetitions", type=int, default=2000)
    parser.add_argument("--out", default="BENCH_crypto.json")
    args = parser.parse_args(argv)
    baseline = collect_fastmath_baseline(
        key_bits=args.key_bits,
        degree=args.degree,
        repetitions=args.repetitions,
        pooled_repetitions=args.pooled_repetitions,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2)
        handle.write("\n")
    print(format_table(
        [
            {"operation": name, **row}
            for name, row in baseline["operations"].items()
        ],
        columns=["operation", "off_ops_per_sec", "fastmath_ops_per_sec", "speedup"],
        title=f"fastmath baseline, {args.key_bits}-bit key (written to {args.out})",
    ))
    return 0


def test_extrapolated_run_costs(benchmark):
    """Per-participant cost of a full run, extrapolated to 10^3..10^6 devices."""
    profile = measure_crypto_costs(key_bits=1024, degree=1, threshold=3, n_shares=5,
                                   repetitions=3)
    workload = ProtocolWorkload(
        n_clusters=5, series_length=48, iterations=10,
        gossip_cycles=12, exchanges_per_cycle=1, threshold=3,
    )
    model = CostModel(profile)
    rows = run_once(benchmark, model.sweep_population, workload,
                    [10**3, 10**4, 10**5, 10**6])
    print()
    print(format_table(
        rows,
        columns=["n_participants", "encryption_seconds", "addition_seconds",
                 "decryption_seconds", "total_compute_seconds", "bytes_sent",
                 "messages_sent", "aggregate_bytes"],
        title="E3 - extrapolated per-participant cost of a full run (1024-bit key, k=5, T=48)",
    ))
    # Per-participant cost must not depend on the population size.
    assert rows[0]["total_compute_seconds"] == rows[-1]["total_compute_seconds"]
    # "Affordable": less than an hour of compute per device for the whole run.
    assert rows[0]["total_compute_seconds"] < 3600


if __name__ == "__main__":
    import sys

    sys.exit(main())
