"""Modular-arithmetic fast path for the Damgård–Jurik crypto hot loop.

Every Chiaroscuro run is dominated by a handful of bigint modular
exponentiations: encryption pays ``r^{n^s} mod n^{s+1}``, decryption pays
``c^λ mod n^{s+1}``, every partial decryption pays ``c^{2Δs_i}`` and every
gossip merge pays a multi-term homomorphic accumulation.  This module
implements the standard accelerations from the Damgård–Jurik paper (PKC
2001, Section 4.3) and the classical exponentiation literature, without
changing a single decrypted bit:

* :class:`PrecomputedKey` — per-key precomputation: CRT split of the
  private-key operations over ``p^{s+1}`` / ``q^{s+1}`` with cached
  λ-residues, decryption constants and recombination inverses (~3–4× on
  every private ``pow``); cached ``n^k mod n^{s+1}`` powers, factorial
  inverses for the ``(1+n)^m`` binomial expansion and the halving constant
  ``2^{-1} mod n^s``;
* :class:`FixedBaseTable` — windowed fixed-base exponentiation for a base
  that recurs with varying exponents (used by the derived-blinder pool
  mode, exposed for any recurring-base workload);
* :class:`BlinderPool` — an amortized pool of precomputed encryption
  blinders ``r^{n^s} mod n^{s+1}`` so that hot-path ``encrypt`` /
  ``rerandomize`` cost one bigint multiplication instead of one full
  exponentiation.  The default ``exact`` mode draws its randomness through
  the very same :func:`~repro.crypto.math_utils.random_coprime` calls, in
  the same order, as fresh encryption — given the same randomness stream
  the produced ciphertexts are bit-identical to the unpooled path;
* :func:`multi_pow` — Straus simultaneous multi-exponentiation for
  ``Π bᵢ^{eᵢ} mod m`` (threshold share combination, homomorphic weighted
  accumulation in the gossip layer).

All of these are *exact* accelerations: with ``fastmath = off`` the library
reproduces the seed behaviour bit for bit given the same randomness stream,
and with ``fastmath = auto`` every decrypted plaintext is the same integer —
only the wall-clock changes.

The bigint engine under all of them is :func:`powmod` / :func:`invert`.
On the first call they load the system GNU MP library (``libgmp``, found
with :func:`ctypes.util.find_library`) and run ``mpz_powm`` /
``mpz_invert`` on it — the same integers as CPython's ``pow``, several
times faster at Damgård–Jurik sizes.  Where libgmp is absent they *are*
the built-in ``pow``.  :data:`BIGINT` names the engine in use (``"gmp"``
or ``"python"``); every run records it in ``result.metadata["fastmath"]``
and its execution log, and ``repro run`` prints it.  Workloads that never
exponentiate never load the library.  Both helpers live inside the
fastmath machinery only, so ``fastmath = off`` keeps the seed arithmetic
(built-in ``pow``) untouched either way.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import deque
from typing import Callable, Sequence

from ..exceptions import CryptoError, ValidationError
from .math_utils import mod_inverse, random_coprime


# --------------------------------------------------------------------------- bigint engine
class _Mpz(ctypes.Structure):
    """GMP's ``__mpz_struct``: allocated limbs, signed used limbs, limb pointer."""

    _fields_ = [
        ("_mp_alloc", ctypes.c_int),
        ("_mp_size", ctypes.c_int),
        ("_mp_d", ctypes.c_void_p),
    ]


class _Registers:
    """One thread's ``mpz_t`` scratch: result, base, exponent, modulus.

    Registers are per thread because ``CDLL`` releases the GIL inside every
    GMP call, and even without that the GIL may switch threads between the
    import / powm / export steps of one :func:`powmod`.
    """

    def __init__(self, gmp: "_Gmp") -> None:
        self._clear = gmp.clear
        self._pid = os.getpid()
        self._mpz = (_Mpz * 4)()
        self.addresses = tuple(ctypes.addressof(mpz) for mpz in self._mpz)
        for address in self.addresses:
            gmp.init(address)

    def __del__(self) -> None:
        # A forked child inherits other threads' registers possibly mid-call;
        # only the process that allocated them frees them.
        if os.getpid() == self._pid:
            for address in self.addresses:
                self._clear(address)


class _Gmp:
    """``ctypes`` binding of the few libgmp entry points :func:`powmod` needs.

    Loaded with ``CDLL``, not ``PyDLL``: ``CDLL`` releases the GIL for the
    duration of each call, so a :class:`BlinderPool` background refill
    exponentiates in parallel with the main thread instead of stalling it.
    That is safe because no GMP call touches Python objects (operands cross
    as immutable ``bytes`` and a private result buffer) and every thread
    works on its own :class:`_Registers`.
    """

    def __init__(self, lib: ctypes.CDLL) -> None:
        pointer, size, flag = ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int
        signatures = {
            "init": ("__gmpz_init", [pointer], None),
            "clear": ("__gmpz_clear", [pointer], None),
            "import_": ("__gmpz_import",
                        [pointer, size, flag, size, flag, size, ctypes.c_char_p], None),
            "export": ("__gmpz_export",
                       [pointer, ctypes.POINTER(size), flag, size, flag, size, pointer],
                       pointer),
            "powm_raw": ("__gmpz_powm", [pointer, pointer, pointer, pointer], None),
            "invert_raw": ("__gmpz_invert", [pointer, pointer, pointer], flag),
        }
        for attribute, (symbol, argtypes, restype) in signatures.items():
            function = getattr(lib, symbol)
            function.argtypes = argtypes
            function.restype = restype
            setattr(self, attribute, function)
        self._local = threading.local()

    def registers(self) -> tuple[int, ...]:
        try:
            return self._local.registers.addresses
        except AttributeError:
            self._local.registers = _Registers(self)
            return self._local.registers.addresses

    def load(self, register: int, value: int) -> None:
        """``register = value`` for a non-negative Python int."""
        length = (value.bit_length() + 7) // 8
        # Least significant byte first, one byte per word, no nails.
        self.import_(register, length, -1, 1, 0, 0, value.to_bytes(length, "little"))

    def read(self, register: int, modulus: int) -> int:
        """The value of *register*, known to lie in ``[0, modulus)``."""
        # Sized from the modulus, so the export always fits; the buffer
        # starts zeroed, so the bytes past the value's length read as 0.
        buffer = ctypes.create_string_buffer((modulus.bit_length() + 7) // 8)
        self.export(buffer, None, -1, 1, 0, 0, register)
        return int.from_bytes(buffer.raw, "little")

    def powm(self, base: int, exponent: int, modulus: int) -> int:
        """``base^exponent mod modulus`` for ``0 <= base < modulus``, ``exponent >= 0``."""
        result, base_r, exponent_r, modulus_r = self.registers()
        self.load(base_r, base)
        self.load(exponent_r, exponent)
        self.load(modulus_r, modulus)
        self.powm_raw(result, base_r, exponent_r, modulus_r)
        return self.read(result, modulus)

    def inverse(self, value: int, modulus: int) -> int | None:
        """``value^-1 mod modulus`` for ``0 <= value < modulus``; ``None`` if none exists."""
        result, value_r, _, modulus_r = self.registers()
        self.load(value_r, value)
        self.load(modulus_r, modulus)
        if not self.invert_raw(result, value_r, modulus_r):
            return None
        return self.read(result, modulus)


def _load_gmp() -> _Gmp | None:
    import ctypes.util

    path = ctypes.util.find_library("gmp")
    if path is None:
        return None
    try:
        return _Gmp(ctypes.CDLL(path))
    except (OSError, AttributeError):  # unloadable, or a libgmp missing a symbol
        return None


_NOT_LOADED = object()
#: The loaded :class:`_Gmp` binding, ``None`` without libgmp, or not yet tried.
_gmp: object = _NOT_LOADED
_gmp_lock = threading.Lock()


def _engine() -> _Gmp | None:
    global _gmp
    if _gmp is _NOT_LOADED:
        with _gmp_lock:
            if _gmp is _NOT_LOADED:
                _gmp = _load_gmp()
    return _gmp  # type: ignore[return-value]


def __getattr__(name: str) -> str:
    # ``BIGINT`` is computed on access so that importing this module never
    # loads libgmp: ``"gmp"`` when the library is in use, else ``"python"``.
    if name == "BIGINT":
        return "python" if _engine() is None else "gmp"
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def powmod(base: int, exponent: int, modulus: int) -> int:
    """``base^exponent mod modulus`` on the fastest available bigint engine.

    Returns exactly what the built-in three-argument ``pow`` returns for a
    positive modulus, negative exponents of invertible bases included.  A
    modulus ``<= 0`` or a negative exponent of a non-invertible base raise
    :class:`CryptoError`.  Every operand is validated and normalised here,
    so GMP only ever sees ``0 <= base < modulus``, ``exponent >= 0`` and
    ``modulus >= 2``.
    """
    if modulus <= 1:
        if modulus == 1:
            return 0
        raise CryptoError(f"modulus must be positive, got {modulus}")
    if exponent < 0:
        base = invert(base, modulus)
        exponent = -exponent
    gmp = _engine()
    if gmp is None:
        return pow(base, exponent, modulus)
    return gmp.powm(base % modulus, exponent, modulus)


def invert(value: int, modulus: int) -> int:
    """Modular inverse on the fastest available bigint engine.

    Same contract as :func:`~repro.crypto.math_utils.mod_inverse`
    (:class:`CryptoError` for a modulus ``<= 0`` or when no inverse exists).
    """
    if modulus <= 1:
        return mod_inverse(value, modulus)
    gmp = _engine()
    if gmp is None:
        return mod_inverse(value, modulus)
    inverse = gmp.inverse(value % modulus, modulus)
    if inverse is None:
        raise CryptoError(f"{value} has no inverse modulo {modulus}")
    return inverse


#: Fastmath knob values accepted everywhere (configuration, CLI, factories).
FASTMATH_CHOICES = ("auto", "off")

#: Below this exponent bit length a plain ``pow`` beats the CRT split (two
#: half-width exponentiations plus the recombination overhead).  Gossip lift
#: factors (small powers of two) stay on the plain path because of this.
_CRT_MIN_EXPONENT_BITS = 96

#: Bound on the number of distinct exponents whose CRT residues are cached
#: per key.  The recurring exponents of a run (``n^s``, the per-share
#: threshold exponents, the halving constant) are far fewer than this; the
#: cap only guards against an adversarial stream of unique exponents.
_EXPONENT_CACHE_LIMIT = 256

#: Straus interleaving processes bases in groups of this size: the shared
#: table has ``2^group`` entries, so 4 keeps precomputation negligible while
#: still merging the squaring chains of up to four exponentiations.
_STRAUS_GROUP = 4


def normalize_fastmath(fastmath: str) -> str:
    """Validate and canonicalise a ``fastmath`` knob value."""
    if isinstance(fastmath, str) and fastmath in FASTMATH_CHOICES:
        return fastmath
    raise ValidationError(
        f"invalid fastmath option {fastmath!r}: expected one of {FASTMATH_CHOICES}"
    )


# --------------------------------------------------------------------------- multi-exponentiation
def _straus_group(pairs: Sequence[tuple[int, int]], modulus: int) -> int:
    """Simultaneous exponentiation of at most :data:`_STRAUS_GROUP` pairs."""
    count = len(pairs)
    table = [1] * (1 << count)
    for position, (base, _) in enumerate(pairs):
        low = 1 << position
        for index in range(low, low << 1):
            table[index] = (table[index - low] * base) % modulus
    result = 1
    for bit in range(max(e.bit_length() for _, e in pairs) - 1, -1, -1):
        result = (result * result) % modulus
        index = 0
        for position, (_, exponent) in enumerate(pairs):
            if (exponent >> bit) & 1:
                index |= 1 << position
        if index:
            result = (result * table[index]) % modulus
    return result


def multi_pow(bases: Sequence[int], exponents: Sequence[int], modulus: int) -> int:
    """Straus simultaneous multi-exponentiation: ``Π bases[i]^exponents[i] mod modulus``.

    Sharing one squaring chain across the whole product replaces ``t`` full
    square-and-multiply runs by a single one, which is the classical win for
    threshold share combination and for homomorphic weighted accumulation.
    Negative exponents are supported for invertible bases (as ``pow`` does).
    """
    if len(bases) != len(exponents):
        raise CryptoError(
            f"multi_pow needs one exponent per base, got {len(bases)} vs {len(exponents)}"
        )
    if modulus <= 0:
        raise CryptoError(f"modulus must be positive, got {modulus}")
    pairs: list[tuple[int, int]] = []
    for base, exponent in zip(bases, exponents):
        if exponent < 0:
            base = invert(base, modulus)
            exponent = -exponent
        if exponent:
            pairs.append((base % modulus, exponent))
    if not pairs:
        return 1 % modulus
    result = 1
    for start in range(0, len(pairs), _STRAUS_GROUP):
        group = pairs[start : start + _STRAUS_GROUP]
        result = (result * _straus_group(group, modulus)) % modulus
    return result


# --------------------------------------------------------------------------- fixed-base tables
class FixedBaseTable:
    """Windowed fixed-base exponentiation: many exponents, one base.

    Precomputes ``base^(d · 2^(w·i)) mod modulus`` for every window digit
    ``d`` and block ``i``, after which :meth:`pow` costs only one
    multiplication per non-zero window digit — no squarings at all.  Worth
    building whenever the same base is exponentiated more than a handful of
    times (derived blinder generation, any recurring-generator workload).
    """

    def __init__(self, base: int, modulus: int, max_exponent_bits: int, window: int = 5) -> None:
        if modulus <= 1:
            raise CryptoError(f"modulus must exceed 1, got {modulus}")
        if max_exponent_bits < 1:
            raise CryptoError("max_exponent_bits must be >= 1")
        if not 1 <= window <= 16:
            raise CryptoError(f"window must be in [1, 16], got {window}")
        self.modulus = modulus
        self.window = window
        self.max_exponent_bits = max_exponent_bits
        n_blocks = -(-max_exponent_bits // window)
        block_base = base % modulus
        table: list[list[int]] = []
        for _ in range(n_blocks):
            row = [1] * (1 << window)
            for digit in range(1, 1 << window):
                row[digit] = (row[digit - 1] * block_base) % modulus
            table.append(row)
            block_base = (row[-1] * block_base) % modulus  # base^(2^window) for the next block
        self._table = table

    def pow(self, exponent: int) -> int:
        """``base^exponent mod modulus`` using only table lookups and multiplies."""
        if exponent < 0:
            raise CryptoError("FixedBaseTable only supports non-negative exponents")
        if exponent.bit_length() > self.max_exponent_bits:
            raise CryptoError(
                f"exponent has {exponent.bit_length()} bits, table covers "
                f"{self.max_exponent_bits}"
            )
        result = 1
        mask = (1 << self.window) - 1
        block = 0
        while exponent:
            digit = exponent & mask
            if digit:
                result = (result * self._table[block][digit]) % self.modulus
            exponent >>= self.window
            block += 1
        return result


# --------------------------------------------------------------------------- generalized dlog
def _dlog_one_plus_base(base: int, s: int, value: int) -> int:
    """Extract ``i`` from ``(1 + base)^i mod base^(s+1)``.

    The iterative binomial algorithm of Damgård–Jurik Section 4.2, with the
    modulus ``n`` generalised to any *prime* base (used with ``base = p`` and
    ``base = q`` by the CRT decryption; every ``k!`` with ``k <= s`` is then
    invertible because ``k < base``).
    """
    i = 0
    for j in range(1, s + 1):
        base_to_j = base**j
        reduced = value % (base_to_j * base)
        if (reduced - 1) % base != 0:
            raise CryptoError("value is not of the form (1 + base)^i")
        t1 = ((reduced - 1) // base) % base_to_j
        t2 = i
        for k in range(2, j + 1):
            i = i - 1
            t2 = (t2 * i) % base_to_j
            factor = (t2 * base ** (k - 1)) % base_to_j
            t1 = (t1 - factor * mod_inverse(math.factorial(k), base_to_j)) % base_to_j
        i = t1
    return i


# --------------------------------------------------------------------------- per-key precomputation
class PrecomputedKey:
    """Per-key acceleration context for the Damgård–Jurik scheme.

    Built from a public key alone it caches the public recurring constants
    (``n^k mod n^{s+1}`` powers, factorial inverses for the ``(1+n)^m``
    binomial, the halving constant ``2^{-1} mod n^s``).  Built from a
    private key it additionally precomputes the CRT split: moduli
    ``p^{s+1}`` / ``q^{s+1}``, group orders, the decryption constants
    ``h_p`` / ``h_q`` and the Garner recombination inverses, which makes
    every private-key ``pow`` run on two half-width moduli with reduced
    exponents (~3–4× faster at realistic key sizes).
    """

    def __init__(self, public_key, p: int | None = None, q: int | None = None) -> None:
        self.public_key = public_key
        n = public_key.n
        s = public_key.s
        self.n = n
        self.s = s
        self.n_to_s = public_key.plaintext_modulus
        self.modulus = public_key.ciphertext_modulus
        # Public recurring constants of the (1+n)^m binomial expansion.
        self.n_powers = [pow(n, k, self.modulus) for k in range(s + 1)]
        self.factorial_inverses = [
            mod_inverse(math.factorial(k), self.modulus) if k else 1 for k in range(s + 1)
        ]
        #: The halving constant 2^{-1} mod n^s of the gossip exponent path.
        self.inv_two = mod_inverse(2, self.n_to_s)
        self.has_private = p is not None and q is not None
        if self.has_private:
            if p * q != n:
                raise CryptoError("p * q does not match the public modulus")
            self.p = p
            self.q = q
            self.p_to_s = p**s
            self.q_to_s = q**s
            self.p_to_s1 = self.p_to_s * p
            self.q_to_s1 = self.q_to_s * q
            #: Orders of the multiplicative groups mod p^{s+1} / q^{s+1}.
            self.order_p = self.p_to_s * (p - 1)
            self.order_q = self.q_to_s * (q - 1)
            # Garner recombination constants: ciphertext and plaintext spaces.
            self.p_to_s1_inv_q = mod_inverse(self.p_to_s1 % self.q_to_s1, self.q_to_s1)
            self.p_to_s_inv_q = mod_inverse(self.p_to_s % self.q_to_s, self.q_to_s)
            # Decryption constants: c^{p-1} mod p^{s+1} lands in the cyclic
            # subgroup generated by (1+p); dividing out the fixed discrete
            # log of (1+n)^{p-1} recovers the message residue directly.
            self.h_p = mod_inverse(
                _dlog_one_plus_base(p, s, pow(1 + n, p - 1, self.p_to_s1)), self.p_to_s
            )
            self.h_q = mod_inverse(
                _dlog_one_plus_base(q, s, pow(1 + n, q - 1, self.q_to_s1)), self.q_to_s
            )
            self._exponent_residues: dict[int, tuple[int, int]] = {}

    # ------------------------------------------------------------------ constructors
    @classmethod
    def from_private_key(cls, private_key) -> "PrecomputedKey":
        """Full precomputation (CRT included) from a Damgård–Jurik private key."""
        return cls(private_key.public_key, p=private_key.p, q=private_key.q)

    @classmethod
    def from_public_key(cls, public_key) -> "PrecomputedKey":
        """Public-constants-only precomputation (no CRT)."""
        return cls(public_key)

    # ------------------------------------------------------------------ public fast paths
    def one_plus_n_pow(self, exponent: int) -> int:
        """``(1 + n)^exponent mod n^{s+1}`` via the binomial with cached constants."""
        exponent = exponent % self.n_to_s
        modulus = self.modulus
        result = 1
        numerator = 1
        for k in range(1, self.s + 1):
            numerator = (numerator * ((exponent - (k - 1)) % modulus)) % modulus
            binomial = (numerator * self.factorial_inverses[k]) % modulus
            result = (result + binomial * self.n_powers[k]) % modulus
        return result

    # ------------------------------------------------------------------ private fast paths
    def _reduced_exponents(self, exponent: int) -> tuple[int, int]:
        """CRT residues of an exponent, cached because hot exponents recur.

        The exponents of a run are a small fixed set (``n^s`` for blinders,
        one ``2Δs_i`` per key share, the halving constant), so caching their
        residues removes two wide reductions from every private ``pow``.
        """
        cached = self._exponent_residues.get(exponent)
        if cached is None:
            cached = (exponent % self.order_p, exponent % self.order_q)
            if len(self._exponent_residues) < _EXPONENT_CACHE_LIMIT:
                self._exponent_residues[exponent] = cached
        return cached

    def _recombine(self, residue_p: int, residue_q: int) -> int:
        """Garner CRT recombination in the ciphertext space."""
        difference = ((residue_q - residue_p) * self.p_to_s1_inv_q) % self.q_to_s1
        return residue_p + self.p_to_s1 * difference

    def crt_pow(self, base: int, exponent: int) -> int:
        """``base^exponent mod n^{s+1}`` computed mod ``p^{s+1}`` and ``q^{s+1}``.

        Exact for every base coprime to ``n`` (ciphertexts always are); other
        bases, tiny exponents and public-only contexts fall back to ``pow``.
        The win comes from two half-width moduli plus order-reduced
        exponents, the textbook CRT speedup of RSA-family schemes.
        """
        if not self.has_private or 0 < exponent.bit_length() < _CRT_MIN_EXPONENT_BITS:
            return powmod(base, exponent, self.modulus)
        if math.gcd(base, self.n) != 1:
            return powmod(base, exponent, self.modulus)
        if exponent < 0:
            base = invert(base, self.modulus)
            exponent = -exponent
        exponent_p, exponent_q = self._reduced_exponents(exponent)
        residue_p = powmod(base % self.p_to_s1, exponent_p, self.p_to_s1)
        residue_q = powmod(base % self.q_to_s1, exponent_q, self.q_to_s1)
        return self._recombine(residue_p, residue_q)

    def decrypt(self, ciphertext: int) -> int:
        """CRT decryption: half-width moduli *and* half-size exponents.

        ``c^{p-1} mod p^{s+1}`` kills the ``r^{n^s}`` randomness outright
        (its order divides ``p^s (p-1)``), so the discrete log of the result
        is ``m (p-1) α_p mod p^s`` — one constant multiplication away from
        the message residue.  Combining the two residues with Garner yields
        exactly the plaintext the full-width ``c^λ`` decryption produces.
        """
        if not self.has_private:
            raise CryptoError("CRT decryption requires the private key")
        residue_p = (
            _dlog_one_plus_base(
                self.p, self.s, powmod(ciphertext % self.p_to_s1, self.p - 1, self.p_to_s1)
            )
            * self.h_p
        ) % self.p_to_s
        residue_q = (
            _dlog_one_plus_base(
                self.q, self.s, powmod(ciphertext % self.q_to_s1, self.q - 1, self.q_to_s1)
            )
            * self.h_q
        ) % self.q_to_s
        difference = ((residue_q - residue_p) * self.p_to_s_inv_q) % self.q_to_s
        return residue_p + self.p_to_s * difference


# --------------------------------------------------------------------------- blinder pools
class BlinderPool:
    """Amortized pool of Damgård–Jurik encryption blinders ``r^{n^s} mod n^{s+1}``.

    Hot-path ``encrypt`` and ``rerandomize`` take one precomputed blinder and
    pay a single bigint multiplication; the exponentiations are batched into
    :meth:`refill`, which a deployment runs in idle time (and which itself
    uses the CRT fast path when the pool holds the private context, as the
    in-process simulation backend does).

    ``mode="exact"`` (the default everywhere) draws its randomness through
    the same :func:`random_coprime` calls, in the same order, as fresh
    encryption — given the same randomness stream, pooled ciphertexts are
    bit-identical to unpooled ones.  ``mode="derived"`` instead raises one
    fixed random generator ``h = r₀^{n^s}`` to random exponents through a
    :class:`FixedBaseTable`, trading exact distribution equality for
    refills that cost one table walk instead of one exponentiation each.
    """

    #: Extra exponent bits of the derived mode over |n|, making the derived
    #: exponent distribution statistically close to uniform over <h>.
    DERIVED_SLACK_BITS = 64

    def __init__(
        self,
        precomputed: PrecomputedKey,
        batch_size: int = 32,
        mode: str = "exact",
        rng: Callable[[int], int] | None = None,
    ) -> None:
        if batch_size < 1:
            raise CryptoError(f"batch_size must be >= 1, got {batch_size}")
        if mode not in ("exact", "derived"):
            raise CryptoError(f"unknown blinder pool mode {mode!r}")
        self.precomputed = precomputed
        self.batch_size = batch_size
        self.mode = mode
        self._random_coprime = rng if rng is not None else random_coprime
        self._pool: deque[int] = deque()
        self.generated = 0
        self.served = 0
        # One condition guards the pool *and* serializes blinder generation:
        # every randomness draw happens under it, in append order, so the
        # FIFO pool consumes the randomness stream exactly like fresh
        # encryption would — whether a blinder was generated synchronously
        # on exhaustion or ahead of time by the background refill thread.
        self._condition = threading.Condition()
        self._refill_thread: threading.Thread | None = None
        self._refill_stop: threading.Event | None = None
        self.low_water = max(1, batch_size // 2)
        self._table: FixedBaseTable | None = None
        if mode == "derived":
            generator = precomputed.crt_pow(
                self._random_coprime(precomputed.n), precomputed.n_to_s
            )
            self._table = FixedBaseTable(
                generator,
                precomputed.modulus,
                precomputed.n.bit_length() + self.DERIVED_SLACK_BITS,
            )

    def __len__(self) -> int:
        return len(self._pool)

    def _fresh_blinder(self) -> int:
        if self._table is not None:
            import secrets

            exponent = secrets.randbits(self.precomputed.n.bit_length() + self.DERIVED_SLACK_BITS)
            return self._table.pow(exponent)
        randomness = self._random_coprime(self.precomputed.n)
        return self.precomputed.crt_pow(randomness, self.precomputed.n_to_s)

    def refill(self, count: int | None = None) -> None:
        """Precompute *count* blinders (one batch when omitted)."""
        count = self.batch_size if count is None else count
        with self._condition:
            self._refill_locked(count)

    def _refill_locked(self, count: int) -> None:
        for _ in range(count):
            self._pool.append(self._fresh_blinder())
        self.generated += count

    def take(self) -> int:
        """Pop the oldest blinder, refilling a batch first when empty.

        FIFO order keeps the randomness-stream consumption identical to
        fresh encryption: the i-th pooled operation uses exactly the i-th
        drawn randomness.  With the background refill thread running, the
        pool rarely empties and this is one lock acquisition plus one
        ``popleft``; dropping to the low-water mark wakes the refiller.
        """
        with self._condition:
            if not self._pool:
                self._refill_locked(self.batch_size)
            self.served += 1
            blinder = self._pool.popleft()
            if self._refill_thread is not None and len(self._pool) <= self.low_water:
                self._condition.notify_all()
            return blinder

    def preload(self, blinders: Sequence[int]) -> None:
        """Append externally precomputed blinders to the pool.

        This is the persisted-pool-file path: blinders generated by an
        earlier offline phase re-enter the pool without drawing from this
        process's randomness stream.  Preloaded blinders therefore break
        the exact-mode bit-identity with the unpooled path — callers only
        use this behind the explicit ``crypto.pool_file`` opt-in.
        """
        with self._condition:
            for blinder in blinders:
                self._pool.append(int(blinder))
            self.generated += len(blinders)
            self._condition.notify_all()

    def reset(self) -> None:
        """Discard every pooled blinder (counters untouched).

        A process that inherits a pool through ``fork`` MUST call this
        before encrypting: two processes serving the same precomputed
        blinders would produce ciphertexts with identical randomness, and
        the quotient of two such ciphertexts reveals the plaintext
        difference — exactly the linkability the re-randomization layer
        exists to prevent.  Post-fork draws come from the process's own
        entropy, so refilled pools diverge immediately.
        """
        with self._condition:
            self._pool.clear()

    # ------------------------------------------------------------------ background refill
    def start_background_refill(self, low_water: int | None = None) -> None:
        """Keep the pool topped up from a daemon worker thread.

        Real deployments refill blinder pools in idle time; this moves the
        batch exponentiations off the encryption hot path.  Generation
        stays under the pool lock, one blinder at a time, so the exact-mode
        randomness stream is consumed in precisely the order the
        synchronous path consumes it — pooled ciphertexts remain
        bit-identical to fresh ones given the same stream.  Idempotent; a
        no-op when the thread is already running.
        """
        with self._condition:
            if low_water is not None:
                if low_water < 1:
                    raise CryptoError(f"low_water must be >= 1, got {low_water}")
                self.low_water = low_water
            if self._refill_thread is not None:
                return
            # Each thread gets its own stop event: even if a stop times out
            # with the old thread wedged behind the lock, a later start can
            # never revive it — its event stays set forever and a fresh
            # thread runs on a fresh event.
            stop = threading.Event()
            self._refill_stop = stop
            self._refill_thread = threading.Thread(
                target=self._background_refill_loop,
                args=(stop,),
                name="blinder-pool-refill",
                daemon=True,
            )
            self._refill_thread.start()

    def stop_background_refill(self) -> None:
        """Stop the refill thread (blocks until it exits); idempotent."""
        with self._condition:
            thread = self._refill_thread
            stop = self._refill_stop
            if thread is None:
                return
            stop.set()
            self._condition.notify_all()
        thread.join(timeout=30.0)
        with self._condition:
            self._refill_thread = None
            self._refill_stop = None

    def _background_refill_loop(self, stop: threading.Event) -> None:
        # The lock is re-acquired for every single blinder: a concurrent
        # take() waits at most one exponentiation, never a whole batch, and
        # draw order == append order == serve order (stream identity).
        while True:
            with self._condition:
                if stop.is_set():
                    return
                if len(self._pool) >= self.low_water + self.batch_size:
                    self._condition.wait(timeout=0.1)
                    continue
                self._refill_locked(1)
                self._condition.notify_all()


def plan_pool_batch(expected_per_round: int, minimum: int = 16, maximum: int = 1024) -> int:
    """Pool batch size for an expected number of hot-path operations per round.

    The analysis cost model knows how many encryptions one protocol round
    performs (:attr:`~repro.analysis.costs.ProtocolWorkload.encryptions_per_iteration`);
    refilling in batches of that size means at most one refill burst per
    round while bounding the precomputed-state memory.
    """
    if expected_per_round < 1:
        raise CryptoError(
            f"expected_per_round must be >= 1, got {expected_per_round}"
        )
    return max(minimum, min(maximum, expected_per_round))
