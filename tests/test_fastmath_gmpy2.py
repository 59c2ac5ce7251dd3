"""Engine-agnostic contract of ``fastmath.powmod`` / ``invert``.

``powmod`` / ``invert`` must return exactly the integers the built-in
``pow`` / ``mod_inverse`` return, whichever bigint engine is active (the
libgmp binding or the built-in fallback; ``fastmath.BIGINT`` says which).
The binding's C-boundary, threading and fork tests live in
``test_fastmath_gmp.py``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.fastmath import invert, powmod
from repro.crypto.math_utils import mod_inverse
from repro.exceptions import CryptoError

integers = st.integers(min_value=-(10**40), max_value=10**40)
moduli = st.integers(min_value=2, max_value=10**40)


class TestBackendAgnosticContract:
    """These hold on every engine — they pin the shared semantics."""

    @given(base=integers, exponent=st.integers(min_value=0, max_value=10**12),
           modulus=moduli)
    @settings(max_examples=150, deadline=None)
    def test_powmod_matches_builtin_pow(self, base, exponent, modulus):
        assert powmod(base, exponent, modulus) == pow(base, exponent, modulus)

    @given(value=integers, modulus=moduli)
    @settings(max_examples=150, deadline=None)
    def test_invert_matches_mod_inverse(self, value, modulus):
        try:
            expected = mod_inverse(value, modulus)
        except CryptoError:
            with pytest.raises(CryptoError):
                invert(value, modulus)
        else:
            assert invert(value, modulus) == expected

    def test_negative_exponent_inverts(self):
        assert powmod(3, -1, 7) == pow(3, -1, 7)
        assert powmod(3, -5, 7) == pow(3, -5, 7)

    def test_non_invertible_base_raises(self):
        with pytest.raises(CryptoError):
            powmod(6, -1, 9)
        with pytest.raises(CryptoError):
            invert(0, 7)
        with pytest.raises(CryptoError):
            invert(3, -5)
