"""Tests of the probabilistic differential-privacy accounting."""

from __future__ import annotations

import pytest

from repro.exceptions import PrivacyError, ValidationError
from repro.privacy import (
    cycles_for_target_delta,
    delta_from_cycles,
    effective_epsilon,
    gossip_relative_error,
    guarantee_for_run,
)


class TestErrorBounds:
    def test_error_decreases_exponentially(self):
        errors = [gossip_relative_error(c) for c in (1, 5, 10, 20)]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert gossip_relative_error(10) == pytest.approx(0.5**10)

    def test_contraction_parameter(self):
        assert gossip_relative_error(4, contraction=0.25) == pytest.approx(0.25**4)

    def test_rejects_invalid_arguments(self):
        with pytest.raises(ValidationError):
            gossip_relative_error(0)
        with pytest.raises(ValidationError):
            gossip_relative_error(3, contraction=1.0)


class TestDelta:
    def test_union_bound(self):
        assert delta_from_cycles(10, 100) == pytest.approx(100 * 0.5**10)

    def test_capped_at_one(self):
        assert delta_from_cycles(1, 10**6) == 1.0

    def test_more_cycles_smaller_delta(self):
        assert delta_from_cycles(20, 1000) < delta_from_cycles(10, 1000)


class TestEffectiveEpsilon:
    def test_zero_error_is_identity(self):
        assert effective_epsilon(1.0, 0.0) == 1.0

    def test_inflation(self):
        assert effective_epsilon(1.0, 0.5) == pytest.approx(2.0)

    def test_rejects_error_of_one(self):
        with pytest.raises(PrivacyError):
            effective_epsilon(1.0, 1.0)


class TestGuarantee:
    def test_guarantee_fields(self):
        guarantee = guarantee_for_run(epsilon=1.0, cycles=12, n_participants=1000)
        assert guarantee.epsilon == 1.0
        assert guarantee.effective_epsilon >= 1.0
        assert 0.0 <= guarantee.delta <= 1.0
        assert guarantee.relative_error_bound == pytest.approx(0.5**12)
        as_dict = guarantee.as_dict()
        assert set(as_dict) == {
            "epsilon", "effective_epsilon", "delta", "relative_error_bound",
            "vacuous",
        }
        assert as_dict["vacuous"] is False

    def test_delta_of_one_is_flagged_vacuous(self):
        # delta = min(1, N * 0.5**12): N = 4096 is the first population at
        # which 12 cycles promise nothing.
        assert not guarantee_for_run(1.0, cycles=12, n_participants=4095).vacuous
        vacuous = guarantee_for_run(1.0, cycles=12, n_participants=4096)
        assert vacuous.delta == 1.0
        assert vacuous.vacuous
        assert vacuous.as_dict()["vacuous"] is True

    def test_more_cycles_tighten_the_guarantee(self):
        loose = guarantee_for_run(1.0, cycles=8, n_participants=1000)
        tight = guarantee_for_run(1.0, cycles=24, n_participants=1000)
        assert tight.delta < loose.delta
        assert tight.effective_epsilon < loose.effective_epsilon


class TestCyclesForTargetDelta:
    def test_round_trip(self):
        for target in (1e-2, 1e-4, 1e-6):
            cycles = cycles_for_target_delta(target, n_participants=1000)
            assert delta_from_cycles(cycles, 1000) <= target
            if cycles > 1:
                assert delta_from_cycles(cycles - 1, 1000) > target

    def test_grows_with_population(self):
        assert cycles_for_target_delta(1e-4, 10**6) > cycles_for_target_delta(1e-4, 10**2)

    def test_rejects_invalid_target(self):
        with pytest.raises(ValidationError):
            cycles_for_target_delta(0.0, 100)
