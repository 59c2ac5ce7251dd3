"""High-level orchestration of a Chiaroscuro run.

:func:`run_chiaroscuro` is the main entry point of the library: given a
collection of personal time-series (each series conceptually living on its
owner's device) and a configuration, it builds the simulation, runs the
protocol to completion and returns a :class:`~repro.core.result.ChiaroscuroResult`
containing the final profiles, the privacy accounting, the cost summary and
the full execution log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from ..clustering.kmeans import assign_to_centroids, compute_inertia, public_initial_centroids
from ..config import ChiaroscuroConfig
from ..crypto import fastmath
from ..crypto.backends import CipherBackend, make_backend
from ..crypto.wire import normalize_wire
from ..exceptions import ConfigurationError, ProtocolError
from ..gossip.encrypted_sum import check_headroom
from ..gossip.overlay import build_overlay
from ..privacy.laplace import SensitivityModel
from ..privacy.noise_shares import slot_magnitude_bound
from ..privacy.probabilistic import guarantee_for_run
from ..privacy.strategies import make_budget_strategy
from ..simulation.engine import CycleEngine
from ..timeseries import TimeSeriesCollection
from .execution_log import ExecutionLog, IterationRecord
from .participant import ChiaroscuroParticipant
from .result import ChiaroscuroResult, CostSummary


def normalize_collection(
    collection: TimeSeriesCollection, value_bound: float
) -> tuple[np.ndarray, dict[str, float]]:
    """Min-max normalise a collection into [0, value_bound].

    Returns the normalised matrix and the transform parameters needed to map
    profiles back to the original units (``original = normalised / scale +
    offset``).  The bounds are treated as public domain knowledge (e.g. "a
    household draws between 0 and 10 kW"), which is the standard assumption
    behind the clipping bound of the Laplace sensitivity.
    """
    matrix = collection.to_matrix()
    low = float(matrix.min())
    high = float(matrix.max())
    span = high - low
    if span <= 0:
        span = 1.0
    scale = value_bound / span
    normalised = (matrix - low) * scale
    return normalised, {"offset": low, "scale": scale, "value_bound": value_bound}


def denormalize_profiles(profiles: np.ndarray, transform: dict[str, float]) -> np.ndarray:
    """Map profiles produced on normalised data back to the original units."""
    scale = float(transform.get("scale", 1.0))
    offset = float(transform.get("offset", 0.0))
    if scale == 0:
        raise ProtocolError("invalid normalisation transform: scale is zero")
    return profiles / scale + offset


def _packed_slot_bound(
    config: ChiaroscuroConfig, series_length: int, value_bound: float
) -> float:
    """Magnitude one fresh packed slot must hold for this configuration.

    A slot carries either one (clipped) series point, one membership
    indicator, or one noise-share coordinate.  The noise dominates: its
    Laplace scale follows from the sensitivity and the *smallest*
    per-iteration budget the configured strategy may grant, inflated by the
    noise-share tail bound so that encoding a share essentially never
    overflows a slot.
    """
    sensitivity = SensitivityModel(
        series_length=series_length,
        value_bound=config.privacy.value_bound,
        count_bound=config.privacy.count_bound,
    )
    strategy = make_budget_strategy(
        config.privacy.budget_strategy,
        config.privacy.epsilon,
        config.kmeans.max_iterations,
        geometric_ratio=config.privacy.geometric_ratio,
    )
    # Whatever the runtime spending pattern, every strategy grants either 0
    # (budget exhausted) or at least this much — the unconditional bound the
    # slot width must absorb.
    min_epsilon = strategy.minimum_iteration_epsilon()
    noise_bound = slot_magnitude_bound(sensitivity.laplace_scale(min_epsilon))
    return max(value_bound, 1.0, config.privacy.count_bound) + noise_bound


@dataclass
class RunSetup:
    """Everything a run derives deterministically from (collection, config).

    The cycle runner builds this once; every live-runner worker rebuilds the
    cheap parts identically from the same inputs (data, overlay, centroids,
    seeds) while inheriting the expensive/random part — the cipher backend
    and its key material — from the coordinator process.  Keeping the whole
    derivation in one place is what makes the two execution modes agree.
    """

    config: ChiaroscuroConfig
    data: np.ndarray
    transform: dict[str, float]
    backend: CipherBackend
    overlay: Any
    initial_centroids: np.ndarray
    noise_contributor_ids: set[int]
    n_noise_contributors: int
    participant_seeds: list[int]
    tracked_ids: list[int]

    @property
    def n_participants(self) -> int:
        return self.data.shape[0]

    @property
    def series_length(self) -> int:
        return self.data.shape[1]

    def packing_info(self) -> dict[str, Any]:
        backend = self.backend
        return {
            "enabled": backend.is_packed,
            "slots": backend.packing.slots if backend.packing is not None else 1,
            "slot_bits": backend.packing.slot_bits if backend.packing is not None else 0,
        }

    def fastmath_info(self) -> dict[str, Any]:
        pooled = getattr(self.backend, "fastmath_enabled", False)
        return {
            "mode": getattr(self.backend, "fastmath", "off"),
            "pooled": pooled,
            # The engine under the run's exponentiations: fastmath routes them
            # through fastmath.powmod, otherwise they are the built-in pow.
            "bigint": fastmath.BIGINT if pooled else "python",
        }

    def wire_info(self) -> dict[str, Any]:
        return {
            "mode": normalize_wire(self.config.network.wire),
            "corruption_rate": self.config.network.corruption_rate,
        }

    def make_participant(self, node_id: int) -> ChiaroscuroParticipant:
        """Instantiate one participant from the precomputed derivations."""
        return ChiaroscuroParticipant(
            node_id=node_id,
            series_values=self.data[node_id],
            initial_centroids=self.initial_centroids,
            config=self.config,
            backend=self.backend,
            overlay=self.overlay,
            noise_contributor=node_id in self.noise_contributor_ids,
            n_noise_contributors=self.n_noise_contributors,
            seed=self.participant_seeds[node_id],
        )

    def make_participants(self) -> list[ChiaroscuroParticipant]:
        """Instantiate every participant (the cycle engine's population)."""
        return [self.make_participant(node_id) for node_id in range(self.n_participants)]


def build_run_setup(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    normalize: bool = True,
    n_tracked_participants: int = 4,
) -> RunSetup:
    """Derive a :class:`RunSetup` (backend, overlay, seeds) for one run.

    The master-seed randomness is consumed in exactly the order the
    historical inline code consumed it — noise-contributor choice, one seed
    per participant, tracked-participant choice — so runs are bit-identical
    to pre-refactor builds.
    """
    n_participants = len(collection)
    if config.crypto.threshold > n_participants:
        raise ConfigurationError(
            "decryption threshold exceeds the number of participants "
            f"({config.crypto.threshold} > {n_participants})"
        )
    if config.kmeans.n_clusters > n_participants:
        raise ConfigurationError(
            "cannot ask for more clusters than participants "
            f"({config.kmeans.n_clusters} > {n_participants})"
        )
    value_bound = config.privacy.value_bound
    if normalize:
        data, transform = normalize_collection(collection, value_bound)
    else:
        data = np.clip(collection.to_matrix(), 0.0, value_bound)
        transform = {"offset": 0.0, "scale": 1.0, "value_bound": value_bound}
    n_participants, series_length = data.shape

    # Each iteration performs at most ~2 * cycles averaging steps per estimate
    # (own exchanges plus exchanges initiated by peers).
    total_halvings = (
        2 * config.gossip.cycles_per_aggregation * config.gossip.exchanges_per_cycle + 4
    )
    # Estimate halvings compound across merges (both parties adopt the same
    # averaged estimate), empirically reaching ~6 per cycle in the worst
    # lineage; the packed slot headroom must absorb that whole depth.
    packed_halving_budget = (
        6 * config.gossip.cycles_per_aggregation * config.gossip.exchanges_per_cycle + 16
    )
    backend = make_backend(
        config.crypto.backend,
        key_bits=config.crypto.key_bits,
        degree=config.crypto.degree,
        threshold=config.crypto.threshold,
        n_shares=config.crypto.n_key_shares,
        encoding_scale=config.crypto.encoding_scale,
        packing=config.crypto.packing,
        packing_value_bound=_packed_slot_bound(config, series_length, value_bound),
        packing_weight_bits=packed_halving_budget,
        fastmath=config.crypto.fastmath,
    )
    if hasattr(backend, "configure_pool"):
        # Size the amortized blinder pool from the cost model's per-round
        # encryption demand (deferred import: repro.analysis imports this
        # module back for the quality comparisons).
        from ..analysis.costs import ProtocolWorkload

        demand = ProtocolWorkload(
            n_clusters=config.kmeans.n_clusters,
            series_length=series_length,
            iterations=config.kmeans.max_iterations,
            gossip_cycles=config.gossip.cycles_per_aggregation,
            exchanges_per_cycle=config.gossip.exchanges_per_cycle,
            threshold=config.crypto.threshold,
            slots=backend.packing.slots if backend.packing is not None else 1,
            amortized_encryptions=True,
        )
        backend.configure_pool(
            demand.encryptions_per_iteration,
            pool_file=config.crypto.pool_file or None,
        )
    check_headroom(
        backend,
        value_bound=max(value_bound, 1.0),
        total_halvings=total_halvings,
    )
    overlay = build_overlay(
        n_participants,
        topology=config.gossip.topology,
        degree=config.gossip.topology_degree,
        rewiring_probability=config.gossip.rewiring_probability,
        seed=config.simulation.seed,
    )
    initial_centroids = public_initial_centroids(
        config.kmeans.n_clusters,
        series_length,
        value_low=0.0,
        value_high=value_bound,
        seed=config.simulation.seed,
    )
    master_rng = np.random.default_rng(config.simulation.seed)
    n_noise_contributors = min(config.privacy.noise_shares, n_participants)
    noise_contributor_ids = set(
        master_rng.choice(n_participants, size=n_noise_contributors, replace=False).tolist()
    )
    participant_seeds = [
        int(master_rng.integers(0, 2**31 - 1)) for _ in range(n_participants)
    ]
    tracked_ids = sorted(
        master_rng.choice(
            n_participants,
            size=min(n_tracked_participants, n_participants),
            replace=False,
        ).tolist()
    )
    return RunSetup(
        config=config,
        data=data,
        transform=transform,
        backend=backend,
        overlay=overlay,
        initial_centroids=initial_centroids,
        noise_contributor_ids=noise_contributor_ids,
        n_noise_contributors=n_noise_contributors,
        participant_seeds=participant_seeds,
        tracked_ids=tracked_ids,
    )


@dataclass(frozen=True)
class ParticipantOutcome:
    """The per-participant facts both execution modes report identically."""

    node_id: int
    profiles: np.ndarray
    stop_reason: str
    spent_epsilon: float
    iteration: int


def outcome_of(participant: ChiaroscuroParticipant) -> ParticipantOutcome:
    """Snapshot one participant's end-of-run outcome."""
    profiles = (
        participant.final_profiles
        if participant.final_profiles is not None
        else participant.centroids
    )
    return ParticipantOutcome(
        node_id=participant.node_id,
        profiles=profiles.copy(),
        stop_reason=participant.stop_reason or "unfinished",
        spent_epsilon=participant.accountant.spent_epsilon,
        iteration=participant.iteration,
    )


def assemble_result(
    setup: RunSetup,
    collection_name: str,
    outcomes: Sequence[ParticipantOutcome],
    messages_sent: int,
    bytes_sent: int,
    bytes_modelled: int,
    crypto_counts: dict[str, int],
    log: ExecutionLog,
    extra_metadata: dict[str, Any] | None = None,
) -> ChiaroscuroResult:
    """Build the :class:`ChiaroscuroResult` both execution modes return."""
    ordered = sorted(outcomes, key=lambda outcome: outcome.node_id)
    data = setup.data
    profiles_stack = np.stack([outcome.profiles for outcome in ordered])
    profiles = profiles_stack.mean(axis=0)
    assignments = assign_to_centroids(data, profiles)
    inertia = compute_inertia(data, profiles, assignments)
    epsilon_spent = max(outcome.spent_epsilon for outcome in ordered)
    n_iterations = max(outcome.iteration for outcome in ordered)
    stop_reasons: dict[str, int] = {}
    for outcome in ordered:
        stop_reasons[outcome.stop_reason] = stop_reasons.get(outcome.stop_reason, 0) + 1
    converged = any(
        outcome.stop_reason in ("converged", "synchronized") for outcome in ordered
    )
    guarantee = guarantee_for_run(
        epsilon=max(epsilon_spent, 1e-12),
        cycles=setup.config.gossip.cycles_per_aggregation,
        n_participants=setup.n_participants,
    )
    wire_info = setup.wire_info()
    # Phase-tagged compute accounting: price the full operation counter
    # (pooled encryptions and rerandomizations included) with the committed
    # benchmark profile, splitting input-independent blinder precomputation
    # (offline) from the hot path (online).  Deferred import: repro.analysis
    # imports this module back for the quality comparisons.
    from ..analysis.costs import load_reference_profile

    profile = load_reference_profile(fastmath=setup.config.crypto.fastmath)
    offline_seconds: float | None = None
    online_seconds: float | None = None
    phase_ops: dict[str, dict[str, int]] | None = None
    if profile is not None:
        phases = profile.phase_seconds_for_counts(crypto_counts)
        offline_seconds = phases["offline_seconds"]
        online_seconds = phases["online_seconds"]
        served = (
            int(crypto_counts.get("pooled_encryptions", 0))
            + int(crypto_counts.get("rerandomizations", 0))
            if profile.pooled_encryption_seconds > 0
            else 0
        )
        phase_ops = {
            "offline": {"blinder_exponentiations": served},
            "online": {str(key): int(value) for key, value in crypto_counts.items()},
        }
    costs = CostSummary(
        n_participants=setup.n_participants,
        n_iterations=n_iterations,
        messages_sent=messages_sent,
        bytes_sent=bytes_sent,
        encryptions=crypto_counts["encryptions"],
        homomorphic_additions=crypto_counts["additions"],
        partial_decryptions=crypto_counts["partial_decryptions"],
        combinations=crypto_counts["combinations"],
        bytes_sent_modelled=bytes_modelled,
        wire=wire_info["mode"],
        iteration_costs=tuple(
            {str(key): float(value) for key, value in record.costs.items()}
            for record in log
        ),
        offline_seconds=offline_seconds,
        online_seconds=online_seconds,
        phase_ops=phase_ops,
    )
    per_participant_profiles = {
        outcome.node_id: outcome.profiles.copy() for outcome in ordered
    }
    metadata: dict[str, Any] = {
        "normalization": setup.transform,
        "tracked_participants": setup.tracked_ids,
        "dataset": collection_name,
        "packing": setup.packing_info(),
        "fastmath": setup.fastmath_info(),
        "wire": wire_info,
    }
    if extra_metadata:
        metadata.update(extra_metadata)
    return ChiaroscuroResult(
        profiles=profiles,
        assignments=assignments,
        per_participant_profiles=per_participant_profiles,
        inertia=inertia,
        n_iterations=n_iterations,
        converged=converged,
        stop_reasons=stop_reasons,
        epsilon_spent=epsilon_spent,
        guarantee=guarantee,
        costs=costs,
        log=log,
        metadata=metadata,
    )


class _RunObserver:
    """Engine observer that fills the execution log as iterations complete."""

    def __init__(
        self,
        participants: list[ChiaroscuroParticipant],
        data: np.ndarray,
        initial_centroids: np.ndarray,
        tracked_ids: list[int],
        engine: CycleEngine,
        backend: CipherBackend,
        log: ExecutionLog,
    ) -> None:
        self._participants = participants
        self._data = data
        self._previous_centroids = initial_centroids.copy()
        self._tracked_ids = tracked_ids
        self._engine = engine
        self._backend = backend
        self._log = log
        self._records_emitted = 0
        self._last_messages = 0
        self._last_bytes = 0
        self._last_crypto = backend.counter.as_dict()

    def _noise_free_means(self, iteration_index: int, reference: np.ndarray) -> np.ndarray:
        """Means the iteration would produce without noise or gossip error."""
        n_clusters = reference.shape[0]
        means = reference.copy()
        assignments: list[tuple[int, int]] = []
        for participant in self._participants:
            if len(participant.assignment_history) > iteration_index:
                assignments.append(
                    (participant.node_id, participant.assignment_history[iteration_index])
                )
        for cluster in range(n_clusters):
            member_ids = [node_id for node_id, assigned in assignments if assigned == cluster]
            if member_ids:
                means[cluster] = self._data[member_ids].mean(axis=0)
        return means

    def after_cycle(self, engine: CycleEngine, cycle: int) -> None:
        completed = max(len(p.perturbed_means_history) for p in self._participants)
        while self._records_emitted < completed:
            index = self._records_emitted
            reporter = next(
                p for p in self._participants if len(p.perturbed_means_history) > index
            )
            perturbed = reporter.perturbed_means_history[index]
            crypto_now = self._backend.counter.as_dict()
            costs = {
                "messages_sent": float(engine.network.total.messages_sent - self._last_messages),
                "bytes_sent": float(engine.network.total.bytes_sent - self._last_bytes),
            }
            for key, value in crypto_now.items():
                costs[key] = float(value - self._last_crypto.get(key, 0))
            self._last_messages = engine.network.total.messages_sent
            self._last_bytes = engine.network.total.bytes_sent
            self._last_crypto = crypto_now
            tracked = {
                node_id: self._participants[node_id].assignment_history[index]
                for node_id in self._tracked_ids
                if len(self._participants[node_id].assignment_history) > index
            }
            epsilon = 0.0
            spends = list(reporter.accountant)
            if index < len(spends):
                epsilon = spends[index].epsilon
            record = IterationRecord(
                iteration=index + 1,
                epsilon_spent=epsilon,
                centroids_before=self._previous_centroids.copy(),
                perturbed_means=perturbed.copy(),
                noise_free_means=self._noise_free_means(index, perturbed),
                displacement=reporter.displacement_history[index],
                tracked_assignments=tracked,
                costs=costs,
            )
            self._log.append(record)
            self._previous_centroids = perturbed.copy()
            self._records_emitted += 1


def run_chiaroscuro(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig | None = None,
    normalize: bool = True,
    n_tracked_participants: int = 4,
    max_extra_cycles: int = 50,
) -> ChiaroscuroResult:
    """Run the complete Chiaroscuro protocol on a collection of time-series.

    Parameters
    ----------
    collection:
        One series per participant; the population size is the collection
        size (the ``simulation.n_participants`` configuration field is
        ignored in favour of it).
    config:
        Full protocol configuration (library defaults when omitted).
    normalize:
        Min-max normalise the data into [0, value_bound] before running
        (recommended; the normalisation parameters are returned in the result
        metadata so profiles can be mapped back to original units).
    n_tracked_participants:
        Number of participants whose per-iteration assignment is recorded in
        the execution log (the demo GUI follows four of them).
    max_extra_cycles:
        Safety margin added to the theoretical number of cycles needed.

    Returns
    -------
    ChiaroscuroResult
    """
    config = config if config is not None else ChiaroscuroConfig()
    if config.runtime.mode == "live":
        # Deferred import: the live runner imports this module back for the
        # shared setup/assembly helpers.
        from ..net.live import run_live_chiaroscuro

        return run_live_chiaroscuro(
            collection,
            config,
            normalize=normalize,
            n_tracked_participants=n_tracked_participants,
            max_extra_cycles=max_extra_cycles,
        )
    if config.runtime.engine == "slab":
        # Deferred import: the slab runner imports this module back for the
        # shared normalisation/setup helpers.
        from .slab_runner import run_slab_chiaroscuro

        return run_slab_chiaroscuro(
            collection,
            config,
            normalize=normalize,
            n_tracked_participants=n_tracked_participants,
            max_extra_cycles=max_extra_cycles,
        )
    setup = build_run_setup(
        collection, config, normalize=normalize,
        n_tracked_participants=n_tracked_participants,
    )
    participants = setup.make_participants()
    engine = CycleEngine(
        participants,
        seed=config.simulation.seed,
        churn_rate=config.simulation.churn_rate,
        rejoin_rate=config.simulation.rejoin_rate,
        drop_probability=config.gossip.drop_probability,
        corruption_rate=config.network.corruption_rate,
    )
    log = ExecutionLog(metadata=run_log_metadata(setup, collection.name))
    observer = _RunObserver(
        participants, setup.data, setup.initial_centroids, setup.tracked_ids,
        engine, setup.backend, log,
    )
    engine.add_observer(observer)

    max_cycles = plan_max_cycles(config, max_extra_cycles)
    engine.run(max_cycles, stop_when=lambda eng: all(p.is_done for p in participants))
    # Finish any straggler deterministically (e.g. nodes offline at the end).
    for participant in participants:
        if not participant.is_done:
            participant.online = True
    remaining_guard = 0
    while not all(p.is_done for p in participants) and remaining_guard < max_cycles:
        engine.run_cycle()
        remaining_guard += 1

    return assemble_result(
        setup,
        collection.name,
        [outcome_of(participant) for participant in participants],
        messages_sent=engine.network.total.messages_sent,
        bytes_sent=engine.network.total.bytes_sent,
        bytes_modelled=engine.network.total.bytes_modelled,
        crypto_counts=setup.backend.counter.as_dict(),
        log=log,
    )


def plan_max_cycles(config: ChiaroscuroConfig, max_extra_cycles: int = 50) -> int:
    """Cycle budget of a run (shared by the cycle engine and the live runner)."""
    cycles_per_iteration = config.gossip.cycles_per_aggregation + 3
    return config.kmeans.max_iterations * cycles_per_iteration + max_extra_cycles


def run_log_metadata(setup: RunSetup, collection_name: str) -> dict[str, Any]:
    """Execution-log metadata both execution modes record identically."""
    return {
        "dataset": collection_name,
        "n_participants": setup.n_participants,
        "series_length": setup.series_length,
        "config": setup.config.describe(),
        "normalization": setup.transform,
        "tracked_participants": setup.tracked_ids,
        "packing": setup.packing_info(),
        "fastmath": setup.fastmath_info(),
        "wire": setup.wire_info(),
    }
