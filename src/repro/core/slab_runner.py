"""Million-node slab execution path with sampled crypto.

:func:`run_slab_chiaroscuro` is the ``runtime.engine="slab"`` entry point
dispatched by :func:`~repro.core.runner.run_chiaroscuro`.  It runs the
protocol's *quality* path — assignment, noisy distributed averaging via
gossip, convergence — as vectorised struct-of-arrays operations over the
whole population (see :mod:`repro.simulation.slab`), while the *crypto* path
(Damgård–Jurik, packing, wire frames) executes for real only on a
statistically chosen node sample.  A bootstrap extrapolator calibrated
against the sample's measured per-node operation counts and wire bytes, plus
the committed ``BENCH_crypto.json`` per-operation timings, reports the
population-total crypto cost with confidence intervals (the methodology of
Section III.B: real measurement on what fits, extrapolation for the rest).

Three regimes, selected by ``runtime.crypto_sample_fraction``:

* ``1.0`` (default): the whole run is delegated to the object engine, so the
  result is bit-identical to ``engine="object"``; the cost block is attached
  with ``method="measured"`` and degenerate intervals.
* ``0 < fraction < 1``: the bulk population runs the plain slab path, the
  sample runs the full object pipeline; costs are bootstrap-extrapolated
  (``method="sampled"``).
* ``0.0``: nothing is measured; costs come from the symbolic
  :class:`~repro.analysis.costs.CostModel` (``method="modelled"``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import replace
from typing import Any, Iterator

import numpy as np

from ..analysis.costs import (
    CostModel,
    CryptoCostProfile,
    ExtrapolatedCost,
    ProtocolWorkload,
    bootstrap_extrapolate,
)
from ..clustering.kmeans import (
    centroid_displacement,
    public_initial_centroids,
    reseed_centroid,
)
from ..clustering.smoothing import smooth_centroids
from ..config import ChiaroscuroConfig
from ..exceptions import ProtocolError
from ..privacy.budget import PrivacyAccountant
from ..privacy.laplace import SensitivityModel
from ..privacy.noise_shares import NoiseShareSpec, draw_noise_share
from ..privacy.probabilistic import guarantee_for_run
from ..privacy.strategies import make_budget_strategy
from ..simulation.engine import CycleEngine
from ..simulation.rng import RngRegistry
from ..simulation.slab import (
    PopulationSlabs,
    ShardCoordinator,
    blockwise_assign,
    blockwise_cluster_sums,
    blockwise_inertia,
    pair_online,
    plan_pair_faults,
    slab_churn_step,
)
from ..timeseries import TimeSeriesCollection
from .convergence import TerminationCriteria
from .execution_log import ExecutionLog, IterationRecord
from .result import ChiaroscuroResult, CostSummary

#: Metrics the sampled-crypto extrapolator reports population totals for.
EXTRAPOLATED_METRICS = (
    "encryptions",
    "homomorphic_additions",
    "partial_decryptions",
    "combinations",
    "messages_sent",
    "bytes_sent",
    "crypto_seconds",
    "offline_seconds",
    "online_seconds",
)

#: Key prefix of the per-iteration phase wall-clock series in the execution
#: log's cost mappings (``phase_seconds.<phase>``).
PHASE_SECONDS_PREFIX = "phase_seconds."


class PhaseTimer:
    """Per-phase wall-clock accounting of the slab loop.

    Every piece of work inside the slab engine's measured window runs under
    :meth:`phase`, which charges its wall-clock both to the run totals and
    to the current iteration.  The totals therefore sum to the measured
    slab wall-clock up to loop bookkeeping overhead — that is the invariant
    the CI phase gate checks — and "shard phase X next" becomes a measured
    decision instead of a guess.
    """

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.iteration: dict[str, float] = {}

    def start_iteration(self) -> None:
        """Reset the per-iteration accumulator (totals keep accruing)."""
        self.iteration = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Charge the wall-clock of the enclosed block to *name*."""
        begin = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - begin
            self.iteration[name] = self.iteration.get(name, 0.0) + elapsed
            self.totals[name] = self.totals.get(name, 0.0) + elapsed

    def iteration_costs(self) -> dict[str, float]:
        """The iteration's phase series as flat ``phase_seconds.*`` keys."""
        return {
            f"{PHASE_SECONDS_PREFIX}{name}": float(seconds)
            for name, seconds in self.iteration.items()
        }


def load_reference_profile(config: ChiaroscuroConfig) -> CryptoCostProfile | None:
    """Load the committed crypto benchmark profile, when one is available.

    Delegates to :func:`repro.analysis.costs.load_reference_profile` (the
    shared implementation both execution modes use for phase-tagged cost
    accounting), selecting the timing column from the run's fastmath mode.
    """
    from ..analysis.costs import load_reference_profile as _load

    return _load(fastmath=config.crypto.fastmath)


def _sample_size(config: ChiaroscuroConfig, population: int) -> int:
    """Number of nodes the real crypto pipeline runs on."""
    fraction = config.runtime.crypto_sample_fraction
    if fraction <= 0.0:
        return 0
    requested = int(np.ceil(fraction * population))
    # The sample is a complete miniature run: it needs enough nodes for the
    # decryption committee, the cluster count and a non-trivial gossip.
    floor = max(config.crypto.threshold, config.kmeans.n_clusters, 2)
    return min(population, max(requested, floor))


def _stratified_sample(
    data: np.ndarray,
    centroids: np.ndarray,
    size: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick *size* node ids stratified by initial cluster assignment.

    Strata are the clusters of the public initial centroids; each stratum
    contributes proportionally to its population share (largest-remainder
    rounding), so the sample sees the same mixture of series shapes the full
    population does.
    """
    assigned = blockwise_assign(data, centroids)
    population = data.shape[0]
    clusters = centroids.shape[0]
    counts = np.bincount(assigned, minlength=clusters)
    exact = counts * (size / population)
    quota = np.floor(exact).astype(int)
    remainder = size - int(quota.sum())
    if remainder > 0:
        order = np.argsort(-(exact - quota))
        quota[order[:remainder]] += 1
    picked: list[np.ndarray] = []
    for cluster in range(clusters):
        members = np.nonzero(assigned == cluster)[0]
        take = min(quota[cluster], members.shape[0])
        if take > 0:
            picked.append(rng.choice(members, size=take, replace=False))
    ids = np.concatenate(picked) if picked else np.empty(0, dtype=np.int64)
    # Top up from anywhere if empty strata left the quota unfilled.
    if ids.shape[0] < size:
        remaining = np.setdiff1d(np.arange(population), ids, assume_unique=False)
        extra = rng.choice(remaining, size=size - ids.shape[0], replace=False)
        ids = np.concatenate([ids, extra])
    return np.sort(ids.astype(np.int64))


def _sub_config(config: ChiaroscuroConfig, sample_size: int) -> ChiaroscuroConfig:
    """Configuration of the sample's full-pipeline object-mode sub-run.

    The sample population is deliberately NOT pinned static: the bulk run's
    churn and rejoin rates carry over, so the measured per-node costs see
    the same membership dynamics the extrapolation claims to cover.
    """
    return config.with_overrides(
        runtime={"engine": "object", "crypto_sample_fraction": 1.0},
        simulation={
            "n_participants": sample_size,
            "churn_rate": config.simulation.churn_rate,
            "rejoin_rate": config.simulation.rejoin_rate,
        },
        crypto={"threshold": min(config.crypto.threshold, sample_size)},
        privacy={"noise_shares": min(config.privacy.noise_shares, sample_size)},
    )


def _run_crypto_sample(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    sample_ids: np.ndarray,
    normalize: bool,
    max_extra_cycles: int,
) -> dict[str, Any]:
    """Run the real pipeline on the sample, metering per-node costs.

    The sample sub-run is a complete object-mode protocol execution over the
    sampled series.  Because the cycle engine is strictly sequential, taking
    an operation-counter snapshot around each participant's ``next_cycle``
    yields *exact* per-node crypto-operation attributions; per-node traffic
    comes from the network's own per-node counters.
    """
    # Deferred import: runner imports this module back for engine dispatch.
    from .runner import build_run_setup, plan_max_cycles

    sample_size = int(sample_ids.shape[0])
    sub_collection = collection.subset(
        [int(i) for i in sample_ids], name=f"{collection.name}[crypto-sample]"
    )
    sub_config = _sub_config(config, sample_size)
    setup = build_run_setup(sub_collection, sub_config, normalize=normalize)
    participants = setup.make_participants()
    counter = setup.backend.counter
    per_node_ops: dict[str, np.ndarray] = {
        key: np.zeros(sample_size) for key in counter.as_dict()
    }

    def _meter(participant: Any) -> None:
        inner = participant.next_cycle

        def metered(engine: CycleEngine, cycle: int) -> None:
            before = counter.as_dict()
            inner(engine, cycle)
            after = counter.as_dict()
            for key, value in after.items():
                delta = value - before.get(key, 0)
                if delta:
                    per_node_ops[key][participant.node_id] += delta

        participant.next_cycle = metered

    for participant in participants:
        _meter(participant)
    engine = CycleEngine(
        participants,
        seed=sub_config.simulation.seed,
        churn_rate=sub_config.simulation.churn_rate,
        rejoin_rate=sub_config.simulation.rejoin_rate,
        drop_probability=sub_config.gossip.drop_probability,
        corruption_rate=sub_config.network.corruption_rate,
    )
    max_cycles = plan_max_cycles(sub_config, max_extra_cycles)
    engine.run(max_cycles, stop_when=lambda eng: all(p.is_done for p in participants))
    for participant in participants:
        if not participant.is_done:
            participant.online = True
    guard = 0
    while not all(p.is_done for p in participants) and guard < max_cycles:
        engine.run_cycle()
        guard += 1
    if not all(p.is_done for p in participants):
        raise ProtocolError("crypto sample sub-run did not terminate")
    stats = engine.network.per_node_stats()
    return {
        "setup": setup,
        "per_node_ops": per_node_ops,
        "per_node_messages": np.array([s.messages_sent for s in stats], dtype=float),
        "per_node_bytes": np.array([s.bytes_sent for s in stats], dtype=float),
        "totals": {
            "messages_sent": engine.network.total.messages_sent,
            "bytes_sent": engine.network.total.bytes_sent,
            "bytes_modelled": engine.network.total.bytes_modelled,
            "crypto": counter.as_dict(),
        },
        "iterations": max(p.iteration for p in participants),
    }


def _per_node_seconds(
    per_node_ops: dict[str, np.ndarray], profile: CryptoCostProfile
) -> np.ndarray:
    """Per-node *online* crypto seconds implied by per-node operation counts.

    Pool-served operations — pooled encryptions and rerandomizations, which
    draw a precomputed blinder and are a single multiplication on the hot
    path — are charged the amortized pooled cost; the blinder
    exponentiations they consumed are offline work
    (:func:`_per_node_offline_seconds`).
    """
    pooled_cost = (
        profile.pooled_encryption_seconds
        if profile.pooled_encryption_seconds > 0
        else profile.encryption_seconds
    )
    weights = {
        "encryptions": profile.encryption_seconds,
        "pooled_encryptions": pooled_cost,
        "rerandomizations": pooled_cost,
        "additions": profile.addition_seconds,
        "partial_decryptions": profile.partial_decryption_seconds,
        "combinations": profile.combination_seconds,
    }
    seconds = np.zeros(next(iter(per_node_ops.values())).shape[0])
    for key, weight in weights.items():
        if key in per_node_ops:
            seconds += per_node_ops[key] * weight
    return seconds


def _per_node_offline_seconds(
    per_node_ops: dict[str, np.ndarray], profile: CryptoCostProfile
) -> np.ndarray:
    """Per-node *offline* (precomputed blinder) seconds for operation counts."""
    shape = next(iter(per_node_ops.values())).shape[0]
    if profile.pooled_encryption_seconds <= 0:
        return np.zeros(shape)
    served = np.zeros(shape)
    for key in ("pooled_encryptions", "rerandomizations"):
        if key in per_node_ops:
            served = served + per_node_ops[key]
    return served * profile.blinder_seconds


def _workload_extrapolation(
    workload: ProtocolWorkload,
    config: ChiaroscuroConfig,
    population: int,
    profile: CryptoCostProfile | None,
) -> ExtrapolatedCost:
    iterations = workload.iterations
    ciphertext_bytes = (
        profile.ciphertext_bytes
        if profile is not None
        else (config.crypto.key_bits // 8) * (config.crypto.degree + 1)
    )
    totals: dict[str, tuple[float, float, float]] = {}

    def exact(key: str, per_node: float) -> None:
        value = float(per_node) * population
        totals[key] = (value, value, value)

    exact("encryptions", workload.encryptions_per_iteration * iterations)
    exact("homomorphic_additions", workload.additions_per_iteration * iterations)
    exact("partial_decryptions", workload.partial_decryptions_per_iteration * iterations)
    exact("combinations", workload.combinations_per_iteration * iterations)
    exact("messages_sent", workload.messages_per_iteration * iterations)
    exact("bytes_sent", workload.wire_bytes_per_iteration(ciphertext_bytes) * iterations)
    if profile is not None:
        estimate = CostModel(profile).estimate(workload)
        offline = 0.0
        if workload.amortized_encryptions and profile.pooled_encryption_seconds > 0:
            # Each amortized encryption consumed one blinder exponentiation
            # precomputed off the hot path.
            offline = (
                workload.encryptions_per_iteration
                * iterations
                * profile.blinder_seconds
            )
        exact("online_seconds", estimate.total_compute_seconds)
        exact("offline_seconds", offline)
        exact("crypto_seconds", estimate.total_compute_seconds + offline)
    return ExtrapolatedCost(
        population=population,
        sample_size=0,
        method="modelled",
        totals=totals,
    )


def _bulk_noise_free_means(
    data: np.ndarray,
    assigned: np.ndarray,
    reference: np.ndarray,
) -> np.ndarray:
    """Exact per-cluster means of the current assignment (analysis only).

    Accumulated over the canonical block partition (bounded temporaries at
    any population; bitwise-equal to the dense per-cluster means for
    single-block float64 populations).
    """
    means = reference.copy()
    sums, counts = blockwise_cluster_sums(data, assigned, reference.shape[0])
    for cluster in range(reference.shape[0]):
        if counts[cluster] > 0:
            means[cluster] = sums[cluster] / counts[cluster]
    return means


def run_slab_chiaroscuro(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig | None = None,
    normalize: bool = True,
    n_tracked_participants: int = 4,
    max_extra_cycles: int = 50,
) -> ChiaroscuroResult:
    """Run Chiaroscuro with the slab population engine (see module docstring)."""
    config = config if config is not None else ChiaroscuroConfig()
    profile = load_reference_profile(config)
    if config.runtime.crypto_sample_fraction >= 1.0:
        return _run_full_measured(
            collection, config, profile,
            normalize=normalize,
            n_tracked_participants=n_tracked_participants,
            max_extra_cycles=max_extra_cycles,
        )
    return _run_sampled(
        collection, config, profile,
        normalize=normalize,
        n_tracked_participants=n_tracked_participants,
        max_extra_cycles=max_extra_cycles,
    )


def _run_full_measured(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    profile: CryptoCostProfile | None,
    normalize: bool,
    n_tracked_participants: int,
    max_extra_cycles: int,
) -> ChiaroscuroResult:
    """Sampling fraction 1.0: delegate to the object engine (bit-identical)
    and attach the measured population-cost block."""
    from .runner import run_chiaroscuro

    object_config = config.with_overrides(runtime={"engine": "object"})
    result = run_chiaroscuro(
        collection,
        object_config,
        normalize=normalize,
        n_tracked_participants=n_tracked_participants,
        max_extra_cycles=max_extra_cycles,
    )
    costs = result.costs
    measured = {
        "encryptions": float(costs.encryptions),
        "homomorphic_additions": float(costs.homomorphic_additions),
        "partial_decryptions": float(costs.partial_decryptions),
        "combinations": float(costs.combinations),
        "messages_sent": float(costs.messages_sent),
        "bytes_sent": float(costs.bytes_sent),
    }
    if profile is not None:
        # assemble_result attaches the phase split from the full operation
        # counter (pooled encryptions and rerandomizations included); fall
        # back to the four summary counts when it could not.
        online = costs.online_seconds
        offline = costs.offline_seconds if costs.offline_seconds is not None else 0.0
        if online is None:
            online = profile.seconds_for_counts(
                {
                    "encryptions": costs.encryptions,
                    "additions": costs.homomorphic_additions,
                    "partial_decryptions": costs.partial_decryptions,
                    "combinations": costs.combinations,
                }
            )
            offline = 0.0
        measured["online_seconds"] = float(online)
        measured["offline_seconds"] = float(offline)
        measured["crypto_seconds"] = float(online) + float(offline)
    extrapolated = ExtrapolatedCost(
        population=costs.n_participants,
        sample_size=costs.n_participants,
        method="measured",
        totals={key: (value, value, value) for key, value in measured.items()},
    )
    result.costs = replace(costs, extrapolated=extrapolated.as_dict())
    result.metadata["engine"] = {
        "name": "slab",
        "crypto_sample_fraction": 1.0,
        "slab_shards": config.runtime.slab_shards,
        "slab_dtype": config.runtime.slab_dtype,
        "slab_backing": config.runtime.slab_backing,
        "slab_chunk_rows": config.runtime.slab_chunk_rows,
        "population": costs.n_participants,
        "sample_size": costs.n_participants,
        "cost_profile": profile.as_dict() if profile is not None else None,
    }
    return result


def _run_sampled(
    collection: TimeSeriesCollection,
    config: ChiaroscuroConfig,
    profile: CryptoCostProfile | None,
    normalize: bool,
    n_tracked_participants: int,
    max_extra_cycles: int,
) -> ChiaroscuroResult:
    """Sampling fraction below 1: vectorised bulk path + sampled crypto."""
    from .runner import normalize_collection

    population = len(collection)
    value_bound = config.privacy.value_bound
    if normalize:
        data, transform = normalize_collection(collection, value_bound)
    else:
        data = np.clip(collection.to_matrix(), 0.0, value_bound)
        transform = {"offset": 0.0, "scale": 1.0, "value_bound": value_bound}
    n, series_length = data.shape
    k = config.kmeans.n_clusters

    registry = RngRegistry(config.simulation.seed)
    churn_rng = registry.stream("slab.churn")
    pairing_rng = registry.stream("slab.pairing")
    noise_rng = registry.stream("slab.noise")
    sampling_rng = registry.stream("slab.sampling")

    centroids = public_initial_centroids(
        k, series_length, value_low=0.0, value_high=value_bound,
        seed=config.simulation.seed,
    )
    initial_centroids = centroids.copy()
    termination = TerminationCriteria(
        convergence_threshold=config.kmeans.convergence_threshold,
        max_iterations=config.kmeans.max_iterations,
        track_quality=config.kmeans.track_quality,
        quality_patience=config.kmeans.quality_patience,
    )
    strategy = make_budget_strategy(
        config.privacy.budget_strategy,
        config.privacy.epsilon,
        config.kmeans.max_iterations,
        geometric_ratio=config.privacy.geometric_ratio,
    )
    accountant = PrivacyAccountant(config.privacy.epsilon)
    sensitivity = SensitivityModel(
        series_length=series_length,
        value_bound=config.privacy.value_bound,
        count_bound=config.privacy.count_bound,
    )
    n_noise = min(config.privacy.noise_shares, n)
    contributors = np.sort(
        noise_rng.choice(n, size=n_noise, replace=False).astype(np.int64)
    )
    tracked_ids = sorted(
        int(i)
        for i in sampling_rng.choice(
            n, size=min(n_tracked_participants, n), replace=False
        )
    )

    width = k * (series_length + 1)
    coordinator = ShardCoordinator(
        n,
        width,
        shards=config.runtime.slab_shards,
        dtype=config.runtime.slab_dtype,
        backing=config.runtime.slab_backing,
        chunk_rows=config.runtime.slab_chunk_rows,
        data=data,
    )
    slabs = PopulationSlabs.allocate(
        data,
        k,
        estimates=coordinator.estimates,
        online=coordinator.online,
        assigned=coordinator.assigned,
    )
    # Modelled wire payload of one gossip message: the protocol ships float64
    # estimate vectors regardless of the engine-internal slab dtype.
    row_bytes = width * 8
    drop_probability = config.gossip.drop_probability
    corruption_rate = config.network.corruption_rate
    faults_enabled = drop_probability > 0.0 or corruption_rate > 0.0
    loss_rng = registry.stream("slab.loss")
    corruption_rng = registry.stream("slab.corruption")

    log = ExecutionLog(
        metadata={
            "dataset": collection.name,
            "n_participants": n,
            "series_length": series_length,
            "config": config.describe(),
            "normalization": transform,
            "tracked_participants": tracked_ids,
            "engine": "slab",
        }
    )
    min_count = 1.0 / (2.0 * max(1, n))
    progress: float | None = None
    stop_reason = "max_iterations"
    iteration = 0
    bulk_messages = 0
    bulk_bytes = 0
    bulk_dropped = 0
    bulk_corrupted = 0
    timer = PhaseTimer()
    wall_begin = time.perf_counter()
    try:
        while True:
            timer.start_iteration()
            with timer.phase("analysis"):
                epsilon = strategy.epsilon_for_iteration(
                    iteration, accountant.remaining_epsilon, progress
                )
                budget_stop = epsilon <= 0.0 or not accountant.can_spend(epsilon)
            if budget_stop:
                stop_reason = "budget_exhausted"
                break
            iteration += 1
            accountant.spend(epsilon, label=f"iteration-{iteration}")
            with timer.phase("assignment"):
                previous_assigned = (
                    slabs.assigned.copy() if iteration > 1 else None
                )
                coordinator.assign(centroids)
                # Reference-free convergence signal: the fraction of nodes
                # whose cluster label survived from the previous iteration.
                # It is a byproduct of the assignment pass (one vector
                # compare over the slab), and unlike displacement it reads
                # directly in label space — a flat 1.0 tail is the slab
                # run's convergence curve.
                label_agreement = (
                    float(np.mean(slabs.assigned == previous_assigned))
                    if previous_assigned is not None else 1.0
                )
            with timer.phase("scatter"):
                coordinator.scatter()
            with timer.phase("noise"):
                spec = NoiseShareSpec(
                    scale=sensitivity.laplace_scale(epsilon),
                    n_shares=n_noise,
                    vector_length=series_length + 1,
                )
                for node in contributors:
                    for cluster in range(k):
                        start = cluster * (series_length + 1)
                        slabs.estimates[node, start:start + series_length + 1] += (
                            draw_noise_share(spec, noise_rng)
                        )
            messages_before = bulk_messages
            bytes_before = bulk_bytes
            dropped_before = bulk_dropped
            corrupted_before = bulk_corrupted
            for _cycle in range(config.gossip.cycles_per_aggregation):
                with timer.phase("churn"):
                    slab_churn_step(
                        slabs.online,
                        config.simulation.churn_rate,
                        config.simulation.rejoin_rate,
                        churn_rng,
                        rng_draws=slabs.rng_draws,
                    )
                for _exchange in range(config.gossip.exchanges_per_cycle):
                    with timer.phase("pairing"):
                        pairs = pair_online(
                            slabs.online, pairing_rng, rng_draws=slabs.rng_draws
                        )
                        slabs.last_pairing = pairs
                        plan = (
                            plan_pair_faults(
                                pairs,
                                frame_bits=row_bytes * 8,
                                drop_probability=drop_probability,
                                corruption_rate=corruption_rate,
                                loss_rng=loss_rng,
                                corruption_rng=corruption_rng,
                            )
                            if faults_enabled
                            else None
                        )
                    with timer.phase("averaging"):
                        if plan is None:
                            coordinator.average_pairs(pairs)
                            bulk_messages += 2 * int(pairs.shape[0])
                            bulk_bytes += 2 * int(pairs.shape[0]) * row_bytes
                        else:
                            coordinator.average_pairs(plan.full_pairs)
                            coordinator.half_average_pairs(plan.half_pairs)
                            bulk_messages += plan.messages_sent
                            bulk_bytes += plan.messages_sent * row_bytes
                            bulk_dropped += plan.dropped_frames
                            bulk_corrupted += plan.corrupted_frames
            with timer.phase("means"):
                mean_vector, online_count = coordinator.online_mean()
                if online_count == 0:
                    raise ProtocolError("every node went offline during gossip")
                values = mean_vector.reshape(k, series_length + 1)
                sums = values[:, :series_length]
                counts = values[:, series_length]
                perturbed = centroids.copy()
                populated = counts > min_count
                perturbed[populated] = sums[populated] / counts[populated][:, None]
                perturbed = np.clip(perturbed, 0.0, value_bound)
                donor = int(np.argmax(counts))
                for cluster in range(k):
                    if cluster != donor and counts[cluster] <= min_count:
                        perturbed[cluster] = reseed_centroid(
                            perturbed[donor], value_bound, iteration, cluster,
                            seed=config.simulation.seed,
                        )
                perturbed = smooth_centroids(perturbed, config.smoothing)
                displacement = centroid_displacement(centroids, perturbed)
            with timer.phase("analysis"):
                noise_free_means = _bulk_noise_free_means(
                    data, slabs.assigned, perturbed
                )
            iteration_costs = {
                "messages_sent": float(bulk_messages - messages_before),
                "bytes_sent": float(bulk_bytes - bytes_before),
                "label_agreement": label_agreement,
            }
            if faults_enabled:
                iteration_costs["dropped_frames"] = float(
                    bulk_dropped - dropped_before
                )
                iteration_costs["corrupted_frames"] = float(
                    bulk_corrupted - corrupted_before
                )
            iteration_costs.update(timer.iteration_costs())
            log.append(
                IterationRecord(
                    iteration=iteration,
                    epsilon_spent=epsilon,
                    centroids_before=centroids.copy(),
                    perturbed_means=perturbed.copy(),
                    noise_free_means=noise_free_means,
                    displacement=displacement,
                    tracked_assignments={
                        node_id: int(slabs.assigned[node_id])
                        for node_id in tracked_ids
                    },
                    costs=iteration_costs,
                )
            )
            centroids = perturbed
            progress = float(
                np.clip(1.0 - displacement / max(value_bound, 1e-12), 0.0, 1.0)
            )
            stop, reason = termination.should_stop(iteration, displacement)
            if stop:
                stop_reason = reason
                break
    finally:
        # Drop the slab views into the coordinator's shared mappings before
        # it unlinks them (everything after the loop recomputes from data).
        slabs.estimates = np.empty((0, 0), dtype=np.float64)
        slabs.online = np.empty(0, dtype=bool)
        slabs.assigned = np.empty(0, dtype=np.int32)
        coordinator.close()

    # ---------------------------------------------------------------- sample
    with timer.phase("sample"):
        sample_size = _sample_size(config, population)
        sample_ids = np.empty(0, dtype=np.int64)
        sample: dict[str, Any] | None = None
        if sample_size > 0:
            sample_ids = _stratified_sample(
                data, initial_centroids, sample_size, sampling_rng
            )
            sample = _run_crypto_sample(
                collection, config, sample_ids, normalize, max_extra_cycles
            )
        iterations = max(1, iteration)
        if sample is not None:
            factor = iterations / max(1, sample["iterations"])
            ops = sample["per_node_ops"]
            metrics: dict[str, np.ndarray] = {
                "encryptions": ops.get("encryptions", np.zeros(sample_size)) * factor,
                "homomorphic_additions": (
                    ops.get("additions", np.zeros(sample_size)) * factor
                ),
                "partial_decryptions": (
                    ops.get("partial_decryptions", np.zeros(sample_size)) * factor
                ),
                "combinations": ops.get("combinations", np.zeros(sample_size)) * factor,
                "messages_sent": sample["per_node_messages"] * factor,
                "bytes_sent": sample["per_node_bytes"] * factor,
            }
            if profile is not None:
                online = _per_node_seconds(ops, profile) * factor
                offline = _per_node_offline_seconds(ops, profile) * factor
                metrics["online_seconds"] = online
                metrics["offline_seconds"] = offline
                metrics["crypto_seconds"] = online + offline
            extrapolated = bootstrap_extrapolate(
                metrics,
                population=population,
                n_boot=200,
                confidence=0.95,
                seed=config.simulation.seed,
            )
        else:
            workload = ProtocolWorkload(
                n_clusters=k,
                series_length=series_length,
                iterations=iterations,
                gossip_cycles=config.gossip.cycles_per_aggregation,
                exchanges_per_cycle=config.gossip.exchanges_per_cycle,
                threshold=config.crypto.threshold,
            )
            extrapolated = _workload_extrapolation(
                workload, config, population, profile
            )
    slab_wall_seconds = time.perf_counter() - wall_begin

    # ---------------------------------------------------------------- result
    assignments = blockwise_assign(data, centroids)
    inertia = blockwise_inertia(data, centroids, assignments)
    epsilon_spent = accountant.spent_epsilon
    guarantee = guarantee_for_run(
        epsilon=max(epsilon_spent, 1e-12),
        cycles=config.gossip.cycles_per_aggregation,
        n_participants=population,
    )
    sample_totals = (
        sample["totals"]
        if sample is not None
        else {
            "messages_sent": 0, "bytes_sent": 0, "bytes_modelled": 0,
            "crypto": {},
        }
    )
    crypto = sample_totals["crypto"]
    costs = CostSummary(
        n_participants=population,
        n_iterations=iterations,
        messages_sent=int(sample_totals["messages_sent"]),
        bytes_sent=int(sample_totals["bytes_sent"]),
        encryptions=int(crypto.get("encryptions", 0)),
        homomorphic_additions=int(crypto.get("additions", 0)),
        partial_decryptions=int(crypto.get("partial_decryptions", 0)),
        combinations=int(crypto.get("combinations", 0)),
        bytes_sent_modelled=int(sample_totals["bytes_modelled"]),
        wire=(
            sample["setup"].wire_info()["mode"] if sample is not None else "off"
        ),
        iteration_costs=tuple(
            {str(key): float(value) for key, value in record.costs.items()}
            for record in log
        ),
        extrapolated=extrapolated.as_dict(),
        phase_seconds={
            name: float(seconds) for name, seconds in timer.totals.items()
        },
    )
    per_participant_profiles = {node_id: centroids.copy() for node_id in tracked_ids}
    metadata: dict[str, Any] = {
        "normalization": transform,
        "tracked_participants": tracked_ids,
        "dataset": collection.name,
        "packing": (
            sample["setup"].packing_info()
            if sample is not None
            else {"enabled": False, "slots": 1, "slot_bits": 0}
        ),
        "fastmath": (
            sample["setup"].fastmath_info()
            if sample is not None
            else {"mode": "off", "pooled": False, "bigint": "python"}
        ),
        "wire": (
            sample["setup"].wire_info()
            if sample is not None
            else {"mode": "off", "corruption_rate": 0.0}
        ),
        "engine": {
            "name": "slab",
            "crypto_sample_fraction": config.runtime.crypto_sample_fraction,
            "slab_shards": config.runtime.slab_shards,
            "slab_dtype": config.runtime.slab_dtype,
            "slab_backing": config.runtime.slab_backing,
            "slab_chunk_rows": config.runtime.slab_chunk_rows,
            "slab_wall_seconds": float(slab_wall_seconds),
            "population": population,
            "sample_size": int(sample_ids.shape[0]),
            "sample_iterations": sample["iterations"] if sample is not None else 0,
            "bulk_messages_modelled": bulk_messages,
            "bulk_bytes_modelled": bulk_bytes,
            "bulk_dropped_frames": bulk_dropped,
            "bulk_corrupted_frames": bulk_corrupted,
            "cost_profile": profile.as_dict() if profile is not None else None,
        },
    }
    return ChiaroscuroResult(
        profiles=centroids,
        assignments=assignments,
        per_participant_profiles=per_participant_profiles,
        inertia=inertia,
        n_iterations=iterations,
        converged=stop_reason in ("converged", "synchronized"),
        stop_reasons={stop_reason: population},
        epsilon_spent=epsilon_spent,
        guarantee=guarantee,
        costs=costs,
        log=log,
        metadata=metadata,
    )
