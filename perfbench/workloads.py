"""The benchmark's workloads: inputs generated from a seed, plus their checks.

Each workload is one way Chiaroscuro runs through the public entry point
``repro.core.runner.run_chiaroscuro``.  The program only ever receives the
generated collection and configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.config import ChiaroscuroConfig
from repro.datasets import load_dataset_for_population
from repro.timeseries import TimeSeriesCollection


#: Largest accepted result inertia over converged centralized k-means
#: inertia, on every workload: a coarse bound, since Laplace noise dominates
#: the result at these population sizes (see perfbench/README.md, Quality).
INERTIA_TOLERANCE = 100.0


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    participants: int
    clusters: int
    iterations: int
    cycles: int
    epsilon: float
    #: Extra config sections (crypto, runtime) on top of the shared ones.
    overrides: dict[str, dict[str, Any]] = field(default_factory=dict)
    dataset_options: dict[str, Any] = field(default_factory=dict)
    #: Message and byte counts and the result inertia repeat exactly across
    #: runs of one seed.
    deterministic: bool = True
    #: The traced call counts must equal the run's own counters: every
    #: encryption and message passes through this process's object engine.
    counters_checked: bool = True
    #: The result must have less inertia than the public initial centroids it
    #: started from: holds where the population drowns the noise.
    beats_start: bool = False

    def inputs(self, seed: int) -> tuple[TimeSeriesCollection, ChiaroscuroConfig]:
        collection = load_dataset_for_population(
            self.dataset, self.participants, seed=seed, **self.dataset_options
        )
        sections: dict[str, dict[str, Any]] = {
            "kmeans": {"n_clusters": self.clusters, "max_iterations": self.iterations},
            "privacy": {"epsilon": self.epsilon,
                        "noise_shares": min(32, self.participants)},
            "gossip": {"cycles_per_aggregation": self.cycles},
            "simulation": {"n_participants": self.participants, "seed": seed},
        }
        for section, values in self.overrides.items():
            sections.setdefault(section, {}).update(values)
        return collection, ChiaroscuroConfig().with_overrides(**sections)


_PLAIN = dict(dataset="cer", participants=40, clusters=4, iterations=3, cycles=6,
              epsilon=2.0)

WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="dj_object", dataset="cer", participants=12, clusters=2,
            iterations=1, cycles=4, epsilon=2.0,
            overrides={"crypto": {"backend": "damgard_jurik", "key_bits": 256,
                                  "threshold": 3, "n_key_shares": 6}},
        ),
        Workload(name="plain_object", **_PLAIN),
        Workload(
            name="plain_live", **_PLAIN,
            overrides={"runtime": {"mode": "live", "stepping": "concurrent",
                                   "processes": 2, "envelope": "off"}},
            deterministic=False, counters_checked=False,
        ),
        Workload(
            name="slab_bulk", dataset="gaussian", participants=100_000, clusters=4,
            iterations=3, cycles=6, epsilon=2.0,
            dataset_options={"n_clusters": 4, "matrix_backed": True},
            overrides={"runtime": {"engine": "slab", "slab_shards": 1,
                                   "slab_dtype": "float64", "slab_backing": "memory",
                                   "crypto_sample_fraction": 0.0}},
            counters_checked=False, beats_start=True,
        ),
    )
}
