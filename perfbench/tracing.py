"""Outside-in layer trace: spans recorded around calls into each layer.

The benchmark never edits the program.  Instead, for one traced run, it
replaces the public functions and methods listed in :data:`TARGETS` by thin
wrappers that record a span (metric key, start, end, parent span) in memory
and update a few counters.  Every name a caller binds is patched: a
function imported by name into another module (``from .collaborative import
collaborative_decrypt_many``) is replaced in that module too, and lazily
imported names (``from .messages import deserialize`` inside a function)
pick up the patched module attribute at call time.  :meth:`Tracer.uninstall`
puts every original back.

A span's self time is its duration minus the durations of its direct
children.  Self times of all spans plus the remainder of the enclosing
``run`` span partition the run's wall time exactly.
"""

from __future__ import annotations

import importlib
import json
import resource
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Spans of one traced run: (metric key, start, end, parent index or -1).
Span = tuple[str, float, float, int]


@dataclass(frozen=True)
class Target:
    """One patched callable: ``owner.attr`` (a module or a class)."""

    module: str
    attr: str
    key: str                      # "<layer>.<metric>"
    cls: str | None = None        # patch a method of this class instead
    before: Callable[..., Any] | None = None
    after: Callable[..., None] | None = None


def _ciphertexts(counters, args, result, _state) -> None:
    counters["ciphertexts"] = counters.get("ciphertexts", 0) + len(result.payload)


def _pool_before(args) -> int:
    return len(args[0])


def _pool_after(counters, args, _result, size_before) -> None:
    pool = args[0]
    if size_before == 0:
        counters["inline_refills"] = counters.get("inline_refills", 0) + 1
    counters.setdefault("generated_by_pool", {})[id(pool)] = pool.generated


def _frame_bytes(counters, _args, result, _state) -> None:
    counters["bytes"] = counters.get("bytes", 0) + len(result)


def _minflt(_args=None) -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _pairs_after(rows_touched: int):
    def after(counters, args, _result, minflt_before) -> None:
        coordinator, pairs = args[0], args[1]
        n_pairs = int(pairs.shape[0])
        row_bytes = coordinator.n_cols * coordinator.dtype.itemsize
        counters["pairs"] = counters.get("pairs", 0) + n_pairs
        counters["bytes_computed"] = (
            counters.get("bytes_computed", 0) + n_pairs * rows_touched * row_bytes
        )
        counters["minflt"] = counters.get("minflt", 0) + _minflt() - minflt_before
    return after


_BACKENDS = "repro.crypto.backends"
_SLAB = "repro.simulation.slab"

#: Every layer boundary the trace records, outside in.
TARGETS: tuple[Target, ...] = (
    # core: protocol set-up, participant steps, decryption rounds, assembly
    Target("repro.core.runner", "build_run_setup", "core.setup"),
    Target("repro.core.participant", "next_cycle", "core.node_step",
           cls="ChiaroscuroParticipant"),
    Target("repro.core.collaborative", "collaborative_decrypt", "core.decrypt_round"),
    Target("repro.core.collaborative", "collaborative_decrypt_many", "core.decrypt_round"),
    Target("repro.core.runner", "assemble_result", "core.assemble"),
    # sim / net.transport: cycle engine and loopback delivery
    Target("repro.simulation.engine", "run_cycle", "sim.cycle", cls="CycleEngine"),
    Target("repro.net.transport", "transmit", "sim.transmit", cls="LoopbackTransport"),
    Target("repro.net.transport", "send", "sim.transmit", cls="LoopbackTransport"),
    Target("repro.simulation.node", "receive", "sim.receive", cls="Node"),
    # net.live: the socket runner's coordinator side
    Target("repro.net.live", "run", "live.runner", cls="LiveRunner"),
    # codec: gossip.messages frames over crypto.wire
    Target("repro.gossip.messages", "serialize", "codec.encode", cls="WireMessage",
           after=_frame_bytes),
    Target("repro.gossip.messages", "deserialize", "codec.decode"),
    # crypto: backend primitives and the blinder pool
    Target(_BACKENDS, "encrypt_vector", "crypto.encrypt", cls="CipherBackend",
           after=_ciphertexts),
    Target(_BACKENDS, "encrypt_integer_vector", "crypto.encrypt", cls="CipherBackend",
           after=_ciphertexts),
    Target(_BACKENDS, "encrypt_zero_vector", "crypto.encrypt", cls="CipherBackend",
           after=_ciphertexts),
    Target(_BACKENDS, "rerandomize", "crypto.rerandomize", cls="CipherBackend",
           after=_ciphertexts),
    Target(_BACKENDS, "add", "crypto.lincomb", cls="CipherBackend"),
    Target(_BACKENDS, "multiply_scalar", "crypto.lincomb", cls="CipherBackend"),
    Target(_BACKENDS, "linear_combination", "crypto.lincomb", cls="CipherBackend"),
    Target(_BACKENDS, "partial_decrypt_vector", "crypto.partial_decrypt",
           cls="CipherBackend"),
    Target(_BACKENDS, "combine_vector", "crypto.combine", cls="CipherBackend"),
    Target("repro.crypto.fastmath", "take", "crypto.pool_take", cls="BlinderPool",
           before=_pool_before, after=_pool_after),
    # slab: the population engine's bulk phases
    Target(_SLAB, "assign", "slab.assign", cls="ShardCoordinator"),
    Target(_SLAB, "scatter", "slab.scatter", cls="ShardCoordinator"),
    Target(_SLAB, "average_pairs", "slab.average", cls="ShardCoordinator",
           before=_minflt, after=_pairs_after(4)),
    Target(_SLAB, "half_average_pairs", "slab.average", cls="ShardCoordinator",
           before=_minflt, after=_pairs_after(3)),
    Target(_SLAB, "online_mean", "slab.mean", cls="ShardCoordinator"),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self, targets: tuple[Target, ...] = TARGETS) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self.calls: dict[str, int] = {}
        self.counters: dict[str, dict[str, Any]] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ recording
    def _wrap(self, target: Target, original: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, calls = self.spans, self._stack, self.calls
        counters = self.counters.setdefault(target.key, {})
        key, before, after = target.key, target.before, target.after
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent < 0 or spans[parent][0] != key:
                calls[key] = calls.get(key, 0) + 1
            state = before(args) if before is not None else None
            index = len(spans)
            spans.append((key, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (key, start, end, parent)
            if after is not None:
                after(counters, args, result, state)
            return result

        traced.__wrapped__ = original
        return traced

    @contextmanager
    def span(self, key: str) -> Iterator[None]:
        """Record one span around the body of a ``with`` block."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append((key, 0.0, 0.0, parent))
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index] = (key, start, time.perf_counter(), parent)

    # ------------------------------------------------------------------ patching
    def install(self) -> None:
        for target in self.targets:
            importlib.import_module(target.module)
        modules = [module for name, module in list(sys.modules.items())
                   if name == "repro" or name.startswith("repro.")]
        for target in self.targets:
            module = sys.modules[target.module]
            if target.cls is not None:
                owner = getattr(module, target.cls)
                original = owner.__dict__[target.attr]
                self._patch(owner, target.attr, self._wrap(target, original))
                continue
            original = getattr(module, target.attr)
            wrapper = self._wrap(target, original)
            for candidate in modules:
                for attr, value in list(vars(candidate).items()):
                    if value is original:
                        self._patch(candidate, attr, wrapper)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ results
    def self_times(self, exclude_under: str | None = None) -> dict[str, float]:
        """Self time per metric key, optionally dropping one key's subtree."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for key, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        excluded = [False] * len(spans)
        totals: dict[str, float] = {}
        for index, (key, start, end, parent) in enumerate(spans):
            excluded[index] = key == exclude_under or (parent >= 0 and excluded[parent])
            if excluded[index]:
                continue
            totals[key] = totals.get(key, 0.0) + (end - start) - child_time[index]
        return totals

    def durations(self, key: str) -> list[float]:
        return [end - start for k, start, end, _ in self.spans if k == key]

    def write_chrome_trace(self, path: str, origin: float) -> None:
        """Write the spans as Chrome trace-event JSON (Perfetto opens it)."""
        events = [
            {"name": key.split(".", 1)[1] if "." in key else key,
             "cat": key.split(".", 1)[0], "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"id": index, "parent": parent}}
            for index, (key, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)
