"""GPU-resident expert pool: residency, placement, prefetch, eviction.

The pool is the mechanism layer shared by every offloading policy.  It
tracks which experts' weights are resident (or in flight) on which GPU,
enforces the expert-cache byte budget, and charges all copies to per-GPU
PCIe channels.  *What* to prefetch and *whom* to evict are policy
decisions: the pool consults an eviction oracle (the policy) whenever it
must make room.

Expert placement follows the paper's implementation (§5): experts are
assigned to GPUs with a round-robin hash so loads spread evenly across
links, and the cache budget is split evenly per device.  In-flight
transfer arrival times are read live from the channel's task objects, so
an on-demand load that pauses queued prefetches automatically delays their
visibility.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Protocol, Sequence

from repro.errors import (
    CapacityError,
    ConfigError,
    DeviceLostError,
    TransferError,
)
from repro.moe.config import MoEModelConfig
from repro.serving.events import EngineObserver, EventKind
from repro.serving.faults import FaultSchedule, RetryPolicy
from repro.serving.hardware import HardwareConfig
from repro.serving.memory import TransferChannel, TransferTask
from repro.types import ExpertId

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.engine import ServingEngine


class EvictionOracle(Protocol):
    """Scores eviction candidates; higher scores are evicted first.

    An oracle may additionally expose the dense form

        ``eviction_score_matrix(now: float) -> np.ndarray | None``

    returning every expert's score indexed by flat ``layer *
    experts_per_layer + expert`` (or None to decline).  The columnar pool
    uses it to pick a single victim without one scoring call per
    candidate; oracles without it (third-party scalar policies), and
    multi-victim evictions, use the per-candidate
    :meth:`eviction_priority` sort.
    """

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        """Score an eviction candidate; higher is evicted first."""
        ...


class _EvictNothing:
    """Fallback oracle that refuses to evict (used before policy attach)."""

    def eviction_priority(self, expert: ExpertId, now: float) -> float:
        raise CapacityError(
            "pool must evict but no eviction oracle is attached"
        )


@dataclass
class _Device:
    index: int
    budget_bytes: int
    channel: TransferChannel
    used_bytes: int = 0
    resident: set[ExpertId] = field(default_factory=set)
    failed: bool = False

    def free_bytes(self) -> int:
        return self.budget_bytes - self.used_bytes


@dataclass
class PoolStats:
    """Counters for reporting and tests."""

    prefetch_issued: int = 0
    prefetch_rejected: int = 0
    prefetch_cancelled: int = 0
    prefetch_failed: int = 0
    ondemand_loads: int = 0
    evictions: int = 0
    failovers: int = 0
    devices_lost: int = 0


#: Supported expert-to-GPU placement strategies.
PLACEMENT_STRATEGIES = ("round-robin", "layer-sharded", "hashed")

#: Sentinel distinguishing "untracked" from a preloaded (None) task.
_ABSENT = object()


class ExpertPool:
    """Residency manager for all offloadable experts of one model."""

    def __init__(
        self,
        model: MoEModelConfig,
        hardware: HardwareConfig,
        cache_budget_bytes: int,
        placement: str = "round-robin",
        faults: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
        columnar: bool = True,
    ) -> None:
        if cache_budget_bytes <= 0:
            raise ConfigError("cache budget must be > 0")
        if placement not in PLACEMENT_STRATEGIES:
            raise ConfigError(
                f"placement must be one of {PLACEMENT_STRATEGIES}"
            )
        self.placement = placement
        per_device = cache_budget_bytes // hardware.num_gpus
        if per_device < model.expert_bytes:
            raise ConfigError(
                "per-GPU expert cache budget smaller than one expert "
                f"({per_device} < {model.expert_bytes} bytes)"
            )
        self.model = model
        self._expert_bytes = model.expert_bytes
        self.hardware = hardware
        self.cache_budget_bytes = cache_budget_bytes
        self.devices = [
            _Device(
                index=i,
                budget_bytes=per_device,
                channel=TransferChannel(
                    hardware.pcie_bandwidth_bps,
                    device_index=i,
                    faults=faults,
                    retry_policy=retry_policy,
                ),
            )
            for i in range(hardware.num_gpus)
        ]
        # Tracked experts: value is the transfer task (live arrival time)
        # or None for experts placed without a copy (preload).
        self._tasks: dict[ExpertId, TransferTask | None] = {}
        # Actual residence (device index) of every tracked expert.  The
        # placement function alone cannot recover it once a device has
        # failed and later loads were re-homed onto survivors.
        self._home: dict[ExpertId, int] = {}
        self.columnar = columnar
        """When False, eviction scoring ignores any dense score matrix the
        oracle exposes and calls ``eviction_priority`` once per candidate —
        the scalar reference interpreter the parity suite compares
        against."""
        self._oracle: EvictionOracle = _EvictNothing()
        self.protected: set[ExpertId] = set()
        self.stats = PoolStats()
        self.faults = faults
        self.engine: ServingEngine | None = None
        """The engine whose subscribers hear this pool's evictions and
        transfers (None for a bare pool)."""

    @property
    def _observers(self) -> tuple[EngineObserver, ...]:
        return self.engine.observers if self.engine is not None else ()

    # ------------------------------------------------------------------ #
    # Placement / residency queries
    # ------------------------------------------------------------------ #

    def set_eviction_oracle(self, oracle: EvictionOracle) -> None:
        """Install the policy that scores eviction candidates."""
        self._oracle = oracle

    def _primary_index(self, expert: ExpertId) -> int:
        """Placement-strategy device index over the full (healthy) fleet."""
        n = len(self.devices)
        if self.placement == "round-robin":
            flat = expert.layer * self.model.experts_per_layer + expert.expert
            return flat % n
        if self.placement == "layer-sharded":
            return expert.layer % n
        # Deterministic scatter (multiplicative hashing).
        flat = expert.layer * self.model.experts_per_layer + expert.expert
        return (flat * 2654435761) % 2**32 % n

    def device_of(self, expert: ExpertId) -> _Device:
        """Stable expert-to-GPU assignment under the chosen strategy.

        ``round-robin`` (the paper's §5 scheme) interleaves experts across
        GPUs so one layer's loads spread over all links; ``layer-sharded``
        pins whole layers to a GPU (simple, but a layer's transfers
        serialize on one link); ``hashed`` scatters pseudo-randomly.

        When the primary device has failed, the expert is re-homed
        deterministically among the survivors (round-robin over the alive
        list), so placement stays a pure function of the failure history.
        """
        primary = self.devices[self._primary_index(expert)]
        if not primary.failed:
            return primary
        alive = [d for d in self.devices if not d.failed]
        if not alive:
            raise DeviceLostError("every GPU has failed")
        flat = expert.layer * self.model.experts_per_layer + expert.expert
        return alive[flat % len(alive)]

    def _home_of(self, expert: ExpertId) -> _Device:
        """The device a tracked expert actually lives on."""
        index = self._home.get(expert)
        if index is None:
            return self.device_of(expert)
        return self.devices[index]

    def is_tracked(self, expert: ExpertId) -> bool:
        """Resident or in flight."""
        return expert in self._tasks

    def arrival_time(self, expert: ExpertId) -> float | None:
        """When the expert is/was usable; None if not tracked."""
        if expert not in self._tasks:
            return None
        task = self._tasks[expert]
        return 0.0 if task is None else task.end

    def is_ready(self, expert: ExpertId, now: float) -> bool:
        """True when the expert's weights are usable at time ``now``."""
        arrival = self.arrival_time(expert)
        return arrival is not None and arrival <= now

    def ready_flags(self, experts: Sequence[ExpertId], now: float) -> list[bool]:
        """Batched :meth:`is_ready`: one bool per expert, in order.

        Reads the same live task objects, so an urgent load that pauses a
        queued prefetch delays its visibility here exactly as it does for
        the scalar query.
        """
        tasks = self._tasks
        flags: list[bool] = []
        append = flags.append
        for expert in experts:
            task = tasks.get(expert, _ABSENT)
            if task is _ABSENT:
                append(False)
            elif task is None:
                append(True)
            else:
                append(task.end <= now)
        return flags

    def used_bytes(self) -> int:
        """Total bytes of resident + in-flight expert reservations."""
        return sum(d.used_bytes for d in self.devices)

    def resident_experts(self) -> set[ExpertId]:
        """All tracked experts (resident or in flight)."""
        return set(self._tasks)

    # ------------------------------------------------------------------ #
    # Mutations
    # ------------------------------------------------------------------ #

    def preload(self, experts: Iterable[ExpertId]) -> None:
        """Place experts as resident at time 0 without charging a channel."""
        for expert in experts:
            if expert in self._tasks:
                continue
            device = self.device_of(expert)
            if device.free_bytes() < self._expert_bytes:
                raise CapacityError(
                    f"preload of {expert} exceeds GPU {device.index} budget"
                )
            device.used_bytes += self._expert_bytes
            device.resident.add(expert)
            self._tasks[expert] = None
            self._home[expert] = device.index

    def preload_fit(self, experts: Iterable[ExpertId]) -> list[ExpertId]:
        """Capacity-safe :meth:`preload`: skip experts whose GPU is full.

        Placement plans size residency sets against the replica's *total*
        expert-slot capacity, but the round-robin expert-to-GPU hash can
        still land more of a set on one device than its share of the
        budget holds.  This variant places what fits and returns the
        experts actually made resident, so a plan pre-warm never raises
        :class:`CapacityError`.
        """
        placed: list[ExpertId] = []
        for expert in experts:
            if expert in self._tasks:
                placed.append(expert)
                continue
            device = self.device_of(expert)
            if device.free_bytes() < self._expert_bytes:
                continue
            device.used_bytes += self._expert_bytes
            device.resident.add(expert)
            self._tasks[expert] = None
            self._home[expert] = device.index
            placed.append(expert)
        return placed

    def prefetch(self, expert: ExpertId, issue_time: float) -> str:
        """Queue a prefetch copy.

        Returns ``"scheduled"`` when a new transfer was queued,
        ``"present"`` when the expert is already resident or in flight,
        ``"rejected"`` when no space could be made, and ``"failed"`` when
        the copy exhausted its transfer retries (fault injection).
        """
        if expert in self._tasks:
            return "present"
        device = self.device_of(expert)
        if not self._make_space(device, self._expert_bytes, issue_time):
            self.stats.prefetch_rejected += 1
            return "rejected"
        try:
            task = device.channel.schedule(
                issue_time, self._expert_bytes, expert
            )
        except TransferError:
            # The link burned its retry budget; the reservation was never
            # taken, so simply report the loss (the policy may try again).
            self.stats.prefetch_failed += 1
            return "failed"
        device.used_bytes += self._expert_bytes
        device.resident.add(expert)
        self._tasks[expert] = task
        self._home[expert] = device.index
        self.stats.prefetch_issued += 1
        for observer in self._observers:
            observer.note_transfer("prefetch", device.index, expert, task)
        return "scheduled"

    def insert_blocking(self, expert: ExpertId, now: float) -> bool:
        """Place an expert as resident at ``now`` without using a channel.

        Models policies whose transfers are charged as synchronous critical-
        path time by the caller (DeepSpeed's serial layer streaming) instead
        of occupying the per-GPU prefetch links.  Returns False when no
        space can be made.
        """
        if expert in self._tasks:
            return True
        device = self.device_of(expert)
        if not self._make_space(
            device, self._expert_bytes, now, urgent=True
        ):
            return False
        device.used_bytes += self._expert_bytes
        device.resident.add(expert)
        self._tasks[expert] = TransferTask(expert=expert, start=now, end=now)
        self._home[expert] = device.index
        return True

    def load_on_demand(self, expert: ExpertId, now: float) -> float:
        """Blocking miss load; returns the time the expert becomes usable."""
        arrival = self.arrival_time(expert)
        if arrival is not None:
            # Already resident or in flight: caller stalls until arrival.
            return max(arrival, now)
        device = self.device_of(expert)
        while not self._make_space(
            device, self._expert_bytes, now, urgent=True
        ):
            # Everything evictable is still on the wire: wait for the
            # earliest unprotected transfer to land, then it is fair game.
            pending = [
                t.end
                for e, t in self._tasks.items()
                if t is not None
                and e in device.resident
                and e not in self.protected
                and t.end > now
            ]
            if not pending:
                raise CapacityError(
                    f"cannot make room for on-demand load of {expert} "
                    f"on GPU {device.index}"
                )
            now = min(pending)
        task = device.channel.load_urgent(
            now, self._expert_bytes, expert
        )
        device.used_bytes += self._expert_bytes
        device.resident.add(expert)
        self._tasks[expert] = task
        self._home[expert] = device.index
        self.stats.ondemand_loads += 1
        for observer in self._observers:
            observer.note_transfer("ondemand", device.index, expert, task)
        return task.end

    def evict(self, expert: ExpertId) -> None:
        """Drop an expert's weights and free its reservation."""
        if expert not in self._tasks:
            return
        device = self._home_of(expert)
        device.resident.discard(expert)
        device.used_bytes -= self._expert_bytes
        del self._tasks[expert]
        self._home.pop(expert, None)
        self.stats.evictions += 1
        if self.engine is not None:
            self.engine._emit(EventKind.EVICTION, expert=expert)

    # ------------------------------------------------------------------ #
    # Device failure and recovery
    # ------------------------------------------------------------------ #

    def alive_devices(self) -> list[_Device]:
        """Devices that have not failed."""
        return [d for d in self.devices if not d.failed]

    def fail_device(self, index: int, now: float) -> list[ExpertId]:
        """Lose one GPU: its residents and in-flight copies are gone.

        Returns the lost experts (sorted, for deterministic re-placement).
        Raises :class:`DeviceLostError` when the last device fails —
        there is nothing left to serve from.
        """
        if not 0 <= index < len(self.devices):
            raise ConfigError(f"no GPU {index} to fail")
        device = self.devices[index]
        if device.failed:
            return []
        device.failed = True
        observers = self._observers
        if observers:
            # Unfinished copies die with the link; they never complete, so
            # consumers must not materialize them as transfer spans.
            for task in device.channel.pending_tasks(now):
                for observer in observers:
                    observer.drop_transfer(task)
        device.channel.fail(now)
        lost = sorted(device.resident)
        for expert in lost:
            del self._tasks[expert]
            self._home.pop(expert, None)
        device.resident.clear()
        device.used_bytes = 0
        self.stats.devices_lost += 1
        if not self.alive_devices():
            raise DeviceLostError("every GPU has failed")
        return lost

    def failover(self, lost: Iterable[ExpertId], now: float) -> float | None:
        """Re-place a failed device's residents across the survivors.

        Issues one prefetch per lost expert onto its new (deterministic)
        home, subject to the survivors' byte budgets — re-placement evicts
        or rejects exactly like any other load, so budgets are conserved.
        Returns the arrival time of the last re-placement copy, or None
        when nothing could be (or needed to be) re-scheduled.
        """
        latest: float | None = None
        for expert in lost:
            if self.prefetch(expert, now) != "scheduled":
                continue
            self.stats.failovers += 1
            arrival = self.arrival_time(expert)
            if arrival is not None:
                latest = arrival if latest is None else max(latest, arrival)
        return latest

    def total_retries(self) -> int:
        """Transfer retries performed across every link so far."""
        return sum(d.channel.retries for d in self.devices)

    def _make_space(
        self,
        device: _Device,
        needed_bytes: int,
        now: float,
        urgent: bool = False,
    ) -> bool:
        """Evict ready, unprotected experts (oracle order) until it fits.

        Urgent (on-demand) loads may additionally cancel queued prefetches
        that have not started transferring, reclaiming their reservations.
        """
        if device.free_bytes() >= needed_bytes:
            return True
        # Readiness inlined (resident experts are always tracked): the
        # scan touches every resident on every space-needing call, so the
        # per-candidate method-call overhead of ``is_ready`` matters.
        protected = self.protected
        tasks = self._tasks
        # Columnar scoring when the oracle exposes its dense score
        # matrix and one eviction suffices: the victim comes from O(1)
        # array lookups instead of one Python scoring call per candidate.
        # The matrix holds exactly the scores ``eviction_priority``
        # returns, so both paths evict the same victims.
        matrix = None
        if self.columnar:
            dense = getattr(self._oracle, "eviction_score_matrix", None)
            if dense is not None:
                matrix = dense(now)
        if (
            matrix is not None
            and device.free_bytes() + self._expert_bytes >= needed_bytes
        ):
            # One eviction suffices (every request is for one equal-sized
            # expert, so this is nearly every call): take the first strict
            # maximum in residency-set iteration order — exactly the
            # stable descending sort's first victim — without building or
            # sorting a candidate list.
            width = self.model.experts_per_layer
            best = None
            best_score = float("-inf")
            for e in device.resident:
                if e in protected:
                    continue
                task = tasks[e]
                if task is not None and task.end > now:
                    continue
                score = matrix[e.layer * width + e.expert]
                if score > best_score:
                    best_score = score
                    best = e
            if best is not None:
                self.evict(best)
                return True
            candidates = []
        else:
            candidates = [
                e
                for e in device.resident
                if e not in protected
                and ((task := tasks[e]) is None or task.end <= now)
            ]
            candidates.sort(
                key=lambda e: self._oracle.eviction_priority(e, now),
                reverse=True,
            )
        for victim in candidates:
            self.evict(victim)
            if device.free_bytes() >= needed_bytes:
                return True
        if urgent:
            # Reclaim queued-but-not-started prefetch reservations,
            # furthest arrival first.
            queued = [
                (e, t)
                for e, t in self._tasks.items()
                if t is not None
                and t.start > now
                and e in device.resident
                and e not in self.protected
            ]
            queued.sort(key=lambda item: item[1].end, reverse=True)
            for expert, task in queued:
                if not device.channel.cancel(task, now):
                    continue
                device.resident.discard(expert)
                device.used_bytes -= self._expert_bytes
                del self._tasks[expert]
                self._home.pop(expert, None)
                self.stats.prefetch_cancelled += 1
                for observer in self._observers:
                    observer.drop_transfer(task)
                if device.free_bytes() >= needed_bytes:
                    return True
        return device.free_bytes() >= needed_bytes
