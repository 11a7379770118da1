"""PCIe transfer channels with pausable prefetch scheduling.

Each GPU owns one host-to-device link.  Prefetches queue behind one another;
an on-demand (miss) load *pauses* every queued-but-not-started prefetch on
its link — they are pushed back by the urgent copy's duration — waits for
at most the one transfer already on the wire, and then occupies the link.
This matches fMoE's "pause all prefetching on a miss, resume after" rule
(§4.5) and the contention behaviour that penalizes over-prefetching.

Callers keep references to the returned :class:`TransferTask` objects and
read ``task.end`` live, so pauses are visible without extra bookkeeping.

With a :class:`~repro.serving.faults.FaultSchedule` attached, each copy
consults the schedule: degraded-bandwidth windows stretch the wire time,
and transient attempt failures cost the wasted wire time plus an
exponential backoff before the retry.  Exhausting the retry budget raises
:class:`~repro.errors.TransferError`; operations on a failed device raise
:class:`~repro.errors.DeviceLostError`.  Without a schedule the arithmetic
is exactly the healthy single-attempt path.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError, DeviceLostError, TransferError
from repro.serving.faults import DEFAULT_RETRY_POLICY, FaultSchedule, RetryPolicy
from repro.types import ExpertId


@dataclass
class TransferTask:
    """One host-to-device expert copy (times may shift on pause).

    The pool keeps one per tracked expert; a placement that uses no
    channel (a preload, a blocking insert) is a zero-length task.
    """

    expert: ExpertId
    start: float
    end: float
    num_bytes: int
    """Payload size: the expert's weight bytes."""
    device: int
    """Index of the GPU the expert is copied to."""


class TransferChannel:
    """Serializes expert weight copies over one PCIe link."""

    def __init__(
        self,
        bandwidth_bps: float,
        device_index: int = 0,
        faults: FaultSchedule | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> None:
        if bandwidth_bps <= 0:
            raise ConfigError("bandwidth must be > 0")
        self.bandwidth_bps = bandwidth_bps
        self.device_index = device_index
        # An all-zero schedule is dropped so the healthy path stays the
        # exact single-attempt arithmetic (bit-identical reports).
        self.faults = faults if faults is not None and not faults.is_zero else None
        self.retry_policy = retry_policy or DEFAULT_RETRY_POLICY
        self._tasks: list[TransferTask] = []
        self._busy_until = 0.0
        self.bytes_transferred = 0
        self.urgent_loads = 0
        self.retries = 0
        self.failed_attempts = 0
        self.failed = False
        self._attempt_counter = 0

    def transfer_seconds(self, num_bytes: int) -> float:
        """Nominal wire time of a copy of ``num_bytes`` on this link."""
        return num_bytes / self.bandwidth_bps

    def _wire_end(self, start: float, num_bytes: int) -> float:
        """Completion time of a copy starting at ``start``, fault-aware.

        Each attempt's duration reflects the bandwidth-degradation window
        at its own start time; a failed attempt burns its wire time plus
        the retry backoff.  Raises :class:`TransferError` when every
        attempt of the retry budget fails.
        """
        if self.faults is None:
            return start + num_bytes / self.bandwidth_bps
        policy = self.retry_policy
        now = start
        for attempt in range(policy.max_attempts):
            if attempt:
                self.retries += 1
            multiplier = self.faults.bandwidth_multiplier(
                self.device_index, now
            )
            duration = num_bytes / (self.bandwidth_bps * multiplier)
            index = self._attempt_counter
            self._attempt_counter += 1
            if not self.faults.transfer_fails(self.device_index, index):
                return now + duration
            self.failed_attempts += 1
            now += duration + policy.backoff_after(attempt)
        raise TransferError(
            f"copy on GPU {self.device_index} link failed "
            f"{policy.max_attempts} attempts"
        )

    def _check_alive(self) -> None:
        """Raise :class:`DeviceLostError` when this link's GPU is gone."""
        if self.failed:
            raise DeviceLostError(
                f"GPU {self.device_index} has failed; link is down"
            )

    def fail(self, now: float) -> None:
        """Tear the link down: unfinished transfers are lost."""
        self.failed = True
        self._tasks = [t for t in self._tasks if t.end <= now]
        self._busy_until = now

    def schedule(
        self, issue_time: float, num_bytes: int, expert: ExpertId
    ) -> TransferTask:
        """Queue a prefetch copy; it starts when the link frees up."""
        self._check_alive()
        start = max(issue_time, self._busy_until)
        end = self._wire_end(start, num_bytes)
        task = TransferTask(expert, start, end, num_bytes, self.device_index)
        self._tasks.append(task)
        self._busy_until = end
        self.bytes_transferred += num_bytes
        self._compact(issue_time)
        return task

    def load_urgent(
        self, now: float, num_bytes: int, expert: ExpertId
    ) -> TransferTask:
        """Preempting on-demand load.

        Pauses all queued tasks that have not started by ``now`` (shifting
        them back by the urgent copy's duration), waits for the in-flight
        transfer if any, then performs the copy.

        One pass over the live tasks does all the bookkeeping: transfers
        finished by ``now`` are dropped (they cannot be in flight, cannot
        be paused — ``start <= end <= now`` — and cannot carry the maximum
        pending end once the new copy, which ends later, is appended), so
        the hot loop never rescans long-dead transfers.
        """
        self._check_alive()
        inflight_end = now
        live: list[TransferTask] = []
        queued: list[TransferTask] = []
        for task in self._tasks:
            if task.end <= now:
                continue
            live.append(task)
            if task.start <= now:
                if task.end > inflight_end:
                    inflight_end = task.end
            else:
                queued.append(task)
        start = max(now, inflight_end)
        end = self._wire_end(start, num_bytes)
        duration = end - start
        busy = end
        for task in queued:
            task.start += duration
            task.end += duration
            if task.end > busy:
                busy = task.end
        task = TransferTask(expert, start, end, num_bytes, self.device_index)
        live.append(task)
        self._tasks = live
        self._busy_until = busy
        self.bytes_transferred += num_bytes
        self.urgent_loads += 1
        return task

    def cancel(self, task: TransferTask, now: float) -> bool:
        """Cancel a queued transfer that has not started; True on success.

        Used when an urgent load needs cache space and the only reclaimable
        bytes are reservations of queued prefetches.  Transfers already on
        the wire cannot be cancelled.  Later queued tasks are left in place
        (their start times stay conservative).
        """
        if task.start <= now:
            return False
        try:
            self._tasks.remove(task)
        except ValueError:
            return False
        self.bytes_transferred -= task.num_bytes
        self._busy_until = max(
            (t.end for t in self._tasks), default=now
        )
        return True

    def _compact(self, now: float) -> None:
        """Drop bookkeeping for transfers that finished long ago."""
        if len(self._tasks) > 512:
            self._tasks = [t for t in self._tasks if t.end > now]

    @property
    def busy_until(self) -> float:
        return self._busy_until

    def pending_tasks(self, now: float) -> list[TransferTask]:
        """Transfers scheduled but not finished at ``now`` (for tests)."""
        return [t for t in self._tasks if t.end > now]
