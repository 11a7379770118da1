"""Per-layer span timing for the traced benchmark run.

The tracer wraps public functions of the simulator's layers from the
outside: each wrapped call records one span (layer, function, start, end)
on a stack, so a span's *self time* is its duration minus the time its
child spans cover.  Spans are folded into per-layer and per-function
totals as they close instead of being kept one by one: the busiest
workloads open several hundred thousand spans per run.

Nothing under ``src/`` is modified.  :meth:`SpanTracer.patch` replaces
class and module attributes and :meth:`SpanTracer.uninstall` puts the
originals back, so untraced runs in the same process pay nothing.
(``repro.obs.profile.PhaseTimer`` does the same accounting for a fixed
set of engine phases on one engine instance; layers and cluster replicas
need names it does not know and objects created mid-run.)
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class SpanTracer:
    """Stack-based self-time accounting over ``time.perf_counter``."""

    def __init__(self) -> None:
        self.layer_self_s: dict[str, float] = defaultdict(float)
        self.fn_calls: dict[str, int] = defaultdict(int)
        self.fn_total_s: dict[str, float] = defaultdict(float)
        self.fn_self_s: dict[str, float] = defaultdict(float)
        self.root_s = 0.0
        self._stack: list[list[float]] = []  # per open span: [child seconds]
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Spans
    # ------------------------------------------------------------------ #

    def _close(self, layer: str, name: str, start: float) -> None:
        duration = time.perf_counter() - start
        child = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += duration
        else:
            self.root_s += duration
        own = duration - child
        self.layer_self_s[layer] += own
        self.fn_calls[name] += 1
        self.fn_total_s[name] += duration
        self.fn_self_s[name] += own

    def timed(self, layer: str, name: str, fn, after=None, before=None):
        """``fn`` wrapped in a span.

        ``before(args)`` runs ahead of the span and ``after(args, result,
        token)`` behind it, ``token`` being what ``before`` returned; both
        stay outside the timed interval.
        """

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            token = before(args) if before is not None else None
            start = time.perf_counter()
            self._stack.append([0.0])
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(layer, name, start)
            if after is not None:
                after(args, result, token)
            return result

        return spanned

    def run_root(self, name: str, fn, *args):
        """Call ``fn(*args)`` as a root span of the ``harness`` layer."""
        return self.timed("harness", name, fn)(*args)

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #

    def patch(
        self, owner, attr: str, layer: str, after=None, before=None
    ) -> None:
        """Replace ``owner.attr`` (a class or module) with a spanned call."""
        raw = vars(owner)[attr]
        name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        setattr(owner, attr, self.timed(layer, name, raw, after, before))
        self._patched.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def self_seconds(self) -> float:
        """Sum of every layer's self time (equals :attr:`root_s`)."""
        return sum(self.layer_self_s.values())

    def table(self) -> list[dict]:
        """Per-function rows, most self time first."""
        return [
            {
                "function": name,
                "calls": self.fn_calls[name],
                "total_s": self.fn_total_s[name],
                "self_s": self.fn_self_s[name],
            }
            for name in sorted(
                self.fn_self_s, key=self.fn_self_s.get, reverse=True
            )
        ]
