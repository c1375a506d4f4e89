"""The fleet coordinator: run every shard of a sweep as a subprocess.

``repro batch --fleet N`` (and :func:`run_fleet` under it) turns one sweep
into ``N`` shard subprocesses — each a plain ``repro batch --shard i/N``
writing its own shard file — launched concurrently, with their output
streamed line-by-line under a ``[shard i/N]`` prefix.  A shard that exits
non-zero is retried through the same :class:`~repro.engine.retry.RetryPolicy`
state machine that governs failing cells (a dead shard is a ``"crash"``:
at least one relaunch even under the default fail-fast policy), and every
relaunch resumes the shard's sink, so completed cells are never recomputed.
The caller merges the shard files afterwards (:mod:`repro.engine.merge`).

The coordinator is deliberately transport-agnostic: it drives any
``spawn(shard_index, attempt) -> subprocess.Popen`` factory, so tests can
substitute scripts for real sweeps and a future remote executor can replace
``subprocess`` without touching the retry/streaming logic.
"""

from __future__ import annotations

import subprocess
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.engine.retry import RetryPolicy

__all__ = ["ShardOutcome", "FleetError", "run_fleet"]


class FleetError(RuntimeError):
    """A shard exhausted its retry budget (the fleet cannot be merged)."""


@dataclass
class ShardOutcome:
    """How one shard ended: its index, attempts used, and final exit code."""

    index: int
    attempts: int
    returncode: int

    @property
    def ok(self) -> bool:
        return self.returncode == 0


def _pump(prefix: str, stream, echo: Callable[[str], None], lock: threading.Lock) -> None:
    for line in stream:
        with lock:
            echo(f"{prefix} {line.rstrip()}")


def run_fleet(
    spawn: Callable[[int, int], subprocess.Popen],
    count: int,
    retry: RetryPolicy | None = None,
    echo: Callable[[str], None] = print,
) -> list[ShardOutcome]:
    """Run shards ``0..count-1`` concurrently; retry failures; return outcomes.

    ``spawn(index, attempt)`` must start shard ``index`` (1-based
    ``attempt``) with ``stdout`` piped (text mode); its lines are streamed
    through ``echo`` prefixed with ``[shard index/count]``.  A non-zero exit
    is classified as a ``"crash"`` for ``retry`` (default: the default
    policy, whose crash floor guarantees one relaunch) and relaunched after
    the policy's deterministic backoff; the relaunch is expected to resume
    the shard's sink.  The returned outcomes are ordered by shard index;
    callers should check :attr:`ShardOutcome.ok` before merging.
    """
    if int(count) < 1:
        raise FleetError(f"fleet size must be >= 1, got {count!r}")
    policy = retry or RetryPolicy()
    outcomes: list[ShardOutcome | None] = [None] * count
    echo_lock = threading.Lock()

    def _drive(index: int) -> None:
        attempt = 1
        prefix = f"[shard {index}/{count}]"
        while True:
            proc = spawn(index, attempt)
            if proc.stdout is not None:
                with proc.stdout:
                    _pump(prefix, proc.stdout, echo, echo_lock)
            code = proc.wait()
            if code == 0:
                outcomes[index] = ShardOutcome(index, attempt, 0)
                return
            # A dead shard subprocess is a crash for the retry ladder (its
            # *cells'* failures were already handled inside the shard by its
            # own policy); "downgrade" cannot apply to a whole process, so it
            # also just relaunches.
            action = policy.next_action("crash", attempt, backend="array",
                                        downgraded=False)
            if action in ("retry", "downgrade"):
                with echo_lock:
                    echo(f"{prefix} exited with code {code}; relaunching "
                         f"(attempt {attempt + 1}, resuming its sink)")
                delay = policy.delay(f"shard:{index}", attempt)
                if delay > 0:
                    time.sleep(delay)
                attempt += 1
                continue
            outcomes[index] = ShardOutcome(index, attempt, code)
            return

    threads = [threading.Thread(target=_drive, args=(index,),
                                name=f"repro-fleet-{index}", daemon=True)
               for index in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return [outcome for outcome in outcomes if outcome is not None]
