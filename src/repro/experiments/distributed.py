"""Distributed work-queue execution backend: coordinator + workers.

``ExperimentRunner(backend="queue", n_workers=N)`` routes task execution
through this module instead of an in-process
:class:`~concurrent.futures.ProcessPoolExecutor`. A *coordinator* (the
runner's own process) shards task manifests into a file-queue directory;
N *worker* processes — spawned by the coordinator on this host, or
started standalone (``python -m repro.experiments --worker DIR``,
possibly on other hosts sharing the filesystem) — claim, execute, and
publish them. Because every task is a pure function of its payload, the
results are bit-identical to the serial path for any worker count.

The file-queue protocol (one *run* = one coordinator call)::

    <queue_dir>/run-0000/
        meta.json          # pickled task fn, retries, lease timeout
        tasks/<id>.json    # one manifest per task: index, key, shard,
                           # pickled payload, optional shared-cache key
        leases/<id>.lease  # exclusive claim (O_CREAT|O_EXCL), heartbeat
                           # = mtime refreshed by the owning worker
        results/<id>.json  # outcome, written atomically, then the lease
                           # is dropped; presence == task settled
        workers/<w>.json   # per-worker exit summary + metrics registry
        STOP               # sentinel: no more work will be added

Claiming is the only point of contention and it is atomic: a lease file
is created with ``O_CREAT | O_EXCL``, which exactly one claimant can
win. Everything else is rendered atomic by write-temp + ``os.replace``.

**Work stealing.** Each manifest carries a shard hint
(``index % n_workers``) and each spawned worker a shard identity.
Workers prefer manifests of their own shard and steal from other shards
only when their own is empty, so a straggling worker's backlog drains
into idle workers instead of gating the run.

**Failure model.** A worker heartbeats each held lease (mtime) while
computing. The coordinator re-queues a task — unlinking its lease so
any worker can re-claim it — when the owning spawned worker has exited
without publishing a result, or when the lease heartbeat has been stale
for ``lease_timeout_s`` (covering hung workers and standalone workers
the coordinator cannot wait on). Re-execution is safe because tasks are
deterministic and results content-equal; the coordinator settles every
task exactly once (keyed by task id), so metrics and merged telemetry
never double-count. After ``MAX_REQUEUES`` losses the task is recorded
as a :class:`~repro.experiments.runner.TrialError` (``WorkerLostError``)
under ``--keep-going``, or raises. When every spawned worker has died,
the coordinator first spawns replacements (bounded budget) and, as a
last resort, executes the remaining tasks inline — the run always
terminates.

**Shared result store.** When the runner has a cache, pipeline-task
manifests carry the content address; workers elect a single computer
per key via :meth:`ResultCache.claim` and publish with the atomic
:meth:`ResultCache.put`, so two workers (even from concurrent runs
sharing one cache directory) never recompute or torn-write one key.

**Observability.** Per-trial telemetry rides inside task results
exactly as in the pool backend; each worker additionally keeps a small
:class:`~repro.obs.MetricsRegistry` (claims, completions, steals) whose
snapshot the coordinator collects into ``RunStats.worker_snapshots``
and merges order-insensitively via
:func:`~repro.obs.merge_snapshots` (``RunStats.worker_registry``).

**Live telemetry (observed runs).** The coordinator mints one trace id
per run and embeds a :class:`~repro.obs.TraceContext` in every task
manifest (``"trace"``: trace id + the coordinator's ``task:*`` span id),
workers adopt their worker id as the process span namespace (span ids
``"w0:1"`` — globally unique across the fleet) and append their executed
trials' completed spans to ``workers/<id>.events.jsonl``; the
coordinator writes its own ``task:*`` spans to
``coordinator.events.jsonl``. ``tools/stitch_trace.py`` merges those
JSONL logs into one Perfetto trace with cross-process parent edges.
Workers and the coordinator can additionally serve live ``/metrics`` /
``/healthz`` / ``/spans`` scrapes (``--telemetry-port``; see
:class:`repro.obs.TelemetryServer`). None of this draws randomness —
queue results stay bit-identical to serial.
"""

from __future__ import annotations

import argparse
import base64
import json
import os
import pathlib
import pickle
import subprocess
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: File-queue protocol version (bump on incompatible layout changes).
PROTOCOL_VERSION = 1

#: Lease losses tolerated per task before it is declared failed.
MAX_REQUEUES = 3

#: Replacement workers the coordinator may spawn per run.
MAX_RESPAWNS_PER_RUN = 8

#: Exit code of a fault-injected worker crash (``--crash-after-claims``).
CRASH_EXIT_CODE = 17

#: Error type recorded for a task whose workers kept dying.
WORKER_LOST_ERROR = "WorkerLostError"


def _b64_pickle(obj: Any) -> str:
    """Pickle ``obj`` and encode it for embedding in a JSON manifest."""
    return base64.b64encode(pickle.dumps(obj)).decode("ascii")


def _b64_unpickle(data: str) -> Any:
    """Invert :func:`_b64_pickle`."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def _atomic_write_json(path: pathlib.Path, payload: Dict[str, Any]) -> None:
    """Write ``payload`` as JSON so readers never observe a torn file."""
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    tmp.write_text(json.dumps(payload, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _read_json(path: pathlib.Path) -> Optional[Dict[str, Any]]:
    """Parse a JSON file, returning None when missing or torn mid-write."""
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class _QueueLayout:
    """Path arithmetic for one run directory of the file-queue protocol."""

    def __init__(self, run_dir: pathlib.Path) -> None:
        self.run_dir = pathlib.Path(run_dir)
        self.meta = self.run_dir / "meta.json"
        self.tasks = self.run_dir / "tasks"
        self.leases = self.run_dir / "leases"
        self.results = self.run_dir / "results"
        self.workers = self.run_dir / "workers"
        self.stop = self.run_dir / "STOP"

    def create(self) -> None:
        """Create the run directory tree (idempotent)."""
        for directory in (self.tasks, self.leases, self.results, self.workers):
            directory.mkdir(parents=True, exist_ok=True)

    def task_path(self, task_id: str) -> pathlib.Path:
        """The manifest file for ``task_id``."""
        return self.tasks / f"{task_id}.json"

    def lease_path(self, task_id: str) -> pathlib.Path:
        """The lease file for ``task_id``."""
        return self.leases / f"{task_id}.lease"

    def result_path(self, task_id: str) -> pathlib.Path:
        """The result file for ``task_id``."""
        return self.results / f"{task_id}.json"

    def worker_path(self, worker_id: str) -> pathlib.Path:
        """The exit-summary file for ``worker_id``."""
        return self.workers / f"{worker_id}.json"


def allocate_run_dir(queue_dir: pathlib.Path) -> pathlib.Path:
    """Claim a fresh ``run-NNNN`` namespace under ``queue_dir``.

    Allocation is an atomic ``mkdir``, so concurrent coordinators sharing
    one queue directory get disjoint runs.
    """
    queue_dir.mkdir(parents=True, exist_ok=True)
    seq = sum(1 for p in queue_dir.glob("run-*") if p.is_dir())
    while True:
        candidate = queue_dir / f"run-{seq:04d}"
        try:
            candidate.mkdir()
        except FileExistsError:
            seq += 1
            continue
        return candidate


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Heartbeat:
    """Background mtime refresher for a held lease.

    The coordinator treats a lease whose mtime is older than the run's
    ``lease_timeout_s`` as abandoned, so a worker computing a long task
    must keep touching its lease; a crashed worker stops touching it,
    which is the whole failure-detection signal.
    """

    def __init__(self, lease: pathlib.Path, interval_s: float) -> None:
        self.lease = lease
        self.interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                os.utime(self.lease)
            except OSError:
                return  # lease was revoked out from under us; stop quietly

    def start(self) -> None:
        """Begin refreshing the lease."""
        self._thread.start()

    def stop(self) -> None:
        """Stop refreshing (called before the lease is dropped)."""
        self._stop.set()
        self._thread.join(timeout=1.0)


def _try_claim(layout: _QueueLayout, task_id: str, worker_id: str) -> bool:
    """Attempt the atomic exclusive claim of ``task_id``."""
    try:
        fd = os.open(
            layout.lease_path(task_id), os.O_CREAT | os.O_EXCL | os.O_WRONLY
        )
    except FileExistsError:
        return False
    with os.fdopen(fd, "w") as handle:
        handle.write(
            json.dumps({"worker": worker_id, "pid": os.getpid()}) + "\n"
        )
    return True


def _claim_next(
    layout: _QueueLayout, worker_id: str, shard: Optional[int]
) -> Optional[Tuple[Dict[str, Any], bool]]:
    """Claim the next available task, preferring this worker's shard.

    Returns ``(manifest, stolen)`` or None when nothing is claimable.
    ``stolen`` is True when the task carried another shard's hint (work
    stealing); shard-less workers steal nothing — every task is fair
    game for them.
    """
    own: List[pathlib.Path] = []
    other: List[pathlib.Path] = []
    for manifest_path in sorted(layout.tasks.glob("*.json")):
        task_id = manifest_path.stem
        if layout.result_path(task_id).exists():
            continue
        if layout.lease_path(task_id).exists():
            continue
        manifest = _read_json(manifest_path)
        if manifest is None:
            continue
        if shard is not None and manifest.get("shard") != shard:
            other.append(manifest_path)
        else:
            own.append(manifest_path)
    for stolen, candidates in ((False, own), (True, other)):
        for manifest_path in candidates:
            task_id = manifest_path.stem
            if layout.result_path(task_id).exists():
                continue
            if not _try_claim(layout, task_id, worker_id):
                continue
            manifest = _read_json(manifest_path)
            if manifest is None:  # pragma: no cover - manifest vanished
                try:
                    layout.lease_path(task_id).unlink()
                except OSError:
                    pass
                continue
            return manifest, stolen and shard is not None
    return None


def _compute_with_shared_cache(
    fn: Callable[[Any], Any],
    payload: Any,
    retries: int,
    cache_root: str,
    cache_key: str,
    lease_timeout_s: float,
    poll_s: float,
) -> Tuple[bool, Any, float, int]:
    """Run one cacheable task through the shared result store.

    Exactly one worker per key computes: the first to win
    :meth:`ResultCache.claim` executes and publishes; everyone else
    waits for the published entry. A claimant that dies without
    publishing is waited out for ``lease_timeout_s`` and then bypassed —
    recomputing is always safe because :meth:`ResultCache.put` is atomic
    and all writers of a key produce identical entries.
    """
    from repro.experiments.runner import ResultCache, _timed_call

    cache = ResultCache(cache_root)
    hit = cache.get(cache_key)
    if hit is not None:
        return True, hit, 0.0, 1
    waited_from = time.perf_counter()
    while not cache.claim(cache_key):
        hit = cache.get(cache_key)
        if hit is not None:
            return True, hit, time.perf_counter() - waited_from, 1
        if time.perf_counter() - waited_from > lease_timeout_s:
            # The claimant is presumed dead; compute without the claim.
            outcome = _timed_call(fn, payload, retries)
            if outcome[0]:
                cache.put(cache_key, outcome[1])
            return outcome
        time.sleep(poll_s)
    try:
        hit = cache.get(cache_key)  # published between our get and claim
        if hit is not None:
            return True, hit, time.perf_counter() - waited_from, 1
        outcome = _timed_call(fn, payload, retries)
        if outcome[0]:
            cache.put(cache_key, outcome[1])
        return outcome
    finally:
        cache.release(cache_key)


def _serve_run(
    layout: _QueueLayout,
    worker_id: str,
    *,
    shard: Optional[int],
    crash_after_claims: Optional[int],
    poll_s: float,
    status: Optional[Dict[str, Any]] = None,
) -> None:
    """One worker's main loop over one run: claim, execute, publish.

    Exits when the run's STOP sentinel is present and nothing is left to
    claim. On exit, writes the worker summary (claims/completions/steals
    plus the worker's metrics-registry snapshot) for the coordinator to
    merge. Observed trials additionally log their completed spans to
    ``workers/<id>.events.jsonl`` for cross-process stitching.

    ``status`` (the live-telemetry hook from :func:`run_worker`) is
    updated in place with this run's registry/run dir/span ring so a
    concurrently scraping :class:`~repro.obs.TelemetryServer` sees
    current state.
    """
    from repro.experiments.runner import _timed_call
    from repro.obs import (
        MetricsRegistry,
        TraceContext,
        process_span_namespace,
        set_process_span_namespace,
        set_process_trace_context,
        span_event_lines,
    )
    from repro.obs.live import append_event_lines

    meta = None
    while meta is None or "fn_pickle" not in meta:
        meta = _read_json(layout.meta)
        if meta is None:
            time.sleep(poll_s)
    fn = _b64_unpickle(meta["fn_pickle"])
    retries = int(meta.get("task_retries", 0))
    lease_timeout_s = float(meta.get("lease_timeout_s", 30.0))
    registry = MetricsRegistry()
    # Span ids minted in this process are namespaced by the worker id so
    # they are globally unique across the fleet (stitched traces never
    # collide); deterministic per process — same claims, same ids. The
    # previous namespace is restored on exit (in-process test workers).
    previous_namespace = process_span_namespace()
    set_process_span_namespace(worker_id)
    events_log = layout.workers / f"{worker_id}.events.jsonl"
    if status is not None:
        status["registry"] = registry
        status["run_dir"] = layout.run_dir
    claims = completed = steals = 0
    try:
        while True:
            claimed = _claim_next(layout, worker_id, shard)
            if claimed is None:
                if layout.stop.exists():
                    break
                time.sleep(poll_s)
                continue
            manifest, stolen = claimed
            task_id = str(manifest["id"])
            claims += 1
            registry.counter(
                "queue_worker_claims_total", worker=worker_id
            ).inc()
            if stolen:
                steals += 1
                registry.counter(
                    "queue_worker_steals_total", worker=worker_id
                ).inc()
            if crash_after_claims is not None and claims >= crash_after_claims:
                # Fault injection: die while still holding the lease, as
                # a power-cut worker would. The coordinator must notice
                # and re-queue this task.
                os._exit(CRASH_EXIT_CODE)
            lease = layout.lease_path(task_id)
            heartbeat = _Heartbeat(
                lease, interval_s=max(0.05, lease_timeout_s / 4.0)
            )
            heartbeat.start()
            trace_info = manifest.get("trace")
            if trace_info:
                # Adopt the coordinator's trace context for this task:
                # the trial's root span will carry trace_id plus the
                # coordinator task:* span as its remote parent.
                set_process_trace_context(TraceContext.from_dict(trace_info))
            try:
                payload = _b64_unpickle(manifest["payload_pickle"])
                cache_info = manifest.get("cache")
                if cache_info:
                    outcome = _compute_with_shared_cache(
                        fn,
                        payload,
                        retries,
                        cache_info["root"],
                        cache_info["key"],
                        lease_timeout_s,
                        poll_s,
                    )
                else:
                    outcome = _timed_call(fn, payload, retries)
            finally:
                heartbeat.stop()
                set_process_trace_context(None)
            ok, value, seconds, attempts = outcome
            telemetry = (
                value.get("telemetry")
                if ok and isinstance(value, dict)
                else None
            )
            if telemetry is not None and telemetry.get("spans"):
                append_event_lines(
                    events_log,
                    span_event_lines(
                        telemetry,
                        trial=str(manifest.get("key", task_id)),
                        process=worker_id,
                    ),
                )
                ring = status.get("ring") if status is not None else None
                if ring is not None:
                    ring.extend(telemetry["spans"])
            _atomic_write_json(
                layout.result_path(task_id),
                {
                    "ok": bool(ok),
                    "value_pickle": _b64_pickle(value),
                    "seconds": float(seconds),
                    "attempts": int(attempts),
                    "worker": worker_id,
                },
            )
            try:
                lease.unlink()
            except OSError:
                pass
            completed += 1
            registry.counter(
                "queue_worker_completed_total", worker=worker_id
            ).inc()
    finally:
        set_process_span_namespace(previous_namespace)
        _atomic_write_json(
            layout.worker_path(worker_id),
            {
                "worker": worker_id,
                "claims": claims,
                "completed": completed,
                "steals": steals,
                "registry": registry.snapshot(),
            },
        )


def _find_run(
    queue_dir: pathlib.Path, served: set
) -> Optional[pathlib.Path]:
    """The next run directory a standalone worker should serve.

    ``queue_dir`` may be a run directory itself (it has ``meta.json``)
    or a queue root whose ``run-NNNN`` children appear as coordinators
    start. Runs already served are skipped; an already-stopped run is
    still returned once so a late-starting worker can drain any leftover
    claimable work, note the STOP, and exit cleanly.
    """
    if (queue_dir / "meta.json").exists():
        return queue_dir if queue_dir not in served else None
    for candidate in sorted(queue_dir.glob("run-*")):
        if candidate in served or not (candidate / "meta.json").exists():
            continue
        return candidate
    return None


def run_worker(
    queue_dir: pathlib.Path,
    worker_id: str,
    *,
    shard: Optional[int] = None,
    crash_after_claims: Optional[int] = None,
    once: bool = False,
    poll_s: float = 0.02,
    telemetry_port: Optional[int] = None,
) -> int:
    """A standalone queue worker: serve runs appearing under ``queue_dir``.

    With ``once=True`` the worker exits after its first run completes
    (how the coordinator spawns its own workers); otherwise it keeps
    watching for new runs until killed — the long-running multi-host
    deployment mode. ``telemetry_port`` (0 = ephemeral) attaches a
    :class:`~repro.obs.TelemetryServer` exposing this worker's registry,
    the served run's queue-liveness gauges, and a recent-span ring.
    Returns a process exit code.
    """
    queue_dir = pathlib.Path(queue_dir)
    served: set = set()
    status: Dict[str, Any] = {
        "registry": None,
        "run_dir": None,
        "ring": None,
    }
    server = None
    if telemetry_port is not None:
        from repro.obs import (
            SpanRing,
            TelemetryServer,
            merge_snapshots,
            queue_liveness_snapshot,
        )

        status["ring"] = SpanRing()

        def _snapshot() -> Dict[str, Any]:
            parts = []
            if status["registry"] is not None:
                parts.append(status["registry"].snapshot())
            if status["run_dir"] is not None:
                parts.append(queue_liveness_snapshot(status["run_dir"]))
            return merge_snapshots(parts)

        server = TelemetryServer(
            _snapshot,
            health_fn=lambda: {
                "status": "ok",
                "worker": worker_id,
                "run": str(status["run_dir"] or ""),
            },
            spans_fn=status["ring"].recent,
            port=telemetry_port,
        ).start()
        print(f"telemetry: {server.url}", flush=True)
    try:
        while True:
            run_dir = _find_run(queue_dir, served)
            if run_dir is None:
                if once and served:
                    return 0
                time.sleep(poll_s)
                continue
            _serve_run(
                _QueueLayout(run_dir),
                worker_id,
                shard=shard,
                crash_after_claims=crash_after_claims,
                poll_s=poll_s,
                status=status,
            )
            served.add(run_dir)
            if once:
                return 0
    finally:
        if server is not None:
            server.stop()


# ----------------------------------------------------------------------
# coordinator side
# ----------------------------------------------------------------------
def _worker_command(
    run_dir: pathlib.Path,
    worker_id: str,
    shard: Optional[int],
    crash_after_claims: Optional[int],
) -> List[str]:
    """The argv that launches one spawned worker against ``run_dir``."""
    command = [
        sys.executable,
        "-m",
        "repro.experiments.distributed",
        "--queue-dir",
        str(run_dir),
        "--worker-id",
        worker_id,
        "--once",
    ]
    if shard is not None:
        command += ["--shard", str(shard)]
    if crash_after_claims is not None:
        command += ["--crash-after-claims", str(crash_after_claims)]
    return command


def _spawn_worker(
    layout: _QueueLayout,
    worker_id: str,
    shard: Optional[int],
    crash_after_claims: Optional[int],
) -> subprocess.Popen:
    """Launch one worker subprocess with ``repro`` importable."""
    import repro

    env = dict(os.environ)
    src_root = str(pathlib.Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        src_root if not existing else src_root + os.pathsep + existing
    )
    log = open(  # noqa: SIM115 - handed to the subprocess for its lifetime
        layout.workers / f"{worker_id}.log", "ab"
    )
    try:
        return subprocess.Popen(
            _worker_command(layout.run_dir, worker_id, shard, crash_after_claims),
            env=env,
            stdout=log,
            stderr=subprocess.STDOUT,
        )
    finally:
        log.close()


def _lease_is_stale(
    layout: _QueueLayout,
    task_id: str,
    dead_pids: set,
    lease_timeout_s: float,
) -> bool:
    """Whether ``task_id``'s lease belongs to a lost worker.

    A lease is stale when its owner is a spawned worker known to have
    exited, a same-host process that no longer exists, or — the generic
    cross-host signal — its heartbeat mtime is older than the lease
    timeout.
    """
    lease = layout.lease_path(task_id)
    try:
        age = time.time() - lease.stat().st_mtime
    except OSError:
        return False  # lease already gone
    owner = _read_json(lease) or {}
    pid = owner.get("pid")
    if isinstance(pid, int):
        if pid in dead_pids:
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except OSError:
            pass  # e.g. a different-host pid namespace: rely on mtime
    return age > lease_timeout_s


def _synthesize_lost(
    key: str, requeues: int
) -> Tuple[bool, Tuple[str, str, str, str], float, int]:
    """A failure outcome for a task whose workers kept disappearing."""
    message = (
        f"task lease lost {requeues} times (worker crash or stall); "
        f"giving up after {MAX_REQUEUES} re-queues"
    )
    return (
        False,
        (WORKER_LOST_ERROR, message, f"{WORKER_LOST_ERROR}: {message} [{key}]\n", ""),
        0.0,
        requeues,
    )


def execute_queue(
    runner,
    fn: Callable[[Any], Any],
    payloads: Sequence[Any],
    pending: List[int],
    results: List[Any],
    task_keys: List[str],
    *,
    done_offset: int,
    total: int,
) -> None:
    """Coordinate one runner call over the file queue (backend="queue").

    Mirrors ``ExperimentRunner._execute``'s contract: runs
    ``fn(payloads[i])`` for every ``i`` in ``pending``, landing outcomes
    through ``runner._settle`` (results by index, stats, progress,
    fail-fast/keep-going semantics) — so callers cannot tell the
    backends apart except by the clock.
    """
    import tempfile

    from repro.experiments.runner import cache_key as compute_cache_key
    from repro.experiments.runner import execute_pipeline

    if runner.queue_dir is not None:
        queue_root = pathlib.Path(runner.queue_dir)
    else:
        queue_root = pathlib.Path(
            tempfile.mkdtemp(prefix="repro-queue-")
        )
    run_dir = allocate_run_dir(queue_root)
    layout = _QueueLayout(run_dir)
    layout.create()

    n_workers = min(runner.n_workers, len(pending))
    cacheable = runner.cache is not None and fn is execute_pipeline
    trace_id: Optional[str] = None
    span_mark = len(runner.stats.run_spans)
    if runner.observe is not None:
        # One trace per coordinator call; each manifest names the
        # coordinator's task:* span (id == index + 1, namespaced
        # "coord:") as the remote parent of the worker's trial span.
        from repro.obs import new_trace_id

        trace_id = new_trace_id()
        runner.stats.trace_id = trace_id
    runner._active_queue_run = run_dir
    task_ids: Dict[int, str] = {}
    for position, index in enumerate(pending):
        task_id = f"{index:06d}"
        task_ids[index] = task_id
        manifest: Dict[str, Any] = {
            "id": task_id,
            "index": index,
            "key": task_keys[index],
            "shard": position % n_workers,
            "payload_pickle": _b64_pickle(payloads[index]),
        }
        if trace_id is not None:
            manifest["trace"] = {
                "trace_id": trace_id,
                "parent_span_id": f"coord:{index + 1}",
            }
        if cacheable:
            manifest["cache"] = {
                "root": str(runner.cache.root),
                "key": compute_cache_key(payloads[index]),
            }
        _atomic_write_json(layout.task_path(task_id), manifest)
    _atomic_write_json(
        layout.meta,
        {
            "protocol": PROTOCOL_VERSION,
            "fn_pickle": _b64_pickle(fn),
            "task_retries": runner.task_retries,
            "lease_timeout_s": runner.lease_timeout_s,
            "tasks": len(pending),
        },
    )

    # Crash-injected workers start alone; the rest are held back until
    # every one of them has exited. Otherwise a healthy worker can drain
    # (or steal) every task before the injected one makes its first
    # claim, and the crash never fires.
    procs: List[Tuple[str, int, subprocess.Popen]] = []
    held: List[int] = []
    for i in range(n_workers):
        crash = runner.queue_crash_after.get(i)
        if crash is None:
            held.append(i)
        else:
            procs.append(
                (f"w{i}", i, _spawn_worker(layout, f"w{i}", i, crash))
            )

    poll_s = 0.02
    settled: set = set()
    requeue_counts: Dict[int, int] = {}
    dead_pids: set = set()
    reaped: set = set()
    respawns = 0
    done = done_offset
    try:
        while len(settled) < len(pending):
            progressed = False
            for index in pending:
                if index in settled:
                    continue
                record = _read_json(layout.result_path(task_ids[index]))
                if record is None or "value_pickle" not in record:
                    continue
                outcome = (
                    bool(record["ok"]),
                    _b64_unpickle(record["value_pickle"]),
                    float(record["seconds"]),
                    int(record["attempts"]),
                )
                settled.add(index)
                done += 1
                progressed = True
                runner._settle(
                    index, task_keys[index], outcome, results, done, total
                )
            if len(settled) == len(pending):
                break

            # Reap spawned workers; their leases expire immediately.
            live = 0
            for worker_id, shard, proc in procs:
                code = proc.poll()
                if code is None:
                    live += 1
                elif proc.pid not in reaped:
                    reaped.add(proc.pid)
                    dead_pids.add(proc.pid)
            if held and live == 0:
                for i in held:
                    worker = _spawn_worker(layout, f"w{i}", i, None)
                    procs.append((f"w{i}", i, worker))
                live += len(held)
                held = []
                progressed = True

            # Expire stale leases so the task becomes claimable again.
            for index in pending:
                if index in settled:
                    continue
                task_id = task_ids[index]
                if layout.result_path(task_id).exists():
                    continue
                lease = layout.lease_path(task_id)
                if not lease.exists():
                    continue
                if not _lease_is_stale(
                    layout, task_id, dead_pids, runner.lease_timeout_s
                ):
                    continue
                try:
                    lease.unlink()
                except OSError:
                    continue  # the owner finished or another expiry won
                runner.stats.requeues += 1
                requeue_counts[index] = requeue_counts.get(index, 0) + 1
                progressed = True
                if requeue_counts[index] > MAX_REQUEUES:
                    settled.add(index)
                    done += 1
                    runner._settle(
                        index,
                        task_keys[index],
                        _synthesize_lost(task_keys[index], requeue_counts[index]),
                        results,
                        done,
                        total,
                    )

            if live == 0 and len(settled) < len(pending):
                if respawns < min(MAX_RESPAWNS_PER_RUN, n_workers):
                    # Every spawned worker died; field a replacement so
                    # the re-queued work still runs out-of-process.
                    worker_id = f"r{respawns}"
                    procs.append(
                        (worker_id, None, _spawn_worker(layout, worker_id, None, None))
                    )
                    respawns += 1
                else:
                    # Last resort: the coordinator claims and executes
                    # the remaining tasks inline. Claiming still goes
                    # through the lease, so a surviving standalone
                    # worker and the coordinator never collide.
                    claimed = _claim_next(layout, "coordinator", None)
                    if claimed is not None:
                        manifest, _ = claimed
                        from repro.experiments.runner import _timed_call

                        payload = _b64_unpickle(manifest["payload_pickle"])
                        outcome = _timed_call(fn, payload, runner.task_retries)
                        ok, value, seconds, attempts = outcome
                        _atomic_write_json(
                            layout.result_path(str(manifest["id"])),
                            {
                                "ok": bool(ok),
                                "value_pickle": _b64_pickle(value),
                                "seconds": float(seconds),
                                "attempts": int(attempts),
                                "worker": "coordinator",
                            },
                        )
                        try:
                            layout.lease_path(str(manifest["id"])).unlink()
                        except OSError:
                            pass
                        continue  # settle it on the next sweep

            if not progressed:
                time.sleep(poll_s)
    finally:
        layout.stop.touch()
        deadline = time.time() + 10.0
        for _, _, proc in procs:
            if proc.poll() is None:
                try:
                    proc.wait(timeout=max(0.1, deadline - time.time()))
                except subprocess.TimeoutExpired:
                    proc.terminate()
                    try:
                        proc.wait(timeout=2.0)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
        for summary_path in sorted(layout.workers.glob("*.json")):
            summary = _read_json(summary_path)
            if summary is None:
                continue
            runner.stats.worker_snapshots.append(summary)
            runner.stats.steals += int(summary.get("steals", 0))
        runner._active_queue_run = None
        if trace_id is not None:
            _write_coordinator_events(
                layout, runner, trace_id, span_mark
            )


def _write_coordinator_events(
    layout: _QueueLayout, runner, trace_id: str, span_mark: int
) -> None:
    """Log this call's coordinator ``task:*`` spans for trace stitching.

    Run spans are kept on the runner's relative wall clock with plain
    integer ids; here they are namespaced ``coord:<id>`` and anchored to
    the epoch so ``tools/stitch_trace.py`` can line them up with worker
    and service span logs (ids match the ``parent_span_id`` each task
    manifest carried).
    """
    from repro.obs import span_event_lines
    from repro.obs.live import append_event_lines

    spans = []
    for span in runner.stats.run_spans[span_mark:]:
        entry = dict(span)
        entry["id"] = f"coord:{span['id']}"
        entry["attrs"] = {**span.get("attrs", {}), "trace_id": trace_id}
        spans.append(entry)
    if not spans:
        return
    anchor = time.time() - (time.perf_counter() - runner._wall0)
    lines = span_event_lines(
        {"spans": spans, "wall0_epoch": anchor, "process": "coord"},
        trial="coordinator",
        process="coord",
    )
    append_event_lines(layout.run_dir / "coordinator.events.jsonl", lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.experiments.distributed``.

    Launches one standalone queue worker; see :func:`run_worker`.
    """
    parser = argparse.ArgumentParser(
        prog="repro.experiments.distributed",
        description="Standalone worker for the file-queue execution backend.",
    )
    parser.add_argument(
        "--queue-dir",
        type=pathlib.Path,
        required=True,
        help="queue root (or a single run directory) to serve",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable worker name (default: w<pid>)",
    )
    parser.add_argument(
        "--shard",
        type=int,
        default=None,
        help="preferred task shard (omit to treat every task as local)",
    )
    parser.add_argument(
        "--once",
        action="store_true",
        help="exit after the first run completes instead of waiting for more",
    )
    parser.add_argument(
        "--crash-after-claims",
        type=int,
        default=None,
        help="fault injection: hard-crash after claiming this many tasks",
    )
    parser.add_argument(
        "--poll-s",
        type=float,
        default=0.02,
        help="idle polling interval in seconds",
    )
    parser.add_argument(
        "--telemetry-port",
        type=int,
        default=None,
        help="serve live /metrics,/healthz,/spans on this port (0 = ephemeral)",
    )
    args = parser.parse_args(argv)
    worker_id = args.worker_id or f"w{os.getpid()}"
    return run_worker(
        args.queue_dir,
        worker_id,
        shard=args.shard,
        crash_after_claims=args.crash_after_claims,
        once=args.once,
        poll_s=args.poll_s,
        telemetry_port=args.telemetry_port,
    )


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
