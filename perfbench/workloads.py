"""The benchmark's four workloads, their output checks and their traces.

Each workload makes its inputs from the seed it is given, times calls
into the program's public API from outside, and checks the outputs
after the timed window. ``run_untraced`` yields the end-to-end figures;
``run_traced`` runs every input twice, once plain and once with span
wrappers patched in (see :mod:`spans`), and yields the per-layer
figures plus the tracing overhead.

Workloads (all closed loop except the open-loop phase of
``revocation_stream``):

- ``paper_trial``: back-to-back full Section 4 deployments (1,000 nodes,
  110 beacons, 10 malicious, wormhole on) with the ``paper`` detector on
  the vectorized core, so the ``repro.vec`` kernels do most of the work.
- ``arena_faults``: arena-sized trials under 5% packet loss and 750-cycle
  RTT jitter, rotating over every registered detector and the arena P'
  grid; rivals run on the scalar event path, ``paper`` on the vec
  replay tier.
- ``revocation_stream``: a 4-shard ``RevocationService`` on a SQLite
  ledger fed a generated alert stream: an open-loop phase at a fixed
  offered rate, a drain phase through ``ingest``, and a cold restart
  that recovers from the ledger.
- ``sweep_queue``: a Figure-12 P' grid of small vectorized trials through
  the file-queue backend with two spawned workers per call.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import importlib
import math
import pathlib
import random
import resource
import shutil
import statistics
import sys
import time
from typing import Any, Dict, List, Optional, Tuple

from spans import Tracer

#: Fresh imports and object set-up repeated per run; setup_s is their median.
SETUP_ROUNDS = 5
#: Seconds between interleaved host-calibration rounds.
CALIBRATION_EVERY_S = 2.0


# ----------------------------------------------------------------------
# Shared measurement helpers
# ----------------------------------------------------------------------
def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values: List[float], q: float) -> Optional[float]:
    """The ``q`` percentile, or None unless at least 10 samples lie beyond it."""
    if len(values) * (1.0 - q) < 10:
        return None
    return percentile(values, q)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


class HostCalibration:
    """Fixed pure-Python and NumPy reference loops, run between workload ops.

    Their times let figures taken on different hosts be normalised.
    """

    def __init__(self) -> None:
        import numpy

        self._np = numpy
        self.py_ms: List[float] = []
        self.np_ms: List[float] = []
        self._last = -math.inf

    @staticmethod
    def _python_loop() -> int:
        acc = 0
        for i in range(100_000):
            acc = (acc + i * i) % 1_000_003
        return acc

    def _numpy_loop(self) -> float:
        data = self._np.random.default_rng(7).random(100_000)
        for _ in range(3):
            data = self._np.sort(self._np.cumsum(data) % 1.0)
        return float(data[-1])

    def run(self) -> None:
        """Time one round of both loops."""
        start = time.perf_counter()
        self._python_loop()
        middle = time.perf_counter()
        self._numpy_loop()
        end = time.perf_counter()
        self.py_ms.append((middle - start) * 1e3)
        self.np_ms.append((end - middle) * 1e3)
        self._last = end

    def maybe_run(self) -> None:
        """Run a round when the last one is older than the interleave period."""
        if time.perf_counter() - self._last >= CALIBRATION_EVERY_S:
            self.run()

    def metrics(self) -> Dict[str, float]:
        return {
            "host.calib_py_ms": statistics.median(self.py_ms),
            "host.calib_np_ms": statistics.median(self.np_ms),
        }


def import_fresh(names: Tuple[str, ...]) -> Dict[str, Any]:
    """Drop every loaded ``repro`` module, then import ``names`` again."""
    for loaded in [m for m in sys.modules if m == "repro" or m.startswith("repro.")]:
        del sys.modules[loaded]
    return {name: importlib.import_module(name) for name in names}


@dataclasses.dataclass
class Outcome:
    """What one run reports: op accounting, metrics, and human-only extras."""

    attempted: int = 0
    failed: int = 0
    metrics: Dict[str, float] = dataclasses.field(default_factory=dict)
    #: ISSUE-level names printed for people (units in ``run.UNITS``).
    extras: Dict[str, float] = dataclasses.field(default_factory=dict)


class Workload:
    """Base: set-up rounds, host calibration, and the run skeleton."""

    name = ""
    modules: Tuple[str, ...] = ()

    def __init__(self, seed: int, *, tiny: bool, workdir: pathlib.Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")
        self.corrupt = False
        self.calibration: Optional[HostCalibration] = None
        self.m: Dict[str, Any] = {}

    def set_up(self) -> float:
        """Time repeated fresh imports plus object set-up; returns the median."""
        times = []
        for _ in range(SETUP_ROUNDS):
            start = time.perf_counter()
            self.m = import_fresh(self.modules)
            self.open_round()
            times.append(time.perf_counter() - start)
        self.calibration = HostCalibration()
        self.calibration.run()
        return statistics.median(times)

    def open_round(self) -> None:
        """Per-round object set-up after the imports (backends, services)."""

    def inputs(self, n: int) -> list:
        """The first ``n`` generated inputs (for the same-seed self-test)."""
        raise NotImplementedError

    def run_untraced(self, seconds: float) -> Outcome:
        raise NotImplementedError

    def run_traced(self, seconds: float) -> Outcome:
        raise NotImplementedError


# ----------------------------------------------------------------------
# Trial workloads
# ----------------------------------------------------------------------
#: run()'s phase order, as (span name, public method).
PHASES = (
    ("build", "build"),
    ("collusion", "run_collusion"),
    ("detection", "run_detection"),
    ("notices", "run_notice_dissemination"),
    ("localization", "run_localization"),
    ("metrics", "collect_metrics"),
)

#: Deployment used by the self-test's tiny trials.
TINY_DEPLOYMENT = dict(
    n_total=120,
    n_beacons=18,
    n_malicious=3,
    field_width_ft=500.0,
    field_height_ft=500.0,
    rtt_calibration_samples=200,
    wormhole_endpoints=((100.0, 100.0), (380.0, 350.0)),
)

#: Hot-path counters summed over the first traced trials; they repeat
#: exactly for a given seed.
COUNTERS = {
    "sim.deliveries": "deliveries",
    "sim.distance_evals": "distance_evals",
    "sim.spatial_queries": "spatial_queries",
    "sim.grid_cells_visited": "grid_cells_visited",
    "vec.deliveries": "vec_deliveries",
    "vec.rtt_batched": "vec_rtt_batched",
    "vec.waves": "vec_waves",
    "faults.packet_loss": "fault_packet_loss",
    "faults.rtt_jitter": "fault_rtt_jitter",
}




@dataclasses.dataclass
class _Trial:
    """One executed trial: its input, output, timing and layer counts."""

    config: Any
    result: Any
    #: ``(verdict count, digest)`` from :func:`_outcomes`.
    outcomes: Tuple[int, int]
    seconds: float
    #: Detection-phase wall clock from the pipeline's own profile.
    detection_s: float
    agents: int
    counters: Dict[str, int]


def _outcomes(pipeline: Any) -> Tuple[int, int]:
    """Probe-verdict count and a digest of every prober's verdicts in order.

    The verdicts are state a result does not carry; the digest is only
    compared within one process, so ``hash`` is stable enough.
    """
    verdicts = tuple(
        (beacon.node_id, o.detecting_id, o.target_id, o.decision)
        for beacon in pipeline.benign_beacons
        for o in beacon.probe_outcomes
    )
    return len(verdicts), hash(verdicts)


def _trial(config: Any, result: Any, pipeline: Any, seconds: float) -> _Trial:
    snapshot = pipeline.profile_snapshot()
    counters = dict(snapshot["counters"])
    counters["events"] = pipeline.engine.events_processed
    return _Trial(
        config=config,
        result=result,
        outcomes=_outcomes(pipeline),
        seconds=seconds,
        detection_s=float(snapshot["phases"].get("detection", 0.0)),
        agents=len(pipeline.agents),
        counters=counters,
    )


class TrialWorkload(Workload):
    """Closed loop over pipeline trials; subclasses define the schedule."""

    modules = (
        "repro.core.pipeline",
        "repro.detectors",
        "repro.faults",
        "repro.experiments.arena",
        "repro.crypto.manager",
        "repro.localization.beacon",
        "repro.sim.engine",
        "repro.vec.localization",
        "repro.vec.detection",
        "repro.verify.invariants",
    )
    #: Leading traced trials whose counters are reported (whole rotations).
    count_trials = 2
    #: The window ends only on a multiple of this many trials.
    round_trials = 1

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._schedule: List[Any] = []

    def next_config(self, index: int) -> Any:
        raise NotImplementedError

    def config_at(self, index: int) -> Any:
        while len(self._schedule) <= index:
            self._schedule.append(self.next_config(len(self._schedule)))
        return self._schedule[index]

    def inputs(self, n: int) -> list:
        return [self.config_at(i) for i in range(n)]

    # -- one trial -------------------------------------------------------
    def _run_plain(self, config: Any) -> Tuple[_Trial, Any]:
        pipeline_cls = self.m["repro.core.pipeline"].SecureLocalizationPipeline
        start = time.perf_counter()
        pipeline = pipeline_cls(config)
        result = pipeline.run()
        seconds = time.perf_counter() - start
        return _trial(config, result, pipeline, seconds), pipeline

    def _run_traced(self, config: Any, tracer: Tracer) -> Tuple[_Trial, Any]:
        """The phases called in run()'s order, each inside its own span."""
        pipeline_cls = self.m["repro.core.pipeline"].SecureLocalizationPipeline
        start = time.perf_counter()
        with tracer.span("trial"):
            pipeline = pipeline_cls(config)
            for phase, method in PHASES:
                with tracer.span(f"pipeline.{phase}"):
                    result = getattr(pipeline, method)()
        seconds = time.perf_counter() - start
        return _trial(config, result, pipeline, seconds), pipeline

    @contextlib.contextmanager
    def _instrumented(self, tracer: Tracer, tally: Dict[str, int]) -> Any:
        """Patch span wrappers around each layer's public entry points."""
        detectors = self.m["repro.detectors"]

        def count_indict(verdict: Any) -> None:
            tally["indict"] += bool(verdict.indict)

        key_manager = self.m["repro.crypto.manager"].KeyManager
        tracer.wrap(key_manager, "sign", "crypto.sign")
        tracer.wrap(key_manager, "verify", "crypto.verify")
        for name in detectors.available_detectors():
            cls = type(detectors.make_detector(name))
            tracer.wrap(cls, "evaluate", "detectors.evaluate", observe=count_indict)
        tracer.wrap(
            self.m["repro.localization.beacon"].NonBeaconAgent,
            "estimate_position",
            "localization.solve",
        )
        vec_localization = self.m["repro.vec.localization"]
        tracer.wrap(vec_localization, "batched_estimate_errors", "localization.solve")
        tracer.wrap(
            vec_localization, "run_localization_vectorized", "vec.localization"
        )
        tracer.wrap(
            self.m["repro.vec.detection"], "run_detection_vectorized", "vec.detection"
        )
        tracer.wrap(self.m["repro.sim.engine"].Engine, "run", "sim.run")
        try:
            yield
        finally:
            tracer.restore()

    # -- checks ----------------------------------------------------------
    def check_trial(self, trial: _Trial, pipeline: Any) -> bool:
        """Per-trial output check, run outside the timed window."""
        result = trial.result
        rates_ok = all(
            rate is None or 0.0 <= rate <= 1.0
            for rate in (result.detection_rate, result.false_positive_rate)
        )
        return (
            rates_ok
            and result.probes_sent > 0
            and bool(result.localization_errors_ft)
        )

    def same(self, reference: _Trial, other: _Trial) -> bool:
        """Whether two runs agree; the self-test corrupts ``other`` first."""
        result = other.result
        if self.corrupt:
            result = dataclasses.replace(result, revoked_benign=result.revoked_benign + 1)
        return reference.result == result and reference.outcomes == other.outcomes

    def check_sample(self, trials: List[_Trial]) -> int:
        """Sampled reference checks; returns how many sampled trials failed."""
        raise NotImplementedError

    def _sample(self, trials: List[_Trial], k: int) -> List[_Trial]:
        if not trials:
            return []
        picker = random.Random(f"sample:{self.name}:{self.seed}")
        return [trials[0]] + picker.sample(trials[1:], min(k - 1, len(trials) - 1))

    # -- runs ------------------------------------------------------------
    def _op(self, index: int, run: Any) -> Tuple[Optional[_Trial], bool]:
        """Run one trial; returns it (None if it raised) and its check.

        The trial is charged a full collection of its own garbage. Left
        to the collector's thresholds, that work lands in every other
        trial as a ~100 ms pause and splits trial times into two modes
        whose median flips between runs.
        """
        try:
            trial, pipeline = run(self.config_at(index))
        except Exception as exc:  # a failed op is counted, not fatal
            print(f"{self.name}: trial {index} raised {exc!r}", file=sys.stderr)
            return None, False
        ok = self.check_trial(trial, pipeline)
        del pipeline
        start = time.perf_counter()
        gc.collect()
        trial.seconds += time.perf_counter() - start
        return trial, ok

    def run_untraced(self, seconds: float) -> Outcome:
        self._run_plain(self.config_at(0))  # warm-up, untimed
        trials: List[_Trial] = []
        failed = 0
        index = 0
        deadline = time.perf_counter() + seconds
        while index % self.round_trials or time.perf_counter() < deadline:
            if index % self.round_trials == 0:
                self.calibration.maybe_run()
            trial, ok = self._op(index, self._run_plain)
            failed += not ok
            if trial is not None:
                trials.append(trial)
            index += 1
        rss = peak_rss_mb()
        failed += self.check_sample(trials)
        busy = sum(t.seconds for t in trials)
        trial_ms = [t.seconds * 1e3 for t in trials]
        out = Outcome(attempted=index, failed=failed)
        out.metrics = {
            "throughput_per_s": len(trials) / busy,
            "latency_ms_p50": statistics.median(trial_ms),
            "peak_rss_mb": rss,
        }
        out.extras = {
            "trials_per_s": len(trials) / busy,
            "trial_ms_p50": statistics.median(trial_ms),
            "trials": len(trials),
        }
        p90 = tail(trial_ms, 0.9)
        if p90 is not None:
            out.extras["trial_ms_p90"] = p90
        out.extras.update(self.calibration.metrics())
        return out

    def run_traced(self, seconds: float) -> Outcome:
        self._run_plain(self.config_at(0))  # warm-up, untimed
        tracer = Tracer()
        tally = {"indict": 0}
        plain: List[_Trial] = []
        traced: List[_Trial] = []
        failed = 0
        index = 0
        deadline = time.perf_counter() + seconds
        while (
            index < self.count_trials
            or index % self.round_trials
            or time.perf_counter() < deadline
        ):
            if index % self.round_trials == 0:
                self.calibration.maybe_run()
            tracer.stream = index
            pair: Dict[str, Tuple[Optional[_Trial], bool]] = {}
            # Alternate which side runs first so slow drift cancels.
            for side in ("plain", "traced") if index % 2 else ("traced", "plain"):
                if side == "plain":
                    pair[side] = self._op(index, self._run_plain)
                else:
                    with self._instrumented(tracer, tally):
                        pair[side] = self._op(
                            index, lambda c: self._run_traced(c, tracer)
                        )
            (plain_trial, plain_ok), (traced_trial, traced_ok) = pair["plain"], pair["traced"]
            failed += not (plain_ok and traced_ok)
            if plain_trial is not None and traced_trial is not None:
                failed += not self.same(plain_trial, traced_trial)
                plain.append(plain_trial)
                traced.append(traced_trial)
            index += 1
        failed += self.check_sample(plain)
        out = Outcome(attempted=index, failed=failed)
        out.metrics = self._layer_metrics(tracer, tally, plain, traced)
        out.metrics.update(self.calibration.metrics())
        tracer.write(self.workdir.parent / f"trace-{self.name}-{self.seed}.json")
        return out

    def _layer_metrics(
        self,
        tracer: Tracer,
        tally: Dict[str, int],
        plain: List[_Trial],
        traced: List[_Trial],
    ) -> Dict[str, float]:
        n = len(traced)
        counted = traced[: self.count_trials]
        metrics: Dict[str, float] = {
            name: sum(t.counters.get(key, 0) for t in counted)
            for name, key in COUNTERS.items()
        }
        metrics["sim.events"] = sum(t.counters["events"] for t in counted)
        metrics["detectors.consistent_indicts"] = sum(
            t.counters.get("consistent_indicts", 0) for t in counted
        )
        for name, span in (
            ("crypto.sign_calls", "crypto.sign"),
            ("crypto.verify_calls", "crypto.verify"),
            ("detectors.evaluate_calls", "detectors.evaluate"),
        ):
            metrics[name] = sum(
                1 for s in tracer.spans() if s[0] == span and s[4] < self.count_trials
            )
        for phase in ("build", "collusion", "detection", "localization", "metrics"):
            metrics[f"pipeline.{phase}_s"] = tracer.totals(f"pipeline.{phase}")[1] / n
        metrics["crypto.sign_s"] = tracer.totals("crypto.sign")[1] / n
        metrics["crypto.verify_s"] = tracer.totals("crypto.verify")[1] / n
        evaluations, evaluate_s = tracer.totals("detectors.evaluate")
        metrics["detectors.evaluate_s"] = evaluate_s / n
        metrics["detectors.evaluate_us_per_call"] = (
            evaluate_s / evaluations * 1e6 if evaluations else 0.0
        )
        metrics["detectors.indict_ratio"] = (
            tally["indict"] / evaluations if evaluations else 0.0
        )
        decisions = sum(t.outcomes[0] for t in plain)
        metrics["detectors.phase_us_per_decision"] = (
            sum(t.detection_s for t in plain) / decisions * 1e6 if decisions else 0.0
        )
        metrics["localization.solve_s"] = tracer.totals("localization.solve")[1] / n
        metrics["localization.solved_ratio"] = sum(
            len(t.result.localization_errors_ft) for t in traced
        ) / sum(t.agents for t in traced)
        accepted = sum(t.result.alerts_accepted for t in traced)
        submitted = accepted + sum(t.result.alerts_rejected for t in traced)
        metrics["revocation.alerts_accepted_ratio"] = accepted / submitted
        for layer, seconds in tracer.self_seconds().items():
            metrics[f"{layer}.self_s"] = seconds / n
        trial_s = sum(tracer.durations("trial"))
        phase_s = sum(s[2] - s[1] for s in tracer.spans() if s[0].startswith("pipeline."))
        metrics["trace.phase_coverage"] = phase_s / trial_s
        metrics["trace.overhead_pct"] = (
            sum(t.seconds for t in traced) / sum(t.seconds for t in plain) - 1.0
        ) * 100.0
        metrics["trace.spans"] = len(tracer)
        return metrics


class PaperTrial(TrialWorkload):
    """Full Section 4 deployments, ``paper`` detector, vectorized core."""

    name = "paper_trial"
    #: Scalar reference runs per check (about 2 s each).
    sample_checks = 2

    def next_config(self, index: int) -> Any:
        pipeline_config = self.m["repro.core.pipeline"].PipelineConfig
        kwargs = dict(TINY_DEPLOYMENT) if self.tiny else {}
        return pipeline_config(
            seed=self.rng.randrange(2**31), use_vectorized_core=True, **kwargs
        )

    #: Largest vec/scalar difference allowed per localization error, in
    #: feet: the parity rule documented on ``use_vectorized_core``
    #: ("everything bit-identical except localization errors (<= ~1e-3 ft)").
    localization_tolerance_ft = 1e-3

    def check_sample(self, trials: List[_Trial]) -> int:
        """Sampled trials must equal the scalar reference under the parity rules."""
        failed = 0
        for trial in self._sample(trials, self.sample_checks):
            scalar_config = dataclasses.replace(trial.config, use_vectorized_core=False)
            reference, _ = self._run_plain(scalar_config)
            failed += not self._parity(reference, trial)
        return failed

    def _parity(self, scalar: _Trial, vec: _Trial) -> bool:
        """Exact equality except localization errors, which may differ slightly."""
        scalar_errors = scalar.result.localization_errors_ft
        vec_errors = vec.result.localization_errors_ft
        close = len(scalar_errors) == len(vec_errors) and all(
            abs(a - b) <= self.localization_tolerance_ft
            for a, b in zip(scalar_errors, vec_errors)
        )
        without_errors = dataclasses.replace(vec, result=dataclasses.replace(
            vec.result, localization_errors_ft=scalar_errors
        ))
        return close and self.same(scalar, without_errors)


class ArenaFaults(TrialWorkload):
    """Arena trials on a faulty channel, rotating detectors and P'."""

    name = "arena_faults"
    sample_checks = 1

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._round_seed = 0

    def open_round(self) -> None:
        detectors = self.m["repro.detectors"].available_detectors()
        self.round_trials = len(detectors)
        self.count_trials = 2 * len(detectors)

    def next_config(self, index: int) -> Any:
        arena = self.m["repro.experiments.arena"]
        detectors = self.m["repro.detectors"].available_detectors()
        fault_config = self.m["repro.faults"].FaultConfig
        pipeline_config = self.m["repro.core.pipeline"].PipelineConfig
        rotation, position = divmod(index, len(detectors))
        if position == 0:
            # Every detector of one rotation faces the same deployment.
            self._round_seed = self.rng.randrange(2**31)
        deployment = dict(arena.ARENA_CONFIG)
        if self.tiny:
            deployment.update(TINY_DEPLOYMENT)
        return pipeline_config(
            detector=detectors[position],
            p_prime=arena.ARENA_P_GRID[rotation % len(arena.ARENA_P_GRID)],
            seed=self._round_seed,
            use_vectorized_core=True,
            faults=fault_config(packet_loss_rate=0.05, rtt_jitter_cycles=750.0),
            **deployment,
        )

    def check_trial(self, trial: _Trial, pipeline: Any) -> bool:
        """Sanity plus the trace invariants.

        ``paper`` trials must pass all of ``run_invariants``. Rival
        trials must pass its base-station half (alert quota, monotone
        revocation): the repository scopes the consistent-never-indicts
        invariant to the paper detector (docs/ARENA.md,
        ``repro.verify.detectors``), and the rivals may indict a signal
        that passes the Section 2.1 check. Those rival verdicts are
        counted as ``detectors.consistent_indicts`` instead.
        """
        invariants = self.m["repro.verify.invariants"]
        config = trial.config
        malicious = {b.node_id for b in pipeline.malicious_beacons}
        if config.detector == "paper":
            violations = invariants.run_invariants(
                pipeline.trace,
                tau_report=config.tau_report,
                tau_alert=config.tau_alert,
                reporter_ids=malicious,
            )
        else:
            violations = invariants.check_alert_quota(
                pipeline.trace, config.tau_report, malicious
            ) + invariants.check_revocation_monotone(pipeline.trace, config.tau_alert)
            trial.counters["consistent_indicts"] = len(
                invariants.check_consistent_never_indicts(pipeline.trace)
            )
        return super().check_trial(trial, pipeline) and not violations

    def check_sample(self, trials: List[_Trial]) -> int:
        """A sampled trial re-run must reproduce its result exactly."""
        failed = 0
        for trial in self._sample(trials, self.sample_checks):
            rerun, _ = self._run_plain(trial.config)
            failed += not self.same(rerun, trial)
        return failed


# ----------------------------------------------------------------------
# revocation_stream
# ----------------------------------------------------------------------
class TimedLedger:
    """Timing proxy around the persistence backend the service is given."""

    def __init__(self, inner: Any, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer
        self.appends = 0
        self.records = 0

    def append_records(self, records: List[Dict[str, Any]]) -> None:
        with self.tracer.span("ledger.append"):
            self.inner.append_records(records)
        self.appends += 1
        self.records += len(records)

    def read_records(self, after_seq: int = 0) -> Any:
        """Yield the inner records, summing the time spent inside the iterator."""
        start = time.perf_counter()
        inside = 0.0
        iterator = iter(self.inner.read_records(after_seq))
        while True:
            t0 = time.perf_counter()
            try:
                record = next(iterator)
            except StopIteration:
                inside += time.perf_counter() - t0
                break
            inside += time.perf_counter() - t0
            yield record
        self.tracer.add_closed("ledger.read", start, inside)

    def write_snapshot(self, snapshot: Dict[str, Any]) -> None:
        with self.tracer.span("ledger.snapshot"):
            self.inner.write_snapshot(snapshot)

    def load_snapshot(self) -> Optional[Dict[str, Any]]:
        with self.tracer.span("ledger.snapshot"):
            return self.inner.load_snapshot()

    def close(self) -> None:
        self.inner.close()


@dataclasses.dataclass
class _Cycle:
    """One open-loop + drain + cold-restart cycle and what it produced."""

    alerts: List[Tuple[int, int]]
    latency_ms: List[float]
    lag_ms: List[float]
    pending_max: int
    drain_alerts: int
    drain_s: float
    #: Wall clock of each ``ingest`` call (one batch) in the drain phase.
    ingest_ms: List[float]
    recover_s: float
    records: int
    decisions: List[Tuple[bool, str]]
    state: Dict[str, Any]
    recovered_equal: bool
    flush_ms: List[float] = dataclasses.field(default_factory=list)
    ledger_append_s: float = 0.0
    ledger_records: int = 0
    ledger_appends: int = 0


class RevocationStream(Workload):
    """Open-loop, drain and cold-restart phases on a sharded SQLite service."""

    name = "revocation_stream"
    modules = (
        "repro.core.revocation",
        "repro.crypto.manager",
        "repro.revocation.persistence",
        "repro.revocation.service",
    )
    #: Offered rate of the open-loop phase. The service then runs at a
    #: fifth to a quarter of its drain capacity on a 2-CPU host; nearer
    #: half, open-loop latency swings several-fold with host contention.
    rate_per_s = 7_500.0
    #: The generator flushes at least this often, even when behind.
    max_flush_gap_s = 0.005
    #: Alerts mostly name IDs in this space (shallow conflict waves) ...
    id_space = 5_000
    #: ... except this share, sent as colluder bursts (deep waves): a few
    #: detectors each accusing the same few targets.
    burst_share = 0.10
    shards = 4
    batch = 256

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        # Short cycles: the figures pool many of them, so a burst of host
        # contention lands in only a few.
        self.open_alerts = 750 if self.tiny else 7_500
        self.drain_alerts = 2_000 if self.tiny else 15_000

    def _ledger_path(self, tag: str) -> pathlib.Path:
        path = self.workdir / f"ledger-{tag}.sqlite"
        if path.exists():
            path.unlink()
        return path

    def open_round(self) -> None:
        """Open a SQLite ledger and start and stop a service on it."""
        persistence = self.m["repro.revocation.persistence"]
        service_cls = self.m["repro.revocation.service"].RevocationService
        path = self._ledger_path("setup")
        backend = persistence.SqliteBackend(path)

        async def start_stop() -> None:
            service = service_cls(n_shards=self.shards, backend=backend, batch_size=self.batch)
            await service.start()
            await service.stop()

        try:
            asyncio.run(start_stop())
        finally:
            backend.close()
        path.unlink()

    def stream(self, cycle: int) -> List[Tuple[int, int]]:
        """The cycle's ``(detector, target)`` alerts, generated from the seed."""
        rng = random.Random(f"{self.name}:{self.seed}:{cycle}")
        n = self.open_alerts + self.drain_alerts
        out: List[Tuple[int, int]] = []
        while len(out) < n:
            if rng.random() < self.burst_share:
                colluders = rng.sample(range(self.id_space), 4)
                targets = rng.sample(range(self.id_space), 4)
                out.extend(
                    (d, t) for _ in range(2) for d in colluders for t in targets if d != t
                )
            else:
                for _ in range(32):
                    d = rng.randrange(self.id_space)
                    t = rng.randrange(self.id_space - 1)
                    out.append((d, t + (t >= d)))
        return out[:n]

    def inputs(self, n: int) -> list:
        return self.stream(0)[:n]

    # -- one cycle -------------------------------------------------------
    async def _open_loop(self, service: Any, alerts: List[Tuple[int, int]]) -> tuple:
        """Submit on a fixed schedule; latency runs from each alert's due time."""
        n = len(alerts)
        interval = 1.0 / self.rate_per_s
        clock = time.perf_counter
        latency = [math.nan] * n
        lag = [0.0] * n
        state = {"outstanding": 0}
        pending_max = 0

        def resolved(i: int, due: float, future: Any) -> None:
            latency[i] = (clock() - due) * 1e3
            state["outstanding"] -= 1

        first_due = clock() + 0.001
        last_flush = clock()
        last_future = None
        i = 0
        while i < n:
            due = first_due + i * interval
            now = clock()
            if due <= now and now - last_flush < self.max_flush_gap_s:
                detector, target = alerts[i]
                future = await service.submit(detector, target, time=float(i))
                lag[i] = (clock() - due) * 1e3
                future.add_done_callback(lambda f, i=i, due=due: resolved(i, due, f))
                state["outstanding"] += 1
                pending_max = max(pending_max, state["outstanding"])
                last_future = future
                i += 1
                continue
            # Ahead of schedule, or a flush is overdue.
            if last_future is not None and not last_future.done():
                await service.flush()
            last_flush = clock()
            delay = first_due + i * interval - clock()
            if delay > 0:
                await asyncio.sleep(delay)
        await service.flush()
        await asyncio.sleep(0)  # let the last done-callbacks run
        return latency, lag, pending_max

    async def _cycle(self, index: int, tracer: Optional[Tracer]) -> _Cycle:
        persistence = self.m["repro.revocation.persistence"]
        service_cls = self.m["repro.revocation.service"].RevocationService
        alerts = self.stream(index)
        open_part = alerts[: self.open_alerts]
        drain_part = [
            (d, t, float(self.open_alerts + k))
            for k, (d, t) in enumerate(alerts[self.open_alerts :])
        ]
        path = self._ledger_path(f"c{index}")
        spans = tracer.span if tracer is not None else _no_span

        def backend() -> Any:
            inner = persistence.SqliteBackend(path)
            return TimedLedger(inner, tracer) if tracer is not None else inner

        ledger = backend()
        service = service_cls(n_shards=self.shards, backend=ledger, batch_size=self.batch)
        if tracer is not None:
            tracer.wrap_async(service, "flush", "svc.flush")
        try:
            await service.start()
            with spans("loadgen.open_loop"):
                latency, lag, pending_max = await self._open_loop(service, open_part)
            with spans("loadgen.drain"):
                ingest_ms = []
                start = time.perf_counter()
                for first in range(0, len(drain_part), self.batch):
                    call = time.perf_counter()
                    await service.ingest(drain_part[first : first + self.batch])
                    ingest_ms.append((time.perf_counter() - call) * 1e3)
                drain_s = time.perf_counter() - start
            decisions = [(r.accepted, r.reason) for r in service.decisions]
            state = service.counter_state().to_dict()
            await service.stop()
        finally:
            ledger.close()
        with spans("loadgen.restart"):
            restarted_ledger = backend()
            restarted = service_cls(
                n_shards=self.shards, backend=restarted_ledger, batch_size=self.batch
            )
            if tracer is not None:
                tracer.wrap_async(restarted, "start", "svc.recover")
            try:
                start = time.perf_counter()
                await restarted.start()
                recover_s = time.perf_counter() - start
                recovered_equal = (
                    restarted.counter_state().to_dict() == state
                    and [(r.accepted, r.reason) for r in restarted.decisions] == decisions
                )
                records = len(restarted.decisions)
                await restarted.stop()
            finally:
                restarted_ledger.close()
        path.unlink()
        cycle = _Cycle(
            alerts=alerts,
            latency_ms=latency,
            lag_ms=lag,
            pending_max=pending_max,
            drain_alerts=len(drain_part),
            drain_s=drain_s,
            ingest_ms=ingest_ms,
            recover_s=recover_s,
            records=records,
            decisions=decisions,
            state=state,
            recovered_equal=recovered_equal,
        )
        if tracer is not None:
            cycle.ledger_appends = ledger.appends
            cycle.ledger_records = ledger.records
        return cycle

    def _run_cycle(self, index: int, tracer: Optional[Tracer] = None) -> _Cycle:
        # Start each cycle from a collected heap, so garbage left by the
        # previous one does not land a collection pause in this one.
        gc.collect()
        if tracer is None:
            return asyncio.run(self._cycle(index, None))
        tracer.stream = index
        mark = len(tracer)
        try:
            with tracer.span("loadgen.cycle"):
                cycle = asyncio.run(self._cycle(index, tracer))
        finally:
            tracer.restore()  # drop the patched services with their state
        mine = list(tracer.spans(mark))
        cycle.flush_ms = [(s[2] - s[1]) * 1e3 for s in mine if s[0] == "svc.flush"]
        cycle.ledger_append_s = sum(s[2] - s[1] for s in mine if s[0] == "ledger.append")
        return cycle

    # -- checks ----------------------------------------------------------
    def check(self, cycle: _Cycle) -> int:
        """Failed alerts: unresolved, or decided unlike an in-process BaseStation.

        Runs right after its cycle, outside the timed phases, and then
        drops the cycle's per-alert data so it does not grow the heap
        the next cycle is timed on.
        """
        revocation = self.m["repro.core.revocation"]
        station = revocation.BaseStation(self.m["repro.crypto.manager"].KeyManager())
        for seq, (detector, target) in enumerate(cycle.alerts):
            station.submit_alert(detector, target, verify=False, time=float(seq))
        decisions = list(cycle.decisions)
        if self.corrupt:
            accepted, reason = decisions[0]
            decisions[0] = (not accepted, reason)
        failed = sum(
            1
            for record, decision in zip(station.log, decisions)
            if (record.accepted, record.reason) != decision
        )
        failed += abs(len(station.log) - len(decisions))
        failed += sum(1 for value in cycle.latency_ms if math.isnan(value))
        if station.state.to_dict() != cycle.state or not cycle.recovered_equal:
            failed = max(failed, 1)
        cycle.alerts = cycle.decisions = cycle.state = None
        return failed

    # -- runs ------------------------------------------------------------
    def run_untraced(self, seconds: float) -> Outcome:
        cycles: List[_Cycle] = []
        failed = 0
        attempted = 0
        deadline = time.perf_counter() + seconds
        while not cycles or time.perf_counter() < deadline:
            self.calibration.maybe_run()
            cycles.append(self._run_cycle(len(cycles)))
            attempted += len(cycles[-1].alerts)
            failed += self.check(cycles[-1])
        rss = peak_rss_mb()
        latency = [v for c in cycles for v in c.latency_ms if not math.isnan(v)]
        # Median over cycles: a ledger commit stalled by other users of the
        # disk slows a whole cycle's drain, and a pooled rate would carry
        # every such stall into the figure.
        drain_rate = statistics.median(c.drain_alerts / c.drain_s for c in cycles)
        out = Outcome(attempted=attempted, failed=failed)
        out.metrics = {
            "throughput_per_s": drain_rate,
            # The drain's per-batch ingest latency, not the open-loop alert
            # latency: at the open-loop rate every flush commits a handful
            # of alerts, so that latency is mostly one SQLite commit and
            # moves by a third between runs with the host's disk load.
            "latency_ms_p50": statistics.median(v for c in cycles for v in c.ingest_ms),
            "peak_rss_mb": rss,
        }
        out.extras = {
            "alerts_per_s": drain_rate,
            "alert_latency_ms_p50": statistics.median(latency),
            "recovery_records_per_s": sum(c.records for c in cycles)
            / sum(c.recover_s for c in cycles),
            "cycles": len(cycles),
        }
        p99 = tail(latency, 0.99)
        if p99 is not None:
            out.extras["alert_latency_ms_p99"] = p99
        out.extras.update(self.calibration.metrics())
        return out

    def run_traced(self, seconds: float) -> Outcome:
        tracer = Tracer()
        plain: List[_Cycle] = []
        traced: List[_Cycle] = []
        failed = 0
        attempted = 0
        deadline = time.perf_counter() + seconds
        while not traced or time.perf_counter() < deadline:
            self.calibration.maybe_run()
            index = len(traced)
            for side in ("plain", "traced") if index % 2 else ("traced", "plain"):
                if side == "plain":
                    cycle = self._run_cycle(index)
                    plain.append(cycle)
                else:
                    cycle = self._run_cycle(index, tracer)
                    traced.append(cycle)
                attempted += len(cycle.alerts)
                failed += self.check(cycle)
        n = len(traced)
        flush_ms = [v for c in traced for v in c.flush_ms]
        lag = [v for c in plain for v in c.lag_ms]
        open_loop = [v for c in plain for v in c.latency_ms if not math.isnan(v)]
        metrics: Dict[str, float] = {
            "svc.flush_calls": sum(len(c.flush_ms) for c in traced) / n,
            "svc.flush_ms_p50": statistics.median(flush_ms),
            "svc.flush_ms_p99": percentile(flush_ms, 0.99),
            "svc.batch_alerts_mean": sum(c.ledger_records for c in traced)
            / sum(c.ledger_appends for c in traced),
            "svc.pending_max": max(c.pending_max for c in traced),
            "svc.ledger_append_s": sum(c.ledger_append_s for c in traced) / n,
            "svc.ledger_records": traced[0].ledger_records,
            "svc.recover_s": tracer.totals("svc.recover")[1] / n,
            "svc.recovery_records_per_s": sum(c.records for c in traced)
            / tracer.totals("svc.recover")[1],
            "svc.alert_latency_ms_p50": statistics.median(open_loop),
            "svc.alert_latency_ms_p99": percentile(open_loop, 0.99),
            "loadgen.lag_ms_p99": percentile(lag, 0.99),
            "loadgen.lag_ms_max": max(lag),
        }
        for layer, seconds_ in tracer.self_seconds().items():
            metrics[f"{layer}.self_s"] = seconds_ / n
        closed_loop = lambda cs: sum(c.drain_s + c.recover_s for c in cs)  # noqa: E731
        metrics["trace.overhead_pct"] = (closed_loop(traced) / closed_loop(plain) - 1.0) * 100.0
        metrics["trace.spans"] = len(tracer)
        metrics.update(self.calibration.metrics())
        tracer.write(self.workdir.parent / f"trace-{self.name}-{self.seed}.json")
        out = Outcome(attempted=attempted, failed=failed)
        out.metrics = metrics
        return out


@contextlib.contextmanager
def _no_span(name: str) -> Any:
    yield


# ----------------------------------------------------------------------
# sweep_queue
# ----------------------------------------------------------------------
@dataclasses.dataclass
class _Call:
    """One queue-backend sweep call."""

    results: list
    wall_s: float
    first_result_s: float
    task_s: float
    steals: int
    requeues: int
    claims: int
    completed: int
    errors: int


class SweepQueue(Workload):
    """A P' grid of small vectorized trials through the file-queue backend."""

    name = "sweep_queue"
    modules = (
        "repro.core.pipeline",
        "repro.experiments.arena",
        "repro.experiments.distributed",
        "repro.experiments.runner",
    )
    workers = 2
    #: Small deployment: the queue protocol, not the trial, dominates.
    deployment = dict(
        n_total=200,
        n_beacons=30,
        n_malicious=4,
        field_width_ft=500.0,
        field_height_ft=500.0,
        m_detecting_ids=4,
        rtt_calibration_samples=300,
        wormhole_endpoints=((100.0, 100.0), (400.0, 350.0)),
    )

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.queue_dir = self.workdir / "queue"
        self._configs: Optional[list] = None

    def open_round(self) -> None:
        """Create the queue directory and a queue-backend runner."""
        self.queue_dir.mkdir(parents=True, exist_ok=True)
        self._runner()

    def _runner(self, progress: Any = None) -> Any:
        return self.m["repro.experiments.runner"].ExperimentRunner(
            backend="queue",
            n_workers=self.workers,
            queue_dir=self.queue_dir,
            progress=progress,
        )

    def configs(self) -> list:
        if self._configs is None:
            pipeline_config = self.m["repro.core.pipeline"].PipelineConfig
            grid = self.m["repro.experiments.arena"].ARENA_P_GRID
            trials = 6
            deployment = self.deployment
            if self.tiny:
                grid, trials, deployment = grid[:2], 2, TINY_DEPLOYMENT
            self._configs = [
                pipeline_config(
                    p_prime=p,
                    seed=self.rng.randrange(2**31),
                    use_vectorized_core=True,
                    **deployment,
                )
                for p in grid
                for _ in range(trials)
            ]
        return self._configs

    def inputs(self, n: int) -> list:
        return self.configs()[:n]

    def _call(self) -> _Call:
        completions: List[float] = []
        runner = self._runner(progress=lambda event: completions.append(time.perf_counter()))
        start = time.perf_counter()
        results = runner.run_pipeline_configs(self.configs())
        wall = time.perf_counter() - start
        for run_dir in self.queue_dir.iterdir():
            shutil.rmtree(run_dir)
        stats = runner.stats
        return _Call(
            results=results,
            wall_s=wall,
            first_result_s=completions[0] - start,
            task_s=sum(stats.task_seconds.values()),
            steals=stats.steals,
            requeues=stats.requeues,
            claims=sum(int(w.get("claims", 0)) for w in stats.worker_snapshots),
            completed=sum(int(w.get("completed", 0)) for w in stats.worker_snapshots),
            errors=len(stats.errors),
        )

    def check(self, calls: List[_Call]) -> int:
        """Failed trials: each call's results must equal one serial run."""
        serial = self.m["repro.experiments.runner"].ExperimentRunner().run_pipeline_configs(
            self.configs()
        )
        failed = 0
        for number, call in enumerate(calls):
            results = list(call.results)
            if self.corrupt and number == 0:
                results[0] = dict(results[0], detection_rate=-1.0)
            failed += sum(1 for a, b in zip(results, serial) if a != b) + call.errors
        return failed

    def _timed_calls(self, seconds: float, tracer: Optional[Tracer]) -> tuple:
        self._call()  # warm-up, untimed
        plain: List[_Call] = []
        traced: List[_Call] = []
        deadline = time.perf_counter() + seconds
        while not plain or time.perf_counter() < deadline:
            self.calibration.maybe_run()
            if tracer is None:
                plain.append(self._call())
                continue
            index = len(plain)
            tracer.stream = index
            for side in ("plain", "traced") if index % 2 else ("traced", "plain"):
                if side == "plain":
                    plain.append(self._call())
                else:
                    with tracer.span("queue.sweep"):
                        traced.append(self._call())
        return plain, traced

    def run_untraced(self, seconds: float) -> Outcome:
        calls, _ = self._timed_calls(seconds, None)
        rss = peak_rss_mb()
        trials = len(self.configs())
        failed = self.check(calls)
        rate = trials * len(calls) / sum(c.wall_s for c in calls)
        out = Outcome(attempted=trials * len(calls), failed=failed)
        out.metrics = {
            "throughput_per_s": rate,
            "latency_ms_p50": statistics.median(c.wall_s * 1e3 for c in calls),
            "peak_rss_mb": rss,
        }
        out.extras = {
            "trials_per_s": rate,
            "sweep_ms_p50": out.metrics["latency_ms_p50"],
            "sweeps": len(calls),
        }
        out.extras.update(self.calibration.metrics())
        return out

    def run_traced(self, seconds: float) -> Outcome:
        tracer = Tracer()
        plain, traced = self._timed_calls(seconds, tracer)
        calls = plain + traced
        trials = len(self.configs())
        failed = self.check(calls)
        metrics: Dict[str, float] = {
            "queue.first_result_s": statistics.median(c.first_result_s for c in calls),
            "queue.task_s_sum": statistics.mean(c.task_s for c in calls),
            "queue.overhead_ms_per_trial": statistics.mean(
                (self.workers * c.wall_s - c.task_s) / trials * 1e3 for c in calls
            ),
            "queue.steals": sum(c.steals for c in calls),
            "queue.requeues": sum(c.requeues for c in calls),
            "queue.useful_ratio": sum(c.completed for c in calls)
            / sum(c.claims for c in calls),
        }
        for layer, seconds_ in tracer.self_seconds().items():
            metrics[f"{layer}.self_s"] = seconds_ / len(traced)
        metrics["trace.overhead_pct"] = (
            sum(c.wall_s for c in traced) / sum(c.wall_s for c in plain) - 1.0
        ) * 100.0
        metrics["trace.spans"] = len(tracer)
        metrics.update(self.calibration.metrics())
        tracer.write(self.workdir.parent / f"trace-{self.name}-{self.seed}.json")
        out = Outcome(attempted=trials * len(calls), failed=failed)
        out.metrics = metrics
        return out


WORKLOADS = {
    cls.name: cls for cls in (PaperTrial, ArenaFaults, RevocationStream, SweepQueue)
}
