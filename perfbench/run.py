"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_trial --seed 1 --seconds 25 --trace 0

Workloads: ``paper_trial``, ``arena_faults``, ``revocation_stream`` and
``sweep_queue`` (see :mod:`workloads`). The inputs are generated from
``--seed``; the same seed gives the same inputs. The run times calls into
the program for ``--seconds`` seconds, then checks the outputs.

Every line but the last is one ``name value unit`` figure for people.
The last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones (:data:`END_TO_END`), measured with no tracing; with
``--trace 1`` they are the per-layer ones (:data:`PER_LAYER`), from a run
that executes every input twice, once plain and once traced, and writes
its spans to ``.perfbench/trace-<workload>-<seed>.json``. A layer the
workload does not exercise reads 0.

End-to-end metrics, the same four on every workload:

- ``setup_s``: median of five rounds of fresh ``repro`` imports plus the
  workload's object set-up (ledger open and service start, queue runner
  creation) before the first timed operation.
- ``throughput_per_s``: trials per busy second on the trial workloads
  and ``sweep_queue``; alerts per second through ``ingest`` in the
  drain phase of ``revocation_stream`` (median over its cycles).
- ``latency_ms_p50``: median trial wall clock on the trial workloads;
  median wall clock of one drain-phase ``ingest`` call of 256 alerts on
  ``revocation_stream``; median sweep-call wall clock, worker spawn
  included, on ``sweep_queue``. The open-loop alert latency of
  ``revocation_stream`` (from the time each alert was due to the moment
  its future resolved) is printed as ``alert_latency_ms_p50`` / ``_p99``
  and traced as ``svc.alert_latency_ms_*``; it tracks single SQLite
  commits too closely to gate on a shared disk.
- ``peak_rss_mb``: peak resident set of the process plus its largest
  child (the queue workers), read right after the timed window.

``error_rate`` (failed / attempted, a wrong output counting as failed)
is the ``failed`` and ``attempted`` pair of the last line. The exit code
is 0 when every output check passed, 1 when one failed, and 2 when the
program under test cannot be found.

``--tiny`` shrinks every workload and ``--corrupt`` falsifies one output
before it is checked; both exist for ``perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: End-to-end metrics and their units (``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics and their units (``--trace 1``). Counts are summed
#: over the first traced trials (fixed by the seed) and repeat exactly;
#: ``*_s`` figures are per trial, per revocation cycle or per sweep call.
PER_LAYER = {
    # core.pipeline: the public phase methods, called in run()'s order.
    "pipeline.build_s": "s",
    "pipeline.collusion_s": "s",
    "pipeline.detection_s": "s",
    "pipeline.localization_s": "s",
    "pipeline.metrics_s": "s",
    # repro.vec batch kernels.
    "vec.deliveries": "count",
    "vec.rtt_batched": "count",
    "vec.waves": "count",
    # sim: event engine and network.
    "sim.events": "count",
    "sim.deliveries": "count",
    "sim.distance_evals": "count",
    "sim.spatial_queries": "count",
    "sim.grid_cells_visited": "count",
    # crypto: KeyManager.sign / verify.
    "crypto.sign_calls": "count",
    "crypto.sign_s": "s",
    "crypto.verify_calls": "count",
    "crypto.verify_s": "s",
    # detectors: Detector.evaluate.
    "detectors.evaluate_calls": "count",
    "detectors.evaluate_s": "s",
    "detectors.evaluate_us_per_call": "us",
    "detectors.phase_us_per_decision": "us",
    "detectors.indict_ratio": "ratio",
    # Rival verdicts that indict a signal passing the Section 2.1 check.
    "detectors.consistent_indicts": "count",
    # localization: position solving.
    "localization.solve_s": "s",
    "localization.solved_ratio": "ratio",
    # faults: injected events.
    "faults.packet_loss": "count",
    "faults.rtt_jitter": "count",
    # core.revocation: the in-trial base station.
    "revocation.alerts_accepted_ratio": "ratio",
    # revocation service and its ledger (through a timing proxy).
    "svc.flush_calls": "count",
    "svc.flush_ms_p50": "ms",
    "svc.flush_ms_p99": "ms",
    "svc.batch_alerts_mean": "count",
    "svc.pending_max": "count",
    "svc.ledger_append_s": "s",
    "svc.ledger_records": "count",
    "svc.recover_s": "s",
    "svc.recovery_records_per_s": "1/s",
    "svc.alert_latency_ms_p50": "ms",
    "svc.alert_latency_ms_p99": "ms",
    # experiments: the file-queue backend.
    "queue.first_result_s": "s",
    "queue.task_s_sum": "s",
    "queue.overhead_ms_per_trial": "ms",
    "queue.steals": "count",
    "queue.requeues": "count",
    "queue.useful_ratio": "ratio",
    # Self time per layer: span time not covered by child spans.
    "trial.self_s": "s",
    "pipeline.self_s": "s",
    "vec.self_s": "s",
    "sim.self_s": "s",
    "crypto.self_s": "s",
    "detectors.self_s": "s",
    "localization.self_s": "s",
    "loadgen.self_s": "s",
    "svc.self_s": "s",
    "ledger.self_s": "s",
    "queue.self_s": "s",
    # The benchmark itself.
    "loadgen.lag_ms_p99": "ms",
    "loadgen.lag_ms_max": "ms",
    "trace.overhead_pct": "%",
    "trace.phase_coverage": "ratio",
    "trace.spans": "count",
    "host.calib_py_ms": "ms",
    "host.calib_np_ms": "ms",
}

#: Figures printed for people only, by workload.
EXTRAS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "trials": "count",
    "alerts_per_s": "1/s",
    "alert_latency_ms_p50": "ms",
    "alert_latency_ms_p99": "ms",
    "recovery_records_per_s": "1/s",
    "cycles": "count",
    "sweep_ms_p50": "ms",
    "sweeps": "count",
    "host.calib_py_ms": "ms",
    "host.calib_np_ms": "ms",
}


def parse_args(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper_trial", "arena_faults", "revocation_stream", "sweep_queue"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test size")
    parser.add_argument("--corrupt", action="store_true", help="self-test: falsify one output")
    return parser.parse_args(argv)


def main(argv: list) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny, workdir=workdir)
        workload.corrupt = args.corrupt
        setup_s = workload.set_up()
        if args.trace:
            outcome = workload.run_traced(args.seconds)
        else:
            outcome = workload.run_untraced(args.seconds)
            outcome.metrics["setup_s"] = setup_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    expected = PER_LAYER if args.trace else END_TO_END
    unknown = set(outcome.metrics) - set(expected)
    if unknown:
        raise RuntimeError(f"workload reported undeclared metrics: {sorted(unknown)}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in expected.items()
    }
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, value in outcome.extras.items():
        print(f"{name} {value:.6g} {EXTRAS[name]}")
    print(f"error_rate {outcome.failed / outcome.attempted:.6g} ratio")
    correct = outcome.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
