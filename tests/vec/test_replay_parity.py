"""Whole-pipeline parity: vectorized batch core vs the scalar oracle.

``use_vectorized_core=True`` promises *bit-identical* trials, not
statistically similar ones — the RNG stream-parity rules in
``docs/PERFORMANCE.md`` are what make that possible. These tests run
small deployments through both cores and compare the results with
``==``. Every registered detector runs every envelope: clean channels,
link loss, fault loss and delivery delay, RTT jitter/spikes and clock
drift, packet duplication, node crashes (from the start, and mid-phase
at arrival time), and their combinations, with and without a wormhole
and with positive false-alarm rates. Beyond the results, every case
compares per-prober verdicts, rejected replays, the clock and event
count, the trace's record counts per kind (except ``deliver``, which
the vectorized core does not record), the drop records themselves, the
fault injector's counters and the link-loss model's counters.
"""

from collections import Counter
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.core.pipeline import PipelineConfig, SecureLocalizationPipeline
from repro.detectors import available_detectors
from repro.faults.config import FaultConfig
from repro.localization.multilateration import mmse_multilaterate
from repro.localization.references import LocationReference
from repro.utils.geometry import Point
from repro.vec.localization import batched_estimate_errors

BASE = PipelineConfig(
    n_total=120,
    n_beacons=18,
    n_malicious=3,
    field_width_ft=500.0,
    field_height_ft=500.0,
    rtt_calibration_samples=200,
    wormhole_endpoints=((100.0, 100.0), (380.0, 350.0)),
    seed=13,
)

FAULTS = FaultConfig(
    packet_loss_rate=0.05,
    packet_duplication_rate=0.03,
    duplicate_delay_cycles=5000.0,
    delivery_delay_rate=0.1,
    delivery_delay_cycles=2000.0,
    rtt_jitter_cycles=50.0,
    rtt_spike_rate=0.02,
    rtt_spike_cycles=30000.0,
    clock_drift_ppm=40.0,
)

#: Every per-copy and per-observation fault but duplication and crashes.
CHANNEL_FAULTS = replace(
    FAULTS, packet_duplication_rate=0.0, packet_loss_rate=0.08
)

DUPLICATION = FaultConfig(
    packet_duplication_rate=0.05, duplicate_delay_cycles=5000.0
)

#: Crashes spread over both phases of ``BASE`` (detection ends near
#: 350k cycles, localization near 700k), so copies in flight meet
#: receivers that went down after they were sent.
MID_PHASE_CRASHES = dict(node_crash_rate=0.15, crash_horizon_cycles=700_000.0)

#: Lossy, jittery channels, as ``PipelineConfig`` overrides.
CHANNELS = {
    "fault-loss": dict(faults=FaultConfig(packet_loss_rate=0.1)),
    "network-loss": dict(network_loss_rate=0.12),
    # Link loss stacked under fault loss: the fault coins are drawn
    # only for the copies the link did not drop.
    "channel-faults": dict(faults=CHANNEL_FAULTS, network_loss_rate=0.06),
}

#: Every envelope, keyed by test id. Ids stay stable, so the
#: ``turbo-``/``replay-`` prefixes are only names now (every case runs
#: the one vec engine), and ``clean``, ``loss`` and ``faults`` repeat
#: ``turbo-wormhole``, ``turbo-network-loss`` and ``replay-faults``.
CASES = {
    "turbo-wormhole": BASE,
    "turbo-no-wormhole": replace(BASE, wormhole_endpoints=None),
    "turbo-no-malicious": replace(BASE, n_malicious=0),
    "turbo-other-seed": replace(BASE, seed=101),
    # Positive false-alarm rates: the ordered verdict walk keeps the
    # wormhole stream in scalar lockstep.
    "turbo-false-alarm": replace(BASE, wormhole_false_alarm_rate=0.1),
    "turbo-false-alarm-no-wormhole": replace(
        BASE, wormhole_endpoints=None, wormhole_false_alarm_rate=0.3
    ),
    "replay-loss": replace(BASE, network_loss_rate=0.12, faults=DUPLICATION),
    "replay-loss-false-alarm": replace(
        BASE,
        network_loss_rate=0.12,
        faults=DUPLICATION,
        wormhole_false_alarm_rate=0.2,
    ),
    "replay-faults": replace(BASE, faults=FAULTS),
    "replay-faults-loss": replace(
        BASE, faults=FAULTS, network_loss_rate=0.08, wormhole_endpoints=None
    ),
    "replay-crash": replace(
        BASE, faults=replace(CHANNEL_FAULTS, node_crash_rate=0.1)
    ),
    "clean": BASE,
    "faults": replace(BASE, faults=FAULTS),
    "loss": replace(BASE, network_loss_rate=0.12),
    "loss-jitter": replace(
        BASE,
        faults=FaultConfig(packet_loss_rate=0.05, rtt_jitter_cycles=750.0),
    ),
    "duplication": replace(BASE, faults=DUPLICATION),
    "crash": replace(BASE, faults=FaultConfig(**MID_PHASE_CRASHES)),
    "duplication-crash-loss": replace(
        BASE,
        network_loss_rate=0.08,
        faults=replace(DUPLICATION, **MID_PHASE_CRASHES),
    ),
}
# Lossy, jittery channels: each with and without a wormhole, and with
# a positive false-alarm rate.
for _channel, _overrides in CHANNELS.items():
    CASES[f"turbo-{_channel}"] = replace(BASE, **_overrides)
    CASES[f"turbo-{_channel}-no-wormhole"] = replace(
        BASE, wormhole_endpoints=None, **_overrides
    )
    CASES[f"turbo-{_channel}-false-alarm"] = replace(
        BASE, wormhole_false_alarm_rate=0.2, **_overrides
    )


def _run(config, *, vectorized):
    pipeline = SecureLocalizationPipeline(
        replace(config, use_vectorized_core=vectorized)
    )
    return pipeline, pipeline.run()


def _trace_kinds(pipeline):
    return Counter(
        event.kind for event in pipeline.trace if event.kind != "deliver"
    )


def _drop_records(pipeline):
    return Counter(
        (event.time, event.kind, tuple(sorted(event.fields.items())))
        for event in pipeline.trace
        if event.kind.startswith("drop.")
    )


def _loss_counters(pipeline):
    model = pipeline.network.loss_model
    return None if model is None else (model.attempts, model.losses)


def _assert_parity(config):
    scalar_pipeline, scalar_result = _run(config, vectorized=False)
    vec_pipeline, vec_result = _run(config, vectorized=True)

    assert not scalar_pipeline._vec_active
    assert vec_pipeline._vec_active

    # The headline contract: the PipelineResult compares equal — every
    # rate, counter, and the full localization-error list, to the bit.
    assert vec_result == scalar_result
    assert list(vec_result.localization_errors_ft) == list(
        scalar_result.localization_errors_ft
    )

    # Deeper state the result does not carry: per-prober probe verdicts
    # in order, and per-agent replay rejections.
    scalar_outcomes = [
        [(o.detecting_id, o.target_id, o.decision) for o in b.probe_outcomes]
        for b in scalar_pipeline.benign_beacons
    ]
    vec_outcomes = [
        [(o.detecting_id, o.target_id, o.decision) for o in b.probe_outcomes]
        for b in vec_pipeline.benign_beacons
    ]
    assert vec_outcomes == scalar_outcomes
    assert [a.rejected_replays for a in vec_pipeline.agents] == [
        a.rejected_replays for a in scalar_pipeline.agents
    ]
    # The simulated clock advanced to the same cycle in both worlds,
    # through the same number of (emulated) events.
    assert vec_pipeline.engine.now() == scalar_pipeline.engine.now()
    assert (
        vec_pipeline.engine.events_processed
        == scalar_pipeline.engine.events_processed
    )
    # Every trace kind but "deliver" is recorded as often, and every
    # drop with the same time and fields; every fault model and the
    # link-loss model drew and counted the same events.
    assert _trace_kinds(vec_pipeline) == _trace_kinds(scalar_pipeline)
    assert _drop_records(vec_pipeline) == _drop_records(scalar_pipeline)
    if scalar_pipeline.fault_injector is not None:
        assert (
            vec_pipeline.fault_injector.counters()
            == scalar_pipeline.fault_injector.counters()
        )
    assert _loss_counters(vec_pipeline) == _loss_counters(scalar_pipeline)


@pytest.mark.parametrize("name", sorted(CASES))
def test_vectorized_core_reproduces_scalar_trial(name):
    _assert_parity(CASES[name])


@pytest.mark.parametrize("envelope", sorted(CASES))
@pytest.mark.parametrize(
    "detector", [d for d in available_detectors() if d != "paper"]
)
def test_rival_detector_replay_reproduces_scalar_trial(detector, envelope):
    _assert_parity(replace(CASES[envelope], detector=detector))


@pytest.mark.parametrize("detector", available_detectors())
def test_rtt_observations_match_scalar(detector):
    """Every RTT observation, in order, with its observer.

    The checks above see an RTT only through the §2.2.2 window test;
    this pins the observations themselves — the exit endpoint, extra
    delay and arrival time each reply's draw is made with.
    """

    def observations(vectorized):
        pipeline = SecureLocalizationPipeline(
            replace(
                CASES["replay-faults"],
                detector=detector,
                use_vectorized_core=vectorized,
            )
        )
        pipeline.build()
        seen = []
        pipeline.network.rtt_observer = lambda rtt, node: seen.append(
            (node.node_id, rtt)
        )
        pipeline.run()
        return seen

    assert observations(True) == observations(False)


#: One agent's distinct references (beacon id, x, y, measured range)
#: from ``PipelineConfig(seed=481967354)``. Squaring the last anchor's
#: x coordinate through libm ``pow`` (the scalar seed's NumPy-scalar
#: ``** 2``) lands 1 ulp away from the correctly rounded ``x * x``.
POW_SENSITIVE_REFERENCES = (
    (12, 48.25145786747076, 101.16797640930264, 143.34521802614694),
    (28, 118.28073440761055, 194.47727669744685, 124.703341614928),
    (29, 73.12215891255369, 122.21815515414592, 145.06460102537736),
    (60, 15.198930579774173, 389.50322887966337, 155.8624324847048),
    (65, 59.87991820216554, 233.72301076175938, 45.700692816499625),
    (88, 100.35616153679582, 156.88580555508048, 119.91374364673595),
)


def test_batched_solver_matches_scalar_on_pow_sensitive_seed():
    refs = [
        LocationReference(
            beacon_id=beacon_id,
            beacon_location=Point(x, y),
            measured_distance_ft=measured,
        )
        for beacon_id, x, y, measured in POW_SENSITIVE_REFERENCES
    ]
    agent = SimpleNamespace(references=refs, estimated_position=None)
    agent.location_error_ft = lambda: 0.0
    batched_estimate_errors([agent])
    assert agent.estimated_position == mmse_multilaterate(refs).position


@pytest.mark.slow
def test_default_deployment_turbo_trial_matches_scalar_to_the_bit():
    # The full Section 4 deployment, at the seed whose
    # localization phase meets the pow-sensitive references above.
    _assert_parity(PipelineConfig(seed=481967354))
