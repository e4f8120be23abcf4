"""Whole-pipeline parity: vectorized batch core vs the scalar oracle.

``use_vectorized_core=True`` promises *bit-identical* trials, not
statistically similar ones — the RNG stream-parity rules in
``docs/PERFORMANCE.md`` are what make that possible. These tests run
small deployments through both cores across the envelope axes that
select different vec tiers and compare the results with ``==``:

- the turbo tier (array-built waves) covers clean channels and lossy,
  jittery ones — network loss, fault loss and delivery delay, RTT
  jitter/spikes and clock drift — for ``paper`` detection and for
  every detector's localization;
- the per-delivery replay tier covers packet duplication and node
  crashes, and every rival detector's detection phase.

Each case's name prefix is the tier ``paper`` detection takes, and the
test asserts the tier actually taken. Beyond the results, every case
compares the trace's record counts per kind (except ``deliver``, which
turbo does not record), the drop records themselves, the fault
injector's counters and the link-loss model's counters.
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

#: Every per-copy and per-observation fault turbo draws as a mask:
#: ``FAULTS`` without duplication (and without crashes).
CHANNEL_FAULTS = replace(
    FAULTS, packet_duplication_rate=0.0, packet_loss_rate=0.08
)

#: Duplication alone keeps a config on the replay tier.
DUPLICATION = FaultConfig(
    packet_duplication_rate=0.05, duplicate_delay_cycles=5000.0
)

#: Lossy, jittery channels turbo admits, as ``PipelineConfig`` overrides.
TURBO_CHANNELS = {
    "fault-loss": dict(faults=FaultConfig(packet_loss_rate=0.1)),
    "network-loss": dict(network_loss_rate=0.12),
    # Link loss stacked under fault loss: the fault coins are drawn
    # only for the copies the link did not drop.
    "channel-faults": dict(faults=CHANNEL_FAULTS, network_loss_rate=0.06),
}

CASES = {
    # Fault-free wormhole deployment: the fully array-built turbo tier.
    "turbo-wormhole": BASE,
    "turbo-no-wormhole": replace(BASE, wormhole_endpoints=None),
    "turbo-no-malicious": replace(BASE, n_malicious=0),
    "turbo-other-seed": replace(BASE, seed=101),
    # Positive false-alarm rates stay turbo-eligible: the ordered
    # verdict walk keeps the wormhole stream in scalar lockstep.
    "turbo-false-alarm": replace(BASE, wormhole_false_alarm_rate=0.1),
    "turbo-false-alarm-no-wormhole": replace(
        BASE, wormhole_endpoints=None, wormhole_false_alarm_rate=0.3
    ),
    # Duplication (with or without loss) and crashes: the per-delivery
    # replay tier.
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
}
# Lossy, jittery channels on turbo: each with and without a wormhole,
# and with a positive false-alarm rate.
for _channel, _overrides in TURBO_CHANNELS.items():
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


#: Rival detectors never take turbo for detection; their localization
#: takes turbo wherever ``paper``'s would.
RIVAL_ENVELOPES = {
    "clean": BASE,
    "faults": replace(BASE, faults=FAULTS),
    "loss": replace(BASE, network_loss_rate=0.12),
    "loss-jitter": replace(
        BASE,
        faults=FaultConfig(packet_loss_rate=0.05, rtt_jitter_cycles=750.0),
    ),
}


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
    return vec_pipeline


@pytest.mark.parametrize("name", sorted(CASES))
def test_vectorized_core_reproduces_scalar_trial(name):
    vec_pipeline = _assert_parity(CASES[name])
    tier = name.split("-", 1)[0]
    assert vec_pipeline._vec_tiers == {
        "detection": tier, "localization": tier,
    }


@pytest.mark.parametrize("envelope", sorted(RIVAL_ENVELOPES))
@pytest.mark.parametrize(
    "detector", [d for d in available_detectors() if d != "paper"]
)
def test_rival_detector_replay_reproduces_scalar_trial(detector, envelope):
    vec_pipeline = _assert_parity(
        replace(RIVAL_ENVELOPES[envelope], detector=detector)
    )
    assert vec_pipeline._vec_tiers == {
        "detection": "replay",
        "localization": "replay" if envelope == "faults" else "turbo",
    }


def _built(**overrides):
    pipeline = SecureLocalizationPipeline(
        replace(BASE, use_vectorized_core=True, **overrides)
    )
    return pipeline.build()


def test_turbo_tier_engaged_on_fault_free_config():
    """The fast tier must actually be selected where it is claimed to."""
    from repro.vec.turbo import turbo_supported

    def tiers(pipeline):
        return [
            turbo_supported(pipeline, phase)
            for phase in ("detection", "localization")
        ]

    assert tiers(_built()) == [True, True]
    # Lossy and jittery channels are masks on turbo: link loss, fault
    # loss and delay, RTT jitter/spikes and clock drift.
    assert tiers(_built(network_loss_rate=0.1)) == [True, True]
    assert tiers(_built(faults=CHANNEL_FAULTS)) == [True, True]
    # Duplication and crashes still replay per delivery.
    assert tiers(_built(faults=FAULTS)) == [False, False]
    assert tiers(_built(faults=DUPLICATION)) == [False, False]
    assert tiers(
        _built(faults=FaultConfig(node_crash_rate=0.1))
    ) == [False, False]
    # A positive false-alarm rate no longer demotes the config to the
    # replay tier (the ordered verdict walk preserves stream parity).
    assert tiers(_built(wormhole_false_alarm_rate=0.2)) == [True, True]
    # Rival detectors localize on turbo but detect on replay.
    for detector in available_detectors():
        expected = [detector == "paper", True]
        assert tiers(_built(detector=detector)) == expected
        assert tiers(
            _built(detector=detector, faults=CHANNEL_FAULTS)
        ) == expected
    with pytest.raises(ValueError):
        turbo_supported(_built(), "metrics")


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
    # The full Section 4 deployment on the turbo tier, at the seed whose
    # localization phase meets the pow-sensitive references above.
    _assert_parity(PipelineConfig(seed=481967354))
