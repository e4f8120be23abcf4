"""Batched detection phase (paper §2.1-§2.2 over whole probe rounds).

Stage A emulates every benign beacon's probe fan-out (m detecting IDs x
reachable beacons) into one request wave; request deliveries drive the
real (benign or adversarial) responder logic; the reply wave is then
processed with batched kernels:

- calculated distances per reply via the correctly rounded scalar
  ``math.hypot`` (they are decision inputs and must be bit-exact),
  compared against the measured distances with one §2.1
  :func:`~repro.vec.measurement.discrepancy_mask`;
- one :func:`~repro.vec.measurement.batched_rtt` call over exactly the
  inconsistent replies, in reply order — the same draws the scalar
  path's per-reply ``measure_rtt`` would make;
- the fault RTT perturbation as one batch over those observations
  (:func:`~repro.vec.measurement.observe_rtts`);
- the replay-filter cascade, alert reporting, and base-station
  revocation run on the *real* objects, per reply, in the scalar
  order, so every probabilistic detector draw and every revocation
  stays bit-identical.

That is the replay tier. ``paper`` detection takes the array-built
turbo tier (:func:`repro.vec.turbo.run_detection_turbo`) wherever
:func:`~repro.vec.turbo.turbo_supported` admits it — clean and lossy,
jittery channels — and replays per delivery only under packet
duplication or node crashes. Rival detectors
(``PipelineConfig.detector != "paper"``) always detect on replay and
skip the batched kernels: each reply goes through the beacon's own
:meth:`~repro.core.detecting.DetectingBeacon.judge_reply`, in reply
order, whose lazy RTT provider makes exactly the scalar
``Network.measure_rtt`` draws at the reply's arrival time.

Paper section: §2.1-§2.2, §3.1 (the detection round, batched)
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.replay_filter import FilterDecision
from repro.sim.messages import BeaconRequest
from repro.sim.radio import Reception
from repro.utils.geometry import distance
from repro.vec.measurement import batched_rtt, discrepancy_mask, observe_rtts
from repro.vec.replay import Delivery, PhaseReplay


def run_detection_vectorized(pipeline) -> None:
    """Drop-in replacement for ``SecureLocalizationPipeline.run_detection``.

    Produces the same probe outcomes, alerts, revocations, traces, and
    stream states as the scalar phase (exactly — see the parity rules
    in ``docs/PERFORMANCE.md``), without materializing engine events.
    ``paper`` detection takes the fully array-built turbo tier where
    :func:`~repro.vec.turbo.turbo_supported` admits it; everything else
    replays per delivery. The tier taken is recorded in
    ``pipeline._vec_tiers["detection"]``.
    """
    from repro.vec.turbo import run_detection_turbo, turbo_supported

    if turbo_supported(pipeline, "detection"):
        pipeline._vec_tiers["detection"] = "turbo"
        run_detection_turbo(pipeline)
        return
    pipeline._vec_tiers["detection"] = "replay"
    replay = PhaseReplay(pipeline)
    t0 = pipeline.engine.now()
    for beacon in pipeline.benign_beacons:
        if pipeline._initiator_down(beacon):
            continue
        for target in pipeline._reachable_beacons(beacon):
            for detecting_id in beacon.detecting_ids:
                request = BeaconRequest(
                    src_id=detecting_id,
                    dst_id=target.node_id,
                    nonce=beacon._next_nonce,
                )
                beacon._next_nonce += 1
                bias = 0.0
                if beacon.probe_power_randomization_ft > 0.0:
                    bias = pipeline.network.rngs.stream("probe-power").uniform(
                        -beacon.probe_power_randomization_ft,
                        beacon.probe_power_randomization_ft,
                    )
                replay.unicast(beacon, request, t0, ranging_bias_ft=bias)
            pipeline._probes_sent += len(beacon.detecting_ids)
    for entry, reception in replay.deliver(replay.close_wave()):
        replay.serve_request(entry.dst, reception.packet, entry.time)
    delivered = list(replay.deliver(replay.close_wave()))
    _process_probe_replies(pipeline, delivered)
    replay.finish()


def _process_probe_replies(
    pipeline, delivered: List[Tuple[Delivery, Reception]]
) -> None:
    """Emulate ``DetectingBeacon._handle_probe_reply`` over one batch.

    Rival detectors judge each reply through the beacon's own
    :meth:`~repro.core.detecting.DetectingBeacon.judge_reply`, in reply
    order, so their per-exchange state and lazy RTT draws follow the
    scalar sequence exactly. The paper suite takes the batched kernels.
    """
    if pipeline.detector is not None:
        for entry, reception in delivered:
            entry.dst.judge_reply(reception)
        return
    if not delivered:
        return
    network = pipeline.network
    calculated = [
        distance(entry.dst.position, reception.packet.claimed_point)
        for entry, reception in delivered
    ]
    measured = [
        reception.measured_distance_ft for _, reception in delivered
    ]
    thresholds = [
        entry.dst.signal_detector.max_error_ft for entry, _ in delivered
    ]
    malicious_mask = discrepancy_mask(calculated, measured, thresholds)
    inconsistent = [
        pair for pair, bad in zip(delivered, malicious_mask) if bad
    ]
    rtts = batched_rtt(
        network.rngs.stream("rtt"),
        network.rtt_model,
        [
            distance(entry.dst.position, reception.transmission.tx_origin)
            for entry, reception in inconsistent
        ],
        [
            reception.transmission.extra_delay_cycles
            for _, reception in inconsistent
        ],
        [entry.time for entry, _ in inconsistent],
    )
    pipeline._vec_bump("rtt_batched", len(inconsistent))
    observed = observe_rtts(
        network, rtts, [entry.dst for entry, _ in inconsistent]
    )
    next_rtt = 0
    for index, (entry, reception) in enumerate(delivered):
        beacon = entry.dst
        packet = reception.packet
        if not malicious_mask[index]:
            beacon._record(
                packet.dst_id, packet.src_id, "consistent",
                signal_consistent=True, time=entry.time,
            )
            continue
        rtt = observed[next_rtt]
        next_rtt += 1
        decision = beacon.filter_cascade.evaluate(
            reception, beacon.position, rtt, receiver_knows_location=True
        )
        if decision is FilterDecision.REPLAYED_WORMHOLE:
            label = "replayed_wormhole"
        elif decision is FilterDecision.REPLAYED_LOCAL:
            label = "replayed_local"
        else:
            label = "alert"
        beacon._record(
            packet.dst_id, packet.src_id, label,
            signal_consistent=False, time=entry.time,
        )
        if label == "alert":
            beacon.report_alert(packet.src_id, time=entry.time)
