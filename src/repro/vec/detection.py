"""Batched detection phase (paper §2.1-§2.2 over whole probe rounds).

Every benign beacon's probe fan-out (m detecting IDs x reachable
beacons) becomes one :func:`~repro.vec.turbo.exchange`, and its replies
are judged in delivery order. Crashed probers initiate nothing,
exactly as in the scalar phase.

The ``paper`` suite judges every reply with batched kernels:

- calculated distances per reply via the correctly rounded scalar
  ``math.hypot`` (they are decision inputs and must be bit-exact),
  compared against the measured distances with one §2.1
  :func:`~repro.vec.measurement.discrepancy_mask`;
- one :func:`~repro.vec.turbo.replay_cascade` over exactly the
  inconsistent replies: their RTT batch and its fault perturbation,
  then the §2.2 cascade with the range check decisive on its own (a
  beacon knows its own location);
- outcome/alert recording per reply in delivery order.

Rival detectors (``PipelineConfig.detector != "paper"``) hand each
delivered reply, in delivery order, to the beacon's own
:meth:`~repro.core.detecting.DetectingBeacon.judge_reply`, whose lazy
RTT provider makes exactly the scalar ``Network.measure_rtt`` draws at
the reply's arrival time.

Paper section: §2.1-§2.2, §3.1 (the detection round, batched)
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.detecting import ProbeOutcome
from repro.sim.messages import BeaconPacket
from repro.sim.radio import Reception, Transmission
from repro.utils.geometry import Point
from repro.vec.measurement import batched_uniform, discrepancy_mask
from repro.vec.turbo import (
    Replies,
    WavePhase,
    exact_distances,
    exchange,
    replay_cascade,
)


def run_detection_vectorized(pipeline) -> None:
    """Drop-in replacement for ``SecureLocalizationPipeline.run_detection``.

    Produces the same probe outcomes, alerts, revocations, traces, and
    stream states as the scalar phase (exactly — see the parity rules
    in ``docs/PERFORMANCE.md``), as one array-built exchange and
    without materializing engine events.
    """
    phase = WavePhase(pipeline)
    view = phase.view

    # ------------------------------------------------------------------
    # Probe fan-out (scalar build order: prober, target, detecting id).
    # ------------------------------------------------------------------
    src_chunks: List[np.ndarray] = []
    dst_chunks: List[np.ndarray] = []
    prober_chunks: List[np.ndarray] = []
    bias_chunks: List[np.ndarray] = []
    for beacon in pipeline.benign_beacons:
        if pipeline._initiator_down(beacon):
            continue
        row = phase.row(beacon.node_id)
        targets = phase.reachable_beacon_rows(row)
        m = len(beacon.detecting_ids)
        probes = targets.shape[0] * m
        if probes == 0:
            continue
        src_chunks.append(
            np.tile(
                np.array(beacon.detecting_ids, dtype=np.int64),
                targets.shape[0],
            )
        )
        dst_chunks.append(np.repeat(targets, m))
        prober_chunks.append(np.full(probes, row, dtype=np.int64))
        beacon._next_nonce += probes
        if beacon.probe_power_randomization_ft > 0.0:
            bias_chunks.append(
                batched_uniform(
                    pipeline.network.rngs.stream("probe-power"),
                    probes,
                    -beacon.probe_power_randomization_ft,
                    beacon.probe_power_randomization_ft,
                )
            )
        else:
            bias_chunks.append(np.zeros(probes, dtype=np.float64))
        pipeline._probes_sent += probes

    if not src_chunks:
        phase.finish()
        return
    replies = exchange(
        phase,
        np.concatenate(prober_chunks),
        np.concatenate(src_chunks),
        np.concatenate(dst_chunks),
        np.concatenate(bias_chunks),
    )
    nodes = phase.nodes
    if pipeline.detector is not None:
        _judge_replies(nodes, replies)
        phase.finish()
        return

    # ------------------------------------------------------------------
    # Judge probe replies in delivery order (§2.1, §2.2, §3.1).
    # ------------------------------------------------------------------
    # Hot Python loops below index these thousands of times; plain
    # lists hold the identical values without per-access conversion.
    prober_list = replies.receiver.tolist()
    calculated = exact_distances(
        view.xs[replies.receiver], view.ys[replies.receiver],
        replies.claimed_x, replies.claimed_y,
    )
    phase.network.stats.distance_evals += len(prober_list)
    thresholds = np.array(
        [nodes[row].signal_detector.max_error_ft for row in prober_list],
        dtype=np.float64,
    )
    bad = np.flatnonzero(
        discrepancy_mask(calculated, replies.measured, thresholds)
    )
    # knows_location=True: the §2.2.1 range check is decisive on its own.
    wormhole_flagged, local_flagged = replay_cascade(
        phase,
        replies,
        bad,
        [nodes[prober_list[index]] for index in bad.tolist()],
        calculated[bad] > phase.comm_range_ft,
    )
    decisions = np.where(
        wormhole_flagged,
        "replayed_wormhole",
        np.where(local_flagged, "replayed_local", "alert"),
    )

    # Outcome/trace/alert recording, in delivery order.
    trace = phase.trace
    src_list = replies.src.tolist()
    dst_list = replies.dst.tolist()
    times_list = replies.time.tolist()
    decision_list = ["consistent"] * len(prober_list)
    for position, index in enumerate(bad.tolist()):
        decision_list[index] = str(decisions[position])
    for index in range(len(decision_list)):
        prober = nodes[prober_list[index]]
        decision = decision_list[index]
        prober.probe_outcomes.append(
            ProbeOutcome(
                detecting_id=dst_list[index],
                target_id=src_list[index],
                decision=decision,
            )
        )
        trace.record(
            times_list[index],
            "probe",
            detector=prober.node_id,
            detecting_id=dst_list[index],
            target=src_list[index],
            decision=decision,
            signal_consistent=decision == "consistent",
        )
        if decision == "alert":
            prober.report_alert(src_list[index], time=times_list[index])

    phase.finish()


def _judge_replies(nodes, replies: Replies) -> None:
    """Hand every delivered reply to its prober's ``judge_reply``.

    One :class:`~repro.sim.radio.Reception` per delivered copy, in
    delivery order, rebuilt from the reply columns with the scalar
    transmission metadata: ``tx_origin`` is the copy's exit endpoint,
    so the lazy ``measure_rtt`` draws see the scalar distance and extra
    delay. The reply's ``nonce`` and ``sequence`` feed no decision and
    keep their defaults.
    """
    for (
        prober, responder, detecting_id, x, y, sent, bias, fake,
        origin_x, origin_y, via_wormhole, extra, duplicated, arrival,
        measured,
    ) in zip(
        *(
            column.tolist()
            for column in (
                replies.receiver, replies.src, replies.dst,
                replies.claimed_x, replies.claimed_y, replies.sent,
                replies.bias, replies.fake, replies.origin_x,
                replies.origin_y, replies.via_wormhole, replies.extra,
                replies.duplicated, replies.time, replies.measured,
            )
        )
    ):
        packet = BeaconPacket(
            src_id=responder, dst_id=detecting_id, claimed_location=(x, y)
        )
        transmission = Transmission(
            packet=packet,
            tx_origin=Point(origin_x, origin_y),
            departure_time=sent,
            ranging_bias_ft=bias,
            via_wormhole=via_wormhole,
            extra_delay_cycles=extra,
            tx_node_id=responder,
            fake_wormhole_symptoms=fake,
            duplicated=duplicated,
        )
        nodes[prober].judge_reply(
            Reception(
                packet=packet,
                arrival_time=arrival,
                measured_distance_ft=measured,
                transmission=transmission,
            )
        )
