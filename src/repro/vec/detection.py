"""Batched detection phase (paper §2.1-§2.2 over whole probe rounds).

Every benign beacon's probe fan-out (m detecting IDs x reachable
beacons) becomes one array-built request wave
(:class:`~repro.vec.turbo.Wave`); the served requests become the reply
wave, and the replies are judged in delivery order. Crashed probers
initiate nothing, exactly as in the scalar phase.

The ``paper`` suite judges the whole reply wave with batched kernels:

- calculated distances per reply via the correctly rounded scalar
  ``math.hypot`` (they are decision inputs and must be bit-exact),
  compared against the measured distances with one §2.1
  :func:`~repro.vec.measurement.discrepancy_mask`;
- one :func:`~repro.vec.measurement.batched_rtt` call over exactly the
  inconsistent replies, in reply order — the same draws the scalar
  path's per-reply ``measure_rtt`` would make — and the fault RTT
  perturbation as one batch over those observations
  (:func:`~repro.vec.measurement.observe_rtts`);
- the §2.2 cascade as arrays (range check, then the sticky wormhole
  coins of :func:`~repro.vec.turbo.wormhole_verdicts`, then the RTT
  window), and outcome/alert recording per reply in delivery order.

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
from repro.sim.messages import BeaconPacket, BeaconRequest
from repro.sim.radio import Reception, Transmission
from repro.utils.geometry import Point
from repro.vec.measurement import (
    batched_rtt,
    batched_uniform,
    discrepancy_mask,
    observe_rtts,
)
from repro.vec.turbo import (
    Wave,
    WavePhase,
    exact_distances,
    serve_wave,
    wormhole_verdicts,
)


def run_detection_vectorized(pipeline) -> None:
    """Drop-in replacement for ``SecureLocalizationPipeline.run_detection``.

    Produces the same probe outcomes, alerts, revocations, traces, and
    stream states as the scalar phase (exactly — see the parity rules
    in ``docs/PERFORMANCE.md``), as two array-built waves and without
    materializing engine events.
    """
    phase = WavePhase(pipeline)
    field = phase.field
    t0 = pipeline.engine.now()
    view = field.view

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
        row = field.row(beacon.node_id)
        targets = field.reachable_beacon_rows(row)
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
    req_src = np.concatenate(src_chunks)
    req_dst_rows = np.concatenate(dst_chunks)
    req_origin_rows = np.concatenate(prober_chunks)
    req_biases = np.concatenate(bias_chunks)
    req_dists = exact_distances(
        view.xs[req_origin_rows],
        view.ys[req_origin_rows],
        view.xs[req_dst_rows],
        view.ys[req_dst_rows],
    )
    field.network.stats.distance_evals += int(req_dists.shape[0])
    req_now = np.full(req_src.shape[0], t0, dtype=np.float64)
    request_wave = Wave(
        field, BeaconRequest, req_now, req_origin_rows, req_dst_rows,
        req_dists, np.zeros(req_src.shape[0]), req_biases, req_src,
    )
    phase.record_undelivered(
        request_wave, req_now, view.node_ids[req_origin_rows],
        req_dst_rows, "BeaconRequest",
    )
    phase.account(request_wave)

    # ------------------------------------------------------------------
    # Serve requests; build and deliver the reply wave.
    # ------------------------------------------------------------------
    (
        resp_rows, prober_rows, reply_src, reply_dst, claimed_x, claimed_y,
        biases, extras, fakes, reply_now,
    ) = serve_wave(phase, request_wave, req_src, req_origin_rows)
    # Reply direct distance = request direct distance (|dx|, |dy| are
    # identical either way, and hypot is sign-symmetric).
    reply_direct = req_dists[request_wave.packet[request_wave.order]]
    reply_wave = Wave(
        field, BeaconPacket, reply_now, resp_rows, prober_rows,
        reply_direct, extras, biases, reply_src,
    )
    phase.record_undelivered(
        reply_wave, reply_now, reply_src, prober_rows, "BeaconPacket",
    )
    phase.account(reply_wave)

    if pipeline.detector is not None:
        _judge_replies(
            field.nodes, reply_wave, prober_rows, reply_src, reply_dst,
            claimed_x, claimed_y, biases, fakes, reply_now,
        )
        phase.finish()
        return

    # ------------------------------------------------------------------
    # Process probe replies in delivery order (§2.1, §2.2, §3.1).
    # ------------------------------------------------------------------
    order = reply_wave.order
    rep = reply_wave.packet[order]
    times = reply_wave.time[order]
    measured = reply_wave.measured[order]
    d_prober_rows = prober_rows[rep]
    calculated = exact_distances(
        view.xs[d_prober_rows], view.ys[d_prober_rows],
        claimed_x[rep], claimed_y[rep],
    )
    field.network.stats.distance_evals += int(calculated.shape[0])
    thresholds = np.array(
        [
            field.nodes[row].signal_detector.max_error_ft
            for row in d_prober_rows
        ],
        dtype=np.float64,
    )
    inconsistent = discrepancy_mask(calculated, measured, thresholds)

    bad = np.flatnonzero(inconsistent)
    rtts = batched_rtt(
        field.network.rngs.stream("rtt"),
        field.network.rtt_model,
        reply_wave.dist[order][bad],
        reply_wave.extra[order][bad],
        times[bad],
    )
    pipeline._vec_bump("rtt_batched", int(bad.shape[0]))
    # Hot Python loops below index these thousands of times; plain
    # lists hold the identical values without per-access conversion.
    prober_bad = d_prober_rows[bad].tolist()
    rtts_list = observe_rtts(
        field.network, rtts, [field.nodes[row] for row in prober_bad]
    )

    # The cascade over the inconsistent subset, knows_location=True:
    # the §2.2.1 range check is decisive on its own (no detector call).
    range_flagged = calculated[bad] > field.comm_range_ft
    detector_flagged = wormhole_verdicts(
        pipeline.benign_beacons[0].filter_cascade.wormhole_detector,
        ~range_flagged,
        fakes[rep][bad],
        reply_wave.via_wormhole[order][bad],
        view.node_ids[d_prober_rows[bad]],
        reply_src[rep][bad],
    )
    wormhole_flagged = range_flagged | detector_flagged
    local_flagged = np.zeros(bad.shape[0], dtype=bool)
    for position in np.flatnonzero(~wormhole_flagged).tolist():
        prober = field.nodes[prober_bad[position]]
        local_flagged[position] = (
            prober.filter_cascade.local_replay_detector.is_replayed(
                rtts_list[position]
            )
        )
    decisions = np.where(
        wormhole_flagged,
        "replayed_wormhole",
        np.where(local_flagged, "replayed_local", "alert"),
    )

    # Outcome/trace/alert recording, in delivery order.
    trace = field.trace
    nodes = field.nodes
    src_list = reply_src[rep].tolist()
    dst_list = reply_dst[rep].tolist()
    times_list = times.tolist()
    prober_list = d_prober_rows.tolist()
    decision_list = ["consistent"] * rep.shape[0]
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


def _judge_replies(
    nodes, wave: Wave, prober_rows, reply_src, reply_dst, claimed_x,
    claimed_y, biases, fakes, reply_now,
) -> None:
    """Hand every delivered reply to its prober's ``judge_reply``.

    One :class:`~repro.sim.radio.Reception` per delivered copy, in
    delivery order, rebuilt from the wave arrays with the scalar
    transmission metadata: ``tx_origin`` is the copy's exit endpoint,
    so the lazy ``measure_rtt`` draws see the scalar distance and extra
    delay. The reply's ``nonce`` and ``sequence`` feed no decision and
    keep their defaults.
    """
    order = wave.order
    rep = wave.packet[order]
    per_reply = [
        column[rep].tolist()
        for column in (
            prober_rows, reply_src, reply_dst, claimed_x, claimed_y,
            reply_now, biases, fakes,
        )
    ]
    per_copy = [
        column[order].tolist()
        for column in (
            wave.origin_x, wave.origin_y, wave.via_wormhole, wave.extra,
            wave.duplicated, wave.time, wave.measured,
        )
    ]
    for (
        prober, responder, detecting_id, x, y, sent, bias, fake,
        origin_x, origin_y, via_wormhole, extra, duplicated, arrival,
        measured,
    ) in zip(*per_reply, *per_copy):
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
