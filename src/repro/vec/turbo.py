"""Array-built delivery waves: the substrate of the vectorized core.

Both pipeline phases run the same request/reply exchange — detecting
beacons probe (§2.1), non-beacon nodes request signals (§4) — and
judge the replies with the same §2.2 replay-filter cascade. This module
holds one copy of each: :func:`exchange` and :func:`replay_cascade`.

A phase schedules all its requests at one instant, request deliveries
schedule the replies, and reply handlers never transmit, so an exchange
is exactly two delivery waves. Each wave collapses into array
arithmetic: exact pairwise geometry picks the copies (direct plus
tunnelled, in the scalar ``unicast`` order), the channel's draws become
masks — one ``"network-loss"`` batch over the scheduled copies, one
fault-loss batch over their survivors, one fault-delay and one
ranging-noise batch over the scheduled copies, each on its own stream
in scheduling order — one elementwise expression computes every
arrival time, a per-receiver crash time drops the copies that arrive at
a crashed node, and one stable argsort recovers the engine's
``(time, seq)`` delivery order. The reply wave is scheduled in the
request wave's delivery order. Processing wave 1 fully before wave 2
consumes every stream in the scalar order even when a delayed request
would, in global event order, arrive after an early reply: the
scheduling-time streams (loss, fault loss/duplication/delay,
``"ranging"``) and the reply-time streams (``"rtt"``, fault RTT/drift,
``"wormhole-detector"``) are disjoint.

Packet duplication is the one per-copy draw with feedback into
scheduling — a duplicate re-enters ``_schedule_delivery`` before its
original's delay and noise draws — so under a duplication fault the
loss head runs as an ordered walk over the scheduled copies that calls
the real models; the delay batch, the noise batch and the sort stay
batched.

Python survives only where the scalar path is genuinely stateful per
item, and each of those loops runs over a small subset in delivery
order: malicious responders (sticky strategy draws), first-seen
wormhole pair verdicts (sticky detector coin flips), the RTT window
test, probe-outcome and alert recording, drop traces, and accepted
reference construction. All distances that feed protocol decisions or
measurements are computed with the correctly rounded scalar
``math.hypot``, so every float matches the scalar run bit for bit. The
phases themselves — the fan-out and what is done with the verdicts —
live in :mod:`repro.vec.detection` and :mod:`repro.vec.localization`.

One deliberate fidelity cut, documented in ``docs/PERFORMANCE.md``:
the vectorized core does not record per-delivery ``"deliver"`` trace
events (no protocol logic, invariant check, or metric consumes them).
Drops (``drop.loss``, ``drop.fault``, ``drop.crashed``,
``drop.out_of_range``) are recorded with the scalar fields. The
profiling counters (``stats.distance_evals``,
``stats.spatial_queries``) are credited with the batch kernels' actual
work, which differs from the scalar grid-walk counts. Configs that
need full per-event traces must run with ``use_vectorized_core=False``.

Paper section: §2.1-§2.2, §4 (the exchange and cascade of both phases)
"""

from __future__ import annotations

import math
from typing import List, NamedTuple, Tuple

import numpy as np

from repro.attacks.compromised import MaliciousBeacon
from repro.attacks.strategy import ResponseKind
from repro.sim.messages import BeaconPacket, BeaconRequest
from repro.sim.radio import SPEED_OF_LIGHT_FT_PER_CYCLE
from repro.sim.timing import packet_transmission_cycles
from repro.vec.arrays import topology_arrays
from repro.vec.geometry import within_range_matrix
from repro.vec.measurement import (
    batched_rtt,
    batched_uniform,
    observe_rtts,
    raw_uniforms,
)
from repro.wormhole.detector import ProbabilisticWormholeDetector


def exact_distances(ax, ay, bx, by) -> np.ndarray:
    """Correctly rounded elementwise distances (scalar ``math.hypot``).

    The subtractions are exact IEEE arithmetic either way; routing the
    hypotenuse through ``math.hypot`` keeps every distance bit-equal to
    the scalar substrate's :func:`repro.utils.geometry.distance`
    (``np.hypot`` can differ by a few ulps — enough to flip a range
    comparison or desynchronize a measured distance).
    """
    dx = np.asarray(ax, dtype=np.float64) - bx
    dy = np.asarray(ay, dtype=np.float64) - by
    return np.array(
        list(map(math.hypot, dx.tolist(), dy.tolist())), dtype=np.float64
    )


class WavePhase:
    """Per-phase context shared by both waves: geometry and bookkeeping.

    Holds the SoA topology view, node-id -> row resolution, and exact
    per-node distances to every wormhole endpoint (scalar ``hypot``,
    so every endpoint-range predicate — ``far_end``'s first-match
    selection and ``wormhole_reachable_beacon_ids``'s union — matches
    the scalar :class:`~repro.sim.network.Network` bit for bit). Each
    :class:`Wave` folds its engine events, clock and deliveries in;
    :meth:`finish` hands them to the simulator.
    """

    def __init__(self, pipeline) -> None:
        network = pipeline.network
        self.pipeline = pipeline
        self.network = network
        self.engine = pipeline.engine
        self.trace = network.trace
        self.radio = network.radio
        self.comm_range_ft = network.radio.comm_range_ft
        self.view = topology_arrays(network)
        self.nodes = network.nodes()
        self.beacon_rows = np.flatnonzero(self.view.is_beacon)
        r = self.comm_range_ft
        #: Per link: (near_a, near_b, latency) over all node rows.
        self.links: List[Tuple[np.ndarray, np.ndarray, float]] = []
        for link in network.wormholes:
            da = exact_distances(
                self.view.xs, self.view.ys, link.end_a.x, link.end_a.y
            )
            db = exact_distances(
                self.view.xs, self.view.ys, link.end_b.x, link.end_b.y
            )
            self.links.append((da <= r, db <= r, link.latency_cycles))
        network.stats.distance_evals += 2 * self.view.count * len(self.links)
        self._row_of = {
            int(node_id): row
            for row, node_id in enumerate(self.view.node_ids)
        }
        self._reach = None
        self.total_events = 0
        self.max_time = self.engine.now()
        self._received = np.zeros(self.view.count, dtype=np.int64)

    def row(self, node_id: int) -> int:
        """Topology row of a (canonical) node id."""
        return self._row_of[node_id]

    def reachable_beacon_rows(self, row: int) -> np.ndarray:
        """Rows of beacons reachable from node ``row``, sorted by id.

        The exact ``pipeline._reachable_beacons`` membership: directly
        in range, or within range of one tunnel endpoint while the
        beacon is within range of the other (both directions union, as
        in ``wormhole_reachable_beacon_ids``) — self excluded. Row
        order is node-id order, matching the scalar target ordering.
        """
        if self._reach is None:
            view = self.view
            rows = self.beacon_rows
            mask = within_range_matrix(
                view.xs[rows], view.ys[rows], view.xs, view.ys,
                self.comm_range_ft,
            )
            for near_a, near_b, _ in self.links:
                mask |= near_a[:, None] & near_b[rows][None, :]
                mask |= near_b[:, None] & near_a[rows][None, :]
            mask[rows, np.arange(rows.size)] = False
            self.network.stats.distance_evals += int(mask.size)
            self._reach = mask
        self.network.stats.spatial_queries += 1
        return self.beacon_rows[self._reach[row]]

    def finish(self) -> None:
        """Fold event count, clock, and received counters into the sim."""
        for row in np.flatnonzero(self._received):
            self.nodes[row].received_count += int(self._received[row])
        self.engine.absorb_batch(self.total_events, self.max_time)


class Wave:
    """One wave of scheduled copies, expanded and sorted in bulk.

    The constructor performs what ``unicast`` + ``_schedule_delivery``
    + the engine's delivery events do for every packet of a wave: copy
    expansion in scheduling order (direct first, then one tunnelled
    copy per wormhole, packet-major), the channel's loss head
    (:func:`_channel_copies`, duplicates included), the fault delivery
    delay, exact delays, the wave's ranging-noise batch, the receiver
    crash check at arrival time, and the stable ``(time, seq)``
    delivery sort. Each draw is one batch on its own stream over
    exactly the copies the scalar path draws it for, in scheduling
    order: a dropped copy draws nothing further. A packet that produced
    no copy at all is traced as ``drop.out_of_range`` with its sender's
    node id, as the scalar ``unicast`` does. Every scheduled copy is one
    engine event and advances the phase clock, a copy dropped at a
    crashed receiver included; only delivered copies count as network
    deliveries and received packets.

    Attributes (all per *delivered* copy, in scheduling order):
        packet: index into the wave's logical-packet arrays.
        dst_row: receiving node row.
        dist: physical emitter-to-receiver distance (exact; for a
            tunnelled copy, from the exit endpoint).
        origin_x, origin_y: where the copy left from — the sender, or
            the tunnel's exit endpoint (the reception's ``tx_origin``).
        extra: accumulated extra delay (reply masking + tunnel latency
            + duplicate delay).
        via_wormhole: tunnelled-copy flag.
        duplicated: duplicate-copy flag.
        time: arrival cycle.
        measured: receiver ranging estimate (noise batch applied).
        order: indices sorting copies into delivery order.
    """

    def __init__(
        self,
        phase: WavePhase,
        packet_cls,
        now: np.ndarray,
        origin_rows: np.ndarray,
        dst_rows: np.ndarray,
        direct_dist: np.ndarray,
        extras: np.ndarray,
        biases: np.ndarray,
        src_ids: np.ndarray,
    ) -> None:
        view = phase.view
        network = phase.network
        kind = packet_cls.__name__
        count = origin_rows.shape[0]
        slots = 1 + len(phase.links)
        valid = np.zeros((count, slots), dtype=bool)
        dists = np.zeros((count, slots), dtype=np.float64)
        extra_m = np.zeros((count, slots), dtype=np.float64)
        origin_x = np.zeros((count, slots), dtype=np.float64)
        origin_y = np.zeros((count, slots), dtype=np.float64)
        valid[:, 0] = direct_dist <= phase.comm_range_ft
        dists[:, 0] = direct_dist
        extra_m[:, 0] = extras
        origin_x[:, 0] = view.xs[origin_rows]
        origin_y[:, 0] = view.ys[origin_rows]
        for index, (near_a, near_b, latency) in enumerate(
            phase.links, start=1
        ):
            # far_end checks end_a first: a sender near end_a exits at
            # end_b even when it is near both endpoints. The exit
            # distance is the *destination's* distance to that exit.
            link = network.wormholes[index - 1]
            sender_near_a = near_a[origin_rows]
            dst_near_exit = np.where(
                sender_near_a, near_b[dst_rows], near_a[dst_rows]
            )
            valid[:, index] = (
                (sender_near_a | near_b[origin_rows]) & dst_near_exit
            )
            origin_x[:, index] = np.where(
                sender_near_a, link.end_b.x, link.end_a.x
            )
            origin_y[:, index] = np.where(
                sender_near_a, link.end_b.y, link.end_a.y
            )
            dists[:, index] = exact_distances(
                view.xs[dst_rows], view.ys[dst_rows],
                origin_x[:, index], origin_y[:, index],
            )
            extra_m[:, index] = extras + latency
        network.stats.distance_evals += count * len(phase.links)
        flat = valid.ravel()
        copies = np.flatnonzero(flat)
        copy_packet = copies // slots
        scheduled, self.duplicated = _channel_copies(
            phase, kind, now, copy_packet, dst_rows, src_ids
        )
        copies = copies[scheduled]
        self.packet = copy_packet[scheduled]
        self.via_wormhole = copies % slots > 0
        self.dist = dists.ravel()[copies]
        self.origin_x = origin_x.ravel()[copies]
        self.origin_y = origin_y.ravel()[copies]
        self.extra = extra_m.ravel()[copies]
        injector = network.fault_injector
        if injector is not None and injector.duplication is not None:
            self.extra = self.extra + np.where(
                self.duplicated, injector.duplication.delay_cycles, 0.0
            )
        self.dst_row = dst_rows[self.packet]
        # Scalar delay chain, elementwise: packet_time = airtime +
        # dist / c; delay = packet_time + extra (+ fault delay); time =
        # now + delay.
        airtime = phase.radio.airtime_cycles(packet_cls(src_id=0, dst_id=0))
        packet_time = airtime + self.dist / SPEED_OF_LIGHT_FT_PER_CYCLE
        delay = packet_time + self.extra
        fault = injector.delay if injector is not None else None
        events = self.dist.shape[0]
        if fault is not None and fault.rate > 0:
            delayed = raw_uniforms(fault.rng, events) < fault.rate
            fault.events += int(np.count_nonzero(delayed))
            delay = delay + np.where(delayed, fault.delay_cycles, 0.0)
        self.time = now[self.packet] + delay
        # The wave's ranging-noise batch, in scheduling order; measured
        # is the scalar max(0, dist + noise + bias) elementwise.
        model = network.ranging_error
        noise = batched_uniform(
            network.rngs.stream("ranging"), events, -model.max_error_ft,
            model.max_error_ft,
        )
        self.measured = np.maximum(
            0.0, (self.dist + noise) + biases[self.packet]
        )
        if events:
            phase.max_time = max(phase.max_time, float(self.time.max()))
        crash = injector.crash if injector is not None else None
        if crash is not None:
            self._drop_crashed(phase, crash, kind, src_ids)
        self.order = np.argsort(self.time, kind="stable")
        node_ids = view.node_ids
        for index in np.flatnonzero(~valid.any(axis=1)).tolist():
            phase.trace.record(
                float(now[index]),
                "drop.out_of_range",
                src=int(node_ids[origin_rows[index]]),
                dst=int(node_ids[dst_rows[index]]),
                packet_kind=kind,
            )
        delivered = int(self.dist.shape[0])
        phase.total_events += events
        network.stats.deliveries += delivered
        phase._received += np.bincount(
            self.dst_row, minlength=phase._received.shape[0]
        )
        pipeline = phase.pipeline
        pipeline._vec_bump("deliveries", delivered)
        pipeline._vec_bump("noise_batched", events)
        pipeline._vec_bump("waves", 1)

    def _drop_crashed(
        self, phase: WavePhase, crash, kind: str, src_ids: np.ndarray
    ) -> None:
        """Drop (and trace) each copy that reaches a receiver already down.

        The scalar delivery event asks the crash model about its
        receiver at arrival time, so ``crash_time`` is queried for
        exactly the receivers of scheduled copies — its per-node event
        counter must see the same set of nodes.
        """
        node_ids = phase.view.node_ids
        crash_at = np.full(phase.view.count, np.inf)
        for row in np.unique(self.dst_row).tolist():
            when = crash.crash_time(int(node_ids[row]))
            if when is not None:
                crash_at[row] = when
        alive = self.time < crash_at[self.dst_row]
        for index in np.flatnonzero(~alive).tolist():
            phase.trace.record(
                float(self.time[index]),
                "drop.crashed",
                src=int(src_ids[self.packet[index]]),
                dst=int(node_ids[self.dst_row[index]]),
                packet_kind=kind,
            )
        for name in (
            "packet", "via_wormhole", "duplicated", "dist", "origin_x",
            "origin_y", "extra", "dst_row", "time", "measured",
        ):
            setattr(self, name, getattr(self, name)[alive])


def _channel_copies(
    phase: WavePhase,
    kind: str,
    now: np.ndarray,
    packet: np.ndarray,
    dst_rows: np.ndarray,
    src_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The loss head of ``_schedule_delivery`` over a wave's copies.

    Without duplication: one ``"network-loss"`` coin per copy, then one
    fault-loss coin per copy that survived it, each batch in scheduling
    order on its model's own stream, with model counters advanced by
    the batch. With a duplication fault, :func:`_duplicating_walk`
    draws the same coins copy by copy. Every drop is traced
    (``drop.loss`` / ``drop.fault``, scheduling time, packet source id,
    receiving node, packet kind) as the scalar path traces it.

    Returns:
        ``(scheduled, duplicated)``: indices into ``packet`` of the
        copies scheduled for delivery, in scalar scheduling order (a
        duplicate repeats its original's index, just before it), and
        which of them are duplicates.
    """
    network = phase.network
    injector = network.fault_injector
    count = packet.shape[0]
    if injector is not None and injector.duplication is not None:
        scheduled, duplicated, drops = _duplicating_walk(
            network.loss_model, injector, count
        )
    else:
        scheduled, drops = _loss_masks(network.loss_model, injector, count)
        duplicated = np.zeros(scheduled.shape[0], dtype=bool)
    node_ids = phase.view.node_ids
    for index, drop in drops:
        logical = packet[index]
        phase.trace.record(
            float(now[logical]),
            drop,
            src=int(src_ids[logical]),
            dst=int(node_ids[dst_rows[logical]]),
            packet_kind=kind,
        )
    return scheduled, duplicated


def _loss_masks(loss_model, injector, count: int):
    """The loss head as two coin batches, for a channel that never duplicates.

    Returns:
        ``(scheduled, drops)`` as :func:`_duplicating_walk` returns them.
    """
    scheduled = np.arange(count)
    fault = injector.loss if injector is not None else None
    if loss_model is None and fault is None:
        return scheduled, []
    codes = np.zeros(count, dtype=np.int8)  # 1 = drop.loss, 2 = drop.fault
    if loss_model is not None:
        lost = raw_uniforms(loss_model.rng, count) < loss_model.loss_rate
        loss_model.attempts += count
        loss_model.losses += int(np.count_nonzero(lost))
        codes[lost] = 1
        scheduled = scheduled[~lost]
    if fault is not None:
        dropped = raw_uniforms(fault.rng, scheduled.shape[0]) < fault.rate
        fault.events += int(np.count_nonzero(dropped))
        codes[scheduled[dropped]] = 2
        scheduled = scheduled[~dropped]
    drops = [
        (index, "drop.loss" if codes[index] == 1 else "drop.fault")
        for index in np.flatnonzero(codes).tolist()
    ]
    return scheduled, drops


def _duplicating_walk(loss_model, injector, count: int):
    """The loss head copy by copy, for a channel that duplicates.

    Per copy, in scheduling order and through the real models: the link
    coin, the fault-loss coin, then the duplication coin. A duplicate
    re-enters the head at once — its own link, fault-loss and
    duplication coins (the last never honoured: a duplicate is not
    duplicated again) — and is scheduled before its original, whose
    delay and noise draws follow the duplicate's.

    Returns:
        ``(scheduled, duplicated, drops)`` as :func:`_channel_copies`
        describes, plus the ``(copy index, drop kind)`` pairs to trace.
    """
    scheduled: List[int] = []
    duplicated: List[bool] = []
    drops: List[Tuple[int, str]] = []

    def survives(index: int) -> bool:
        if loss_model is not None and not loss_model.attempt_succeeds():
            drops.append((index, "drop.loss"))
            return False
        if injector.drop_delivery():
            drops.append((index, "drop.fault"))
            return False
        return True

    for index in range(count):
        if not survives(index):
            continue
        if injector.duplicate_delay() is not None and survives(index):
            injector.duplicate_delay()
            scheduled.append(index)
            duplicated.append(True)
        scheduled.append(index)
        duplicated.append(False)
    return (
        np.array(scheduled, dtype=np.int64),
        np.array(duplicated, dtype=bool),
        drops,
    )


class Replies(NamedTuple):
    """The delivered reply copies of one exchange, in delivery order.

    Attributes:
        receiver: row of the requesting node the reply reaches.
        src: responder node id.
        dst: the requester identity the request carried, echoed (a
            detecting id in the detection phase).
        claimed_x, claimed_y: the location the reply declares.
        bias: the responder's ranging bias.
        fake: fake-wormhole-symptom flag.
        sent: the reply's scheduling time (its request's arrival).
        dist, origin_x, origin_y, extra, via_wormhole, duplicated,
        time, measured: the copy's :class:`Wave` columns.
    """

    receiver: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    claimed_x: np.ndarray
    claimed_y: np.ndarray
    bias: np.ndarray
    fake: np.ndarray
    sent: np.ndarray
    dist: np.ndarray
    origin_x: np.ndarray
    origin_y: np.ndarray
    extra: np.ndarray
    via_wormhole: np.ndarray
    duplicated: np.ndarray
    time: np.ndarray
    measured: np.ndarray


def exchange(
    phase: WavePhase,
    origin_rows: np.ndarray,
    src_ids: np.ndarray,
    dst_rows: np.ndarray,
    biases: np.ndarray,
) -> Replies:
    """One request/reply round of a phase, as two waves.

    One row per request, in scalar build order: the requesting node's
    row, the identity the request carries (a detecting id when probing,
    the node's own id otherwise), the responder's row, and the ranging
    bias the requester's probe power adds. Every request leaves at the
    engine's current time.

    The request wave is served in its delivery order. Benign responders
    are served arithmetically (``requests_served``/``_sequence``
    advanced by count — the per-reply ``sequence`` field feeds no
    protocol decision, so only the final counters must match);
    malicious responders run their real sticky strategy in a Python
    loop at the exact positions they occupy in that order, so their
    RNG consumption is scalar-exact. Each served copy becomes one reply
    of the reply wave, scheduled at its request's arrival.
    """
    view = phase.view
    nodes = phase.nodes
    count = origin_rows.shape[0]
    direct = exact_distances(
        view.xs[origin_rows], view.ys[origin_rows],
        view.xs[dst_rows], view.ys[dst_rows],
    )
    phase.network.stats.distance_evals += count
    now = np.full(count, phase.engine.now(), dtype=np.float64)
    requests = Wave(
        phase, BeaconRequest, now, origin_rows, dst_rows, direct,
        np.zeros(count), biases, src_ids,
    )

    order = requests.order
    packet = requests.packet[order]
    responder_rows = requests.dst_row[order]
    sent = requests.time[order]
    requester_ids = src_ids[packet]
    requester_rows = origin_rows[packet]
    served_count = packet.shape[0]
    reply_src = view.node_ids[responder_rows]
    reply_biases = np.zeros(served_count, dtype=np.float64)
    extras = np.zeros(served_count, dtype=np.float64)
    fakes = np.zeros(served_count, dtype=bool)

    decl_x = view.xs.copy()
    decl_y = view.ys.copy()
    malicious_mask = np.zeros(view.count, dtype=bool)
    for row in phase.beacon_rows:
        node = nodes[row]
        decl_x[row] = node.declared_location.x
        decl_y[row] = node.declared_location.y
        if isinstance(node, MaliciousBeacon):
            malicious_mask[row] = True
    claimed_x = decl_x[responder_rows]
    claimed_y = decl_y[responder_rows]

    # Real sticky adversary decisions, at their delivery-order slots.
    responder_list = responder_rows.tolist()
    requester_list = requester_ids.tolist()
    for position in np.flatnonzero(malicious_mask[responder_rows]).tolist():
        beacon = nodes[responder_list[position]]
        requester = requester_list[position]
        decision = beacon.strategy.decide(requester)
        beacon.responses_by_kind[decision] += 1
        if decision is ResponseKind.NORMAL:
            point = beacon.position
        elif decision is ResponseKind.MALICIOUS:
            point = beacon.lie_location_for(requester)
            reply_biases[position] = beacon.strategy.ranging_bias_ft
        elif decision is ResponseKind.MASK_WORMHOLE:
            point = beacon._far_location_for(requester)
            fakes[position] = True
        else:  # ResponseKind.MASK_LOCAL_REPLAY
            point = beacon.lie_location_for(requester)
            reply_bits = BeaconPacket(
                src_id=beacon.node_id, dst_id=0
            ).size_bits
            extras[position] = packet_transmission_cycles(reply_bits)
        claimed_x[position] = point.x
        claimed_y[position] = point.y

    # Per-responder protocol counters, by count.
    served = np.bincount(responder_rows, minlength=view.count)
    for row in np.flatnonzero(served):
        node = nodes[row]
        node.requests_served += int(served[row])
        node._sequence += int(served[row])

    # The reply's direct distance is its request's (|dx|, |dy| are
    # identical either way, and hypot is sign-symmetric).
    replies = Wave(
        phase, BeaconPacket, sent, responder_rows, requester_rows,
        direct[packet], extras, reply_biases, reply_src,
    )
    order = replies.order
    rep = replies.packet[order]
    return Replies(
        receiver=requester_rows[rep],
        src=reply_src[rep],
        dst=requester_ids[rep],
        claimed_x=claimed_x[rep],
        claimed_y=claimed_y[rep],
        bias=reply_biases[rep],
        fake=fakes[rep],
        sent=sent[rep],
        dist=replies.dist[order],
        origin_x=replies.origin_x[order],
        origin_y=replies.origin_y[order],
        extra=replies.extra[order],
        via_wormhole=replies.via_wormhole[order],
        duplicated=replies.duplicated[order],
        time=replies.time[order],
        measured=replies.measured[order],
    )


def replay_cascade(
    phase: WavePhase,
    replies: Replies,
    subset: np.ndarray,
    receivers: list,
    out_of_range: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The §2.2 replay-filter cascade over some of an exchange's replies.

    ``subset`` indexes the replies the cascade judges, in delivery
    order, and ``receivers`` holds their requesting nodes. One
    :func:`~repro.vec.measurement.batched_rtt` call draws their RTTs —
    the draws the scalar per-reply ``measure_rtt`` makes, in reply
    order — and :func:`~repro.vec.measurement.observe_rtts` perturbs
    and reports them. Then the §2.2.1 wormhole filter: a reply marked
    ``out_of_range`` (its declared location lies beyond radio range of
    a receiver that knows its own position) is decided without a
    detector call; :func:`wormhole_verdicts` judges the rest. Each reply
    neither flags faces its receiver's §2.2.2 RTT window.

    Returns:
        ``(wormhole, local)`` masks over ``subset``.
    """
    network = phase.network
    phase.pipeline._vec_bump("rtt_batched", int(subset.shape[0]))
    rtts = batched_rtt(
        network.rngs.stream("rtt"),
        network.rtt_model,
        replies.dist[subset],
        replies.extra[subset],
        replies.time[subset],
    )
    observed = observe_rtts(network, rtts, receivers)
    wormhole = out_of_range.copy()
    local = np.zeros(subset.shape[0], dtype=bool)
    if not receivers:
        return wormhole, local
    # Every node's cascade shares the one wormhole detector.
    wormhole |= wormhole_verdicts(
        receivers[0].filter_cascade.wormhole_detector,
        ~out_of_range,
        replies.fake[subset],
        replies.via_wormhole[subset],
        phase.view.node_ids[replies.receiver[subset]],
        replies.src[subset],
    )
    for position in np.flatnonzero(~wormhole).tolist():
        local[position] = (
            receivers[position].filter_cascade.local_replay_detector
            .is_replayed(observed[position])
        )
    return wormhole, local


def wormhole_verdicts(
    detector: ProbabilisticWormholeDetector,
    evaluated: np.ndarray,
    fakes: np.ndarray,
    via_wormhole: np.ndarray,
    requester_ids: np.ndarray,
    src_ids: np.ndarray,
) -> np.ndarray:
    """Batched ``detector.detect`` over one reply batch, draw-exact.

    ``evaluated`` marks the copies the cascade actually hands to the
    detector (the §2.2.1 range check short-circuits the rest).
    ``checks``/``flags`` are bulk-incremented. RNG parity follows the
    scalar branch structure: faked symptoms flag without a draw; a
    genuinely tunnelled copy flips one ``p_d`` coin per first-seen
    (requester, target) pair against the live sticky verdict table; a
    clean copy draws a false-alarm coin only when ``false_alarm_rate``
    is positive. With a zero false-alarm rate (the paper's model) clean
    copies draw nothing, so the tunnel coins are the only draws and the
    sparse loop below visits just those; with a positive rate every
    evaluated copy may draw, so one ordered loop walks the whole batch
    — either way each coin lands exactly where the scalar loop flips
    it, because both loops run in delivery order.
    """
    flagged = np.zeros(evaluated.shape[0], dtype=bool)
    verdicts = detector._verdicts
    rng = detector._rng
    requester_list = requester_ids.tolist()
    src_list = src_ids.tolist()
    if detector.false_alarm_rate > 0.0:
        fakes_list = fakes.tolist()
        via_list = via_wormhole.tolist()
        rate = detector.false_alarm_rate
        for index in np.flatnonzero(evaluated).tolist():
            if fakes_list[index]:
                flagged[index] = True
            elif via_list[index]:
                key = (requester_list[index], src_list[index])
                verdict = verdicts.get(key)
                if verdict is None:
                    verdict = rng.random() < detector.p_d
                    verdicts[key] = verdict
                flagged[index] = verdict
            else:
                flagged[index] = rng.random() < rate
    else:
        flagged[evaluated & fakes] = True
        for index in np.flatnonzero(evaluated & via_wormhole & ~fakes).tolist():
            key = (requester_list[index], src_list[index])
            verdict = verdicts.get(key)
            if verdict is None:
                verdict = rng.random() < detector.p_d
                verdicts[key] = verdict
            flagged[index] = verdict
    detector.checks += int(np.count_nonzero(evaluated))
    detector.flags += int(np.count_nonzero(flagged))
    return flagged
