"""The detecting-beacon role (paper Sections 2.1-2.2).

A :class:`DetectingBeacon` is a benign beacon node that, besides serving
beacon requests, probes neighbouring beacons under its **detecting IDs** —
extra non-beacon identities whose requests a malicious beacon cannot tell
apart from genuine localization traffic. For each probe reply it:

1. verifies the packet's authentication;
2. runs the Section 2.1 distance-consistency check (it knows its own
   location exactly);
3. on inconsistency, runs the Section 2.2 replay-filter cascade;
4. if the malicious signal survives the filters, reports an alert
   ``(own primary id, target id)`` to the base station, authenticated with
   its base-station key.

Paper section: §2.1-§2.2 (detecting beacon nodes)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.replay_filter import ReplayFilterCascade
from repro.core.revocation import BaseStation
from repro.detectors.base import Detector, Exchange
from repro.detectors.paper import PaperDetector
from repro.errors import DeliveryError
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.localization.beacon import BeaconService
from repro.sim.messages import BeaconPacket, BeaconRequest
from repro.sim.radio import Reception
from repro.sim.reliable import ReliableChannel
from repro.utils.geometry import Point


@dataclass(frozen=True)
class ProbeOutcome:
    """Result of one detecting probe (kept for metrics/tests)."""

    detecting_id: int
    target_id: int
    decision: str  # "consistent" | "replayed_wormhole" | "replayed_local" | "alert"


class DetectingBeacon(BeaconService):
    """A benign beacon node with the full detection suite installed.

    Args:
        node_id: primary beacon identity.
        position: physical (= declared) location.
        key_manager: for packet auth and the base-station alert MAC.
        signal_detector: the distance-consistency check.
        filter_cascade: the replay filters (wormhole + RTT).
        base_station: where surviving alerts are reported.
        detecting_ids: this beacon's extra identities (allocate them via
            :meth:`KeyManager.allocate_detecting_ids` and register network
            aliases before probing).
        alert_channel: optional ARQ channel alerts ride to the base
            station (the §3.2 fault-tolerance assumption made concrete).
        request_channel: optional ARQ channel wrapping the *probe
            request* hop, retrying a request the lossy link swallowed; a
            request whose retry budget is exhausted degrades to a lost
            probe (counted in :attr:`probes_lost`), never an exception.
        detector: optional :class:`repro.detectors.base.Detector` that
            judges probe replies instead of the paper suite. ``None``
            (the default) wraps this beacon's own ``signal_detector`` +
            ``filter_cascade`` in a
            :class:`~repro.detectors.paper.PaperDetector`, which is
            bit-identical to the pre-arena reply handler.
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        key_manager: KeyManager,
        *,
        signal_detector: MaliciousSignalDetector,
        filter_cascade: ReplayFilterCascade,
        base_station: Optional[BaseStation] = None,
        detecting_ids: Optional[List[int]] = None,
        alert_channel: Optional[ReliableChannel] = None,
        request_channel: Optional[ReliableChannel] = None,
        probe_power_randomization_ft: float = 0.0,
        detector: Optional[Detector] = None,
    ) -> None:
        super().__init__(node_id, position, key_manager)
        self.signal_detector = signal_detector
        self.filter_cascade = filter_cascade
        self.detector: Detector = (
            detector
            if detector is not None
            else PaperDetector(signal_detector, filter_cascade)
        )
        self.base_station = base_station
        self.alert_channel = alert_channel
        self.request_channel = request_channel
        self.detecting_ids = list(detecting_ids or [])
        #: Probe requests whose ARQ retry budget was exhausted.
        self.probes_lost = 0
        #: §2.1 countermeasure: "adjust the transmission power in RSSI
        #: technique" — each probe's ranging signature is biased by a
        #: uniform draw in ±this many feet, so an inferring attacker
        #: cannot match the probe's measured distance to a beacon ring.
        self.probe_power_randomization_ft = probe_power_randomization_ft
        self.probe_outcomes: List[ProbeOutcome] = []
        self.alerted_targets: set[int] = set()
        #: Alerts whose ARQ retry budget was exhausted (§3.2 violated).
        self.alerts_lost = 0
        self._next_nonce = 1
        self.on(BeaconPacket, type(self)._handle_probe_reply)

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def probe(self, target_id: int, detecting_id: int) -> None:
        """Request a beacon signal from ``target_id`` under a detecting ID."""
        if detecting_id not in self.detecting_ids:
            raise ValueError(
                f"{detecting_id} is not one of beacon {self.node_id}'s detecting IDs"
            )
        request = BeaconRequest(
            src_id=detecting_id, dst_id=target_id, nonce=self._next_nonce
        )
        self._next_nonce += 1
        bias = 0.0
        if self.probe_power_randomization_ft > 0.0 and self.network is not None:
            bias = self.network.rngs.stream("probe-power").uniform(
                -self.probe_power_randomization_ft,
                self.probe_power_randomization_ft,
            )
        signed = self.key_manager.sign(request)
        if self.request_channel is None:
            self.send(signed, ranging_bias_ft=bias)
            return
        report = self.request_channel.send(
            lambda: self.send(signed, ranging_bias_ft=bias),
            raise_on_exhaustion=False,
        )
        if not report.delivered:
            self.probes_lost += 1

    def probe_all_ids(self, target_id: int) -> None:
        """Probe ``target_id`` once per detecting ID (the paper's m probes)."""
        for detecting_id in self.detecting_ids:
            self.probe(target_id, detecting_id)

    # ------------------------------------------------------------------
    # Reply handling
    # ------------------------------------------------------------------
    def _handle_probe_reply(self, reception: Reception) -> None:
        packet = reception.packet
        if packet.dst_id not in self.detecting_ids:
            return  # a beacon packet for someone else (or our primary id)
        if not self.key_manager.verify(packet):
            return
        self.judge_reply(reception)

    def judge_reply(self, reception: Reception) -> None:
        """Judge one authenticated probe reply and act on the verdict.

        The post-verification half of the reply handler, shared by the
        scalar event loop and the vectorized core's rival-detector path:
        build the :class:`Exchange`, let :attr:`detector` evaluate it,
        record the outcome and report an indicted target — all at the
        reply's arrival time, which the vectorized core emulates
        without advancing the engine clock.
        """
        packet = reception.packet
        exchange = Exchange(
            detector_id=self.node_id,
            detecting_id=packet.dst_id,
            target_id=packet.src_id,
            detector_position=self.position,
            declared_position=packet.claimed_point,
            measured_distance_ft=reception.measured_distance_ft,
            reception=reception,
            rtt_provider=lambda: self._observe_rtt(reception),
        )
        verdict = self.detector.evaluate(exchange)
        self._record(
            packet.dst_id,
            packet.src_id,
            verdict.decision,
            signal_consistent=verdict.signal_consistent,
            time=reception.arrival_time,
        )
        if verdict.indict:
            self.report_alert(packet.src_id, time=reception.arrival_time)

    def _observe_rtt(self, reception: Reception) -> float:
        """Measure the register-level RTT of this exchange."""
        if self.network is None:
            return 0.0
        tx = reception.transmission
        return self.network.measure_rtt(
            self, tx.tx_origin, tx.extra_delay_cycles, reception.arrival_time
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report_alert(self, target_id: int, *, time: float = 0.0) -> bool:
        """Send an authenticated alert about ``target_id`` to the base station.

        A detecting node only reports a given target once (additional
        alerts from the same detector carry no extra information and would
        just burn its report quota). When an ``alert_channel`` is
        configured, the alert rides the lossy link with retransmission —
        the paper's §3.2 fault-tolerance assumption made concrete. An
        exhausted retry budget (:class:`repro.errors.DeliveryError`) is
        absorbed here: the beacon has no recourse beyond the ARQ layer,
        so the alert is counted lost and the protocol degrades instead
        of crashing.
        """
        if self.base_station is None:
            return False
        if target_id in self.alerted_targets:
            return False
        self.alerted_targets.add(target_id)
        payload = BaseStation.alert_payload(self.node_id, target_id)
        tag = self.key_manager.sign_alert_payload(self.node_id, payload)
        if self.alert_channel is None:
            return self.base_station.submit_alert(
                self.node_id, target_id, tag=tag, time=time
            )
        try:
            report = self.alert_channel.send(
                lambda: self.base_station.submit_alert(
                    self.node_id, target_id, tag=tag, time=time
                )
            )
        except DeliveryError:
            self.alerts_lost += 1
            return False
        return report.delivered

    def _record(
        self,
        detecting_id: int,
        target_id: int,
        decision: str,
        *,
        signal_consistent: bool,
        time: float,
    ) -> None:
        self.probe_outcomes.append(
            ProbeOutcome(
                detecting_id=detecting_id, target_id=target_id, decision=decision
            )
        )
        if self.network is not None:
            # The §2.1 verdict is recorded alongside the final decision so
            # post-hoc invariant checkers (repro.verify.invariants) can
            # assert "a consistent signal never indicts" from the trace
            # alone, without re-deriving the check.
            self.network.trace.record(
                time,
                "probe",
                detector=self.node_id,
                detecting_id=detecting_id,
                target=target_id,
                decision=decision,
                signal_consistent=signal_consistent,
            )
