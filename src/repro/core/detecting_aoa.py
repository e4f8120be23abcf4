"""Angle-aware detecting beacons (the §2.3 AoA extension, end to end).

A :class:`AngleDetectingBeacon` runs *both* consistency checks on every
probe reply: the §2.1 distance check and the AoA bearing check
(:mod:`repro.core.angle_detector`). The payoff is against the paper's
"consistent lie" equivalence class: an attacker who games its transmit
power can make the *measured distance* agree with a lied location, but it
cannot steer the physical direction its signal arrives from — so a lie off
the true bearing ray is caught by the angle check even when the distance
check is blind to it.

Paper section: §2.3 (angle-aware detecting beacons)
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.core.angle_detector import (
    AngleConsistencyDetector,
    CombinedConsistencyDetector,
)
from repro.core.detecting import DetectingBeacon
from repro.core.replay_filter import FilterDecision, ReplayFilterCascade
from repro.core.revocation import BaseStation
from repro.core.signal_detector import MaliciousSignalDetector
from repro.crypto.manager import KeyManager
from repro.sim.radio import Reception
from repro.utils.geometry import Point


class AngleDetectingBeacon(DetectingBeacon):
    """A detecting beacon with an AoA antenna.

    Args:
        angle_detector: the bearing-consistency check (its
            ``max_error_rad`` should match the antenna's accuracy).
        aoa_error_rad: measurement noise of the antenna.
        (remaining args as :class:`DetectingBeacon`)
    """

    def __init__(
        self,
        node_id: int,
        position: Point,
        key_manager: KeyManager,
        *,
        signal_detector: MaliciousSignalDetector,
        filter_cascade: ReplayFilterCascade,
        angle_detector: Optional[AngleConsistencyDetector] = None,
        aoa_error_rad: float = math.radians(5.0),
        base_station: Optional[BaseStation] = None,
        detecting_ids: Optional[List[int]] = None,
    ) -> None:
        super().__init__(
            node_id,
            position,
            key_manager,
            signal_detector=signal_detector,
            filter_cascade=filter_cascade,
            base_station=base_station,
            detecting_ids=detecting_ids,
        )
        self.aoa_error_rad = aoa_error_rad
        self.combined = CombinedConsistencyDetector(
            distance_detector=signal_detector,
            angle_detector=(
                angle_detector
                if angle_detector is not None
                else AngleConsistencyDetector(max_error_rad=aoa_error_rad)
            ),
        )
        self.angle_only_catches = 0

    def _handle_probe_reply(self, reception: Reception) -> None:
        packet = reception.packet
        if packet.dst_id not in self.detecting_ids:
            return
        if not self.key_manager.verify(packet):
            return

        bearing = 0.0
        if self.network is not None:
            bearing = self.network.measure_bearing(
                self,
                reception.transmission.tx_origin,
                max_error_rad=self.aoa_error_rad,
            )
        check = self.combined.check(
            self.position,
            packet.claimed_point,
            reception.measured_distance_ft,
            bearing,
        )
        # For an angle-aware beacon the consistency verdict is the
        # *combined* check: a distance-consistent lie off the bearing ray
        # is still inconsistent, and indicting it is correct (§2.3).
        consistent = not check.is_malicious
        if consistent:
            self._record(
                packet.dst_id, packet.src_id, "consistent",
                signal_consistent=consistent,
                time=reception.arrival_time,
            )
            return
        if check.angle.is_malicious and not check.distance.is_malicious:
            self.angle_only_catches += 1

        rtt = self._observe_rtt(reception)
        decision = self.filter_cascade.evaluate(
            reception, self.position, rtt, receiver_knows_location=True
        )
        if decision is FilterDecision.REPLAYED_WORMHOLE:
            self._record(
                packet.dst_id, packet.src_id, "replayed_wormhole",
                signal_consistent=consistent,
                time=reception.arrival_time,
            )
            return
        if decision is FilterDecision.REPLAYED_LOCAL:
            self._record(
                packet.dst_id, packet.src_id, "replayed_local",
                signal_consistent=consistent,
                time=reception.arrival_time,
            )
            return
        self._record(
            packet.dst_id, packet.src_id, "alert",
            signal_consistent=consistent, time=reception.arrival_time,
        )
        self.report_alert(packet.src_id, time=reception.arrival_time)
