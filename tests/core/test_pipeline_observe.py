"""Pipeline-level guarantees of the observability layer.

The contract under test:

- **off = bit-identical**: ``observe=None`` and an observed run draw the
  same random numbers, so the :class:`PipelineResult` matches exactly —
  across seeds, wormhole placement, and fault injection;
- observation is *additive*: the observed run also yields spans for
  every phase, Figure-4-style RTT histograms, and the §3.1 alert/report
  counters via ``telemetry()``;
- ``telemetry()`` on an unobserved pipeline is an empty dict, not an
  error;
- ``profile_snapshot()`` is a renamed view of the same counter series
  the trial registry holds, and reading it never changes that registry.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.core.pipeline import (
    PipelineConfig,
    SecureLocalizationPipeline,
)
from repro.faults import FaultConfig
from repro.obs import ObserveConfig, active_span_of


def small_config(**overrides):
    """A scaled-down deployment that keeps tests fast."""
    defaults = dict(
        n_total=220,
        n_beacons=40,
        n_malicious=4,
        field_width_ft=500.0,
        field_height_ft=500.0,
        m_detecting_ids=4,
        rtt_calibration_samples=500,
        wormhole_endpoints=((50.0, 50.0), (400.0, 350.0)),
        seed=5,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


SCENARIOS = [
    pytest.param(dict(seed=5), id="wormhole-seed5"),
    pytest.param(dict(seed=17), id="wormhole-seed17"),
    pytest.param(dict(seed=5, wormhole_endpoints=None), id="benign-seed5"),
    pytest.param(
        dict(seed=5, faults=FaultConfig(packet_loss_rate=0.2)),
        id="faulted-seed5",
    ),
    pytest.param(
        dict(
            seed=17,
            faults=FaultConfig(packet_loss_rate=0.1, rtt_jitter_cycles=10.0),
        ),
        id="faulted-seed17",
    ),
]


class TestObserveOffBitIdentical:
    @pytest.mark.parametrize("overrides", SCENARIOS)
    def test_observed_equals_unobserved(self, overrides):
        baseline = SecureLocalizationPipeline(small_config(**overrides)).run()
        observed = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig(), **overrides)
        ).run()
        assert observed == baseline

    def test_unobserved_telemetry_is_empty(self):
        pipeline = SecureLocalizationPipeline(small_config())
        pipeline.run()
        assert pipeline.telemetry() == {}


class TestObservedTelemetry:
    @pytest.fixture(scope="class")
    def telemetry(self):
        pipeline = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig())
        )
        pipeline.run()
        return pipeline.telemetry()

    def test_every_phase_has_a_span(self, telemetry):
        names = {span["name"] for span in telemetry["spans"]}
        assert names == {
            "trial",
            "phase:build",
            "phase:collusion",
            "phase:detection",
            "phase:notices",
            "phase:localization",
            "phase:metrics",
        }

    def test_trial_span_is_root(self, telemetry):
        trial = [s for s in telemetry["spans"] if s["name"] == "trial"][0]
        assert trial["parent"] == 0
        phases = [s for s in telemetry["spans"] if s["name"] != "trial"]
        assert all(span["parent"] == trial["id"] for span in phases)

    def test_rtt_histograms_present(self, telemetry):
        histograms = telemetry["registry"]["histograms"]
        calibration = histograms['rtt_cycles{kind="calibration"}']
        exchange = histograms['rtt_cycles{kind="exchange"}']
        assert calibration["count"] == 500  # rtt_calibration_samples
        assert exchange["count"] > 0
        # The honest-RTT band (~15.5-17.2k cycles) lands inside the fixed
        # bucket layout, not in the +Inf overflow slot.
        assert calibration["counts"][-1] == 0

    def test_section3_counters_present(self, telemetry):
        counters = telemetry["registry"]["counters"]
        accepted = sum(
            value
            for key, value in counters.items()
            if key.startswith("alerts_total{") and 'accepted="true"' in key
        )
        assert accepted > 0
        assert counters["revocations_total"] > 0
        assert counters["probes_sent_total"] > 0
        assert counters["sim_events_total"] > 0
        assert counters["net_deliveries_total"] > 0

    def test_report_counters_present(self, telemetry):
        gauges = telemetry["registry"]["gauges"]
        assert any(key.startswith("bs_alert_counter{") for key in gauges)
        assert any(key.startswith("bs_report_counter{") for key in gauges)

    def test_span_events_in_event_stream(self, telemetry):
        kinds = [event["kind"] for event in telemetry["events"]]
        assert kinds.count("span.begin") == 7
        assert kinds.count("span.end") == 7


class TestObserveKnobs:
    def test_spans_off_metrics_on(self):
        pipeline = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig(spans=False))
        )
        pipeline.run()
        telemetry = pipeline.telemetry()
        assert telemetry["spans"] == []
        assert telemetry["registry"]["counters"]

    def test_rtt_histograms_off(self):
        pipeline = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig(rtt_histograms=False))
        )
        pipeline.run()
        histograms = pipeline.telemetry()["registry"]["histograms"]
        assert histograms == {}

    def test_per_node_rtt_labels(self):
        pipeline = SecureLocalizationPipeline(
            small_config(observe=ObserveConfig(per_node_rtt=True))
        )
        pipeline.run()
        histograms = pipeline.telemetry()["registry"]["histograms"]
        assert any("node=" in key for key in histograms)

    def test_observe_rejects_non_config(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            small_config(observe={"spans": True})


PHASES = {"build", "collusion", "detection", "notices", "localization", "metrics"}
NET_KEYS = {
    "deliveries",
    "distance_evals",
    "grid_cells_visited",
    "probes",
    "spatial_queries",
}
VEC_KEYS = {
    "vec_calibration_rtts",
    "vec_deliveries",
    "vec_noise_batched",
    "vec_rtt_batched",
    "vec_waves",
}
FAULT_KEYS = {"fault_packet_loss", "fault_rtt_jitter", "fault_rtt_spikes"}
CHANNEL_KEYS = {
    f"channel_{channel}_{field}"
    for channel in ("alert", "request")
    for field in ("attempts", "delivered", "failed", "retries", "sends")
}
LOSSY_JITTERY = FaultConfig(packet_loss_rate=0.05, rtt_jitter_cycles=750.0)

#: (config overrides, the profile counter keys the envelope reports).
PROFILE_ENVELOPES = [
    pytest.param(dict(use_vectorized_core=False), NET_KEYS, id="scalar-clean"),
    pytest.param(
        dict(use_vectorized_core=True), NET_KEYS | VEC_KEYS, id="vec-clean"
    ),
    pytest.param(
        dict(use_vectorized_core=True, faults=LOSSY_JITTERY),
        NET_KEYS | VEC_KEYS | FAULT_KEYS,
        id="vec-lossy-jittery",
    ),
    pytest.param(
        dict(
            use_vectorized_core=False,
            faults=LOSSY_JITTERY,
            alert_loss_rate=0.2,
            request_loss_rate=0.2,
        ),
        NET_KEYS | FAULT_KEYS | CHANNEL_KEYS,
        id="scalar-faults-arq",
    ),
    pytest.param(
        dict(use_vectorized_core=False, revocation_dissemination="flood"),
        NET_KEYS,
        id="scalar-flood",
    ),
]


def series_key(profile_key):
    """The trial-registry series a ``profile_snapshot`` counter renames."""
    if profile_key == "probes":
        return "probes_sent_total"
    family, _, rest = profile_key.partition("_")
    if family == "vec":
        return f'vec_batch_total{{kind="{rest}"}}'
    if family == "fault":
        return f'fault_events_total{{kind="{rest}"}}'
    if family == "channel":
        channel, _, field = rest.partition("_")
        return f'arq_{field}_total{{channel="{channel}"}}'
    return f"net_{profile_key}_total"


class TestProfileViewOfRegistry:
    @pytest.mark.parametrize("overrides,keys", PROFILE_ENVELOPES)
    def test_profile_counters_are_renamed_registry_series(self, overrides, keys):
        config = small_config(observe=ObserveConfig(), **overrides)
        pipeline = SecureLocalizationPipeline(config)
        pipeline.run()
        # Read the profile twice before the registry export and once after:
        # neither order may leak into the trial registry.
        before = [pipeline.profile_snapshot(), pipeline.profile_snapshot()]
        registry = pipeline.telemetry()["registry"]
        after = pipeline.profile_snapshot()

        counters = after["counters"]
        assert set(counters) == keys
        assert set(after["phases"]) == PHASES
        assert before[0]["counters"] == before[1]["counters"] == counters
        for key, value in counters.items():
            assert registry["counters"][series_key(key)] == value

        untouched = SecureLocalizationPipeline(config)
        untouched.run()
        assert untouched.telemetry()["registry"] == registry


class TestPhaseTiming:
    def test_phase_records_elapsed_time(self):
        pipeline = SecureLocalizationPipeline(small_config())
        with pipeline._phase("work"):
            time.sleep(0.01)
        assert pipeline.phase_seconds["work"] >= 0.01

    def test_phase_reentry_accumulates(self):
        pipeline = SecureLocalizationPipeline(small_config())
        for _ in range(3):
            with pipeline._phase("loop"):
                time.sleep(0.002)
        assert list(pipeline.phase_seconds) == ["loop"]
        assert pipeline.phase_seconds["loop"] >= 0.006

    def test_raising_phase_is_timed_and_tagged(self):
        pipeline = SecureLocalizationPipeline(small_config())
        with pytest.raises(ValueError) as excinfo:
            with pipeline._phase("boom"):
                raise ValueError("x")
        assert "boom" in pipeline.phase_seconds
        assert active_span_of(excinfo.value) == "boom"


def test_pipeline_import_leaves_server_and_profiling_modules_unloaded():
    code = (
        "import sys, repro.core.pipeline; "
        "print(sorted({'http.server', 'repro.utils.profiling'} & set(sys.modules)))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out.strip() == "[]"
