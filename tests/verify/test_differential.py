"""Differential conformance: production must match the oracles.

CI runs the full 1000-scenario sweep through ``repro-verify``; here a
smaller seeded slice keeps the unit suite fast while still exercising
every component and the divergence-reporting plumbing.
"""

import pytest

from repro.detectors import available_detectors
from repro.verify import (
    DifferentialReport,
    differential_base_station,
    differential_cascade,
    differential_pipeline_axes,
    differential_rtt_window,
    differential_signal_check,
    differential_vectorized_core,
    run_differential_suite,
)
from repro.verify.differential import VEC_ENVELOPES, vec_scenario_axes

SCENARIOS = 150


class TestComponents:
    @pytest.mark.parametrize(
        "component",
        [
            differential_signal_check,
            differential_cascade,
            differential_rtt_window,
            differential_base_station,
        ],
    )
    def test_no_divergences(self, component):
        report = component(SCENARIOS, seed=0)
        assert report.ok, "\n".join(d.detail for d in report.divergences)
        assert report.scenarios == SCENARIOS

    @pytest.mark.parametrize(
        "component",
        [differential_signal_check, differential_base_station],
    )
    def test_seed_changes_scenarios_not_verdict(self, component):
        assert component(40, seed=1).ok
        assert component(40, seed=2).ok


@pytest.mark.slow
class TestPipelineAxes:
    def test_axes_bit_identical(self):
        report = differential_pipeline_axes(2, seed=0)
        assert report.ok, "\n".join(d.detail for d in report.divergences)


@pytest.mark.slow
class TestVectorizedCore:
    def test_scalar_vs_vectorized_bit_identical(self):
        report = differential_vectorized_core(2, seed=0)
        assert report.ok, "\n".join(d.detail for d in report.divergences)

    def test_default_scenarios_cover_every_envelope_and_detector(self):
        # The suite default (40 scenarios) must keep reaching every
        # delivery envelope and every detector — otherwise the
        # differential could silently stop checking one of them.
        axes = [vec_scenario_axes(i) for i in range(40)]
        assert {envelope for envelope, _ in axes} == set(
            range(len(VEC_ENVELOPES))
        )
        assert {detector for _, detector in axes} == set(
            available_detectors()
        )
        report = differential_vectorized_core(40, seed=0)
        assert report.ok, "\n".join(d.detail for d in report.divergences)


class TestReport:
    def test_summary_counts_divergences(self):
        report = DifferentialReport("demo", 5)
        assert report.ok
        assert "OK" in report.summary()

    def test_full_suite_shape(self):
        reports = run_differential_suite(
            10, seed=0, axes_scenarios=0, vec_scenarios=0
        )
        assert [r.component for r in reports] == [
            "signal_check",
            "cascade",
            "rtt_window",
            "base_station",
            "pipeline_axes",
            "vectorized_core",
        ]
        assert all(r.ok for r in reports)
