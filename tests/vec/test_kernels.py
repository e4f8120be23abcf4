"""Property tests: the ``repro.vec`` kernels vs their scalar references.

Every kernel claims *bit-identity* with the scalar code it replaces, so
these tests compare with ``==`` — never ``approx``. Hypothesis drives
randomized shapes (including empty and single-element batches), values
snapped onto the awkward range boundary, and NaN/inf coordinates, and
each RNG-consuming kernel is additionally checked to advance its stream
exactly as far as the scalar loop would.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.faults.models import ClockDriftFault, RttJitterFault
from repro.sim.timing import RttModel
from repro.vec.geometry import within_range_matrix
from repro.vec.measurement import (
    batched_calibration_rtts,
    batched_rtt,
    batched_rtt_perturbation,
    batched_uniform,
    discrepancy_mask,
    raw_uniforms,
)

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
coordinate = st.one_of(
    finite, st.sampled_from([0.0, -0.0, float("nan"), float("inf")])
)


# ----------------------------------------------------------------------
# RNG-stream kernels
# ----------------------------------------------------------------------
@given(seed=st.integers(0, 2**31), n=st.integers(0, 200))
@settings(max_examples=60, deadline=None)
def test_raw_uniforms_matches_scalar_draw_sequence(seed, n):
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    raws = raw_uniforms(vec_rng, n)
    assert raws.tolist() == [ref_rng.random() for _ in range(n)]
    # Both streams ended in the same state: the next draw agrees.
    assert vec_rng.random() == ref_rng.random()


def test_raw_uniforms_rejects_negative_and_handles_empty():
    rng = random.Random(7)
    assert raw_uniforms(rng, 0).shape == (0,)
    assert rng.random() == random.Random(7).random()  # no draws consumed
    with pytest.raises(ConfigurationError):
        raw_uniforms(rng, -1)


@given(
    seed=st.integers(0, 2**31),
    n=st.integers(0, 100),
    low=finite,
    high=finite,
)
@settings(max_examples=60, deadline=None)
def test_batched_uniform_bit_identical_to_scalar_uniform(seed, n, low, high):
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    batch = batched_uniform(vec_rng, n, low, high)
    assert batch.tolist() == [ref_rng.uniform(low, high) for _ in range(n)]


@given(
    seed=st.integers(0, 2**31),
    specs=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=5e4, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            st.floats(min_value=0.0, max_value=1e7, allow_nan=False),
        ),
        min_size=0,
        max_size=40,
    ),
)
@settings(max_examples=60, deadline=None)
def test_batched_rtt_bit_identical_to_scalar_sample(seed, specs):
    model = RttModel()
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    dists = np.array([s[0] for s in specs], dtype=np.float64)
    extras = np.array([s[1] for s in specs], dtype=np.float64)
    starts = np.array([s[2] for s in specs], dtype=np.float64)
    batch = batched_rtt(vec_rng, model, dists, extras, starts)
    reference = [
        model.sample(
            ref_rng,
            distance_ft=d,
            extra_delay_cycles=e,
            start_time=t,
        ).rtt
        for d, e, t in specs
    ]
    assert batch.tolist() == reference
    assert vec_rng.random() == ref_rng.random()


def test_batched_rtt_validates_like_the_scalar_sampler():
    model = RttModel()
    rng = random.Random(0)
    ok = np.zeros(2)
    with pytest.raises(ConfigurationError):
        batched_rtt(rng, model, np.array([-1.0, 0.0]), ok, ok)
    with pytest.raises(ConfigurationError):
        batched_rtt(rng, model, ok, np.array([0.0, -5.0]), ok)
    with pytest.raises(ConfigurationError):
        batched_rtt(rng, model, np.zeros(3), ok, ok)
    # Validation and the empty batch consume no draws.
    assert rng.random() == random.Random(0).random()
    empty = np.empty(0)
    assert batched_rtt(rng, model, empty, empty, empty).shape == (0,)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    samples=st.integers(min_value=1, max_value=64),
    distance=st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
)
@settings(max_examples=40, deadline=None)
def test_batched_calibration_rtts_bit_identical_to_scalar_loop(
    seed, samples, distance
):
    model = RttModel()
    vec_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    batch = batched_calibration_rtts(model, vec_rng, samples, distance)
    reference = model.sample_rtts(ref_rng, samples, distance_ft=distance)
    assert batch == reference
    # Both paths consumed exactly the same draws: streams stay in step.
    assert vec_rng.random() == ref_rng.random()


def test_batched_calibration_rtts_rejects_nonpositive_counts():
    model = RttModel()
    rng = random.Random(0)
    with pytest.raises(ConfigurationError):
        batched_calibration_rtts(model, rng, 0, 10.0)
    with pytest.raises(ConfigurationError):
        batched_calibration_rtts(model, rng, -3, 10.0)
    assert rng.random() == random.Random(0).random()  # no draws consumed


#: (jitter_cycles, spike_rate): jitter only, spikes only, both.
RTT_FAULT_SHAPES = [(750.0, 0.0), (0.0, 0.3), (750.0, 0.3)]


def _rtt_faults(seed, jitter_cycles, spike_rate, drift_ppm):
    jitter = RttJitterFault(
        jitter_cycles, spike_rate, 30000.0, random.Random(seed)
    )
    drift = ClockDriftFault(drift_ppm, seed) if drift_ppm else None
    return jitter, drift


@pytest.mark.parametrize("jitter_cycles, spike_rate", RTT_FAULT_SHAPES)
@given(
    seed=st.integers(0, 2**31),
    rows=st.lists(
        st.tuples(
            # Small RTTs let the jitter push observations below zero,
            # so the max(0, ...) clamp is exercised.
            st.one_of(
                st.floats(0.0, 1000.0), st.floats(2e4, 2e6), st.just(0.0)
            ),
            st.integers(1, 6),
        ),
        max_size=60,
    ),
    drift_ppm=st.sampled_from([0.0, 40.0, 5000.0]),
)
@settings(max_examples=40, deadline=None)
def test_batched_rtt_perturbation_matches_scalar_skew_then_perturb(
    jitter_cycles, spike_rate, seed, rows, drift_ppm
):
    vec_jitter, vec_drift = _rtt_faults(
        seed, jitter_cycles, spike_rate, drift_ppm
    )
    ref_jitter, ref_drift = _rtt_faults(
        seed, jitter_cycles, spike_rate, drift_ppm
    )
    rtts = [rtt for rtt, _ in rows]
    observers = [node for _, node in rows]
    batch = batched_rtt_perturbation(
        np.array(rtts, dtype=np.float64), observers,
        jitter=vec_jitter, drift=vec_drift,
    )
    reference = [
        ref_jitter.perturb(
            ref_drift.skew(node, rtt) if ref_drift is not None else rtt
        )
        for rtt, node in rows
    ]
    # Element for element, to the bit (-0.0 and 0.0 told apart too).
    assert [math.copysign(1.0, x) for x in batch.tolist()] == [
        math.copysign(1.0, x) for x in reference
    ]
    assert batch.tolist() == reference
    assert vec_jitter.counters() == ref_jitter.counters()
    if ref_drift is not None:
        assert vec_drift.counters() == ref_drift.counters()
    # The jitter stream advanced exactly as the scalar calls did.
    assert vec_jitter.rng.random() == ref_jitter.rng.random()


@pytest.mark.parametrize("jitter_cycles, spike_rate", RTT_FAULT_SHAPES)
def test_batched_rtt_perturbation_empty_batch_draws_nothing(
    jitter_cycles, spike_rate
):
    jitter, drift = _rtt_faults(3, jitter_cycles, spike_rate, 40.0)
    out = batched_rtt_perturbation(
        np.empty(0), [], jitter=jitter, drift=drift
    )
    assert out.shape == (0,)
    assert jitter.counters() == {"fault_rtt_jitter": 0, "fault_rtt_spikes": 0}
    assert drift.events == 0
    assert jitter.rng.random() == random.Random(3).random()


def test_batched_rtt_perturbation_clamps_like_scalar_max():
    # Jitter of 750 cycles on zero and tiny RTTs lands below zero about
    # half the time; each such observation must clamp to exactly 0.0.
    vec_jitter, _ = _rtt_faults(11, 750.0, 0.0, 0.0)
    ref_jitter, _ = _rtt_faults(11, 750.0, 0.0, 0.0)
    rtts = [0.0, 1.0, 10.0, 100.0] * 25
    batch = batched_rtt_perturbation(
        np.array(rtts), [1] * len(rtts), jitter=vec_jitter
    ).tolist()
    reference = [ref_jitter.perturb(rtt) for rtt in rtts]
    assert batch == reference
    assert 0.0 in batch and any(x > 0.0 for x in batch)


# ----------------------------------------------------------------------
# Geometry kernels
# ----------------------------------------------------------------------
@given(
    points=st.lists(st.tuples(coordinate, coordinate), max_size=12),
    centers=st.lists(st.tuples(finite, finite), max_size=12),
    radius=st.one_of(
        st.floats(min_value=0.0, max_value=2e6, allow_nan=False),
        st.just(float("nan")),
    ),
    snap=st.booleans(),
)
@example(points=[(3.0, 4.0)], centers=[], radius=5.0, snap=False)
@example(
    points=[(float("nan"), 0.0), (float("inf"), -0.0), (3.0, 4.0)],
    centers=[(0.0, 0.0)],
    radius=float("nan"),
    snap=False,
)
@settings(max_examples=80, deadline=None)
def test_within_range_matrix_matches_scalar_all_pairs(
    points, centers, radius, snap
):
    xs = np.array([p[0] for p in points], dtype=np.float64)
    ys = np.array([p[1] for p in points], dtype=np.float64)
    cxs = np.array([c[0] for c in centers], dtype=np.float64)
    cys = np.array([c[1] for c in centers], dtype=np.float64)
    if snap and points and centers and not math.isnan(radius):
        # The adversarial case: the radius exactly equals one pair's
        # distance, putting it on the <= boundary.
        candidate = math.hypot(xs[0] - cxs[0], ys[0] - cys[0])
        if math.isfinite(candidate):
            radius = candidate
    matrix = within_range_matrix(xs, ys, cxs, cys, radius)
    assert matrix.shape == (len(centers), len(points))
    expected = [
        [
            math.hypot(float(x) - cx, float(y) - cy) <= radius
            for x, y in zip(xs, ys)
        ]
        for cx, cy in zip(cxs, cys)
    ]
    assert matrix.tolist() == expected


# ----------------------------------------------------------------------
# Comparison-mask kernels
# ----------------------------------------------------------------------
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@given(
    rows=st.lists(
        st.tuples(coordinate, coordinate, st.floats(allow_nan=True)),
        max_size=30,
    ),
    scalar_threshold=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_discrepancy_mask_matches_scalar_comparison(rows, scalar_threshold):
    calc = np.array([r[0] for r in rows], dtype=np.float64)
    meas = np.array([r[1] for r in rows], dtype=np.float64)
    if scalar_threshold:
        thresholds = 42.5
        per_row = [42.5] * len(rows)
    else:
        thresholds = np.array([r[2] for r in rows], dtype=np.float64)
        per_row = [r[2] for r in rows]
    mask = discrepancy_mask(calc, meas, thresholds)
    expected = [
        abs(float(c) - float(m)) > t for c, m, t in zip(calc, meas, per_row)
    ]
    assert mask.tolist() == expected
