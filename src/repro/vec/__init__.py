"""Vectorized batch simulation core.

``repro.vec`` processes whole probe rounds as NumPy arrays instead of
driving every packet through the per-event calendar queue: pairwise
geometry (distances, reachability masks against ``comm_range_ft``),
measurement models (ranging-noise sampling on the same derived RNG
streams the scalar path uses), batched RTT sampling against the
calibrated window, the discrepancy check
``|estimated - derived| > threshold``, and a batched Gauss-Newton
multilateration solver.

The scalar event-driven pipeline remains the reference oracle;
:func:`vectorized_core_supported` gates the configurations the batch
path reproduces draw-for-draw (see ``docs/PERFORMANCE.md`` for the
parity rules, and ``repro.verify.differential_vectorized_core`` for the
oracle that asserts tolerance-identical outcomes). When NumPy is not
importable the package degrades gracefully: the predicate returns False
and the pipeline silently stays on the scalar path.

Paper section: §2.1, §2.2.2, §4 (batched kernels for the paper's hot math)
"""

from __future__ import annotations

try:  # pragma: no cover - exercised implicitly by every vec test
    import numpy  # noqa: F401

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - numpy is a declared dependency
    HAVE_NUMPY = False


def vectorized_core_supported(config) -> bool:
    """True when the batch core reproduces ``config`` draw-for-draw.

    The array-built waves cover the paper's evaluation matrix —
    wormholes, collusion, network loss, the full fault-injection surface
    (loss, duplication, delay, RTT jitter/spikes, clock drift, node
    crashes), spatial index on/off, every registered detector — but not
    configurations whose control flow interleaves extra events with
    deliveries:

    - ARQ channels (``alert_loss_rate``/``request_loss_rate`` > 0)
      schedule timer events between deliveries;
    - flooded revocation dissemination relays notices during phases;
    - an ``max_events`` budget needs per-event accounting to stop
      mid-phase.

    Those run on the scalar oracle path unchanged. Inside the envelope
    each phase is one request/reply exchange of two array-built waves
    (:mod:`repro.vec.turbo`); ``paper`` judges replies with array
    kernels and the shared §2.2 cascade, while rival detectors
    (``config.detector != "paper"``) judge each reply through the
    scalar ``Detector.evaluate``. The
    predicate is duck-typed on the config attributes so it never
    imports the pipeline module.
    """
    return (
        HAVE_NUMPY
        and config.alert_loss_rate == 0.0
        and config.request_loss_rate == 0.0
        and config.revocation_dissemination == "oracle"
        and config.max_events is None
    )
