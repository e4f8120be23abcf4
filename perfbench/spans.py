"""In-memory span recorder for the benchmark's traced run.

The benchmark never edits the program it measures. In a traced run it
replaces a few public functions of the program (``KeyManager.sign``,
``Detector.evaluate``, ``RevocationService.flush`` and so on) with thin
wrappers that open and close a span around the original call, and puts
the originals back afterwards. Spans stay in memory while the run lasts
and are written out once, at the end.

A span is ``(name, start_s, end_s, parent_index, stream)``: the name is
``<layer>.<operation>``, times are ``time.perf_counter`` seconds,
``parent_index`` is the index of the enclosing span (-1 for a root), and
``stream`` identifies the trial, cycle or sweep call the span belongs to.
A layer's *self time* is the summed duration of its spans minus the
part of each covered by that span's direct children.

Spans live in flat arrays rather than one object per span, so a long
traced run does not grow the heap the garbage collector walks.
"""

from __future__ import annotations

import contextlib
import json
import pathlib
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_MISSING = object()


class Tracer:
    """Records nested spans and patches callables to emit them."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.streams = array("q")
        self.stream = 0
        self._stack: List[int] = []
        self._patches: List[tuple] = []

    def __len__(self) -> int:
        return len(self.names)

    def open(self, name: str) -> int:
        """Start a span nested in the innermost open one; returns its index."""
        index = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.streams.append(self.stream)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        """End the innermost open span (which must be ``index``)."""
        self.ends[index] = time.perf_counter()
        if self._stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """``with tracer.span(name):`` records the block as one span."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add_closed(self, name: str, start: float, seconds: float) -> None:
        """Record a span measured elsewhere as a child of the open span.

        Used for time summed over many short intervals (a ledger
        iterator's ``next`` calls); only its duration is meaningful.
        """
        index = self.open(name)
        self.starts[index] = start
        self.close(index)
        self.ends[index] = start + seconds

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` by a span-emitting wrapper until :meth:`restore`.

        ``observe`` is called with each return value (e.g. to count
        indicting verdicts).
        """
        original = getattr(owner, attr)
        open_span = self.open
        close_span = self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_span(name)
            try:
                result = original(*args, **kwargs)
            finally:
                close_span(index)
            if observe is not None:
                observe(result)
            return result

        self._patch(owner, attr, traced)

    def wrap_async(self, owner: Any, attr: str, name: str) -> None:
        """:meth:`wrap` for a coroutine function."""
        original = getattr(owner, attr)
        tracer = self

        async def traced(*args: Any, **kwargs: Any) -> Any:
            index = tracer.open(name)
            try:
                return await original(*args, **kwargs)
            finally:
                tracer.close(index)

        self._patch(owner, attr, traced)

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # ------------------------------------------------------------------
    # Reduction and output
    # ------------------------------------------------------------------
    def spans(self, first: int = 0) -> Iterator[Tuple[str, float, float, int, int]]:
        """Yield ``(name, start, end, parent, stream)`` from index ``first`` on."""
        for index in range(first, len(self.names)):
            yield (
                self.names[index],
                self.starts[index],
                self.ends[index],
                self.parents[index],
                self.streams[index],
            )

    def totals(self, name: str) -> Tuple[int, float]:
        """``(count, seconds)`` summed over spans called ``name``."""
        count = 0
        seconds = 0.0
        for span_name, start, end, _, _ in self.spans():
            if span_name == name:
                count += 1
                seconds += end - start
        return count, seconds

    def durations(self, name: str) -> List[float]:
        """Each duration, in seconds, of the spans called ``name``."""
        return [end - start for n, start, end, _, _ in self.spans() if n == name]

    def self_seconds(self) -> Dict[str, float]:
        """Per-layer self time: span time not covered by direct children."""
        child_time = [0.0] * len(self.names)
        for _, start, end, parent, _ in self.spans():
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans()):
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + (end - start) - child_time[index]
        return out

    def write(self, path: pathlib.Path) -> None:
        """Write every span as one JSON document (the run's trace file)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            json.dump(
                {
                    "fields": ["name", "start_s", "end_s", "parent", "stream"],
                    "spans": list(self.spans()),
                },
                handle,
                separators=(",", ":"),
            )
