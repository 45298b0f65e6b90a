"""In-memory spans for the traced run, and the arithmetic the report uses.

A span covers one call into a layer of the library: its name is
``<layer>.<function>``, it records start and end on the ``perf_counter``
clock, the index of the span that was open when it started (its parent),
the id of the op it belongs to, and any work counts attached at the call
site.  Spans stay in a list until the run ends and are written out then,
so tracing does no I/O while ops are timed.
"""

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from time import perf_counter

# Tail percentiles in the order they are tried; the report uses the highest
# one that still leaves at least TAIL_MIN_BEYOND samples above it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 50.0)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    name: str
    op: int
    phase: str
    start: float
    end: float = math.nan
    parent: int = None  # index into the tracer's span list, or None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` and ``phase`` label every span opened."""

    def __init__(self):
        self.spans = []
        self.op = -1
        self.phase = "setup"
        self._open = []

    @contextmanager
    def span(self, name):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        record = Span(name, self.op, self.phase, perf_counter(), parent=parent)
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record.end = perf_counter()
            self._open.pop()

    def wrap(self, name, fn, counter=None):
        """fn with a span around every call.

        ``counter(result, *args, **kwargs)`` returns the work counts of one
        call; it runs after the span has closed, so it is not timed.
        """

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts.update(counter(result, *args, **kwargs))
            return result

        return traced

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")


def covered_length(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval, and overlapping children
    are counted once.
    """
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(c.start, s.start), min(c.end, s.end)) for c in kids]
        out.append(s.duration - covered_length(clipped))
    return out


def nearest_rank(sorted_values, pct):
    """The pct-th percentile by nearest rank, and the samples above its rank."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    # exact arithmetic: 99.9 / 100 * 10000 is 9990.000000000002 in floats
    rank = max(1, math.ceil(Fraction(str(pct)) * n / 100))
    return sorted_values[rank - 1], n - rank


def tail_percentile(values):
    """(percentile, value, samples beyond) for the highest percentile of
    TAIL_PERCENTILES that leaves at least TAIL_MIN_BEYOND samples above it.

    When none qualifies (fewer than 2 * TAIL_MIN_BEYOND samples), the
    maximum is returned as percentile 100.
    """
    ordered = sorted(values)
    for pct in TAIL_PERCENTILES:
        value, beyond = nearest_rank(ordered, pct)
        if beyond >= TAIL_MIN_BEYOND:
            return pct, value, beyond
    return 100.0, ordered[-1], 0
