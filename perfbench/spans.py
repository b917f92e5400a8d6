"""In-memory span tracer that wraps relaysim's public names from outside.

Nothing under ``src/`` is edited: :class:`Tracer` swaps module attributes for
timing wrappers while it is active and restores them on exit.  Each span
records its name, thread id, parent span and start/end times from
``time.perf_counter``.  A span opened on a worker thread with no open span of
its own takes as parent the engine span opened last, which is the engine call
that scheduled the chunk (chunks still running after an early stop fired
count towards it too).
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field

import numpy as np

# (module, attribute) -> span name.  These are the layer boundaries the
# benchmark measures; see README.md for which metric each one feeds.
PATCHES = {
    ("relaysim.cli", "main"): "cli.main",
    ("relaysim.cli", "load_spec"): "cli.load_spec",
    ("relaysim.cli", "run_outage_points"): "montecarlo.engine",
    ("relaysim.cli", "run_ber_points"): "montecarlo.engine",
    ("relaysim.cli", "fit_diversity"): "montecarlo.fit_diversity",
    ("relaysim.cli", "closed_form_check"): "receiver.closed_form_check",
    ("relaysim.montecarlo", "wilson_interval"): "montecarlo.reduce",
    ("relaysim.montecarlo", "gamma_srd"): "selection",
    ("relaysim.montecarlo", "mrc_post_snr"): "selection",
    ("relaysim.montecarlo", "dominant_singular_pair_batch"): "numerics.svd",
}

# Generator methods that produce variates; each call is one numerics.rng span.
DRAW_METHODS = (
    "standard_normal", "normal", "integers", "random", "uniform",
    "gamma", "standard_gamma", "exponential", "standard_exponential",
    "chisquare", "binomial", "poisson",
)


@dataclass
class Span:
    sid: int
    name: str
    tid: int
    parent: int | None
    start: float
    end: float = 0.0
    items: int = 0      # variates drawn, batch items solved, candidates scored
    nbytes: int = 0
    stream_index: int | None = None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    def __post_init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._engine: int | None = None
        self._home = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self) -> list[int]:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def open(self, name: str) -> Span:
        st = self._stack()
        if st:
            parent = st[-1]
        else:
            parent = None if threading.get_ident() == self._home else self._engine
        with self._lock:
            span = Span(len(self.spans), name, threading.get_ident(), parent, 0.0)
            self.spans.append(span)
        if name == "montecarlo.engine":
            self._engine = span.sid
        st.append(span.sid)
        span.start = time.perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def wrap(self, fn, name: str, count=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if count is not None:
                span.items = count(args, out)
            return out

        return traced

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        from relaysim.numerics import RngStream

        for (mod_name, attr), name in PATCHES.items():
            mod = importlib.import_module(mod_name)
            if not hasattr(mod, attr):
                self.missing.append(f"{mod_name}.{attr}")
                continue
            count = None
            if name == "numerics.svd":
                count = lambda args, out: int(np.shape(args[0])[0])
            elif name == "selection":
                count = lambda args, out: int(np.size(out))
            self._patch(mod, attr, self.wrap(getattr(mod, attr), name, count))

        original_generator = RngStream.generator
        tracer = self

        def generator(stream):
            span = tracer.open("numerics.stream_setup")
            try:
                gen = original_generator(stream)
            finally:
                tracer.close(span)
            span.stream_index = stream.index
            return _TracedGenerator(gen, tracer)

        self._patch(RngStream, "generator", generator)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


class _TracedGenerator:
    """Forwards to a numpy Generator, timing and counting every draw."""

    def __init__(self, gen: np.random.Generator, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        target = getattr(self._gen, attr)
        if attr not in DRAW_METHODS:
            return target
        tracer = self._tracer

        def draw(*args, **kwargs):
            span = tracer.open("numerics.rng")
            try:
                out = target(*args, **kwargs)
            finally:
                tracer.close(span)
            span.items = int(np.size(out))
            span.nbytes = int(np.asarray(out).nbytes)
            return out

        return draw


def summarize(spans: list[Span]) -> dict:
    """Per-layer totals of one traced workload pass.

    Draws, stream set-up, SVD, selection and reduction count only inside
    engine spans; draws made by the closed-form check belong to its own span.
    ``engine_self_s`` is engine time minus the union of its direct child
    spans, so engine = children + self with no unattributed gap as long as
    the children do not overlap (``engine_children_s == engine_covered_s``).
    """
    by_id = {s.sid: s for s in spans}

    def engine_of(s: Span) -> Span | None:
        p = s.parent
        while p is not None:
            if by_id[p].name == "montecarlo.engine":
                return by_id[p]
            p = by_id[p].parent
        return None

    engine = {s.sid: engine_of(s) for s in spans}
    inside = [s for s in spans if engine[s.sid] is not None]

    def dur(name, within=inside):
        return sum(s.end - s.start for s in within if s.name == name)

    def items(name):
        return sum(s.items for s in inside if s.name == name)

    engines = [s for s in spans if s.name == "montecarlo.engine"]
    children = {e.sid: [] for e in engines}
    for s in inside:
        if s.parent == engine[s.sid].sid:
            children[s.parent].append((s.start, s.end))
    engine_s = dur("montecarlo.engine", spans)
    covered = sum(_union_within(children[e.sid], e.start, e.end) for e in engines)
    main_children = sum(s.end - s.start for s in spans
                        if s.parent is not None and by_id[s.parent].name == "cli.main")

    return {
        "rng_s": dur("numerics.rng"),
        "rng_variates": items("numerics.rng"),
        "rng_bytes": sum(s.nbytes for s in inside if s.name == "numerics.rng"),
        "stream_setup_s": dur("numerics.stream_setup"),
        "streams": [s.stream_index for s in inside if s.name == "numerics.stream_setup"],
        "svd_s": dur("numerics.svd"),
        "svd_items": items("numerics.svd"),
        "selection_s": dur("selection"),
        "selection_items": items("selection"),
        "reduce_s": dur("montecarlo.reduce"),
        "engine_s": engine_s,
        "engine_self_s": engine_s - covered,
        "engine_children_s": sum(e - b for kids in children.values() for b, e in kids),
        "engine_covered_s": covered,
        "closed_form_check_s": dur("receiver.closed_form_check", spans),
        "spec_s": dur("cli.load_spec", spans),
        "cli_self_s": dur("cli.main", spans) - main_children,
    }


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    cur_b = cur_e = None
    for b, e in sorted((max(b, lo), min(e, hi)) for b, e in intervals):
        if e <= b:
            continue
        if cur_e is None or b > cur_e:
            if cur_e is not None:
                total += cur_e - cur_b
            cur_b, cur_e = b, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_b
    return total
