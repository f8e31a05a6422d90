"""Per-layer timing for the traced run, installed from outside ``src/``.

:class:`Tracer` replaces, for the duration of a ``with`` block, the names
through which one module of ``traintrack`` calls into another, and the
non-leaf methods of ``GraphSelfMap`` and ``EmbeddedGraph``, with wrappers
that time each call.  Spans nest on a stack, so a span's self time is its
duration minus the spans it encloses, and the self times of all spans
partition the time spent inside ``cli.run``.  Hot leaf calls such as
``EmbeddedGraph.tail`` or ``tighten`` (millions per run) are never wrapped.

Moves are timed through the public ``hook`` argument of
``bestvina_handel``: ``bh.<move>.s`` is the time from the previous hook
call, or from the start of the algorithm, up to that move's hook call, and
``bh.finish.s`` the time after the last one.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

from traintrack import analysis, bh, cli
from traintrack.graphs import EmbeddedGraph, GraphSelfMap

from checker import MOVES

LAYERS = ("cli", "twist", "bh", "graphs", "growth", "analysis", "hyplayout")

# (namespace, attribute, span name): every cross-module call a word makes
WRAPPED = (
    (cli, "run", "cli.run"),
    (cli, "compose_word", "twist.compose_word"),
    (cli, "full_report", "analysis.full_report"),
    (cli, "infinitesimal_edges", "analysis.infinitesimal_edges"),
    (cli, "polygons", "analysis.polygons"),
    (cli, "cone_triangulation", "hyplayout.cone_triangulation"),
    (cli, "circle_pack", "hyplayout.circle_pack"),
    (cli, "develop", "hyplayout.develop"),
    (cli, "emit_svg", "hyplayout.emit_svg"),
    (analysis, "infinitesimal_edges", "analysis.infinitesimal_edges"),
    (analysis, "polygons", "analysis.polygons"),
    (bh, "gates", "bh.gates"),
    (bh, "is_permutation_matrix", "growth.is_permutation_matrix"),
    (bh, "is_irreducible", "growth.is_irreducible"),
    (bh, "spectral_radius", "growth.spectral_radius"),
    (GraphSelfMap, "__init__", "graphs.map_init"),
    (GraphSelfMap, "preserves_boundary", "graphs.preserves_boundary"),
    (GraphSelfMap, "transition_matrix", "graphs.transition_matrix"),
    (EmbeddedGraph, "__init__", "graphs.graph_init"),
)


def image_len(f):
    return sum(len(p) for p in f.edge_image.values())


class Tracer:
    """Span times, call counts and move statistics of one traced pass."""

    def __init__(self):
        self.time = defaultdict(float)    # span name -> inclusive seconds
        self.calls = Counter()            # span name -> calls
        self.self_time = defaultdict(float)  # layer -> self seconds
        self.counts = Counter()           # named counters and peaks
        self._stack = []                  # child seconds of each open span
        self._saved = []

    def span(self, fn, name):
        layer = name.split(".")[0]

        def wrapper(*args, **kwargs):
            self._stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = self._stack.pop()
                self.time[name] += d
                self.calls[name] += 1
                self.self_time[layer] += d - child
                if self._stack:
                    self._stack[-1] += d

        return wrapper

    def _overhead(self, t0):
        # bookkeeping done inside an open span is charged to "trace", not to
        # the layer whose span is open
        d = perf_counter() - t0
        self.self_time["trace"] += d
        self._stack[-1] += d

    def _bestvina_handel(self, fn):
        def traced(f, *args, hook=None, **kwargs):
            mark = perf_counter()

            def move_hook(name, g, **info):
                nonlocal mark
                t0 = perf_counter()
                self.time[f"bh.{name}"] += t0 - mark
                self.counts[f"bh.moves.{name}"] += 1
                self.counts["bh.peak_edges"] = max(
                    self.counts["bh.peak_edges"], len(g.graph.edges))
                self.counts["bh.peak_image_len"] = max(
                    self.counts["bh.peak_image_len"], image_len(g))
                if hook is not None:
                    hook(name, g, **info)
                self._overhead(t0)
                mark = perf_counter()

            outcome = fn(f, *args, hook=move_hook, **kwargs)
            self.time["bh.finish"] += perf_counter() - mark
            return outcome

        return traced

    def _counted(self, fn, count):
        # runs ``count(result, *args)`` after each call, as trace overhead
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            t0 = perf_counter()
            count(result, *args)
            self._overhead(t0)
            return result

        return counted

    def __enter__(self):
        def start_len(f, *args):
            self.counts["twist.start_image_len"] += image_len(f)

        def packed(radii, tri, *args):
            self.counts["hyplayout.circle_pack.vertices"] += len(
                tri.graph.vertices)

        def svg_bytes(svg, *args):
            self.counts["hyplayout.svg_bytes"] += len(svg.encode())

        extra = {
            "twist.compose_word": lambda fn: self._counted(fn, start_len),
            "hyplayout.circle_pack": lambda fn: self._counted(fn, packed),
            "hyplayout.emit_svg": lambda fn: self._counted(fn, svg_bytes),
        }
        for owner, attr, name in WRAPPED:
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            if name in extra:
                fn = extra[name](fn)
            setattr(owner, attr, self.span(fn, name))
        # bh's span encloses the hook bookkeeping, which moves intervals use
        self._saved.append((cli, "bestvina_handel", cli.bestvina_handel))
        cli.bestvina_handel = self.span(
            self._bestvina_handel(cli.bestvina_handel), "bh.bestvina_handel")
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)
        return False

    def metrics(self, wall, overhead):
        """Per-layer metrics of a pass that took ``wall`` seconds traced, and
        ``overhead`` as much again as the same pass untraced, as
        name -> (value, unit)."""
        out = {}
        names = [name for _, _, name in WRAPPED] + ["bh.bestvina_handel"]
        for name in dict.fromkeys(names):
            out[f"{name}.s"] = (self.time[name], "s")
            out[f"{name}.calls"] = (self.calls[name], "count")
        for layer in LAYERS + ("trace",):
            out[f"{layer}.self.s"] = (self.self_time[layer], "s")
        moves = [self.counts[f"bh.moves.{m}"] for m in MOVES]
        out["bh.moves.total"] = (sum(moves), "count")
        for m, n in zip(MOVES, moves):
            out[f"bh.moves.{m}"] = (n, "count")
            out[f"bh.{m}.s"] = (self.time[f"bh.{m}"], "s")
        out["bh.finish.s"] = (self.time["bh.finish"], "s")
        rounds = self.calls["growth.is_permutation_matrix"]
        out["bh.rounds"] = (rounds, "count")
        out["bh.subdivides_per_fold"] = (
            _ratio(self.counts["bh.moves.subdivide"],
                   self.counts["bh.moves.fold"]), "ratio")
        for peak in ("bh.peak_edges", "bh.peak_image_len"):
            out[peak] = (self.counts[peak], "count")
        out["graphs.transition_matrix.per_round"] = (
            _ratio(self.calls["graphs.transition_matrix"], rounds), "ratio")
        out["graphs.map_init.per_move"] = (
            _ratio(self.calls["graphs.map_init"], sum(moves)), "ratio")
        out["twist.start_image_len"] = (
            _ratio(self.counts["twist.start_image_len"],
                   self.calls["twist.compose_word"]), "count")
        out["hyplayout.circle_pack.vertices"] = (
            self.counts["hyplayout.circle_pack.vertices"], "count")
        out["hyplayout.svg_bytes"] = (self.counts["hyplayout.svg_bytes"], "B")
        out["trace.overhead_frac"] = (overhead, "ratio")
        attributed = sum(self.self_time.values())
        out["trace.unattributed_frac"] = ((wall - attributed) / wall, "ratio")
        return out


def _ratio(num, den):
    return num / den if den else 0.0
