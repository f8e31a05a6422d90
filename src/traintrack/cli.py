"""Command line pipeline: twist word in, verdict/report/SVG out.

``traintrack --genus 2 --word "-a1 d1 -c0 d0"`` composes the twists, runs the
train track algorithm, prints the verdict with growth rate and singularity
data as text or as a one-line JSON report (``python -m json.tool``
pretty-prints it), and optionally writes an SVG of the final graph
developed in the hyperbolic disk.

Exit codes: 0 for any mathematical verdict, 2 for parse or configuration
errors, 3 when the algorithm hits its iteration cap, 4 when circle packing
fails to converge, 5 for internal invariant violations.
"""

import argparse
import json
import re
import sys
import time

from .analysis import full_report
# not called here: benchmarks/spans.py times analysis through these names
from .analysis import infinitesimal_edges, polygons
from .bh import bestvina_handel
from .errors import (
    InternalInvariantError,
    IterationLimitExceeded,
    PackingDidNotConverge,
)
from .hyplayout import circle_pack, cone_triangulation, develop, emit_svg
from .twist import compose_word

__all__ = ["parse_word", "build_parser", "run", "main"]

_TOKEN = re.compile(r"^(-)?([acd])(\d+)(?:\^(-?1))?$")


def parse_word(text):
    """Parse a twist word: whitespace-separated tokens like ``a1 -c0 d1^-1``.

    A leading ``-`` and an exponent ``^-1`` both invert the twist (they
    multiply, so ``-a1^-1`` is ``a1``).  Returns ``(name, sign)`` pairs,
    leftmost letter first.
    """
    word = []
    for token in text.split():
        match = _TOKEN.match(token)
        if not match:
            raise ValueError(
                f"bad twist token {token!r} (expected e.g. 'a1', '-c0' or "
                "'d1^-1')")
        minus, family, index, exponent = match.groups()
        sign = -1 if minus else 1
        if exponent == "-1":
            sign = -sign
        word.append((f"{family}{int(index)}", sign))
    return word


def build_parser():
    parser = argparse.ArgumentParser(
        prog="traintrack",
        description="Decide pseudo-Anosov / reducible / growth-one for a "
                    "composition of Dehn twists on a once-punctured surface.")
    parser.add_argument("--genus", type=int, required=True,
                        help="genus of the once-punctured surface")
    parser.add_argument("--word", default="",
                        help="twist word, e.g. '-a1 d1 -c0 d0' (empty word = "
                             "identity)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="report format (default: text)")
    parser.add_argument("--svg", metavar="PATH", default=None,
                        help="write an SVG of the developed train track here")
    parser.add_argument("--trace", action="store_true",
                        help="log every algorithm move to stderr")
    return parser


def _report_dict(report, moves, graph):
    """The facts a report carries; JSON prints them and text renders them."""
    data = {"verdict": report.verdict, "moves": moves}
    if report.growth is not None:
        data["growth"] = report.growth
    if report.polygons is not None:
        data["polygons"] = [
            {"k": p.k, "index": str(p.index), "orbit": report.orbit[i]}
            for i, p in enumerate(report.polygons)
        ]
    if report.puncture_index is not None:
        data["puncture_index"] = str(report.puncture_index)
    data["graph"] = {
        "vertices": list(graph.vertices),
        "edges": {str(e): list(graph.edges[e]) for e in sorted(graph.edges)},
        "rho": list(graph.rho),
    }
    return data


def _text_report(data, svg_path):
    lines = [f"verdict: {data['verdict']}"]
    if "growth" in data:
        lines.append(f"growth: {data['growth']:.6f}")
    if "polygons" in data:
        for i, p in enumerate(data["polygons"]):
            lines.append(f"polygon {i}: k={p['k']}, index={p['index']}, "
                         f"maps to {p['orbit']}")
        if not data["polygons"]:
            lines.append("polygons: none")
    if "puncture_index" in data:
        lines.append(f"puncture index: {data['puncture_index']}")
    lines.append(f"moves: {len(data['moves'])}")
    if svg_path:
        lines.append(f"svg: {svg_path}")
    return "\n".join(lines)


def run(args, out=None, err=None):
    """Execute the pipeline for parsed arguments; returns the exit code.

    Reports go to ``out`` and traces to ``err`` (default: the current
    standard streams).
    """
    out, err = out or sys.stdout, err or sys.stderr
    timings = {}
    moves = []

    def hook(name, f, **info):
        moves.append(name)
        if args.trace:
            detail = " ".join(f"{k}={v}" for k, v in sorted(info.items()))
            print(f"[{len(moves):4d}] {name} {detail}".rstrip(), file=err)

    word = parse_word(args.word)
    t0 = time.perf_counter()
    f = compose_word(args.genus, word)
    timings["compose"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    outcome = bestvina_handel(f, hook=hook)
    timings["algorithm"] = time.perf_counter() - t0

    report = full_report(outcome)
    final = outcome.map

    if args.svg:
        t0 = time.perf_counter()
        tri = cone_triangulation(final.graph)
        radii = circle_pack(tri)
        layout = develop(tri, radii)
        svg = emit_svg(layout, report.polygons)
        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(svg)
        timings["layout"] = time.perf_counter() - t0

    data = _report_dict(report, moves, final.graph)
    if args.format == "json":
        data["timings"] = timings
        print(json.dumps(data, sort_keys=True), file=out)
    else:
        print(_text_report(data, args.svg), file=out)
    return 0


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes the word in "--word -a1" for an unknown option "-a1";
    # glued into "--word=-a1" it is always read as the word
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--word":
            argv[i:i + 2] = [f"--word={argv[i + 1]}"]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except IterationLimitExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except PackingDidNotConverge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
