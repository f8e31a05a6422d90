"""Output checks and the output digest, run outside the timed region.

A word fails when the CLI exits non-zero, raises, or prints a report that
fails one of these checks:

* exit code 0 and the JSON schema of ``traintrack --format json``;
* for a pseudo-Anosov verdict, ``puncture_index`` plus the polygon indices
  equals ``2 - 2g`` exactly;
* whenever a growth is reported, it is at least the spectral radius of the
  homology action of the composed rose map (``tests/oracles.py``);
* with ``--svg``, the file is an SVG with one shaded region per polygon;
* ``ex1``-``ex5`` match the expected values of acceptance criteria 1-5 in
  ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import hashlib
import json
import xml.etree.ElementTree as ET
from fractions import Fraction

from traintrack import compose_word

import oracles

VERDICTS = ("PseudoAnosov", "Reducible", "GrowthOne")
MOVES = ("pull_tight", "collapse", "valence_one", "valence_two", "subdivide",
         "fold")
SVG_NS = "{http://www.w3.org/2000/svg}"

# Growth comes from power iteration stopped at 1e-9 and the oracle from a
# dense eigensolver; both are exact up to rounding well inside this margin.
ORACLE_SLACK = 1e-7

# Acceptance criteria 1-5 of tests/test_acceptance.py, stated again here
# because the tests spell them inline.  Growth is compared within 1e-5 and
# polygons as sorted (k, index) pairs.
REFERENCE_EXPECTED = {
    "ex1": {"verdict": "PseudoAnosov", "growth": 1.722084, "polygons": [],
            "puncture_index": Fraction(-2)},
    "ex2": {"verdict": "PseudoAnosov", "growth": 4.390257,
            "polygons": [(6, Fraction(-2))], "puncture_index": Fraction(0)},
    "ex3": {"verdict": "PseudoAnosov", "growth": 2.015357,
            "polygons": [(3, Fraction(-1, 2))] * 4, "orbit_cycles": [2, 2],
            "puncture_index": Fraction(0)},
    "ex4": {"verdict": "PseudoAnosov", "growth": 2.042491,
            "polygons": [(6, Fraction(-2))] * 2, "orbit_cycles": [2],
            "puncture_index": Fraction(0)},
    "ex5": {"verdict": "Reducible", "growth": None},
}

# Acceptance criterion 2 is red when this is written (ROADMAP item 3): ex2 gets
# its verdict and growth right but no polygons and puncture index -2.  It
# is counted as a failed word on every run, but as a known defect it does
# not mark the run incorrect; ex2 going wrong in any other way does.
KNOWN_WRONG_OUTPUTS = {
    "ex2": {"ex2 polygons differ from the reference",
            "ex2 puncture_index differs from the reference"},
}

# Exit codes the CLI documents for inputs it gives up on: 3 when the
# algorithm hits its iteration cap, 4 when circle packing does not converge.
# Such a word failed, but no wrong report was printed.
DOCUMENTED_EXITS = ({"exit 3"}, {"exit 4"})


def _cycle_lengths(perm):
    seen = set()
    lengths = []
    for start in range(len(perm)):
        n, i = 0, start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            n += 1
        if n:
            lengths.append(n)
    return sorted(lengths)


def _schema_problems(data, genus):
    problems = []
    if not isinstance(data, dict):
        return ["report is not a JSON object"]
    verdict = data.get("verdict")
    if verdict not in VERDICTS:
        return [f"unknown verdict {verdict!r}"]
    moves = data.get("moves")
    if not isinstance(moves, list) or any(m not in MOVES for m in moves):
        problems.append("moves is not a list of move names")
    graph = data.get("graph")
    if (not isinstance(graph, dict)
            or not isinstance(graph.get("vertices"), list)
            or not isinstance(graph.get("edges"), dict)
            or not isinstance(graph.get("rho"), list)
            or len(graph["rho"]) != 2 * len(graph["edges"])):
        problems.append("graph is not {vertices, edges, rho}")
    timings = data.get("timings")
    if (not isinstance(timings, dict)
            or not all(isinstance(t, float) for t in timings.values())):
        problems.append("timings is not a map of floats")
    pa = verdict == "PseudoAnosov"
    growth = data.get("growth")
    if verdict == "Reducible":
        if growth is not None:
            problems.append("Reducible report carries a growth")
    elif not isinstance(growth, float):
        problems.append("growth missing or not a number")
    elif pa and not growth > 1.0:
        problems.append(f"pseudo-Anosov growth {growth} is not above 1")
    elif verdict == "GrowthOne" and growth != 1.0:
        problems.append(f"GrowthOne report has growth {growth}")
    if pa != ("polygons" in data) or pa != ("puncture_index" in data):
        problems.append("polygons/puncture_index present iff pseudo-Anosov")
    if pa and not problems:
        polys = data["polygons"]
        if (not isinstance(polys, list)
                or not isinstance(data["puncture_index"], str)
                or not all(isinstance(p, dict) and isinstance(p.get("k"), int)
                           and isinstance(p.get("index"), str)
                           and isinstance(p.get("orbit"), int)
                           for p in polys)):
            return problems + ["polygons are not [{k, index, orbit}]"]
        total = Fraction(data["puncture_index"])
        for poly in polys:
            if poly["k"] < 3 or Fraction(poly["index"]) != 1 - Fraction(
                    poly["k"], 2):
                problems.append(f"polygon {poly} has a wrong index")
            total += Fraction(poly["index"])
        if total != 2 - 2 * genus:
            problems.append(f"index sum {total} is not 2-2g = {2 - 2 * genus}")
    return problems


def _reference_problems(label, data):
    want = REFERENCE_EXPECTED[label]
    problems = []
    if data["verdict"] != want["verdict"]:
        problems.append(f"{label} verdict differs from the reference")
    growth = data.get("growth")
    if want["growth"] is None:
        if growth is not None:
            problems.append(f"{label} growth differs from the reference")
    elif growth is None or abs(growth - want["growth"]) > 1e-5:
        problems.append(f"{label} growth differs from the reference")
    if "polygons" in want:
        polys = data.get("polygons") or []
        got = sorted((p["k"], Fraction(p["index"])) for p in polys)
        if got != sorted(want["polygons"]):
            problems.append(f"{label} polygons differ from the reference")
        if "orbit_cycles" in want and _cycle_lengths(
                [p["orbit"] for p in polys]) != want["orbit_cycles"]:
            problems.append(f"{label} orbit differs from the reference")
        punct = data.get("puncture_index")
        if punct is None or Fraction(punct) != want["puncture_index"]:
            problems.append(
                f"{label} puncture_index differs from the reference")
    return problems


def _svg_problems(svg, data):
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if root.tag != f"{SVG_NS}svg":
        return [f"SVG root is {root.tag}"]
    shaded = sum(1 for el in root.iter(f"{SVG_NS}polygon")
                 if el.get("class") == "inf-polygon")
    if shaded != len(data.get("polygons") or ()):
        return [f"SVG shades {shaded} regions for "
                f"{len(data.get('polygons') or ())} polygons"]
    return []


def check(word, code, report, svg=None):
    """Problems found in one CLI run of ``word`` (empty when it is correct).

    ``code`` is the exit code (or an exception's description), ``report``
    the JSON text printed, ``svg`` the SVG written, when one was asked for.
    """
    if code != 0:
        return [f"exit {code}"]
    try:
        data = json.loads(report)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = _schema_problems(data, word.genus)
    if problems:
        return problems
    growth = data.get("growth")
    if growth is not None:
        h1 = oracles.h1_spectral_radius(compose_word(word.genus, word.letters))
        if growth < h1 - ORACLE_SLACK * h1:
            problems.append(f"growth {growth} is below the homology "
                            f"spectral radius {h1}")
    if svg is not None:
        problems += _svg_problems(svg, data)
    if word.label in REFERENCE_EXPECTED:
        problems += _reference_problems(word.label, data)
    return problems


def is_wrong_output(word, problems):
    """Whether a failed word printed a wrong report (or crashed).

    False for a documented exit code and for the known defect recorded in
    KNOWN_WRONG_OUTPUTS; a run with any wrong output is not ``correct``.
    """
    problems = set(problems)
    return not (problems in DOCUMENTED_EXITS
                or problems == KNOWN_WRONG_OUTPUTS.get(word.label))


def digest_entry(word, code, report, svg=None):
    """The part of one run that the digest covers, as a canonical string.

    Verdict, growth to 1e-9, polygons, puncture index and the SVG bytes.
    Timings differ on every run and the move list is not part of the
    mathematical result, so neither is covered.
    """
    if code != 0:
        return f"{word.label}:exit {code}"
    data = json.loads(report)
    growth = data.get("growth")
    parts = [word.label, data["verdict"],
             "-" if growth is None else f"{growth:.9f}",
             json.dumps(data.get("polygons"), sort_keys=True),
             str(data.get("puncture_index")),
             "-" if svg is None else hashlib.sha256(svg.encode()).hexdigest()]
    return ":".join(parts)


def digest(entries):
    """sha256 over the digest entries of a corpus, in corpus order."""
    h = hashlib.sha256()
    for entry in entries:
        h.update(entry.encode())
        h.update(b"\n")
    return h.hexdigest()
