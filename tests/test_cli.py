"""Command-line interface: parsing, formats, exit codes, SVG export."""
from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import xml.etree.ElementTree as ET
from collections import Counter

import pytest

from traintrack import (
    InternalInvariantError,
    PackingDidNotConverge,
    analysis,
    bh,
    circle_pack,
    cli,
    cone_triangulation,
    develop,
    emit_svg,
)

from conftest import REFERENCE_WORDS, run_word

EX1 = ["--genus", "2", "--word", "a1 c0 d0 a1 d1 a1"]
EX3 = ["--genus", "2", "--word", "a0 -c0 d0 d1^-1"]
EX5 = ["--genus", "2", "--word", "d0 c0 d1"]


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    args = cli.build_parser().parse_args(argv)
    code = cli.run(args, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Word parsing
# ---------------------------------------------------------------------------

def test_parse_word_forms():
    assert cli.parse_word("a1") == [("a1", 1)]
    assert cli.parse_word("-a1") == [("a1", -1)]
    assert cli.parse_word("a1^-1") == [("a1", -1)]
    assert cli.parse_word("-a1^-1") == [("a1", 1)]
    assert cli.parse_word("a1 -c0 d1^-1") == [("a1", 1), ("c0", -1),
                                              ("d1", -1)]
    assert cli.parse_word("") == []
    assert cli.parse_word("  a0\t d12 ") == [("a0", 1), ("d12", 1)]


@pytest.mark.parametrize("bad", ["x3", "a", "a1^2", "a-1", "--a1", "c0^"])
def test_parse_word_rejects(bad):
    with pytest.raises(ValueError):
        cli.parse_word(bad)


def test_parse_word_roundtrip_exponent_sign():
    # applying both inversion spellings twice lands back at +1
    for text, sign in [("c0", 1), ("-c0", -1), ("c0^-1", -1), ("-c0^-1", 1)]:
        assert cli.parse_word(text) == [("c0", sign)]


# ---------------------------------------------------------------------------
# Text output
# ---------------------------------------------------------------------------

def test_text_output_pseudo_anosov():
    code, out, err = run_cli(EX1)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "verdict: PseudoAnosov"
    assert "growth: 1.722084" in lines
    assert "polygons: none" in lines
    assert "puncture index: -2" in lines
    assert any(line.startswith("moves: ") for line in lines)


def test_text_output_polygons():
    code, out, _ = run_cli(EX3)
    assert code == 0
    assert "polygon 0: k=3" in out
    assert "index=-1/2" in out
    assert "puncture index: 0" in out


def test_text_output_reducible():
    code, out, _ = run_cli(EX5)
    assert code == 0
    assert out.splitlines()[0] == "verdict: Reducible"
    assert "growth" not in out


# ---------------------------------------------------------------------------
# JSON output
# ---------------------------------------------------------------------------

def test_json_output_schema():
    code, out, _ = run_cli(EX3 + ["--format", "json"])
    assert code == 0
    data = json.loads(out)
    # the report carries the final graph but no edge images
    assert set(data) == {"verdict", "growth", "polygons", "puncture_index",
                         "moves", "graph", "timings"}
    assert data["verdict"] == "PseudoAnosov"
    assert data["growth"] == pytest.approx(2.015357, abs=1e-5)
    assert data["polygons"] == [
        {"k": 3, "index": "-1/2", "orbit": 1},
        {"k": 3, "index": "-1/2", "orbit": 0},
        {"k": 3, "index": "-1/2", "orbit": 3},
        {"k": 3, "index": "-1/2", "orbit": 2},
    ]
    # indices are exact rationals, serialized as "p/q" strings
    assert data["puncture_index"] == "0"
    assert set(data["graph"]) == {"vertices", "edges", "rho"}
    assert all(isinstance(m, str) for m in data["moves"])
    assert set(data["timings"]) == {"compose", "algorithm"}
    # graph object is self-consistent
    edges = {int(k): tuple(v) for k, v in data["graph"]["edges"].items()}
    assert set(data["graph"]["vertices"]) == {u for p in edges.values()
                                              for u in p}
    assert sorted(abs(d) for d in data["graph"]["rho"]) == sorted(
        list(edges) * 2)


def test_json_reducible_omits_growth():
    code, out, _ = run_cli(EX5 + ["--format", "json"])
    data = json.loads(out)
    assert code == 0
    assert data["verdict"] == "Reducible"
    assert "growth" not in data
    assert "polygons" not in data
    assert "puncture_index" not in data


def test_json_is_deterministic():
    _, first, _ = run_cli(EX3 + ["--format", "json"])
    _, second, _ = run_cli(EX3 + ["--format", "json"])
    a, b = json.loads(first), json.loads(second)
    a.pop("timings"), b.pop("timings")
    assert a == b


# ex1-ex5 and the empty word, hashed by test_json_report_is_one_line; a
# change that means to alter a report re-records it and says so
JSON_REPORTS_SHA256 = (
    "ead7044ff8821fb77f41d720a4c6a2cb2e651230dc977b43ad4805e17ba3df15")


def test_json_report_is_one_line():
    # each report is one line, and the parsed reports, without timings and
    # with growth to 1e-9 as the other pins take it, hash to the constant
    words = [(genus, " ".join(("-" if sign < 0 else "") + name
                              for name, sign in word))
             for genus, word in REFERENCE_WORDS.values()] + [(2, "")]
    digest = hashlib.sha256()
    for genus, text in words:
        code, out, _ = run_cli(["--genus", str(genus), "--word", text,
                                "--format", "json"])
        assert code == 0
        assert out.count("\n") == 1 and out.endswith("\n"), text
        data = json.loads(out)
        del data["timings"]
        if "growth" in data:
            data["growth"] = f"{data['growth']:.9f}"
        digest.update(json.dumps(data, sort_keys=True).encode() + b"\n")
    assert digest.hexdigest() == JSON_REPORTS_SHA256


# ---------------------------------------------------------------------------
# SVG export
# ---------------------------------------------------------------------------

def test_svg_export(tmp_path):
    target = tmp_path / "track.svg"
    code, out, _ = run_cli(EX3 + ["--svg", str(target)])
    assert code == 0
    assert f"svg: {target}" in out
    root = ET.fromstring(target.read_text())
    shaded = [el for el in root.iter("{http://www.w3.org/2000/svg}polygon")
              if el.get("class") == "inf-polygon"]
    assert len(shaded) == 4


def test_svg_byte_deterministic(tmp_path):
    first, second = tmp_path / "a.svg", tmp_path / "b.svg"
    run_cli(EX1 + ["--svg", str(first)])
    run_cli(EX1 + ["--svg", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_svg_run_analyses_the_word_once(tmp_path, monkeypatch):
    # count calls through every name benchmarks/spans.py times them by
    calls = Counter()

    def counted(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)
        return wrapper

    for name in ("infinitesimal_edges", "polygons"):
        wrapper = counted(getattr(analysis, name))
        monkeypatch.setattr(analysis, name, wrapper)
        monkeypatch.setattr(cli, name, wrapper)
    target = tmp_path / "ex3.svg"
    code, _, _ = run_cli(EX3 + ["--svg", str(target)])
    assert code == 0
    assert calls == {"infinitesimal_edges": 1, "polygons": 1}
    monkeypatch.undo()
    # the drawing equals one made from polygons computed independently
    run = run_word(*REFERENCE_WORDS["ex3"])
    tri = cone_triangulation(run.final.graph)
    layout = develop(tri, circle_pack(tri))
    structure = analysis.polygons(
        run.final, analysis.infinitesimal_edges(run.final))
    assert target.read_bytes() == emit_svg(layout, structure).encode("utf-8")


def test_readme_library_tour_draws_the_cli_svg(tmp_path, capsys):
    # the README's python block computes `svg`; the CLI writes the same bytes
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        tour = re.search(r"```python\n(.*?)```", handle.read(), re.S).group(1)
    namespace = {}
    exec(tour, namespace)
    target = tmp_path / "ex1.svg"
    assert cli.main(EX1 + ["--svg", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == namespace["svg"].encode("utf-8")


# ---------------------------------------------------------------------------
# Exit codes and entry point
# ---------------------------------------------------------------------------

def test_exit_code_bad_word(capsys):
    assert cli.main(["--genus", "2", "--word", "zz"]) == 2
    assert "bad twist token" in capsys.readouterr().err


@pytest.mark.parametrize("word", ["-a1", "-a1^-1"])
def test_word_may_start_with_an_inverted_letter(word, capsys):
    # "--word -a1" must not be taken for an unknown option "-a1"
    assert cli.main(["--genus", "2", "--word", word]) == 0
    assert "verdict: Reducible" in capsys.readouterr().out


def test_exit_code_iteration_limit(monkeypatch, capsys):
    monkeypatch.setattr(bh, "MAX_ROUNDS", 0)
    assert cli.main(EX1) == 3
    capsys.readouterr()


def test_exit_codes_of_packing_and_internal_errors(monkeypatch, tmp_path,
                                                  capsys):
    # README's table: 4 when the packing fails, 5 for an internal invariant
    def fail(exc):
        def raiser(*args, **kwargs):
            raise exc
        return raiser

    monkeypatch.setattr(cli, "circle_pack",
                        fail(PackingDidNotConverge("no packing")))
    assert cli.main(EX1 + ["--svg", str(tmp_path / "x.svg")]) == 4
    assert capsys.readouterr().err == "error: no packing\n"
    monkeypatch.setattr(cli, "bestvina_handel",
                        fail(InternalInvariantError("broken")))
    assert cli.main(EX1) == 5
    assert capsys.readouterr().err == "internal error: broken\n"


def test_exit_code_unwritable_svg(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.svg"
    assert cli.main(EX1 + ["--svg", str(target)]) == 2
    capsys.readouterr()


def test_genus_exit_codes(tmp_path, capsys):
    # genus 1 gets verdicts, but circle packing needs genus >= 2
    assert cli.main(["--genus", "0", "--word", ""]) == 2
    assert cli.main(["--genus", "1", "--word", "a0 -d0"]) == 0
    assert "verdict: PseudoAnosov" in capsys.readouterr().out
    svg = tmp_path / "torus.svg"
    assert cli.main(["--genus", "1", "--word", "a0 -d0",
                     "--svg", str(svg)]) == 2
    assert "genus >= 2" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(
            ["--genus", "1", "--word", "a0", "--allow-low-genus"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_readme_example_output(capsys):
    # the README's "$ traintrack ..." block is what the command prints
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    block = re.search(r"```\n\$ traintrack (.*?)\n(.*?)```", text, re.S)
    command, expected = block.groups()
    capsys.readouterr()
    assert cli.main(shlex.split(command)) == 0
    assert capsys.readouterr().out.splitlines() == expected.splitlines()


def test_missing_genus_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["--word", "a0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_tol_is_not_an_option(capsys):
    # growth and packing tolerances are fixed; a looser one was never honoured
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(EX1 + ["--tol", "1e-3"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_max_steps_is_not_an_option(capsys):
    # the round cap is bh.MAX_ROUNDS, a safety net no known input reaches
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(EX1 + ["--max-steps", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_trace_goes_to_stderr():
    # one numbered stderr line per entry of the report's moves, in order
    for argv, verdict in ((EX5, "Reducible"), (EX1, "PseudoAnosov")):
        code, out, err = run_cli(argv + ["--trace"])
        assert code == 0
        assert f"verdict: {verdict}" in out
        _, report, _ = run_cli(argv + ["--format", "json"])
        moves = json.loads(report)["moves"]
        assert moves
        traced = [re.fullmatch(r"\[ *(\d+)\] (\w+)( .*)?", line).group(1, 2)
                  for line in err.splitlines()]
        assert traced == [(str(i), name) for i, name in enumerate(moves, 1)]


def test_module_entry_point(tmp_path):
    # the child finds the package where this process found it, also when
    # pytest put src/ on sys.path rather than PYTHONPATH
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    result = subprocess.run(
        [sys.executable, "-c",
         "from traintrack.cli import main; import sys; sys.exit(main())",
         "--genus", "2", "--word", "d0 c0 d1", "--format", "json"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0
    assert json.loads(result.stdout)["verdict"] == "Reducible"


def test_benchmark_span_targets_resolve(monkeypatch):
    # the traced benchmark (benchmarks/spans.py) patches these names by
    # attribute and counts moves by hook name; renaming or deleting one, or
    # a hook name outside its schema, breaks its --trace 1 pass
    benchmarks = os.path.join(os.path.dirname(__file__), os.pardir,
                              "benchmarks")
    monkeypatch.syspath_prepend(os.path.abspath(benchmarks))
    import checker
    import spans
    targets = [(owner, attr) for owner, attr, _name in spans.WRAPPED]
    for owner, attr in targets + [(cli, "bestvina_handel")]:
        assert callable(getattr(owner, attr, None)), (owner, attr)
    with spans.Tracer() as tracer:
        assert run_cli(EX1)[0] == 0
    moves = {key.rsplit(".", 1)[1] for key in tracer.counts
             if key.startswith("bh.moves.")}
    assert "fold" in moves and moves <= set(checker.MOVES)
    assert tracer.calls["graphs.transition_matrix"] > 0
