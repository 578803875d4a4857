"""Command-line surface: exit codes, JSON shapes, and byte determinism."""

from __future__ import annotations

import hashlib
import io
import json
import sys

import pytest

from equitiler.cli import main
from equitiler.extremal import build_ex2
from equitiler.graphio import dumps, loads
from equitiler.graphs import Graph


def cycle(n):
    adj = [0] * n
    for i in range(n):
        j = (i + 1) % n
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return Graph(n, adj)


def biclique33():
    adj = [0] * 6
    for u in range(3):
        for v in range(3, 6):
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return Graph(6, adj)


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return _write


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecide:
    def test_clique_obstruction(self, capsys, write):
        path = write("k4.txt", dumps(Graph.complete(4)))
        code, out, _ = run(capsys, ["decide", path, "--k", "3"])
        doc = json.loads(out)
        assert code == 1
        assert doc["kind"] == "obstructed"
        assert doc["witness"] == {"type": "clique", "vertices": [0, 1, 2, 3]}
        assert doc["mode"] == "coloring"
        assert doc["value"] == 3

    def test_cycle_colorable(self, capsys, write):
        path = write("c5.txt", dumps(cycle(5)))
        code, out, _ = run(capsys, ["decide", path, "--k", "3"])
        doc = json.loads(out)
        assert code == 0
        assert sorted(len(c) for c in doc["certificate"]["classes"]) == [1, 2, 2]

    def test_odd_biclique_obstruction(self, capsys, write):
        path = write("k33.txt", dumps(biclique33()))
        code, out, _ = run(capsys, ["decide", path, "--k", "3"])
        doc = json.loads(out)
        assert code == 1
        assert doc["witness"]["type"] == "biclique"
        assert doc["witness"]["side_a"] == [0, 1, 2]

    def test_timings_stripped(self, capsys, write):
        path = write("c5.txt", dumps(cycle(5)))
        _, out, _ = run(capsys, ["decide", path, "--k", "3"])
        assert "timings" not in json.loads(out)

    def test_byte_identical_reruns(self, capsys, write):
        path = write("c5.txt", dumps(cycle(5)))
        _, first, _ = run(capsys, ["decide", path, "--k", "3"])
        _, second, _ = run(capsys, ["decide", path, "--k", "3"])
        assert first == second

    def test_out_file(self, capsys, tmp_path, write):
        path = write("c5.txt", dumps(cycle(5)))
        target = tmp_path / "cert.json"
        code, out, _ = run(capsys, ["decide", path, "--k", "3", "--out", str(target)])
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["answer"] is True

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(dumps(cycle(5))))
        code, out, _ = run(capsys, ["decide", "-", "--k", "3"])
        assert code == 0

    def test_bad_k(self, capsys, write):
        path = write("c5.txt", dumps(cycle(5)))
        code, _, err = run(capsys, ["decide", path, "--k", "0"])
        assert code == 3
        assert "--k" in err


class TestFactor:
    def test_complete_positive(self, capsys, write):
        path = write("k6.txt", dumps(Graph.complete(6)))
        code, out, _ = run(capsys, ["factor", path, "--r", "3"])
        doc = json.loads(out)
        assert code == 0
        assert doc["certificate"]["type"] == "tiling"
        assert doc["mode"] == "factor"

    def test_edgeless_negative(self, capsys, write):
        path = write("e6.txt", dumps(Graph(6, [0] * 6)))
        code, out, _ = run(capsys, ["factor", path, "--r", "3"])
        doc = json.loads(out)
        assert code == 1
        assert doc["answer"] is False

    def test_unresolved_band(self, capsys, write):
        from equitiler.generators import random_gnp

        # Procedure P tiles G(60, 1/2) at r = 3; at p = 0.3 it misses.
        path = write("g60.txt", dumps(random_gnp(60, 0.3, 0)))
        code, out, _ = run(capsys, ["factor", path, "--r", "3"])
        doc = json.loads(out)
        assert code == 2
        assert doc["kind"] == "unresolved"
        assert doc["answer"] is None


class TestVerify:
    def test_valid_tiling_payload(self, capsys, write):
        graph = write("k6.txt", dumps(Graph.complete(6)))
        cert = write("tile.json", json.dumps([[0, 1, 2], [3, 4, 5]]))
        code, out, _ = run(capsys, ["verify", graph, cert, "--r", "3"])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_tampered_class(self, capsys, write):
        graph = write("c5.txt", dumps(cycle(5)))
        cert = write("bad.json", json.dumps([[0, 1], [2, 3], [4]]))
        code, out, _ = run(capsys, ["verify", graph, cert, "--k", "3"])
        doc = json.loads(out)
        assert code == 1
        assert "independence" in doc["first_violated"]

    def test_unbalanced_classes(self, capsys, write):
        graph = write("e5.txt", dumps(Graph(5, [0] * 5)))
        cert = write("unb.json", json.dumps([[0, 1, 2], [3], [4]]))
        code, out, _ = run(capsys, ["verify", graph, cert, "--k", "3"])
        doc = json.loads(out)
        assert code == 1
        assert "equitability" in doc["first_violated"]

    def test_roundtrip_with_decide(self, capsys, tmp_path, write):
        graph = write("c5.txt", dumps(cycle(5)))
        cert = tmp_path / "cert.json"
        run(capsys, ["decide", graph, "--k", "3", "--out", str(cert)])
        code, out, _ = run(capsys, ["verify", graph, str(cert)])
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_hash_mismatch(self, capsys, tmp_path, write):
        graph = write("c5.txt", dumps(cycle(5)))
        other = write("k6.txt", dumps(Graph.complete(6)))
        cert = tmp_path / "cert.json"
        run(capsys, ["decide", graph, "--k", "3", "--out", str(cert)])
        code, out, _ = run(capsys, ["verify", other, str(cert)])
        assert code == 1
        assert "hash mismatch" in json.loads(out)["first_violated"]

    def test_barrier_roundtrip_and_forgery(self, capsys, tmp_path, write):
        star = Graph(6, [0] * 6)
        for v in range(1, 6):
            star.add_edge(0, v)
        graph = write("star.txt", dumps(star))
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, ["factor", graph, "--r", "2", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        assert code == 1
        assert (doc["kind"], doc["witness"]) == ("obstructed", {"type": "tutte-barrier", "vertices": [0]})
        code, out, _ = run(capsys, ["verify", graph, str(cert)])
        assert code == 0 and json.loads(out)["ok"] is True
        doc["witness"]["vertices"] = [1]
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["verify", graph, str(cert)])
        assert code == 1 and "Tutte barrier" in json.loads(out)["first_violated"]

    def test_tiling_of_the_wrong_size_rejected(self, capsys, tmp_path, write):
        # C_6 has no K_3-factor; its K_2-factor relabelled as an r = 3
        # answer must not pass.
        graph = write("c6.txt", dumps(cycle(6)))
        code, _, _ = run(capsys, ["factor", graph, "--r", "3"])
        assert code == 1
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, ["factor", graph, "--r", "2", "--out", str(cert)])
        assert code == 0
        doc = json.loads(cert.read_text())
        doc["value"] = 3
        cert.write_text(json.dumps(doc))
        code, out, _ = run(capsys, ["verify", graph, str(cert)])
        report = json.loads(out)
        assert code == 1 and report["ok"] is False
        assert report["first_violated"] == "tiling is of K_2, expected K_3"

    def test_tiling_witness_of_a_no_rejected(self, capsys, write):
        graph = write("k6.txt", dumps(Graph.complete(6)))
        doc = {
            "schema": "equitiler.certificate/1", "kind": "obstructed", "answer": False,
            "certificate": None, "witness": {"type": "tiling", "r": 3, "cliques": [[0, 1, 2], [3, 4, 5]]},
            "provenance": "recognizer", "verified": True, "notes": [], "mode": "factor", "value": 3,
        }
        code, out, _ = run(capsys, ["verify", graph, write("no.json", json.dumps(doc))])
        assert code == 1
        assert json.loads(out)["first_violated"] == "a Tiling cannot witness a NO"

    def test_exact_negative_unchecked(self, capsys, write):
        graph = write("k4.txt", dumps(Graph.complete(4)))
        doc = {
            "schema": "equitiler.certificate/1", "kind": "exact", "answer": False,
            "certificate": None, "witness": None, "provenance": "oracle",
            "verified": True, "notes": [], "mode": "factor", "value": 2,
        }
        code, out, _ = run(capsys, ["verify", graph, write("no.json", json.dumps(doc))])
        report = json.loads(out)
        assert code == 2
        assert report["ok"] is None and report["clauses"] == []
        assert "kind exact" in report["unchecked"]

    def test_vertex_outside_the_graph_is_a_clause(self, capsys, write):
        # Vertex 5 of a 3-vertex graph once crashed the checker (exit 4).
        graph = write("p3.txt", dumps(Graph.from_edges(3, [(0, 1)])))
        cert = write("far.json", json.dumps([[0, 2], [1, 5]]))
        code, out, _ = run(capsys, ["verify", graph, cert, "--k", "2"])
        assert code == 1
        assert "do not partition" in json.loads(out)["first_violated"]

    @pytest.mark.parametrize("forgery", ["boolean vertices", "fractional r", "boolean r"])
    def test_json_booleans_and_fractions_are_usage_errors(self, capsys, tmp_path, write, forgery):
        # On one edge, [[true], [false]] once passed as the colouring
        # {1}, {0}, and a tiling's r of 2.9 or true was read as 2 or 1.
        graph = write("e2.txt", dumps(Graph.from_edges(2, [(0, 1)])))
        if forgery == "boolean vertices":
            argv = ["verify", graph, write("b.json", json.dumps([[True], [False]])), "--k", "2"]
        else:
            cert = tmp_path / "cert.json"
            code, _, _ = run(capsys, ["factor", graph, "--r", "2", "--out", str(cert)])
            doc = json.loads(cert.read_text())
            assert code == 0 and doc["certificate"]["r"] == 2
            doc["certificate"]["r"] = 2.9 if forgery == "fractional r" else True
            cert.write_text(json.dumps(doc))
            argv = ["verify", graph, str(cert)]
        code, _, _ = run(capsys, argv)
        assert code == 3

    def test_value_below_one_is_a_usage_error(self, capsys, tmp_path, write):
        # The independent-set NO of the empty 6-vertex graph, asked at
        # r = 0, once divided by zero (exit 4); asked at r = true, it was
        # checked at r = 1.
        graph = write("e6.txt", dumps(Graph.empty(6)))
        cert = tmp_path / "cert.json"
        code, _, _ = run(capsys, ["factor", graph, "--r", "3", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        assert code == 1 and doc["witness"]["type"] == "independent-set"
        for value in (0, True):
            doc["value"] = value
            cert.write_text(json.dumps(doc))
            code, _, err = run(capsys, ["verify", graph, str(cert)])
            assert code == 3
            assert "value must be a positive integer" in err

    def test_bare_payload_needs_one_flag(self, capsys, write):
        graph = write("k6.txt", dumps(Graph.complete(6)))
        cert = write("tile.json", json.dumps([[0, 1, 2], [3, 4, 5]]))
        code, _, err = run(capsys, ["verify", graph, cert])
        assert code == 3
        assert "exactly one" in err
        code, _, _ = run(capsys, ["verify", graph, cert, "--k", "2", "--r", "3"])
        assert code == 3

    @pytest.mark.parametrize("flag, value", [("--r", "0"), ("--r", "-1"), ("--k", "0"), ("--k", "-2")])
    def test_bare_payload_value_below_one_is_a_usage_error(self, capsys, write, flag, value):
        # As for `factor --r 0` and an envelope's value: a usage error, not a
        # failed clause of the payload check (exit 1).
        graph = write("k6.txt", dumps(Graph.complete(6)))
        cert = write("tile.json", json.dumps([[0, 1, 2], [3, 4, 5]]))
        code, out, err = run(capsys, ["verify", graph, cert, flag, value])
        assert (code, out) == (3, "")
        assert f"{flag} must be positive, got {value}" in err

    def test_malformed_json(self, capsys, write):
        graph = write("c5.txt", dumps(cycle(5)))
        cert = write("oops.json", "{not json")
        code, _, err = run(capsys, ["verify", graph, cert])
        assert code == 3
        assert "not JSON" in err

    @pytest.mark.parametrize(
        "field, value", [("timings", {"oracle": "fast"}), ("notes", 5), ("notes", [1])]
    )
    def test_malformed_timings_or_notes(self, capsys, tmp_path, write, field, value):
        graph = write("k4.txt", dumps(Graph.complete(4)))
        cert = tmp_path / "cert.json"
        run(capsys, ["decide", graph, "--k", "3", "--out", str(cert)])
        doc = json.loads(cert.read_text())
        doc[field] = value
        cert.write_text(json.dumps(doc))
        code, _, err = run(capsys, ["verify", graph, str(cert)])
        assert code == 3
        assert field in err


class TestGen:
    def test_figure_instance(self, capsys):
        code, out, _ = run(capsys, ["gen", "--family", "ex2", "--n", "9", "--r", "3", "--s", "1"])
        g = loads(out)
        assert code == 0
        assert g.n == 9
        assert g.degrees()[0] == 3

    def test_biclique(self, capsys):
        code, out, _ = run(capsys, ["gen", "--family", "biclique", "--k", "3", "--m", "3"])
        assert sorted(loads(out).degrees()) == [3] * 6

    def test_kclique(self, capsys):
        _, out, _ = run(capsys, ["gen", "--family", "kclique", "--k", "4"])
        g = loads(out)
        assert g.n == 5 and g.is_clique(g.full_mask)

    def test_determinism(self, capsys):
        argv = ["gen", "--family", "random-ore", "--n", "30", "--r", "3", "--alpha", "0.02", "--seed", "7"]
        _, a, _ = run(capsys, argv)
        _, b, _ = run(capsys, argv)
        assert a == b
        want = "77d0ebf56ffc12f4e9759e54004bb7c35d4d28c12440dd5249d7469a525b792a"
        assert hashlib.sha256(a.encode()).hexdigest() == want

    def test_dimacs_format_agrees(self, capsys):
        _, el, _ = run(capsys, ["gen", "--family", "ex1", "--n", "9", "--r", "3"])
        _, dm, _ = run(capsys, ["gen", "--family", "ex1", "--n", "9", "--r", "3", "--format", "dimacs"])
        assert loads(el).content_hash() == loads(dm, "dimacs").content_hash()

    def test_missing_parameter(self, capsys):
        code, _, err = run(capsys, ["gen", "--family", "ex1", "--n", "9"])
        assert code == 3
        assert "needs" in err

    def test_unknown_family_rejected_by_parser(self, capsys):
        code, _, _ = run(capsys, ["gen", "--family", "petersen"])
        assert code == 3


class TestNoConstantsFile:
    @pytest.mark.parametrize("command", [["factor", "--r", "3"], ["decide", "--k", "2"]])
    def test_constants_option_is_unknown(self, capsys, write, command):
        # The constant hierarchy depends on r alone; no file overrides it.
        graph = write("k6.txt", dumps(Graph.complete(6)))
        cfg = write("c.json", json.dumps({"gamma": "1/40000"}))
        code, _, err = run(capsys, [command[0], graph, *command[1:], "--constants", cfg])
        assert code == 3
        assert "--constants" in err


class TestSweepCommand:
    def test_clean_run(self, capsys):
        code, out, _ = run(capsys, ["sweep", "--n-max", "3", "--check", "equivalence"])
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == "equitiler.sweep/1"
        assert doc["anomalies"] == []

    def test_cap_guard(self, capsys):
        code, _, err = run(capsys, ["sweep", "--n-max", "9", "--check", "equivalence"])
        assert code == 3


class TestBench:
    def test_shape(self, capsys, write):
        graph = write("c5.txt", dumps(cycle(5)))
        code, out, _ = run(capsys, ["bench", graph, "--k", "3", "--repeat", "2"])
        doc = json.loads(out)
        assert code == 0
        assert doc["schema"] == "equitiler.bench/1"
        assert len(doc["wall_seconds"]) == 2
        assert doc["answer"] is True

    def test_odd_split_times_the_recognizer(self, capsys, write):
        graph = write("ex2.txt", dumps(build_ex2(36, 3, 1)))
        code, out, _ = run(capsys, ["bench", graph, "--r", "3"])
        doc = json.loads(out)
        assert code == 0
        assert (doc["kind"], doc["provenance"]) == ("obstructed", "recognizer")
        assert list(doc["stages"]) == ["recognize"]

    def test_needs_one_mode(self, capsys, write):
        graph = write("c5.txt", dumps(cycle(5)))
        code, _, _ = run(capsys, ["bench", graph])
        assert code == 3
        code, _, _ = run(capsys, ["bench", graph, "--k", "2", "--r", "2"])
        assert code == 3


class TestErrorBand:
    def test_parse_error_carries_line(self, capsys, write):
        path = write("dup.txt", "3 2\n0 1\n0 1\n")
        code, _, err = run(capsys, ["decide", path, "--k", "2"])
        assert code == 3
        assert "line 3" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, ["decide", str(tmp_path / "gone.txt"), "--k", "2"])
        assert code == 3
        assert "cannot read" in err

    def test_unknown_command(self, capsys):
        code, _, _ = run(capsys, ["tabulate"])
        assert code == 3

    def test_no_command(self, capsys):
        assert main([]) == 3

    @pytest.mark.parametrize(
        "argv", [["decide", "--k", "3"], ["factor", "--r", "3"], ["bench", "--r", "3"]]
    )
    def test_decisions_take_no_seed(self, capsys, write, argv):
        path = write("c6.txt", dumps(cycle(6)))
        code, out, err = run(capsys, [argv[0], path, *argv[1:], "--seed", "0"])
        assert (code, out) == (3, "")
        assert "--seed" in err
