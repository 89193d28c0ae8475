import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from transversal_lab import __version__, embedding, ramsey
from transversal_lab.cli import main
from transversal_lab.codec import decode_graph6, encode_digraph6, encode_graph6
from transversal_lab.constructions import half_graph, tensor
from transversal_lab.graphs import UGraph
from transversal_lab.ramsey import circulant_digraph


ROOT = Path(__file__).resolve().parent.parent


def python(cwd, *args, hash_seed=None):
    """Run this interpreter on args as its own process in cwd, importing
    transversal_lab from this checkout's src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = str(hash_seed)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def tlab(cwd, *argv, hash_seed=None):
    """The CLI on argv as its own process, __main__ guard included."""
    return python(cwd, "-m", "transversal_lab.cli", *argv, hash_seed=hash_seed)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


def write_half(tmp_path, k):
    """half_graph(k) as h.g6 and its classes as h.json in tmp_path."""
    pg = half_graph(k)
    (tmp_path / "h.g6").write_text(encode_graph6(pg.graph) + "\n")
    (tmp_path / "h.json").write_text(json.dumps({"classes": [sorted(c) for c in pg.classes]}))


def stripped(report):
    report = dict(report)
    report.pop("timing", None)
    return report


class TestDrCommand:
    def test_compute_3_2(self, capsys):
        code, rep = run_json(capsys, "dr", "compute", "--n", "3", "--m", "2")
        assert code == 0
        assert rep["result"]["exact"] is True
        assert rep["result"]["value"] == 4

    def test_compute_2_5(self, capsys):
        code, rep = run_json(capsys, "dr", "compute", "--n", "2", "--m", "5")
        assert code == 0
        assert rep["result"] == {
            **rep["result"],
            "exact": True,
            "value": 5,
        }

    def test_compute_3_3(self, capsys):
        code, rep = run_json(capsys, "dr", "compute", "--n", "3", "--m", "3")
        assert code == 0
        assert rep["result"]["exact"] is True
        assert rep["result"]["value"] == 9
        assert rep["result"]["certificate_order"] == 8

    def test_compute_reports_budget_reason(self, capsys):
        code, rep = run_json(
            capsys, "dr", "compute", "--n", "3", "--m", "4", "--budget-nodes", "5000"
        )
        assert code == 0
        assert rep["result"]["budget_hit"] is True
        assert rep["result"]["budget_reason"] == "nodes"
        code, rep = run_json(capsys, "dr", "compute", "--n", "3", "--m", "3")
        assert rep["result"]["budget_hit"] is False
        assert rep["result"]["budget_reason"] is None

    def test_determinism_and_cache(self, capsys):
        # a second run sees nothing of the first: no report or certificate
        # is kept between runs
        args = ("dr", "compute", "--n", "3", "--m", "2")
        code1, rep1 = run_json(capsys, *args)
        code2, rep2 = run_json(capsys, *args)
        assert code1 == code2 == 0
        r1, r2 = stripped(rep1), stripped(rep2)
        r1.pop("nodes", None)
        r2.pop("nodes", None)
        assert r1 == r2

    def test_compute_writes_no_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, rep = run_json(capsys, "dr", "compute", "--n", "3", "--m", "2")
        assert code == 0
        assert rep["result"]["certificate"] is not None
        assert list(tmp_path.iterdir()) == []

    def test_bounds(self, capsys):
        code, rep = run_json(capsys, "dr", "bounds", "--n", "3", "--m", "4")
        assert code == 0
        assert rep["result"]["lower"] == 9
        assert rep["result"]["upper"] == 16

    def test_bounds_on_a_large_grid(self, capsys):
        # used to exit 1 with a RecursionError
        code, rep = run_json(capsys, "dr", "bounds", "--n", "600", "--m", "600")
        assert code == 0
        assert 1 <= rep["result"]["lower"] <= rep["result"]["upper"]


class TestGenCommands:
    def test_half(self, capsys):
        code, out = run(capsys, "gen", "half", "--k", "4")
        assert code == 0
        g6, classes = out.splitlines()
        assert decode_graph6(g6) == half_graph(4).graph
        assert json.loads(classes) == {"classes": [[0, 1, 2, 3], [4, 5, 6, 7]]}

    def test_layered_from_file(self, capsys, tmp_path):
        d6 = tmp_path / "c3.d6"
        d6.write_text(encode_digraph6(circulant_digraph(3, [1])) + "\n")
        code, out = run(
            capsys, "gen", "layered", "--digraph", str(d6), "--depth", "5"
        )
        assert code == 0
        g6, classes = out.splitlines()
        assert decode_graph6(g6).order == 15
        assert len(json.loads(classes)["classes"]) == 3

    def test_tensor(self, capsys, tmp_path):
        ga = tmp_path / "k3.g6"
        gb = tmp_path / "e4.g6"
        ga.write_text(encode_graph6(UGraph.complete(3)) + "\n")
        gb.write_text(encode_graph6(UGraph.empty(4)) + "\n")
        code, out = run(capsys, "gen", "tensor", "--g", str(ga), "--h", str(gb))
        assert code == 0
        assert decode_graph6(out).order == 12

    def test_layered_pinned_output(self, capsys, tmp_path):
        # arcs 0->1, 1->0, 1->2, 2->3, 3->0: one 2-cycle
        d6 = tmp_path / "d.d6"
        d6.write_text("&CQ`_\n")
        code, out = run(capsys, "gen", "layered", "--digraph", str(d6), "--depth", "4")
        assert code == 0
        assert out.splitlines() == [
            "O?]uf??A?W@o[?KGAE?@o",
            '{"classes": [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]}',
        ]

    def test_tensor_pinned_output(self, capsys, tmp_path):
        # C_5 and the path on 3 vertices
        (tmp_path / "g.g6").write_text("Dhc\n")
        (tmp_path / "h.g6").write_text("Bg\n")
        code, out = run(
            capsys, "gen", "tensor", "--g", str(tmp_path / "g.g6"), "--h", str(tmp_path / "h.g6")
        )
        assert code == 0
        assert out == r"Nn~gw{\?wF_\wFwF{Bg"

    def test_out_files(self, capsys, tmp_path):
        base = str(tmp_path / "rado")
        code, _ = run(capsys, "gen", "rado", "--depth", "6", "--out", base)
        assert code == 0
        assert (tmp_path / "rado.g6").exists()
        assert (tmp_path / "rado.classes.json").exists()

    def test_half_out_files_round_trip(self, capsys, tmp_path):
        # the classes file gen writes is read back as the same partition: the
        # solve report is the one pinned for half_graph(3)
        base = str(tmp_path / "half")
        assert main(["gen", "half", "--k", "3", "--out", base]) == 0
        code, rep = run_json(
            capsys, *_SOLVE, "--graph", base + ".g6", "--classes", base + ".classes.json"
        )
        assert code == 0
        assert rep["result"] == PINNED_REPORTS["transversal solve"][1]["result"]

    def test_shift_and_henson(self, capsys):
        code, out = run(capsys, "gen", "shift", "--n", "2", "--N", "4")
        assert code == 0
        assert decode_graph6(out).order == 6
        code, out = run(capsys, "gen", "henson", "--n", "3", "--rounds", "1")
        assert code == 0
        g = decode_graph6(out)
        assert g.order == 6

    def test_partition_witness(self, capsys, tmp_path):
        gpath = tmp_path / "e2.g6"
        gpath.write_text(encode_graph6(UGraph.empty(2)) + "\n")
        code, out = run(
            capsys, "gen", "partition-witness", "--graph", str(gpath),
            "--a", "0", "--b", "1", "--n", "3", "--pair-budget", "10",
        )
        assert code == 0
        g6, classes = out.splitlines()
        data = json.loads(classes)
        assert 0 in data["classes"][0] and data["classes"][1] == [1]

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _ = run(
            capsys, "gen", "layered", "--digraph", str(tmp_path / "nope.d6"),
            "--depth", "2",
        )
        assert code == 3


class TestSolverCommands:
    def test_transversal_solve(self, capsys, tmp_path):
        t = tensor(UGraph.complete(3), UGraph.empty(4))
        classes = [[4 * f + 2 * h, 4 * f + 2 * h + 1] for f in range(3) for h in range(2)]
        gpath = tmp_path / "t.g6"
        cpath = tmp_path / "t.json"
        gpath.write_text(encode_graph6(t) + "\n")
        cpath.write_text(json.dumps({"classes": classes}))
        code, rep = run_json(
            capsys, "transversal", "solve", "--graph", str(gpath),
            "--classes", str(cpath), "--m", "3", "--ell", "1",
        )
        assert code == 0
        assert rep["result"]["status"] == "none"
        code, rep = run_json(
            capsys, "transversal", "solve", "--graph", str(gpath),
            "--classes", str(cpath), "--m", "2", "--ell", "2",
        )
        assert rep["result"]["status"] == "found"

    def test_transversal_solve_reports_budget_reason(self, capsys, tmp_path):
        t = tensor(UGraph.complete(3), UGraph.empty(4))
        classes = [[4 * f + 2 * h, 4 * f + 2 * h + 1] for f in range(3) for h in range(2)]
        gpath = tmp_path / "t.g6"
        cpath = tmp_path / "t.json"
        gpath.write_text(encode_graph6(t) + "\n")
        cpath.write_text(json.dumps({"classes": classes}))
        args = ("transversal", "solve", "--graph", str(gpath), "--classes", str(cpath),
                "--m", "3", "--ell", "1")
        code, rep = run_json(capsys, *args, "--budget-nodes", "3")
        assert code == 0
        assert rep["result"]["status"] == "budget"
        assert rep["result"]["exact"] is False
        assert rep["result"]["budget_reason"] == "nodes"
        code, rep = run_json(capsys, *args)
        assert rep["result"]["status"] == "none"
        assert rep["result"]["budget_reason"] is None
        code, out = run(capsys, *args, "--budget-nodes", "-1")
        assert (code, out) == (2, "")

    def test_embed_halforder_on_half_graph(self, capsys, tmp_path):
        write_half(tmp_path, 5)
        gpath, cpath = tmp_path / "h.g6", tmp_path / "h.json"
        code, rep = run_json(
            capsys, "embed", "halforder", "--graph", str(gpath),
            "--classes", str(cpath),
        )
        assert code == 0
        assert rep["result"]["order"] == 5
        assert rep["result"]["exact"] is True

    def test_embed_balanced(self, capsys, tmp_path):
        write_half(tmp_path, 3)
        gpath, cpath, ppath = tmp_path / "h.g6", tmp_path / "h.json", tmp_path / "p.json"
        ppath.write_text(json.dumps({"left": 1, "right": 1, "edges": [[0, 0]]}))
        code, rep = run_json(
            capsys, "embed", "balanced", "--graph", str(gpath),
            "--classes", str(cpath), "--pattern", str(ppath),
        )
        assert code == 0
        assert rep["result"]["found"] is True

    def test_embed_balanced_reads_the_pattern_as_written(self, capsys, tmp_path):
        # left vertex 1 is joined to right vertex 0, left vertex 0 is not
        write_half(tmp_path, 3)
        ppath = tmp_path / "p.json"
        ppath.write_text(json.dumps({"left": 2, "right": 1, "edges": [[1, 0]]}))
        code, rep = run_json(
            capsys, "embed", "balanced", "--graph", str(tmp_path / "h.g6"),
            "--classes", str(tmp_path / "h.json"), "--pattern", str(ppath),
        )
        assert code == 0
        left, [right] = rep["result"]["left_images"], rep["result"]["right_images"]
        g = half_graph(3).graph
        assert len(left) == 2
        assert (g.has_edge(left[0], right), g.has_edge(left[1], right)) == (False, True)

    def test_embed_halforder_reports_budget_reason(self, capsys, tmp_path):
        # a node-budget stop and the greedy tail past exact_cap both give
        # exact false; only the first names a budget
        write_half(tmp_path, 5)
        gpath, cpath = tmp_path / "h.g6", tmp_path / "h.json"
        args = ("embed", "halforder", "--graph", str(gpath), "--classes", str(cpath))
        code, rep = run_json(capsys, *args, "--budget-nodes", "2")
        assert code == 0
        assert (rep["result"]["order"], rep["result"]["exact"]) == (2, False)
        assert rep["result"]["budget_reason"] == "nodes"
        assert rep["nodes"] == 3
        code, rep = run_json(capsys, *args, "--exact-cap", "3")
        assert (rep["result"]["order"], rep["result"]["exact"]) == (5, False)
        assert rep["result"]["budget_reason"] is None
        assert rep["nodes"] == 14

    def test_embed_balanced_reports_budget_reason(self, capsys, tmp_path):
        write_half(tmp_path, 3)
        gpath, cpath, ppath = tmp_path / "h.g6", tmp_path / "h.json", tmp_path / "p.json"
        ppath.write_text(json.dumps({"left": 1, "right": 1, "edges": [[0, 0]]}))
        args = ("embed", "balanced", "--graph", str(gpath), "--classes", str(cpath),
                "--pattern", str(ppath))
        code, rep = run_json(capsys, *args, "--budget-nodes", "1")
        assert code == 0
        assert (rep["result"]["found"], rep["result"]["exact"]) == (False, False)
        assert rep["result"]["budget_reason"] == "nodes"
        assert rep["nodes"] == 2
        code, rep = run_json(capsys, *args)
        assert (rep["result"]["found"], rep["result"]["exact"]) == (True, True)
        assert rep["result"]["budget_reason"] is None
        assert rep["nodes"] == 3

    def test_ortho_check(self, capsys, tmp_path):
        fpath = tmp_path / "fam.json"
        fpath.write_text(json.dumps([[1, 0], [0, 1], [1, 1], [1, -1]]))
        code, rep = run_json(
            capsys, "ortho", "check", "--family", str(fpath), "--dim", "2", "--m", "2"
        )
        assert code == 0
        assert rep["result"]["ok"] is True

    def test_ortho_search(self, capsys):
        code, rep = run_json(
            capsys, "ortho", "search", "--dim", "2", "--m", "2", "--pool-height", "3"
        )
        assert code == 0
        assert rep["result"]["alpha_lower"] == 4
        assert rep["result"]["exact_over_pool"] is True

    def test_ortho_search_reports_budget_reason(self, capsys):
        args = ("ortho", "search", "--dim", "2", "--m", "2", "--pool-height", "3")
        code, rep = run_json(capsys, *args, "--budget-nodes", "2")
        assert code == 0
        assert rep["result"]["exact_over_pool"] is False
        assert rep["result"]["budget_reason"] == "nodes"
        code, rep = run_json(capsys, *args)
        assert rep["result"]["exact_over_pool"] is True
        assert rep["result"]["budget_reason"] is None


def write_inputs(tmp_path):
    """half_graph(3) as h.g6 + h.json, a one-edge pattern p.json, a vector
    family fam.json and the directed 3-cycle c3.d6, all in tmp_path."""
    write_half(tmp_path, 3)
    (tmp_path / "p.json").write_text(json.dumps({"left": 1, "right": 1, "edges": [[0, 0]]}))
    (tmp_path / "fam.json").write_text(json.dumps([[1, 0], [0, 1], [1, 1], [1, -1]]))
    (tmp_path / "c3.d6").write_text(encode_digraph6(circulant_digraph(3, [1])) + "\n")


# one whole report per report command, timing aside, and one each for the
# two params that are not a flag's plain value (--no-probe reads as probe,
# and --pool makes pool_height null): a changed key, value or top-level
# nodes count fails here
PINNED_REPORTS = {
    "dr bounds": (
        ["dr", "bounds", "--n", "3", "--m", "4"],
        {"command": "dr bounds", "params": {"m": 4, "n": 3},
         "result": {"exact": False, "lower": 9, "upper": 16}},
    ),
    "dr compute": (
        ["dr", "compute", "--n", "3", "--m", "2"],
        {"command": "dr compute", "nodes": 5,
         "params": {"budget_nodes": 5000000, "budget_secs": None, "m": 2, "max_order": None,
                    "n": 3, "probe": True},
         "result": {"budget_hit": False, "budget_reason": None, "certificate": "&BP_",
                    "certificate_order": 3, "exact": True, "level_counts": [1, 2, 1, 0],
                    "lower": 4, "proof_method": "exhaustive", "upper": 4, "value": 4}},
    ),
    "dr compute --budget-secs 0": (
        ["dr", "compute", "--n", "3", "--m", "4", "--budget-secs", "0"],
        {"command": "dr compute", "nodes": 2,
         "params": {"budget_nodes": 5000000, "budget_secs": 0.0, "m": 4, "max_order": None,
                    "n": 3, "probe": True},
         "result": {"budget_hit": True, "budget_reason": "time", "certificate": "&B?_",
                    "certificate_order": 3, "exact": False, "level_counts": [1], "lower": 4,
                    "proof_method": "recurrence", "upper": 16, "value": None}},
    ),
    "ortho check": (
        ["ortho", "check", "--family", "fam.json", "--dim", "2", "--m", "2"],
        {"command": "ortho check", "params": {"dim": 2, "family": "fam.json", "m": 2},
         "result": {"family_size": 4, "ok": True}},
    ),
    "dr compute --no-probe": (
        ["dr", "compute", "--n", "3", "--m", "3", "--no-probe"],
        {"command": "dr compute", "nodes": 1056,
         "params": {"budget_nodes": 5000000, "budget_secs": None, "m": 3, "max_order": None,
                    "n": 3, "probe": False},
         "result": {"budget_hit": False, "budget_reason": None, "certificate": "&G?oTAoI?oB@_",
                    "certificate_order": 8, "exact": True,
                    "level_counts": [1, 3, 9, 38, 80, 66, 10, 1, 0], "lower": 9,
                    "proof_method": "exhaustive", "upper": 9, "value": 9}},
    ),
    "ortho search --pool": (
        ["ortho", "search", "--dim", "2", "--m", "2", "--pool", "fam.json"],
        {"command": "ortho search", "nodes": 9,
         "params": {"budget_nodes": None, "dim": 2, "m": 2, "pool": "fam.json", "pool_height": None},
         "result": {"alpha_lower": 4, "budget_reason": None, "exact_over_pool": True,
                    "family": [[0, 1], [1, -1], [1, 0], [1, 1]], "pool_size": 4}},
    ),
    "ortho search": (
        ["ortho", "search", "--dim", "2", "--m", "2", "--pool-height", "1"],
        {"command": "ortho search", "nodes": 9,
         "params": {"budget_nodes": None, "dim": 2, "m": 2, "pool": None, "pool_height": 1},
         "result": {"alpha_lower": 4, "budget_reason": None, "exact_over_pool": True,
                    "family": [[0, 1], [1, -1], [1, 0], [1, 1]], "pool_size": 4}},
    ),
    # the budget-stopped dimension-3 (3,3) walk of the witness benchmark,
    # cut at 50,000 nodes
    "ortho search --budget-nodes": (
        ["ortho", "search", "--dim", "3", "--m", "3", "--budget-nodes", "50000"],
        {"command": "ortho search", "nodes": 50001,
         "params": {"budget_nodes": 50000, "dim": 3, "m": 3, "pool": None, "pool_height": 2},
         "result": {"alpha_lower": 9, "budget_reason": "nodes", "exact_over_pool": False,
                    "family": [[0, 0, 1], [0, 1, -2], [0, 1, -1], [0, 2, 1], [1, -2, 0],
                               [1, -1, -1], [1, 0, 0], [2, 1, 0], [2, 1, 1]],
                    "pool_size": 49}},
    ),
    "transversal solve": (
        ["transversal", "solve", "--graph", "h.g6", "--classes", "h.json", "--m", "2", "--ell", "1"],
        {"command": "transversal solve", "nodes": 2,
         "params": {"budget_nodes": None, "classes": "h.json", "ell": 1, "graph": "h.g6", "m": 2},
         "result": {"budget_reason": None, "exact": True, "nodes_explored": 2, "profile": [1, 1],
                    "status": "found", "witness": [0, 3]}},
    ),
    "embed halforder": (
        ["embed", "halforder", "--graph", "h.g6", "--classes", "h.json"],
        {"command": "embed halforder", "nodes": 6,
         "params": {"budget_nodes": None, "classes": "h.json", "exact_cap": 6, "graph": "h.g6"},
         "result": {"a_sequence": [0, 1, 2], "b_sequence": [3, 4, 5], "budget_reason": None,
                    "exact": True, "order": 3}},
    ),
    "embed balanced": (
        ["embed", "balanced", "--graph", "h.g6", "--classes", "h.json", "--pattern", "p.json"],
        {"command": "embed balanced", "nodes": 3,
         "params": {"budget_nodes": None, "classes": "h.json", "graph": "h.g6", "pattern": "p.json"},
         "result": {"budget_reason": None, "exact": True, "found": True, "left_images": [0],
                    "right_images": [4], "side_assignment": [0, 1]}},
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_report(capsys, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    argv, expected = PINNED_REPORTS[name]
    code, rep = run_json(capsys, *argv)
    assert code == 0
    assert set(rep["timing"]) == {"seconds"}
    assert stripped(rep) == {**expected, "version": __version__}


_SOLVE = ["transversal", "solve", "--m", "2", "--ell", "1"]
_CLASSES = [*_SOLVE, "--graph", "h.g6", "--classes", "bad"]
_PATTERN = ["embed", "balanced", "--graph", "h.g6", "--classes", "h.json", "--pattern", "bad"]
_FAMILY = ["ortho", "check", "--family", "bad", "--dim", "2", "--m", "2"]
_POOL = ["ortho", "search", "--dim", "2", "--m", "1", "--pool", "bad"]


def bad_input_error(tmp_path, argv, text):
    """Run the CLI on argv as its own process in tmp_path, with the file
    "bad" holding text (left missing for None): it must exit 3 with an
    empty stdout and no traceback, and print one error line naming the
    file, which is returned."""
    write_inputs(tmp_path)
    if text is not None:
        (tmp_path / "bad").write_text(text)
    proc = tlab(tmp_path, *argv)
    assert "Traceback" not in proc.stderr
    assert (proc.returncode, proc.stdout) == (3, "")
    [line] = proc.stderr.splitlines()
    assert line.startswith("error: ") and "bad" in line
    return line


# each case is (command, text, message): the command reads the file "bad"
# where a good input file would go, written with text or left missing for
# None; message, where given, ends the error line
MALFORMED_INPUTS = {
    "classes without a classes key": (_CLASSES, '{"foo": 1}', "classes file has no 'classes' key"),
    "classes as an empty object": (_CLASSES, "{}", "classes file has no 'classes' key"),
    "classes as an array": (_CLASSES, "[1]", "classes file must be a JSON object"),
    "malformed classes JSON": (_CLASSES, '{"classes": [[0', None),
    "classes that miss a vertex": (_CLASSES, '{"classes": [[0, 1, 2], [3, 4]]}', None),
    "classes holding a vertex past the graph": (
        _CLASSES, '{"classes": [[0, 1, 2], [3, 4, 5, 6]]}',
        "partition class 1 holds vertex 6, not one of 0..5",
    ),
    "empty graph6 file": ([*_SOLVE, "--graph", "bad", "--classes", "h.json"], "", None),
    "empty digraph6 file": (["gen", "layered", "--digraph", "bad", "--depth", "2"], "", None),
    "vector file holding a number": (_FAMILY, "5", "vector family must be a list of lists"),
    "vector family holding numbers": (_FAMILY, "[1, 2]", "vector family must be a list of lists"),
    "vector family as an object": (_FAMILY, '{"a": 1}', "vector family must be a list of lists"),
    "classes holding numbers": (_CLASSES, '{"classes": [0, 1]}', "classes must be a list of lists"),
    "classes as a number": (_CLASSES, '{"classes": 7}', "classes must be a list of lists"),
    "pattern edges holding a number": (
        _PATTERN, '{"left": 1, "right": 1, "edges": [0]}', "edges must be a list of lists"
    ),
    "pattern edges as a number": (
        _PATTERN, '{"left": 1, "right": 1, "edges": 5}', "edges must be a list of lists"
    ),
    "pattern without right": (_PATTERN, '{"left": 1, "edges": [[0, 0]]}', "pattern has no 'right' key"),
    "pattern as an array": (_PATTERN, "[1]", "pattern must be a JSON object"),
    "pattern with float numbers": (
        _PATTERN, '{"left": 1.7, "right": 1, "edges": [[0.9, 0]]}', None
    ),
    "pattern edge with three ends": (
        _PATTERN, '{"left": 1, "right": 1, "edges": [[0, 0, 0]]}',
        "pattern edge (0, 0, 0) must have two ends",
    ),
    "pattern edge with one end": (
        _PATTERN, '{"left": 1, "right": 1, "edges": [[0]]}', "pattern edge (0,) must have two ends"
    ),
    "classes holding true": (_CLASSES, '{"classes": [[0, true, 2], [3, 4, 5]]}', None),
    "three classes for embed halforder": (
        ["embed", "halforder", "--graph", "h.g6", "--classes", "bad"],
        '{"classes": [[0, 1], [2, 3], [4, 5]]}',
        "halforder needs exactly 2 classes",
    ),
    "three classes for embed balanced": (
        ["embed", "balanced", "--graph", "h.g6", "--classes", "bad", "--pattern", "p.json"],
        '{"classes": [[0, 1], [2, 3], [4, 5]]}',
        "balanced needs exactly 2 classes",
    ),
    "missing input file": ([*_SOLVE, "--graph", "bad", "--classes", "h.json"], None, None),
    "unwritable out path": (["gen", "half", "--k", "2", "--out", "bad/half"], None, None),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_INPUTS))
def test_bad_input_file_is_3(tmp_path, name):
    argv, text, message = MALFORMED_INPUTS[name]
    line = bad_input_error(tmp_path, argv, text)
    assert message is None or line.endswith(message)


# every number that a JSON input format reads must be a JSON integer; each
# case is (command, text of "bad", error message)
_VERTICES = "class vertices must be integers"
_PATTERN_NUMBERS = "pattern sizes and edge ends must be integers"
_COORDINATES = "vector coordinates must be integers"
NON_INTEGER_INPUTS = {
    "classes true": (_CLASSES, '{"classes": [[0, true, 2], [3, 4, 5]]}', _VERTICES),
    "classes 1.7": (_CLASSES, '{"classes": [[0, 1.7, 2], [3, 4, 5]]}', _VERTICES),
    'classes "1"': (_CLASSES, '{"classes": [[0, "1", 2], [3, 4, 5]]}', _VERTICES),
    "classes nested": (_CLASSES, '{"classes": [[0, [1], 2], [3, 4, 5]]}', _VERTICES),
    "pattern true": (_PATTERN, '{"left": 1, "right": true, "edges": [[0, 0]]}', _PATTERN_NUMBERS),
    "pattern 1.7": (_PATTERN, '{"left": 1.7, "right": 1, "edges": [[0, 0]]}', _PATTERN_NUMBERS),
    'pattern "1"': (_PATTERN, '{"left": 1, "right": 2, "edges": [[0, "1"]]}', _PATTERN_NUMBERS),
    "pattern nested": (_PATTERN, '{"left": 1, "right": 1, "edges": [[[0], 0]]}', _PATTERN_NUMBERS),
    "family true": (_FAMILY, "[[true, 0], [0, 1]]", _COORDINATES),
    "family 1.7": (_FAMILY, "[[1.7, 1], [1, 0]]", _COORDINATES),
    'family "1"': (_FAMILY, '[["1", 0], [0, 1]]', _COORDINATES),
    "family nested": (_FAMILY, "[[[1], 0], [0, 1]]", _COORDINATES),
    "pool 0.1": (_POOL, "[[0.1, 1], [1, 0]]", _COORDINATES),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGER_INPUTS))
def test_non_integer_number_is_3(tmp_path, name):
    # a vector file used to read true and "1" as 1, and 0.1 as the binary
    # fraction nearest it
    argv, text, message = NON_INTEGER_INPUTS[name]
    line = bad_input_error(tmp_path, argv, text)
    assert line.startswith("error: cannot load bad: ") and line.endswith(message)


@pytest.mark.parametrize("vertex", [6, -1])
def test_class_vertex_outside_the_graph_is_3_and_named(capsys, tmp_path, monkeypatch, vertex):
    # half_graph(3) has 6 vertices
    monkeypatch.chdir(tmp_path)
    write_inputs(tmp_path)
    (tmp_path / "bad").write_text(f'{{"classes": [[0, 1, 2], [3, 4, 5, {vertex}]]}}')
    assert main([*_SOLVE, "--graph", "h.g6", "--classes", "bad"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"partition class 1 holds vertex {vertex}, not one of 0..5" in captured.err


class TestExitCodes:
    def test_argparse_error_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dr", "compute", "--n", "3"])  # missing --m
        assert exc.value.code == 2

    def test_removed_cache_dir_flag_is_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dr", "compute", "--n", "3", "--m", "2", "--cache-dir", "x"])
        assert exc.value.code == 2

    def test_bad_value_is_2(self, capsys):
        code, _ = run(capsys, "dr", "compute", "--n", "0", "--m", "2")
        assert code == 2

    def test_max_order_zero_is_2(self, capsys):
        code = main(["dr", "compute", "--n", "3", "--m", "3", "--max-order", "0"])
        assert code == 2
        assert "max_order must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--budget-nodes", "-5", "node_budget must be >= 0"), ("--budget-secs", "-1", "time_budget must be >= 0")],
    )
    def test_negative_dr_budget_is_2(self, capsys, flag, value, message):
        code = main(["dr", "compute", "--n", "3", "--m", "3", flag, value])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err and captured.out == ""

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--dim", "2", "--m", "2", "--budget-nodes", "-1"], "node_budget must be >= 0"),
            (["--dim", "2", "--m", "0"], "m must be >= 1"),
            (["--dim", "0", "--m", "1"], "n must be >= 1"),
        ],
    )
    def test_bad_ortho_search_is_2(self, capsys, extra, message):
        code = main(["ortho", "search", *extra])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["halforder"], ["balanced", "--pattern", "p.json"]])
    def test_negative_embed_budget_is_2(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        write_half(tmp_path, 3)
        (tmp_path / "p.json").write_text(json.dumps({"left": 1, "right": 1, "edges": [[0, 0]]}))
        code = main(["embed", *command, "--graph", "h.g6", "--classes", "h.json", "--budget-nodes", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "node_budget must be >= 0" in captured.err and captured.out == ""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
    def test_bound_past_the_int_digit_limit_is_2(self, capsys):
        # the upper end 2^19999 has 6,021 digits; serialising it used to fail
        # after the command returned, exiting 1 with a traceback
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code = main(["dr", "bounds", "--n", "20000", "--m", "2"])
        finally:
            sys.set_int_max_str_digits(limit)
        assert code == 2
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert line.startswith("error: ") and captured.out == ""

    def test_negative_exact_cap_is_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_inputs(tmp_path)
        code = main(["embed", "halforder", "--graph", "h.g6", "--classes", "h.json", "--exact-cap", "-2"])
        assert code == 2
        captured = capsys.readouterr()
        assert "exact_cap must be >= 0" in captured.err and captured.out == ""


# an internal check that fails inside a search exits 4, not 2 or with a
# traceback; each case patches the library so that its check fails
class TestInternalVerificationFailure:
    def expect_4(self, capsys, argv):
        assert main(argv) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("verification failure: ")
        return captured.err

    def test_probe_candidate_failing_its_check(self, capsys, monkeypatch):
        # the circulant scan then offers the empty digraph, which
        # check_counterexample refuses inside search_dr
        monkeypatch.setattr(ramsey, "_circulant_is_good", lambda d, n, m: True)
        err = self.expect_4(capsys, ["dr", "compute", "--n", "3", "--m", "3"])
        assert "digraph contains an independent witness (0, 1, 2)" in err

    def test_embedding_failing_its_own_check(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_inputs(tmp_path)
        monkeypatch.setattr(embedding.EmbeddingReport, "verify", lambda self, host, pattern: False)
        argv = ["embed", "balanced", "--graph", "h.g6", "--classes", "h.json", "--pattern", "p.json"]
        err = self.expect_4(capsys, argv)
        assert "embedding failed its own re-verification" in err


def write_seed_inputs(tmp_path):
    """The inputs of the two-hash-seed commands, in tmp_path: a vector
    family fam.json; a digraph with a 2-cycle d.d6, C_5 g.g6 and the path on
    3 vertices h.g6 for the generators; the layered blowup of d.d6 at depth
    4 and half_graph(4), each as .g6 and .classes.json, and a 2+2 pattern
    with one edge p22.json for the solvers."""
    (tmp_path / "fam.json").write_text("[[1, 0], [0, 1], [1, 1], [1, -1]]")
    (tmp_path / "d.d6").write_text("&CQ`_\n")
    (tmp_path / "g.g6").write_text("Dhc\n")
    (tmp_path / "h.g6").write_text("Bg\n")
    (tmp_path / "p22.json").write_text('{"left": 2, "right": 2, "edges": [[0, 1]]}')
    layered = ["gen", "layered", "--digraph", str(tmp_path / "d.d6"), "--depth", "4"]
    assert main([*layered, "--out", str(tmp_path / "layered")]) == 0
    assert main(["gen", "half", "--k", "4", "--out", str(tmp_path / "half")]) == 0


# hash randomisation is fixed for the life of a process, so only separate
# processes can show a budgeted report or a generated graph that depends on
# set or dict order: each command runs under PYTHONHASHSEED 0 and 1, and the
# reports, timing aside, or the files gen writes must be identical.
# (5,2) to order 6 certifies with the first child accepted at order 6, found
# by the extender's search for transitive triples on ordered masks.  The
# --pool and --no-probe runs cover the two params that are not a flag's
# plain value.  A zero --budget-secs fails every clock read, so the circulant
# scan stops at once and the annealer after one move: 2 nodes.  The
# dimension-3 ortho search is the witness benchmark's (3,3) walk, stopped at
# 50,000 nodes.  The transversal solver runs on the layered blowup to the end
# (found after 20 nodes) and stopped at 10 nodes.  The balanced embedding of
# the 2+2 pattern into the half graph on 4+4 vertices runs to the end (found
# after 4 nodes) and, under --budget-nodes 2, stops after 3 nodes
SAME_REPORT_COMMANDS = [
    "dr compute --n 3 --m 3 --no-probe",
    "dr compute --n 4 --m 2 --no-probe",
    "dr compute --n 5 --m 2 --no-probe --max-order 6",
    "dr compute --n 3 --m 4 --budget-nodes 20000",
    "dr compute --n 5 --m 2 --budget-nodes 10000",
    "dr compute --n 4 --m 3 --budget-nodes 20000",
    "dr compute --n 3 --m 4 --no-probe --max-order 5",
    "dr compute --n 3 --m 4 --budget-secs 0",
    "ortho search --dim 2 --m 3 --pool-height 3",
    "ortho search --dim 3 --m 3 --budget-nodes 50000",
    "ortho search --dim 2 --m 2 --pool fam.json",
    "transversal solve --graph layered.g6 --classes layered.classes.json --m 3 --ell 2",
    "transversal solve --graph layered.g6 --classes layered.classes.json --m 3 --ell 2 --budget-nodes 10",
    "embed balanced --graph half.g6 --classes half.classes.json --pattern p22.json",
    "embed balanced --graph half.g6 --classes half.classes.json --pattern p22.json --budget-nodes 2",
]
SAME_FILE_COMMANDS = [
    "gen layered --digraph d.d6 --depth 4",
    "gen tensor --g g.g6 --h h.g6",
    "gen henson --n 3 --rounds 2 --rng-seed 1",
    "gen rado --depth 8",
    "gen partition-witness --graph g.g6 --a 0,1 --b 2,3,4 --n 3 --pair-budget 12",
    "gen half --k 4",
]


@pytest.mark.parametrize("command", SAME_REPORT_COMMANDS)
def test_same_report_under_two_hash_seeds(tmp_path, command):
    write_seed_inputs(tmp_path)
    reports = []
    for seed in (0, 1):
        proc = tlab(tmp_path, *command.split(), hash_seed=seed)
        assert proc.returncode == 0, proc.stderr
        reports.append(stripped(json.loads(proc.stdout)))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("command", SAME_FILE_COMMANDS)
def test_same_files_under_two_hash_seeds(tmp_path, command):
    write_seed_inputs(tmp_path)
    for seed in (0, 1):
        proc = tlab(tmp_path, *command.split(), "--out", f"gen.{seed}", hash_seed=seed)
        assert proc.returncode == 0, proc.stderr
    written = [sorted(tmp_path.glob(f"gen.{seed}.*")) for seed in (0, 1)]
    assert written[0] and len(written[0]) == len(written[1])
    for first, second in zip(*written):
        assert first.name[len("gen.0"):] == second.name[len("gen.1"):]
        assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda path: path.name)
def test_demo_exits_0(tmp_path, demo):
    proc = python(tmp_path, str(demo))
    assert proc.returncode == 0, proc.stderr
