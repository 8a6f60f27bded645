import argparse
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from numpy.random import default_rng

import treeshift
from treeshift import (
    DeciderOptions,
    dump_json,
    generate_binary,
    sample_binary_weights,
    tree_to_doc,
    weights_to_doc,
)
from treeshift.cli import build_parser, main

SQRT2 = math.sqrt(2.0)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_json(doc))
    return str(path)


def run_cli(argv, **kwargs):
    """``treeshift argv`` in a fresh process on this checkout's package."""
    src = str(Path(treeshift.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "treeshift.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120, **kwargs,
    )


def branching_doc():
    return {
        "tree": {
            "vertices": ["0", "1,1", "2,1", "2,2"],
            "edges": [["0", "1,1"], ["0", "2,1"], ["2,1", "2,2"]],
            "root": "0",
        },
        "weights": {"1,1": 1.0, "2,1": 1.0, "2,2": SQRT2},
    }


def trunked_doc():
    return {
        "tree": {
            "vertices": ["-1", "0", "1,1", "2,1", "2,2"],
            "edges": [["-1", "0"], ["0", "1,1"], ["0", "2,1"], ["2,1", "2,2"]],
            "root": "-1",
        },
        "weights": {"0": 1.0, "1,1": 1.0, "2,1": 1.0, "2,2": 1.0},
    }


def test_check_cs_document(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", branching_doc())
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "verdict: cs" in out


def test_check_not_cs_document(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", trunked_doc())
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: not_cs" in out
    assert "word" in out


def test_check_json_output(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", branching_doc())
    code = main(["check", "--json", path])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "cs"
    assert doc["certificate"]["matrix"]


def test_check_out_file(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", trunked_doc())
    out_path = tmp_path / "verdict.json"
    code = main(["check", "--out", str(out_path), path])
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "not_cs"
    assert doc["obstruction"]["kind"] == "word_trace"


def test_check_dump_matrix(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", branching_doc())
    code = main(["check", "--json", "--dump-matrix", path])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "matrix" in doc and "basis" in doc
    assert doc["basis"] == ["0", "1,1", "2,1", "2,2"]


def test_check_missing_weight_exits_3(tmp_path, capsys):
    doc = branching_doc()
    del doc["weights"]["2,2"]
    path = write_doc(tmp_path, "doc.json", doc)
    code = main(["check", path])
    err = capsys.readouterr().err
    assert code == 3
    assert "error:" in err and "2,2" in err


@pytest.mark.parametrize(
    "literal",
    ["true", "[NaN, 0]", "[1, Infinity]", '["1.5", "0"]', '[" 2 ", "1e3"]',
     "NaN", "Infinity", "-Infinity", '"1.0"'],
)
def test_check_malformed_weight_exits_3_naming_vertex(tmp_path, capsys, literal):
    # dump_json refuses NaN, so the document is written by hand
    text = dump_json(branching_doc()).replace('"2,2": 1.4142135623730951', f'"2,2": {literal}')
    assert literal in text
    path = tmp_path / "doc.json"
    path.write_text(text)
    code = main(["check", str(path)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "error:" in captured.err and "2,2" in captured.err


def test_check_malformed_json_exits_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code = main(["check", str(path)])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_check_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(dump_json(branching_doc())))
    code = main(["check", "-"])
    assert code == 0


def test_check_rejects_bad_tolerance(capsys):
    code = main(["check", "--tol", "0", "nonexistent.json"])
    assert code == 3
    assert "tol" in capsys.readouterr().err


def test_check_at_a_tiny_tol_reports_no_rounding_witness(tmp_path, capsys):
    # complex symmetric (equal moduli per level); at --tol 1e-20 the rounding
    # gap of tr(T T*) and tr(T* T) used to be reported as a not_cs witness
    weights = sample_binary_weights(3, default_rng(0), satisfying=True).to_assignment()
    doc = {"tree": tree_to_doc(generate_binary(3)), "weights": weights_to_doc(weights)}
    path = write_doc(tmp_path, "doc.json", doc)
    code = main(["check", "--tol", "1e-20", path])
    assert code != 1 and "not_cs" not in capsys.readouterr().out
    assert main(["check", "--tol", "inf", path]) == 3
    assert "tol must be finite" in capsys.readouterr().err


def test_check_rejects_a_negative_seed(tmp_path, capsys):
    # the document is cs through the solve of W, where a seed of -1 used to
    # fail inside numpy's default_rng with a message naming no option
    path = write_doc(tmp_path, "doc.json", branching_doc())
    assert main(["check", "--seed", "-1", path]) == 3
    assert "seed must be an integer >= 0" in capsys.readouterr().err


USAGE_ERRORS = {
    "tol-not-a-float": ["check", "DOC", "--tol", "abc"],
    "no-input": ["check"],
    "unknown-option": ["check", "DOC", "--bogus"],
    "classify-without-kappa": ["classify", "--family", "binary", "--weights", "1"],
}


@pytest.mark.parametrize("case", sorted(USAGE_ERRORS))
def test_usage_errors_exit_3_not_the_2_of_undetermined(tmp_path, capsys, case):
    path = write_doc(tmp_path, "doc.json", branching_doc())
    with pytest.raises(SystemExit) as exited:
        main([path if a == "DOC" else a for a in USAGE_ERRORS[case]])
    captured = capsys.readouterr()
    assert exited.value.code == 3
    assert captured.out == ""
    assert "error:" in captured.err


def test_check_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["check", "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith("usage: treeshift check")


def test_check_rejects_bad_word_len(tmp_path, capsys):
    # the word search is fixed at 8 letters: --word-len is a usage error,
    # even at the length the search covers
    path = write_doc(tmp_path, "doc.json", branching_doc())
    with pytest.raises(SystemExit) as exited:
        main(["check", "--word-len", "8", path])
    assert exited.value.code == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: treeshift")
    assert "error: unrecognized arguments: --word-len" in captured.err


def test_classify_satisfied(capsys):
    code = main(["classify", "--family", "two-branch", "--kappa", "1", "--theta", "2", "--weights", "1,5,1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "satisfied" in out and "not satisfied" not in out


def test_classify_not_satisfied_names_first_clause(capsys):
    code = main(["classify", "--family", "binary", "--kappa", "2", "--weights", "1,2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "not satisfied (l=1)" in out


def test_classify_reports_skipped_count(capsys):
    code = main(["classify", "--family", "binary", "--kappa", "2", "--weights", "1,2"])
    out = capsys.readouterr().out
    assert "skipped clause references: 1" in out


def test_classify_json(capsys):
    code = main(
        ["classify", "--family", "two-branch", "--kappa", "1", "--theta", "2", "--weights", "1,1,2", "--json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["satisfied"] is False


def test_classify_complex_weights(capsys):
    code = main(
        ["classify", "--family", "two-branch", "--kappa", "0", "--theta", "1", "--weights", "1+1j"]
    )
    assert code == 0


def test_classify_wrong_weight_count(capsys):
    code = main(["classify", "--family", "binary", "--kappa", "2", "--weights", "1,2,3"])
    assert code == 3


def test_conjugate_two_branch_success(capsys):
    code = main(
        ["conjugate", "--family", "two-branch", "--kappa", "1", "--theta", "2", "--weights", "1,1,1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "residual" in out


def test_conjugate_two_branch_json(capsys):
    code = main(
        [
            "conjugate",
            "--family",
            "two-branch",
            "--kappa",
            "1",
            "--theta",
            "2",
            "--weights",
            "1,1,1",
            "--json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert "matrix" in doc


def test_conjugate_two_branch_failure(capsys):
    code = main(
        ["conjugate", "--family", "two-branch", "--kappa", "1", "--theta", "2", "--weights", "1,1,2"]
    )
    assert code == 1


def test_conjugate_failing_the_certificate_check_is_a_negative_outcome(capsys):
    # the phase recursion accepts these weights, the certificate check does not
    code = main(
        ["conjugate", "--family", "two-branch", "--kappa", "1", "--theta", "2",
         "--weights", "1,1,1.0000000005"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("no conjugation: not a conjugation")
    assert captured.err == ""


def test_conjugate_binary_equal_weights(capsys):
    code = main(["conjugate", "--family", "binary", "--kappa", "2", "--weights", "1,1"])
    assert code == 0


def test_conjugate_binary_unequal_weights(capsys):
    code = main(["conjugate", "--family", "binary", "--kappa", "2", "--weights", "1,2"])
    assert code == 1


def test_kernels_table(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", trunked_doc())
    code = main(["kernels", path, "--max-power", "3"])
    out = capsys.readouterr().out
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip() and not ln.startswith("m")]
    assert len(lines) == 3
    assert lines[0].split() == ["1", "2", "2"]
    assert lines[1].split() == ["2", "3", "3"]
    assert lines[2].split() == ["3", "4", "4"]


def test_kernels_default_power_saturates(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", branching_doc())
    code = main(["kernels", path, "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["rows"][-1]["dim_ker"] == 4


def test_kernels_output_does_not_depend_on_tol(tmp_path, capsys):
    # a tree shift's ranks are read exactly; a cut at 0.5 would drop the
    # 1e-3 link of this path from every power that contains it
    doc = {
        "tree": {
            "vertices": ["0", "1", "2", "3"],
            "edges": [["0", "1"], ["1", "2"], ["2", "3"]],
            "root": "0",
        },
        "weights": {"1": 1.0, "2": 1e-3, "3": 1.0},
    }
    path = write_doc(tmp_path, "doc.json", doc)
    for extra in ([], ["--json"]):
        outputs = []
        for tol in ("1e-10", "0.5"):
            assert main(["kernels", path, "--tol", tol] + extra) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


def test_kernels_refuses_a_power_past_the_size(tmp_path, capsys):
    # S^n = 0, so every row past n repeats (m, n, n); a million rows of a
    # 2-vertex tree used to take seconds, a GB and 83 MB of output
    doc = {"tree": tree_to_doc(treeshift.generate_path(2)), "weights": {"1": 1.0}}
    path = write_doc(tmp_path, "doc.json", doc)
    assert main(["kernels", path, "--max-power", "2"]) == 0
    capsys.readouterr()
    assert main(["kernels", path, "--max-power", "1000000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "max_power must be at most the size 2" in captured.err


def test_crossval_report(tmp_path):
    out_path = tmp_path / "report.json"
    code = main(
        [
            "crossval",
            "--family",
            "two-branch",
            "--kappa-max",
            "1",
            "--theta-max",
            "2",
            "--samples",
            "3",
            "--seed",
            "7",
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["all_disagreements_certified"]
    cells = {tuple(rec["params"].values()) for rec in doc["instances"]}
    assert (0, 1) in cells and (1, 2) in cells


def test_crossval_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = [
        "crossval",
        "--family",
        "binary",
        "--kappa-max",
        "2",
        "--samples",
        "3",
        "--seed",
        "1",
    ]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_crossval_passes_seed_and_word_len(tmp_path, capsys):
    # the trunked tree does not reduce to chains, so it reaches the words:
    # its shortest witness has 6 letters
    path = write_doc(tmp_path, "doc.json", trunked_doc())
    code = main(["check", "--json", path])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["obstruction"]["kind"] == "word_trace"
    assert len(report["obstruction"]["witness"]["word"]) == 6
    code = main([
        "crossval", "--family", "binary", "--kappa-max", "2", "--seed", "8", "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["options"]["seed"] == 8
    # the reports state the fixed length of the word search
    assert doc["options"]["max_word_len"] == 8
    verdicts = [rec["decider"] for rec in doc["instances"]]
    assert verdicts
    for verdict in verdicts:
        assert verdict["seed"] == verdict["options"]["seed"] == 8
        assert verdict["options"]["max_word_len"] == 8
        if verdict["verdict"] == "not_cs":
            # a binary tree with equal moduli per level reduces to chains,
            # which are decided before any word
            witness = verdict["obstruction"]["witness"]
            assert verdict["obstruction"]["kind"] == "chain_reversal"
            assert witness["gap"] > witness["threshold"]


def test_check_survives_overflowing_word_powers(tmp_path):
    # ||T||_F = 1e100 overflows ||T||_F^L from L = 4; the word stage used to
    # raise OverflowError there
    doc = {
        "tree": {
            "vertices": ["-1", "0", "1,1", "1,2", "2,1", "2,2"],
            "edges": [["-1", "0"], ["0", "1,1"], ["1,1", "1,2"],
                      ["0", "2,1"], ["2,1", "2,2"]],
            "root": "-1",
        },
        "weights": {"0": 1.0, "1,1": 1e100, "1,2": 1.0, "2,1": 1.0, "2,2": 1.0},
    }
    path = write_doc(tmp_path, "overflow.json", doc)
    src = str(Path(treeshift.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-m", "treeshift.cli", "check", path],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode in (0, 1), run.stderr
    assert "Traceback" not in run.stderr
    assert run.stdout.startswith("verdict: ")


def ones_doc(tree) -> dict:
    return {
        "tree": treeshift.tree_to_doc(tree),
        "weights": {v: 1.0 for v in tree.nonroot_vertices()},
    }


def test_check_prints_a_structure_witness(tmp_path, capsys):
    # no word of up to 8 letters separates this all-ones tree, which does
    # not reduce to chains; its joint space W is one line of singular
    # matrices
    edges = ((0, 1), (0, 2), (1, 3), (3, 4), (3, 5), (0, 6), (2, 7), (3, 8), (4, 9))
    tree = treeshift.DirectedTree(
        vertices=tuple(str(v) for v in range(10)),
        edges=tuple((str(p), str(c)) for p, c in edges),
        root="0",
    )
    code = main(["check", write_doc(tmp_path, "ones10.json", ones_doc(tree))])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: not_cs" in out
    assert "obstruction: structure" in out
    assert "  dim: 1" in out
    assert "  spread: " in out


def test_check_prints_a_chain_reversal_witness(tmp_path, capsys):
    # the all-ones (2, 5) tree reduces to the root chain, with links 1, 1,
    # sqrt 2 (the merged branch edges), 1, 1, 1, 1, and the split-off copy
    # of a branch; the root chain's reversal is far from every chain of its
    # length
    doc = ones_doc(treeshift.generate_two_branch(2, 5))
    code = main(["check", write_doc(tmp_path, "ones25.json", doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: not_cs" in out
    assert "obstruction: chain_reversal" in out
    assert "  weights: 1, 1, 1.4142135623730951, 1, 1, 1, 1\n" in out
    assert "  gap: 0.29289321881345254\n" in out
    assert "  threshold: 1.0000000000000001e-07\n" in out


@pytest.mark.parametrize("vertices", [["a", "b", "r", "c"], ["r", "c", "a", "b"]])
def test_check_finds_the_same_chain_witness_in_either_vertex_order(tmp_path, capsys, vertices):
    # listed leaves first, the isolated vertex that the twin reduction splits
    # off comes before the witnessing chain
    doc = {
        "tree": {"vertices": vertices, "root": "r",
                 "edges": [["r", "c"], ["c", "a"], ["c", "b"]]},
        "weights": {"c": 1.0, "a": SQRT2, "b": 0.5},
    }
    code = main(["check", write_doc(tmp_path, "order.json", doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert "obstruction: chain_reversal" in out
    assert "  weights: 1, 1.5\n" in out


@pytest.mark.parametrize(
    "edges, weight",
    [
        ([["r", "a"], ["a", "b"]], 1.5e308),
        ([["r", "a"], ["r", "b"], ["a", "c"], ["a", "d"], ["b", "e"], ["b", "f"]], 1e308),
        ([["r", "a"], ["r", "b"]], 1.5e308),
    ],
    ids=["path", "binary", "star"],
)
def test_check_near_the_float_range_limit_is_undetermined(tmp_path, edges, weight):
    # the system of W overflows; that is no input error, and no dimension
    # of W is claimed.  The overflow is handled, so numpy prints no warning
    doc = {
        "tree": {"vertices": ["r"] + [child for _parent, child in edges],
                 "edges": edges, "root": "r"},
        "weights": {child: weight for _parent, child in edges},
    }
    run = run_cli(["check", "--json", write_doc(tmp_path, "huge.json", doc)])
    verdict = json.loads(run.stdout)
    assert run.returncode == 2
    assert verdict["verdict"] == "undetermined"
    assert verdict["diagnostics"] == {}
    assert run.stderr == ""


def test_broom_feasible(capsys):
    code = main(["broom", "--weights", "0.5,0.25", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert all(s2 > 0 for s2 in doc["h_sequence"]["s_squared"])
    assert doc["embedding"]["passed"]


def test_broom_infeasible(capsys):
    code = main(["broom", "--weights", "0.9,0.9", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["error"] == "infeasible"
    assert doc["step"] == 2
    assert doc["deficit"] == pytest.approx(4.0286, abs=1e-3)


def test_broom_rejects_out_of_range(capsys):
    code = main(["broom", "--weights", "1.5"])
    assert code == 3


@pytest.mark.parametrize("n", ["-1", "0", "4"])
def test_broom_refuses_a_count_outside_the_weights(capsys, n):
    # --n -1 used to slice off the last weight and exit 0
    code = main(["broom", "--weights", "0.3,0.4,0.2", "--n", n])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "--n" in captured.err


def test_broom_truncates_to_a_count_within_the_weights(capsys):
    code = main(["broom", "--weights", "0.5,0.25,0.9", "--n", "2", "--teeth", "5", "--json"])
    truncated = capsys.readouterr().out
    assert code == 0
    assert main(["broom", "--weights", "0.5,0.25", "--teeth", "5", "--json"]) == 0
    assert truncated == capsys.readouterr().out


@pytest.mark.parametrize("doc, message", [
    ([1, 2], "document must be a JSON object with a 'tree' field"),
    ({"weights": {}}, "document must be a JSON object with a 'tree' field"),
    ({"tree": branching_doc()["tree"]}, "document must carry a 'weights' field"),
    ({"tree": 5, "weights": {}}, "field 'tree' must be a JSON object, got int"),
    ({"tree": [], "weights": {}}, "field 'tree' must be a JSON object, got list"),
    # read as a->b->c and decided cs, exit 0
    ({"tree": {"vertices": ["a", "b", "c"], "edges": ["ab", "bc"], "root": "a"},
      "weights": {"b": 1.0, "c": 1.0}},
     "tree document field 'edges' must be a list of [parent, child] string pairs"),
], ids=["not-an-object", "no-tree", "no-weights", "tree-an-int", "tree-a-list", "edges-strings"])
@pytest.mark.parametrize("command", ["check", "kernels"])
def test_documents_without_tree_or_weights_are_refused(tmp_path, capsys, command, doc, message):
    code = main([command, write_doc(tmp_path, "doc.json", doc)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("weights, message", [
    ("1,,1", "empty entry in weight list"),
    ("1, ", "empty entry in weight list"),
    ("1,x", "cannot parse weight 'x'"),
], ids=["empty", "trailing-empty", "unparsable"])
@pytest.mark.parametrize("command", ["classify", "broom", "generate"])
def test_weight_lists_must_parse_entry_by_entry(capsys, command, weights, message):
    family = {"classify": ["--family", "binary", "--kappa", "2"],
              "generate": ["--family", "path", "--n", "3"]}.get(command, [])
    code = main([command] + family + ["--weights", weights])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["classify", "--family", "two-branch", "--kappa", "1", "--weights", "1,1"],
    ["conjugate", "--family", "two-branch", "--kappa", "1", "--weights", "1,1"],
    ["generate", "--family", "two-branch", "--kappa", "1"],
], ids=["classify", "conjugate", "generate"])
def test_two_branch_needs_theta(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == "error: two-branch family needs --theta\n"


def test_generate_needs_one_weight_per_generation(capsys):
    depth = treeshift.generate_path(3).depth
    code = main(["generate", "--family", "path", "--n", "3", "--weights", "1"])
    captured = capsys.readouterr()
    assert code == 3 and depth != 1
    assert captured.out == ""
    assert captured.err == f"error: expected {depth} generation weights, got 1\n"


def test_generate_two_branch_round_trip(tmp_path, capsys):
    code = main(["generate", "--family", "two-branch", "--kappa", "1", "--theta", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["tree"]["vertices"]) == 6
    assert set(doc["weights"]) == set(doc["tree"]["vertices"]) - {doc["tree"]["root"]}
    path = tmp_path / "gen.json"
    path.write_text(dump_json(doc))
    assert main(["check", str(path)]) in (0, 1)


def test_generate_with_level_weights(capsys):
    code = main(
        ["generate", "--family", "path", "--n", "3", "--weights", "1,2"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["weights"]["1"] == [1.0, 0.0] or doc["weights"]["1"] == 1.0


def test_generate_writes_the_same_bytes_to_every_output(tmp_path, capsys):
    argv = ["generate", "--family", "two-branch", "--kappa", "1", "--theta", "2",
            "--weights", "1,2,3"]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--json"]) == 0
    assert capsys.readouterr().out == plain
    path = tmp_path / "gen.json"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    assert path.read_text() == plain


def test_common_option_defaults_are_the_decider_defaults():
    opts = DeciderOptions()
    for argv in (["check", "doc.json"], ["kernels", "doc.json"],
                 ["crossval", "--family", "binary"]):
        args = build_parser().parse_args(argv)
        assert (args.tol, args.seed) == (opts.tol, opts.seed)
        assert not hasattr(args, "word_len")


def test_generate_broom(capsys):
    code = main(["generate", "--family", "broom", "--n", "3"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["tree"]["vertices"]) == 4


def test_generate_two_level_broom(capsys):
    code = main(["generate", "--family", "two-level-broom", "--n", "2"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["tree"]["vertices"]) == 5


def test_float_formatting_has_full_precision(tmp_path, capsys):
    path = write_doc(tmp_path, "doc.json", branching_doc())
    main(["check", path])
    out = capsys.readouterr().out
    # residuals are printed with repr-faithful precision, not rounded short
    assert "verdict" in out


@pytest.mark.parametrize("argv, option", [
    (["--family", "two-branch", "--samples", "-3"], "--samples"),
    (["--family", "binary", "--samples", "0"], "--samples"),
    (["--family", "two-branch", "--kappa-max", "-1"], "--kappa-max"),
    (["--family", "two-branch", "--theta-max", "-2"], "--theta-max"),
    # binary cells start at kappa 2, so --kappa-max 1 leaves the grid empty
    (["--family", "binary", "--kappa-max", "1"], "--kappa-max 2"),
], ids=["samples-3", "samples0", "kappa-max-1", "theta-max-2", "binary-kappa-max1"])
def test_crossval_refuses_an_empty_grid(capsys, argv, option):
    # these used to print "instances: 0" and exit 0
    code = main(["crossval"] + argv + ["--json"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert option in captured.err


@pytest.mark.parametrize("argv, cell, n", [
    (["--family", "binary", "--kappa-max", "9"], "{'kappa': 7}", 255),
    (["--family", "two-branch", "--kappa-max", "0", "--theta-max", "70"],
     "{'kappa': 0, 'theta': 64}", 129),
], ids=["binary", "two-branch"])
def test_crossval_refuses_a_grid_over_the_vertex_cap(capsys, argv, cell, n):
    # these used to audit the cells under the cap, drop the rest and exit 0
    code = main(["crossval"] + argv + ["--samples", "1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"cell {cell} yields a {n}-vertex tree (cap 127)" in captured.err


def binary_equal_moduli_doc(capsys):
    # kappa 5: 63 vertices, so the certificate grid holds 63 * 63 * 2 floats,
    # over the writer's gate for one repr per distinct bit pattern
    assert main(["generate", "--family", "binary", "--kappa", "5",
                 "--weights", "1.5,1.5,1.5,1.5,1.5"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("case", ["binary_cs", "word_trace"])
def test_check_json_is_the_json_module_layout(tmp_path, capsys, case):
    doc = binary_equal_moduli_doc(capsys) if case == "binary_cs" else trunked_doc()
    path = write_doc(tmp_path, "doc.json", doc)
    code = main(["check", "--json", path])
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == json.dumps(report, indent=2, allow_nan=False) + "\n"
    if case == "binary_cs":
        assert code == 0 and report["verdict"] == "cs"
        assert len(report["certificate"]["matrix"]) == 63
    else:
        assert code == 1 and report["obstruction"]["kind"] == "word_trace"


def subcommand_argvs(tmp_path) -> dict:
    """One well-formed call of every subcommand."""
    path = write_doc(tmp_path, "doc.json", branching_doc())
    family = ["--family", "two-branch", "--kappa", "1", "--theta", "2", "--weights", "1,1,1"]
    return {
        "check": ["check", path],
        "classify": ["classify"] + family,
        "conjugate": ["conjugate"] + family,
        "kernels": ["kernels", path],
        "crossval": ["crossval", "--family", "binary", "--kappa-max", "2", "--samples", "1"],
        "broom": ["broom", "--weights", "0.5,0.25", "--teeth", "5"],
        "generate": ["generate", "--family", "path", "--n", "3"],
    }


def test_every_subcommand_has_a_well_formed_call(tmp_path, capsys):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    argvs = subcommand_argvs(tmp_path)
    assert set(argvs) == set(sub.choices)
    for argv in argvs.values():
        assert main(argv) in (0, 1)
    assert "error" not in capsys.readouterr().err


MALFORMED_COMMON = {
    "tol-inf": (["--tol", "inf"], "tol must be finite and > 0"),
    "tol-nan": (["--tol", "nan"], "tol must be finite and > 0"),
    "tol0": (["--tol", "0"], "tol must be finite and > 0"),
    "tol-negative": (["--tol=-1e-10"], "tol must be finite and > 0"),
    "seed-1": (["--seed", "-1"], "seed must be an integer >= 0"),
    # the word length is fixed at 8 letters: --word-len is a usage error
    "word-len1": (["--word-len", "1"], "error: unrecognized arguments: --word-len 1"),
    "word-len-1": (["--word-len", "-1"], "error: unrecognized arguments: --word-len -1"),
}


@pytest.mark.parametrize("option", sorted(MALFORMED_COMMON))
@pytest.mark.parametrize("command", ["check", "classify", "conjugate", "kernels",
                                     "crossval", "broom", "generate"])
def test_every_subcommand_refuses_malformed_common_options(tmp_path, capsys, command, option):
    # one validator for the common options: --tol inf used to get through on
    # every subcommand but check and crossval, and --seed -1 on all but check
    extra, message = MALFORMED_COMMON[option]
    argv = subcommand_argvs(tmp_path)[command] + extra
    usage = option.startswith("word-len")
    if usage:
        with pytest.raises(SystemExit) as exited:
            main(argv)
        code = exited.value.code
    else:
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.startswith("usage: " if usage else "error: ") and message in captured.err


@pytest.mark.parametrize("command", ["classify", "conjugate", "broom"])
@pytest.mark.parametrize("entry", ["inf", "nan", "-inf+1j"])
def test_weight_lists_must_be_finite(capsys, command, entry):
    # classify --family binary --kappa 2 --weights inf,1 used to exit 0
    # "satisfied", since |2 - inf| <= rtol * inf holds
    family = ["--family", "binary", "--kappa", "2"] if command != "broom" else []
    code = main([command] + family + [f"--weights={entry},1"])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"weight '{entry}' is not finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["--family", "two-branch", "--kappa", "1", "--theta", "0", "--weights", "1"],
     "theta must be >= 1, got 0"),
    (["--family", "two-branch", "--kappa", "-1", "--theta", "2", "--weights", "1"],
     "kappa must be >= 0, got -1"),
    (["--family", "binary", "--kappa", "1", "--weights", "1"], "kappa must be >= 2, got 1"),
    (["--family", "binary", "--kappa", "-1", "--weights", "1"], "kappa must be >= 2, got -1"),
    # the weight count used to be checked first, naming no parameter
    (["--family", "two-branch", "--kappa", "-1", "--theta", "2", "--weights", "1,1"],
     "kappa must be >= 0, got -1"),
    (["--family", "two-branch", "--kappa", "1", "--theta", "2", "--weights", "1,1"],
     "branch needs 2 weights, got 1"),
], ids=["two-branch-theta0", "two-branch-kappa-1", "binary-kappa1", "binary-kappa-1",
        "two-branch-kappa-1-two-weights", "two-branch-short"])
@pytest.mark.parametrize("command", ["classify", "conjugate"])
def test_family_parameters_outside_their_range_are_refused(capsys, command, argv, message):
    # theta 0 used to classify as "satisfied" and binary kappa 1 to exit 1
    code = main([command] + argv)
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert message in captured.err


def test_a_document_over_the_vertex_bound_exits_3_before_allocating(tmp_path):
    # a path of 8193 vertices, hand-built, since no generator makes one: its
    # dense complex matrix alone would take just over 1 GiB.  It used to die
    # with a MemoryError and exit 1 (the not_cs code) under this limit
    resource = pytest.importorskip("resource")
    labels = [str(v) for v in range(8193)]
    doc = {"tree": {"vertices": labels, "root": "0",
                    "edges": [list(edge) for edge in zip(labels, labels[1:])]},
           "weights": dict.fromkeys(labels[1:], 1.0)}
    path = write_doc(tmp_path, "path.json", doc)

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    run = run_cli(["check", path], preexec_fn=limit_address_space)
    assert run.returncode == 3, run.stderr
    assert run.stdout == ""
    assert "Traceback" not in run.stderr
    assert "a tree of 8193 vertices is too large: the bound is 8192" in run.stderr


def test_a_long_path_decides_chain_reversal_without_a_dense_matrix(tmp_path):
    # 10^5 vertices, over the vertex bound: the chain decision and the
    # kernel table read parents and weights only, so neither allocates an
    # n x n array, which would take 149 GiB.  The weights rise along the
    # path, so the one chain is no palindrome and its witness lists 10^5
    # distinct floats
    resource = pytest.importorskip("resource")
    n = 100_000
    labels = [str(v) for v in range(n)]
    doc = {"tree": {"vertices": labels, "root": "0",
                    "edges": [list(edge) for edge in zip(labels, labels[1:])]},
           "weights": {v: 1.0 + int(v) / n for v in labels[1:]}}
    path = tmp_path / "path.json"
    path.write_text(json.dumps(doc))

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    started = time.perf_counter()
    run = run_cli(["check", "--json", str(path)], preexec_fn=limit_address_space)
    elapsed = time.perf_counter() - started
    assert run.returncode == 1, run.stderr
    report = json.loads(run.stdout)
    assert report["obstruction"]["kind"] == "chain_reversal"
    assert len(report["obstruction"]["witness"]["weights"]) == n - 1
    assert elapsed < 2.0
    run = run_cli(["kernels", "--json", str(path)], preexec_fn=limit_address_space)
    assert run.returncode == 0, run.stderr
    rows = json.loads(run.stdout)["rows"]
    assert len(rows) == n and rows[0]["dim_ker"] == 1 and rows[-1]["dim_ker"] == n


def test_running_out_of_memory_exits_3_not_the_not_cs_code(tmp_path, capsys, monkeypatch):
    def exhausted(*_args):
        raise MemoryError

    monkeypatch.setattr("treeshift.cli.decide_cs", exhausted)
    assert main(["check", write_doc(tmp_path, "doc.json", branching_doc())]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: MemoryError\n"


@pytest.mark.parametrize("argv", [
    ["--family", "binary", "--kappa", "24"],
    ["--family", "path", "--n", "100000000"],
    ["--family", "two-level-broom", "--n", "4096"],
], ids=["binary-kappa24", "path", "two-level-broom"])
def test_generate_refuses_a_tree_over_the_vertex_bound_before_allocating(capsys, argv):
    # binary kappa = 24 would build 3.3e7 labels before writing anything
    tracemalloc.start()
    try:
        code = main(["generate", *argv])
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert code == 3 and peak < 1 << 20
    assert captured.out == ""
    assert "vertices is too large: the bound is 8192" in captured.err
