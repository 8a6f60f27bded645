import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeshift
from treeshift import DeciderOptions, dump_json
from treeshift.cli import build_parser, main

SQRT2 = math.sqrt(2.0)


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(dump_json(doc))
    return str(path)


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


@pytest.mark.parametrize("literal", ["true", "[NaN, 0]", "[1, Infinity]"])
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


def test_check_rejects_bad_word_len(capsys):
    code = main(["check", "--word-len", "1", "nonexistent.json"])
    assert code == 3
    assert "word-len" in capsys.readouterr().err


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


def test_crossval_passes_seed_and_word_len(capsys):
    code = main([
        "crossval", "--family", "binary", "--kappa-max", "2",
        "--seed", "8", "--word-len", "4", "--json",
    ])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["options"]["seed"] == 8
    assert doc["options"]["max_word_len"] == 4
    verdicts = [rec["decider"] for rec in doc["instances"]]
    assert verdicts
    for verdict in verdicts:
        assert verdict["seed"] == verdict["options"]["seed"] == 8
        assert verdict["options"]["max_word_len"] == 4
        if verdict["verdict"] == "not_cs":
            assert len(verdict["obstruction"]["witness"]["word"]) <= 4


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


def test_check_prints_a_structure_witness(tmp_path, capsys):
    # no word of up to 8 letters separates the all-ones (2, 5) tree; its
    # joint space W is one line of singular matrices
    tree = treeshift.generate_two_branch(2, 5)
    doc = {
        "tree": treeshift.tree_to_doc(tree),
        "weights": {v: 1.0 for v in tree.nonroot_vertices()},
    }
    code = main(["check", write_doc(tmp_path, "ones25.json", doc)])
    out = capsys.readouterr().out
    assert code == 1
    assert "verdict: not_cs" in out
    assert "obstruction: structure" in out
    assert "  dim: 1" in out
    assert "  spread: " in out


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
        assert (args.tol, args.seed, args.word_len) == (
            opts.tol, opts.seed, opts.max_word_len
        )


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


def test_crossval_empty_grid_has_the_library_report_shape(capsys):
    # binary cells start at kappa 2, so --kappa-max 1 leaves the grid empty
    code = main(["crossval", "--family", "binary", "--kappa-max", "1", "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["cells"] == [] and doc["instances"] == []
    assert doc["summary"]["instances"] == 0
    assert doc["summary"]["agreement_matrix"] == {
        "printed_true_oracle_cs": 0,
        "printed_true_oracle_not_cs": 0,
        "printed_false_oracle_cs": 0,
        "printed_false_oracle_not_cs": 0,
        "oracle_undetermined": 0,
    }
