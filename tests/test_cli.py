"""CLI: subcommand behavior, file outputs, and exit codes."""

import json

import pytest

from structrec.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# reduce


def test_reduce_base_pair(capsys):
    code, out, _ = run(capsys, "reduce", "s", "01")
    assert code == 0
    assert out.strip() == "X0 01"


def test_reduce_trace_accepts_letter_o_spelling(capsys):
    code, out, _ = run(capsys, "reduce", "s", "X1 X1 XO 01", "--trace")
    assert code == 0
    assert out.strip() == (
        "( X1 X1 X0 01 ) = X0 ( X1 X0 01 ) = X0 X0 ( X0 01 ) = X0 X0 X1 01"
    )


def test_reduce_add(capsys):
    code, out, _ = run(capsys, "reduce", "add", "S I", "I")
    assert code == 0
    assert out.strip() == "S S I"


def test_reduce_inorder_k_one(capsys):
    code, out, _ = run(capsys, "reduce", "inorder",
                       "a ( c LEAF LEAF ) ( t LEAF LEAF )", "--k", "1")
    assert code == 0
    assert out.strip() == "UNROLL[ c LEAF LEAF ] a UNROLL[ t LEAF LEAF ]"


def test_reduce_inorder_full(capsys):
    code, out, _ = run(capsys, "reduce", "inorder", "a ( c LEAF LEAF ) ( t LEAF LEAF )")
    assert code == 0
    assert out.strip() == "c a t"


def test_reduce_wrong_arity_is_input_error(capsys):
    code, _, err = run(capsys, "reduce", "add", "S I")
    assert code == 4
    assert "input" in err


def test_reduce_malformed_tokens(capsys):
    code, _, _ = run(capsys, "reduce", "s", "X1 X9 01")
    assert code == 4


@pytest.mark.parametrize("flag,value", [("--fuel", "0"), ("--k", "-1")])
def test_reduce_out_of_range_budget_is_a_usage_error(capsys, flag, value):
    code, _, err = run(capsys, "reduce", "s", "X0 01", flag, value)
    assert code == 2
    assert err.startswith("usage:") and f"argument {flag}: must be at least" in err


def test_reduce_all_ones_successor_past_the_recursion_limit(capsys):
    code, out, _ = run(capsys, "reduce", "s", " ".join(["X1"] * 331 + ["01"]))
    assert code == 0
    assert out.split() == ["X0"] * 332 + ["01"]


def test_reduce_fuel_exhaustion(capsys):
    code, _, err = run(capsys, "reduce", "s", " ".join(["X1"] * 30 + ["01"]),
                       "--fuel", "2")
    assert code == 5


# ---------------------------------------------------------------------------
# shortcut


def test_shortcut_reverse_input(capsys):
    code, out, _ = run(capsys, "shortcut", "reverse", "--input", "X1 X1 X0 01")
    assert code == 0
    assert out.strip() == "X0 X0 X1 01"


def test_shortcut_natural_corrected_diff_is_empty(capsys):
    code, out, _ = run(capsys, "shortcut", "natural", "--mode", "corrected", "--diff")
    assert code == 0
    assert "disagreements 0" in out


def test_shortcut_diff_writes_jsonl(capsys, tmp_path):
    path = tmp_path / "diff.jsonl"
    code, out, _ = run(capsys, "shortcut", "natural", "--diff",
                       "--range", "1:64", "--out", str(path))
    assert code == 0
    values = [json.loads(line)["value"] for line in path.read_text().splitlines()]
    assert values == [3, 7, 15, 31, 63]


def test_shortcut_without_work_is_an_error(capsys):
    code, _, _ = run(capsys, "shortcut", "natural")
    assert code == 4


# ---------------------------------------------------------------------------
# asm


def test_asm_successor(capsys):
    code, out, _ = run(capsys, "asm", "successor", "--input", "X1 X0 01")
    assert code == 0
    assert out.strip() == "X0 X1 01"


def test_asm_log_shows_rules(capsys):
    code, out, _ = run(capsys, "asm", "successor", "--input", "X1 X0 01", "--log")
    assert code == 0
    assert "shift-ones" in out
    assert "flip-first-zero" in out


def test_asm_rasm_reports_agents(capsys):
    code, out, err = run(capsys, "asm", "successor-rasm", "--input", "X1 X1 X1 01")
    assert code == 0
    assert out.strip() == "X0 X0 X0 X0 01"
    assert "agents: 3" in err


def test_asm_budget_exhaustion(capsys):
    code, _, _ = run(capsys, "asm", "successor", "--input", "X1 X0 01", "--budget", "1")
    assert code == 5


# ---------------------------------------------------------------------------
# gen and eval


def test_gen_and_eval_round_trip(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "successor", "--range", "1:50",
                     "--out", str(tmp_path))
    assert code == 0
    gold = tmp_path / "successor_reverse.jsonl"
    manifest = tmp_path / "successor_reverse.manifest.json"
    assert gold.exists() and manifest.exists()
    doc = json.loads(manifest.read_text())
    assert doc["records"] == 50

    pred = tmp_path / "pred.jsonl"
    with pred.open("w") as handle:
        for line in gold.read_text().splitlines():
            obj = json.loads(line)
            handle.write(json.dumps({"id": obj["id"], "candidates": [obj["target"]]}))
            handle.write("\n")
    code, out, _ = run(capsys, "eval", "--gold", str(gold), "--pred", str(pred),
                       "--breakdown", "edge_group")
    assert code == 0
    assert "1.0000" in out
    assert "edge_group" in out


def test_gen_is_byte_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for target in (a, b):
        code, _, _ = run(capsys, "gen", "random", "--count", "20",
                         "--bits", "4:8", "--out", str(target))
        assert code == 0
    name = "successor_random_reverse.jsonl"
    assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_trees_writes_split_files(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "trees", "--depths", "2:3", "--train", "30",
                     "--test", "6", "--out", str(tmp_path))
    assert code == 0
    train = (tmp_path / "trees_train.jsonl").read_text().splitlines()
    test = (tmp_path / "trees_test.jsonl").read_text().splitlines()
    assert len(train) == 30 and len(test) == 6
    train_tokens = {json.dumps(json.loads(line)["tokens"]) for line in train}
    test_tokens = {json.dumps(json.loads(line)["tokens"]) for line in test}
    assert not train_tokens & test_tokens


def test_gen_traces_validate_cleanly(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "traces", "--task", "successor",
                     "--range", "1:30", "--out", str(tmp_path))
    assert code == 0
    code, out, _ = run(capsys, "eval", "--validate-traces",
                       "--traces", str(tmp_path / "traces_successor.jsonl"))
    assert code == 0
    assert "traces 30, valid 30, invalid 0" in out


def test_eval_id_mismatch_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "successor", "--range", "1:5", "--out", str(tmp_path))
    assert code == 0
    pred = tmp_path / "pred.jsonl"
    pred.write_text('{"id": "nobody", "candidates": [["01"]]}\n')
    code, _, _ = run(capsys, "eval",
                     "--gold", str(tmp_path / "successor_reverse.jsonl"),
                     "--pred", str(pred))
    assert code == 6


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "eval", "--gold", str(tmp_path / "no.jsonl"),
                     "--pred", str(tmp_path / "also_no.jsonl"))
    assert code == 3


def test_bad_flags_exit_code(capsys):
    assert run(capsys, "gen", "successor", "--range", "10")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "gen", "--help")[0] == 0


def test_gen_remap_and_padding(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "successor", "--range", "1:20",
                     "--out", str(tmp_path), "--max-pad", "2",
                     "--remap", '{"01": "c", "X0": "a", "X1": "b"}')
    assert code == 0
    rows = [json.loads(line)
            for line in (tmp_path / "successor_reverse.jsonl").read_text().splitlines()]
    tokens = {tok for row in rows for tok in row["input"] + row["target"]}
    assert tokens <= {"a", "b", "c", "PAD"}
    for row in rows:
        pad = row["meta"]["pad_len"]
        assert row["input"][:pad] == ["PAD"] * pad == row["target"][:pad]


def test_gen_oversample(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "successor", "--range", "1:32",
                     "--out", str(tmp_path), "--oversample-g1", "5")
    assert code == 0
    rows = [json.loads(line)
            for line in (tmp_path / "successor_reverse.jsonl").read_text().splitlines()]
    counts = {}
    for row in rows:
        counts[row["id"]] = counts.get(row["id"], 0) + 1
    for row in rows:
        expected = 5 if row["meta"]["edge_group"] == 1 else 1
        assert counts[row["id"]] == expected
