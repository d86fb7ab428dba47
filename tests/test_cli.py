"""CLI: subcommand behavior, file outputs, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from structrec.cli import main
from structrec.datasets import record_rng


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


def test_reduce_long_all_ones_successor_keeps_only_the_final_state(capsys):
    code, out, _ = run(capsys, "reduce", "s", " ".join(["X1"] * 3000 + ["01"]))
    assert code == 0
    assert out.split() == ["X0"] * 3001 + ["01"]


def test_reduce_fuel_exhaustion(capsys):
    code, _, err = run(capsys, "reduce", "s", " ".join(["X1"] * 30 + ["01"]),
                       "--fuel", "2")
    assert code == 5


@pytest.mark.parametrize("program,text,taken", [
    ("s", " ".join(["X1"] * 30 + ["X0", "01"]), 31),  # one level per trailing X1, plus one
    ("inorder", "a ( b ( c LEAF LEAF ) LEAF ) ( t LEAF LEAF )", 4),  # depth 3, plus one
])
def test_reduce_fuel_is_enough_at_the_level_count(capsys, program, text, taken):
    assert run(capsys, "reduce", program, text, "--fuel", str(taken - 1))[0] == 5
    code, out, _ = run(capsys, "reduce", program, text, "--fuel", str(taken))
    assert code == 0
    assert out == run(capsys, "reduce", program, text)[1]


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


def test_asm_rasm_past_the_recursion_limit(capsys):
    code, out, err = run(capsys, "asm", "successor-rasm",
                         "--input", " ".join(["X1"] * 1199 + ["01"]))
    assert code == 0
    assert out.split() == ["X0"] * 1200 + ["01"]
    assert "agents: 1199  max call depth: 1199" in err


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


def _gold_and_pred(capsys, tmp_path, count=20):
    code, _, _ = run(capsys, "gen", "successor", "--range", f"1:{count}", "--out", str(tmp_path))
    assert code == 0
    gold = (tmp_path / "successor_reverse.jsonl").read_text().splitlines()
    pred = []
    for line in gold:
        obj = json.loads(line)
        pred.append(json.dumps({"id": obj["id"],
                                "candidates": [obj["target"], " ".join(obj["input"])]}))
    return gold, pred


def _eval_lines(capsys, tmp_path, gold, pred, *flags):
    gold_path, pred_path = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold_path.write_text("".join(line + "\n" for line in gold))
    pred_path.write_text("".join(line + "\n" for line in pred))
    return run(capsys, "eval", "--gold", str(gold_path), "--pred", str(pred_path), *flags)


@pytest.mark.parametrize("which,field,value", [
    ("gold", "meta", 5),
    ("gold", "target", [1, 2]),
    ("pred", "candidates", "X1 01"),
    ("pred", "candidates", [5]),
    ("gold", "meta", {"bits": True}),  # would share a breakdown bucket with bits 1
])
def test_eval_malformed_record_exit_code(capsys, tmp_path, which, field, value):
    gold, pred = _gold_and_pred(capsys, tmp_path)
    lines = gold if which == "gold" else pred
    obj = json.loads(lines[3])
    obj[field] = value
    lines[3] = json.dumps(obj)
    code, out, err = _eval_lines(capsys, tmp_path, gold, pred)
    assert code == 4
    assert err.startswith("error: ") and ":4: " in err
    assert out == ""


@pytest.mark.parametrize("key", ["to_dict", "__dict__", "astrology"])
def test_eval_unknown_breakdown_key_exit_code(capsys, tmp_path, key):
    gold, pred = _gold_and_pred(capsys, tmp_path)
    code, out, err = _eval_lines(capsys, tmp_path, gold, pred, "--breakdown", key)
    assert code == 4
    assert err.startswith(f"error: unknown breakdown key: {key!r}")
    assert out == ""


FUZZ_VALUES = (None, True, 7, 2.5, "", "X1 01", [], [7], ["X0", 7], [["01"]], {"X1": 1})


def _mutate(line: str, ids, rng) -> str:
    """One damaged copy of a JSONL line: a field dropped, a value or a
    token of another type, a cut line, or another record's id."""
    try:
        obj = json.loads(line)
    except ValueError:
        obj = None
    kind = rng.choice(("drop", "swap", "truncate", "duplicate-id"))
    if not isinstance(obj, dict) or kind == "truncate":
        return line[:rng.randrange(len(line) + 1)]
    if kind == "duplicate-id":
        obj["id"] = rng.choice(ids)
        return json.dumps(obj)
    holder = obj["meta"] if isinstance(obj.get("meta"), dict) and rng.random() < 0.4 else obj
    if not holder:
        return json.dumps(rng.choice(FUZZ_VALUES))
    key = rng.choice(sorted(holder))
    if kind == "drop":
        del holder[key]
    elif isinstance(holder[key], list) and holder[key] and rng.random() < 0.5:
        inner = holder[key]
        inner[rng.randrange(len(inner))] = rng.choice(FUZZ_VALUES)
    else:
        holder[key] = rng.choice(FUZZ_VALUES)
    return json.dumps(obj)


def test_eval_fuzzed_records_exit_cleanly(capsys, tmp_path):
    gold, pred = _gold_and_pred(capsys, tmp_path, count=12)
    ids = [json.loads(line)["id"] for line in gold]
    seen = set()
    for case in range(400):
        rng = record_rng(0, "eval-fuzz", case)
        files = {"gold": list(gold), "pred": list(pred)}
        for _ in range(rng.randint(1, 3)):
            lines = files[rng.choice(("gold", "pred"))]
            at = rng.randrange(len(lines))
            lines[at] = _mutate(lines[at], ids, rng)
        code, _, err = _eval_lines(capsys, tmp_path, files["gold"], files["pred"],
                                   "--breakdown", "bits", "--breakdown", "edge_group",
                                   "--format", rng.choice(("text", "json")))
        assert code in (0, 4, 6), (case, err)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: "), (case, err)
        seen.add(code)
    assert seen == {0, 4, 6}


@pytest.mark.parametrize("field,value", [
    ("trace", 5),
    ("input", "X1 01"),
    ("input", ["X1", 1]),
    ("task", ["successor"]),
])
def test_validate_traces_malformed_record_exit_code(capsys, tmp_path, field, value):
    assert run(capsys, "gen", "traces", "--range", "1:8", "--out", str(tmp_path))[0] == 0
    path = tmp_path / "traces_successor.jsonl"
    lines = path.read_text().splitlines()
    obj = json.loads(lines[2])
    obj[field] = value
    lines[2] = json.dumps(obj)
    path.write_text("".join(line + "\n" for line in lines))
    code, out, err = run(capsys, "eval", "--validate-traces", "--traces", str(path))
    assert code == 4
    assert err.startswith("error: ") and ":3: " in err
    assert out == ""


TRACE_FUZZ_TOKENS = ("X0", "X1", "01", "XO", "(", ")", "UNROLL[", "REDUCE[", "]", "EMPTY",
                     "LEAF", "a", "Q", "=", "->", "")


def _damaged_trace(obj: dict, pool, rng) -> dict:
    """One damaged copy of a trace record: cut or mutated trace text, the
    input of another record, a malformed input, or another task."""
    kind = rng.choice(("cut", "mutate", "other-input", "bad-input", "task"))
    if kind == "cut":
        obj["trace"] = obj["trace"][:rng.randrange(len(obj["trace"]) + 1)]
    elif kind == "mutate":
        tokens = obj["trace"].split(" ")
        for _ in range(rng.randint(1, 3)):
            tokens[rng.randrange(len(tokens))] = rng.choice(TRACE_FUZZ_TOKENS)
        obj["trace"] = " ".join(tokens)
    elif kind == "other-input":
        obj["input"] = json.loads(rng.choice(pool))["input"]
    elif kind == "bad-input":
        obj["input"] = [rng.choice(TRACE_FUZZ_TOKENS) for _ in range(rng.randint(0, 4))]
    else:
        obj["task"] = rng.choice(("successor", "inorder", "preorder", "carousel", ""))
    return obj


def test_validate_traces_fuzzed_records_exit_cleanly(capsys, tmp_path):
    assert run(capsys, "gen", "traces", "--range", "1:40", "--out", str(tmp_path))[0] == 0
    assert run(capsys, "gen", "traces", "--task", "inorder", "--count", "20", "--depths", "1:4",
               "--out", str(tmp_path))[0] == 0
    pool = ((tmp_path / "traces_successor.jsonl").read_text().splitlines()
            + (tmp_path / "traces_inorder.jsonl").read_text().splitlines())
    path = tmp_path / "fuzzed.jsonl"
    seen = set()
    for case in range(300):
        rng = record_rng(0, "trace-fuzz", case)
        lines = rng.sample(pool, rng.randint(1, 4))
        for at in rng.sample(range(len(lines)), rng.randint(1, len(lines))):
            lines[at] = json.dumps(_damaged_trace(json.loads(lines[at]), pool, rng))
        path.write_text("".join(line + "\n" for line in lines))
        code, _, err = run(capsys, "eval", "--validate-traces", "--traces", str(path),
                           "--format", rng.choice(("text", "json")))
        assert code in (0, 2, 3, 4, 5, 6), (case, err)
        assert "Traceback" not in err
        assert code == 0 or err.startswith("error: "), (case, err)
        seen.add(code)
    assert seen == {0, 4}


def test_missing_file_exit_code(capsys, tmp_path):
    code, _, _ = run(capsys, "eval", "--gold", str(tmp_path / "no.jsonl"),
                     "--pred", str(tmp_path / "also_no.jsonl"))
    assert code == 3


@pytest.mark.parametrize("argv", [
    ("asm", "successor", "--input", "X1 X0 01", "--budget", "0"),
    ("shortcut", "natural", "--diff", "--range", "0:5"),
    ("gen", "random", "--count", "-5"),
    ("gen", "traces", "--task", "inorder", "--count", "-3"),
    ("gen", "traversal", "--k", "0"),
    ("gen", "successor", "--oversample-g1", "0"),
    ("gen", "successor", "--oversample-g2", "0"),
    ("gen", "random", "--weight-g1", "0"),
    ("gen", "single-step", "--weight-g2", "-1"),
])
def test_values_below_one_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage:") and f"argument {argv[-2]}: must be at least 1" in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("gen", "traversal", "--train", "-2"),
    ("gen", "trees", "--test", "-1"),
    ("gen", "successor", "--max-pad", "-1"),
    ("gen", "traces", "--max-pad", "-3"),
])
def test_negative_split_sizes_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("usage:") and f"argument {argv[-2]}: must be at least 0" in err
    assert out == ""


def _int_flag(rng, low, high) -> str:
    """Mostly an integer in low..high, else one below it or not an integer."""
    if rng.random() < 0.75:
        return str(rng.randint(low, high))
    return rng.choice((str(low - 1), "-1", "x", "", "1.5"))


def _range_flag(rng, lows, width) -> str:
    """Mostly LO:HI spanning at most width + 1 values, else a reversed
    range or not a range."""
    lo = rng.choice(lows)
    if rng.random() < 0.75:
        return f"{lo}:{lo + rng.randint(0, width)}"
    return rng.choice((f"{lo}:{lo - 1}", str(lo), f"{lo}:", ":", "a:b", "1:2:3"))


BIG = 2**31
GEN_FLAGS = {
    "--seed": lambda rng: _int_flag(rng, -5, 9),
    "--max-pad": lambda rng: _int_flag(rng, 0, 4),
    "--oversample-g1": lambda rng: _int_flag(rng, 1, 4),
    "--oversample-g2": lambda rng: _int_flag(rng, 1, 4),
    "--weight-g1": lambda rng: _int_flag(rng, 1, 4),
    "--weight-g2": lambda rng: _int_flag(rng, 1, 4),
}
TREE_FLAGS = {
    "--depths": lambda rng: _range_flag(rng, (-1, 0, 1, 2, 3, 5), 4),
    "--train": lambda rng: _int_flag(rng, 0, 50),
    "--test": lambda rng: _int_flag(rng, 0, 50),
}
# each subcommand with small sizes to start from, and its numeric and range
# flags, every value small enough that a run takes milliseconds
FLAG_FUZZ = {
    ("gen", "successor"): (["--range", "1:8"], {
        "--range": lambda rng: _range_flag(rng, (-1, 0, 1, 5, BIG - 40, BIG, BIG + 1), 63),
        "--edge-cases": lambda rng: _range_flag(rng, (-1, 0, 1, 2, 30, 64), 8),
        **GEN_FLAGS}),
    ("gen", "random"): (["--count", "5", "--bits", "4:8"], {
        "--count": lambda rng: _int_flag(rng, 1, 50),
        "--bits": lambda rng: _range_flag(rng, (-1, 0, 1, 2, 30, 62), 4),
        **GEN_FLAGS}),
    ("gen", "single-step"): (["--range", "1:8"], {
        "--range": lambda rng: _range_flag(rng, (-1, 0, 1, 5, BIG - 40, BIG), 63),
        **GEN_FLAGS}),
    ("gen", "trees"): (["--depths", "2:3", "--train", "5", "--test", "2"],
                       {**TREE_FLAGS, **GEN_FLAGS}),
    ("gen", "traversal"): (["--depths", "2:3", "--train", "5", "--test", "2"], {
        "--k": lambda rng: _int_flag(rng, 1, 6), **TREE_FLAGS, **GEN_FLAGS}),
    ("gen", "traces"): (["--task", "inorder", "--count", "3", "--range", "1:8"], {
        "--task": lambda rng: rng.choice(("successor", "inorder", "preorder")),
        "--range": lambda rng: _range_flag(rng, (-1, 0, 1, 5, BIG - 40, BIG), 63),
        "--count": lambda rng: _int_flag(rng, 1, 50),
        "--depths": TREE_FLAGS["--depths"],
        **GEN_FLAGS}),
    ("reduce", "s", "X1 X0 X1 01"): ([], {
        "--k": lambda rng: _int_flag(rng, 0, 6),
        "--fuel": lambda rng: _int_flag(rng, 1, 6),
        "--trace": None}),
    ("reduce", "preorder", "a ( b LEAF LEAF ) LEAF"): ([], {
        "--k": lambda rng: _int_flag(rng, 0, 6),
        "--fuel": lambda rng: _int_flag(rng, 1, 6)}),
    ("shortcut", "natural"): (["--diff", "--range", "1:8"], {
        "--range": lambda rng: _range_flag(rng, (-1, 0, 1, 2, 1000, BIG - 40), 63),
        "--mode": lambda rng: rng.choice(("faithful", "corrected"))}),
    ("asm", "successor-rasm", "--input", "X1 X1 X0 01"): ([], {
        "--budget": lambda rng: _int_flag(rng, 1, 8)}),
    ("asm", "shortcut-reverse", "--input", "X1 X1 01"): ([], {
        "--budget": lambda rng: _int_flag(rng, 1, 8)}),
}


def test_fuzzed_flag_values_exit_cleanly(capsys, tmp_path):
    gold, pred = _gold_and_pred(capsys, tmp_path, count=8)
    gold_path, pred_path = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold_path.write_text("".join(line + "\n" for line in gold))
    pred_path.write_text("".join(line + "\n" for line in pred))
    cases = {**FLAG_FUZZ, ("eval", "--gold", str(gold_path), "--pred", str(pred_path)): ([], {
        "--hit-ks": lambda rng: rng.choice(("1", "0", "-1", "1,3", "2,2,9", "", "a", "64",
                                            "1,,2"))})}
    seen = set()
    for case in range(240):
        rng = record_rng(0, "flag-fuzz", case)
        command = rng.choice(sorted(cases))
        base, flags = cases[command]
        argv = [*command, *base]
        if command[0] == "gen":
            argv += ["--out", str(tmp_path / "out")]
        for flag in rng.sample(sorted(flags), rng.randint(1, min(3, len(flags)))):
            argv += [flag] if flags[flag] is None else [flag, flags[flag](rng)]
        code, _, err = run(capsys, *argv)
        assert code in (0, 2, 3, 4, 5, 6), (argv, err)
        assert "Traceback" not in err
        assert code == 0 or err.startswith(("usage:", "error:")), (argv, err)
        seen.add(code)
    assert {0, 2, 4, 5} <= seen


def test_bad_flags_exit_code(capsys):
    assert run(capsys, "gen", "successor", "--range", "10")[0] == 2
    assert run(capsys, "nonsense")[0] == 2


def test_help_exits_zero(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "gen", "--help")[0] == 0


def test_python_dash_m_runs_the_cli():
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-m", "structrec", "--help"], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: structrec")


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
