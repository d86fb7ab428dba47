"""CLI: subcommand behavior, file outputs, and exit codes."""

import argparse
import ast
import dataclasses
import gc
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from structrec.cli import main
from structrec.datasets import _TRACE_TASKS, _TRAVERSALS, record_rng
from structrec.reduction import _style_of


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


def test_reduce_with_a_stray_bracket_is_exit_4(capsys):
    code, out, err = run(capsys, "reduce", "s", "X1 [ 01")
    assert (code, out) == (4, "")
    assert "'['" in err


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


@pytest.mark.parametrize("flags", [("--k", "3", "--fuel", "1"), ("--fuel", "1", "--k", "3")])
def test_reduce_k_takes_no_fuel(capsys, flags):
    code, out, err = run(capsys, "reduce", "s", "X1 X1 01", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and err.endswith("error: --k 3 does not read --fuel\n")
    # each alone runs: three levels reach the normal form, one does not
    assert run(capsys, "reduce", "s", "X1 X1 01", "--k", "3") == (0, "X0 X0 X0 01\n", "")
    code, _, err = run(capsys, "reduce", "s", "X1 X1 01", "--fuel", "1")
    assert code == 5 and "no normal form within 1 levels" in err


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
    # a trace is written as it is cut, yet past the fuel it writes nothing
    assert run(capsys, "reduce", program, text, "--trace", "--fuel", str(taken - 1))[:2] == (5, "")
    code, out, _ = run(capsys, "reduce", program, text, "--trace", "--fuel", str(taken))
    assert code == 0
    assert out == run(capsys, "reduce", program, text, "--trace")[1]


@pytest.mark.parametrize("trace", [(), ("--trace",)])
def test_reduce_past_the_fuel_raises_without_stepping(capsys, monkeypatch, trace):
    # a depth-2,000 left spine takes 2,001 levels: big-step completes the
    # run and raises itself, so the stepping engine never starts
    from structrec import reduction
    from structrec.terms import branch, leaf, tree_serialize

    def no_engine(*args):
        raise AssertionError("levels() ran")

    tree = leaf()
    for i in range(2000):
        tree = branch("abc"[i % 3], tree, leaf())
    text = " ".join(tree_serialize(tree))
    monkeypatch.setattr(reduction, "_Engine", no_engine)
    code, out, err = run(capsys, "reduce", "inorder", text, *trace, "--fuel", "2000")
    assert (code, out) == (5, "")
    assert err == "error: no normal form within 2000 levels\n"


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


def test_shortcut_diff_that_cannot_write_its_out_file_prints_nothing(capsys, tmp_path):
    code, out, err = run(capsys, "shortcut", "natural", "--diff", "--range", "1:1",
                         "--out", str(tmp_path / "missing" / "diff.jsonl"))
    assert (code, out) == (3, "")
    assert err.startswith("error: ")


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


@pytest.mark.parametrize("kind", ["inorder", "preorder"])
def test_gen_traversal_full_targets_run_no_engine(capsys, monkeypatch, tmp_path, kind):
    # a full target is one walk of its tree: neither big-step nor the
    # stepping engine runs, and the files are the ones they would give
    from structrec import datasets, reduction

    def no_engine(*args, **kwargs):
        raise AssertionError("an engine ran")

    argv = ["gen", "traversal", "--kind", kind, "--depths", "2:7", "--train", "300",
            "--test", "60", "--seed", "5", "--out"]
    assert run(capsys, *argv, str(tmp_path / "engine"))[0] == 0
    for module, name in [(reduction, "_big_step"), (reduction, "levels"), (datasets, "levels")]:
        monkeypatch.setattr(module, name, no_engine)
    assert run(capsys, *argv, str(tmp_path / "walk"))[0] == 0
    for split in ("train", "test"):
        name = f"{kind}_full_{split}.jsonl"
        assert (tmp_path / "walk" / name).read_bytes() == (tmp_path / "engine" / name).read_bytes()


@pytest.mark.parametrize("command", [["trees"], ["traversal"], ["traces", "--task", "inorder"]])
@pytest.mark.parametrize("alphabet", ["(", "ab)", "[", "a]", "a b", "\tb", "c\n"])
def test_gen_rejects_an_alphabet_that_holds_a_token_delimiter(capsys, tmp_path, command,
                                                             alphabet):
    # tokenize splits node values on whitespace, parens and brackets, so a
    # tree holding one could not be read back
    code, out, err = run(capsys, "gen", *command, "--alphabet", alphabet,
                         "--out", str(tmp_path))
    assert (code, out) == (4, "")
    assert err == (f"error: alphabet must hold no whitespace and none of ()[], "
                   f"got {alphabet!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_gen_trees_counts_deep_requests_only_as_far_as_they_need(capsys, tmp_path):
    # each depth squares the number of trees, so an exact count of depth
    # 1,000 would never finish
    for argv, expected, err in [
        (("--depths", "1000:1000", "--train", "0", "--test", "0"), 0, ""),
        (("--alphabet", "a", "--depths", "3:40", "--test", "30000"), 4,
         "error: not enough distinct depth-3 trees for the test split\n"),
        (("--alphabet", "a", "--depths", "1:3", "--train", "30", "--test", "2"), 4,
         "error: requested 32 trees but only 25 distinct ones exist in depths 1..3\n"),
    ]:
        start = time.perf_counter()
        code, _, got = run(capsys, "gen", "trees", *argv, "--out", str(tmp_path))
        assert time.perf_counter() - start < 1
        assert (code, got) == (expected, err)
    for name in ("trees_train", "trees_test"):
        assert (tmp_path / f"{name}.jsonl").read_text() == ""


# a value token of a normal state, and another value token of its task
_OTHER_VALUE = {"X0": "X1", "X1": "X0", "01": "X1", "a": "b", "b": "c", "c": "a"}


@pytest.mark.parametrize("task", list(_TRACE_TASKS))
def test_gen_traces_validate_cleanly(capsys, tmp_path, task):
    size = ["--count", "12", "--depths", "2:3"] if task in _TRAVERSALS else ["--range", "1:30"]
    code, _, _ = run(capsys, "gen", "traces", "--task", task, *size, "--out", str(tmp_path))
    assert code == 0
    path = tmp_path / f"traces_{task}.jsonl"
    records = [json.loads(line) for line in path.read_text().splitlines()]
    n = len(records)
    assert n == (12 if task in _TRAVERSALS else 30)
    code, out, _ = run(capsys, "eval", "--validate-traces", "--traces", str(path))
    assert (code, out) == (0, f"traces {n}, valid {n}, invalid 0\n")

    # the first token of each trace's normal form, a value token, changed
    separator = _style_of(_TRACE_TASKS[task].program).separator
    for record in records:
        *states, last = record["trace"].split(separator)
        first, *rest = last.split(" ")
        record["trace"] = separator.join([*states, " ".join([_OTHER_VALUE[first], *rest])])
    damaged = tmp_path / "damaged.jsonl"
    damaged.write_text("".join(json.dumps(record) + "\n" for record in records))
    code, out, _ = run(capsys, "eval", "--validate-traces", "--traces", str(damaged))
    assert code == 0
    assert out.startswith(f"traces {n}, valid 0, invalid {n}\n")


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
    assert code == 2
    assert f"error: argument --breakdown: unknown breakdown key: {key!r}" in err
    assert "aliases: bit_length, tree_depth" in err
    assert out == ""
    # the key is a usage error before either file is opened
    missing = str(tmp_path / "missing.jsonl")
    assert run(capsys, "eval", "--gold", missing, "--pred", missing, "--breakdown", key)[0] == 2


def test_a_gold_file_that_still_holds_meta_weight_scores_the_same(capsys, tmp_path):
    from structrec.datasets import ExampleRecord

    gold, pred = _gold_and_pred(capsys, tmp_path)
    # each line as gen wrote it while records carried a weight
    old = [json.dumps({**row, "meta": {**row["meta"], "weight": 1}}, sort_keys=True,
                      separators=(",", ":")) for row in map(json.loads, gold)]
    assert '"pad_len":0,"value":1,"weight":1}' in old[0]
    for line, old_line in zip(gold, old):
        assert (ExampleRecord.from_dict(json.loads(old_line))
                == ExampleRecord.from_dict(json.loads(line)))
    for fmt in ("text", "json"):
        flags = ("--format", fmt, "--breakdown", "edge_group", "--breakdown", "bits")
        new_run, old_run = (_eval_lines(capsys, tmp_path, lines, pred, *flags)
                            for lines in (gold, old))
        assert new_run == old_run and new_run[0] == 0
    code, out, err = _eval_lines(capsys, tmp_path, old, pred, "--breakdown", "weight")
    assert (code, out) == (2, "")
    assert "error: argument --breakdown: unknown breakdown key: 'weight' " \
           "(meta fields: value, bits, depth, edge_group, pad_len;" in err


@pytest.mark.parametrize("damage, expected", [(None, 0), ("missing", 6), ("malformed", 4)])
@pytest.mark.parametrize("enabled, frozen", [(True, False), (False, True)])
def test_eval_leaves_the_collector_as_it_found_it(capsys, tmp_path, damage, expected,
                                                 enabled, frozen):
    gold, pred = _gold_and_pred(capsys, tmp_path)
    if damage == "missing":
        pred.pop()
    elif damage == "malformed":
        pred[3] = pred[3][:-2]
    was_enabled, was_frozen = gc.isenabled(), gc.get_freeze_count()
    try:
        if not enabled:
            gc.disable()
        if frozen:
            gc.freeze()
        before = gc.get_freeze_count()
        code, _, _ = _eval_lines(capsys, tmp_path, gold, pred)
        after = gc.get_freeze_count()
        assert (code, gc.isenabled()) == (expected, enabled)
        # frozen objects that the run frees leave the count; none may join or thaw
        assert after == before if not before else 0 < after <= before
    finally:
        if not was_frozen:
            gc.unfreeze()
        if was_enabled:
            gc.enable()


def test_gen_starts_no_collection_while_it_builds_and_writes(capsys, tmp_path, monkeypatch):
    # a count, not a time: 5,000 records leave far more tracked containers
    # than a young-generation collection waits for
    from structrec import cli

    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    def counted(args, command=cli.cmd_gen_successor):
        gc.callbacks.append(count)
        try:
            return command(args)
        finally:
            gc.callbacks.remove(count)

    monkeypatch.setattr(cli, "cmd_gen_successor", counted)  # the parser's own build is not counted
    assert gc.isenabled()
    code, _, _ = run(capsys, "gen", "successor", "--range", "1:5000", "--out", str(tmp_path))
    assert (code, started, gc.isenabled()) == (0, [], True)
    assert len((tmp_path / "successor_reverse.jsonl").read_text().splitlines()) == 5000


def test_eval_scores_with_the_collector_paused(capsys, tmp_path, monkeypatch):
    from structrec import evaluation

    gold, pred = _gold_and_pred(capsys, tmp_path)
    enabled = []

    def scored(*args, score=evaluation.compute_metrics, **kwargs):
        enabled.append(gc.isenabled())
        return score(*args, **kwargs)

    monkeypatch.setattr(evaluation, "compute_metrics", scored)
    assert gc.isenabled()
    code, _, _ = _eval_lines(capsys, tmp_path, gold, pred)
    assert (code, enabled, gc.isenabled()) == (0, [False], True)


@pytest.mark.parametrize("argv, expected", [
    (["gen", "random", "--count", "5"], 0),
    (["gen", "trees", "--alphabet", ""], 4),
])
@pytest.mark.parametrize("enabled", [True, False])
def test_gen_leaves_the_collector_as_it_found_it(capsys, tmp_path, argv, expected, enabled):
    try:
        if not enabled:
            gc.disable()
        code, _, _ = run(capsys, *argv, "--out", str(tmp_path))
        assert (code, gc.isenabled()) == (expected, enabled)
    finally:
        gc.enable()


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


def test_validate_traces_rejects_an_unknown_task_before_reading(capsys, tmp_path):
    code, out, err = run(capsys, "eval", "--validate-traces", "--task", "bogus",
                         "--traces", str(tmp_path / "missing.jsonl"))
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and "argument --task: invalid choice: 'bogus'" in err


def test_a_trace_whose_input_does_not_fit_the_task_names_its_file_and_record(capsys, tmp_path):
    assert run(capsys, "gen", "traces", "--range", "1:4", "--out", str(tmp_path))[0] == 0
    path = tmp_path / "traces_successor.jsonl"
    code, out, err = run(capsys, "eval", "--validate-traces", "--task", "inorder",
                         "--traces", str(path))
    assert (code, out) == (4, "")
    assert err == (f"error: {path}: record trace-succ-1: "
                   "unexpected end of tree tokens, wanted LEAF or a subtree\n")


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
    ("gen", "traversal", "--max-pad", "-3"),
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
SEED_FLAGS = {"--seed": lambda rng: _int_flag(rng, -5, 9)}
PAD_FLAGS = {"--max-pad": lambda rng: _int_flag(rng, 0, 4)}
GEN_FLAGS = {
    **SEED_FLAGS,
    **PAD_FLAGS,
    "--oversample-g1": lambda rng: _int_flag(rng, 1, 4),
    "--oversample-g2": lambda rng: _int_flag(rng, 1, 4),
}
TREE_FLAGS = {
    "--depths": lambda rng: _range_flag(rng, (-1, 0, 1, 2, 3, 5), 4),
    "--train": lambda rng: _int_flag(rng, 0, 50),
    "--test": lambda rng: _int_flag(rng, 0, 50),
}
# each subcommand with small sizes to start from, and its numeric and range
# flags, every value small enough that a run takes milliseconds
FLAG_FUZZ = {
    # a value range and --edge-cases apart, as --edge-cases reads neither
    # --range nor an oversample flag
    ("gen", "successor"): (["--range", "1:8"], {
        "--range": lambda rng: _range_flag(rng, (-1, 0, 1, 5, BIG - 40, BIG, BIG + 1), 63),
        **GEN_FLAGS}),
    ("gen", "successor", "--edge-cases", "2:4"): ([], {
        "--edge-cases": lambda rng: _range_flag(rng, (-1, 0, 1, 2, 30, 64), 8),
        **SEED_FLAGS, **PAD_FLAGS}),
    ("gen", "random"): (["--count", "5", "--bits", "4:8"], {
        "--count": lambda rng: _int_flag(rng, 1, 50),
        "--bits": lambda rng: _range_flag(rng, (-1, 0, 1, 2, 30, 62), 4),
        **GEN_FLAGS}),
    ("gen", "single-step"): (["--range", "1:8"], {
        "--range": lambda rng: _range_flag(rng, (-1, 0, 1, 5, BIG - 40, BIG), 63),
        **GEN_FLAGS}),
    ("gen", "trees"): (["--depths", "2:3", "--train", "5", "--test", "2"],
                       {**TREE_FLAGS, **SEED_FLAGS}),
    ("gen", "traversal"): (["--depths", "2:3", "--train", "5", "--test", "2"], {
        "--k": lambda rng: _int_flag(rng, 1, 6), **TREE_FLAGS, **SEED_FLAGS, **PAD_FLAGS}),
    # each task of gen traces with only the flags it reads, so every
    # fuzzed value reaches the command
    ("gen", "traces", "--task", "successor"): (["--range", "1:8"], {
        "--range": lambda rng: _range_flag(rng, (-1, 0, 1, 5, BIG - 40, BIG), 63),
        **SEED_FLAGS}),
    ("gen", "traces"): (["--task", "inorder", "--count", "3"], {
        "--task": lambda rng: rng.choice(("inorder", "preorder")),
        "--count": lambda rng: _int_flag(rng, 1, 50),
        "--depths": TREE_FLAGS["--depths"],
        **SEED_FLAGS}),
    # --k and --fuel apart, as reduce rejects them together, each on a
    # paren and a traversal program
    ("reduce", "s", "X1 X0 X1 01"): ([], {
        "--fuel": lambda rng: _int_flag(rng, 1, 6),
        "--trace": None}),
    ("reduce", "add", "S S I", "S I"): ([], {
        "--k": lambda rng: _int_flag(rng, 0, 6)}),
    ("reduce", "preorder", "a ( b LEAF LEAF ) LEAF"): ([], {
        "--fuel": lambda rng: _int_flag(rng, 1, 6)}),
    ("reduce", "inorder", "a ( b LEAF LEAF ) ( c LEAF LEAF )"): ([], {
        "--k": lambda rng: _int_flag(rng, 0, 6)}),
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


PUBLIC_NAMES = """
    ARROW AsmMachine BIN_POS BudgetExhaustedError CHAR_TREE CORRECTED Call Concat Ctor
    DEFAULT_SEED DatasetSpec EvalError ExampleRecord FAITHFUL FuelExhaustedError GenerationError
    GuardedRule IdMismatchError ListLit MalformedSequenceError NATURAL PAREN PEANO REVERSE RasmSpec
    RecordMeta ReductionError RemapError RenderError StructrecError Term TraceRecord UNDEF
    UpdateClashError asm_log asm_run bin_encode bin_value bin_x1_run
    builtin_programs compute_metrics delinearize diff_against_oracle edge_group emulate_natural
    emulate_reverse failure_signature gen_edge_records gen_single_step gen_successor_random
    gen_successor_range gen_traces gen_traversal gen_trees linearize machine_output
    natural_shortcut_machine rasm_run read_jsonl read_predictions read_traces reduce
    render_report render_state_paren render_state_unroll render_trace reverse_shortcut_machine
    successor_machine successor_rasm tokenize tree_depth tree_parse tree_serialize validate_trace
    write_jsonl write_manifest
""".split()


def test_the_package_exports_are_pinned():
    import types

    import structrec

    exported = sorted(name for name, value in vars(structrec).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert exported == PUBLIC_NAMES
    assert len(exported) == 76


def test_the_readme_api_list_names_exactly_the_exports():
    import re
    import types

    import structrec

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Python API\n", 1)[1].split("\n### ", 1)[0]
    bullets = section[section.index("\n- "):].split("\n\n", 1)[0]
    listed = re.findall(r"`(\w+)`", bullets)
    exported = sorted(name for name, value in vars(structrec).items()
                      if not name.startswith("_") and not isinstance(value, types.ModuleType))
    assert sorted(listed) == exported and len(set(listed)) == len(listed)
    count = re.search(r"`import structrec` gives (\d+) names", section)
    assert count and int(count.group(1)) == len(exported)


# evaluation imports step_single without calling it: the benchmark's
# self-test (bench/selftest.py) reads it there, until the tracer no longer
# needs it (ROADMAP item 1)
UNUSED_IMPORTS_KEPT = {("evaluation", "step_single")}


def test_no_module_imports_a_name_it_does_not_use():
    import ast

    import structrec

    unused = set()
    for path in sorted(Path(structrec.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # the package's names, imported to be exported
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names}
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.stem, name) for name in imported - used}
    assert unused == UNUSED_IMPORTS_KEPT


def test_every_name_the_benchmark_traces_exists():
    # read, not imported: each ("structrec.<module>", "<name>", ...) row of
    # bench/workloads.py wraps that attribute, so a deleted one breaks --trace
    import importlib

    source = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    rows = [[elt.value for elt in node.elts[:2]]
            for node in ast.walk(ast.parse(source.read_text(encoding="utf-8")))
            if isinstance(node, ast.Tuple) and len(node.elts) >= 2
            and all(isinstance(elt, ast.Constant) and isinstance(elt.value, str)
                    for elt in node.elts[:2])
            and node.elts[0].value.startswith("structrec.")]
    missing = [(module, name) for module, name in rows
               if not hasattr(importlib.import_module(module), name)]
    assert len(rows) == 43 and missing == []


# each module imports only modules before it, so the modules form a DAG
MODULE_ORDER = ("errors", "terms", "reduction", "asm", "datasets", "evaluation", "shortcuts",
                "cli")

# the package modules that each module imports, so that a new edge is a
# deliberate edit here
MODULE_IMPORTS = {
    "errors": (),
    "terms": ("errors",),
    "reduction": ("errors", "terms"),
    "asm": ("errors", "terms"),
    "datasets": ("errors", "reduction", "terms"),
    "evaluation": ("datasets", "errors", "reduction", "terms"),
    "shortcuts": ("asm", "evaluation", "terms"),
    "cli": ("asm", "datasets", "errors", "evaluation", "reduction", "shortcuts", "terms"),
}


def _package_imports():
    """(module, imported package module, whether the import is in a function)
    for each relative import of each src module."""
    import structrec

    for path in sorted(Path(structrec.__file__).parent.glob("*.py")):
        if path.stem in ("__init__", "__main__"):  # the package's surface, after every module
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_body = {id(node) for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ImportFrom) and node.level):
                continue
            names = [node.module] if node.module else [alias.name for alias in node.names]
            for name in names:
                yield path.stem, name, id(node) in in_body


def test_the_modules_import_each_other_in_one_order():
    found = set()
    for module, name, in_function in _package_imports():
        if MODULE_ORDER.index(name) >= MODULE_ORDER.index(module):
            found.add((module, name, "not earlier"))
        if in_function:
            found.add((module, name, "in a function"))
    assert found == set()


def test_the_module_import_edges_are_pinned():
    edges = {(module, name) for module, name, _ in _package_imports()}
    assert edges == {(module, name) for module, names in MODULE_IMPORTS.items()
                     for name in names}


# public top-level functions and classes per module, and the parameters of
# those functions, so that a new public name or knob is a deliberate edit here
PUBLIC_DEFS = {"asm": 13, "cli": 12, "datasets": 23, "errors": 11, "evaluation": 13,
               "reduction": 22, "shortcuts": 8, "terms": 21}
PUBLIC_PARAMS = {"asm": 12, "cli": 11, "datasets": 28, "errors": 0, "evaluation": 20,
                 "reduction": 32, "shortcuts": 11, "terms": 24}


def _public_defs():
    """{module: its public top-level function and class nodes} for each src
    module."""
    import structrec

    found = {}
    for path in sorted(Path(structrec.__file__).parent.glob("*.py")):
        if path.stem in ("__init__", "__main__"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found[path.stem] = [
            node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]
    return found


def test_the_public_defs_of_each_module_are_pinned():
    found = {module: len(nodes) for module, nodes in _public_defs().items()}
    assert found == PUBLIC_DEFS
    assert sum(found.values()) == 123


def test_the_parameters_of_each_modules_public_functions_are_pinned():
    found = {module: sum(len(node.args.posonlyargs + node.args.args + node.args.kwonlyargs)
                         + (node.args.vararg is not None) + (node.args.kwarg is not None)
                         for node in nodes if not isinstance(node, ast.ClassDef))
             for module, nodes in _public_defs().items()}
    assert found == PUBLIC_PARAMS
    assert sum(found.values()) == 138


# the lines of each src module, and of all of them, as ceilings, so that
# growth is a deliberate edit here, as a new public name is
SRC_LINES = {"__init__": 95, "__main__": 3, "asm": 440, "cli": 559, "datasets": 747,
             "errors": 45, "evaluation": 419, "reduction": 1041, "shortcuts": 220,
             "terms": 553}


def test_the_line_count_of_each_module_is_capped():
    import structrec

    found = {path.stem: len(path.read_text(encoding="utf-8").splitlines())
             for path in Path(structrec.__file__).parent.glob("*.py")}
    assert found.keys() == SRC_LINES.keys()
    assert {m: n for m, n in found.items() if n > SRC_LINES[m]} == {}
    assert sum(found.values()) <= sum(SRC_LINES.values()) == 4122


# the modules that dispatch on trace tasks, and in each, by the top-level
# def or assignment they sit in: every literal that is a trace task's name,
# and every comparison with, or pick between, the trace styles PAREN and
# ARROW.  Tasks and styles are read from the task table (datasets) and the
# style entries (reduction), so a new dispatch site is a deliberate edit here
DISPATCH_MODULES = ("cli", "datasets", "evaluation")
TASK_NAME_LITERALS = {
    ("cli", "build_parser"): 3,  # gen successor, and the asm machine successor twice
    ("cli", "cmd_asm"): 1,  # the asm machine successor
    ("datasets", "SUCCESSOR"): 1,
    ("datasets", "DatasetSpec"): 1,  # the default kind
    ("datasets", "_TRACE_TASKS"): 6,  # the table: each traversal's name, program and sibling
    ("datasets", "_walk"): 1,
}
STYLE_BRANCHES: dict = {}


def _dispatch_sites():
    """(task-name literals, style comparisons and picks), each a
    {(module, top-level name): count}."""
    import structrec

    tasks = set(_TRACE_TASKS)
    literals, branches = {}, {}
    for module in DISPATCH_MODULES:
        path = Path(structrec.__file__).parent / f"{module}.py"
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                scope = top.name
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                scope = ast.unparse(top.targets[0] if isinstance(top, ast.Assign) else top.target)
            else:
                scope = "<module>"
            for node in ast.walk(top):
                if isinstance(node, ast.Constant) and isinstance(node.value, str) \
                        and node.value in tasks:
                    literals[module, scope] = literals.get((module, scope), 0) + 1
                operands = ([node.left, *node.comparators] if isinstance(node, ast.Compare)
                            else [node.body, node.orelse] if isinstance(node, ast.IfExp) else [])
                if any(isinstance(op, ast.Name) and op.id in ("PAREN", "ARROW") for op in operands):
                    branches[module, scope] = branches.get((module, scope), 0) + 1
    return literals, branches


def test_the_trace_task_and_style_dispatch_sites_are_pinned():
    literals, branches = _dispatch_sites()
    assert literals == TASK_NAME_LITERALS
    assert branches == STYLE_BRANCHES


def test_the_task_choices_are_the_trace_task_table_and_the_builtin_programs():
    from structrec.cli import build_parser
    from structrec.reduction import builtin_programs

    def choices(parser, dest) -> list:
        return list(next(action.choices for action in parser._actions if action.dest == dest))

    commands = _subcommands(build_parser())
    gen = _subcommands(commands["gen"])
    assert list(_TRACE_TASKS) == ["successor", "inorder", "preorder"]
    assert choices(gen["traces"], "task") == choices(commands["eval"], "task") == list(_TRACE_TASKS)
    assert choices(gen["traversal"], "kind") == list(_TRAVERSALS) == ["inorder", "preorder"]
    assert choices(commands["reduce"], "program") == list(builtin_programs())


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


def test_gen_remap_that_names_the_pad_token_respells_the_pads(capsys, tmp_path):
    code, _, _ = run(capsys, "gen", "successor", "--range", "1:6", "--out", str(tmp_path),
                     "--max-pad", "2", "--remap", '{"X0":"a","X1":"b","01":"c","PAD":"_"}')
    assert code == 0
    rows = [json.loads(line)
            for line in (tmp_path / "successor_reverse.jsonl").read_text().splitlines()]
    assert any(row["meta"]["pad_len"] for row in rows)
    for row in rows:
        pad = row["meta"]["pad_len"]
        assert "PAD" not in row["input"] + row["target"]
        assert row["input"][:pad] == ["_"] * pad == row["target"][:pad]
    # a value token spelled as the pad token still collides with it
    code, _, err = run(capsys, "gen", "successor", "--range", "1:6", "--out", str(tmp_path),
                       "--max-pad", "2", "--remap", '{"X0":"PAD","X1":"b","01":"c"}')
    assert code == 4 and "remap is not injective" in err


def test_gen_remap_to_a_spelling_text_cannot_give_back_is_exit_4(capsys, tmp_path):
    # eval tokenizes text predictions, so "a b" and "" could never match a target
    code, out, err = run(capsys, "gen", "successor", "--range", "1:3", "--out", str(tmp_path),
                         "--remap", '{"X0":"a b","X1":"c","01":""}')
    assert code == 4 and "remap spelling 'a b' does not read back as itself" in err
    assert out == "" and not list(tmp_path.iterdir())


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


# each gen command that writes ExampleRecords, and the files it writes
RECORD_FILES = [
    (["successor", "--range", "1:40", "--max-pad", "2", "--oversample-g1", "3"],
     ["successor_reverse"]),
    (["successor", "--edge-cases", "2:9", "--max-pad", "2"],
     ["edge_group1_reverse", "edge_group2_reverse"]),
    (["random", "--count", "20", "--bits", "2:12"], ["successor_random_reverse"]),
    (["single-step", "--range", "1:16"], ["single_step"]),
    (["traversal", "--depths", "2:4", "--train", "8", "--test", "4"],
     ["inorder_full_train", "inorder_full_test"]),
    (["traversal", "--kind", "preorder", "--k", "2", "--depths", "2:4", "--train", "8",
      "--test", "4", "--max-pad", "1"], ["preorder_k2_train", "preorder_k2_test"]),
]


@pytest.mark.parametrize("argv, names", RECORD_FILES, ids=[
    "successor", "edge-cases", "random", "single-step", "traversal-full", "traversal-k"])
def test_gen_records_and_manifests_hold_only_the_fields_something_reads(capsys, tmp_path,
                                                                        argv, names):
    from structrec.datasets import DatasetSpec

    assert run(capsys, "gen", *argv, "--out", str(tmp_path))[0] == 0
    for name in names:
        rows = [json.loads(line) for line in (tmp_path / f"{name}.jsonl").read_text().splitlines()]
        assert rows
        for row in rows:
            assert {"edge_group", "pad_len"} <= row["meta"].keys() <= {
                "value", "bits", "depth", "edge_group", "pad_len"}
        manifest = json.loads((tmp_path / f"{name}.manifest.json").read_text())
        assert manifest["spec"].keys() == {f.name for f in dataclasses.fields(DatasetSpec)}


@pytest.mark.parametrize("command", ["successor", "random", "single-step"])
@pytest.mark.parametrize("flag", ["--weight-g1", "--weight-g2"])
def test_the_weight_flags_are_gone(capsys, tmp_path, command, flag):
    code, out, err = run(capsys, "gen", command, flag, "2", "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and f"unrecognized arguments: {flag} 2" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, unread", [
    (["--range", "1:3", "--oversample-g1", "4"], "--range, --oversample-g1"),
    (["--oversample-g2", "1"], "--oversample-g2"),
    (["--range", "1:131072"], "--range"),
])
def test_a_flag_edge_cases_does_not_read_is_a_usage_error(capsys, tmp_path, flags, unread):
    code, out, err = run(capsys, "gen", "successor", "--edge-cases", "2:5", *flags,
                         "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and err.endswith(
        f"error: --edge-cases 2:5 does not read {unread}\n")
    assert not any(tmp_path.iterdir())


def _subcommands(parser) -> dict:
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


POSTPROCESS = {"--max-pad", "--remap"}
EDGE_GROUPS = {"--oversample-g1", "--oversample-g2"}
SHARED = {"--seed", "--out"}
TREES = {"--depths", "--train", "--test", "--alphabet"}
GEN_TAKES = {
    "successor": {"--order", "--range", "--edge-cases", *SHARED, *POSTPROCESS, *EDGE_GROUPS},
    "random": {"--order", "--count", "--bits", *SHARED, *POSTPROCESS, *EDGE_GROUPS},
    "single-step": {"--range", *SHARED, *POSTPROCESS, *EDGE_GROUPS},
    "trees": {*TREES, *SHARED},
    "traversal": {"--kind", "--k", *TREES, *SHARED, *POSTPROCESS},
    "traces": {"--task", "--range", "--count", "--depths", "--alphabet", *SHARED},
}


@pytest.mark.parametrize("task, flags, unread", [
    ("successor", ["--range", "1:5", "--count", "7"], "--count"),
    ("successor", ["--depths", "1:3", "--alphabet", "xy"], "--depths, --alphabet"),
    ("inorder", ["--range", "1:5"], "--range"),
    ("preorder", ["--count", "7", "--range", "1:5"], "--range"),
])
def test_a_flag_the_trace_task_does_not_read_is_a_usage_error(capsys, tmp_path, task, flags,
                                                              unread):
    code, out, err = run(capsys, "gen", "traces", "--task", task, *flags, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and err.endswith(f"error: --task {task} does not read {unread}\n")
    assert not any(tmp_path.iterdir())


def test_each_gen_subcommand_takes_only_the_flags_it_reads():
    from structrec.cli import build_parser

    gen = _subcommands(_subcommands(build_parser())["gen"])
    takes = {name: {flag for action in sub._actions for flag in action.option_strings}
             - {"-h", "--help"} for name, sub in gen.items()}
    assert takes == GEN_TAKES
    assert sum(map(len, takes.values())) == 48


@pytest.mark.parametrize("command, flag", sorted(
    (command, flag) for command, takes in GEN_TAKES.items()
    for flag in (POSTPROCESS | EDGE_GROUPS) - takes))
def test_a_flag_a_gen_subcommand_would_ignore_is_a_usage_error(capsys, tmp_path, command, flag):
    value = '{"X0": "a"}' if flag == "--remap" else "3"
    code, out, err = run(capsys, "gen", command, flag, value, "--out", str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("usage:") and f"unrecognized arguments: {flag} {value}" in err
    assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# the flags a mode reads, from each parser's own mode table


def _mode_parsers() -> dict:
    """{argv prefix: parser} for each parser of the CLI that has a mode table."""
    from structrec.cli import build_parser

    found, todo = {}, [((), build_parser())]
    while todo:
        prefix, parser = todo.pop()
        if parser.mode_flags:
            found[prefix] = parser
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                todo += [(prefix + (name,), sub) for name, sub in action.choices.items()]
    return found


MODE_PARSERS = _mode_parsers()
# argv that runs each mode cheaply, after the parser's prefix; OUT is a path
# none of them writes to until it runs, GOLD, PRED and TRACES are input files
MODE_RUNS = {
    ("gen", "successor"): [["--range", "1:64", "--out", "OUT"],
                           ["--edge-cases", "2:5", "--out", "OUT"]],
    ("gen", "traces"): [["--task", task, "--out", "OUT"]
                        for task in ("successor", "inorder", "preorder")],
    ("reduce",): [["s", "X1 01"], ["s", "X1 01", "--k", "1"]],
    ("shortcut",): [["natural", "--diff", "--out", "OUT"], ["reverse", "--input", "X1 01"]],
    ("asm",): [[machine, "--input", "01"] for machine in
               ("successor", "successor-rasm", "shortcut-natural", "shortcut-reverse")],
    ("eval",): [["--gold", "GOLD", "--pred", "PRED", "--out", "OUT"],
                ["--validate-traces", "--traces", "TRACES", "--out", "OUT"]],
}
# a value for each flag of a mode table that takes one
MODE_FLAG_VALUES = {"--range": "1:3", "--oversample-g1": "2", "--oversample-g2": "2",
                    "--count": "3", "--depths": "1:2", "--alphabet": "xy", "--fuel": "9",
                    "--out": "OUT", "--mode": "corrected", "--gold": "GOLD", "--pred": "PRED",
                    "--breakdown": "bits", "--hit-ks": "1,2", "--traces": "TRACES",
                    "--task": "successor"}
# 131,072 records: leaving --range out is compared by namespace only
SLOW = {("gen", "successor", "--range")}


def _flags(parser) -> dict:
    return {action.dest: action for action in parser._actions}


def _mode_cases(reads: bool):
    """(prefix, example, flag) for each mode example and each flag of the
    parser's table that the example's mode reads, or does not."""
    for prefix, parser in MODE_PARSERS.items():
        actions = _flags(parser)
        for example in MODE_RUNS.get(prefix, []):
            mode = getattr(parser.parse_args(example), parser.mode_dest)
            for dest, (modes, _) in parser.mode_flags.items():
                if (mode in modes) == reads:
                    flag = actions[dest].option_strings[0]
                    yield pytest.param(prefix, example, flag,
                                       id=" ".join([*prefix, *example, "/", flag]))


def _mode_paths(capsys, tmp_path) -> dict:
    """The placeholders of MODE_RUNS, with the input files written."""
    inputs = tmp_path / "in"
    assert run(capsys, "gen", "successor", "--range", "1:8", "--out", str(inputs))[0] == 0
    assert run(capsys, "gen", "traces", "--range", "1:4", "--out", str(inputs))[0] == 0
    gold = inputs / "successor_reverse.jsonl"
    pred = inputs / "pred.jsonl"
    pred.write_text("".join(json.dumps({"id": json.loads(line)["id"], "candidates": []}) + "\n"
                            for line in gold.read_text().splitlines()))
    return {"OUT": str(tmp_path / "out"), "GOLD": str(gold), "PRED": str(pred),
            "TRACES": str(inputs / "traces_successor.jsonl")}


def _mode_argv(paths, prefix, *args) -> list:
    return [*prefix, *(paths.get(arg, arg) for arg in args)]


def _run_and_collect(capsys, out: Path, argv):
    """The exit code, stdout and every byte written under out, which is then removed."""
    code, stdout, _ = run(capsys, *argv)
    files = {}
    if out.is_file():
        files[out.name] = out.read_bytes()
        out.unlink()
    elif out.is_dir():
        files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
        for path in out.iterdir():
            path.unlink()
        out.rmdir()
    return code, stdout, files


def test_every_mode_table_has_runs_for_each_mode_and_values_for_each_flag():
    assert MODE_PARSERS.keys() == MODE_RUNS.keys()
    for prefix, parser in MODE_PARSERS.items():
        actions = _flags(parser)
        modes = {getattr(parser.parse_args(example), parser.mode_dest)
                 for example in MODE_RUNS[prefix]}
        choices = actions[parser.mode_dest].choices
        # each named mode runs, or an option's absent value and a given one
        assert modes == set(choices) if choices else len(modes) == 2
        for dest in parser.mode_flags:
            action = actions[dest]
            assert action.nargs == 0 or action.option_strings[0] in MODE_FLAG_VALUES


@pytest.mark.parametrize("prefix, example", [
    pytest.param(prefix, example, id=" ".join([*prefix, *example]))
    for prefix, examples in MODE_RUNS.items() for example in examples])
def test_each_mode_runs(capsys, tmp_path, prefix, example):
    paths = _mode_paths(capsys, tmp_path)
    code, _, err = run(capsys, *_mode_argv(paths, prefix, *example))
    assert code == 0, err


@pytest.mark.parametrize("prefix, example, flag", _mode_cases(reads=False))
def test_a_flag_the_mode_does_not_read_is_a_usage_error(capsys, tmp_path, prefix, example,
                                                        flag):
    parser = MODE_PARSERS[prefix]
    paths = _mode_paths(capsys, tmp_path)
    given = [flag] if flag not in MODE_FLAG_VALUES else [flag, MODE_FLAG_VALUES[flag]]
    code, out, err = run(capsys, *_mode_argv(paths, prefix, *example, *given))
    assert (code, out) == (2, "")
    mode_action = _flags(parser)[parser.mode_dest]
    mode = (mode_action.option_strings[0] if mode_action.option_strings
            else getattr(parser.parse_args(example), parser.mode_dest))
    last = err.splitlines()[-1]
    assert err.startswith("usage:") and last.startswith(f"{parser.prog}: error: ")
    assert mode in last and last.endswith(f" does not read {flag}")
    assert not Path(paths["OUT"]).exists()


def _without(parser, example, flag) -> list:
    """The example with flag, and the value it takes, left out."""
    if flag not in example:
        return list(example)
    at = example.index(flag)
    return example[:at] + example[at + 1 + (parser._option_string_actions[flag].nargs != 0):]


@pytest.mark.parametrize("prefix, example, flag", _mode_cases(reads=True))
def test_a_flag_the_mode_reads_defaults_to_its_table_entry(capsys, tmp_path, prefix, example,
                                                           flag):
    from structrec.cli import REQUIRED, _flag_text

    parser = MODE_PARSERS[prefix]
    action = parser._option_string_actions[flag]
    default = parser.mode_flags[action.dest][1]
    paths = _mode_paths(capsys, tmp_path)
    base = _without(parser, example, flag)
    out = Path(paths["OUT"])
    if default is REQUIRED:  # leaving it out is a usage error
        code, stdout, err = run(capsys, *_mode_argv(paths, prefix, *base))
        assert (code, stdout) == (2, "")
        assert err.startswith("usage:") and err.endswith(f" needs {flag}\n")
        assert not out.exists()
        return
    assert getattr(parser.parse_args(_mode_argv(paths, (), *base)), action.dest) == default
    if default is None or default is False or default == ():
        return  # no value spells it
    text = ",".join(map(str, default)) if flag == "--hit-ks" else _flag_text(default)
    given = base + [flag, text]
    assert parser.parse_args(given) == parser.parse_args(base)
    if (*prefix, flag) not in SLOW:
        assert (_run_and_collect(capsys, out, _mode_argv(paths, prefix, *base))
                == _run_and_collect(capsys, out, _mode_argv(paths, prefix, *given)))
