"""Metrics, breakdowns, failure signatures, and the trace validator."""

import gc
import json
import operator
import random

import pytest

from structrec.cli import main
from structrec.errors import EvalError, IdMismatchError
from structrec.evaluation import (
    ILLEGAL_RULE,
    MALFORMED_STATE,
    MISSING_TERMINATION,
    PREMATURE_TERMINATION,
    RULE_ORDER_SWAP,
    TOKEN_MUTATION,
    TRACE_ERRORS,
    PredictionRecord,
    TraceValidationReport,
    _canonical,
    breakdown,
    compute_metrics,
    exact_match,
    failure_signature,
    hit_at_k,
    read_predictions,
    render_report,
    validate_trace,
)
from structrec.datasets import DatasetSpec, ExampleRecord, RecordMeta, gen_successor_range
from structrec.reduction import ARROW, PAREN, Call, render_trace
from structrec.terms import (
    TOKEN_ALIASES,
    _NEEDS_REGEX,
    bin_encode,
    branch,
    leaf,
    linearize,
    normalize_tokens,
    tokenize,
    tree_serialize,
)

CAT_TREE = branch("a", branch("c", leaf(), leaf()), branch("t", leaf(), leaf()))


def _gold(n_hi=20):
    return gen_successor_range(DatasetSpec(lo=1, hi=n_hi))


def _perfect(gold):
    return [PredictionRecord(id=r.id, candidates=[list(r.target)]) for r in gold]


# ---------------------------------------------------------------------------
# exact match and Hit@k


def test_exact_match_perfect():
    gold = _gold()
    assert exact_match(_perfect(gold), gold) == 1.0


def test_exact_match_counts_first_candidate_only():
    gold = _gold(4)
    preds = _perfect(gold)
    # right answer in second place does not count for exact match
    preds[0].candidates = [["01"], list(gold[0].target)]
    assert exact_match(preds, gold) == 0.75
    assert hit_at_k(preds, gold, 2) == 1.0


def test_hit_monotone_in_k():
    rng = random.Random(17)
    gold = _gold(60)
    preds = []
    for record in gold:
        candidates = [["X0"] * (i + 1) for i in range(5)]
        candidates.insert(rng.randrange(6), list(record.target))
        preds.append(PredictionRecord(id=record.id, candidates=candidates[:5]))
    h1, h3, h5 = (hit_at_k(preds, gold, k) for k in (1, 3, 5))
    assert h1 <= h3 <= h5
    assert exact_match(preds, gold) == h1


def test_empty_candidates_score_zero():
    gold = _gold(3)
    preds = [PredictionRecord(id=r.id, candidates=[]) for r in gold]
    assert exact_match(preds, gold) == 0.0
    assert hit_at_k(preds, gold, 5) == 0.0


@pytest.mark.parametrize("mutate", [
    lambda preds, gold: preds.pop(),                       # missing id
    lambda preds, gold: preds.append(preds[0]),            # duplicate id
    lambda preds, gold: preds.append(
        PredictionRecord(id="stranger", candidates=[])),   # extra id
])
def test_id_mismatches_raise(mutate):
    gold = _gold(5)
    preds = _perfect(gold)
    mutate(preds, gold)
    with pytest.raises(IdMismatchError):
        exact_match(preds, gold)


def _strangers(*names):
    return [PredictionRecord(id=name, candidates=[]) for name in names]


# each case: predictions, gold (indices into _gold(5) and _perfect of it), message
@pytest.mark.parametrize("pred_ix, extra, gold_ix, message", [
    ((0, 1, 2, 3, 4, 0), (), (0, 1, 2, 3, 4),
     "duplicate prediction id: succ-reverse-1"),
    ((0, 1, 2, 3, 4), (), (0, 1, 2, 1, 3),  # the first occurrence of 2 was matched
     "duplicate gold id: succ-reverse-2"),
    ((0, 2, 3, 4), (), (0, 1, 2, 1),        # the first occurrence of 2 has no prediction
     "no prediction for gold id: succ-reverse-2"),
    ((0, 1, 3, 4), (), (0, 1, 2, 3, 4),
     "no prediction for gold id: succ-reverse-3"),
    ((0, 1, 3, 4), (), (0, 1, 3, 4, 3, 2),  # the first fault in gold order wins
     "duplicate gold id: succ-reverse-4"),
    ((0, 1, 2, 3, 4), ("z", "b", "y", "a", "x", "c"), (0, 1, 2, 3, 4),
     "predictions for unknown ids: ['a', 'b', 'c', 'x', 'y']"),
    ((4, 3, 2, 1, 0), (), (0, 1, 2),
     "predictions for unknown ids: ['succ-reverse-4', 'succ-reverse-5']"),
    ((0, 1, 2, 2), ("a",), (0, 1),          # a duplicate prediction precedes all else
     "duplicate prediction id: succ-reverse-3"),
])
@pytest.mark.parametrize("wrap", [list, lambda items: (item for item in items)])
def test_id_mismatch_messages(pred_ix, extra, gold_ix, message, wrap):
    gold = _gold(5)
    preds = _perfect(gold)
    with pytest.raises(IdMismatchError) as info:
        compute_metrics(wrap([preds[i] for i in pred_ix] + _strangers(*extra)),
                        wrap([gold[i] for i in gold_ix]))
    assert type(info.value) is IdMismatchError
    assert str(info.value) == message


@pytest.mark.parametrize("pred_id", [7, "7"])
@pytest.mark.parametrize("gold_id", [7, "7"])
def test_ids_match_as_strings(pred_id, gold_id):
    gold = [ExampleRecord(gold_id, "successor", "reverse", ["X0", "01"], ["X1", "01"])]
    assert compute_metrics([PredictionRecord(pred_id, [["X1", "01"]])], gold).exact == 1.0
    with pytest.raises(IdMismatchError, match="^duplicate prediction id: 7$"):
        compute_metrics([PredictionRecord(pred_id, []), PredictionRecord("7", [])], gold)


def test_unknown_ids_of_mixed_types_are_reported():
    with pytest.raises(IdMismatchError) as info:
        compute_metrics(_strangers(7, "a", 10), [])
    assert str(info.value) == "predictions for unknown ids: ['10', '7', 'a']"


def test_generator_inputs_score_as_lists():
    gold = _gold(40)
    preds = _perfect(gold)[::-1]
    for i, pred in enumerate(preds[::3]):
        pred.candidates = [["X0"] * (i % 4 + 1), *pred.candidates]
    kwargs = dict(ks=(1, 2, 5), breakdown_keys=("bits", "edge_group"))
    assert compute_metrics((p for p in preds), (r for r in gold), **kwargs) == compute_metrics(
        preds, gold, **kwargs)


def test_read_predictions(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text(
        '{"id": "a", "candidates": [["X0", "01"]]}\n'
        '{"id": "b", "candidates": ["X1 01"]}\n'
    )
    records = read_predictions(path)
    assert records[0].candidates == [["X0", "01"]]
    assert records[1].candidates == ["X1 01"]  # canonical text stays text
    gold = [ExampleRecord(id=rid, task="successor", order="reverse", input=["01"], target=target)
            for rid, target in (("a", ["X0", "01"]), ("b", ["X1", "01"]))]
    tokenized = [PredictionRecord(id="a", candidates=[["X0", "01"]]),
                 PredictionRecord(id="b", candidates=[["X1", "01"]])]
    assert compute_metrics(records, gold) == compute_metrics(tokenized, gold)
    assert compute_metrics(records, gold).exact == 1.0


def test_read_predictions_rejects_missing_fields(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "a"}\n')
    with pytest.raises(EvalError):
        read_predictions(path)


@pytest.mark.parametrize("line", [
    '{"id": "a", "candidates": "X1 01"}',      # a string is not a ranked list
    '{"id": "a", "candidates": [5]}',
    '{"id": "a", "candidates": [["X1", 5]]}',
    '{"id": "a", "candidates": [{"X1": 1}]}',
    '["a", ["X1 01"]]',
])
def test_read_predictions_rejects_malformed_candidates(tmp_path, line):
    path = tmp_path / "p.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(EvalError, match=":1:"):
        read_predictions(path)


def test_read_predictions_interns_whitespace_split_candidates(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "a", "candidates": [["X1", "X0", "01"]]}\n'
                    '{"id": "b", "candidates": [" X0\\tX1\\u3000 01 "]}\n')
    first, second = (record.candidates[0] for record in read_predictions(path))
    assert second == ["X0", "X1", "01"]
    assert all(map(operator.is_, second, [first[1], first[0], first[2]]))


def test_read_predictions_names_the_physical_line_after_blank_lines(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "a", "candidates": ["X1 01"]}\n\n{"id": "b", "candidates": [5]}\n')
    with pytest.raises(EvalError, match=":3: candidates must be a list"):
        read_predictions(path)


def test_a_text_candidate_with_a_stray_bracket_matches_nothing(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "a", "candidates": ["X1 [ 01", "[X1 01"]}\n')
    records = read_predictions(path)
    assert records[0].candidates == [["X1", "[", "01"], ["[", "X1", "01"]]
    gold = [ExampleRecord(id="a", task="successor", order="reverse", input=["01"],
                          target=["X1", "01"])]
    assert compute_metrics(records, gold, ks=(1, 2)).hits == {1: 0.0, 2: 0.0}


@pytest.mark.parametrize("piece", _NEEDS_REGEX)
def test_text_holding_a_piece_tokenize_looks_for_is_not_canonical(piece):
    assert _canonical("X1 01")
    for text in (piece, f"X1 {piece} 01", f"X1{piece}", f"{piece}01", f"X1 01 {piece}"):
        assert not _canonical(text), text


# tokens a target or candidate is drawn from: aliases, parens and brackets
# alone and glued, a bar inside a token, and (targets only) an empty token
# and one that holds a space
_FUZZ_TOKENS = ["X0", "X1", "01", "XO", "REDUCE[", "UNROLL[", "]", "(", ")", "X1(", ")X0",
                "a|b", "|", "EMPTY", "é"]
_FUZZ_ODD_TOKENS = ["", "a b", "X1 01"]
_FUZZ_SEPARATORS = [" "] * 6 + ["  ", "\t", "\u3000", " \t "]


def _fuzz_text(rng, tokens) -> str:
    text = "".join(tok + rng.choice(_FUZZ_SEPARATORS) for tok in tokens)[:-1] if tokens else ""
    if rng.random() < 0.1:
        text = " " + text
    if rng.random() < 0.1:
        text += rng.choice([" ", "\t"])
    return text


def _fuzz_candidate(rng, target):
    roll = rng.random()
    if roll < 0.35:  # the target itself, as text or as tokens, aliases kept or resolved
        tokens = list(target) if rng.random() < 0.5 else normalize_tokens(target)
    elif roll < 0.55 and target:
        tokens = list(target)
        del tokens[rng.randrange(len(tokens))]
    elif roll < 0.65:
        return rng.choice(["", " ", "\t", "\u3000", "  "])
    else:
        tokens = [rng.choice(_FUZZ_TOKENS) for _ in range(rng.randint(0, 4))]
    if rng.random() < 0.25 and all(tokens):
        return tokens
    if rng.random() < 0.5:
        return " ".join(tokens)
    return _fuzz_text(rng, tokens)


def test_kept_text_scores_as_its_tokens(tmp_path):
    rng = random.Random(1016)
    gold, lines, tokenized = [], [], []
    for i in range(3000):
        target = [rng.choice(_FUZZ_TOKENS if rng.random() < 0.95 else _FUZZ_ODD_TOKENS)
                  for _ in range(rng.randint(0, 5))]
        cands = [_fuzz_candidate(rng, target) for _ in range(rng.randint(0, 6))]
        gold.append(ExampleRecord(id=f"r{i}", task="successor", order=None, input=[],
                                  target=target, meta=RecordMeta(bits=len(target),
                                                                 edge_group=i % 3)))
        lines.append(json.dumps({"id": f"r{i}", "candidates": cands}))
        tokenized.append(PredictionRecord(id=f"r{i}", candidates=[
            tokenize(c) if isinstance(c, str) else normalize_tokens(c) for c in cands]))
    path = tmp_path / "p.jsonl"
    path.write_text("\n".join(lines) + "\n")
    read = read_predictions(path)
    kept = [c for record in read for c in record.candidates if isinstance(c, str)]
    assert len(kept) > 500 and all(c.split(" ") == tokenize(c) for c in kept)
    assert not any(alias in c for c in kept for alias in TOKEN_ALIASES)
    for ks in ((), (1,), (1, 2, 3, 5)):
        got = compute_metrics(read, gold, ks=ks, breakdown_keys=("bits", "edge_group"))
        assert got == compute_metrics(tokenized, gold, ks=ks,
                                      breakdown_keys=("bits", "edge_group"))
    ranks = [next((i for i, c in enumerate(p.candidates) if c == normalize_tokens(g.target)), 99)
             for p, g in zip(tokenized, gold)]
    assert got.hits == {k: sum(rank < k for rank in ranks) / len(ranks) for k in ks}
    # the draw reaches the cases the text search must get right: hits, every
    # failure label, and kept text equal to a target that its tokens are not
    assert 0.1 < got.exact < 0.9 and len(got.failures) == 4
    assert sum(" ".join(g.target) in r.candidates for r, g in zip(read, gold)
               if any(tok == "" or " " in tok for tok in g.target)) > 10


def test_read_predictions_interns_tokens(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_text('{"id": "a", "candidates": [["X1", "01"]]}\n'
                    '{"id": "b", "candidates": ["X0 X1 XO 01"]}\n')
    first, second = (record.candidates[0] for record in read_predictions(path))
    assert second == ["X0", "X1", "X0", "01"]  # the alias is still resolved
    assert first[0] is second[1] and first[1] is second[3]


def test_reading_predictions_starts_no_collection(tmp_path):
    # a count, not a time: each record leaves several tracked containers
    path = tmp_path / "p.jsonl"
    path.write_text("".join(f'{{"id": "r{i}", "candidates": [["X1", "01"], "X0 X1 01"]}}\n'
                            for i in range(5000)))
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        assert len(read_predictions(path)) == 5000
    finally:
        gc.callbacks.remove(count)
    assert started == [] and gc.isenabled()


@pytest.mark.parametrize("bad", ["not json", '{"id": "a", "candidates": [5]}'])
def test_reading_predictions_restores_the_collector_as_it_was(tmp_path, bad):
    path = tmp_path / "p.jsonl"
    path.write_text(bad + "\n")
    with pytest.raises(EvalError, match=":1: "):
        read_predictions(path)
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(EvalError, match=":1: "):
            read_predictions(path)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_eval_on_a_bad_line_exits_4_naming_it(capsys, tmp_path):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    lines = [json.dumps(r.to_dict()) for r in _gold(3)]
    gold.write_text("\n".join(lines) + "\n")
    pred.write_text('{"id": "succ-reverse-1", "candidates": [["X0", "01"]]}\n\n{"id": \n')
    assert main(["eval", "--gold", str(gold), "--pred", str(pred)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{pred}:3: bad JSON" in err
    assert gc.isenabled()


@pytest.mark.parametrize("bad", [b'{"id": "\xff"}', b"[" * 100000 + b"]" * 100000],
                         ids=["not-utf8", "deep"])
@pytest.mark.parametrize("flag", ["--gold", "--pred", "--traces"])
def test_eval_on_a_line_it_cannot_decode_exits_4_naming_it(capsys, tmp_path, bad, flag):
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    gold.write_text("\n".join(json.dumps(r.to_dict()) for r in _gold(2)) + "\n")
    pred.write_text("".join(json.dumps({"id": r.id, "candidates": [r.target]}) + "\n"
                            for r in _gold(2)))
    path = {"--gold": gold, "--pred": pred, "--traces": tmp_path / "traces.jsonl"}[flag]
    path.write_bytes((path.read_bytes() if path.exists() else b"") + b"\n" + bad + b"\n")
    argv = (["eval", "--validate-traces", "--traces", str(path)] if flag == "--traces"
            else ["eval", "--gold", str(gold), "--pred", str(pred)])
    assert main(argv) == 4
    err = capsys.readouterr().err
    lineno = 2 if flag == "--traces" else 4
    assert err.startswith(f"error: {path}:{lineno}: bad JSON (") and "Traceback" not in err
    assert gc.isenabled()


# ---------------------------------------------------------------------------
# breakdowns


def test_breakdown_by_edge_group():
    gold = _gold(32)
    preds = _perfect(gold)
    wrong_ids = {r.id for r in gold if r.meta.edge_group == 1}
    for pred in preds:
        if pred.id in wrong_ids:
            pred.candidates = [["01"]]
    rows = breakdown(preds, gold, "edge_group")
    by_bucket = {row.bucket: row for row in rows}
    assert by_bucket[1].accuracy == 0.0
    assert by_bucket[0].accuracy == 1.0
    assert by_bucket[2].accuracy == 1.0
    assert sum(row.n for row in rows) == 32


def test_breakdown_key_aliases():
    gold = _gold(16)
    preds = _perfect(gold)
    assert breakdown(preds, gold, "bit_length") == breakdown(preds, gold, "bits")


def test_breakdown_unknown_key():
    gold = _gold(4)
    with pytest.raises(EvalError):
        breakdown(_perfect(gold), gold, "astrology")


def test_breakdown_unknown_key_even_without_records():
    # an attribute of the metadata object is not a metadata field
    for key in ("to_dict", "__class__", "astrology"):
        with pytest.raises(EvalError, match="unknown breakdown key"):
            compute_metrics([], [], breakdown_keys=(key,))


# metadata of records r0..r4: (bits, depth); None is missing
_METAS = [(3, 2), (4, None), (None, 1), (None, None), (5, 3)]


@pytest.mark.parametrize("keys,message", [
    (("bits",), "record r2 has no 'bits' metadata"),
    (("depth",), "record r1 has no 'depth' metadata"),
    (("bits", "depth"), "record r1 has no 'depth' metadata"),
    (("tree_depth", "bit_length"), "record r1 has no 'depth' metadata"),
    (("bit_length", "tree_depth", "bits"), "record r1 has no 'depth' metadata"),
    (("edge_group", "depth", "bits"), "record r1 has no 'depth' metadata"),
])
@pytest.mark.parametrize("order", [(0, 1, 2, 3, 4), (4, 3, 2, 1, 0), (0, 2, 3, 1)])
def test_missing_metadata_is_named_at_the_first_record_lacking_a_field(keys, message, order):
    gold = [ExampleRecord(f"r{i}", "successor", "reverse", ["01"], ["X0", "01"],
                          RecordMeta(bits=_METAS[i][0], depth=_METAS[i][1])) for i in order]
    preds = [PredictionRecord(record.id, [["X0", "01"]]) for record in gold]
    with pytest.raises(EvalError) as info:
        compute_metrics(preds, gold, breakdown_keys=keys)
    fields = [{"bit_length": "bits", "tree_depth": "depth"}.get(key, key) for key in keys]
    first, field = next((record, field) for record in gold for field in fields
                        if getattr(record.meta, field) is None)
    assert str(info.value) == f"record {first.id} has no {field!r} metadata"
    if order[:2] == (0, 1):
        assert str(info.value) == message


def test_aliased_breakdowns_are_reported_under_each_name_once():
    gold = _gold(40)
    preds = _perfect(gold)
    for pred in preds[::3]:
        pred.candidates = [["01"]]
    report = compute_metrics(preds, gold, breakdown_keys=("bits", "bit_length", "bits"))
    assert list(report.breakdowns) == ["bits", "bit_length"]
    assert report.breakdowns["bits"] == report.breakdowns["bit_length"] == breakdown(
        preds, gold, "bits")
    assert sum(row.n for row in report.breakdowns["bit_length"]) == 40
    assert sum(row.correct for row in report.breakdowns["bits"]) == 40 - 14


def test_breakdown_buckets_are_sorted():
    gold = _gold(64)
    rows = breakdown(_perfect(gold), gold, "bits")
    assert [row.bucket for row in rows] == sorted(row.bucket for row in rows)


# ---------------------------------------------------------------------------
# failure signatures


@pytest.mark.parametrize("pred,gold_target,label", [
    (["X1", "X0", "01"], ["X0", "X0", "01"], "wrong-token"),
    (["X0", "01"], ["X0", "X0", "01"], "one-token-short"),
    (["X0", "X0", "X0", "01"], ["X0", "X0", "01"], "one-token-long"),
    (["01"], ["X0", "X0", "01"], "other"),
    (["X1", "X1"], ["X0", "X0"], "wrong-token"),  # same length, any edits
])
def test_failure_signature(pred, gold_target, label):
    assert failure_signature(pred, gold_target) == label


def test_failure_signature_rejects_equal():
    with pytest.raises(ValueError):
        failure_signature(["01"], ["01"])


def test_one_token_short_requires_single_deletion():
    # same length difference but not a deletion
    assert failure_signature(["X1", "X1"], ["X0", "X0", "01"]) == "other"


# ---------------------------------------------------------------------------
# metric report plumbing


def test_compute_metrics_and_render():
    gold = _gold(16)
    preds = _perfect(gold)
    preds[2].candidates = [["01"]]
    report = compute_metrics(preds, gold, ks=(1, 3), breakdown_keys=("edge_group",))
    assert report.n == 16
    assert report.exact == report.hits[1]
    text = render_report(report, "text")
    assert "exact match" in text
    doc = json.loads(render_report(report, "json"))
    assert doc["n"] == 16
    assert "hit@1" in doc["hits"]
    assert doc["failures"].get("other") == 1


def test_compute_metrics_agrees_with_the_single_metrics():
    rng = random.Random(5)
    gold = _gold(80)
    preds = []
    for record in gold:
        candidates = [["X0"] * (i + 1) for i in range(rng.randrange(7))]
        candidates.insert(rng.randrange(len(candidates) + 2), list(record.target))
        preds.append(PredictionRecord(id=record.id, candidates=candidates[:rng.randrange(8)]))
    report = compute_metrics(preds, gold, ks=(4, 1, 2, 4), breakdown_keys=("edge_group",))
    assert report.exact == exact_match(preds, gold)
    assert report.hits == {k: hit_at_k(preds, gold, k) for k in (1, 2, 4)}
    assert report.breakdowns["edge_group"] == breakdown(preds, gold, "edge_group")
    misses = [(p.candidates[0] if p.candidates else [], r.target)
              for p, r in zip(preds, gold) if p.candidates[:1] != [r.target]]
    assert sum(report.failures.values()) == len(misses)
    for k in (1, 2, 4):
        assert report.hits[k] == sum(
            1 for p, r in zip(preds, gold) if r.target in p.candidates[:k]) / 80


def test_compute_metrics_without_pairs():
    report = compute_metrics([], [], ks=(3, 1), breakdown_keys=("bits", "edge_group"))
    assert (report.n, report.exact, report.hits, report.breakdowns, report.failures) == (
        0, 0.0, {1: 0.0, 3: 0.0}, {"bits": [], "edge_group": []}, {})


def test_compute_metrics_error_order():
    gold = _gold(3)
    preds = _perfect(gold)
    with pytest.raises(IdMismatchError):
        compute_metrics(preds + preds[:1], gold, ks=(0,), breakdown_keys=("astrology",))
    with pytest.raises(ValueError, match="k must be"):
        compute_metrics(preds, gold, ks=(0,), breakdown_keys=("astrology",))
    with pytest.raises(EvalError, match="unknown breakdown key"):
        compute_metrics(preds, gold, ks=(1,), breakdown_keys=("astrology",))
    with pytest.raises(ValueError):
        hit_at_k(preds + preds[:1], gold, 0)


def test_empty_candidate_list_is_a_labelled_miss():
    gold = _gold(4)
    preds = _perfect(gold)
    preds[1].candidates = []
    report = compute_metrics(preds, gold)
    assert report.exact == report.hits[5] == 0.75
    assert report.failures == {failure_signature([], gold[1].target): 1}
    # an empty target is not matched by an empty list, and not labelled either
    gold[2].target = []
    preds[2].candidates = []
    report = compute_metrics(preds, gold)
    assert report.exact == 0.5
    assert sum(report.failures.values()) == 1


def test_render_report_rejects_unknown_format():
    gold = _gold(2)
    report = compute_metrics(_perfect(gold), gold)
    with pytest.raises(ValueError):
        render_report(report, "yaml")


# ---------------------------------------------------------------------------
# the trace validator: valid traces


def _successor_trace(n):
    return render_trace(Call("s", (bin_encode(n),)), PAREN)


def _traversal_trace(tree, kind="inorder"):
    return render_trace(Call(kind, (tree,)), ARROW)


def test_oracle_successor_traces_validate():
    for n in range(1, 200):
        judgment = validate_trace(_successor_trace(n), "successor",
                                  input_tokens=linearize(bin_encode(n)))
        assert judgment.valid, (n, judgment)


def test_oracle_traversal_traces_validate():
    judgment = validate_trace(_traversal_trace(CAT_TREE), "inorder",
                              input_tokens=tree_serialize(CAT_TREE))
    assert judgment.valid
    judgment = validate_trace(_traversal_trace(CAT_TREE, "preorder"), "preorder")
    assert judgment.valid


def test_the_first_state_is_normalized_once(monkeypatch):
    from structrec import evaluation, reduction, terms

    calls = []

    def counted(tokens, normalize=terms.normalize_tokens):
        calls.append(list(tokens))
        return normalize(tokens)

    for module in (terms, reduction, evaluation):
        monkeypatch.setattr(module, "normalize_tokens", counted)
    for text, task in (("( X1 XO 01 ) = X0 ( X0 01 ) = X0 X1 01", "successor"),
                       (_traversal_trace(branch("X0", CAT_TREE, leaf())).replace("X0", "XO", 1),
                        "inorder")):
        calls.clear()
        assert validate_trace(text, task).valid
        assert len(calls) == 1  # by tokenize; not again by the state's or the term's parser
    # called on their own, the parsers still normalize
    program = reduction.builtin_programs()["s"]
    assert reduction.parse_state_paren(["XO", "(", "01", ")"], program) == reduction.Ctor(
        "X0", (), (Call("s", (bin_encode(1),)),))


def test_single_state_trace_of_a_base_value_is_not_valid():
    # a bare final answer with no reduction shown does not start at the input
    judgment = validate_trace("X0 01", "successor", input_tokens=["01"])
    assert not judgment.valid


# ---------------------------------------------------------------------------
# the trace validator: every error label


def test_malformed_initial_state():
    judgment = validate_trace("X1 X9 01 = X0 01", "successor")
    assert judgment == type(judgment)(False, 0, MALFORMED_STATE)


def test_malformed_later_state():
    judgment = validate_trace("( X1 01 ) = X0 ( ( 01", "successor")
    assert (judgment.first_bad_step, judgment.error) == (1, MALFORMED_STATE)


def test_token_mutation_mid_trace():
    judgment = validate_trace("( X1 X0 01 ) = X0 ( X1 01 ) = X0 X1 01", "successor")
    assert (judgment.first_bad_step, judgment.error) == (1, TOKEN_MUTATION)


def test_token_mutation_against_declared_input():
    judgment = validate_trace("( X0 01 ) = X1 01", "successor", input_tokens=["X1", "01"])
    assert (judgment.first_bad_step, judgment.error) == (0, TOKEN_MUTATION)


def test_skipped_copy_trace_is_flagged_at_step_two():
    """A trace that drops a token during the copy phase and keeps
    recursing past where the run should have stopped."""
    text = ("( X1 X0 X1 X1 01 ) = X0 ( X0 X1 X1 01 ) = X0 X1 ( X1 01 ) = "
            "X0 X1 X0 ( 01 ) = X0 X1 X0 X0 01")
    judgment = validate_trace(text, "successor",
                              input_tokens=["X1", "X0", "X1", "X1", "01"])
    assert not judgment.valid
    assert judgment.first_bad_step == 2
    assert judgment.error == TOKEN_MUTATION


def test_premature_termination():
    judgment = validate_trace("( X1 01 ) = X0 X0 01", "successor")
    assert (judgment.first_bad_step, judgment.error) == (1, PREMATURE_TERMINATION)


def test_missing_termination_steps_past_normal():
    judgment = validate_trace("( X0 01 ) = X1 01 = X1 01", "successor")
    assert (judgment.first_bad_step, judgment.error) == (2, MISSING_TERMINATION)


def test_missing_termination_pending_final_state():
    judgment = validate_trace("( X1 01 ) = X0 ( 01 )", "successor")
    assert (judgment.first_bad_step, judgment.error) == (1, MISSING_TERMINATION)


def test_rule_order_swap_sibling_traversal():
    text = (
        "UNROLL[ a ( c LEAF LEAF ) ( t LEAF LEAF ) ] -> "
        "a UNROLL[ c LEAF LEAF ] UNROLL[ t LEAF LEAF ] -> "
        "a EMPTY c EMPTY EMPTY t EMPTY -> a c t"
    )
    judgment = validate_trace(text, "inorder")
    assert (judgment.first_bad_step, judgment.error) == (1, RULE_ORDER_SWAP)


def test_illegal_rule():
    judgment = validate_trace("( X1 X1 01 ) = X1 X1 X1 ( 01 )", "successor")
    assert (judgment.first_bad_step, judgment.error) == (1, ILLEGAL_RULE)


def test_labels_are_drawn_from_the_catalog():
    bad_traces = [
        ("X1 X9 01 = X0 01", "successor"),
        ("( X1 X0 01 ) = X0 ( X1 01 ) = X0 X1 01", "successor"),
        ("( X1 01 ) = X0 X0 01", "successor"),
        ("( X0 01 ) = X1 01 = X1 01", "successor"),
        ("( X1 X1 01 ) = X1 X1 X1 ( 01 )", "successor"),
    ]
    for text, task in bad_traces:
        judgment = validate_trace(text, task)
        assert not judgment.valid
        assert judgment.error in TRACE_ERRORS


def test_validate_trace_unknown_task():
    with pytest.raises(EvalError):
        validate_trace("( 01 ) = X0 01", "carousel")


# ---------------------------------------------------------------------------
# aggregation


def test_trace_validation_report():
    report = TraceValidationReport()
    report.add(validate_trace(_successor_trace(11), "successor"))
    report.add(validate_trace("( X1 01 ) = X0 X0 01", "successor"))
    report.add(validate_trace("( X1 X0 01 ) = X0 ( X1 01 ) = X0 X1 01", "successor"))
    assert (report.n, report.valid) == (3, 1)
    assert report.label_counts == {PREMATURE_TERMINATION: 1, TOKEN_MUTATION: 1}
    text = report.render()
    assert "valid 1" in text
    doc = json.loads(report.render("json"))
    assert doc["invalid"] == 2
