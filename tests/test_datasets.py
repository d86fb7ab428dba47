"""Dataset generation: determinism, splits, padding, respelling, files."""

import copy
import dataclasses
import gc
import json
import pickle
import random

import pytest

from structrec.datasets import (
    DatasetSpec,
    ExampleRecord,
    RecordMeta,
    SINGLE_STEP,
    STRUCTURAL_TOKENS,
    SUCCESSOR,
    SUCCESSOR_RANDOM,
    TRAVERSAL,
    TraceRecord,
    TreeSample,
    count_trees,
    file_digest,
    gen_edge_records,
    gen_single_step,
    gen_successor_random,
    gen_successor_range,
    gen_traces,
    gen_traversal,
    gen_trees,
    postprocess,
    read_jsonl,
    read_traces,
    record_rng,
    sample_tree,
    tree_key,
    write_jsonl,
    write_manifest,
    _record_seed,
)
from structrec.errors import (
    EvalError,
    GenerationError,
    MalformedSequenceError,
    ReductionError,
    RemapError,
)
from structrec.evaluation import PredictionRecord, read_predictions
from structrec.reduction import (
    Call,
    builtin_programs,
    parse_state_paren,
    recursion_depth,
    reduce,
    render_state_paren,
    step_single,
)
from structrec.terms import (
    BIN_POS,
    NATURAL,
    REVERSE,
    Term,
    _check_injective,
    _respelled,
    bin_encode,
    branch,
    delinearize,
    leaf,
    tree_depth,
)


# ---------------------------------------------------------------------------
# successor generators


def test_successor_range_contents():
    records = gen_successor_range(DatasetSpec(task=SUCCESSOR, order=REVERSE, lo=1, hi=64))
    assert len(records) == 64
    by_value = {r.meta.value: r for r in records}
    assert by_value[5].input == ["X1", "X0", "01"]
    assert by_value[5].target == ["X0", "X1", "01"]
    assert by_value[5].meta.edge_group == 2
    assert by_value[7].meta.edge_group == 1


def test_successor_natural_order_is_reversed():
    record = gen_successor_range(DatasetSpec(order=NATURAL, lo=5, hi=5))[0]
    assert record.input == ["01", "X0", "X1"]
    assert record.target == ["01", "X1", "X0"]


def test_depth_metadata_matches_the_engine():
    for record in gen_successor_range(DatasetSpec(lo=1, hi=256)):
        term = delinearize(record.input, BIN_POS)
        assert record.meta.depth == recursion_depth(term)


def test_successor_random_is_deterministic():
    spec = DatasetSpec(task=SUCCESSOR_RANDOM, count=64, seed=7)
    first = [r.to_dict() for r in gen_successor_random(spec)]
    second = [r.to_dict() for r in gen_successor_random(spec)]
    assert first == second


def test_successor_random_respects_bit_range():
    spec = DatasetSpec(task=SUCCESSOR_RANDOM, count=300, bits_lo=4, bits_hi=9, seed=8)
    records = gen_successor_random(spec)
    bits = {r.meta.bits for r in records}
    assert bits == set(range(4, 10))
    for r in records:
        assert r.meta.value.bit_length() == r.meta.bits


def test_different_seeds_differ():
    a = gen_successor_random(DatasetSpec(task=SUCCESSOR_RANDOM, count=64, seed=1))
    b = gen_successor_random(DatasetSpec(task=SUCCESSOR_RANDOM, count=64, seed=2))
    assert [r.meta.value for r in a] != [r.meta.value for r in b]


def test_record_rng_streams_are_independent():
    assert record_rng(1, "a", 0).random() != record_rng(1, "b", 0).random()
    assert record_rng(1, "a", 0).random() == record_rng(1, "a", 0).random()


def test_edge_records():
    g1, g2 = gen_edge_records(DatasetSpec(order=REVERSE, bits_lo=2, bits_hi=6))
    assert [r.meta.value for r in g1] == [3, 7, 15, 31, 63]
    assert [r.meta.value for r in g2] == [5, 11, 23, 47]
    assert all(r.meta.edge_group == 1 for r in g1)
    assert all(r.meta.edge_group == 2 for r in g2)


def test_edge_records_validate_their_spec():
    # as every other generator does, before it makes a record
    with pytest.raises(GenerationError) as raised:
        gen_edge_records(DatasetSpec(order="bogus", bits_lo=2, bits_hi=4))
    assert str(raised.value) == "unknown order: 'bogus'"


def test_single_step_records_replay():
    """Each record is one legal step of the stepping relation."""
    program = builtin_programs()["s"]
    records = gen_single_step(DatasetSpec(task=SINGLE_STEP, lo=1, hi=64))
    assert records, "no records generated"
    for record in records:
        state = parse_state_paren(record.input, program)
        after, _ = step_single(state)
        assert render_state_paren(after) == record.target


def test_single_step_counts():
    # a value of depth d contributes d transitions
    records = gen_single_step(DatasetSpec(task=SINGLE_STEP, lo=1, hi=32))
    per_value = {}
    for record in records:
        per_value[record.meta.value] = per_value.get(record.meta.value, 0) + 1
    for n in range(1, 33):
        assert per_value[n] == recursion_depth(bin_encode(n))


# ---------------------------------------------------------------------------
# trees


def test_count_trees_closed_form():
    assert count_trees(0, 3) == 1
    assert count_trees(1, 3) == 4
    assert count_trees(2, 3) == 49
    assert count_trees(3, 3) == 7204
    assert count_trees(2, 3) - count_trees(1, 3) == 45  # the trees of depth exactly 2


def test_gen_trees_split_sizes_and_depths():
    spec = DatasetSpec(task=TRAVERSAL, depth_lo=3, depth_hi=5, train_count=300,
                       test_count=30, seed=11)
    samples, split = gen_trees(spec)
    assert len(split.train_ids) == 300
    assert len(split.test_ids) == 30
    assert not split.overlap()
    for sample in samples:
        assert 3 <= sample.depth <= 5
        assert tree_depth(sample.tree) == sample.depth
    test_depths = [s.depth for s in samples if s.split == "test"]
    assert sorted(set(test_depths)) == [3, 4, 5]
    assert all(test_depths.count(d) == 10 for d in (3, 4, 5))


def test_gen_trees_no_duplicates_anywhere():
    spec = DatasetSpec(task=TRAVERSAL, depth_lo=2, depth_hi=4, train_count=200,
                       test_count=20, seed=12)
    samples, _ = gen_trees(spec)
    keys = [tree_key(s.tree) for s in samples]
    assert len(keys) == len(set(keys))


def test_each_sampled_tree_is_serialized_once(monkeypatch):
    # a draw serializes its tree as it draws it: no draw is walked after,
    # and its key and its records slice the drawn tokens
    import structrec.datasets as datasets
    from structrec.terms import Term, tree_serialize

    drawn, walks = [], []
    sample = datasets.sample_tree
    monkeypatch.setattr(datasets, "sample_tree", lambda *a: drawn.append(sample(*a)) or drawn[-1])
    monkeypatch.setattr(datasets, "tree_serialize", lambda tree: walks.append(
        tree._tree_span is None) or tree_serialize(tree))
    spec = DatasetSpec(task=TRAVERSAL, depth_lo=2, depth_hi=4, train_count=150,
                       test_count=15, seed=14)
    samples, _ = gen_trees(spec)
    records = gen_traversal(samples, DatasetSpec(kind="inorder"))
    # each draw is keyed, each record takes its input, and none walks a tree
    assert sum(walks) == 0 and len(drawn) >= len(samples)
    assert len(walks) == len(drawn) + len(records)
    for tree in drawn:
        toks, start, end = tree._tree_span
        built = Term("Branch", tree.payloads, tree.children)
        assert (start, end) == (0, len(toks)) and toks == tree_serialize(built)
    for sample, record in zip(samples, records):
        assert record.input == sample.tree._tree_span[0]
        assert record.input is not sample.tree._tree_span[0]


def test_gen_trees_deterministic():
    spec = DatasetSpec(task=TRAVERSAL, depth_lo=2, depth_hi=3, train_count=100,
                       test_count=10, seed=13)
    a, _ = gen_trees(spec)
    b, _ = gen_trees(spec)
    assert [(s.id, tree_key(s.tree)) for s in a] == [(s.id, tree_key(s.tree)) for s in b]


def test_gen_trees_refuses_impossible_requests():
    with pytest.raises(GenerationError):
        gen_trees(DatasetSpec(task=TRAVERSAL, depth_lo=1, depth_hi=1,
                              train_count=10**6, test_count=0))
    with pytest.raises(GenerationError):
        DatasetSpec(task=TRAVERSAL, depth_lo=0, depth_hi=2).validate()


@pytest.mark.parametrize("field, generate", [
    ("count", lambda: gen_successor_random(DatasetSpec(count=-2))),
    ("train_count", lambda: gen_trees(DatasetSpec(depth_lo=2, depth_hi=3, train_count=-3,
                                                  test_count=2))),
    ("test_count", lambda: gen_trees(DatasetSpec(depth_lo=2, depth_hi=3, train_count=2,
                                                 test_count=-3))),
], ids=["count", "train_count", "test_count"])
def test_a_negative_count_is_refused(field, generate):
    # the generators used to drop the work quietly: no records, or only the test trees
    with pytest.raises(GenerationError, match=f"^{field} must be non-negative$"):
        generate()


# ---------------------------------------------------------------------------
# traversal records


def _ref_traversal(tree, kind):
    if tree.constructor == "Leaf":
        return []
    left, right = tree.children
    mid = [tree.payloads[0]]
    if kind == "inorder":
        return _ref_traversal(left, kind) + mid + _ref_traversal(right, kind)
    return mid + _ref_traversal(left, kind) + _ref_traversal(right, kind)


@pytest.mark.parametrize("kind", ["inorder", "preorder"])
def test_traversal_targets_match_reference(kind):
    spec = DatasetSpec(task=TRAVERSAL, depth_lo=2, depth_hi=4, train_count=120,
                       test_count=0, seed=14)
    samples, _ = gen_trees(spec)
    for record, sample in zip(gen_traversal(samples, DatasetSpec(kind=kind)), samples):
        assert record.target == _ref_traversal(sample.tree, kind)
        assert record.meta.depth == sample.depth


def _samples(trees) -> list[TreeSample]:
    return [TreeSample(f"t{i}", tree, 0, "train") for i, tree in enumerate(trees)]


@pytest.mark.parametrize("kind", ["inorder", "preorder"])
def test_full_traversal_targets_are_the_engines_normal_forms(kind):
    # the targets come from one walk of each tree; reduce is the reference
    rng = random.Random(26)
    trees = [sample_tree(rng, rng.randint(1, 8), "abc") for _ in range(500)]
    left = right = bare = leaf()
    for i in range(2000):
        left, right = branch("abc"[i % 3], left, bare), branch("abc"[i % 3], bare, right)
    trees += [left, right]
    assert {tree_depth(tree) for tree in trees} == {*range(1, 9), 2000}
    for record, tree in zip(gen_traversal(_samples(trees), DatasetSpec(kind=kind)), trees,
                            strict=True):
        assert record.target == list(reduce(Call(kind, (tree,)))[0].items)


@pytest.mark.parametrize("kind", ["inorder", "preorder"])
@pytest.mark.parametrize("tree, error, message", [
    (Term("Branch", (), (leaf(), leaf())), ReductionError,
     "{kind} on 'Branch' takes (payloads, children, arguments) (1, 2, 1), got (0, 2, 1)"),
    (branch("a", Term("Node", ("b",), (leaf(), leaf())), leaf()), ReductionError,
     "{kind} has no clause for 'Node'"),
    (leaf(), MalformedSequenceError, "a bare Leaf has no serialized form"),
    # the engine names the node it meets first, level by level
    (branch("a", branch("b", Term("X"), leaf()), Term("Y", ("c",), (leaf(), leaf()))),
     ReductionError, "{kind} has no clause for 'Y'"),
    (branch("a", leaf(), Term("Leaf", ("z",))), ReductionError,
     "{kind} on 'Leaf' takes (payloads, children, arguments) (0, 0, 1), got (1, 0, 1)"),
    (branch("a", leaf(), branch(leaf(), leaf(), leaf())), ReductionError,
     "list slot 'v' is not a payload"),
    (branch("a", "b", leaf()), ReductionError, "expression is stuck: nothing to rewrite"),
])
def test_a_full_target_off_the_char_tree_shape_raises_the_engines_error(
        kind, tree, error, message):
    with pytest.raises(error) as raised:
        gen_traversal(_samples([tree]), DatasetSpec(kind=kind))
    assert type(raised.value) is error and str(raised.value) == message.format(kind=kind)
    if error is ReductionError:  # as reduce raises it
        with pytest.raises(ReductionError) as reference:
            reduce(Call(kind, (tree,)))
        assert str(reference.value) == str(raised.value)


def test_traversal_k_state_targets():
    spec = DatasetSpec(task=TRAVERSAL, depth_lo=3, depth_hi=3, train_count=40,
                       test_count=0, seed=15)
    samples, _ = gen_trees(spec)
    records = gen_traversal(samples, DatasetSpec(kind="inorder", k=1))
    for record, sample in zip(records, samples):
        assert "UNROLL[" in record.target
        # after depth+1 levels the state is the fully flattened list
    full = gen_traversal(samples, DatasetSpec(kind="inorder", k=4))
    for record, sample in zip(full, samples):
        assert record.target == _ref_traversal(sample.tree, "inorder")


def test_traversal_rejects_bad_k():
    with pytest.raises(GenerationError, match="k must be at least 1 when set"):
        gen_traversal([], DatasetSpec(kind="inorder", k=0))
    with pytest.raises(GenerationError, match="unknown traversal kind: 'postorder'"):
        gen_traversal([], DatasetSpec(kind="postorder"))


# ---------------------------------------------------------------------------
# traces


def test_successor_traces():
    records = gen_traces(DatasetSpec(task=SUCCESSOR, lo=11, hi=11))
    assert records[0].trace == (
        "( X1 X1 X0 01 ) = X0 ( X1 X0 01 ) = X0 X0 ( X0 01 ) = X0 X0 X1 01"
    )
    assert records[0].input == ["X1", "X1", "X0", "01"]


def test_traversal_traces_use_arrows():
    records = gen_traces(DatasetSpec(task=TRAVERSAL, kind="inorder", count=5,
                                     depth_lo=2, depth_hi=3, seed=16))
    assert len(records) == 5
    for record in records:
        assert " -> " in record.trace
        assert record.trace.startswith("UNROLL[")


# ---------------------------------------------------------------------------
# post-processing


def test_padding_mirrors_input_and_target():
    records = gen_successor_range(DatasetSpec(lo=1, hi=60))
    padded = postprocess(records, DatasetSpec(max_pad=4, seed=99))
    seen = set()
    for record in padded:
        pad = record.meta.pad_len
        seen.add(pad)
        assert record.input[:pad] == ["PAD"] * pad
        assert record.target[:pad] == ["PAD"] * pad
        assert record.input[pad:] != [] and record.input[pad] != "PAD"
    assert seen == set(range(5))


def test_padding_deterministic():
    records = gen_successor_range(DatasetSpec(lo=1, hi=30))
    a = postprocess(records, DatasetSpec(max_pad=3, seed=5))
    b = postprocess(records, DatasetSpec(max_pad=3, seed=5))
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_remap_respells_value_tokens_only():
    records = gen_successor_range(DatasetSpec(lo=1, hi=8))
    mapped = postprocess(records, DatasetSpec(max_pad=2, seed=1,
                                              remap={"01": "c", "X0": "a", "X1": "b"}))
    for record in mapped:
        assert set(record.input) <= {"a", "b", "c", "PAD"}
        assert set(record.target) <= {"a", "b", "c", "PAD"}


def test_remap_can_target_structural_tokens_explicitly():
    records = gen_successor_range(DatasetSpec(lo=1, hi=4))
    mapped = postprocess(records, DatasetSpec(
        max_pad=1, seed=2, remap={"01": "c", "X0": "a", "X1": "b", "PAD": "_"}))
    tokens = {tok for r in mapped for tok in r.input}
    assert "PAD" not in tokens


def test_padding_draws_each_length_from_the_record_rng():
    records = gen_successor_range(DatasetSpec(lo=1, hi=50))
    padded = postprocess(records, DatasetSpec(
        max_pad=5, seed=7, remap={"X0": "X0", "X1": "X1", "01": "01", "PAD": "_"}))
    for i, (record, out) in enumerate(zip(records, padded)):
        pad = record_rng(7, "pad", i).randint(0, 5)
        assert out.meta.pad_len == pad
        assert out.input == ["_"] * pad + record.input
        assert out.target == ["_"] * pad + record.target
        assert out.to_dict()["meta"] == {**record.meta.to_dict(), "pad_len": pad}
        assert out.input is not record.input and record.meta.pad_len == 0


def test_remap_checks_injectivity_only_with_a_record():
    records = gen_successor_range(DatasetSpec(lo=1, hi=3))
    # the second is not injective only once PAD keeps its own spelling
    for mapping in ({"01": "c", "X0": "a", "X1": "a"}, {"01": "c", "X0": "PAD", "X1": "b"}):
        with pytest.raises(RemapError) as raised:
            postprocess(records, DatasetSpec(remap=mapping))
        assert str(raised.value) == "remap is not injective"
        assert postprocess([], DatasetSpec(remap=mapping)) == []


@pytest.mark.parametrize("spelling", ["a b", "", "XO", "x]", "(c", 7, None, ["a"]])
def test_remap_rejects_a_spelling_that_text_cannot_give_back(spelling):
    # eval tokenizes a text prediction, so each spelling must be one token
    # that reads back as itself; a non-string never reaches the writer
    records = gen_successor_range(DatasetSpec(lo=1, hi=3))
    remap = {"X0": "a", "X1": spelling, "01": "c", "PAD": "not one"}
    with pytest.raises(RemapError) as raised:
        postprocess(records, DatasetSpec(remap=remap))
    assert str(raised.value) == f"remap spelling {spelling!r} does not read back as itself"
    assert postprocess([], DatasetSpec(remap=remap)) == []


def test_remap_rejects_a_bad_spelling_of_a_structural_token():
    records = gen_successor_range(DatasetSpec(lo=1, hi=3))
    with pytest.raises(RemapError) as raised:
        postprocess(records, DatasetSpec(remap={"X0": "a", "X1": "b", "01": "c", "PAD": "P D"}))
    assert str(raised.value) == "remap spelling 'P D' does not read back as itself"


def test_remap_names_the_first_token_outside_its_domain():
    record = ExampleRecord("r", SUCCESSOR, None, ["X1", "Z", "Q", "01"], ["X0", "X1", "01"])
    with pytest.raises(RemapError) as raised:
        postprocess([record], DatasetSpec(remap={"01": "c", "X0": "a", "X1": "b"}))
    assert str(raised.value) == "token outside remap domain: 'Z'"


def test_remap_normalizes_an_alias_before_respelling_it():
    record = ExampleRecord("r", SUCCESSOR, None, ["X1", "XO", "01"], ["XO", "X1", "01"])
    (mapped,) = postprocess([record], DatasetSpec(remap={"01": "c", "X0": "a", "X1": "b"}))
    assert (mapped.input, mapped.target) == (["b", "a", "c"], ["a", "b", "c"])
    assert (mapped.id, mapped.task, mapped.meta) == ("r", SUCCESSOR, record.meta)
    assert record.input == ["X1", "XO", "01"]


def test_oversample_counts():
    records = gen_successor_range(DatasetSpec(lo=1, hi=64))
    over = postprocess(records, DatasetSpec(oversample_group1=5, oversample_group2=3, seed=42))
    counts = {}
    for record in over:
        counts[record.id] = counts.get(record.id, 0) + 1
    for record in records:
        want = {1: 5, 2: 3}.get(record.meta.edge_group, 1)
        assert counts[record.id] == want
    assert len(over) == sum(counts.values())


def test_oversample_shuffles_deterministically():
    records = gen_successor_range(DatasetSpec(lo=1, hi=64))
    a = postprocess(records, DatasetSpec(oversample_group1=5, seed=42))
    b = postprocess(records, DatasetSpec(oversample_group1=5, seed=42))
    assert [r.id for r in a] == [r.id for r in b]
    assert [r.id for r in a] != [r.id for r in records]


# the one-pass postprocess against the three stages it replaced, run in turn


def _reference_padding(records, max_pad: int, seed: int, pad_token: str):
    if max_pad < 0:
        raise GenerationError("max_pad must be non-negative")
    rng, out = random.Random(), []
    for i, record in enumerate(records):
        rng.seed(_record_seed(seed, "pad", i))
        pad = rng.randint(0, max_pad)
        prefix = [pad_token] * pad
        meta = record.meta
        out.append(ExampleRecord(
            record.id, record.task, record.order,
            prefix + list(record.input), prefix + list(record.target),
            RecordMeta(meta.value, meta.bits, meta.depth, meta.edge_group, pad)))
    return out


def _reference_remap(records, mapping: dict):
    full = dict(mapping)
    for tok in STRUCTURAL_TOKENS:
        full.setdefault(tok, tok)
    out = []
    for record in records:
        if not out:
            _check_injective(full)
        out.append(ExampleRecord(
            record.id, record.task, record.order,
            _respelled(record.input, full), _respelled(record.target, full), record.meta))
    return out


def _reference_oversample(records, group1_factor: int, group2_factor: int, seed: int):
    if group1_factor < 1 or group2_factor < 1:
        raise GenerationError("oversample factors must be at least 1")
    out = []
    for record in records:
        factor = {1: group1_factor, 2: group2_factor}.get(record.meta.edge_group, 1)
        out.extend([record] * factor)
    record_rng(seed, "oversample", 0).shuffle(out)
    return out


def _reference_postprocess(records, spec: DatasetSpec):
    if spec.remap:
        records = _reference_remap(records, spec.remap)
    if spec.max_pad:
        # a remap that names PAD spells the pads
        records = _reference_padding(records, spec.max_pad, spec.seed,
                                     (spec.remap or {}).get("PAD", "PAD"))
    if spec.oversample_group1 > 1 or spec.oversample_group2 > 1:
        records = _reference_oversample(records, spec.oversample_group1, spec.oversample_group2,
                                        spec.seed)
    return records


def _outcome(run, records, spec):
    try:
        return [record.to_dict() for record in run(records, spec)]
    except RemapError as exc:
        return str(exc)


def test_postprocess_matches_the_three_stages_run_in_turn():
    samples, _ = gen_trees(DatasetSpec(task=TRAVERSAL, depth_lo=2, depth_hi=4, train_count=8,
                                       test_count=0, seed=5))
    g1, g2 = gen_edge_records(DatasetSpec(order=NATURAL, bits_lo=2, bits_hi=8))
    pool = (gen_successor_range(DatasetSpec(lo=1, hi=40))
            + gen_successor_random(DatasetSpec(count=20, bits_lo=2, bits_hi=12))
            + gen_single_step(DatasetSpec(lo=1, hi=12)) + g1 + g2
            + gen_traversal(samples, DatasetSpec(kind="inorder"))
            + gen_traversal(samples, DatasetSpec(kind="preorder", k=2)))
    values = ["X0", "X1", "01", "a", "b", "c"]
    rng = random.Random(27)
    seen = {"remap": 0, "outside": 0, "not injective": 0, "pad": 0, "oversample": 0, "empty": 0}
    for _ in range(400):
        records = [] if rng.random() < 0.05 else rng.sample(pool, rng.randint(1, 12))
        for k, record in enumerate(records):  # XO is an alias of X0
            if rng.random() < 0.3 and "X0" in record.input:
                i = record.input.index("X0")
                records[k] = dataclasses.replace(
                    record, input=record.input[:i] + ["XO"] + record.input[i + 1:])
        remap = None
        if rng.random() < 0.6:
            spellings = rng.sample("pqrstuvwxyz", len(values))
            if rng.random() < 0.15:
                spellings[1] = spellings[0]
            remap = dict(zip(values, spellings))
            if rng.random() < 0.15:
                del remap[rng.choice(values)]
            if rng.random() < 0.5:
                remap["PAD"] = "_"
        spec = DatasetSpec(remap=remap, max_pad=rng.randint(0, 4),
                           oversample_group1=rng.randint(1, 5),
                           oversample_group2=rng.randint(1, 5), seed=rng.randrange(1000))
        want = _outcome(_reference_postprocess, records, spec)
        assert _outcome(postprocess, records, spec) == want
        if isinstance(want, str):
            seen["outside" if "outside" in want else "not injective"] += 1
            continue
        seen["remap"] += bool(remap)
        seen["pad"] += spec.max_pad > 0
        seen["oversample"] += len(want) > len(records)
        seen["empty"] += not records
    assert min(seen.values()) >= 10, seen
    records = pool[:5]
    assert postprocess(records, DatasetSpec()) is records


# ---------------------------------------------------------------------------
# files


def test_jsonl_round_trip_and_byte_identity(tmp_path):
    spec = DatasetSpec(task=SUCCESSOR, lo=1, hi=100, max_pad=3,
                       oversample_group1=2, seed=5)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    records = postprocess(gen_successor_range(spec), spec)
    write_jsonl(records, a)
    write_jsonl(postprocess(gen_successor_range(spec), spec), b)
    assert a.read_bytes() == b.read_bytes()
    back = read_jsonl(a)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in records]


# tokens the writer must escape as json.dumps does: non-ASCII (one outside
# the BMP), a quote, a backslash, control characters, U+2028 and the empty token
_AWKWARD = ["X0", "X1", "01", "PAD", "LEAF", "(", ")", "\u00e9", "\u65e5\u672c", "\U0001f600",
            '"', "\\", "\x00", "\x1f", "\t", "\r", "\n", "\x7f", "\u2028", "a b", ""]


def _awkward_tokens(rng: random.Random) -> list[str]:
    return rng.choices(_AWKWARD, k=rng.randint(0, 9))


def _awkward_text(rng: random.Random) -> str:
    return "".join(_awkward_tokens(rng))


def _written_records():
    """At least 1,000 seeded records of each class write_jsonl writes, real
    ones and synthetic ones with every awkward token, null field and pad."""
    from structrec.shortcuts import Disagreement, diff_against_oracle

    rng = random.Random(33)
    spec = DatasetSpec(lo=1, hi=300, max_pad=3, remap={"X0": "\u00e9", "X1": '"', "01": "\\"})
    samples, _ = gen_trees(DatasetSpec(task=TRAVERSAL, depth_lo=2, depth_hi=5, train_count=200,
                                       test_count=20, seed=33))
    examples = (postprocess(gen_successor_range(spec), spec)
                + gen_traversal(samples, DatasetSpec(kind="preorder"))
                + gen_traversal(samples, DatasetSpec(kind="inorder", k=2)))
    for i in range(600):
        meta = RecordMeta(*(rng.choice([None, 0, 7, -3, 2**70]) for _ in range(3)),
                          rng.choice([0, 1, 2]), rng.randint(0, 3))
        examples.append(ExampleRecord(f"ex-{i}-{_awkward_text(rng)}", rng.choice(_AWKWARD),
                                      rng.choice([None, REVERSE, NATURAL, *_AWKWARD]),
                                      _awkward_tokens(rng), _awkward_tokens(rng), meta))
    traces = gen_traces(DatasetSpec(task=SUCCESSOR, lo=1, hi=200)) + [
        TraceRecord(f"tr-{i}-{_awkward_text(rng)}", rng.choice(_AWKWARD), _awkward_tokens(rng),
                    _awkward_text(rng)) for i in range(800)]
    trees = [TreeSample(f"t-{i}-{_awkward_text(rng)}", sample_tree(rng, rng.randint(1, 4),
                                                                   "\u00e9\"\\\x01\u2028\U0001f600a"),
                        rng.randint(1, 4), rng.choice(["train", "test", *_AWKWARD]))
             for i in range(1000)]
    trees += [TreeSample("walked", branch("\u2028", leaf(), branch('"', leaf(), leaf())), 2, "test")]
    report = diff_against_oracle(NATURAL, "faithful", 1, 2000)
    disagreements = [*report.disagreements, *(
        Disagreement(rng.randint(1, 2**40), rng.randint(1, 40), rng.choice([0, 1, 2]),
                     tuple(_awkward_tokens(rng)), tuple(_awkward_tokens(rng)),
                     rng.choice(_AWKWARD)) for _ in range(1000))]
    return {"example": examples, "trace": traces, "tree": trees, "disagreement": disagreements}


@pytest.mark.parametrize("kind", ["example", "trace", "tree", "disagreement"])
def test_each_line_is_json_dumps_of_the_records_dict(tmp_path, kind):
    records = _written_records()[kind]
    assert len(records) >= 1000
    path = tmp_path / f"{kind}.jsonl"
    write_jsonl(records, path)
    lines = path.read_bytes().decode("ascii").split("\n")
    assert lines.pop() == ""  # every line, the last one too, ends in a bare \n
    assert lines == [json.dumps(r.to_dict(), sort_keys=True, separators=(",", ":"))
                     for r in records]
    read = {"example": read_jsonl, "trace": read_traces}.get(kind)
    if read is not None:
        assert read(path) == records
    else:  # no reader: the lines decode to the records' dicts, tuples as lists
        assert [json.loads(line) for line in lines] == [
            json.loads(json.dumps(r.to_dict())) for r in records]


def test_files_are_opened_to_write_bare_newlines(tmp_path, monkeypatch):
    # text mode with the default newline=None writes os.linesep, \r\n on Windows
    import builtins

    import structrec.datasets as datasets

    opened = []

    def spy(file, mode="r", *args, **kwargs):
        opened.append((mode, kwargs.get("newline")))
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(datasets, "open", spy, raising=False)
    spec = DatasetSpec(lo=1, hi=3)
    write_jsonl(gen_successor_range(spec), tmp_path / "d.jsonl")
    write_manifest(tmp_path / "d.manifest.json", spec, tmp_path / "d.jsonl", 3)
    assert [entry for entry in opened if "b" not in entry[0]] == [("w", "\n"), ("w", "\n")]


def test_jsonl_lines_have_sorted_keys(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(gen_successor_range(DatasetSpec(lo=1, hi=3)), path)
    for line in path.read_text().splitlines():
        obj = json.loads(line)
        assert list(obj) == sorted(obj)


def test_read_jsonl_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "a", "task": "successor", "order": null, '
                    '"input": [], "target": []}\nnot json\n')
    with pytest.raises(GenerationError) as err:
        read_jsonl(path)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("change,message", [
    ({"meta": 5}, "meta must be an object"),
    ({"meta": {"bits": "3"}}, "meta bits must be an integer"),
    ({"target": [1, 2]}, "target must be a list of token strings"),
    ({"input": "X1 01"}, "input must be a list of token strings"),
    ({"meta": {"bits": True}}, "meta bits must be an integer"),  # bool is an int subclass
    ({"meta": {"edge_group": False}}, "meta edge_group must be an integer"),
])
def test_read_jsonl_rejects_malformed_records(tmp_path, change, message):
    obj = gen_successor_range(DatasetSpec(lo=1, hi=1))[0].to_dict()
    obj.update(change)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(GenerationError, match=f":1: bad record \\({message}"):
        read_jsonl(path)


def test_read_jsonl_names_the_physical_line_after_blank_lines(tmp_path):
    good = json.dumps(gen_successor_range(DatasetSpec(lo=1, hi=1))[0].to_dict())
    path = tmp_path / "bad.jsonl"
    path.write_text(f'{good}\n\n{good.replace("[", "[7, ", 1)}\n')
    with pytest.raises(GenerationError, match=":3: bad record"):
        read_jsonl(path)


def test_read_jsonl_interns_tokens(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(gen_successor_range(DatasetSpec(lo=5, hi=6)), path)
    five, six = read_jsonl(path)
    assert (five.input, six.input) == (["X1", "X0", "01"], ["X0", "X1", "01"])
    assert five.input[0] is six.input[1] and five.target[2] is six.target[2]


def _collections_during(read, path) -> list[int]:
    """The generation of each collection the collector starts while read(path) runs."""
    generations = []

    def count(phase, info):
        if phase == "start":
            generations.append(info["generation"])

    gc.callbacks.append(count)
    try:
        read(path)
    finally:
        gc.callbacks.remove(count)
    return generations


def test_reading_records_starts_no_collection(tmp_path):
    # a count, not a time: 5,000 records leave far more tracked containers
    # than a young-generation collection waits for
    path = tmp_path / "d.jsonl"
    write_jsonl(gen_successor_range(DatasetSpec(lo=1, hi=5000)), path)
    assert gc.isenabled()
    assert _collections_during(read_jsonl, path) == []
    assert gc.isenabled()


@pytest.mark.parametrize("read,bad", [
    (read_jsonl, "not json"),
    (read_jsonl, '{"id": "a", "task": "successor", "input": "X1 01", "target": []}'),
    (read_traces, "not json"),
    (read_traces, '{"id": "a", "task": "successor", "input": ["01"], "trace": 5}'),
])
def test_a_reader_that_raises_turns_the_collector_back_on(tmp_path, read, bad):
    path = tmp_path / "bad.jsonl"
    path.write_text(bad + "\n")
    with pytest.raises(GenerationError, match=":1: bad"):
        read(path)
    assert gc.isenabled()


# each reader with its error type and its message for a line that is JSON
# but not an object
_READERS = [
    (read_jsonl, GenerationError, "bad record (a record must be a JSON object)"),
    (read_predictions, EvalError, "need an object with id and candidates fields"),
    (read_traces, GenerationError,
     "bad trace record (a trace record must be an object with string task and trace)"),
]


@pytest.mark.parametrize("read,error,not_an_object", _READERS)
@pytest.mark.parametrize("text,lineno,message", [
    ("{} {}\n", 1, "bad JSON (Extra data: line 1 column 4 (char 3))"),
    ('{"id": "a", "candidates": [\n', 1, "bad JSON (Expecting value: line 1 column 28 (char 27))"),
    ('{"id": "a", "candidates": ["X1 01"\n', 1,
     "bad JSON (Expecting ',' delimiter: line 1 column 35 (char 34))"),
    ('\ufeff{"id": "a"}\n', 1, "bad JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
                               "line 1 column 1 (char 0))"),
    ("\n\ufeff{}\n", 2, "bad JSON (Unexpected UTF-8 BOM (decode using utf-8-sig): "
                         "line 1 column 1 (char 0))"),
    ("NaN\n", 1, None),
    ("-Infinity\n", 1, None),
    ("[1, 2]\n", 1, None),
    ("[]\n", 1, None),
    ("5\n", 1, None),
    ('"text"\n', 1, None),
    ("null\n", 1, None),
    ("\n  \n\t\n{} {}\n", 4, "bad JSON (Extra data: line 1 column 4 (char 3))"),
    ("\r\n\n5 6\r\n", 3, "bad JSON (Extra data: line 1 column 3 (char 2))"),
    ("\n\n\n\n5", 5, None),
    ("not json\n", 1, "bad JSON (Expecting value: line 1 column 1 (char 0))"),
    ("{\"a\": 1}}\n", 1, "bad JSON (Extra data: line 1 column 9 (char 8))"),
    ("{\"a\": 1}\u3000x\n", 1, "bad JSON (Extra data: line 1 column 9 (char 8))"),
])
def test_reader_errors_keep_their_text_and_line(tmp_path, read, error, not_an_object,
                                                text, lineno, message):
    path = tmp_path / "bad.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(error) as err:
        read(path)
    assert str(err.value) == f"{path}:{lineno}: {message or not_an_object}"
    assert gc.isenabled()


def test_blank_lines_alone_read_as_no_records(tmp_path):
    path = tmp_path / "blank.jsonl"
    path.write_text("\n  \n\t\r\n\u3000\n")
    for read, _, _ in _READERS:
        assert read(path) == []


@pytest.mark.parametrize("read,error,_", _READERS)
def test_a_line_that_is_not_utf8_is_bad_json_at_its_line(tmp_path, read, error, _):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"\n" * 3 + b'{"id": "a\xff"}\n' + b"\n" * 10000)
    with pytest.raises(error) as err:
        read(path)
    assert str(err.value) == (f"{path}:4: bad JSON ('utf-8' codec can't decode byte 0xff "
                              "in position 9: invalid start byte)")
    assert gc.isenabled()


@pytest.mark.parametrize("read,error,_", _READERS)
def test_an_earlier_bad_line_is_named_before_a_later_byte_that_is_not_utf8(
        tmp_path, read, error, _):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"not json\n" + b'{"id": "\xc3"}\n')
    with pytest.raises(error, match=":1: bad JSON \\(Expecting value"):
        read(path)


@pytest.mark.parametrize("read,error,_", _READERS)
def test_deep_nesting_is_bad_json_at_its_line(tmp_path, read, error, _):
    path = tmp_path / "deep.jsonl"
    path.write_text("\n" + "[" * 100000 + "]" * 100000 + "\n")
    with pytest.raises(error, match=r"^.*deep\.jsonl:2: bad JSON \(.*recursion"):
        read(path)
    assert gc.isenabled()


def test_a_reader_leaves_a_disabled_collector_disabled(tmp_path):
    path = tmp_path / "d.jsonl"
    write_jsonl(gen_successor_range(DatasetSpec(lo=1, hi=3)), path)
    gc.disable()
    try:
        read_jsonl(path)
        assert not gc.isenabled()
        path.write_text("not json\n")
        with pytest.raises(GenerationError):
            read_jsonl(path)
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_trace_files_round_trip(tmp_path):
    records = gen_traces(DatasetSpec(task=SUCCESSOR, lo=1, hi=10))
    path = tmp_path / "traces.jsonl"
    write_jsonl(records, path)
    back = read_traces(path)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in records]


def test_manifest_records_digest_and_spec(tmp_path):
    spec = DatasetSpec(task=SUCCESSOR, lo=1, hi=20, seed=3)
    data = tmp_path / "d.jsonl"
    manifest = tmp_path / "d.manifest.json"
    records = gen_successor_range(spec)
    write_jsonl(records, data)
    write_manifest(manifest, spec, data, len(records))
    doc = json.loads(manifest.read_text())
    assert doc["sha256"] == file_digest(data)
    assert doc["records"] == 20
    assert doc["seed"] == 3
    assert doc["spec"]["task"] == SUCCESSOR
    assert doc["spec"]["lo"] == 1 and doc["spec"]["hi"] == 20


def test_record_meta_omits_unset_fields():
    meta = RecordMeta(edge_group=0)
    assert "value" not in meta.to_dict()
    record = ExampleRecord(id="x", task="t", order=None, input=["a"], target=["b"])
    assert ExampleRecord.from_dict(record.to_dict()) == record



_META = RecordMeta(value=5, bits=3, depth=2, edge_group=1)
_META_REPR = "RecordMeta(value=5, bits=3, depth=2, edge_group=1, pad_len=0)"
_META_DICT = {"value": 5, "bits": 3, "depth": 2, "edge_group": 1, "pad_len": 0}


# each record class: an instance, one field and another value for it, its
# repr and its asdict, as they were before the classes were slotted
@pytest.mark.parametrize("record, name, other, text, as_dict", [
    (_META, "bits", 4, _META_REPR, _META_DICT),
    (ExampleRecord("a", "successor", "reverse", ["X1", "01"], ["X0", "X1", "01"], _META),
     "target", ["X0", "01"],
     "ExampleRecord(id='a', task='successor', order='reverse', input=['X1', '01'], "
     f"target=['X0', 'X1', '01'], meta={_META_REPR})",
     {"id": "a", "task": "successor", "order": "reverse", "input": ["X1", "01"],
      "target": ["X0", "X1", "01"], "meta": _META_DICT}),
    (TraceRecord("t", "successor", ["X1", "01"], "( X1 01 ) = X0 ( 01 ) = X0 X0 01"),
     "trace", "X0 X0 01",
     "TraceRecord(id='t', task='successor', input=['X1', '01'], "
     "trace='( X1 01 ) = X0 ( 01 ) = X0 X0 01')",
     {"id": "t", "task": "successor", "input": ["X1", "01"],
      "trace": "( X1 01 ) = X0 ( 01 ) = X0 X0 01"}),
    (PredictionRecord("p", [["X0", "01"], ["01"]]), "candidates", [],
     "PredictionRecord(id='p', candidates=[['X0', '01'], ['01']])",
     {"id": "p", "candidates": [["X0", "01"], ["01"]]}),
])
def test_record_classes_are_slotted(record, name, other, text, as_dict):
    assert "__slots__" in vars(type(record)) and not hasattr(record, "__dict__")
    with pytest.raises(AttributeError):
        record.astrology = 1
    assert repr(record) == text
    assert dataclasses.asdict(record) == as_dict
    changed = dataclasses.replace(record, **{name: other})
    assert getattr(changed, name) == other and changed != record
    assert dataclasses.replace(changed, **{name: getattr(record, name)}) == record
    shallow = copy.copy(record)
    assert shallow == record and shallow is not record
    assert all(getattr(shallow, f.name) is getattr(record, f.name)
               for f in dataclasses.fields(record))
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):  # 0 and 1 cannot carry slots
        assert pickle.loads(pickle.dumps(record, protocol)) == record


# ---------------------------------------------------------------------------
# spec validation


@pytest.mark.parametrize("kwargs", [
    {"order": "sideways"},
    {"lo": 0},
    {"lo": 5, "hi": 4},
    {"hi": 2**31 + 1},
    {"bits_lo": 0},
    {"kind": "zigzag"},
    {"k": 0},
    {"depth_lo": 3, "depth_hi": 2},
    {"alphabet": ""},
    {"max_pad": -1},
    {"oversample_group1": 0},
])
def test_spec_validation_rejects(kwargs):
    with pytest.raises(GenerationError):
        DatasetSpec(**kwargs).validate()


def test_read_traces_names_the_physical_line_after_blank_lines(tmp_path):
    good = json.dumps(gen_traces(DatasetSpec(task=SUCCESSOR, lo=1, hi=1))[0].to_dict())
    bad = json.dumps({**json.loads(good), "trace": 5})
    path = tmp_path / "traces.jsonl"
    path.write_text(f"{good}\n\n  \n{bad}\n")
    with pytest.raises(GenerationError, match=":4: bad trace record"):
        read_traces(path)
