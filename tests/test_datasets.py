"""Dataset generation: determinism, splits, padding, respelling, files."""

import gc
import json
import random

import pytest

from structrec.datasets import (
    DatasetSpec,
    ExampleRecord,
    RecordMeta,
    SINGLE_STEP,
    SUCCESSOR,
    SUCCESSOR_RANDOM,
    TRAVERSAL,
    apply_padding,
    apply_remap,
    build_dataset,
    count_trees,
    count_trees_exact,
    file_digest,
    gen_edge_records,
    gen_single_step,
    gen_successor_random,
    gen_successor_range,
    gen_traces,
    gen_traversal,
    gen_trees,
    oversample,
    read_jsonl,
    read_traces,
    record_rng,
    tree_key,
    write_jsonl,
    write_manifest,
)
from structrec.errors import GenerationError, RemapError
from structrec.reduction import (
    Call,
    Value,
    builtin_programs,
    parse_state_paren,
    recursion_depth,
    reduce,
    render_state_paren,
    step_single,
)
from structrec.terms import BIN_POS, NATURAL, REVERSE, bin_encode, delinearize, tree_depth


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
    g1, g2 = gen_edge_records(DatasetSpec(order=REVERSE), range(2, 7))
    assert [r.meta.value for r in g1] == [3, 7, 15, 31, 63]
    assert [r.meta.value for r in g2] == [5, 11, 23, 47]
    assert all(r.meta.edge_group == 1 for r in g1)
    assert all(r.meta.edge_group == 2 for r in g2)


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
    assert count_trees_exact(2, 3) == 45


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
    # a draw walks its tree once; its key and its records slice that walk
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
    records = gen_traversal(samples, "inorder")
    # each draw is walked, then keyed; each record takes its input
    assert sum(walks) == len(drawn) >= len(samples)
    assert len(walks) == 2 * len(drawn) + len(records)
    for sample, record in zip(samples, records):
        built = Term("Branch", sample.tree.payloads, sample.tree.children)
        assert sample.tree == built and record.input == tree_serialize(built)


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
    for record, sample in zip(gen_traversal(samples, kind), samples):
        assert record.target == _ref_traversal(sample.tree, kind)
        assert record.meta.depth == sample.depth


def test_traversal_k_state_targets():
    spec = DatasetSpec(task=TRAVERSAL, depth_lo=3, depth_hi=3, train_count=40,
                       test_count=0, seed=15)
    samples, _ = gen_trees(spec)
    records = gen_traversal(samples, "inorder", k=1)
    for record, sample in zip(records, samples):
        assert "UNROLL[" in record.target
        # after depth+1 levels the state is the fully flattened list
    full = gen_traversal(samples, "inorder", k=4)
    for record, sample in zip(full, samples):
        assert record.target == _ref_traversal(sample.tree, "inorder")


def test_traversal_rejects_bad_k():
    with pytest.raises(GenerationError):
        gen_traversal([], "inorder", k=0)
    with pytest.raises(GenerationError):
        gen_traversal([], "postorder")


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
    padded = apply_padding(records, 4, seed=99)
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
    a = apply_padding(records, 3, seed=5)
    b = apply_padding(records, 3, seed=5)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_remap_respells_value_tokens_only():
    records = apply_padding(gen_successor_range(DatasetSpec(lo=1, hi=8)), 2, seed=1)
    mapped = apply_remap(records, {"01": "c", "X0": "a", "X1": "b"})
    for record in mapped:
        assert set(record.input) <= {"a", "b", "c", "PAD"}
        assert set(record.target) <= {"a", "b", "c", "PAD"}


def test_remap_can_target_structural_tokens_explicitly():
    records = gen_successor_range(DatasetSpec(lo=1, hi=4))
    padded = apply_padding(records, 1, seed=2)
    mapped = apply_remap(padded, {"01": "c", "X0": "a", "X1": "b", "PAD": "_"})
    tokens = {tok for r in mapped for tok in r.input}
    assert "PAD" not in tokens


def test_padding_draws_each_length_from_the_record_rng():
    records = gen_successor_range(DatasetSpec(lo=1, hi=50))
    padded = apply_padding(records, 5, seed=7, pad_token="_")
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
            apply_remap(records, mapping)
        assert str(raised.value) == "remap is not injective"
        assert apply_remap([], mapping) == []


def test_remap_names_the_first_token_outside_its_domain():
    record = ExampleRecord("r", SUCCESSOR, None, ["X1", "Z", "Q", "01"], ["X0", "X1", "01"])
    with pytest.raises(RemapError) as raised:
        apply_remap([record], {"01": "c", "X0": "a", "X1": "b"})
    assert str(raised.value) == "token outside remap domain: 'Z'"


def test_remap_normalizes_an_alias_before_respelling_it():
    record = ExampleRecord("r", SUCCESSOR, None, ["X1", "XO", "01"], ["XO", "X1", "01"])
    (mapped,) = apply_remap([record], {"01": "c", "X0": "a", "X1": "b"})
    assert (mapped.input, mapped.target) == (["b", "a", "c"], ["a", "b", "c"])
    assert (mapped.id, mapped.task, mapped.meta) == ("r", SUCCESSOR, record.meta)
    assert record.input == ["X1", "XO", "01"]


def test_oversample_counts():
    records = gen_successor_range(DatasetSpec(lo=1, hi=64))
    over = oversample(records, 5, 3, seed=42)
    counts = {}
    for record in over:
        counts[record.id] = counts.get(record.id, 0) + 1
    for record in records:
        want = {1: 5, 2: 3}.get(record.meta.edge_group, 1)
        assert counts[record.id] == want
    assert len(over) == sum(counts.values())


def test_oversample_shuffles_deterministically():
    records = gen_successor_range(DatasetSpec(lo=1, hi=64))
    a = oversample(records, 5, 1, seed=42)
    b = oversample(records, 5, 1, seed=42)
    assert [r.id for r in a] == [r.id for r in b]
    assert [r.id for r in a] != [r.id for r in records]


def test_build_dataset_rejects_unknown_task():
    with pytest.raises(GenerationError):
        build_dataset(DatasetSpec(task="mystery"))


# ---------------------------------------------------------------------------
# files


def test_jsonl_round_trip_and_byte_identity(tmp_path):
    spec = DatasetSpec(task=SUCCESSOR, lo=1, hi=100, max_pad=3,
                       oversample_group1=2, seed=5)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(build_dataset(spec), a)
    write_jsonl(build_dataset(spec), b)
    assert a.read_bytes() == b.read_bytes()
    back = read_jsonl(a)
    assert [r.to_dict() for r in back] == [r.to_dict() for r in build_dataset(spec)]


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
    records = build_dataset(spec)
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
    {"weight_group2": 0},
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
