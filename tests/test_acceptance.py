"""End-to-end acceptance checks.

Each test prints one verdict line; run `pytest -s tests/test_acceptance.py`
to see them all.  Criterion 4's full literal sweep over every labeled tree
of depth <= 4 (155,692,849 trees) takes hours; the default run covers every
labeled tree of depth <= 3, every depth-4 shape under three labelings, and
1,000 random deep trees.  Set STRUCTREC_EXHAUSTIVE=1 to run the full sweep.
"""

import itertools
import os
import random
import time

from structrec.datasets import (
    DEFAULT_SEED,
    DatasetSpec,
    build_dataset,
    gen_edge_records,
    gen_successor_random,
    gen_successor_range,
    gen_trees,
    postprocess,
    record_rng,
    sample_tree,
    write_jsonl,
)
from structrec.evaluation import (
    TOKEN_MUTATION,
    TRACE_ERRORS,
    PredictionRecord,
    exact_match,
    hit_at_k,
    validate_trace,
)
from structrec.reduction import (
    ARROW,
    PAREN,
    Call,
    ListLit,
    recursion_depth,
    reduce,
    render_trace,
)
from structrec.asm import rasm_run, successor_rasm
from structrec.shortcuts import FAITHFUL, diff_against_oracle
from structrec.terms import (
    BIN_POS,
    NATURAL,
    bin_encode,
    bin_value,
    bin_x1_run,
    branch,
    delinearize,
    leaf,
    linearize,
    peano_encode,
    tokenize,
    tree_serialize,
)


def _verdict(num, ok, description):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}: {description}"
    print(line)
    assert ok, line


def _successor(n):
    return reduce(Call("s", (bin_encode(n),)))


# ---------------------------------------------------------------------------


def test_criterion_01_successor_oracle():
    """value(reduce(s(encode(n)))) = n + 1 for every n in 1..131072."""
    started = time.perf_counter()
    correct = 0
    for n in range(1, 131072 + 1):
        final, _ = _successor(n)
        if bin_value(final) == n + 1:
            correct += 1
    elapsed = time.perf_counter() - started
    ok = correct == 131072 and elapsed < 30.0
    _verdict(1, ok, f"successor oracle exact on {correct}/131072 values "
                    f"in {elapsed:.1f}s (< 30s)")


def test_criterion_02_pinned_examples():
    """The worked examples reproduce token for token."""
    pairs = [
        ("01", "XO 01"),
        ("X0 01", "X1 01"),
        ("X1 01", "XO XO 01"),
        ("XO XO 01", "X1 X0 01"),
        ("X1 X0 01", "XO X1 01"),
        ("XO X1 01", "X1 X1 01"),
    ]
    ok = True
    for arg, want in pairs:
        term = delinearize(tokenize(arg), BIN_POS)
        final, _ = reduce(Call("s", (term,)))
        ok = ok and linearize(final) == tokenize(want)

    final, taken = _successor(11)
    ok = ok and linearize(final) == tokenize("XO XO X1 01") and taken == 3

    add_final, _ = reduce(Call("add", (peano_encode(2), peano_encode(1))))
    ok = ok and linearize(add_final) == ["S", "S", "I"]

    cat = branch("a", branch("c", leaf(), leaf()), branch("t", leaf(), leaf()))
    cat_final, cat_taken = reduce(Call("inorder", (cat,)))
    ok = ok and cat_final == ListLit(("c", "a", "t")) and cat_taken == 3

    _verdict(2, ok, "six successor pairs, the three-level eleven chain, "
                    "add (S I) I = S (S I), and the c-a-t traversal are bit-exact")


def test_criterion_03_depth_law():
    """Levels to normal form = trailing ones of the constructor string + 1."""
    bad = 0
    for n in range(1, 2**17 + 1):
        if recursion_depth(bin_encode(n)) != bin_x1_run(n) + 1:
            bad += 1
    _verdict(3, bad == 0, f"depth law holds for all n <= 2^17 ({bad} exceptions)")


def _all_trees(depth, alphabet):
    """Every labeled tree of depth <= depth, each exactly once."""
    yield leaf()
    if depth == 0:
        return
    subs = list(_all_trees(depth - 1, alphabet))
    for value in alphabet:
        for left in subs:
            for right in subs:
                yield branch(value, left, right)


def _relabel(shape, labels):
    if shape.constructor == "Leaf":
        return shape
    left, right = shape.children
    return branch(next(labels), _relabel(left, labels), _relabel(right, labels))


def _ref_traversal(tree, kind):
    if tree.constructor == "Leaf":
        return []
    left, right = tree.children
    mid = [tree.payloads[0]]
    if kind == "inorder":
        return _ref_traversal(left, kind) + mid + _ref_traversal(right, kind)
    return mid + _ref_traversal(left, kind) + _ref_traversal(right, kind)


def _tree_depth(tree):
    if tree.constructor == "Leaf":
        return 0
    return 1 + max(_tree_depth(c) for c in tree.children)


def test_criterion_04_traversal_equivalence():
    """Engine traversals equal direct recursion on exhaustive and random trees."""
    mismatches = 0
    checked = 0

    def check(tree):
        nonlocal mismatches, checked
        checked += 1
        for kind in ("inorder", "preorder"):
            final, _ = reduce(Call(kind, (tree,)))
            if list(final.items) != _ref_traversal(tree, kind):
                mismatches += 1

    if os.environ.get("STRUCTREC_EXHAUSTIVE") == "1":
        for tree in _all_trees(4, "abc"):
            check(tree)
        coverage = f"all {checked} labeled trees of depth <= 4"
    else:
        for tree in _all_trees(3, "abc"):
            check(tree)
        shallow = checked
        deep_shapes = [t for t in _all_trees(4, "x") if _tree_depth(t) == 4]
        for shape in deep_shapes:
            for letters in ("a", "abc", "cab"):
                check(_relabel(shape, itertools.cycle(letters)))
        rng = random.Random(DEFAULT_SEED)
        for i in range(1000):
            depth = rng.choice((5, 6))
            check(sample_tree(record_rng(DEFAULT_SEED, "acceptance-deep", i), depth, "abc"))
        coverage = (f"{shallow} labeled trees of depth <= 3, "
                    f"{len(deep_shapes)} depth-4 shapes x 3 labelings, 1000 random deep")

    _verdict(4, mismatches == 0, f"traversals match direct recursion on {coverage} "
                                 f"({mismatches} mismatches)")


def test_criterion_05_shortcut_fidelity():
    """Faithful natural-order runs agree off group 1 and fail on all of it,
    always one token short."""
    report = diff_against_oracle(NATURAL, FAITHFUL, 1, 2**17)
    values = sorted(d.value for d in report.disagreements)
    all_ones = [2**k - 1 for k in range(2, 18)]
    ok = (
        report.checked == 2**17
        and values == all_ones
        and all(d.label == "one-token-short" for d in report.disagreements)
        and all(d.edge_group == 1 for d in report.disagreements)
    )
    _verdict(5, ok, f"faithful emulator wrong on exactly the {len(values)} all-ones "
                    f"inputs of 2..17 bits, every miss one token short")


def test_criterion_06_rasm_agreement():
    """The recursive machine equals the reduction engine with one child
    agent per trailing one."""
    bad = 0
    spec = successor_rasm()
    for n in range(1, 4096 + 1):
        final, _ = _successor(n)
        result = rasm_run(spec, linearize(bin_encode(n)))
        if result.output != linearize(final) or result.agent_count != bin_x1_run(n):
            bad += 1
    _verdict(6, bad == 0, f"recursive machine agrees with the engine and spawns "
                          f"trailing-ones children for all n <= 4096 ({bad} failures)")


MUTATION_POOL = ("X0", "X1", "01", "(", ")", "a", "b", "c",
                 "LEAF", "UNROLL[", "]", "EMPTY")


def _mutate(text, rng):
    tokens = text.split(" ")
    positions = [i for i, tok in enumerate(tokens) if tok not in ("=", "->")]
    i = rng.choice(positions)
    choices = [tok for tok in MUTATION_POOL if tok != tokens[i]]
    tokens[i] = rng.choice(choices)
    return " ".join(tokens)


def test_criterion_07_trace_validator():
    """10,000 oracle traces pass; 10,000 one-token mutations all fail with
    a label; the skipped-copy trace is flagged at step 2."""
    traces = []
    for n in range(1, 9001):
        traces.append((render_trace(Call("s", (bin_encode(n),)), PAREN), "successor",
                       linearize(bin_encode(n))))
    samples, _ = gen_trees(DatasetSpec(task="traversal", depth_lo=2, depth_hi=4,
                                       train_count=1000, test_count=0,
                                       seed=DEFAULT_SEED))
    for sample in samples:
        traces.append((render_trace(Call("inorder", (sample.tree,)), ARROW), "inorder",
                       tree_serialize(sample.tree)))

    valid = sum(
        1 for text, task, input_tokens in traces
        if validate_trace(text, task, input_tokens=input_tokens).valid
    )

    flagged = 0
    for i, (text, task, input_tokens) in enumerate(traces):
        rng = record_rng(DEFAULT_SEED, "acceptance-mutate", i)
        judgment = validate_trace(_mutate(text, rng), task, input_tokens=input_tokens)
        if not judgment.valid and judgment.error in TRACE_ERRORS:
            flagged += 1

    skipping = ("( X1 X0 X1 X1 01 ) = X0 ( X0 X1 X1 01 ) = X0 X1 ( X1 01 ) = "
                "X0 X1 X0 ( 01 ) = X0 X1 X0 X0 01")
    judgment = validate_trace(skipping, "successor",
                              input_tokens=["X1", "X0", "X1", "X1", "01"])
    pinned = (not judgment.valid and judgment.first_bad_step == 2
              and judgment.error == TOKEN_MUTATION)

    ok = valid == 10000 and flagged == 10000 and pinned
    _verdict(7, ok, f"{valid}/10000 oracle traces valid, {flagged}/10000 mutations "
                    f"labeled invalid, skipped-copy trace flagged at step 2")


def test_criterion_08_determinism_and_splits(tmp_path):
    """Byte-identical regeneration; structure-disjoint tree splits at full
    size; value-disjoint successor train and test sets."""
    spec = DatasetSpec(task="successor", lo=1, hi=2048, max_pad=3,
                       oversample_group1=2, seed=DEFAULT_SEED)
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_jsonl(build_dataset(spec), a)
    write_jsonl(build_dataset(spec), b)
    bytes_equal = a.read_bytes() == b.read_bytes()

    _, split = gen_trees(DatasetSpec(task="traversal", depth_lo=5, depth_hi=6,
                                     train_count=20000, test_count=1000,
                                     seed=DEFAULT_SEED))
    split_ok = (len(split.train_ids), len(split.test_ids)) == (20000, 1000) \
        and not split.overlap()

    train_values = set(range(1, 131072 + 1))
    random_values = {
        r.meta.value
        for r in gen_successor_random(DatasetSpec(task="successor_random", count=1000,
                                                  bits_lo=18, bits_hi=41,
                                                  seed=DEFAULT_SEED))
    }
    g1, g2 = gen_edge_records(DatasetSpec(), range(18, 42))
    edge_values = {r.meta.value for r in g1} | {r.meta.value for r in g2}
    ranges_ok = not (train_values & random_values) and not (train_values & edge_values)

    ok = bytes_equal and split_ok and ranges_ok
    _verdict(8, ok, f"regeneration byte-identical: {bytes_equal}; tree split "
                    f"20000/1000 disjoint: {split_ok}; successor ranges disjoint: {ranges_ok}")


def test_criterion_09_oversampling_arithmetic():
    """k1 = 5 multiplies group-1 record counts by exactly five and leaves
    the rest alone."""
    records = gen_successor_range(DatasetSpec(lo=1, hi=2048))
    over = postprocess(records, DatasetSpec(oversample_group1=5, seed=DEFAULT_SEED))
    counts = {}
    for record in over:
        counts[record.id] = counts.get(record.id, 0) + 1
    ok = all(
        counts[r.id] == (5 if r.meta.edge_group == 1 else 1) for r in records
    ) and len(over) == len(records) + 4 * sum(
        1 for r in records if r.meta.edge_group == 1
    )
    _verdict(9, ok, "group-1 records appear exactly 5 times, all others exactly once")


def test_criterion_10_metric_laws():
    """exact match = Hit@1 and Hit@1 <= Hit@3 <= Hit@5 on random fixtures."""
    gold = gen_successor_range(DatasetSpec(lo=1, hi=500))
    ok = True
    for seed in (0, 1, 2, 3, 4):
        rng = random.Random(seed)
        preds = []
        for record in gold:
            candidates = [["X0"] * (j + 1) for j in range(5)]
            slot = rng.randrange(8)
            if slot < 6:
                candidates.insert(slot, list(record.target))
            preds.append(PredictionRecord(id=record.id, candidates=candidates[:5]))
        h1, h3, h5 = (hit_at_k(preds, gold, k) for k in (1, 3, 5))
        ok = ok and exact_match(preds, gold) == h1 and h1 <= h3 <= h5 and h5 < 1.0
    _verdict(10, ok, "exact match equals Hit@1 and Hit@k is monotone in k "
                     "across five seeded fixtures")
