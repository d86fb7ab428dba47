"""Deterministic dataset generation for the successor and traversal tasks.

Every record draws from its own RNG seeded by hashing the global seed
with a stream tag and the record index, so output depends only on the
generation spec and seed, never on schedule or platform.  Files are
JSONL with one record per line and a fixed key order, making equal
specs produce byte-identical bytes.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import dataclass, field, fields, replace

from .errors import GenerationError
from .reduction import (
    ARROW,
    PAREN,
    Call,
    ListLit,
    Value,
    reduce,
    reduce_k,
    render_state_paren,
    render_state_unroll,
    render_trace,
)
from .shortcuts import edge_group
from .terms import (
    NATURAL,
    REVERSE,
    Term,
    _bin_tokens,
    _check_injective,
    _respelled,
    _spanned,
    bin_encode,
    bin_x1_run,
    intern_tokens,
    linearize,
    normalize_tokens,
    tree_serialize,
)

DEFAULT_SEED = 1729
PAD_TOKEN = "PAD"

# tokens that a vocabulary remap leaves alone unless explicitly mapped
STRUCTURAL_TOKENS = ("(", ")", "LEAF", "UNROLL[", "]", "EMPTY", PAD_TOKEN)

SUCCESSOR = "successor"
SUCCESSOR_RANDOM = "successor_random"
SINGLE_STEP = "single_step"
TRAVERSAL = "traversal"
TRACES = "traces"


def record_rng(seed: int, stream: str, index) -> random.Random:
    """Per-record RNG; the built-in hash() is salted, so derive the seed
    from a stable digest instead."""
    return random.Random(_record_seed(seed, stream, index))


def _record_seed(seed: int, stream: str, index) -> int:
    digest = hashlib.sha256(f"{seed}/{stream}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class RecordMeta:
    value: int | None = None
    bits: int | None = None
    depth: int | None = None
    edge_group: int = 0
    pad_len: int = 0
    weight: int = 1

    def to_dict(self) -> dict:
        out = {}
        for key in ("value", "bits", "depth"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        out.update(edge_group=self.edge_group, pad_len=self.pad_len, weight=self.weight)
        return out


# RecordMeta's fields in order, and their defaults
_META_KEYS, _META_DEFAULTS = zip(*((f.name, f.default) for f in fields(RecordMeta)))


@dataclass
class ExampleRecord:
    id: str
    task: str
    order: str | None
    input: list[str]
    target: list[str]
    meta: RecordMeta = field(default_factory=RecordMeta)

    def to_dict(self) -> dict:
        return {
            "id": self.id,
            "task": self.task,
            "order": self.order,
            "input": list(self.input),
            "target": list(self.target),
            "meta": self.meta.to_dict(),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "ExampleRecord":
        """Tokens are interned, so equal tokens across records are one
        object; raises TypeError on a field of the wrong type."""
        if not isinstance(obj, dict):
            raise TypeError("a record must be a JSON object")
        meta_obj = obj.get("meta", {})
        if not isinstance(meta_obj, dict):
            raise TypeError("meta must be an object")
        meta = list(map(meta_obj.get, _META_KEYS, _META_DEFAULTS))
        for key, val in zip(_META_KEYS, meta):
            if val is not None and type(val) is not int:  # JSON true/false are bools, not ints
                raise TypeError(f"meta {key} must be an integer or null")
        return cls(str(obj["id"]), obj["task"], obj.get("order"),
                   intern_tokens(obj["input"], "input"), intern_tokens(obj["target"], "target"),
                   RecordMeta(*meta))


@dataclass
class TraceRecord:
    id: str
    task: str
    input: list[str]
    trace: str

    def to_dict(self) -> dict:
        return {"id": self.id, "task": self.task, "input": list(self.input),
                "trace": self.trace}

    @classmethod
    def from_dict(cls, obj: dict) -> "TraceRecord":
        """Tokens are interned; raises TypeError on a field of the wrong type."""
        if not isinstance(obj, dict) or not all(
                isinstance(obj[key], str) for key in ("task", "trace")):
            raise TypeError("a trace record must be an object with string task and trace")
        return cls(id=str(obj["id"]), task=obj["task"],
                   input=intern_tokens(obj["input"], "input"), trace=obj["trace"])


@dataclass
class DatasetSpec:
    """Every knob the generators read; unused fields are ignored by the
    tasks that do not need them."""

    task: str = SUCCESSOR
    order: str = REVERSE
    lo: int = 1
    hi: int = 131072
    bits_lo: int = 18
    bits_hi: int = 41
    count: int = 1000
    kind: str = "inorder"
    k: int | None = None
    depth_lo: int = 5
    depth_hi: int = 6
    alphabet: str = "abc"
    train_count: int = 20000
    test_count: int = 1000
    max_pad: int = 0
    pad_token: str = PAD_TOKEN
    remap: dict | None = None
    oversample_group1: int = 1
    oversample_group2: int = 1
    weight_group1: int = 1
    weight_group2: int = 1
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        if self.order not in (REVERSE, NATURAL):
            raise GenerationError(f"unknown order: {self.order!r}")
        if not 1 <= self.lo <= self.hi <= 2**31:
            raise GenerationError(f"value range must sit inside 1..2^31, got {self.lo}..{self.hi}")
        if self.bits_lo < 1 or self.bits_lo > self.bits_hi:
            raise GenerationError(f"bad bit range {self.bits_lo}..{self.bits_hi}")
        if self.kind not in ("inorder", "preorder"):
            raise GenerationError(f"unknown traversal kind: {self.kind!r}")
        if self.k is not None and self.k < 1:
            raise GenerationError("k must be at least 1 when set")
        if self.depth_lo < 1 or self.depth_lo > self.depth_hi:
            raise GenerationError(
                f"tree depth range must start at 1 or more, got {self.depth_lo}..{self.depth_hi}"
            )
        if not self.alphabet:
            raise GenerationError("alphabet must not be empty")
        if self.max_pad < 0:
            raise GenerationError("max_pad must be non-negative")
        if self.oversample_group1 < 1 or self.oversample_group2 < 1:
            raise GenerationError("oversample factors must be at least 1")
        if self.weight_group1 < 1 or self.weight_group2 < 1:
            raise GenerationError("weights must be at least 1")


# ---------------------------------------------------------------------------
# successor records


def _ordered(tokens: list[str], order: str) -> list[str]:
    return tokens if order == REVERSE else list(reversed(tokens))


def _successor_record(rec_id: str, task: str, value: int, order: str,
                      weight_group1: int = 1, weight_group2: int = 1) -> ExampleRecord:
    group = edge_group(value)
    weight = {1: weight_group1, 2: weight_group2}.get(group, 1)
    return ExampleRecord(
        id=rec_id,
        task=task,
        order=order,
        input=_ordered(_bin_tokens(value), order),
        target=_ordered(_bin_tokens(value + 1), order),
        meta=RecordMeta(
            value=value,
            bits=value.bit_length(),
            depth=bin_x1_run(value) + 1,  # closed form; tests pin it to the engine
            edge_group=group,
            weight=weight,
        ),
    )


def gen_successor_range(spec: DatasetSpec) -> list[ExampleRecord]:
    """One record per value in lo..hi, target is the successor in the
    same order."""
    spec.validate()
    return [
        _successor_record(
            f"succ-{spec.order}-{value}", SUCCESSOR, value, spec.order,
            spec.weight_group1, spec.weight_group2,
        )
        for value in range(spec.lo, spec.hi + 1)
    ]


def gen_successor_random(spec: DatasetSpec) -> list[ExampleRecord]:
    """count records: uniform bit length in bits_lo..bits_hi, then a
    uniform value of that length."""
    spec.validate()
    records = []
    for i in range(spec.count):
        rng = record_rng(spec.seed, f"succ-random-{spec.order}", i)
        bits = rng.randint(spec.bits_lo, spec.bits_hi)
        value = rng.randint(2 ** (bits - 1), 2**bits - 1)
        records.append(
            _successor_record(
                f"rand-{spec.order}-{i:05d}", SUCCESSOR_RANDOM, value, spec.order,
                spec.weight_group1, spec.weight_group2,
            )
        )
    return records


def gen_edge_records(spec: DatasetSpec, bit_lengths) -> tuple[list[ExampleRecord], list[ExampleRecord]]:
    """The two edge groups as successor records, one member per bit length."""
    from .shortcuts import group1_value, group2_value

    lengths = sorted(set(bit_lengths))
    if not lengths:
        raise GenerationError("empty bit-length range")
    g1 = [
        _successor_record(f"edge1-{spec.order}-{L}", SUCCESSOR, group1_value(L), spec.order,
                          spec.weight_group1, spec.weight_group2)
        for L in lengths if L >= 2
    ]
    g2 = [
        _successor_record(f"edge2-{spec.order}-{L}", SUCCESSOR, group2_value(L), spec.order,
                          spec.weight_group1, spec.weight_group2)
        for L in lengths if L >= 3
    ]
    return g1, g2


def gen_single_step(spec: DatasetSpec) -> list[ExampleRecord]:
    """Consecutive paren-form state pairs from every successor trace in
    lo..hi; each pair is one step_level application."""
    spec.validate()
    records = []
    for value in range(spec.lo, spec.hi + 1):
        term = bin_encode(value)
        _, trace = reduce(Call("s", (Value(term),)))
        states = [render_state_paren(state) for state in trace.states()]
        for step_i in range(len(states) - 1):
            records.append(
                ExampleRecord(
                    id=f"sstep-{value}-{step_i}",
                    task=SINGLE_STEP,
                    order=REVERSE,
                    input=states[step_i],
                    target=states[step_i + 1],
                    meta=RecordMeta(
                        value=value,
                        bits=value.bit_length(),
                        depth=len(states) - 1,
                        edge_group=edge_group(value),
                    ),
                )
            )
    return records


# ---------------------------------------------------------------------------
# trees


@dataclass
class TreeSample:
    id: str
    tree: Term
    depth: int
    split: str

    def to_dict(self) -> dict:
        return {"id": self.id, "depth": self.depth, "split": self.split,
                "tokens": tree_serialize(self.tree)}


@dataclass
class SplitSpec:
    """Id lists plus canonical-structure digests witnessing disjointness."""

    train_ids: list[str]
    test_ids: list[str]
    train_keys: set[str]
    test_keys: set[str]

    def overlap(self) -> set[str]:
        return self.train_keys & self.test_keys


def tree_key(tree: Term) -> str:
    return hashlib.sha256(" ".join(tree_serialize(tree)).encode()).hexdigest()


def count_trees(max_depth: int, alphabet_size: int) -> int:
    """Distinct labeled trees of depth <= max_depth."""
    total = 1  # the bare leaf
    for _ in range(max_depth):
        total = 1 + alphabet_size * total * total
    return total


def count_trees_exact(depth: int, alphabet_size: int) -> int:
    return count_trees(depth, alphabet_size) - count_trees(depth - 1, alphabet_size)


_BRANCH_PROB = 0.8
_MAX_TRIES = 1000


# a candidate tree is a leaf, or (depth, value, left, right): plain tuples,
# so a candidate of the wrong depth costs no Term
_LEAF = (0,)


def _branch(rng: random.Random, budget: int, alphabet: str) -> tuple:
    """A Branch candidate: its value, then each subtree in turn, which
    while budget lasts is a Branch with probability _BRANCH_PROB (the coin
    drawn before anything of the subtree)."""
    value = rng.choice(alphabet)
    left = (_branch(rng, budget - 1, alphabet)
            if budget and rng.random() <= _BRANCH_PROB else _LEAF)
    right = (_branch(rng, budget - 1, alphabet)
             if budget and rng.random() <= _BRANCH_PROB else _LEAF)
    return 1 + max(left[0], right[0]), value, left, right


def _as_term(node: tuple, leaf: Term) -> Term:
    if node is _LEAF:
        return leaf
    _, value, left, right = node
    return Term("Branch", (value,), (_as_term(left, leaf), _as_term(right, leaf)))


def sample_tree(rng: random.Random, depth: int, alphabet: str) -> Term:
    """Rejection-sample a tree of exactly the requested depth; the root
    is always a Branch."""
    if depth < 1:
        raise GenerationError("tree samples need depth >= 1 (a bare Leaf is not a sample)")
    for _ in range(_MAX_TRIES):
        tree = _branch(rng, depth - 1, alphabet)
        if tree[0] == depth:
            term = _as_term(tree, Term("Leaf"))  # one leaf term serves the whole tree
            # serialized once: its key and its records slice the root's span
            tokens = tree_serialize(term)
            return _spanned("Branch", term.payloads, term.children, (tokens, 0, len(tokens)),
                            "_tree_span")
    raise GenerationError(f"could not hit depth {depth} in {_MAX_TRIES} tries")


def gen_trees(spec: DatasetSpec) -> tuple[list[TreeSample], SplitSpec]:
    """Structure-disjoint train/test trees; the test split is balanced
    across the depth range."""
    spec.validate()
    depths = list(range(spec.depth_lo, spec.depth_hi + 1))
    available = count_trees(spec.depth_hi, len(spec.alphabet)) - count_trees(
        spec.depth_lo - 1, len(spec.alphabet)
    )
    if spec.train_count + spec.test_count > available:
        raise GenerationError(
            f"requested {spec.train_count + spec.test_count} trees but only "
            f"{available} distinct ones exist in depths {spec.depth_lo}..{spec.depth_hi}"
        )
    per_depth = spec.test_count // len(depths)
    extra = spec.test_count - per_depth * len(depths)
    test_quota = {d: per_depth + (1 if j < extra else 0) for j, d in enumerate(depths)}
    for d, quota in test_quota.items():
        if quota > count_trees_exact(d, len(spec.alphabet)):
            raise GenerationError(f"not enough distinct depth-{d} trees for the test split")

    samples: list[TreeSample] = []
    seen: set[str] = set()

    def draw(stream: str, index, depth: int | None) -> tuple[Term, int, str]:
        rng = record_rng(spec.seed, stream, index)
        for _ in range(_MAX_TRIES):
            d = depth if depth is not None else rng.choice(depths)
            tree = sample_tree(rng, d, spec.alphabet)
            key = tree_key(tree)
            if key not in seen:
                seen.add(key)
                return tree, d, key
        raise GenerationError(f"could not find a fresh tree after {_MAX_TRIES} tries")

    # test first: its per-depth quotas are exact, while train may fall back
    # to another depth when a shallow stratum is exhausted
    test_keys: set[str] = set()
    test_samples = []
    j = 0
    for d in depths:
        for _ in range(test_quota[d]):
            tree, _, key = draw("tree-test", j, d)
            test_samples.append(TreeSample(id=f"test-{j:04d}", tree=tree, depth=d, split="test"))
            test_keys.add(key)
            j += 1

    train_keys: set[str] = set()
    for i in range(spec.train_count):
        tree, d, key = draw("tree-train", i, None)
        samples.append(TreeSample(id=f"train-{i:05d}", tree=tree, depth=d, split="train"))
        train_keys.add(key)
    samples.extend(test_samples)

    split = SplitSpec(
        train_ids=[s.id for s in samples if s.split == "train"],
        test_ids=[s.id for s in samples if s.split == "test"],
        train_keys=train_keys,
        test_keys=test_keys,
    )
    return samples, split


def gen_traversal(samples, kind: str, k: int | None = None) -> list[ExampleRecord]:
    """Traversal records over tree samples: the target is either the full
    value list or the state after k levels in the flat traversal form."""
    if kind not in ("inorder", "preorder"):
        raise GenerationError(f"unknown traversal kind: {kind!r}")
    if k is not None and k < 1:
        raise GenerationError("k must be at least 1 when set")
    records = []
    for sample in samples:
        expr = Call(kind, (Value(sample.tree),))
        if k is None:
            final, _ = reduce(expr)
            assert isinstance(final, ListLit)
            target = list(final.items)
        else:
            state, _ = reduce_k(expr, k)
            target = render_state_unroll(state)
        records.append(
            ExampleRecord(
                id=f"{kind}-{'full' if k is None else k}-{sample.id}",
                task=kind,
                order=None,
                input=tree_serialize(sample.tree),
                target=target,
                meta=RecordMeta(depth=sample.depth),
            )
        )
    return records


# ---------------------------------------------------------------------------
# traces


def gen_traces(spec: DatasetSpec) -> list[TraceRecord]:
    """Fully rendered oracle traces for prompting and validator fixtures."""
    spec.validate()
    records = []
    if spec.task in (SUCCESSOR, TRACES):
        for value in range(spec.lo, spec.hi + 1):
            term = bin_encode(value)
            _, trace = reduce(Call("s", (Value(term),)))
            records.append(
                TraceRecord(
                    id=f"trace-succ-{value}",
                    task="successor",
                    input=linearize(term),
                    trace=render_trace(trace, PAREN),
                )
            )
        return records
    if spec.task == TRAVERSAL:
        tree_spec = replace(spec, train_count=spec.count, test_count=0)
        samples, _ = gen_trees(tree_spec)
        for sample in samples:
            _, trace = reduce(Call(spec.kind, (Value(sample.tree),)))
            records.append(
                TraceRecord(
                    id=f"trace-{spec.kind}-{sample.id}",
                    task=spec.kind,
                    input=tree_serialize(sample.tree),
                    trace=render_trace(trace, ARROW),
                )
            )
        return records
    raise GenerationError(f"no trace generator for task {spec.task!r}")


# ---------------------------------------------------------------------------
# post-processing


def apply_padding(records, max_pad: int, seed: int, pad_token: str = PAD_TOKEN):
    """Prefix each record's input and target with the same uniformly drawn
    number of pad tokens (0..max_pad inclusive)."""
    if max_pad < 0:
        raise GenerationError("max_pad must be non-negative")
    rng, out = random.Random(), []
    for i, record in enumerate(records):
        rng.seed(_record_seed(seed, "pad", i))  # record_rng(seed, "pad", i), reseeded
        pad = rng.randint(0, max_pad)
        prefix = [pad_token] * pad
        meta = record.meta
        out.append(ExampleRecord(
            record.id, record.task, record.order,
            prefix + list(record.input), prefix + list(record.target),
            RecordMeta(meta.value, meta.bits, meta.depth, meta.edge_group, pad, meta.weight)))
    return out


def apply_remap(records, mapping: dict):
    """Respell record tokens; structural tokens pass through unchanged
    unless the mapping names them explicitly."""
    full = dict(mapping)
    for tok in STRUCTURAL_TOKENS:
        full.setdefault(tok, tok)
    out = []
    for record in records:
        if not out:  # checked once, and only when there is a record to respell
            _check_injective(full)
        out.append(ExampleRecord(
            record.id, record.task, record.order,
            _respelled(record.input, full), _respelled(record.target, full), record.meta))
    return out


def oversample(records, group1_factor: int, group2_factor: int, seed: int):
    """Duplicate edge-group records by the given factors and reshuffle."""
    if group1_factor < 1 or group2_factor < 1:
        raise GenerationError("oversample factors must be at least 1")
    out = []
    for record in records:
        factor = {1: group1_factor, 2: group2_factor}.get(record.meta.edge_group, 1)
        out.extend([record] * factor)
    record_rng(seed, "oversample", 0).shuffle(out)
    return out


def postprocess(records, spec: DatasetSpec):
    """Remap, pad, and oversample, in that order."""
    if spec.remap:
        records = apply_remap(records, spec.remap)
    if spec.max_pad:
        records = apply_padding(records, spec.max_pad, spec.seed, spec.pad_token)
    if spec.oversample_group1 > 1 or spec.oversample_group2 > 1:
        records = oversample(records, spec.oversample_group1, spec.oversample_group2, spec.seed)
    return records


def build_dataset(spec: DatasetSpec) -> list[ExampleRecord]:
    """Generate, then post-process."""
    spec.validate()
    if spec.task == SUCCESSOR:
        records = gen_successor_range(spec)
    elif spec.task == SUCCESSOR_RANDOM:
        records = gen_successor_random(spec)
    elif spec.task == SINGLE_STEP:
        records = gen_single_step(spec)
    elif spec.task == TRAVERSAL:
        samples, _ = gen_trees(spec)
        records = gen_traversal([s for s in samples if s.split == "train"], spec.kind, spec.k)
    else:
        raise GenerationError(f"unknown task: {spec.task!r}")
    return postprocess(records, spec)


# ---------------------------------------------------------------------------
# files


# what json.dumps(obj, sort_keys=True, separators=(",", ":")) would build per call
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _dump_line(obj: dict) -> str:
    return _ENCODER.encode(obj)


def write_jsonl(records, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(_dump_line(record.to_dict()))
            handle.write("\n")


def _read_records(path, build, error=GenerationError, what="bad record ({})") -> list:
    """build(obj) for the JSON object on each non-blank line; a line that
    is not JSON, or whose object build rejects with KeyError or TypeError,
    raises error naming the file and its physical line."""
    records = []
    # records hold only strings, lists of interned strings and small
    # dataclasses, so they form no cycles and reference counting frees every
    # temporary; a collection here would only rescan the records read so far
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise error(f"{path}:{lineno}: bad JSON ({exc})") from None
                try:
                    records.append(build(obj))
                except (KeyError, TypeError) as exc:
                    raise error(f"{path}:{lineno}: {what.format(exc)}") from None
    finally:
        if was_enabled:
            gc.enable()
    return records


def read_jsonl(path) -> list[ExampleRecord]:
    return _read_records(path, ExampleRecord.from_dict)


def read_traces(path) -> list[TraceRecord]:
    return _read_records(path, TraceRecord.from_dict, what="bad trace record ({})")


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(path, spec: DatasetSpec, data_path, record_count: int) -> None:
    """Sidecar recording the generation spec, seed, and content digest."""
    doc = {
        "spec": {k: v for k, v in vars(spec).items()},
        "seed": spec.seed,
        "records": record_count,
        "sha256": file_digest(data_path),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
