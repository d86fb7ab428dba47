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
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, fields, replace
from functools import partial
from json.encoder import encode_basestring_ascii

from .errors import GenerationError, RemapError
from .reduction import ARROW, Call, Program, _style_of, builtin_programs, levels, render_states
from .terms import (
    CHAR_TREE,
    EMPTY_TOKEN,
    LEAF_TOKEN,
    LPAR,
    NATURAL,
    ONE,
    REVERSE,
    RPAR,
    UNROLL_CLOSE,
    UNROLL_OPEN,
    X0,
    X1,
    _STRUCTURAL,
    Term,
    _bin_tokens,
    _check_injective,
    _respelled,
    _spanned,
    bin_x1_run,
    edge_group,
    group1_value,
    group2_value,
    intern_tokens,
    tokenize,
    tree_serialize,
)

DEFAULT_SEED = 1729
PAD_TOKEN = "PAD"

# tokens that a vocabulary remap leaves alone unless explicitly mapped
STRUCTURAL_TOKENS = (LPAR, RPAR, LEAF_TOKEN, UNROLL_OPEN, UNROLL_CLOSE, EMPTY_TOKEN, PAD_TOKEN)

SUCCESSOR = "successor"
SUCCESSOR_RANDOM = "successor_random"
SINGLE_STEP = "single_step"
TRAVERSAL = "traversal"


@dataclass(frozen=True)
class _TraceTask:
    """A trace task: the program whose runs its traces show; for a
    traversal, the sibling program that the rule-order-swap check replays
    (the classic misreading applies the pieces in the other root-vs-subtree
    order, which is exactly the sibling traversal); and states: the rendered
    states of the run on a value, from one scan of its tokens (None if not one)."""

    program: Program
    swapped: Program | None = None
    states: Callable[[list[str]], Iterator[str] | None] | None = None


def _successor_states(tokens: list[str]) -> Iterator[str] | None:
    """With r the leading X1 run of a numeral's tokens, state i <= r is X0 i times, then
    ( tokens[i:] ); the last is X0 r times, then X1 tokens[r+1:] or, at a 01, X0 01."""
    if not tokens or tokens[-1] != ONE or tokens.count(X0) + tokens.count(X1) != len(tokens) - 1:
        return None
    r = tokens.index(X0) if X0 in tokens else len(tokens) - 1
    text, step = " ".join(tokens), len(X1) + 1  # tokens[i:] is text[i * step:] for i <= r
    last = f"{X1} {text[r * step + len(X0) + 1:]}" if tokens[r] == X0 else f"{X0} {ONE}"
    return (f"{X0} " * min(i, r) + (f"{LPAR} {text[i * step:]} {RPAR}" if i <= r else last)
            for i in range(r + 2))


def _tree_states(tokens: list[str], pre: bool) -> Iterator[str] | None:
    """The states of the inorder walk (preorder, with pre) of the tree the
    tokens serialize: the state after level k shows each node above depth k
    expanded in the walk's order (a leaf as nothing), and each node at depth
    k pending: a Branch as UNROLL[ its tokens ], a leaf as EMPTY."""
    above, want = [], None  # the nodes being read, each [start, value, left, right, end]
    for pos, tok in enumerate(tokens):  # want: None for a value, else LEAF_TOKEN or RPAR
        if want is None and tok not in _STRUCTURAL:
            above.append([pos, tok])
            want = LEAF_TOKEN
        elif not above or tok != want and (tok, want) != (LPAR, LEAF_TOKEN):
            return None
        elif tok == LPAR:
            want = None
        else:  # a LEAF, or the ) after the node just read: one more subtree of above[-1]
            above[-1].append(None if tok == LEAF_TOKEN else node)
            if len(above[-1]) < 4:
                want = LEAF_TOKEN
            else:
                node, want = above.pop(), RPAR
                node.append(pos + 1)
    return _tree_cuts(node, tokens, pre) if tokens and not above else None


def _tree_cuts(root: list, tokens: list[str], pre: bool) -> Iterator[str]:
    """Each state as texts and pending calls (a node, or None on a leaf)."""
    pieces = [root]
    while True:
        shown, cut = [], []
        for piece in pieces:
            if piece.__class__ is str:
                shown.append(piece)
                cut.append(piece)
            elif piece is None:
                shown.append(EMPTY_TOKEN)
            else:
                shown.append(f"{UNROLL_OPEN} {' '.join(tokens[piece[0]:piece[4]])} {UNROLL_CLOSE}")
                _, value, left, right, _ = piece
                cut += (value, left, right) if pre else (left, value, right)
        yield " ".join(shown)
        if cut == shown:  # only with no call pending: a fired one leaves a non-text or a gap
            return
        pieces = cut


_PROGRAMS = builtin_programs()
# the trace tasks by name, in the order the CLI lists them
_TRACE_TASKS = {SUCCESSOR: _TraceTask(_PROGRAMS["s"], states=_successor_states),
                "inorder": _TraceTask(_PROGRAMS["inorder"], _PROGRAMS["preorder"],
                                      partial(_tree_states, pre=False)),
                "preorder": _TraceTask(_PROGRAMS["preorder"], _PROGRAMS["inorder"],
                                       partial(_tree_states, pre=True))}
# the traversal kinds: the trace tasks that walk a tree
_TRAVERSALS = tuple(name for name, task in _TRACE_TASKS.items()
                    if task.program.arg_type is CHAR_TREE)


def record_rng(seed: int, stream: str, index) -> random.Random:
    """Per-record RNG; the built-in hash() is salted, so derive the seed
    from a stable digest instead."""
    return random.Random(_record_seed(seed, stream, index))


def _record_seed(seed: int, stream: str, index) -> int:
    digest = hashlib.sha256(f"{seed}/{stream}/{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(slots=True)
class RecordMeta:
    value: int | None = None
    bits: int | None = None
    depth: int | None = None
    edge_group: int = 0
    pad_len: int = 0

    def to_dict(self) -> dict:
        out = {}
        for key in ("value", "bits", "depth"):
            val = getattr(self, key)
            if val is not None:
                out[key] = val
        out.update(edge_group=self.edge_group, pad_len=self.pad_len)
        return out


# RecordMeta's fields in order, and their defaults
_META_KEYS, _META_DEFAULTS = zip(*((f.name, f.default) for f in fields(RecordMeta)))


@dataclass(slots=True)
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

    def _json_line(self, esc) -> str:
        escaped, order, meta = esc.__getitem__, self.order, self.meta
        bits = "" if (val := meta.bits) is None else f'"bits":{val},'
        depth = "" if (val := meta.depth) is None else f'"depth":{val},'
        value = "" if (val := meta.value) is None else f',"value":{val}'
        return (f'{{"id":{encode_basestring_ascii(self.id)},'
                f'"input":[{",".join(map(escaped, self.input))}],"meta":{{{bits}{depth}'
                f'"edge_group":{meta.edge_group},"pad_len":{meta.pad_len}{value}}},'
                f'"order":{"null" if order is None else escaped(order)},'
                f'"target":[{",".join(map(escaped, self.target))}],"task":{escaped(self.task)}}}\n')

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


@dataclass(slots=True)
class TraceRecord:
    id: str
    task: str
    input: list[str]
    trace: str

    def to_dict(self) -> dict:
        return {"id": self.id, "task": self.task, "input": list(self.input),
                "trace": self.trace}

    def _json_line(self, esc) -> str:
        return (f'{{"id":{encode_basestring_ascii(self.id)},'
                f'"input":[{",".join(map(esc.__getitem__, self.input))}],'
                f'"task":{esc[self.task]},"trace":{encode_basestring_ascii(self.trace)}}}\n')

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
    remap: dict | None = None
    oversample_group1: int = 1
    oversample_group2: int = 1
    seed: int = DEFAULT_SEED

    def validate(self) -> None:
        if self.order not in (REVERSE, NATURAL):
            raise GenerationError(f"unknown order: {self.order!r}")
        if not 1 <= self.lo <= self.hi <= 2**31:
            raise GenerationError(f"value range must sit inside 1..2^31, got {self.lo}..{self.hi}")
        if self.bits_lo < 1 or self.bits_lo > self.bits_hi:
            raise GenerationError(f"bad bit range {self.bits_lo}..{self.bits_hi}")
        if self.kind not in _TRAVERSALS:
            raise GenerationError(f"unknown traversal kind: {self.kind!r}")
        if self.k is not None and self.k < 1:
            raise GenerationError("k must be at least 1 when set")
        if self.depth_lo < 1 or self.depth_lo > self.depth_hi:
            raise GenerationError(
                f"tree depth range must start at 1 or more, got {self.depth_lo}..{self.depth_hi}"
            )
        if not self.alphabet:
            raise GenerationError("alphabet must not be empty")
        if any(ch.isspace() or ch in "()[]" for ch in self.alphabet):  # tokenize splits on these
            raise GenerationError(
                f"alphabet must hold no whitespace and none of ()[], got {self.alphabet!r}")
        for name in ("count", "train_count", "test_count", "max_pad"):
            if getattr(self, name) < 0:
                raise GenerationError(f"{name} must be non-negative")
        if self.oversample_group1 < 1 or self.oversample_group2 < 1:
            raise GenerationError("oversample factors must be at least 1")


# ---------------------------------------------------------------------------
# successor records


def _ordered(tokens: list[str], order: str) -> list[str]:
    return tokens if order == REVERSE else list(reversed(tokens))


def _successor_record(rec_id: str, task: str, value: int, spec: DatasetSpec) -> ExampleRecord:
    return ExampleRecord(
        id=rec_id,
        task=task,
        order=spec.order,
        input=_ordered(_bin_tokens(value), spec.order),
        target=_ordered(_bin_tokens(value + 1), spec.order),
        meta=RecordMeta(
            value=value,
            bits=value.bit_length(),
            depth=bin_x1_run(value) + 1,  # closed form; tests pin it to the engine
            edge_group=edge_group(value),
        ),
    )


def gen_successor_range(spec: DatasetSpec) -> list[ExampleRecord]:
    """One record per value in lo..hi, target is the successor in the
    same order."""
    spec.validate()
    return [_successor_record(f"succ-{spec.order}-{value}", SUCCESSOR, value, spec)
            for value in range(spec.lo, spec.hi + 1)]


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
            _successor_record(f"rand-{spec.order}-{i:05d}", SUCCESSOR_RANDOM, value, spec))
    return records


def gen_edge_records(spec: DatasetSpec) -> tuple[list[ExampleRecord], list[ExampleRecord]]:
    """The two edge groups as successor records, one member per bit length
    in bits_lo..bits_hi."""
    spec.validate()
    lengths = range(spec.bits_lo, spec.bits_hi + 1)
    g1 = [_successor_record(f"edge1-{spec.order}-{L}", SUCCESSOR, group1_value(L), spec)
          for L in lengths if L >= 2]
    g2 = [_successor_record(f"edge2-{spec.order}-{L}", SUCCESSOR, group2_value(L), spec)
          for L in lengths if L >= 3]
    return g1, g2


def gen_single_step(spec: DatasetSpec) -> list[ExampleRecord]:
    """Consecutive paren-form state pairs from every successor trace in
    lo..hi; each pair is one step_level application."""
    spec.validate()
    records, successor = [], _TRACE_TASKS[SUCCESSOR].states
    for value in range(spec.lo, spec.hi + 1):
        states = [state.split(" ") for state in successor(_bin_tokens(value))]
        depth, group = len(states) - 1, edge_group(value)
        for step_i in range(depth):
            meta = RecordMeta(value, value.bit_length(), depth, group)
            records.append(ExampleRecord(f"sstep-{value}-{step_i}", SINGLE_STEP, REVERSE,
                                         states[step_i], states[step_i + 1], meta))
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

    def _json_line(self, esc) -> str:
        return (f'{{"depth":{self.depth},"id":{encode_basestring_ascii(self.id)},'
                f'"split":{esc[self.split]},'
                f'"tokens":[{",".join(map(esc.__getitem__, tree_serialize(self.tree)))}]}}\n')


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
    return _count_trees(max_depth, alphabet_size, float("inf"))


def _count_trees(max_depth: int, alphabet_size: int, enough) -> int:
    """count_trees(max_depth, alphabet_size), or the count for a smaller
    depth once that passes enough: each depth squares the count, so an
    exact one soon has more digits than memory holds."""
    total = 1  # the bare leaf
    for _ in range(max_depth):
        if total > enough:
            break
        total = 1 + alphabet_size * total * total
    return total


_BRANCH_PROB = 0.8
_MAX_TRIES = 1000


def _branch(rng: random.Random, budget: int, alphabet: str, out: list, leaf: Term):
    """A Branch candidate and its depth, its serialized tokens appended to
    out as it is drawn: its value, then each subtree in turn, which while
    budget lasts is a Branch with probability _BRANCH_PROB (the coin drawn
    before anything of the subtree)."""
    value = rng.choice(alphabet)
    out.append(value)
    left_depth = right_depth = 0
    if budget and rng.random() <= _BRANCH_PROB:
        out.append("(")
        left, left_depth = _branch(rng, budget - 1, alphabet, out, leaf)
        out.append(")")
    else:
        left = leaf
        out.append("LEAF")
    if budget and rng.random() <= _BRANCH_PROB:
        out.append("(")
        right, right_depth = _branch(rng, budget - 1, alphabet, out, leaf)
        out.append(")")
    else:
        right = leaf
        out.append("LEAF")
    depth = left_depth if left_depth > right_depth else right_depth
    return _spanned("Branch", (value,), (left, right), None), depth + 1


def sample_tree(rng: random.Random, depth: int, alphabet: str) -> Term:
    """Rejection-sample a tree of exactly the requested depth; the root
    is always a Branch."""
    if depth < 1:
        raise GenerationError("tree samples need depth >= 1 (a bare Leaf is not a sample)")
    leaf = Term("Leaf")  # one leaf term serves the whole tree
    for _ in range(_MAX_TRIES):
        tokens: list[str] = []
        tree, got = _branch(rng, depth - 1, alphabet, tokens, leaf)
        if got == depth:  # its key and its records slice the tokens drawn with it
            return _spanned("Branch", tree.payloads, tree.children, None, (tokens, 0, len(tokens)))
    raise GenerationError(f"could not hit depth {depth} in {_MAX_TRIES} tries")


def gen_trees(spec: DatasetSpec) -> tuple[list[TreeSample], SplitSpec]:
    """Structure-disjoint train/test trees; the test split is balanced
    across the depth range."""
    spec.validate()
    depths = list(range(spec.depth_lo, spec.depth_hi + 1))
    # counted only as far as the request needs: a depth holds at least as
    # many trees as all shallower ones, so once a count passes the request
    # the trees suffice, and a shortfall is always counted exactly
    size, need = len(spec.alphabet), spec.train_count + spec.test_count
    below = _count_trees(spec.depth_lo - 1, size, need)
    available = _count_trees(spec.depth_hi, size, need + below) - below
    if need > available:
        raise GenerationError(
            f"requested {need} trees but only "
            f"{available} distinct ones exist in depths {spec.depth_lo}..{spec.depth_hi}"
        )
    per_depth = spec.test_count // len(depths)
    extra = spec.test_count - per_depth * len(depths)
    test_quota = {d: per_depth + (1 if j < extra else 0) for j, d in enumerate(depths)}
    for d, quota in test_quota.items():
        shallower = _count_trees(d - 1, size, quota)
        if quota > 1 + size * shallower * shallower - shallower:  # the depth-d trees
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


def _walk(tree: Term, kind: str) -> list[str]:
    """The node values of tree in kind's order, by one walk down each left
    spine: the normal form of kind(tree); tests pin it to the engine.  The
    engine walks a tree off the char_tree shape, and raises its error."""
    pre, out, pending, node = kind == "preorder", [], [], tree
    try:
        while True:
            while node.constructor == "Branch":
                (value,), (node, right) = node.payloads, node.children
                if pre:
                    out.append(value)
                pending.append((value, right))
            if node.constructor != "Leaf" or node.payloads or node.children:
                break
            if not pending:
                "".join(out)  # TypeError for a value that is not a string
                return out
            value, node = pending.pop()
            if not pre:
                out.append(value)
    except (AttributeError, TypeError, ValueError):  # a node off the shape
        pass
    for engine in levels(Call(kind, (tree,))):  # raises before its normal form
        pass
    return list(engine.expr().items)


def gen_traversal(samples, spec: DatasetSpec) -> list[ExampleRecord]:
    """spec.kind traversal records over tree samples: the target is either
    the full value list or, with spec.k set, the state after k levels in
    the flat traversal form."""
    spec.validate()
    kind, k, records = spec.kind, spec.k, []
    for sample in samples:
        if k is None:
            target = _walk(sample.tree, kind)
        else:
            tree = sample.tree  # one keeping its span is its tokens; the engine walks others
            states = (_TRACE_TASKS[kind].states(tree_serialize(tree)) if tree._tree_span
                      else render_states(Call(kind, (tree,)), ARROW))
            for _, state in zip(range(k + 1), states):
                pass  # zip stops at state k, or after the normal form
            target = state.split(" ")
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
    if spec.task == SUCCESSOR:
        name = SUCCESSOR
        inputs = [(f"succ-{value}", _bin_tokens(value)) for value in range(spec.lo, spec.hi + 1)]
    elif spec.task == TRAVERSAL:
        name = spec.kind
        samples, _ = gen_trees(replace(spec, train_count=spec.count, test_count=0))
        inputs = [(f"{spec.kind}-{sample.id}", tree_serialize(sample.tree)) for sample in samples]
    else:
        raise GenerationError(f"no trace generator for task {spec.task!r}")
    row = _TRACE_TASKS[name]
    separator = _style_of(row.program).separator
    return [TraceRecord(f"trace-{key}", name, tokens, separator.join(row.states(tokens)))
            for key, tokens in inputs]


# ---------------------------------------------------------------------------
# post-processing


def postprocess(records, spec: DatasetSpec):
    """The records respelled by spec.remap, then prefixed on input and
    target with the same number of pad tokens (0..max_pad, each drawn with
    the record's own seed), then repeated by their edge group's oversample
    factor and shuffled, in one pass; records itself when no stage is on.
    Structural tokens, the pad token among them, pass through a remap
    unchanged unless it names them."""
    spec.validate()
    factors = {1: spec.oversample_group1, 2: spec.oversample_group2}
    shuffled = max(factors.values()) > 1
    if not (spec.remap or spec.max_pad or shuffled):
        return records
    full, pad = spec.remap and dict(spec.remap), PAD_TOKEN
    if full:
        for tok in STRUCTURAL_TOKENS:
            full.setdefault(tok, tok)
        if records:  # checked once, and only when there is a record to respell
            for spelling in full.values():  # eval reads text back by tokenize
                if not isinstance(spelling, str) or tokenize(spelling) != [spelling]:
                    raise RemapError(f"remap spelling {spelling!r} does not read back as itself")
            _check_injective(full)
        pad = full[PAD_TOKEN]
    rng, out = random.Random(), []
    for i, record in enumerate(records):
        if full or spec.max_pad:
            inp, target, meta = record.input, record.target, record.meta
            if full:
                inp, target = _respelled(inp, full), _respelled(target, full)
            if spec.max_pad:
                rng.seed(_record_seed(spec.seed, "pad", i))  # record_rng(seed, "pad", i), reseeded
                prefix = [pad] * rng.randint(0, spec.max_pad)
                inp, target = [*prefix, *inp], [*prefix, *target]
                meta = RecordMeta(meta.value, meta.bits, meta.depth, meta.edge_group, len(prefix))
            record = ExampleRecord(record.id, record.task, record.order, inp, target, meta)
        out += [record] * factors.get(record.meta.edge_group, 1)
    if shuffled:
        record_rng(spec.seed, "oversample", 0).shuffle(out)
    return out


# ---------------------------------------------------------------------------
# files


class _Escaped(dict):
    """token -> its JSON string, escaped once by the json encoder's own function"""

    def __missing__(self, token: str) -> str:
        self[token] = escaped = encode_basestring_ascii(token)
        return escaped


def write_jsonl(records, path) -> None:
    """One line per record, as json.dumps(record.to_dict(), sort_keys=True,
    separators=(",", ":")) spells it, built from the record's fields."""
    esc = _Escaped()
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        for record in records:
            handle.write(record._json_line(esc))


def _read_records(path, build, error=GenerationError, what="bad record ({})") -> list:
    """build(obj) for the JSON object on each non-blank line; a line that
    is not UTF-8 or not JSON, or whose object build rejects with KeyError or
    TypeError, raises error naming the file and its physical line."""
    # records hold only strings, lists of strings and small dataclasses, so
    # they form no cycles and reference counting frees every temporary; a
    # collection here would only rescan the records read so far
    was_enabled = gc.isenabled()
    gc.disable()
    records, scan = [], json.JSONDecoder().scan_once
    try:
        with open(path, encoding="utf-8", errors="surrogateescape") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj, end = scan(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = None
                if end != len(line) or not line.isascii():  # json.loads words the error
                    try:  # a byte that is not UTF-8 was read as a lone surrogate
                        text = line.encode("utf-8", "surrogateescape").decode("utf-8")
                        obj = obj if end == len(line) else json.loads(text)
                    except (ValueError, RecursionError) as exc:
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
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
