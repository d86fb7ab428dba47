"""The four workloads: inputs made from a seed, the calls one round makes, and
the checks of every output.

A run repeats whole rounds of the same calls on the same inputs, so the count
of attempted operations depends only on the workload and the number of
rounds.  An operation is one item: a record written (gen), a record scored
(score), a trace judged (replay) or a value compared (shortcut).  It fails
when its call raises or exits non-zero, or when its output fails a check;
a failed check also marks the run incorrect.

Inputs are written by the benchmark with its own code (``oracle``), and the
checks compare against that code, never against structrec.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import random
import re
from collections import Counter
from pathlib import Path

import oracle


def run_cli(argv) -> tuple[int, str]:
    """structrec.cli.main in process; returns the exit code and stdout."""
    from structrec import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_json_lines(path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def write_json_lines(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, sort_keys=True))
            handle.write("\n")


class Raised:
    """The output slot of a call that raised; text is its traceback."""

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return self.text.strip().splitlines()[-1]


@dataclasses.dataclass
class RoundResult:
    """What one round's checks found: failed items, and whether any output
    was wrong (as opposed to a call that raised)."""

    failed: int = 0
    wrong: bool = False
    notes: list = dataclasses.field(default_factory=list)

    def fail(self, count: int, note: str, wrong: bool = True) -> None:
        self.failed += count
        self.wrong = self.wrong or wrong
        if len(self.notes) < 10:
            self.notes.append(note)


def _per_units(args, result):
    return len(result)


def _machine_init_hook(spans):
    def hook(machine):
        return dataclasses.replace(machine, init=spans.wrap("asm.init", machine.init))
    return hook


def _parser_hook(spans):
    def hook(parser):
        parser.parse_args = spans.wrap("cli.parse_args", parser.parse_args)
        return parser
    return hook


# ---------------------------------------------------------------------------
# gen


class Gen:
    """structrec gen successor (padding, remap, edge oversampling) and gen
    traversal for inorder and preorder, through structrec.cli.main."""

    name = "gen"
    rounds_per_s = 1.05
    load_repeats = 9
    max_pad = 3
    factors = {1: 4, 2: 3}  # oversampling of edge groups 1 and 2
    depths = (3, 6)

    def __init__(self, seed: int, workdir, size: int = 4000, trees: int = 300,
                 test: int = 100):
        rng = random.Random(f"gen/{seed}")
        self.seed = seed
        self.out = Path(workdir) / "gen"
        # the range holds exactly one member of each edge group at bit length
        # L, and none at L-1 or L+1, so every seed writes the same count
        bits = (size - 1).bit_length() + 1
        g1, g2 = 2**bits - 1, 3 * 2 ** (bits - 2) - 1
        self.lo = rng.randint(g1 - size + 1, g2)
        self.hi = self.lo + size - 1
        spellings = rng.sample(range(100, 1000), 3)
        self.remap = {tok: f"t{n}" for tok, n in zip((oracle.X0, oracle.X1, oracle.ONE), spellings)}
        self.trees, self.test = trees, test
        common = ["--seed", str(seed), "--out", str(self.out)]
        self.commands = [
            ["gen", "successor", "--range", f"{self.lo}:{self.hi}",
             "--max-pad", str(self.max_pad), "--remap", json.dumps(self.remap),
             "--oversample-g1", str(self.factors[1]), "--oversample-g2", str(self.factors[2]),
             *common],
        ] + [
            ["gen", "traversal", "--kind", kind, "--depths", "%d:%d" % self.depths,
             "--train", str(trees), "--test", str(test), *common]
            for kind in ("inorder", "preorder")
        ]
        self.expected_values = Counter()
        for n in range(self.lo, self.hi + 1):
            self.expected_values[n] = self.factors.get(oracle.edge_group(n), 1)
        self.command_items = [sum(self.expected_values.values()), trees + test, trees + test]
        self.items_per_round = sum(self.command_items)
        self.digests: dict[str, str] = {}

    def prepare(self) -> None:
        self.out.mkdir(parents=True, exist_ok=True)

    def load(self) -> None:
        from structrec import cli

        cli.build_parser()

    def calls(self):
        return [functools.partial(run_cli, argv) for argv in self.commands]

    def check(self, outputs) -> RoundResult:
        result = RoundResult()
        codes = [out if isinstance(out, Raised) else out[0] for out in outputs]
        for argv, code, items in zip(self.commands, codes, self.command_items):
            if code != 0:
                result.fail(items, f"{' '.join(argv[:4])} exited {code}", wrong=False)
        if codes[0] == 0:
            self.check_successor(result)
        for kind, code in zip(("inorder", "preorder"), codes[1:]):
            if code == 0:
                self.check_traversal(kind, result)
        return result

    def _file(self, stem: str, result: RoundResult, count: int):
        """Records of one written file, after checking its manifest and that
        its bytes equal the first round's; None when that failed."""
        path = self.out / f"{stem}.jsonl"
        try:
            records = read_json_lines(path)
            manifest = json.loads((self.out / f"{stem}.manifest.json").read_text())
        except (OSError, ValueError) as exc:
            result.fail(count, f"{stem}: unreadable ({exc})")
            return None
        digests = {name: sha256_file(self.out / name)
                   for name in (f"{stem}.jsonl", f"{stem}.manifest.json")}
        if (manifest.get("sha256") != digests[path.name]
                or manifest.get("records") != len(records) or manifest.get("seed") != self.seed):
            result.fail(count, f"{stem}: manifest does not match the file")
            return None
        for name, file_digest in digests.items():
            if self.digests.setdefault(name, file_digest) != file_digest:
                result.fail(count, f"{name}: bytes differ from the first round")
                return None
        return records

    def check_successor(self, result: RoundResult) -> None:
        total = self.command_items[0]
        records = self._file("successor_reverse", result, total)
        if records is None:
            return
        inverse = {spelled: tok for tok, spelled in self.remap.items()}
        good = Counter(rec["meta"]["value"] for rec in records
                       if successor_record_ok(rec, inverse, self.max_pad))
        matched = sum(min(good[n], want) for n, want in self.expected_values.items())
        if matched != total or len(records) != total:
            result.fail(total - matched, f"successor: {total - matched} of {total} records "
                                         f"wrong or missing, {len(records)} written")

    def check_traversal(self, kind: str, result: RoundResult) -> None:
        train = self._file(f"{kind}_full_train", result, self.trees)
        test = self._file(f"{kind}_full_test", result, self.test)
        if train is None or test is None:
            return
        for split, records, want in (("train", train, self.trees), ("test", test, self.test)):
            bad = sum(not traversal_record_ok(rec, kind, self.depths) for rec in records)
            bad += abs(len(records) - want)
            if bad:
                result.fail(bad, f"{kind} {split}: {bad} records wrong or missing")
        shared = split_overlap(train, test)
        if shared:
            result.fail(shared, f"{kind}: {shared} records share a tree across the splits")
        if not quotas_met(test, self.test, self.depths):
            result.fail(len(test), f"{kind}: test split misses its per-depth quotas")

    def targets(self, spans):
        return [
            ("structrec.cli", "main", "cli.main", None, None),
            ("structrec.cli", "build_parser", "cli.build_parser", None, _parser_hook(spans)),
            ("structrec.terms", "bin_encode", "terms.bin_encode", None, None),
            ("structrec.terms", "linearize", "terms.linearize", None, None),
            ("structrec.terms", "tree_serialize", "terms.tree_serialize", None, None),
            ("structrec.reduction", "reduce", "reduction.reduce", None, None),
            ("structrec.datasets", "gen_successor_range", "datasets.gen_successor_range",
             _per_units, None),
            ("structrec.datasets", "postprocess", "datasets.postprocess", _per_units, None),
            ("structrec.datasets", "gen_trees", "datasets.gen_trees",
             lambda args, res: len(res[0]), None),
            ("structrec.datasets", "gen_traversal", "datasets.gen_traversal", _per_units, None),
            ("structrec.datasets", "write_jsonl", "datasets.write_jsonl",
             lambda args, res: len(args[0]), None),
            ("structrec.datasets", "write_manifest", "datasets.write_manifest", None, None),
        ]

    layer_metrics = [
        # (metric, unit, span names, per, self time, item class)
        ("cli.parse_args_us", "us", ["cli.parse_args"], "call", False, None),
        ("cli.main_ms", "ms", ["cli.main"], "call", False, None),
        ("terms.encode_us", "us", ["terms.bin_encode", "terms.linearize"], "call", False, None),
        ("terms.tree_serialize_us", "us", ["terms.tree_serialize"], "call", False, None),
        ("reduction.reduce_tree_us", "us", ["reduction.reduce"], "call", False, None),
        ("datasets.gen_successor_us", "us", ["datasets.gen_successor_range"], "unit", False, None),
        ("datasets.postprocess_us", "us", ["datasets.postprocess"], "unit", False, None),
        ("datasets.gen_trees_us", "us", ["datasets.gen_trees"], "unit", False, None),
        ("datasets.gen_traversal_us", "us", ["datasets.gen_traversal"], "unit", False, None),
        ("datasets.write_jsonl_us", "us", ["datasets.write_jsonl"], "unit", False, None),
        ("datasets.manifest_ms", "ms", ["datasets.write_manifest"], "call", False, None),
    ]


def successor_record_ok(rec: dict, inverse: dict, max_pad: int) -> bool:
    """Pad prefix shared by input and target, and after undoing the remap
    the input decodes to meta.value and the target to meta.value + 1."""
    meta = rec["meta"]
    n, pad = meta["value"], meta["pad_len"]
    inp, tgt = rec["input"], rec["target"]
    if not 0 <= pad <= max_pad or inp[:pad] != ["PAD"] * pad or tgt[:pad] != ["PAD"] * pad:
        return False
    plain = [inverse.get(tok) for tok in inp[pad:]]
    return (oracle.decode(plain) == n
            and oracle.decode([inverse.get(tok) for tok in tgt[pad:]]) == n + 1
            and meta["bits"] == n.bit_length()
            and meta["edge_group"] == oracle.edge_group(n)
            and meta["depth"] == oracle.x1_run(plain) + 1
            and rec["id"] == f"succ-reverse-{n}")


def traversal_record_ok(rec: dict, kind: str, depths) -> bool:
    tree = oracle.parse(rec["input"])
    return (tree is not None
            and rec["task"] == kind
            and rec["target"] == oracle.walk(tree, kind)
            and rec["meta"]["depth"] == oracle.tree_depth(tree)
            and depths[0] <= oracle.tree_depth(tree) <= depths[1])


def split_overlap(train, test) -> int:
    """Records whose tree appears in the other split, or twice in all."""
    counts = Counter(tuple(rec["input"]) for rec in train + test)
    return sum(1 for rec in train + test if counts[tuple(rec["input"])] > 1)


def quotas_met(test, count: int, depths) -> bool:
    """gen_trees fills the test split evenly across depths, the remainder
    going to the shallowest ones."""
    levels = list(range(depths[0], depths[1] + 1))
    per, extra = divmod(count, len(levels))
    want = {d: per + (1 if j < extra else 0) for j, d in enumerate(levels)}
    got = Counter(oracle.tree_depth(oracle.parse(rec["input"])) for rec in test)
    return got == Counter({d: n for d, n in want.items() if n})


# ---------------------------------------------------------------------------
# score


class Score:
    """compute_metrics with Hit@1,3,5 and breakdowns by bits and edge_group,
    then render_report, over gold records and ranked predictions whose
    outcome the benchmark fixed when it wrote them."""

    name = "score"
    rounds_per_s = 0.75
    load_repeats = 3
    ks = (1, 3, 5)
    breakdown_keys = ("bits", "edge_group")

    def __init__(self, seed: int, workdir, n: int = 20000):
        self.seed, self.n = seed, n
        self.gold_path = Path(workdir) / "score_gold.jsonl"
        self.pred_path = Path(workdir) / "score_pred.jsonl"
        self.items_per_round = n
        self.gold = self.predictions = None

    def prepare(self) -> None:
        rng = random.Random(f"score/{self.seed}")
        gold, preds = [], []
        outcomes = []  # (rank or None, first-candidate miss label, bits, edge group)
        for i in range(self.n):
            if rng.random() < 0.15:
                bits = rng.randint(3, 24)
                value = 2**bits - 1 if rng.random() < 0.5 else 3 * 2 ** (bits - 2) - 1
            else:
                bits = rng.randint(2, 24)
                value = rng.randint(2 ** (bits - 1), 2**bits - 1)
            group = oracle.edge_group(value)
            tokens, target = oracle.encode(value), oracle.encode(value + 1)
            rid = f"g{i:06d}"
            gold.append({"id": rid, "task": "successor", "order": "reverse",
                         "input": tokens, "target": target,
                         "meta": {"value": value, "bits": value.bit_length(),
                                  "depth": oracle.x1_run(tokens) + 1, "edge_group": group,
                                  "pad_len": 0, "weight": 1}})
            weights = (35, 10, 5, 3, 2, 45) if group else (70, 8, 5, 3, 2, 12)
            rank = rng.choices((1, 2, 3, 4, 5, None), weights)[0]
            label = None
            if rank != 1:
                label = ("one-token-short" if group and rng.random() < 0.7
                         else rng.choice(MISS_LABELS))
            candidates = [miss(target, label, rng) if label else target]
            candidates += [miss(target, "wrong-token", rng) for _ in range(4)]
            if rank is not None:
                candidates[rank - 1] = target
            preds.append({"id": rid, "candidates": [" ".join(c) for c in candidates]})
            outcomes.append((rank, label, value.bit_length(), group))
        rng.shuffle(preds)
        write_json_lines(self.gold_path, gold)
        write_json_lines(self.pred_path, preds)
        self.expected = expected_report(outcomes, self.ks)

    def load(self) -> None:
        from structrec import datasets, evaluation

        self.gold = self.predictions = None  # never hold two copies
        self.gold = datasets.read_jsonl(self.gold_path)
        self.predictions = evaluation.read_predictions(self.pred_path)

    def calls(self):
        return [self.score_once]

    def score_once(self) -> str:
        from structrec import evaluation

        report = evaluation.compute_metrics(self.predictions, self.gold, ks=self.ks,
                                            breakdown_keys=self.breakdown_keys)
        return evaluation.render_report(report, "json")

    def check(self, outputs) -> RoundResult:
        result = RoundResult()
        text = outputs[0]
        if isinstance(text, Raised):
            result.fail(self.n, f"scoring raised: {text}", wrong=False)
        elif json.loads(text) != self.expected:
            result.fail(self.n, "report differs from the counts fixed at construction")
        return result

    def targets(self, spans):
        return [
            ("structrec.datasets", "read_jsonl", "datasets.read_jsonl", _per_units, None),
            ("structrec.evaluation", "read_predictions", "evaluation.read_predictions",
             _per_units, None),
            ("structrec.evaluation", "exact_match", "evaluation.exact_match",
             lambda args, res: len(args[1]), None),
            ("structrec.evaluation", "hit_at_k", "evaluation.hit_at_k",
             lambda args, res: len(args[1]), None),
            ("structrec.evaluation", "breakdown", "evaluation.breakdown",
             lambda args, res: len(args[1]), None),
            ("structrec.evaluation", "compute_metrics", "evaluation.compute_metrics",
             lambda args, res: res.n, None),
            ("structrec.evaluation", "render_report", "evaluation.render_report", None, None),
        ]

    layer_metrics = [
        ("datasets.read_jsonl_us", "us", ["datasets.read_jsonl"], "unit", False, None),
        ("evaluation.read_predictions_us", "us", ["evaluation.read_predictions"], "unit",
         False, None),
        ("evaluation.exact_match_us", "us", ["evaluation.exact_match"], "unit", False, None),
        ("evaluation.hit_at_k_us", "us", ["evaluation.hit_at_k"], "unit", False, None),
        ("evaluation.breakdown_us", "us", ["evaluation.breakdown"], "unit", False, None),
        ("evaluation.compute_metrics_us", "us", ["evaluation.compute_metrics"], "unit",
         False, None),
        ("evaluation.render_report_ms", "ms", ["evaluation.render_report"], "call", False, None),
    ]


MISS_LABELS = ("wrong-token", "one-token-short", "one-token-long", "other")


def miss(target: list[str], label: str, rng) -> list[str]:
    """A wrong candidate that failure_signature must label as given."""
    out = list(target)
    if label == "wrong-token":
        i = rng.randrange(len(out) - 1)  # the closing 01 stays
        out[i] = oracle.X1 if out[i] == oracle.X0 else oracle.X0
    elif label == "one-token-short":
        del out[rng.randrange(len(out))]
    elif label == "one-token-long":
        out.insert(rng.randrange(len(out) + 1), rng.choice((oracle.X0, oracle.X1)))
    else:
        del out[rng.randrange(len(out))]
        del out[rng.randrange(len(out))]
    return out


def expected_report(outcomes, ks) -> dict:
    """The JSON report render_report must produce for these outcomes."""
    n = len(outcomes)
    hits = {k: sum(1 for rank, *_ in outcomes if rank is not None and rank <= k) for k in ks}
    breakdowns = {}
    for key, column in (("bits", 2), ("edge_group", 3)):
        totals, correct = Counter(), Counter()
        for row in outcomes:
            totals[row[column]] += 1
            correct[row[column]] += row[0] == 1
        breakdowns[key] = [{"bucket": b, "n": totals[b], "correct": correct[b],
                            "accuracy": correct[b] / totals[b]} for b in sorted(totals)]
    failures = Counter(label for _, label, *_ in outcomes if label)
    return {"n": n, "exact_match": hits[1] / n,
            "hits": {f"hit@{k}": hits[k] / n for k in ks},
            "breakdowns": breakdowns, "failures": dict(sorted(failures.items()))}


# ---------------------------------------------------------------------------
# replay


class Replay:
    """One validate_trace call per trace, as an LLM-evaluation harness makes
    them: short successor traces, long edge-group successor traces, and
    inorder/preorder traces of trees of depth 2-6.  A quarter of the short
    and tree traces are corrupted at a known state."""

    name = "replay"
    rounds_per_s = 0.5
    load_repeats = 3
    # all-ones inputs of 332 tokens or more overflow the recursion limit, so
    # the long edge traces stop at 256 bits; they are the same for every seed
    long_bits = (64, 96, 128, 160, 192, 224, 256)

    # 600 + 486 + 14 = 1,100 traces: the long ones are 1.27 % of the calls,
    # so at any number of rounds the 99th percentile of the call times falls
    # among the 96-bit edge traces, not between two groups of unlike cost
    def __init__(self, seed: int, workdir, short: int = 600, trees: int = 486,
                 long_bits=None):
        self.seed = seed
        self.path = Path(workdir) / "replay_traces.jsonl"
        self.short, self.trees = short, trees
        if long_bits is not None:
            self.long_bits = long_bits
        self.items_per_round = short + trees + 2 * len(self.long_bits)
        self.records = None

    def prepare(self) -> None:
        rng = random.Random(f"replay/{self.seed}")
        items = []
        for _ in range(self.short):
            bits = rng.randint(8, 40)
            items.append(_successor_item(rng.randint(2 ** (bits - 1), 2**bits - 1), "short"))
        for _ in range(self.trees):
            depth, kind = rng.randint(2, 6), rng.choice(("inorder", "preorder"))
            tree = oracle.random_tree(rng, depth, "abc")
            items.append({"task": kind, "input": oracle.serialize(tree), "tree": tree,
                          "states": oracle.unroll_states(tree, kind), "class": "tree"})
        for bits in self.long_bits:
            for value in (2**bits - 1, 3 * 2 ** (bits - 2) - 1):
                items.append(_successor_item(value, "long"))
        for item in items:
            item["expect"] = ("valid", None)
        chosen = rng.sample(range(self.short + self.trees), (self.short + self.trees) // 4)
        for j, idx in enumerate(chosen):
            corrupt(items[idx], ("mutate", "mutate", "mutate", "drop", "repeat")[j % 5], rng)
        rng.shuffle(items)
        separators = {"successor": " = ", "inorder": " -> ", "preorder": " -> "}
        write_json_lines(self.path, [
            {"id": f"t{i:05d}", "task": item["task"], "input": item["input"],
             "trace": separators[item["task"]].join(" ".join(s) for s in item["states"])}
            for i, item in enumerate(items)])
        self.items = items
        self.item_class = [item["class"] for item in items]

    def load(self) -> None:
        from structrec import datasets

        self.records = None
        self.records = datasets.read_traces(self.path)

    def check_records(self) -> RoundResult:
        """The records the program read back hold the traces as written, and
        each uncorrupted one ends where the reference says."""
        result = RoundResult()
        if len(self.records) != len(self.items):
            result.fail(len(self.items), f"read {len(self.records)} of {len(self.items)} traces")
            return result
        bad = sum(not trace_record_ok(rec, item) for rec, item in zip(self.records, self.items))
        if bad:
            result.fail(bad, f"{bad} trace records do not read back as written")
        return result

    def calls(self):
        from structrec import evaluation

        validate = evaluation.validate_trace
        return [functools.partial(validate, rec.trace, rec.task, input_tokens=rec.input)
                for rec in self.records]

    def check(self, judgments) -> RoundResult:
        result = RoundResult()
        raised = [j for j in judgments if isinstance(j, Raised)]
        if raised:
            result.fail(len(raised), f"validate_trace raised on {len(raised)} traces: "
                                     f"{raised[0]}", wrong=False)
        wrong = sum(not isinstance(j, Raised) and not judgment_ok(j, item["expect"])
                    for j, item in zip(judgments, self.items))
        if wrong:
            result.fail(wrong, f"{wrong} traces judged against the known outcome")
        return result

    def targets(self, spans):
        return [
            ("structrec.evaluation", "validate_trace", "evaluation.validate_trace", None, None),
            ("structrec.terms", "tokenize", "terms.tokenize", None, None),
            ("structrec.terms", "tree_parse", "terms.tree_parse", None, None),
            ("structrec.terms", "delinearize", "terms.delinearize", None, None),
            ("structrec.reduction", "step_level", "reduction.step_level", None, None),
            ("structrec.reduction", "step_single", "reduction.step_single", None, None),
            ("structrec.reduction", "parse_state_paren", "reduction.parse_state", None, None),
            ("structrec.reduction", "parse_state_unroll", "reduction.parse_state", None, None),
            ("structrec.reduction", "render_state_paren", "reduction.render_state", None, None),
            ("structrec.reduction", "render_state_unroll", "reduction.render_state", None, None),
            ("structrec.datasets", "read_traces", "datasets.read_traces", _per_units, None),
        ]

    layer_metrics = [
        ("terms.tokenize_us", "us", ["terms.tokenize"], "call", False, None),
        ("terms.tree_parse_us", "us", ["terms.tree_parse"], "call", False, None),
        ("terms.delinearize_us", "us", ["terms.delinearize"], "call", False, None),
        ("reduction.step_level_us", "us", ["reduction.step_level"], "call", False, None),
        ("reduction.step_single_us", "us", ["reduction.step_single"], "call", False, "short"),
        ("reduction.step_single_long_us", "us", ["reduction.step_single"], "call", False, "long"),
        ("reduction.parse_state_us", "us", ["reduction.parse_state"], "call", False, None),
        ("reduction.render_state_us", "us", ["reduction.render_state"], "call", False, None),
        ("datasets.read_traces_us", "us", ["datasets.read_traces"], "unit", False, None),
        ("evaluation.validate_trace_us", "us", ["evaluation.validate_trace"], "call", False, None),
        ("evaluation.validate_self_us", "us", ["evaluation.validate_trace"], "call", True, None),
    ]


def _successor_item(value: int, cls: str) -> dict:
    return {"task": "successor", "input": oracle.encode(value), "value": value,
            "states": oracle.successor_states(value), "class": cls}


_STRUCTURAL = {oracle.LPAR, oracle.RPAR, oracle.LEAF, oracle.UNROLL_OPEN,
               oracle.UNROLL_CLOSE, oracle.EMPTY}
_FLIP = {oracle.X0: oracle.X1, oracle.X1: oracle.X0, oracle.ONE: oracle.X1}


def corrupt(item: dict, how: str, rng) -> None:
    """Change one state's token, drop the final state or repeat it, and
    record the judgment validate_trace owes the result."""
    states = [list(s) for s in item["states"]]
    if how == "mutate":
        i = rng.randrange(len(states))
        pos = rng.choice([p for p, tok in enumerate(states[i]) if tok not in _STRUCTURAL])
        tok = states[i][pos]
        if item["task"] == "successor":
            states[i][pos] = _FLIP[tok]
        else:
            states[i][pos] = rng.choice([c for c in "abc" if c != tok])
        item["expect"] = ("bad", i)
    elif how == "drop":
        states.pop()
        item["expect"] = ("missing", len(states) - 1)
    else:
        states.append(states[-1])
        item["expect"] = ("missing", len(states) - 1)
    item["states"] = states
    item["corrupted"] = True


def trace_record_ok(rec, item) -> bool:
    """Read back as written; an uncorrupted successor trace of n has
    x1_run(n) + 2 states and ends at n + 1, a tree trace ends at the walk."""
    sep = " = " if item["task"] == "successor" else " -> "
    if (rec.task != item["task"] or list(rec.input) != item["input"]
            or rec.trace != sep.join(" ".join(s) for s in item["states"])):
        return False
    if item.get("corrupted"):
        return True
    states = [part.split() for part in rec.trace.split(sep)]
    if item["task"] == "successor":
        return (len(states) == oracle.x1_run(item["input"]) + 2
                and oracle.decode(states[-1]) == item["value"] + 1)
    return states[-1] == oracle.walk(item["tree"], item["task"])


def judgment_ok(judgment, expect) -> bool:
    kind, index = expect
    if kind == "valid":
        return judgment.valid
    if kind == "bad":
        return not judgment.valid and judgment.first_bad_step == index
    return (not judgment.valid and judgment.first_bad_step == index
            and judgment.error == "missing-termination")


# ---------------------------------------------------------------------------
# shortcut


class Shortcut:
    """structrec shortcut natural --mode faithful --diff and shortcut reverse
    --mode corrected --diff over one value range, through structrec.cli.main."""

    name = "shortcut"
    rounds_per_s = 1.05
    load_repeats = 9

    def __init__(self, seed: int, workdir, size: int = 2000):
        rng = random.Random(f"shortcut/{seed}")
        self.size = size
        self.lo = rng.randint(1, 500)
        self.hi = self.lo + size - 1
        self.out = Path(workdir) / "shortcut_disagreements.jsonl"
        span = ["--diff", "--range", f"{self.lo}:{self.hi}"]
        self.commands = [
            ["shortcut", "natural", "--mode", "faithful", *span, "--out", str(self.out)],
            ["shortcut", "reverse", "--mode", "corrected", *span],
        ]
        self.items_per_round = 2 * size
        # faithful mode is one token short on every all-ones value
        self.edge_values = {2**bits - 1 for bits in range(2, self.hi.bit_length() + 1)
                            if self.lo <= 2**bits - 1 <= self.hi}

    def prepare(self) -> None:
        pass

    def load(self) -> None:
        from structrec import cli

        cli.build_parser()

    def calls(self):
        return [functools.partial(run_cli, argv) for argv in self.commands]

    def check(self, outputs) -> RoundResult:
        result = RoundResult()
        for argv, out in zip(self.commands, outputs):
            code, text = (out, "") if isinstance(out, Raised) else out
            if code != 0:
                result.fail(self.size, f"{' '.join(argv[:4])} exited {code}", wrong=False)
                continue
            found = re.search(r"checked (\d+), disagreements (\d+)", text)
            if not found or int(found.group(1)) != self.size:
                result.fail(self.size, f"{argv[1]}: summary does not cover the range")
                continue
            if argv[3] == "corrected":
                if int(found.group(2)):
                    result.fail(int(found.group(2)), "corrected mode disagrees with the oracle")
                continue
            try:
                rows = read_json_lines(self.out)
            except (OSError, ValueError) as exc:
                result.fail(self.size, f"disagreement file unreadable ({exc})")
                continue
            bad = disagreements_wrong(rows, self.edge_values)
            if bad or len(rows) != int(found.group(2)):
                result.fail(max(bad, 1), f"faithful disagreements: {bad} values wrong")
        return result

    def targets(self, spans):
        return [
            ("structrec.cli", "main", "cli.main", None, None),
            ("structrec.cli", "build_parser", "cli.build_parser", None, _parser_hook(spans)),
            ("structrec.terms", "bin_encode", "terms.bin_encode", None, None),
            ("structrec.terms", "linearize", "terms.linearize", None, None),
            ("structrec.terms", "delinearize", "terms.delinearize", None, None),
            ("structrec.reduction", "reduce", "reduction.reduce", None, None),
            ("structrec.asm", "asm_step", "asm.step", None, None),
            ("structrec.asm", "asm_run", "asm.run", None, None),
            ("structrec.shortcuts", "natural_shortcut_machine", "shortcuts.machine_build",
             None, _machine_init_hook(spans)),
            ("structrec.shortcuts", "reverse_shortcut_machine", "shortcuts.machine_build",
             None, _machine_init_hook(spans)),
            ("structrec.shortcuts", "emulate_natural", "shortcuts.emulate", None, None),
            ("structrec.shortcuts", "emulate_reverse", "shortcuts.emulate", None, None),
            ("structrec.shortcuts", "diff_against_oracle", "shortcuts.diff",
             lambda args, res: res.checked, None),
        ]

    layer_metrics = [
        ("cli.parse_args_us", "us", ["cli.parse_args"], "call", False, None),
        ("cli.main_ms", "ms", ["cli.main"], "call", False, None),
        ("terms.encode_us", "us", ["terms.bin_encode", "terms.linearize"], "call", False, None),
        ("terms.delinearize_us", "us", ["terms.delinearize"], "call", False, None),
        ("reduction.reduce_succ_us", "us", ["reduction.reduce"], "call", False, None),
        ("asm.init_us", "us", ["asm.init"], "call", False, None),
        ("asm.step_us", "us", ["asm.step"], "call", False, None),
        ("asm.run_us", "us", ["asm.run"], "call", False, None),
        ("shortcuts.machine_build_us", "us", ["shortcuts.machine_build"], "call", False, None),
        ("shortcuts.emulate_us", "us", ["shortcuts.emulate"], "call", False, None),
        ("shortcuts.diff_us", "us", ["shortcuts.diff"], "unit", False, None),
        ("shortcuts.self_us", "us", ["shortcuts.diff"], "unit", True, None),
    ]


def disagreements_wrong(rows, edge_values) -> int:
    """Values whose faithful-mode verdict is wrong: missing or extra
    disagreements, and reported ones with the wrong label or tokens."""
    reported = Counter(row["value"] for row in rows)
    bad = len(edge_values - set(reported)) + sum(
        count - 1 for count in reported.values() if count > 1)
    for row in rows:
        value = row["value"]
        expected = list(reversed(oracle.encode(value + 1)))
        if not (value in edge_values
                and row["label"] == "one-token-short"
                and row["bits"] == value.bit_length()
                and row["edge_group"] == 1
                and row["expected"] == expected
                and oracle.is_single_deletion(row["got"], expected)):
            bad += 1
    return bad


WORKLOADS = {cls.name: cls for cls in (Gen, Score, Replay, Shortcut)}
