"""Exact-sequence scoring, error breakdowns, and trace validation.

Gold records are matched to predictions by id.  Accuracy is exact token
equality of the first candidate; Hit@k admits any of the first k
candidates.  Rendered traces are replayed against the engine one
transition at a time, and the first offending state is labeled with an
error category.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from . import datasets  # its record loop; datasets imports this module, via shortcuts
from .errors import EvalError, IdMismatchError, MalformedSequenceError, ReductionError
from .reduction import (
    ARROW,
    PAREN,
    Call,
    builtin_programs,
    levels,
    parse_state_paren,
    parse_state_unroll,
    program_call,
    render_state_paren,
    render_state_unroll,
    step_level,
    step_single,  # no caller here; kept because the benchmark's tracer rebinds it
)
from .terms import (
    EMPTY_TOKEN,
    LPAR,
    RPAR,
    TOKEN_ALIASES,
    UNROLL_CLOSE,
    UNROLL_OPEN,
    intern_tokens,
    normalize_tokens,
    tokenize,
)

ILLEGAL_RULE = "illegal-rule"
TOKEN_MUTATION = "token-mutation"
MISSING_TERMINATION = "missing-termination"
PREMATURE_TERMINATION = "premature-termination"
RULE_ORDER_SWAP = "rule-order-swap"
MALFORMED_STATE = "malformed-state"

TRACE_ERRORS = (
    ILLEGAL_RULE,
    TOKEN_MUTATION,
    MISSING_TERMINATION,
    PREMATURE_TERMINATION,
    RULE_ORDER_SWAP,
    MALFORMED_STATE,
)


# ---------------------------------------------------------------------------
# predictions and pairing


@dataclass
class PredictionRecord:
    id: str
    candidates: list[list[str]]


def read_predictions(path) -> list[PredictionRecord]:
    """Candidates are token lists or strings (tokenized); tokens are
    normalized and interned, so equal tokens are one object."""
    return datasets._read_records(path, _prediction, EvalError, "{}")


def _prediction(obj) -> PredictionRecord:
    if not isinstance(obj, dict) or "id" not in obj or "candidates" not in obj:
        raise TypeError("need an object with id and candidates fields")
    value = obj["candidates"]
    if isinstance(value, list):
        try:
            return PredictionRecord(str(obj["id"]), [
                list(map(sys.intern, tokenize(cand))) if isinstance(cand, str)
                else normalize_tokens(intern_tokens(cand)) for cand in value])
        except TypeError:  # a candidate that is neither a string nor a token list
            pass
    raise TypeError("candidates must be a list of strings or of token lists")


_ALIASED = TOKEN_ALIASES.keys()


def _pair(predictions, gold):
    """Match predictions to gold records by id, strictly."""
    by_id: dict[str, PredictionRecord] = {}
    for pred in predictions:
        if pred.id in by_id:
            raise IdMismatchError(f"duplicate prediction id: {pred.id}")
        by_id[pred.id] = pred
    gold_ids = set()
    pairs = []
    for record in gold:
        rid = str(record.id)
        if rid in gold_ids:
            raise IdMismatchError(f"duplicate gold id: {rid}")
        gold_ids.add(rid)
        if rid not in by_id:
            raise IdMismatchError(f"no prediction for gold id: {rid}")
        pairs.append((by_id[rid], record))
    extra = set(by_id) - gold_ids
    if extra:
        raise IdMismatchError(f"predictions for unknown ids: {sorted(extra)[:5]}")
    return pairs


def exact_match(predictions, gold) -> float:
    """Fraction whose first candidate equals the target exactly."""
    return compute_metrics(predictions, gold, ks=()).exact


def hit_at_k(predictions, gold, k: int) -> float:
    """Fraction whose target appears among the first k candidates."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return compute_metrics(predictions, gold, ks=(k,)).hits[k]


# ---------------------------------------------------------------------------
# breakdowns and failure signatures


@dataclass(frozen=True)
class BreakdownRow:
    bucket: object
    n: int
    correct: int
    accuracy: float


_KEY_ALIASES = {"bit_length": "bits", "tree_depth": "depth"}
_META_KEYS = ("value", "bits", "depth", "edge_group", "pad_len", "weight")


def _meta_field(key: str) -> str:
    field = _KEY_ALIASES.get(key, key)
    if field not in _META_KEYS:
        raise EvalError(f"unknown breakdown key: {key!r} (meta fields: "
                        f"{', '.join(_META_KEYS)}; aliases: {', '.join(_KEY_ALIASES)})")
    return field


def breakdown(predictions, gold, key: str) -> list[BreakdownRow]:
    """First-candidate accuracy per metadata bucket; empty buckets are
    simply absent."""
    return compute_metrics(predictions, gold, ks=(), breakdown_keys=(key,)).breakdowns[key]


def failure_signature(prediction, gold_target) -> str:
    """Classify a wrong prediction against its target."""
    pred = list(prediction)
    target = list(gold_target)
    if pred == target:
        raise ValueError("failure_signature needs a wrong prediction")
    if len(pred) == len(target):
        return "wrong-token"
    if len(pred) == len(target) - 1 and _is_single_deletion(pred, target):
        return "one-token-short"
    if len(pred) == len(target) + 1 and _is_single_deletion(target, pred):
        return "one-token-long"
    return "other"


def _is_single_deletion(short, long) -> bool:
    # short == long minus exactly one position
    i = 0
    while i < len(short) and short[i] == long[i]:
        i += 1
    return short[i:] == long[i + 1 :]


def _one_edit_apart(a, b) -> bool:
    if a == b:
        return False
    if len(a) == len(b):
        return sum(1 for x, y in zip(a, b) if x != y) == 1
    if abs(len(a) - len(b)) != 1:
        return False
    short, long = (a, b) if len(a) < len(b) else (b, a)
    return _is_single_deletion(short, long)


# ---------------------------------------------------------------------------
# trace validation


@dataclass(frozen=True)
class TraceJudgment:
    valid: bool
    first_bad_step: int | None = None
    error: str | None = None


_PAREN_MARKERS = {LPAR, RPAR}
_ARROW_MARKERS = {UNROLL_OPEN, UNROLL_CLOSE, EMPTY_TOKEN}


_PROGRAMS = builtin_programs()
# each traced program reduces with a table of itself alone
_ALONE = {name: {name: program} for name, program in _PROGRAMS.items()}
_TRACE_TASKS = {
    "successor": (_PROGRAMS["s"], PAREN),
    "inorder": (_PROGRAMS["inorder"], ARROW),
    "preorder": (_PROGRAMS["preorder"], ARROW),
}
# the classic misreading applies the traversal's pieces in the other
# root-vs-subtree order, which is exactly the sibling traversal
_SWAPPED = {"inorder": _PROGRAMS["preorder"], "preorder": _PROGRAMS["inorder"]}


def _has_pending(tokens, style: str) -> bool:
    markers = _PAREN_MARKERS if style == PAREN else _ARROW_MARKERS
    return any(tok in markers for tok in tokens)


def _stripped(tokens) -> list[str]:
    drop = {LPAR, RPAR, UNROLL_OPEN, UNROLL_CLOSE}
    return [tok for tok in tokens if tok not in drop]


def validate_trace(text: str, task: str, input_tokens=None) -> TraceJudgment:
    """Replay a rendered trace transition by transition.

    Returns the index of the first state that is not a legal successor of
    the previous one, labeled with one of the TRACE_ERRORS categories.
    first_bad_step 0 means the initial state itself is bad.
    """
    if task not in _TRACE_TASKS:
        raise EvalError(f"no trace validator for task {task!r}")
    program, style = _TRACE_TASKS[task]
    separator, opening, closing = ("=", LPAR, RPAR) if style == PAREN else (
        "->", UNROLL_OPEN, UNROLL_CLOSE)
    parse, render = ((parse_state_paren, render_state_paren) if style == PAREN
                     else (parse_state_unroll, render_state_unroll))
    states = [part.strip() for part in text.split(separator)]
    if any(not part for part in states):
        bad = next(i for i, part in enumerate(states) if not part)
        return TraceJudgment(False, bad, MALFORMED_STATE)
    got = tokenize(states[0])
    try:
        cur = parse(got, program)
    except (ReductionError, MalformedSequenceError):
        return TraceJudgment(False, 0, MALFORMED_STATE)
    if input_tokens is not None:
        # a pending call on the input shows the input's own tokens; only when
        # they differ is the input parsed, which still rejects a bad one
        shown = isinstance(cur, Call) and got == [opening, *normalize_tokens(input_tokens), closing]
        if not shown and got != render(program_call(program, [input_tokens])):
            return TraceJudgment(False, 0, TOKEN_MUTATION)

    # one engine runs the whole trace: each transition costs one pass over
    # the pending part of the state, not a fresh parse of it
    run = levels(cur, _ALONE[program.name], single=(style == PAREN))
    last = len(states) - 1
    for i in range(1, last + 1):
        engine = next(run, None)
        if engine is None:
            # the reduction already finished, yet the trace continues
            return TraceJudgment(False, i, MISSING_TERMINATION)
        expected = engine.render(style)
        # engine tokens re-tokenize to themselves, so equal text is equal tokens
        if states[i] == " ".join(expected):
            got = expected
            continue
        got = tokenize(states[i])
        if got != expected:
            return TraceJudgment(False, i, _classify(
                task, style, parse, program, tokenize(states[i - 1]), got, expected,
                is_last=(i == last)))

    if _has_pending(got, style):
        return TraceJudgment(False, last, MISSING_TERMINATION)
    return TraceJudgment(True)


def _classify(task, style, parse, program, prev, got, expected, is_last) -> str:
    try:
        parse(got, program)
    except (ReductionError, MalformedSequenceError):
        return MALFORMED_STATE
    if style == ARROW:
        swapped = _SWAPPED[task]
        try:
            alt_cur = parse_state_unroll(prev, swapped)
            alt = step_level(alt_cur, _ALONE[swapped.name])
            if alt is not None and render_state_unroll(alt[0]) == got:
                return RULE_ORDER_SWAP
        except (ReductionError, MalformedSequenceError):
            pass
    if is_last and not _has_pending(got, style) and _has_pending(expected, style):
        return PREMATURE_TERMINATION
    if _one_edit_apart(_stripped(got), _stripped(expected)):
        return TOKEN_MUTATION
    return ILLEGAL_RULE


@dataclass
class TraceValidationReport:
    n: int = 0
    valid: int = 0
    label_counts: dict = field(default_factory=dict)

    def add(self, judgment: TraceJudgment) -> None:
        self.n += 1
        if judgment.valid:
            self.valid += 1
        else:
            self.label_counts[judgment.error] = self.label_counts.get(judgment.error, 0) + 1

    def render(self, fmt: str = "text") -> str:
        if fmt == "json":
            doc = {"n": self.n, "valid": self.valid, "invalid": self.n - self.valid,
                   "labels": dict(sorted(self.label_counts.items()))}
            return json.dumps(doc, indent=2, sort_keys=True)
        if fmt != "text":
            raise ValueError(f"unknown report format: {fmt!r}")
        lines = [f"traces {self.n}, valid {self.valid}, invalid {self.n - self.valid}"]
        for label in sorted(self.label_counts):
            lines.append(f"  {label}: {self.label_counts[label]}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# reports


@dataclass
class MetricsReport:
    n: int
    exact: float
    hits: dict
    breakdowns: dict
    failures: dict


def compute_metrics(predictions, gold, ks=(1, 3, 5), breakdown_keys=()) -> MetricsReport:
    """Every metric in one pass over the id-joined pairs.

    Each gold target is normalized once and its rank among the first
    max(ks) candidates found once: rank 0 is an exact match, a rank below
    k a hit at k.  Breakdown rows and failure signatures accumulate in the
    same loop.  Errors come in this order: ids, then ks, then keys.
    """
    pairs = _pair(predictions, gold)
    ks = sorted(set(ks))
    if ks and ks[0] < 1:
        raise ValueError("k must be at least 1")
    fields = {key: _meta_field(key) for key in breakdown_keys}
    # one (totals, correct) pair per field, however many aliases name it
    buckets = {field: ({}, {}) for field in fields.values()}
    depth = ks[-1] if ks else 1
    ranks = [0] * (depth + 1)  # ranks[depth] counts the misses
    failures: dict = {}
    for pred, record in pairs:
        target = record.target  # the readers keep aliases as given
        if not _ALIASED.isdisjoint(target):
            target = normalize_tokens(target)
        top = pred.candidates[:depth]
        rank = top.index(target) if target in top else depth
        ranks[rank] += 1
        for field, (totals, correct) in buckets.items():
            bucket = getattr(record.meta, field)
            if bucket is None:
                raise EvalError(f"record {record.id} has no {field!r} metadata")
            totals[bucket] = totals.get(bucket, 0) + 1
            if not rank:
                correct[bucket] = correct.get(bucket, 0) + 1
        if rank:
            first = top[0] if top else []
            if first != target:  # equal only when both are empty
                label = failure_signature(first, target)
                failures[label] = failures.get(label, 0) + 1

    n = len(pairs)
    breakdowns = {}
    for key, field in fields.items():
        totals, correct = buckets[field]
        breakdowns[key] = [BreakdownRow(bucket=b, n=totals[b], correct=correct.get(b, 0),
                                        accuracy=correct.get(b, 0) / totals[b])
                           for b in sorted(totals)]
    return MetricsReport(
        n=n,
        exact=ranks[0] / n if n else 0.0,
        hits={k: sum(ranks[:k]) / n if n else 0.0 for k in ks},
        breakdowns=breakdowns,
        failures=failures,
    )


def render_report(report: MetricsReport, fmt: str = "text") -> str:
    """Deterministic text table or JSON document."""
    if fmt == "json":
        doc = {
            "n": report.n,
            "exact_match": report.exact,
            "hits": {f"hit@{k}": v for k, v in sorted(report.hits.items())},
            "breakdowns": {
                key: [
                    {"bucket": row.bucket, "n": row.n, "correct": row.correct,
                     "accuracy": row.accuracy}
                    for row in rows
                ]
                for key, rows in sorted(report.breakdowns.items())
            },
            "failures": dict(sorted(report.failures.items())),
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt != "text":
        raise ValueError(f"unknown report format: {fmt!r}")
    lines = [f"n            {report.n}", f"exact match  {report.exact:.4f}"]
    for k in sorted(report.hits):
        lines.append(f"Hit@{k:<9}{report.hits[k]:.4f}")
    for key, rows in sorted(report.breakdowns.items()):
        lines.append(f"breakdown by {key}")
        lines.append(f"  {'bucket':<10}{'n':>6}  acc")
        for row in rows:
            lines.append(f"  {str(row.bucket):<10}{row.n:>6}  {row.accuracy:.4f}")
    if report.failures:
        lines.append("failure signatures")
        for label in sorted(report.failures):
            lines.append(f"  {label}: {report.failures[label]}")
    return "\n".join(lines)
