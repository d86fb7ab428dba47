"""Exact-sequence scoring, error breakdowns, and trace validation.

Gold records are matched to predictions by id.  Accuracy is exact token
equality of the first candidate; Hit@k admits any of the first k
candidates.  Rendered traces are replayed against the exact semantics one
transition at a time, and the first offending state is labeled with an
error category.
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from dataclasses import dataclass, field
from itertools import compress
from operator import attrgetter, itemgetter, not_

from .datasets import _META_KEYS, _TRACE_TASKS, _read_records
from .errors import EvalError, IdMismatchError, MalformedSequenceError, ReductionError
# step_single has no caller here; it is kept because the benchmark's tracer rebinds it
from .reduction import Call, _style_of, program_call, render_states, step_level, step_single
from .terms import (
    LPAR,
    RPAR,
    TOKEN_ALIASES,
    UNROLL_CLOSE,
    UNROLL_OPEN,
    _NEEDS_REGEX,
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


@dataclass(slots=True)
class PredictionRecord:
    """Ranked candidates: token lists, or canonical text read as its space-separated tokens."""

    id: str
    candidates: list[list[str] | str]


def read_predictions(path) -> list[PredictionRecord]:
    """Candidates are token lists or strings.  Canonical text (printable, non-empty, single
    spaces between tokens, no paren, bracket or alias) stays a string; any other string is
    tokenized and a token list normalized, their tokens interned."""
    return _read_records(path, _prediction, EvalError, "{}")


def _canonical(text: str) -> bool:
    # then text.split(" ") == tokenize(text); space-joined texts are canonical
    # exactly when each one is (no piece tokenize looks for holds a space)
    return (text[:1] not in ("", " ") and text[-1] != " " and "  " not in text
            and text.isprintable() and not any(map(text.__contains__, _NEEDS_REGEX)))


def _prediction(obj) -> PredictionRecord:
    if not isinstance(obj, dict) or "id" not in obj or "candidates" not in obj:
        raise TypeError("need an object with id and candidates fields")
    value = obj["candidates"]
    if isinstance(value, list):
        try:
            if _canonical(" ".join(value)):  # one check for a record of canonical texts
                return PredictionRecord(str(obj["id"]), value)
        except TypeError:  # a candidate that is not a string
            pass
        try:
            return PredictionRecord(str(obj["id"]), [
                cand if isinstance(cand, str) and _canonical(cand)
                else list(map(sys.intern, tokenize(cand))) if isinstance(cand, str)
                else normalize_tokens(intern_tokens(cand)) for cand in value])
        except TypeError:  # a candidate that is neither a string nor a token list
            pass
    raise TypeError("candidates must be a list of strings or of token lists")


def _pair(predictions, gold):
    """Match predictions to gold records by id, strictly; ids compare as strings
    on both sides.  Returns the matched predictions and the gold records."""
    by_id: dict[str, PredictionRecord] = {}
    for pred in predictions:
        pid = str(pred.id)
        if pid in by_id:
            raise IdMismatchError(f"duplicate prediction id: {pid}")
        by_id[pid] = pred
    gold = list(gold)
    left = len(by_id) - len(gold)  # unknown ids, if every gold id finds its prediction
    matched = [by_id.pop(str(record.id), None) for record in gold]
    if len(by_id) != left:  # a matched id has left by_id, so a repeated gold id finds none
        at = matched.index(None)
        rid = str(gold[at].id)
        if any(str(record.id) == rid for record in gold[:at]):
            raise IdMismatchError(f"duplicate gold id: {rid}")
        raise IdMismatchError(f"no prediction for gold id: {rid}")
    if by_id:
        raise IdMismatchError(f"predictions for unknown ids: {sorted(by_id)[:5]}")
    return matched, gold


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
    pred = prediction if isinstance(prediction, list) else list(prediction)
    target = gold_target if isinstance(gold_target, list) else list(gold_target)
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


def _split(text: str) -> list[str]:
    """The tokens of a rendered state's text."""
    return text.split(" ") if text else []


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
    row = _TRACE_TASKS[task]
    program, style = row.program, _style_of(row.program)
    states = [part.strip() for part in text.split(style.separator.strip())]
    if any(not part for part in states):
        bad = next(i for i, part in enumerate(states) if not part)
        return TraceJudgment(False, bad, MALFORMED_STATE)
    got = tokenize(states[0])
    try:
        cur = style.parse(got, program)
    except (ReductionError, MalformedSequenceError):
        return TraceJudgment(False, 0, MALFORMED_STATE)
    if input_tokens is not None:
        # a pending call on the input shows the input's own tokens; only when
        # they differ is the input parsed, which still rejects a bad one
        shown = isinstance(cur, Call) and got == [
            style.opening, *normalize_tokens(input_tokens), style.closing]
        if not shown and got != style.render(program_call(program, [input_tokens])):
            return TraceJudgment(False, 0, TOKEN_MUTATION)

    # the states from the parsed one on, each rendered from a cut of one
    # big-step run, not stepped and parsed anew
    run = render_states(cur, style.name)
    next(run)  # the state the trace starts from
    last = len(states) - 1
    for i in range(1, last + 1):
        expected = next(run, None)
        if expected is None:
            # the reduction already finished, yet the trace continues
            return TraceJudgment(False, i, MISSING_TERMINATION)
        # rendered tokens re-tokenize to themselves, so equal text is equal tokens
        if states[i] == expected:
            continue
        got, want = tokenize(states[i]), _split(expected)
        if got != want:
            return TraceJudgment(False, i, _classify(
                row, tokenize(states[i - 1]), got, want, is_last=(i == last)))

    if not style.pending.isdisjoint(_split(expected) if last else got):
        return TraceJudgment(False, last, MISSING_TERMINATION)
    return TraceJudgment(True)


def _classify(row, prev, got, expected, is_last) -> str:
    style = _style_of(row.program)
    try:
        style.parse(got, row.program)
    except (ReductionError, MalformedSequenceError):
        return MALFORMED_STATE
    if row.swapped is not None:
        try:
            alt = step_level(style.parse(prev, row.swapped))
            if alt is not None and style.render(alt[0]) == got:
                return RULE_ORDER_SWAP
        except (ReductionError, MalformedSequenceError):
            pass
    if is_last and style.pending.isdisjoint(got) and not style.pending.isdisjoint(expected):
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

    Each target's rank among the first max(ks) candidates is found once,
    a text candidate as the target joined by spaces: rank 0 is an exact
    match, a rank below k a hit at k.  Errors come in this order: ids, ks,
    keys, then the first record lacking a breakdown field."""
    preds, records = _pair(predictions, gold)
    ks = sorted(set(ks))
    if ks and ks[0] < 1:
        raise ValueError("k must be at least 1")
    fields = {key: _meta_field(key) for key in breakdown_keys}
    # one column per field, however many aliases name it
    columns = {field: list(map(attrgetter(f"meta.{field}"), records)) for field in fields.values()}
    lacking = [(column.index(None), field) for field, column in columns.items() if None in column]
    if lacking:  # the first record lacking a field, and its first such field
        at, field = min(lacking, key=itemgetter(0))
        raise EvalError(f"record {records[at].id} has no {field!r} metadata")

    depth = ks[-1] if ks else 1
    ranks, failures = [], {}
    for pred, record in zip(preds, records):
        cands, target = pred.candidates, record.target  # the readers keep aliases as given
        text = " ".join(target)
        # equal text is equal tokens unless a target token holds a space
        rank = cands.index(text) if text in cands and text.count(" ") == len(target) - 1 else depth
        if rank:
            if not TOKEN_ALIASES.keys().isdisjoint(target):  # then no text candidate matched
                target = normalize_tokens(target)
                text = " ".join(target)
                if text in cands and text.count(" ") == len(target) - 1:
                    rank = cands.index(text)
            if target in cands[:rank]:  # a token-list candidate ranks higher
                rank = cands.index(target)
            first = cands[0] if cands else []
            if rank and first != target:  # equal only when both are empty
                label = failure_signature(first.split(" ") if isinstance(first, str) else first, target)
                failures[label] = failures.get(label, 0) + 1
        ranks.append(rank)

    n, counts = len(records), Counter(ranks)
    breakdowns = {}
    for key, field in fields.items():
        totals, correct = Counter(columns[field]), Counter(compress(columns[field], map(not_, ranks)))
        breakdowns[key] = [BreakdownRow(bucket=b, n=totals[b], correct=correct[b],
                                        accuracy=correct[b] / totals[b])
                           for b in sorted(totals)]
    return MetricsReport(
        n=n,
        exact=counts[0] / n if n else 0.0,
        hits={k: sum(c for rank, c in counts.items() if rank < k) / n if n else 0.0 for k in ks},
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
