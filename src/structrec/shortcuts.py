"""Non-recursive successor emulators and their edge-case behavior.

These reproduce the position-based algorithms that solve the successor
task without unwinding the recursion: locate the pivot bit, copy one
segment verbatim, and fill the rest.  In faithful mode they inherit the
algorithms' blind spot on all-ones inputs (no pivot exists) and emit an
answer that is one token short; corrected mode extends the fill by one
position and matches the reduction oracle everywhere.

Both emulators run as state machines whose guards inspect nothing but
the current output position against precomputed boundaries (natural
order) or the fact that an X1 has already been emitted (reverse order).
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .asm import AsmMachine, AsmState, GuardedRule, asm_run, machine_output
from .errors import GenerationError, MalformedSequenceError
from .evaluation import failure_signature
from .reduction import Call, Value, reduce
from .terms import (
    BIN_POS,
    NATURAL,
    ONE,
    REVERSE,
    X0,
    X1,
    _bin_terms,
    _bin_tokens,
    _chain_length,
    linearize,
    normalize_tokens,
)

FAITHFUL = "faithful"
CORRECTED = "corrected"

# guard-visible locations, audited in tests: natural-order guards look at
# the output position against precomputed boundaries only; reverse-order
# guards may additionally look at whether an X1 is already out
NATURAL_GUARD_LOCATIONS = frozenset({"done", "outn", "copy_upto", "halt"})
REVERSE_GUARD_LOCATIONS = frozenset({"done", "outn", "pivot", "halt", "x1_out"})


def _check_mode(mode: str) -> None:
    if mode not in (FAITHFUL, CORRECTED):
        raise ValueError(f"unknown emulator mode: {mode!r}")


# ---------------------------------------------------------------------------
# edge-case groups


def edge_group(value: int) -> int:
    """1 for all-ones values (>= 2 bits), 2 for values of binary shape
    1 0 1...1 (>= 3 bits), else 0."""
    if value >= 3 and value & (value + 1) == 0:
        return 1
    bits = value.bit_length()
    if bits >= 3 and value == 3 * 2 ** (bits - 2) - 1:
        return 2
    return 0


def group1_value(bits: int) -> int:
    if bits < 2:
        raise GenerationError("group 1 needs bit length >= 2")
    return 2**bits - 1


def group2_value(bits: int) -> int:
    if bits < 3:
        raise GenerationError("group 2 needs bit length >= 3")
    return 3 * 2 ** (bits - 2) - 1


# ---------------------------------------------------------------------------
# machines


def _validated(tokens, order: str) -> list[str]:
    toks = normalize_tokens(tokens)
    _chain_length(toks if order == REVERSE else toks[::-1], BIN_POS)
    return toks


@functools.cache
def natural_shortcut_machine(mode: str = FAITHFUL) -> AsmMachine:
    """Natural order: copy everything strictly before the final X0, emit
    one X1, then X0 tokens up to the halting position.  With no X0 in the
    input the run opens with 01 instead; faithful mode then halts one
    position early."""
    _check_mode(mode)

    def init(tokens) -> AsmState:
        toks = _validated(tokens, NATURAL)
        n = len(toks)
        last_zero = max((i for i, tok in enumerate(toks) if tok == X0), default=None)
        if last_zero is not None:
            copy_upto, pivot_token, halt = last_zero, X1, n
        elif n == 1:
            copy_upto, pivot_token, halt = 0, ONE, 2  # the base pair is learned outright
        elif mode == CORRECTED:
            copy_upto, pivot_token, halt = 0, ONE, n + 1
        else:
            copy_upto, pivot_token, halt = 0, ONE, n
        return AsmState.load(toks, copy_upto=copy_upto, pivot_token=pivot_token, halt=halt)

    rules = (
        GuardedRule(
            "copy-prefix",
            lambda s: s["done"] is False and s["outn"] < s["copy_upto"],
            lambda s: [(("out", s["outn"]), s["in", s["outn"]]), ("outn", s["outn"] + 1)],
        ),
        GuardedRule(
            "emit-pivot",
            lambda s: s["done"] is False and s["outn"] == s["copy_upto"] < s["halt"],
            lambda s: [(("out", s["outn"]), s["pivot_token"]), ("outn", s["outn"] + 1)],
        ),
        GuardedRule(
            "fill-zeros",
            lambda s: s["done"] is False and s["copy_upto"] < s["outn"] < s["halt"],
            lambda s: [(("out", s["outn"]), X0), ("outn", s["outn"] + 1)],
        ),
        GuardedRule(
            "halt",
            lambda s: s["done"] is False and s["outn"] == s["halt"],
            lambda s: [("done", True)],
        ),
    )
    return AsmMachine(
        name=f"shortcut-natural-{mode}",
        rules=rules,
        init=init,
        halted=lambda s: s["done"] is True,
    )


@functools.cache
def reverse_shortcut_machine(mode: str = FAITHFUL) -> AsmMachine:
    """Reverse order: X0 until the position of the input's first X0, one
    X1 there, then copy the remainder; the emitted X1 is the switch
    signal.  With no X0 the pivot degrades to the closing 01; faithful
    mode places it one position early."""
    _check_mode(mode)

    def init(tokens) -> AsmState:
        toks = _validated(tokens, REVERSE)
        n = len(toks)
        first_zero = next((i for i, tok in enumerate(toks) if tok == X0), None)
        if first_zero is not None:
            pivot, pivot_token, halt = first_zero, X1, n
        elif n == 1:
            pivot, pivot_token, halt = 1, ONE, 2  # the base pair is learned outright
        elif mode == CORRECTED:
            pivot, pivot_token, halt = n, ONE, n + 1
        else:
            pivot, pivot_token, halt = n - 1, ONE, n
        return AsmState.load(toks, pivot=pivot, pivot_token=pivot_token, halt=halt,
                             x1_out=False)

    rules = (
        GuardedRule(
            "emit-zeros",
            lambda s: s["done"] is False and s["x1_out"] is False and s["outn"] < s["pivot"],
            lambda s: [(("out", s["outn"]), X0), ("outn", s["outn"] + 1)],
        ),
        GuardedRule(
            "emit-pivot",
            lambda s: s["done"] is False
            and s["x1_out"] is False
            and s["outn"] == s["pivot"]
            and s["outn"] < s["halt"],
            lambda s: [(("out", s["outn"]), s["pivot_token"]),
                       ("outn", s["outn"] + 1),
                       ("x1_out", s["pivot_token"] == X1)],
        ),
        GuardedRule(
            "copy-tail",
            lambda s: s["done"] is False and s["x1_out"] is True and s["outn"] < s["halt"],
            lambda s: [(("out", s["outn"]), s["in", s["outn"]]), ("outn", s["outn"] + 1)],
        ),
        GuardedRule(
            "halt",
            lambda s: s["done"] is False and s["outn"] == s["halt"],
            lambda s: [("done", True)],
        ),
    )
    return AsmMachine(
        name=f"shortcut-reverse-{mode}",
        rules=rules,
        init=init,
        halted=lambda s: s["done"] is True,
    )


def emulate_natural(tokens, mode: str = FAITHFUL) -> list[str]:
    """Successor of a natural-order sequence via the shortcut machine."""
    return machine_output(asm_run(natural_shortcut_machine(mode), list(tokens))[0])


def emulate_reverse(tokens, mode: str = FAITHFUL) -> list[str]:
    """Successor of a constructor-order sequence via the shortcut machine."""
    return machine_output(asm_run(reverse_shortcut_machine(mode), list(tokens))[0])


# ---------------------------------------------------------------------------
# disagreement reports against the reduction oracle


@dataclass(frozen=True)
class Disagreement:
    value: int
    bits: int
    edge_group: int
    expected: tuple[str, ...]
    got: tuple[str, ...]
    label: str


@dataclass(frozen=True)
class DisagreementReport:
    order: str
    mode: str
    lo: int
    hi: int
    checked: int
    disagreements: tuple[Disagreement, ...]


def diff_against_oracle(order: str, mode: str, lo: int, hi: int) -> DisagreementReport:
    """Compare the emulator with the normal form of s(.) over a value range."""
    if order not in (NATURAL, REVERSE):
        raise ValueError(f"unknown order: {order!r}")
    _check_mode(mode)
    if not 1 <= lo <= hi:
        raise ValueError(f"bad value range {lo}..{hi}")
    emulate = emulate_natural if order == NATURAL else emulate_reverse
    step = -1 if order == NATURAL else 1  # natural order is the reversal
    found = []
    for value, term in zip(range(lo, hi + 1), _bin_terms(lo, hi)):
        expected = linearize(reduce(Call("s", (Value(term),)))[0].term)[::step]
        got = emulate(_bin_tokens(value)[::step], mode)
        if got != expected:
            found.append(
                Disagreement(
                    value=value,
                    bits=value.bit_length(),
                    edge_group=edge_group(value),
                    expected=tuple(expected),
                    got=tuple(got),
                    label=failure_signature(got, expected),
                )
            )
    return DisagreementReport(order, mode, lo, hi, hi - lo + 1, tuple(found))


def report_to_jsonl(report: DisagreementReport) -> str:
    lines = []
    for d in report.disagreements:
        lines.append(
            json.dumps(
                {
                    "value": d.value,
                    "bits": d.bits,
                    "edge_group": d.edge_group,
                    "expected": list(d.expected),
                    "got": list(d.got),
                    "label": d.label,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")


def report_summary(report: DisagreementReport) -> str:
    """Aligned text table: disagreements per bit length and label."""
    by_bits: dict[int, int] = {}
    by_label: dict[str, int] = {}
    for d in report.disagreements:
        by_bits[d.bits] = by_bits.get(d.bits, 0) + 1
        by_label[d.label] = by_label.get(d.label, 0) + 1
    lines = [
        f"emulator {report.order}/{report.mode} vs oracle on {report.lo}..{report.hi}",
        f"checked {report.checked}, disagreements {len(report.disagreements)}",
    ]
    if by_bits:
        lines.append("  bits  count")
        for bits in sorted(by_bits):
            lines.append(f"  {bits:>4}  {by_bits[bits]:>5}")
        lines.append("  label counts")
        for label in sorted(by_label):
            lines.append(f"  {label}: {by_label[label]}")
    return "\n".join(lines)
