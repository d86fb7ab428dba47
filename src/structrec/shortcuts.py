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
from dataclasses import asdict, dataclass

from .asm import AsmMachine, GuardedRule, _start, asm_run, machine_output
from .evaluation import failure_signature
from .terms import (
    BIN_POS,
    NATURAL,
    ONE,
    REVERSE,
    X0,
    X1,
    _bin_tokens,
    _chain_length,
    edge_group,
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

    def init(tokens) -> dict:
        toks = _validated(tokens, NATURAL)
        n = len(toks)
        if X0 in toks:  # the last X0 is the pivot
            copy_upto, pivot_token, halt = n - 1 - toks[::-1].index(X0), X1, n
        elif n == 1:
            copy_upto, pivot_token, halt = 0, ONE, 2  # the base pair is learned outright
        elif mode == CORRECTED:
            copy_upto, pivot_token, halt = 0, ONE, n + 1
        else:
            copy_upto, pivot_token, halt = 0, ONE, n
        return _start(toks, copy_upto=copy_upto, pivot_token=pivot_token, halt=halt)

    rules = (
        GuardedRule("copy-prefix", 's["done"] is False and s["outn"] < s["copy_upto"]',
                    '[(("out", s["outn"]), s["in"][s["outn"]]), ("outn", s["outn"] + 1)]'),
        GuardedRule("emit-pivot", 's["done"] is False and s["outn"] == s["copy_upto"] < s["halt"]',
                    '[(("out", s["outn"]), s["pivot_token"]), ("outn", s["outn"] + 1)]'),
        GuardedRule("fill-zeros", 's["done"] is False and s["copy_upto"] < s["outn"] < s["halt"]',
                    '[(("out", s["outn"]), X0), ("outn", s["outn"] + 1)]'),
        GuardedRule("halt", 's["done"] is False and s["outn"] == s["halt"]', '[("done", True)]'),
    )
    return AsmMachine(f"shortcut-natural-{mode}", rules, init, halted='s["done"] is True')


@functools.cache
def reverse_shortcut_machine(mode: str = FAITHFUL) -> AsmMachine:
    """Reverse order: X0 until the position of the input's first X0, one
    X1 there, then copy the remainder; the emitted X1 is the switch
    signal.  With no X0 the pivot degrades to the closing 01; faithful
    mode places it one position early."""
    _check_mode(mode)

    def init(tokens) -> dict:
        toks = _validated(tokens, REVERSE)
        n = len(toks)
        if X0 in toks:  # the first X0 is the pivot
            pivot, pivot_token, halt = toks.index(X0), X1, n
        elif n == 1:
            pivot, pivot_token, halt = 1, ONE, 2  # the base pair is learned outright
        elif mode == CORRECTED:
            pivot, pivot_token, halt = n, ONE, n + 1
        else:
            pivot, pivot_token, halt = n - 1, ONE, n
        return _start(toks, pivot=pivot, pivot_token=pivot_token, halt=halt, x1_out=False)

    rules = (
        GuardedRule("emit-zeros",
                    's["done"] is False and s["x1_out"] is False and s["outn"] < s["pivot"]',
                    '[(("out", s["outn"]), X0), ("outn", s["outn"] + 1)]'),
        GuardedRule("emit-pivot",
                    's["done"] is False and s["x1_out"] is False'
                    ' and s["outn"] == s["pivot"] and s["outn"] < s["halt"]',
                    '[(("out", s["outn"]), s["pivot_token"]), ("outn", s["outn"] + 1),'
                    ' ("x1_out", s["pivot_token"] == X1)]'),
        GuardedRule("copy-tail",
                    's["done"] is False and s["x1_out"] is True and s["outn"] < s["halt"]',
                    '[(("out", s["outn"]), s["in"][s["outn"]]), ("outn", s["outn"] + 1)]'),
        GuardedRule("halt", 's["done"] is False and s["outn"] == s["halt"]', '[("done", True)]'),
    )
    return AsmMachine(f"shortcut-reverse-{mode}", rules, init, halted='s["done"] is True')


def emulate_natural(tokens, mode: str = FAITHFUL) -> list[str]:
    """Successor of a natural-order sequence via the shortcut machine."""
    return machine_output(asm_run(natural_shortcut_machine(mode), tokens)[0])


def emulate_reverse(tokens, mode: str = FAITHFUL) -> list[str]:
    """Successor of a constructor-order sequence via the shortcut machine."""
    return machine_output(asm_run(reverse_shortcut_machine(mode), tokens)[0])


# ---------------------------------------------------------------------------
# disagreement reports against the successor oracle


@dataclass(frozen=True)
class Disagreement:
    value: int
    bits: int
    edge_group: int
    expected: tuple[str, ...]
    got: tuple[str, ...]
    label: str

    def to_dict(self) -> dict:
        return asdict(self)

    def _json_line(self, esc) -> str:
        """The line datasets.write_jsonl writes; esc is its memo of escaped tokens."""
        return (f'{{"bits":{self.bits},"edge_group":{self.edge_group},'
                f'"expected":[{",".join(map(esc.__getitem__, self.expected))}],'
                f'"got":[{",".join(map(esc.__getitem__, self.got))}],'
                f'"label":{esc[self.label]},"value":{self.value}}}\n')


@dataclass(frozen=True)
class DisagreementReport:
    order: str
    mode: str
    lo: int
    hi: int
    checked: int
    disagreements: tuple[Disagreement, ...]


def diff_against_oracle(order: str, mode: str, lo: int, hi: int) -> DisagreementReport:
    """Compare the emulator with gen's successor, _bin_tokens(v + 1), over a value range."""
    if order not in (NATURAL, REVERSE):
        raise ValueError(f"unknown order: {order!r}")
    _check_mode(mode)
    if not 1 <= lo <= hi:
        raise ValueError(f"bad value range {lo}..{hi}")
    emulate = emulate_natural if order == NATURAL else emulate_reverse
    step = -1 if order == NATURAL else 1  # natural order is the reversal
    found, tokens = [], _bin_tokens(lo)[::step]
    for value in range(lo, hi + 1):  # the expected tokens of v are the input of v + 1
        expected = _bin_tokens(value + 1)[::step]
        got, tokens = emulate(tokens, mode), expected
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
