"""Shortcut emulators: exact outputs, edge groups, guard discipline."""

import json
import tracemalloc

import pytest

from structrec.asm import ReadLog, asm_run, asm_step, machine_output
from structrec.datasets import record_rng
from structrec.errors import GenerationError, MalformedSequenceError
from structrec.reduction import Call, Value, reduce
from structrec.shortcuts import (
    CORRECTED,
    FAITHFUL,
    NATURAL_GUARD_LOCATIONS,
    REVERSE_GUARD_LOCATIONS,
    diff_against_oracle,
    edge_group,
    emulate_natural,
    emulate_reverse,
    group1_value,
    group2_value,
    natural_shortcut_machine,
    report_summary,
    report_to_jsonl,
    reverse_shortcut_machine,
)
from structrec.terms import NATURAL, REVERSE, bin_encode, linearize, reorder


def _oracle(value, order):
    final, _ = reduce(Call("s", (Value(bin_encode(value)),)))
    toks = linearize(final.term)
    return toks if order == REVERSE else list(reversed(toks))


def _input(value, order):
    toks = linearize(bin_encode(value))
    return toks if order == REVERSE else list(reversed(toks))


# ---------------------------------------------------------------------------
# pinned behavior


@pytest.mark.parametrize("tokens,expected", [
    (["01"], ["01", "X0"]),
    (["01", "X0"], ["01", "X1"]),
    (["01", "X0", "X1", "X1"], ["01", "X1", "X0", "X0"]),
    (["01", "X1", "X0"], ["01", "X1", "X1"]),
])
def test_natural_known(tokens, expected):
    assert emulate_natural(tokens) == expected


@pytest.mark.parametrize("tokens,expected", [
    (["01"], ["X0", "01"]),
    (["X0", "01"], ["X1", "01"]),
    (["X1", "X1", "X0", "01"], ["X0", "X0", "X1", "01"]),
])
def test_reverse_known(tokens, expected):
    assert emulate_reverse(tokens) == expected


def test_faithful_all_ones_is_one_token_short():
    # seven: the faithful answer misses one filler token
    assert emulate_natural(["01", "X1", "X1"], FAITHFUL) == ["01", "X0", "X0"]
    assert emulate_natural(["01", "X1", "X1"], CORRECTED) == ["01", "X0", "X0", "X0"]
    assert emulate_reverse(["X1", "X1", "01"], FAITHFUL) == ["X0", "X0", "01"]
    assert emulate_reverse(["X1", "X1", "01"], CORRECTED) == ["X0", "X0", "X0", "01"]


def test_base_case_is_correct_in_both_modes():
    for mode in (FAITHFUL, CORRECTED):
        assert emulate_natural(["01"], mode) == ["01", "X0"]
        assert emulate_reverse(["01"], mode) == ["X0", "01"]


def test_rejects_malformed_input():
    with pytest.raises(MalformedSequenceError):
        emulate_reverse(["X0", "X0"])
    with pytest.raises(MalformedSequenceError):
        emulate_natural(["X0", "01"])  # constructor order handed to the natural side


def test_rejects_unknown_mode():
    with pytest.raises(ValueError):
        emulate_natural(["01"], "sloppy")


# ---------------------------------------------------------------------------
# agreement sweeps


@pytest.mark.parametrize("order", [NATURAL, REVERSE])
def test_corrected_matches_oracle(order):
    emulate = emulate_natural if order == NATURAL else emulate_reverse
    for n in range(1, 2048):
        assert emulate(_input(n, order), CORRECTED) == _oracle(n, order), n


@pytest.mark.parametrize("order", [NATURAL, REVERSE])
def test_faithful_wrong_exactly_on_all_ones(order):
    emulate = emulate_natural if order == NATURAL else emulate_reverse
    for n in range(1, 2048):
        got = emulate(_input(n, order), FAITHFUL)
        want = _oracle(n, order)
        if edge_group(n) == 1:
            assert got != want, n
            assert len(got) == len(want) - 1, n
        else:
            assert got == want, n


def test_diff_report_natural_faithful():
    report = diff_against_oracle(NATURAL, FAITHFUL, 1, 1024)
    assert report.checked == 1024
    values = sorted(d.value for d in report.disagreements)
    assert values == [2**k - 1 for k in range(2, 11)]
    assert all(d.label == "one-token-short" for d in report.disagreements)
    assert all(d.edge_group == 1 for d in report.disagreements)


def test_diff_report_corrected_is_empty():
    for order in (NATURAL, REVERSE):
        report = diff_against_oracle(order, CORRECTED, 1, 1024)
        assert report.disagreements == ()


def _random_value(rng) -> int:
    """Up to 2,000 bits: all ones, all ones but one zero bit, or uniform."""
    bits = rng.randint(1, 2000)
    ones = 2**bits - 1
    shape = rng.randrange(3)
    if shape == 0:
        return ones
    if shape == 1 and bits >= 2:
        return ones - 2 ** rng.randrange(bits - 1)
    return rng.getrandbits(bits) | 2 ** (bits - 1)


def test_oracle_sweep_holds_no_range_of_terms():
    diff_against_oracle(NATURAL, FAITHFUL, 1, 8)  # machines and programs are built once
    tracemalloc.start()
    try:
        diff_against_oracle(NATURAL, FAITHFUL, 1, 2**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a cache of every term of the range traces about 0.85 MB here
    assert peak < 64 * 1024


def test_random_long_values_against_the_oracle():
    """Corrected mode equals the oracle; faithful mode disagrees exactly on
    the values 2^L - 1 (L >= 2), one token short."""
    for case in range(24):
        value = _random_value(record_rng(0, "shortcut-oracle", case))
        all_ones = value >= 3 and value == 2 ** value.bit_length() - 1
        for order in (NATURAL, REVERSE):
            assert diff_against_oracle(order, CORRECTED, value, value).disagreements == ()
            found = diff_against_oracle(order, FAITHFUL, value, value).disagreements
            assert [d.label for d in found] == (["one-token-short"] if all_ones else []), \
                (case, order, value.bit_length())
            assert [d.value for d in found] == ([value] if all_ones else [])


def test_report_serializations():
    report = diff_against_oracle(NATURAL, FAITHFUL, 1, 64)
    lines = [json.loads(line) for line in report_to_jsonl(report).splitlines()]
    assert [entry["value"] for entry in lines] == [3, 7, 15, 31, 63]
    summary = report_summary(report)
    assert "disagreements 5" in summary


# ---------------------------------------------------------------------------
# edge groups


def test_edge_group_membership():
    for n, g in [(1, 0), (2, 0), (3, 1), (5, 2), (7, 1), (11, 2), (12, 0),
                 (15, 1), (23, 2), (24, 0)]:
        assert edge_group(n) == g, n


def test_edge_group_against_token_shapes():
    """Group 1 is all X1 constructors; group 2 is X1s then a single X0."""
    for n in range(1, 4096):
        toks = linearize(bin_encode(n))
        body = toks[:-1]  # drop the closing 01
        if body and all(t == "X1" for t in body):
            expected = 1
        elif len(body) >= 2 and body[-1] == "X0" and all(t == "X1" for t in body[:-1]):
            expected = 2
        else:
            expected = 0
        assert edge_group(n) == expected, n


def test_group_values():
    assert [group1_value(L) for L in range(2, 6)] == [3, 7, 15, 31]
    assert [group2_value(L) for L in range(3, 6)] == [5, 11, 23]
    with pytest.raises(GenerationError):
        group1_value(1)
    with pytest.raises(GenerationError):
        group2_value(2)


# ---------------------------------------------------------------------------
# guard discipline


def _audit_guard_reads(machine, tokens):
    state = machine.init(tokens)
    reads = set()
    for _ in range(256):
        if machine.halted(state):
            break
        log = ReadLog(state)
        for rule in machine.rules:
            rule.guard(log)
        reads |= log.reads
        state = asm_step(machine, state)
    else:
        raise AssertionError("machine did not halt")
    return reads


@pytest.mark.parametrize("mode", [FAITHFUL, CORRECTED])
def test_natural_guards_read_position_only(mode):
    machine = natural_shortcut_machine(mode)
    for n in (1, 2, 7, 11, 44, 127, 190):
        reads = _audit_guard_reads(machine, _input(n, NATURAL))
        assert reads <= NATURAL_GUARD_LOCATIONS, reads


@pytest.mark.parametrize("mode", [FAITHFUL, CORRECTED])
def test_reverse_guards_also_see_the_emitted_pivot(mode):
    machine = reverse_shortcut_machine(mode)
    for n in (1, 2, 7, 11, 44, 127, 190):
        reads = _audit_guard_reads(machine, _input(n, REVERSE))
        assert reads <= REVERSE_GUARD_LOCATIONS, reads
    # the reverse guards really do consult the pivot flag
    assert "x1_out" in _audit_guard_reads(machine, _input(44, REVERSE))


def test_guards_never_read_the_input_tape():
    for machine in (natural_shortcut_machine(), reverse_shortcut_machine()):
        order = NATURAL if "natural" in machine.name else REVERSE
        for n in (5, 28, 191):
            assert "in" not in _audit_guard_reads(machine, _input(n, order))


def test_machine_runs_within_linear_budget():
    machine = natural_shortcut_machine()
    tokens = _input(2**16 - 3, NATURAL)
    _, steps = asm_run(machine, tokens)
    assert steps <= len(tokens) + 2
