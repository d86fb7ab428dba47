"""Guarded-update machines: simultaneity, clashes, budgets, recursion."""

import dataclasses
import random

import pytest

from structrec.asm import (
    UNDEF,
    AsmMachine,
    AsmState,
    GuardedRule,
    ReadLog,
    asm_log,
    asm_run,
    asm_step,
    machine_output,
    rasm_run,
    successor_machine,
    successor_rasm,
)
from structrec.errors import BudgetExhaustedError, MalformedSequenceError, UpdateClashError
from structrec.terms import bin_encode, bin_value, bin_x1_run, delinearize, linearize, BIN_POS


def _succ_tokens(n):
    return linearize(bin_encode(n))


def _run_successor(n):
    state, steps = asm_run(successor_machine(), _succ_tokens(n))
    return machine_output(state), steps


# ---------------------------------------------------------------------------
# the successor machine


@pytest.mark.parametrize("n,expected", [
    (1, ["X0", "01"]),
    (2, ["X1", "01"]),
    (5, ["X0", "X1", "01"]),
    (7, ["X0", "X0", "X0", "01"]),
    (11, ["X0", "X0", "X1", "01"]),
])
def test_successor_machine_known(n, expected):
    output, _ = _run_successor(n)
    assert output == expected


def test_successor_machine_range():
    for n in range(1, 2048):
        output, _ = _run_successor(n)
        assert bin_value(delinearize(output, BIN_POS)) == n + 1


def test_successor_machine_step_count():
    # one step per leading X1, then one terminal step
    for n in range(1, 512):
        _, steps = _run_successor(n)
        assert steps == bin_x1_run(n) + 1


def test_successor_machine_rejects_garbage():
    with pytest.raises(MalformedSequenceError):
        asm_run(successor_machine(), ["X0", "X1"])


def test_mid_state_after_one_step():
    """After one step on X1 X0 01, the machine has emitted one X0 and
    still points at the X0 head."""
    machine = successor_machine()
    state = machine.init(_succ_tokens(5))
    state = asm_step(machine, state)
    assert machine_output(state) == ["X0"]
    assert state.get("done") is False
    state = asm_step(machine, state)
    assert machine_output(state) == ["X0", "X1", "01"]
    assert state.get("done") is True


def test_log_records_fired_rules():
    log = asm_log(successor_machine(), _succ_tokens(11))
    assert log[0][1] == ()
    fired = [ids for _, ids, _ in log[1:]]
    assert fired == [("shift-ones",), ("shift-ones",), ("flip-first-zero",)]


# ---------------------------------------------------------------------------
# machine semantics in general


def _const_rules(updates_by_rule):
    rules = []
    for rid, updates in updates_by_rule.items():
        rules.append(GuardedRule(
            id=rid,
            guard=lambda s: s.get("done") is UNDEF,
            updates=lambda s, u=updates: list(u),
        ))
    return rules


def test_simultaneous_updates_merge():
    rules = _const_rules({"a": [("x", 1), ("done", True)], "b": [("y", 2), ("done", True)]})
    machine = AsmMachine("toy", tuple(rules), lambda _: AsmState({}),
                         lambda s: s.get("done") is True)
    state, steps = asm_run(machine, None)
    assert (state.get("x"), state.get("y"), steps) == (1, 2, 1)


def test_agreeing_writes_do_not_clash():
    rules = _const_rules({"a": [("x", 1)], "b": [("x", 1), ("done", True)]})
    machine = AsmMachine("toy", tuple(rules), lambda _: AsmState({}),
                         lambda s: s.get("done") is True)
    state, _ = asm_run(machine, None)
    assert state.get("x") == 1


def test_clashing_writes_raise():
    rules = _const_rules({"a": [("x", 1)], "b": [("x", 2)]})
    machine = AsmMachine("toy", tuple(rules), lambda _: AsmState({}), lambda s: False)
    with pytest.raises(UpdateClashError):
        asm_step(machine, AsmState({}))


def test_clashing_writes_raise_in_a_run():
    rules = _const_rules({"a": [("x", 1)], "b": [("x", 2)]})
    machine = AsmMachine("toy", tuple(rules), lambda _: AsmState({}), lambda s: False)
    with pytest.raises(UpdateClashError, match="rules a and b both write 'x'"):
        asm_run(machine, None)


def test_a_run_reads_the_state_before_each_step():
    """Two rules swap x and y in one step: both read the old values, even
    though the run applies the updates to its state in place."""
    rules = (
        GuardedRule("x-from-y", lambda s: s["n"] < 3, lambda s: [("x", s["y"])]),
        GuardedRule("y-from-x", lambda s: s["n"] < 3, lambda s: [("y", s["x"])]),
        GuardedRule("count", lambda s: s["n"] < 3, lambda s: [("n", s["n"] + 1)]),
    )
    machine = AsmMachine("swap", rules, lambda _: AsmState({"x": 1, "y": 2, "n": 0}),
                         lambda s: s["n"] == 3)
    state, steps = asm_run(machine, None)
    assert (state["x"], state["y"], steps) == (2, 1, 3)
    log = asm_log(machine, None)
    assert [(entry[2]["x"], entry[2]["y"]) for entry in log] == [(1, 2), (2, 1), (1, 2), (2, 1)]
    assert log[1][1] == ("x-from-y", "y-from-x", "count")


def test_rule_order_does_not_matter():
    rng = random.Random(10)
    base = successor_machine()
    for n in (5, 7, 44, 191):
        for _ in range(5):
            rules = list(base.rules)
            rng.shuffle(rules)
            shuffled = AsmMachine(base.name, tuple(rules), base.init, base.halted)
            assert machine_output(asm_run(shuffled, _succ_tokens(n))[0]) == \
                machine_output(asm_run(base, _succ_tokens(n))[0])


def test_no_fireable_rule_is_a_fixed_point():
    machine = AsmMachine("idle", (), lambda _: AsmState({"a": 1}), lambda s: False)
    state = machine.init(None)
    assert asm_step(machine, state) == state


def test_unset_locations_read_undef():
    state = AsmState({})
    assert state.get("anything") is UNDEF
    assert state.get("arr", 3) is UNDEF
    for base in (state, {"arr": [1]}):
        log = ReadLog(base)
        assert (log["anything"], log.get("arr", 3)) == (UNDEF, UNDEF)
        assert log.reads == {"anything", "arr"}


def test_budget_exhausted():
    machine = AsmMachine("spin", (), lambda _: AsmState({}), lambda s: False)
    with pytest.raises(BudgetExhaustedError):
        asm_run(machine, None, budget=5)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        asm_run(successor_machine(), _succ_tokens(3), budget=0)


def test_states_are_immutable_snapshots():
    state = AsmState({"x": 1})
    updated = state.with_updates({"x": 2, "y": 3})
    assert state.get("x") == 1 and state.get("y") is UNDEF
    assert updated.get("x") == 2 and updated.get("y") == 3


def test_a_step_leaves_the_earlier_state_and_its_tapes_as_they_were():
    machine = successor_machine()
    state = machine.init(_succ_tokens(5))
    stepped = asm_step(machine, state)
    assert state["out"] == [] and state["outn"] == 0
    assert stepped["out"] == ["X0"] and stepped["in"] == state["in"]


def test_each_log_entry_keeps_the_tape_of_its_step():
    """The rule overwrites out[0] on every step; each entry shows the value
    of its own step, not the last one."""
    rules = (GuardedRule("bump", lambda s: s["n"] < 3,
                         lambda s: [(("out", 0), s["n"]), ("n", s["n"] + 1)]),)
    machine = AsmMachine("bump", rules, lambda _: AsmState({"n": 0, "out": ["a"]}),
                         lambda s: s["n"] == 3)
    assert [entry[2]["out"] for entry in asm_log(machine, None)] == [["a"], [0], [1], [2]]


@pytest.mark.parametrize("start", [{}, {"out": []}], ids=["unset", "empty"])
def test_a_cell_past_the_end_of_a_tape_reads_back(start):
    rules = (GuardedRule("far", lambda s: s["done"] is UNDEF,
                         lambda s: [(("out", 3), "X1"), ("done", True)]),)
    machine = AsmMachine("far", rules, lambda _: AsmState(start), lambda s: s["done"] is True)
    state, steps = asm_run(machine, None)
    assert (state["out"][3], steps) == ("X1", 1)
    assert [state.get("out", j) for j in range(5)] == [UNDEF, UNDEF, UNDEF, "X1", UNDEF]


def test_one_rule_writing_a_cell_twice_clashes():
    rules = (GuardedRule("twice", lambda s: True,
                         lambda s: [(("out", 3), "X0"), (("out", 3), "X1")]),)
    machine = AsmMachine("toy", rules, lambda _: AsmState({}), lambda s: False)
    with pytest.raises(UpdateClashError) as raised:
        asm_run(machine, None)
    assert str(raised.value) == \
        "toy: rules twice and twice both write ('out', 3) with different values"


# ---------------------------------------------------------------------------
# the recursive machine


def test_rasm_matches_flat_machine():
    spec = successor_rasm()
    for n in range(1, 1024):
        flat, _ = _run_successor(n)
        result = rasm_run(spec, _succ_tokens(n))
        assert result.output == flat


def test_rasm_child_count_is_x1_run():
    spec = successor_rasm()
    for n in range(1, 512):
        result = rasm_run(spec, _succ_tokens(n))
        assert result.agent_count == bin_x1_run(n)
        assert result.max_call_depth == bin_x1_run(n)


def test_rasm_known_values():
    spec = successor_rasm()
    result = rasm_run(spec, _succ_tokens(15))
    assert result.output == ["X0", "X0", "X0", "X0", "01"]
    assert result.agent_count == 3


def _rasm_locations(n):
    """Locations held across a run on X1^n 01: every agent's own entries
    (all but its references to the tapes) and the cells of the tapes."""
    spec = successor_rasm()
    stores = []

    def kept(state):
        stores.append(state)
        return state

    counted = dataclasses.replace(
        spec,
        machine=dataclasses.replace(spec.machine, init=lambda toks: kept(spec.machine.init(toks))),
        spawn=lambda s: kept(spec.spawn(s)),
    )
    result = rasm_run(counted, ["X1"] * n + ["01"])
    assert result.output == ["X0"] * (n + 1) + ["01"] and len(stores) == n + 1
    root = stores[0]
    assert all(store["in"] is root["in"] and store["out"] is root["out"] for store in stores)
    return sum(len(store) - 2 for store in stores) + len(root["in"]) + len(root["out"])


@pytest.mark.parametrize("n", [300, 1199])
def test_rasm_holds_locations_linear_in_the_input(n):
    # an agent that copied the rest of the input or its child's answer
    # would hold about n**2 / 2 locations across the run
    assert _rasm_locations(n) <= 10 * (n + 1)
