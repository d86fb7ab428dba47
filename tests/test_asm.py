"""Guarded-update machines: simultaneity, clashes, budgets, recursion."""

import collections
import dataclasses
import random

import pytest

from structrec import asm
from structrec.asm import (
    UNDEF,
    AsmMachine,
    GuardedRule,
    ReadLog,
    _pairs,
    _snapshot,
    asm_log,
    asm_run,
    asm_step,
    machine_output,
    rasm_run,
    successor_machine,
    successor_rasm,
)
from structrec.errors import BudgetExhaustedError, MalformedSequenceError, UpdateClashError
from structrec.shortcuts import (
    CORRECTED,
    FAITHFUL,
    natural_shortcut_machine,
    reverse_shortcut_machine,
)
from structrec.terms import (
    BIN_POS,
    _bin_tokens,
    bin_encode,
    bin_value,
    bin_x1_run,
    delinearize,
    linearize,
)


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
            guard=lambda s: s["done"] is False,
            updates=lambda s, u=updates: list(u),
        ))
    return rules


def _toy(updates_by_rule):
    return AsmMachine("toy", tuple(_const_rules(updates_by_rule)), lambda _: {"done": False},
                      lambda s: s["done"] is True)


def test_simultaneous_updates_merge():
    machine = _toy({"a": [("x", 1), ("done", True)], "b": [("y", 2), ("done", True)]})
    state, steps = asm_run(machine, None)
    assert (state["x"], state["y"], steps) == (1, 2, 1)


def test_agreeing_writes_do_not_clash():
    two_rules = {"a": [("x", 1)], "b": [("x", 1), ("done", True)]}
    # one rule writing one cell twice with one value
    one_rule = {"twice": [(("out", 1), "X1"), ("x", 1), (("out", 1), "X1"), ("done", True)]}
    for updates_by_rule in (two_rules, one_rule):
        state, steps = asm_run(_toy(updates_by_rule), None)
        assert (state["x"], steps) == (1, 1)
    assert state["out"] == [UNDEF, "X1"]


def test_clashing_writes_raise():
    machine = _toy({"a": [("x", 1)], "b": [("x", 2)]})
    with pytest.raises(UpdateClashError):
        asm_step(machine, {"done": False})


def test_clashing_writes_raise_in_a_run():
    machine = _toy({"a": [("x", 1)], "b": [("x", 2)]})
    with pytest.raises(UpdateClashError, match="rules a and b both write 'x'"):
        asm_run(machine, None)


def test_a_clash_raises_before_a_later_rule_is_tested():
    # rules are tested, and their updates merged, one by one in rule order
    later = (GuardedRule("guard-fails", lambda s: 1 / 0, "[]"),
             GuardedRule("updates-fail", "True", lambda s: 1 / 0))
    for rule in later:
        machine = AsmMachine("toy", (*_const_rules({"a": [("x", 1)], "b": [("x", 2)]}), rule),
                             lambda _: {"done": False}, lambda s: False)
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
    machine = AsmMachine("swap", rules, lambda _: {"x": 1, "y": 2, "n": 0},
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
    machine = AsmMachine("idle", (), lambda _: {"a": 1}, lambda s: False)
    state = machine.init(None)
    assert asm_step(machine, state) == state


def test_unset_locations_read_undef():
    for base in ({}, {"arr": [1]}):
        log = ReadLog(base)
        assert (log["anything"], log.get("arr", 3)) == (UNDEF, UNDEF)
        assert log.reads == {"anything", "arr"}


def test_budget_exhausted():
    machine = AsmMachine("spin", (), lambda _: {}, lambda s: False)
    with pytest.raises(BudgetExhaustedError):
        asm_run(machine, None, budget=5)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        asm_run(successor_machine(), _succ_tokens(3), budget=0)


def test_a_step_leaves_the_earlier_state_and_its_tapes_as_they_were():
    machine = successor_machine()
    state = machine.init(_succ_tokens(5))
    stepped = asm_step(machine, state)
    assert state["out"] == [] and (state["outn"], state["pos"]) == (0, 0)
    assert stepped["out"] == ["X0"] and stepped["in"] == state["in"]
    assert (stepped["outn"], stepped["pos"]) == (1, 1)
    # a location the step adds appears in the new state only
    state = {"x": 1, "done": False}
    stepped = asm_step(_toy({"a": [("x", 2), ("y", 3)]}), state)
    assert state == {"x": 1, "done": False} and stepped == {"x": 2, "y": 3, "done": False}


def test_each_log_entry_keeps_the_tape_of_its_step():
    """The rule overwrites out[0] on every step; each entry shows the value
    of its own step, not the last one."""
    rules = (GuardedRule("bump", lambda s: s["n"] < 3,
                         lambda s: [(("out", 0), s["n"]), ("n", s["n"] + 1)]),)
    machine = AsmMachine("bump", rules, lambda _: {"n": 0, "out": ["a"]},
                         lambda s: s["n"] == 3)
    assert [entry[2]["out"] for entry in asm_log(machine, None)] == [["a"], [0], [1], [2]]


@pytest.mark.parametrize("start", [{}, {"out": []}], ids=["unset", "empty"])
def test_a_cell_past_the_end_of_a_tape_reads_back(start):
    rules = (GuardedRule("far", lambda s: s["done"] is False,
                         lambda s: [(("out", 3), "X1"), ("done", True)]),)
    machine = AsmMachine("far", rules, lambda _: {"done": False, **start},
                         lambda s: s["done"] is True)
    state, steps = asm_run(machine, None)
    assert (state["out"][3], steps) == ("X1", 1)
    assert [ReadLog(state).get("out", j) for j in range(5)] == [UNDEF, UNDEF, UNDEF, "X1", UNDEF]


def test_one_rule_writing_a_cell_twice_clashes():
    rules = (GuardedRule("twice", lambda s: True,
                         lambda s: [(("out", 3), "X0"), (("out", 3), "X1")]),)
    machine = AsmMachine("toy", rules, lambda _: {}, lambda s: False)
    with pytest.raises(UpdateClashError) as raised:
        asm_run(machine, None)
    assert str(raised.value) == \
        "toy: rules twice and twice both write ('out', 3) with different values"


@pytest.mark.parametrize("b", [1, True], ids=["same-int", "int-and-bool"])
@pytest.mark.parametrize("y", ["X0", "X1"], ids=["clash", "agree"])
def test_one_text_rule_writing_a_cell_through_two_equal_indices(b, y):
    """The two cells' indices are only known to be equal at run time, and
    1 and True name one cell, as they are one key of a dict."""
    text = '[(("out", s["a"]), s["x"]), (("out", s["b"]), s["y"])]'
    assert _pairs(text) is not None  # the rule is written straight into the state
    machine = AsmMachine("toy", (GuardedRule("twice", "True", text),), lambda _: {},
                         lambda s: False)
    state = {"a": 1, "b": b, "x": "X1", "y": y, "out": []}
    if y == "X0":
        with pytest.raises(UpdateClashError) as raised:
            machine.step(state)
        assert str(raised.value) == \
            f"toy: rules twice and twice both write ('out', {b!r}) with different values"
    else:
        assert list(machine.step(state)) == ["twice"]
        assert state["out"] == [UNDEF, "X1"]


def test_every_text_update_of_the_built_in_machines_is_taken_apart():
    """Each is written straight into the state when its rule fires alone."""
    machines = [successor_machine(), successor_rasm().machine]
    machines += [build(mode) for build in (natural_shortcut_machine, reverse_shortcut_machine)
                 for mode in (FAITHFUL, CORRECTED)]
    texts = {(machine.name, rule.id): rule.text[1]
             for machine in machines for rule in machine.rules if rule.text[1] is not None}
    assert {key for key in texts if not key[0].startswith("shortcut")} == {
        ("successor", "shift-ones"), ("successor", "base-one"),
        ("successor-agent", "base-one"), ("successor-agent", "wrap-child")}
    assert sum(name.startswith("shortcut") for name, _ in texts) == 16
    assert [key for key, text in texts.items() if _pairs(text) is None] == []


def _counting_fire(monkeypatch):
    """Wrap _fire for the machines compiled from here on; returns the list
    of the ids each call of it returns."""
    calls, fire = [], asm._fire

    def counted(machine, state):
        calls.append(fire(machine, state))
        return calls[-1]

    monkeypatch.setattr(asm, "_fire", counted)
    return calls


def _count_calls(machine, names=("step", "halted")):
    """Wrap the named callables of machine in place; returns the list of
    the names called, one entry per call."""
    calls = []
    for name in names:
        def counted(*args, name=name, f=getattr(machine, name)):
            calls.append(name)
            return f(*args)
        object.__setattr__(machine, name, counted)
    return calls


@pytest.mark.parametrize("mode", [FAITHFUL, CORRECTED])
def test_the_shortcut_machines_never_leave_the_compiled_path(monkeypatch, mode):
    calls = _counting_fire(monkeypatch)
    for build, order in ((natural_shortcut_machine, -1), (reverse_shortcut_machine, 1)):
        machine = build.__wrapped__(mode)  # a fresh build, compiled with the wrapped _fire
        called = _count_calls(machine)
        steps = sum(asm_run(machine, _bin_tokens(n)[::order])[1] for n in range(1, 1025))
        # the run takes its steps itself: no _fire, no machine.step, no machine.halted
        assert steps > 10_000 and calls == [] and called == []


def test_a_machine_copied_with_replace_runs_on_locals_and_compiles_nothing_new():
    machine = natural_shortcut_machine.__wrapped__(FAITHFUL)  # its sources are cached now
    tokens = _bin_tokens(1234)[::-1]
    expected = asm_run(machine, tokens)
    cached = (asm._code.cache_info().misses, asm._sources.cache_info().misses)
    # what the benchmark's tracer does to wrap init
    copy = dataclasses.replace(machine, init=lambda toks: machine.init(toks))
    assert (asm._code.cache_info().misses, asm._sources.cache_info().misses) == cached
    assert copy.halted.text == 's["done"] is True' and copy.halted({"done": True}) is True
    called = _count_calls(copy)
    assert asm_run(copy, tokens) == expected and called == []
    # a state that lacks a location the text names runs on the state, step by step
    state = copy.init(tokens)
    del state["pivot_token"]
    with pytest.raises(KeyError, match="pivot_token"):
        copy.run(state, 100)
    assert called[:2] == ["halted", "step"]


def test_the_successor_machine_leaves_only_its_callable_rule_to_fire(monkeypatch):
    calls = _counting_fire(monkeypatch)
    machine = successor_machine()
    fired = []
    for n in range(1, 1025):
        fired += [ids for _, ids, _ in asm_log(machine, _succ_tokens(n))[1:]]
    assert calls == [ids for ids in fired if ids == ("flip-first-zero",)]
    # every input but the all-ones ones (n & (n + 1) == 0) has an X0 to flip
    assert len(calls) == sum(n & (n + 1) != 0 for n in range(1, 1025)) < len(fired)


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


@pytest.mark.parametrize("rules", [(), (GuardedRule("idle", "True", "[]"),)],
                         ids=["fires-nothing", "writes-nothing"])
def test_rasm_agent_that_cannot_move_is_stuck(rules):
    spec = successor_rasm()
    stuck = dataclasses.replace(spec, machine=dataclasses.replace(spec.machine, rules=rules))
    # the root spawns a child on X1; the child reads 01 and has no call to make
    with pytest.raises(BudgetExhaustedError, match="^successor-rasm: agent is stuck$"):
        rasm_run(stuck, ["X1", "01"])


# ---------------------------------------------------------------------------
# the compiled step against a reference interpreter


def _reference_fire(machine, state):
    """Evaluate every guard once; returns the merged updates of the rules
    that fire, and their ids.  Fired updates that disagree are a clash."""
    merged: dict = {}
    owner: dict = {}
    fired = []
    for rule in machine.rules:
        if rule.guard(state):
            fired.append(rule.id)
            for loc, value in rule.updates(state):
                if loc in merged and merged[loc] != value:
                    raise UpdateClashError(
                        f"{machine.name}: rules {owner[loc]} and {rule.id} both write "
                        f"{loc!r} with different values"
                    )
                merged[loc] = value
                owner[loc] = rule.id
    return merged, fired


def _reference_apply(state, updates):
    """Write updates into state, each cell into its tape's list; a tape
    grows to hold a cell past its end, and the cells it skips read UNDEF."""
    for loc, value in updates.items():
        if loc.__class__ is str:
            state[loc] = value
            continue
        name, index = loc
        tape = state[name] if name in state else state.setdefault(name, [])
        if index == len(tape):
            tape.append(value)
        else:
            tape += [UNDEF] * (index + 1 - len(tape))
            tape[index] = value


_GUARDS = ('True', 's["a"] == 1', 's["b"] < 2', 's["a"] != s["b"]', 's["c"] % 2 == 0',
           'len(s["out"]) < 3', 's["out"] != [] and s["out"][0] == 1')
_VALUES = ('0', '1', '2', 's["a"]', 's["b"] + 1', '(s["c"] + 1) % 3', 'len(s["out"])',
           's["c"] > 0')
_LOCATIONS = ('"a"', '"b"', '"c"', '("out", 0)', '("out", 1)', '("out", 2)', '("out", 4)',
              '("out", s["a"])')
# locations whose name is an expression, not a literal
_NOT_LITERAL = ('"a" + ""', '("o" + "ut", 0)')


def _fallback(rng, pairs):
    """The pairs as update text of a form the step does not take apart."""
    form = rng.randrange(4)
    if form == 0:  # a tuple display
        return "(" + "".join(f"{pair}, " for pair in pairs) + ")"
    if form == 1:  # a list comprehension
        return f"[pair for pair in {_display(pairs)}]"
    if form == 2:  # a location whose name is not a literal
        return _display(pairs + [f"({rng.choice(_NOT_LITERAL)}, {rng.choice(_VALUES)})"])
    return _display(pairs + [f'("b", {rng.choice(_VALUES)})' for _ in range(2)])  # a name twice


def _display(pairs):
    return "[" + ", ".join(pairs) + "]"


def _random_pair(rng):
    # a new out tape as a name: the cells written after it land in the new list
    if rng.random() < 0.1:
        return '("out", s["out"][1:])'
    return f"({rng.choice(_LOCATIONS)}, {rng.choice(_VALUES)})"


def _random_rule(rng, rule_id, callable_share=0.5):
    """A rule whose guard and updates are each text or the same text as a
    callable (each with chance callable_share); a callable's updates are
    sometimes a one-shot iterator, and some update texts are of a form the
    step does not take apart."""
    guard = rng.choice(_GUARDS)
    pairs = [_random_pair(rng) for _ in range(rng.randrange(4))]
    updates = _display(pairs)
    if rng.random() < 0.25:
        updates = _fallback(rng, pairs)
    if rng.random() < callable_share:
        guard = eval(f"lambda s: {guard}")
    if rng.random() < callable_share:
        listed = eval(f"lambda s: {updates}")
        updates = (lambda s: iter(listed(s))) if rng.random() < 0.5 else listed
    return GuardedRule(rule_id, guard, updates)


def test_the_compiled_step_matches_the_reference_interpreter():
    rng = random.Random(2024)
    seen = {"clash": 0, "agree": 0, "several": 0, "writes-nothing": 0, "past-end": 0,
            "direct": 0, "fallback": 0}
    for trial in range(2000):
        rules = tuple(_random_rule(rng, f"r{i}") for i in range(rng.randint(1, 4)))
        machine = AsmMachine(f"m{trial}", rules, lambda _: {}, lambda s: False)
        state = {"a": rng.randrange(3), "b": rng.randrange(3), "c": rng.randrange(3),
                 "out": [rng.randrange(3) for _ in range(rng.randrange(3))]}
        for _ in range(3):
            got = dict(state, out=state["out"][:])
            try:
                merged, fired = _reference_fire(machine, state)
            except UpdateClashError as clash:
                with pytest.raises(UpdateClashError) as raised:
                    machine.step(got)
                assert str(raised.value) == str(clash)
                seen["clash"] += 1
                break
            # a step that writes nothing is a fixed point, and reports no rule
            assert list(machine.step(got)) == (fired if merged else [])
            written = sum(len(list(rule.updates(state))) for rule in rules if rule.guard(state))
            _reference_apply(state, merged)
            assert got == state
            seen["agree"] += written > len(merged)
            seen["several"] += len(fired) > 1
            seen["writes-nothing"] += not merged
            seen["past-end"] += any(cell is UNDEF for cell in state["out"])
            # a lone text rule, taken apart, whose locations are distinct
            # writes its values straight into the state
            text = rules[int(fired[0][1:])].text[1] if len(fired) == 1 else None
            taken = text is not None and _pairs(text) is not None
            seen["direct"] += taken and written == len(merged) > 0
            seen["fallback"] += text is not None and not taken
            state = got
    # the sample takes every path of the step
    assert min(seen.values()) >= 100, seen


# ---------------------------------------------------------------------------
# the compiled run against a loop of _fire


def _fire_loop(machine, state, budget):
    """The run as _fire defines it: step the state until halted; returns
    the steps taken."""
    steps = 0
    while not machine.halted(state):
        if steps >= budget:
            raise BudgetExhaustedError(f"{machine.name}: no halt within {budget} steps")
        asm._fire(machine, state)
        steps += 1
    return steps


def _outcome(run):
    """(final state as its items in order, steps), or the type and text of
    what the run raised."""
    try:
        state, steps = run()
    except (UpdateClashError, BudgetExhaustedError, KeyError, IndexError) as raised:
        return type(raised), str(raised)
    return list(state.items()), steps


# halting tests: each reads a location, a cell that may be missing, or s as
# a whole (which keeps the run on the state), or never holds
_HALTS = ('s["c"] == 2', 's["a"] == s["b"] and s["out"] != []', 'len(s["out"]) > 4',
          's["out"][2] == 1', 'len(s) > 5', 'False')


def test_the_compiled_run_matches_a_loop_of_fire():
    rng = random.Random(2025)
    seen = collections.Counter()
    for trial in range(1500):
        share = rng.choice((0.5, 0.1))  # of callable guards and updates
        rules = tuple(_random_rule(rng, f"r{i}", share) for i in range(rng.randint(1, 4)))
        start = {"a": rng.randrange(3), "b": rng.randrange(3), "c": rng.randrange(3),
                 "out": [rng.randrange(3) for _ in range(rng.randrange(3))]}
        if rng.random() < 0.15:
            del start[rng.choice("abc")]  # a location some text may name
        halt, budget = rng.choice(_HALTS), rng.randint(1, 6)
        for halted in (halt, eval(f"lambda s: {halt}")):
            machine = AsmMachine(f"m{trial}", rules, lambda _: _snapshot(start), halted)
            state = _snapshot(start)
            want = _outcome(lambda: (state, _fire_loop(machine, state, budget)))
            called = _count_calls(machine)  # the run on the state steps by machine.step
            got = _outcome(lambda: asm_run(machine, None, budget))
            assert got == want, (trial, halted)
            seen[got[0].__name__ if isinstance(got[0], type) else "halted", not called] += 1
    # the sample takes every outcome on the state, and each on locals but a
    # missing location, which keeps a run on the state
    outcomes = ("halted", "UpdateClashError", "BudgetExhaustedError", "KeyError", "IndexError")
    assert min(seen[outcome, on_locals] for outcome in outcomes for on_locals in (False, True)
               if (outcome, on_locals) != ("KeyError", True)) >= 50, seen


def _reversed_bits(n):
    return _bin_tokens(n)[::-1]


@pytest.mark.parametrize("build, mode, encode", [
    (natural_shortcut_machine, FAITHFUL, _reversed_bits),
    (natural_shortcut_machine, CORRECTED, _reversed_bits),
    (reverse_shortcut_machine, FAITHFUL, _bin_tokens),
    (reverse_shortcut_machine, CORRECTED, _bin_tokens),
    (lambda mode: successor_machine(), None, _succ_tokens),  # flip-first-zero goes to _fire
], ids=["natural-faithful", "natural-corrected", "reverse-faithful", "reverse-corrected",
        "successor"])
def test_the_built_in_machines_run_as_a_loop_of_fire_does(build, mode, encode):
    machine = build(mode)
    for n in range(1, 2**12 + 1):
        tokens = encode(n)
        state = machine.init(tokens)
        steps = _fire_loop(machine, state, 4 * len(tokens) + 16)
        got, got_steps = asm_run(machine, tokens)
        assert (list(got.items()), got_steps) == (list(state.items()), steps), n
