"""Abstract state machines with guarded simultaneous updates.

A machine is a fixed set of guarded rules over a store of named
locations, a dict in which a tape (the in and out token arrays) is one
list held under its name: a rule reads s["in"][i], and an update names
that cell ("in", i).  Every rule whose guard holds fires in the same step;
their update sets are merged and applied simultaneously, and two fired
updates that assign different values to one location are a clash.

_fire defines the step.  Each machine is compiled once into a step
function in which a rule that fires alone stores the values of its
update text straight into the state; it leaves every other step to
_fire.  A recursive variant lets an agent spawn a child agent on a
sub-input and wait for its result.
"""

from __future__ import annotations

import ast
import functools
from dataclasses import dataclass, field
from typing import Callable

from .errors import BudgetExhaustedError, UpdateClashError
from .terms import BIN_POS, ONE, X0, X1, _chain_length, normalize_tokens

class Undef:
    """Read result for locations that were never written."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undef"


UNDEF = Undef()


def _read(state: dict, name: str, index: int | None = None):
    """The value under name, or cell index of the tape name; UNDEF if unset."""
    value = state.get(name, UNDEF)
    if index is None:
        return value
    return value[index] if value is not UNDEF and index < len(value) else UNDEF


def _start(tokens: list, **fields) -> dict:
    """A built-in machine's initial state: tokens on the in tape, an empty
    out tape, and fields."""
    return {"in": tokens, "out": [], "len": len(tokens), "outn": 0, "done": False, **fields}


def _apply(state: dict, updates) -> None:
    """Write (location, value) pairs into state, each cell into its tape's
    list; a tape grows to hold a cell past its end, and the cells it skips
    read UNDEF."""
    for loc, value in updates:
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


def _snapshot(state: dict) -> dict:
    """A copy of state, with its own copy of each tape list."""
    return {name: value[:] if value.__class__ is list else value
            for name, value in state.items()}


class ReadLog:
    """State view that records which location names guards inspect."""

    def __init__(self, base: dict):
        self.base = base
        self.reads: set[str] = set()

    def __getitem__(self, name: str):
        self.reads.add(name)
        return _read(self.base, name)

    def get(self, name: str, index: int | None = None):
        self.reads.add(name)
        return _read(self.base, name, index)


# the names that rule text may use besides s
_NAMES = {"X0": X0, "X1": X1, "ONE": ONE}


@functools.lru_cache(maxsize=256)
def _code(source: str):
    return compile(source, "<asm>", "exec")


def _define(source: str, names: dict) -> Callable:
    """The function f that source defines over names; each built-in
    machine's source repeats from one build to the next, so compiles once."""
    exec(_code(source), names)
    return names["f"]


@dataclass(frozen=True)
class GuardedRule:
    """When guard(state) holds, the rule fires and writes updates(state),
    (location, value) pairs.  Either may be given as expression text over
    s (package source only, never input; update text is a list display):
    the text becomes the callable here, and the step compiler inlines it."""

    id: str
    guard: Callable
    updates: Callable
    text: tuple = field(init=False, repr=False, compare=False)  # each text, or None

    def __post_init__(self):
        text = tuple(part if isinstance(part, str) else None
                     for part in (self.guard, self.updates))
        object.__setattr__(self, "text", text)
        for name, source in zip(("guard", "updates"), text):
            if source is not None:
                object.__setattr__(self, name, _define(f"def f(s):\n    return ({source})",
                                                       dict(_NAMES)))


@dataclass(frozen=True)
class AsmMachine:
    """Immutable rule set, compiled once into step; each run owns its own state."""

    name: str
    rules: tuple[GuardedRule, ...]
    init: Callable  # input -> the initial state, a dict
    halted: Callable  # state -> bool
    step: Callable = field(init=False, repr=False, compare=False)  # state -> fired rule ids

    def __post_init__(self):
        object.__setattr__(self, "step", _compile(self))


@functools.lru_cache(maxsize=256)
def _pairs(source: str):
    """(name, index text or None, value text) per pair of update text that
    is a list display whose locations are name literals, none twice, or
    (name literal, index) cells; None for any other text."""
    display, pairs = ast.parse(f"({source})", mode="eval").body, []
    for pair in display.elts if display.__class__ is ast.List else [None]:
        loc, value = pair.elts if pair.__class__ is ast.Tuple and len(pair.elts) == 2 else (0, 0)
        loc, index = loc.elts if loc.__class__ is ast.Tuple and len(loc.elts) == 2 else (loc, None)
        if loc.__class__ is not ast.Constant or loc.value.__class__ is not str or ast.Starred in (
                index.__class__, value.__class__):
            return None
        pairs.append((loc.value, index and ast.unparse(index), ast.unparse(value)))
    names = [name for name, index, _ in pairs if index is None]
    return tuple(pairs) if len(set(names)) == len(names) else None


def _fire(machine: AsmMachine, state: dict) -> tuple:
    """One step: every guard tested in rule order, each fired rule's updates
    merged as it fires (two that assign one location different values are a
    clash, raised before a later rule is tested), and the merged updates
    written into the state in place.  Returns the fired rule ids, or () if
    the step writes nothing (a fixed point)."""
    merged, owner, fired = {}, {}, []
    for rule in machine.rules:
        if rule.guard(state):
            for loc, value in rule.updates(state):
                if loc in merged and merged[loc] != value:
                    raise UpdateClashError(f"{machine.name}: rules {owner[loc]} and {rule.id} "
                                           f"both write {loc!r} with different values")
                merged[loc] = value
                owner[loc] = rule.id
            fired.append(rule.id)
    _apply(state, merged.items())
    return tuple(fired) if merged else ()


def _compile(machine: AsmMachine) -> Callable:
    """The step of _fire, with guard and update text inlined.  A lone fired
    rule whose update text _pairs takes apart stores its values straight
    into the state; any other step (a later guard holds too, or two cells of
    one tape share an index) is left to _fire, which tests every guard again."""
    names = dict(_NAMES, _fire=_fire, _m=machine, _undef=UNDEF)
    guards = [f"({rule.text[0] or f'_r{k}.guard(s)'})" for k, rule in enumerate(machine.rules)]
    lines, fire = ["def f(s):"], "return _fire(_m, s)"
    for k, rule in enumerate(machine.rules):
        names[f"_r{k}"] = rule
        pairs = None if rule.text[1] is None else _pairs(rule.text[1])
        lines.append(f"    if {guards[k]}:")
        if pairs is None:
            lines.append(f"        {fire}")
            continue
        if guards[k + 1:]:
            lines.append(f"        if {' or '.join(guards[k + 1:])}: {fire}")
        writes, tapes = [], {}
        for j, (name, index, value) in enumerate(pairs):
            v, i, key = f"v{k}_{j}", f"i{k}_{j}", repr(name)
            if index is None:
                writes.append(f"        s[{key}] = {v}")
            else:
                lines.append(f"        {i} = ({index})")
                writes += [f"        t = s[{key}] if {key} in s else s.setdefault({key}, [])",
                           f"        if {i} == len(t): t.append({v})",
                           f"        else: t += [_undef] * ({i} + 1 - len(t)); t[{i}] = {v}"]
                tapes.setdefault(name, []).append(i)
            lines.append(f"        {v} = ({value})")
        shared = " or ".join(f"{a} == {b}" for cells in tapes.values()
                             for n, a in enumerate(cells) for b in cells[n + 1:])
        if shared:
            lines.append(f"        if {shared}: {fire}")
        lines += [*writes, f"        return {(rule.id,) if pairs else ()!r}"]
    lines.append("    return ()")
    return _define("\n".join(lines), names)


def asm_step(machine: AsmMachine, state: dict) -> dict:
    """One simultaneous firing of every rule whose guard holds, as a new state."""
    new = _snapshot(state)
    machine.step(new)
    return new


def _budget(machine_input, budget: int | None) -> int:
    if budget is None:
        try:
            return 4 * len(machine_input) + 16
        except TypeError:
            return 256
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return budget


def _run(machine: AsmMachine, state: dict, budget: int, on_step=None,
         spec: "RasmSpec | None" = None, depth: int = 0):
    """The run loop: step until halted, applying each step's updates to
    state in place, and call on_step(steps, fired rule ids, state) after
    each.  An agent of a recursive machine (spec) yields the child's
    initial state when its call guard holds and is sent the child's halted
    state.  Returns (state, steps)."""
    halted, step = machine.halted, machine.step
    steps = 0
    while not halted(state):
        if steps >= budget:
            raise BudgetExhaustedError(
                f"{machine.name}: no halt within {budget} steps" if spec is None
                else f"{spec.name}: agent at depth {depth} exceeded {budget} steps")
        if spec is not None and spec.call_guard(state):
            _apply(state, spec.result_write(state, (yield spec.spawn(state))))
            fired = ()
        else:
            fired = step(state)
            if spec is not None and not fired:
                raise BudgetExhaustedError(f"{spec.name}: agent is stuck")
        steps += 1
        if on_step is not None:
            on_step(steps, fired, state)
    return state, steps


def _finish(run):
    """The result of a run that spawns no agent, so never yields."""
    try:
        next(run)
    except StopIteration as done:
        return done.value


def asm_run(machine: AsmMachine, machine_input, budget: int | None = None):
    """Run to a halting state; returns (state, steps taken)."""
    budget = _budget(machine_input, budget)
    return _finish(_run(machine, machine.init(machine_input), budget))


def asm_log(machine: AsmMachine, machine_input, budget: int | None = None):
    """Like asm_run but returns the per-step state log: a list of
    (step index, fired rule ids, state) records including the initial state."""
    budget = _budget(machine_input, budget)
    state = machine.init(machine_input)
    log = [(0, (), _snapshot(state))]
    _finish(_run(machine, state, budget, lambda steps, fired, after: log.append(
        (steps, tuple(fired), _snapshot(after)))))
    return log


def machine_output(state: dict) -> list[str]:
    """Read the out[0..outn) token array."""
    n = _read(state, "outn")
    return [] if n is UNDEF else state["out"][:n]


# ---------------------------------------------------------------------------
# the successor machine over constructor-order tokens


def _load_input(tokens, **fields) -> dict:
    toks = normalize_tokens(tokens)
    _chain_length(toks, BIN_POS)  # reject malformed inputs up front
    return _start(toks, **fields)


def successor_machine() -> AsmMachine:
    """Scan the constructor-order input: each X1 head emits an X0; the
    first X0 head emits an X1 and copies the rest; a 01 head emits X0 01."""

    def upd_flip(s: dict):
        pos, outn, n, tape = s["pos"], s["outn"], s["len"], s["in"]
        rest = [(("out", outn + j - pos), tape[j]) for j in range(pos + 1, n)]
        return [(("out", outn), X1), *rest, ("outn", outn + n - pos), ("done", True)]

    rules = (
        GuardedRule("shift-ones", 's["done"] is False and s["in"][s["pos"]] == X1',
                    '[(("out", s["outn"]), X0), ("pos", s["pos"] + 1), ("outn", s["outn"] + 1)]'),
        GuardedRule("flip-first-zero", 's["done"] is False and s["in"][s["pos"]] == X0', upd_flip),
        GuardedRule("base-one", 's["done"] is False and s["in"][s["pos"]] == ONE',
                    '[(("out", s["outn"]), X0), (("out", s["outn"] + 1), ONE),'
                    ' ("outn", s["outn"] + 2), ("done", True)]'),
    )
    return AsmMachine(
        name="successor",
        rules=rules,
        init=lambda tokens: _load_input(tokens, pos=0),
        halted=lambda s: s["done"] is True,
    )


# ---------------------------------------------------------------------------
# recursive machines: agents that spawn children and wait


@dataclass(frozen=True)
class RasmSpec:
    """Per-agent machine plus the call rule that spawns a child agent."""

    name: str
    machine: AsmMachine  # its init builds the root agent's state
    call_guard: Callable  # state -> bool: agent needs a child result
    spawn: Callable  # state -> the child agent's initial state
    result_write: Callable  # (state, child's halted state) -> updates
    output: Callable  # halted root state -> output tokens


@dataclass(frozen=True)
class RasmResult:
    output: list[str]
    agent_count: int  # child agents spawned, excluding the root
    max_call_depth: int
    steps: int


def rasm_run(spec: RasmSpec, machine_input, budget: int | None = None) -> RasmResult:
    """Run the root agent; children run to completion while the caller
    waits, and each child's halted state is handed back to its caller.
    The waiting agents are runs on an explicit stack, so the call depth
    has no recursion limit."""
    budget = _budget(machine_input, budget)
    machine = spec.machine
    agents = [_run(machine, machine.init(machine_input), budget, spec=spec)]
    spawned = max_depth = steps = 0
    reply = None
    while True:
        try:
            child = agents[-1].send(reply)
        except StopIteration as done:
            agents.pop()
            reply, agent_steps = done.value
            steps += agent_steps
            if not agents:
                return RasmResult(spec.output(reply), spawned, max_depth, steps)
            continue
        spawned += 1
        max_depth = max(max_depth, len(agents))
        agents.append(_run(machine, child, budget, spec=spec, depth=len(agents)))
        reply = None


def successor_rasm() -> RasmSpec:
    """One agent per recursive unfolding: the agent at offset at reads
    in[at]; an X1 there spawns a child at at + 1, whose answer fills
    out[at + 1 .. childn), and prefixes it with X0 at out[at].  Agents
    hold the root's tape lists, so a call passes an offset, not a copy."""

    def upd_flip(s: dict):
        at, n, tape = s["at"], s["len"], s["in"]
        rest = [(("out", j), tape[j]) for j in range(at + 1, n)]
        return [(("out", at), X1), *rest, ("outn", n), ("done", True)]

    def agent(root: dict, at: int) -> dict:
        return {"in": root["in"], "out": root["out"], "at": at, "len": root["len"],
                "done": False, "child_ready": False}

    rules = (
        GuardedRule("base-one", 's["done"] is False and s["in"][s["at"]] == ONE',
                    '[(("out", s["at"]), X0), (("out", s["at"] + 1), ONE), ("outn", s["at"] + 2),'
                    ' ("done", True)]'),
        GuardedRule("flip-zero", 's["done"] is False and s["in"][s["at"]] == X0', upd_flip),
        GuardedRule("wrap-child", 's["done"] is False and s["in"][s["at"]] == X1'
                    ' and s["child_ready"] is True',
                    '[(("out", s["at"]), X0), ("outn", s["childn"]), ("done", True)]'),
    )
    machine = AsmMachine(
        name="successor-agent",
        rules=rules,
        init=lambda tokens: agent(_load_input(tokens), 0),  # validated once, for every agent
        halted=lambda s: s["done"] is True,
    )

    def call_guard(s: dict) -> bool:
        return (s["done"] is False and s["in"][s["at"]] == X1
                and s["child_ready"] is False)

    def result_write(s: dict, child: dict):
        return [("childn", child["outn"]), ("child_ready", True)]

    return RasmSpec(
        name="successor-rasm",
        machine=machine,
        call_guard=call_guard,
        spawn=lambda s: agent(s, s["at"] + 1),
        result_write=result_write,
        output=machine_output,
    )
