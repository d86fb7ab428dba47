"""Abstract state machines with guarded simultaneous updates.

A machine is a fixed set of guarded rules over a flat location store.
Every rule whose guard holds fires in the same step; their update sets
are merged and applied simultaneously, and two fired updates that
assign different values to one location are a clash.  A recursive
variant lets an agent spawn a child agent on a sub-input and wait for
its result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import BudgetExhaustedError, UpdateClashError
from .terms import BIN_POS, ONE, X0, X1, _chain_length, normalize_tokens

# a location is a bare name or a (name, index) pair
Location = str | tuple[str, int]


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


class AsmState(dict):
    """Location store: a dict whose unset locations read UNDEF, so rules
    read a location with one subscript, s[name] or s[name, index].  A run
    owns its state and applies each step's updates to it in place."""

    __slots__ = ()

    def __missing__(self, loc):
        return UNDEF

    def get(self, name: str, index: int | None = None):
        return self[name if index is None else (name, index)]

    @classmethod
    def load(cls, tokens, **fields) -> "AsmState":
        """Tokens on the input tape in[0..len), no output yet, and fields."""
        state = cls({("in", i): tok for i, tok in enumerate(tokens)})
        state.update(len=len(tokens), outn=0, done=False, **fields)
        return state

    def with_updates(self, updates) -> "AsmState":
        merged = AsmState(self)
        merged.update(updates)
        return merged


class ReadLog:
    """State view that records which location names guards inspect."""

    def __init__(self, base: AsmState):
        self.base = base
        self.reads: set[str] = set()

    def __getitem__(self, loc: Location):
        self.reads.add(loc if isinstance(loc, str) else loc[0])
        return self.base[loc]

    def get(self, name: str, index: int | None = None):
        return self[name if index is None else (name, index)]


@dataclass(frozen=True)
class GuardedRule:
    id: str
    guard: Callable
    updates: Callable  # state -> iterable of (location, value)


@dataclass(frozen=True)
class AsmMachine:
    """Immutable rule set; each run owns its own state."""

    name: str
    rules: tuple[GuardedRule, ...]
    init: Callable  # input -> AsmState
    halted: Callable  # state -> bool


def _fire(machine: AsmMachine, state) -> tuple[dict, list[str]]:
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


def asm_step(machine: AsmMachine, state: AsmState) -> AsmState:
    """One simultaneous firing of every rule whose guard holds, as a new state."""
    updates, fired = _fire(machine, state)
    return state.with_updates(updates) if fired else state


def _budget(machine_input, budget: int | None) -> int:
    if budget is None:
        try:
            return 4 * len(machine_input) + 16
        except TypeError:
            return 256
    if budget < 1:
        raise ValueError("budget must be at least 1")
    return budget


def _run(machine: AsmMachine, state: AsmState, budget: int, on_step=None,
         spec: "RasmSpec | None" = None, depth: int = 0):
    """The run loop: step until halted, applying each step's updates to
    state in place, and call on_step(steps, fired rule ids, state) after
    each.  An agent of a recursive machine (spec) yields the child's
    initial state when its call guard holds and is sent the child's halted
    state.  Returns (state, steps)."""
    halted = machine.halted
    steps = 0
    while not halted(state):
        if steps >= budget:
            raise BudgetExhaustedError(
                f"{machine.name}: no halt within {budget} steps" if spec is None
                else f"{spec.name}: agent at depth {depth} exceeded {budget} steps")
        if spec is not None and spec.call_guard(state):
            updates, fired = spec.result_write(state, (yield spec.spawn(state))), ()
        else:
            updates, fired = _fire(machine, state)
            if spec is not None and not updates:
                raise BudgetExhaustedError(f"{spec.name}: agent is stuck")
        state.update(updates)
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
    log = [(0, (), AsmState(state))]
    _finish(_run(machine, state, budget, lambda steps, fired, after: log.append(
        (steps, tuple(fired), AsmState(after)))))
    return log


def machine_output(state: AsmState) -> list[str]:
    """Read the out[0..outn) token array."""
    n = state["outn"]
    if n is UNDEF:
        return []
    return [state["out", j] for j in range(n)]


# ---------------------------------------------------------------------------
# the successor machine over constructor-order tokens


def _load_input(tokens, **fields) -> AsmState:
    toks = normalize_tokens(tokens)
    _chain_length(toks, BIN_POS)  # reject malformed inputs up front
    return AsmState.load(toks, **fields)


def successor_machine() -> AsmMachine:
    """Scan the constructor-order input: each X1 head emits an X0; the
    first X0 head emits an X1 and copies the rest; a 01 head emits X0 01."""

    def upd_shift(s: AsmState):
        pos, outn = s["pos"], s["outn"]
        return [(("out", outn), X0), ("pos", pos + 1), ("outn", outn + 1)]

    def upd_flip(s: AsmState):
        pos, outn, n = s["pos"], s["outn"], s["len"]
        ups = [(("out", outn), X1)]
        for j in range(pos + 1, n):
            ups.append((("out", outn + 1 + (j - pos - 1)), s["in", j]))
        ups.append(("outn", outn + 1 + (n - pos - 1)))
        ups.append(("done", True))
        return ups

    def upd_base(s: AsmState):
        outn = s["outn"]
        return [(("out", outn), X0), (("out", outn + 1), ONE), ("outn", outn + 2), ("done", True)]

    rules = (
        GuardedRule("shift-ones", lambda s: s["done"] is False and s["in", s["pos"]] == X1,
                    upd_shift),
        GuardedRule("flip-first-zero",
                    lambda s: s["done"] is False and s["in", s["pos"]] == X0, upd_flip),
        GuardedRule("base-one", lambda s: s["done"] is False and s["in", s["pos"]] == ONE,
                    upd_base),
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


class _Agent(AsmState):
    """An agent's store: its named locations are its own, and the indexed
    ones (the in and out tapes) live in one store that every agent of a
    run shares, so a call passes an offset instead of a copy."""

    __slots__ = ("tapes",)

    def __init__(self, tapes: AsmState, **fields):
        super().__init__(fields)
        self.tapes = tapes

    def __missing__(self, loc):
        return self.tapes[loc] if loc.__class__ is tuple else UNDEF

    def update(self, updates):
        for loc, value in dict(updates).items():
            if loc.__class__ is tuple:
                self.tapes[loc] = value
            else:
                self[loc] = value


def successor_rasm() -> RasmSpec:
    """One agent per recursive unfolding: the agent at offset at reads
    in[at]; an X1 there spawns a child at at + 1, whose answer fills
    out[at + 1 .. childn), and prefixes it with X0 at out[at]."""

    def upd_base(s: AsmState):
        at = s["at"]
        return [(("out", at), X0), (("out", at + 1), ONE), ("outn", at + 2), ("done", True)]

    def upd_flip(s: AsmState):
        at, n = s["at"], s["len"]
        ups = [(("out", at), X1)]
        ups += [(("out", j), s["in", j]) for j in range(at + 1, n)]
        return ups + [("outn", n), ("done", True)]

    def upd_wrap(s: AsmState):
        return [(("out", s["at"]), X0), ("outn", s["childn"]), ("done", True)]

    def agent(tapes: AsmState, at: int) -> _Agent:
        return _Agent(tapes, at=at, len=tapes["len"], done=False, child_ready=False)

    rules = (
        GuardedRule("base-one",
                    lambda s: s["done"] is False and s["in", s["at"]] == ONE, upd_base),
        GuardedRule("flip-zero",
                    lambda s: s["done"] is False and s["in", s["at"]] == X0, upd_flip),
        GuardedRule(
            "wrap-child",
            lambda s: s["done"] is False and s["in", s["at"]] == X1 and s["child_ready"] is True,
            upd_wrap,
        ),
    )
    machine = AsmMachine(
        name="successor-agent",
        rules=rules,
        init=lambda tokens: agent(_load_input(tokens), 0),  # validated once, for every agent
        halted=lambda s: s["done"] is True,
    )

    def call_guard(s: AsmState) -> bool:
        return (s["done"] is False and s["in", s["at"]] == X1
                and s["child_ready"] is False)

    def result_write(s: AsmState, child: AsmState):
        return [("childn", child["outn"]), ("child_ready", True)]

    return RasmSpec(
        name="successor-rasm",
        machine=machine,
        call_guard=call_guard,
        spawn=lambda s: agent(s.tapes, s["at"] + 1),
        result_write=result_write,
        output=machine_output,
    )
