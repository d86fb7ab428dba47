"""Abstract state machines with guarded simultaneous updates.

A machine is a fixed set of guarded rules over a store of named
locations, a dict in which a tape (the in and out token arrays) is one
list held under its name: a rule reads s["in"][i], and an update names
that cell ("in", i).  Every rule whose guard holds fires in the same step;
their update sets are merged and applied simultaneously, and two fired
updates that assign different values to one location are a clash.

_fire defines the step.  Each machine is compiled once into a step
function, in which a rule that fires alone stores the values of its
update text straight into the state, and a run function, which takes
such steps to a halt with each location its text names held in a local
variable; both leave every other step to _fire.  A recursive variant
lets an agent spawn a child agent on a sub-input and wait for its result.
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


def _start(tokens: list, **fields) -> dict:
    """A built-in machine's initial state: tokens on the in tape, an empty out tape, fields."""
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
    return {name: value[:] if value.__class__ is list else value for name, value in state.items()}


class ReadLog:
    """State view that records which location names guards inspect."""

    def __init__(self, base: dict):
        self.base = base
        self.reads: set[str] = set()

    def __getitem__(self, name: str):
        self.reads.add(name)
        return self.base.get(name, UNDEF)

    def get(self, name: str, index: int | None = None):
        value = self[name]  # the value under name, or cell index of the tape name
        if index is None or value is UNDEF:
            return value
        return value[index] if index < len(value) else UNDEF


# the names that rule text may use besides s
_NAMES = {"X0": X0, "X1": X1, "ONE": ONE}


@functools.lru_cache(maxsize=256)
def _code(source: str):
    return compile(source, "<asm>", "exec")


def _define(source: str, names: dict) -> Callable:
    """The function f that source defines over names, compiled once per source."""
    exec(_code(source), names)
    return names["f"]


def _expr(source: str) -> Callable:
    """The function of s that expression text source computes; it keeps the
    text, so a rule or machine made again from it inlines the text again."""
    f = _define(f"def f(s):\n    return ({source})", dict(_NAMES))
    f.text = source
    return f


@dataclass(frozen=True)
class GuardedRule:
    """When guard(state) holds, the rule fires and writes updates(state),
    (location, value) pairs.  Either may be given as expression text over
    s (package source only, never input; update text is a list display):
    the text becomes the callable here, and the compiler inlines it."""

    id: str
    guard: Callable
    updates: Callable
    text: tuple = field(init=False, repr=False, compare=False)  # each text, or None

    def __post_init__(self):
        for name in ("guard", "updates"):
            if isinstance(getattr(self, name), str):
                object.__setattr__(self, name, _expr(getattr(self, name)))
        object.__setattr__(self, "text", (getattr(self.guard, "text", None),
                                          getattr(self.updates, "text", None)))


@dataclass(frozen=True)
class AsmMachine:
    """Immutable rule set, compiled once into step and run (see _sources);
    each run owns its own state."""

    name: str
    rules: tuple[GuardedRule, ...]
    init: Callable  # input -> the initial state, a dict
    halted: Callable  # state -> bool, or expression text over s as a guard takes
    step: Callable = field(init=False, repr=False, compare=False)  # state -> fired rule ids
    run: Callable = field(init=False, repr=False, compare=False)  # state, budget -> steps taken

    def __post_init__(self):
        if isinstance(self.halted, str):
            object.__setattr__(self, "halted", _expr(self.halted))
        names = dict(_NAMES, _fire=_fire, _m=self, _undef=UNDEF, _exhausted=BudgetExhaustedError)
        names.update((f"_r{k}", rule) for k, rule in enumerate(self.rules))
        step, on_state, on_locals = _sources(tuple((rule.id, *rule.text) for rule in self.rules),
                                             getattr(self.halted, "text", None))
        object.__setattr__(self, "step", _define(step, names))
        run = names["_dict_run"] = _define(on_state, names)
        object.__setattr__(self, "run", _define(on_locals, names) if on_locals else run)


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


class _Local(ast.NodeTransformer):
    """Rewrites each s["name"] as the local variable l_name."""

    def visit_Subscript(self, node):
        key = node.slice
        if (node.value.__class__ is ast.Name and node.value.id == "s"
                and key.__class__ is ast.Constant and key.value.__class__ is str):
            return ast.Name(f"l_{key.value}", ast.Load())
        return self.generic_visit(node)


def _local(source: str):
    """(source over locals, the names it reads), or None where it uses s
    other than as s["name"]."""
    tree = _Local().visit(ast.parse(f"({source})", mode="eval"))
    names = [node.id for node in ast.walk(tree) if node.__class__ is ast.Name]
    return None if "s" in names else (ast.unparse(tree), [n[2:] for n in names if n[:2] == "l_"])


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


@functools.lru_cache(maxsize=256)
def _sources(rules: tuple, halting: str | None) -> tuple:
    """The text of the step, of the step until halted, and of the run on
    locals, from rules as (id, guard text, update text) and halting text
    (None for a callable).  A step stores the values of a lone fired rule
    whose update text _pairs takes apart straight into the state, and
    leaves any other step (a later guard holds too, or two cells of one
    tape share an index) to _fire.  The run on locals inlines its steps and
    holds each location the text names in a local variable, written back
    before _fire and at the end and loaded again after _fire; there is none
    if a guard or halting is a callable, or text uses s but as s["name"]."""
    pairs = [None if updates is None else _pairs(updates) for _, _, updates in rules]
    cells = [cell for found in pairs if found for cell in found]
    texts = [halting, *(guard for _, guard, _ in rules), *(t for _, *ts in cells for t in ts if t)]
    found = [text is not None and _local(text) for text in texts]
    names = dict.fromkeys([*(name for text in found if text for name in text[1]),
                           *(name for name, _, _ in cells)])
    back = "".join(f"s[{name!r}] = l_{name}; "
                   for name in dict.fromkeys(name for name, index, _ in cells if index is None))
    load = "; ".join(f"l_{name} = s[{name!r}]" for name in names) or "pass"

    def body(local: bool) -> list:
        ref = (lambda text: _local(text)[0]) if local else (lambda text: text)
        fire = f"{back}_fire(_m, s); {load}; continue" if local else "return _fire(_m, s)"
        guards = ["(" + (f"_r{k}.guard(s)" if guard is None else ref(guard)) + ")"
                  for k, (_, guard, _) in enumerate(rules)]
        lines = []
        for k, (rule_id, _, _) in enumerate(rules):
            lines.append(f"if {guards[k]}:")
            if pairs[k] is None:
                lines.append(f"    {fire}")
                continue
            if guards[k + 1:]:
                lines.append(f"    if {' or '.join(guards[k + 1:])}: {fire}")
            writes, tapes = [], {}
            for j, (name, index, value) in enumerate(pairs[k]):
                v, i, key = f"v{k}_{j}", f"i{k}_{j}", repr(name)
                at = "l_" + name if local else f"s[{key}]"
                if index is None:
                    writes.append(f"    {at} = {v}")
                else:
                    lines.append(f"    {i} = ({ref(index)})")
                    tape = at if local else f"{at} if {key} in s else s.setdefault({key}, [])"
                    writes += [f"    t = {tape}", f"    if {i} == len(t): t.append({v})",
                               f"    else: t += [_undef] * ({i} + 1 - len(t)); t[{i}] = {v}"]
                    tapes.setdefault(name, []).append(i)
                lines.append(f"    {v} = ({ref(value)})")
            shared = " or ".join(f"{a} == {b}" for indices in tapes.values()
                                 for n, a in enumerate(indices) for b in indices[n + 1:])
            if shared:
                lines.append(f"    if {shared}: {fire}")
            lines += [*writes, "    continue" if local
                      else f"    return {(rule_id,) if pairs[k] else ()!r}"]
        return lines

    def run(lines: list, local: bool) -> str:
        wb, halt = (back, f"({_local(halting)[0]})") if local else ("", "_m.halted(s)")
        head = [f"    try: {load}", "    except KeyError: return _dict_run(s, budget)"]
        return "\n".join(["def f(s, budget):", *(head if local else []), "    steps = 0",
                          f"    while not {halt}:", f"        if steps >= budget: {wb}raise"
                          " _exhausted(f'{_m.name}: no halt within {budget} steps')",
                          "        steps += 1", *(f"        {line}" for line in lines),
                          f"    {wb}return steps"])

    on_locals = all(found) and all(f"l_{name}".isidentifier() for name in names)
    return ("\n".join(["def f(s):", *(f"    {line}" for line in body(False)), "    return ()"]),
            run(["_m.step(s)"], False), run(body(True), True) if on_locals else None)


def asm_step(machine: AsmMachine, state: dict) -> dict:
    """One simultaneous firing of every rule whose guard holds, as a new state."""
    new = _snapshot(state)
    machine.step(new)
    return new


def _budget(machine_input, budget: int | None) -> int:
    if budget is not None and budget < 1:
        raise ValueError("budget must be at least 1")
    try:
        return budget or 4 * len(machine_input) + 16
    except TypeError:  # an input without a length
        return 256


def asm_run(machine: AsmMachine, machine_input, budget: int | None = None):
    """Run to a halting state; returns (state, steps taken)."""
    budget = _budget(machine_input, budget)
    state = machine.init(machine_input)
    return state, machine.run(state, budget)


def asm_log(machine: AsmMachine, machine_input, budget: int | None = None):
    """Like asm_run but returns the per-step state log: a list of
    (step index, fired rule ids, state) records including the initial state."""
    budget = _budget(machine_input, budget)
    state = machine.init(machine_input)
    log = [(0, (), _snapshot(state))]
    while not machine.halted(state):
        if len(log) > budget:
            raise BudgetExhaustedError(f"{machine.name}: no halt within {budget} steps")
        log.append((len(log), tuple(machine.step(state)), _snapshot(state)))
    return log


def machine_output(state: dict) -> list[str]:
    """Read the out[0..outn) token array."""
    n = state.get("outn", UNDEF)
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
    return AsmMachine("successor", rules, lambda tokens: _load_input(tokens, pos=0),
                      halted='s["done"] is True')


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
    The waiting agents are [state, steps taken] on an explicit stack, so
    the call depth has no recursion limit."""
    budget = _budget(machine_input, budget)
    machine = spec.machine
    agents = [[machine.init(machine_input), 0]]
    spawned = max_depth = steps = 0
    while agents:
        state = (agent := agents[-1])[0]
        if machine.halted(state):
            steps += agents.pop()[1]
            if agents:
                _apply(agents[-1][0], spec.result_write(agents[-1][0], state))
            continue
        if agent[1] >= budget:
            raise BudgetExhaustedError(
                f"{spec.name}: agent at depth {len(agents) - 1} exceeded {budget} steps")
        agent[1] += 1
        if spec.call_guard(state):
            spawned, max_depth = spawned + 1, max(max_depth, len(agents))
            agents.append([spec.spawn(state), 0])
        elif not machine.step(state):
            raise BudgetExhaustedError(f"{spec.name}: agent is stuck")
    return RasmResult(spec.output(state), spawned, max_depth, steps)


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
    machine = AsmMachine("successor-agent", rules,
                         lambda tokens: agent(_load_input(tokens), 0),  # validated once, for all
                         halted='s["done"] is True')
    return RasmSpec(
        "successor-rasm", machine,
        call_guard=_expr('s["done"] is False and s["in"][s["at"]] == X1'
                         ' and s["child_ready"] is False'),
        spawn=lambda s: agent(s, s["at"] + 1),
        result_write=lambda s, child: [("childn", child["outn"]), ("child_ready", True)],
        output=machine_output)
