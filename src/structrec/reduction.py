"""Small-step execution of structurally recursive programs.

A program is an ordered set of pattern-match clauses over one inductive
argument.  One step bundles unfolding the definition, applying it, and
selecting the matching clause.  Two stepping modes are provided: a
single leftmost-outermost rewrite, and a whole-frontier "level" that
rewrites every outermost redex simultaneously; either is one post-order
pass over the part of the state still pending.  reduce() gets the normal
form and the number of levels from a big-step evaluator of the same
clauses, and a rendered trace is cut from that evaluator's call tree,
level by level; levels() steps only where big-step gives up, and is the
reference both are held to.  All three read each clause as compiled by
one walk of its template when its program was built (see _compile).

Two intermediate-state surface forms are supported: the paren form for
linear programs (emitted prefix, then the pending argument in parens)
and the flat traversal form where a pending call on a subtree renders
as UNROLL[ ... ], a pending call on a leaf renders as EMPTY, and
emitted values render bare.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import FuelExhaustedError, MalformedSequenceError, ReductionError, RenderError
from .terms import (
    BIN_POS,
    CHAR_TREE,
    EMPTY_TOKEN,
    LPAR,
    ONE,
    PEANO,
    RPAR,
    UNROLL_CLOSE,
    UNROLL_OPEN,
    X0,
    X1,
    InductiveDef,
    Term,
    _slot_stored,
    delinearize,
    linearize,
    normalize_tokens,
    tree_parse,
    tree_serialize,
)

# the trace styles: the paren form and the flat traversal form (see below)
PAREN = "paren"
ARROW = "arrow"


@dataclass(frozen=True)
class _Style:
    """A trace style: the text between two states, the tokens around a
    pending call and those that show one, and the form that names its
    parse_state_ (given normalized tokens) and render_state_.  Each is looked
    up by name when called, so that a rebinding of either is the one used."""

    name: str
    separator: str
    opening: str
    closing: str
    pending: frozenset
    form: str

    def parse(self, tokens: list[str], program: Program) -> Expr:
        return globals()[f"parse_state_{self.form}"](tokens, program, normalized=True)

    def render(self, expr: Expr) -> list[str]:
        return globals()[f"render_state_{self.form}"](expr)


_STYLES = {PAREN: _Style(PAREN, " = ", LPAR, RPAR, frozenset({LPAR, RPAR}), "paren"),
           ARROW: _Style(ARROW, " -> ", UNROLL_OPEN, UNROLL_CLOSE,
                         frozenset({UNROLL_OPEN, UNROLL_CLOSE, EMPTY_TOKEN}), "unroll")}

# ---------------------------------------------------------------------------
# expressions
#
# A constructor term is already a value, so a Term is the value node of an
# expression; the other nodes hold the work still pending.  Expressions keep
# their fields in slots: stepping builds every state, and a slotted instance
# takes about half the memory of one with a dict.  Each is built by storing
# its fields straight into the slots (see _slot_stored).


class _Nested:
    """Eq, hash, repr and pickling of the expressions that hold expressions,
    from one walk on a stack, as Term's are: the dataclass-generated ones
    recurse once per level.  The repr text is the generated one."""

    __slots__ = ()
    _exprs: tuple[str, ...] = ()  # the fields that hold an expression or a tuple of them

    def _pieces(self):
        """The repr text in order, as strings, where each expression that
        holds no expression stands for its own text."""
        stack = [self]
        while stack:
            e = stack.pop()
            if not isinstance(e, _Nested):
                yield e
                continue
            parts = [f"{e.__class__.__qualname__}("]
            for i, name in enumerate(e.__dataclass_fields__):
                value = getattr(e, name)
                if name not in e._exprs:
                    parts.append(f"{', ' if i else ''}{name}={value!r}")
                    continue
                parts.append(f"{', ' if i else ''}{name}=")
                if value.__class__ is tuple:
                    parts.append("(")
                    for j, kid in enumerate(value):
                        parts += (", ", kid) if j else (kid,)
                    parts.append(",)" if len(value) == 1 else ")")
                else:
                    parts.append(value)
            parts.append(")")
            stack += reversed(parts)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or list(self._pieces()) == list(other._pieces())

    def __hash__(self):
        return hash(tuple(self._pieces()))

    def __repr__(self):
        return "".join(p if isinstance(p, str) else repr(p) for p in self._pieces())

    def __reduce__(self):
        """Its nodes in preorder, a node's last expression first, for
        _renested: no recursion at any depth, as for Term.  A node lists as
        its class, its other fields and the number of its expressions (its
        last fields hold one tuple of them, or one each); any other
        expression e lists as (None, e, 0)."""
        nodes, stack = [], [self]
        while stack:
            e = stack.pop()
            if not isinstance(e, _Nested):
                nodes.append((None, e, 0))
                continue
            values = [getattr(e, name) for name in e.__dataclass_fields__]
            cut = len(values) - len(e._exprs)
            kids = values[cut] if len(e._exprs) == 1 else values[cut:]
            nodes.append((e.__class__, values[:cut], len(kids)))
            stack += kids
        return _renested, (nodes,)


def _renested(nodes) -> Expr:
    """The expression whose nodes _Nested.__reduce__ lists, built from the
    last one back, so that a node's expressions are the last ones built."""
    built = []
    for cls, head, count in reversed(nodes):
        if cls is not None:
            kids = built[len(built) - count:]
            del built[len(built) - count:]
            head = cls(*head, tuple(kids)) if len(cls._exprs) == 1 else cls(*head, *kids)
        built.append(head)
    return built[0]


@_slot_stored
@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Ctor(_Nested):
    """A constructor applied to not-yet-reduced arguments."""

    name: str
    payloads: tuple[str, ...]
    args: tuple["Expr", ...]

    _exprs = ("args",)


@_slot_stored
@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Call(_Nested):
    """A pending program call; the first argument is the matched one."""

    fn: str
    args: tuple["Expr", ...]

    _exprs = ("args",)


@_slot_stored
@dataclass(frozen=True, slots=True)
class ListLit:
    """A literal list of output tokens (template slots may hold a Var)."""

    items: tuple


@_slot_stored
@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Concat(_Nested):
    left: "Expr"
    right: "Expr"

    _exprs = ("left", "right")


@dataclass(frozen=True)
class Var:
    """Template placeholder; never present in a runtime expression."""

    name: str


Expr = Term | Ctor | Call | ListLit | Concat | Var


def is_normal(expr: Expr) -> bool:
    """Normal forms contain no pending calls and no unflattened concats."""
    return _over((expr,), (Term, ListLit))


def _over(exprs, leaves: tuple) -> bool:
    """Each of exprs is constructors over leaves, each of a class in leaves."""
    stack = list(exprs)
    while stack:
        e = stack.pop()
        if isinstance(e, Ctor):
            stack += e.args
        elif not isinstance(e, leaves):
            return False
    return True


def expr_token_count(expr: Expr) -> int:
    """The size of expr in tokens; a value counts as many as it linearizes
    to (its constructors and payloads, or the span it was read from),
    without building the list."""
    total = 0
    stack = [expr]
    while stack:
        e = stack.pop()
        if type(e) is Term:
            if e._span is None:
                total += 1 + len(e.payloads)
                stack += e.children
            else:
                total += e._span[2] - e._span[1]
        elif isinstance(e, Ctor):
            total += 1 + len(e.payloads)
            stack.extend(e.args)
        elif isinstance(e, Call):
            total += 1
            stack.extend(e.args)
        elif isinstance(e, ListLit):
            total += max(1, len(e.items))
        elif isinstance(e, Concat):
            total += 1
            stack += (e.left, e.right)
        else:
            total += 1
    return total


# ---------------------------------------------------------------------------
# programs


@dataclass(frozen=True)
class Clause:
    """constructor pattern -> template; binders name the payload slots
    followed by the child slots of the matched constructor."""

    constructor: str
    binders: tuple[str, ...]
    template: Expr


@dataclass(frozen=True)
class Program:
    name: str
    params: tuple[str, ...]
    arg_type: InductiveDef
    clauses: tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not self.params:
            raise ValueError(f"{self.name} takes no parameters: it needs one to match on")
        covered = [c.constructor for c in self.clauses]
        if sorted(covered) != sorted(c.name for c in self.arg_type.constructors):
            raise ValueError(f"{self.name} must cover each constructor of "
                             f"{self.arg_type.name} exactly once, got {covered}")
        # per constructor: the payloads, children and arguments it takes, the
        # rule name, the programs the instance calls, the instance builder,
        # and the calls, build, c and code of its clause (see _compile).  Not
        # a field, so eq and repr ignore it
        object.__setattr__(self, "compiled", {})
        for clause in self.clauses:
            cdef = self.arg_type.constructor(clause.constructor)
            n_pay = len(cdef.payload_kinds)
            if len(clause.binders) != n_pay + cdef.recursive_arity:
                raise ValueError(f"{self.name}.{clause.constructor} needs "
                                 f"{n_pay + cdef.recursive_arity} binders")
            slots = {b: i for i, b in enumerate(clause.binders + self.params[1:])}
            kids = range(n_pay, n_pay + cdef.recursive_arity)
            for item in (v for e in _Nested._pieces(clause.template) if e.__class__ is ListLit
                         for v in e.items):  # the items of each list literal in the template
                if not isinstance(item, (str, Var)):
                    raise ValueError(f"{self.name}.{clause.constructor}: list item {item!r} "
                                     "is neither a token nor a variable")
            calls, build, c, code, make = _compile(clause.template, slots, range(n_pay))
            for call, *_ in calls:
                if not call.args:
                    raise ValueError(f"{self.name}.{clause.constructor}: "
                                     f"call of {call.fn!r} has no arguments")
                # recursive calls may only be applied to a child of the matched term
                first = call.args[0]
                if call.fn == self.name and not (isinstance(first, Var)
                                                 and slots.get(first.name) in kids):
                    raise ValueError(f"{self.name}: recursion is not structurally decreasing")
            self.compiled[clause.constructor] = (
                (n_pay, cdef.recursive_arity, len(self.params)),
                f"{self.name}/{clause.constructor}", tuple({call[0].fn for call in calls}), make,
                (calls, build, c, code))


# ---------------------------------------------------------------------------
# clause code and big-step


def _compile(template: Expr, slots: dict, payloads: range = range(0)):
    """(calls, build, c, code, make) of template, a clause's body or a
    state, from one walk on a stack (a state is as deep as its emitted
    prefix).  A variable stands for the slot slots gives it in env: the
    matched term's payloads (the slots in payloads) and children, then the
    other arguments.  make(env) builds the instance levels() steps to.
    build(env, vals) makes its value, a term or a tuple of tokens, from env
    and the values of its calls; in a body that appeared at level t it is
    normal at level max(t + c, the levels of the calls in it).  calls holds
    those in firing order, each as (the call, the builds of its matched
    argument and of the others, c and waits of the matched one, those of
    the others not normal at t), where a node's waits are the indices of
    the calls in it.  code maps each trace style to the tokens it renders
    template in, where (slot,) stands for a bound variable's tokens and i
    for the state of calls[i]; None where it cannot render template from a
    cut alone: a call on a pending argument, a list item that is no token,
    what render_state_paren or render_state_unroll rejects, and all of a
    template with an unbound variable.  Such a variable, or a node that is
    no expression, stops no walk: build raises ReductionError where it
    meets either, and make where it meets the variable."""
    calls: list = []
    done: list = []  # the parts of each node walked whose parent is not yet
    unbound = False
    stack = [(template, None)]  # a node, and the calls before it once its kids are pushed
    while stack:
        e, first = stack.pop()
        cls = e.__class__
        kids = (e.left, e.right) if cls is Concat else e.args if cls is Ctor or cls is Call else ()
        if first is None and kids:
            stack.append((e, len(calls)))
            stack += [(kid, None) for kid in reversed(kids)]
            continue
        unbound = unbound or cls is Var and e.name not in slots
        parts = done[len(done) - len(kids):]
        del done[len(done) - len(kids):]
        done.append(_node(e, parts, slots, payloads, calls, len(calls) if first is None else first))
    build, c, _, make, *codes = done[0]
    return calls, build, c, {style: None if unbound or code is None else _flat(code)
                             for style, code in zip((PAREN, ARROW), codes)}, make


def _node(e, parts: list, slots: dict, payloads: range, calls: list, first: int):
    """(build, c, waits, make, paren code, arrow code) of node e in
    _compile's walk, from the parts of its kids, where first is the number
    of calls before e.  A code nests the codes of e's kids (see _flat)."""
    cls, c, paren, arrow = e.__class__, 0, None, None
    if cls is Term:  # a value: levels() keeps it
        build = make = lambda env, vals=None: e
        paren = e
    elif cls is Var:
        slot = slots.get(e.name)
        build = make = (lambda env, vals=None: env[slot]) if slot is not None else _fails(
            f"unbound template variable {e.name!r}")
        paren = None if slot is None or slot in payloads else (slot,)
    elif cls is ListLit:  # its tokens, with each variable's payload in its place
        items = e.items
        bound = [(i, slots.get(v.name), v.name) for i, v in enumerate(items) if v.__class__ is Var]

        def build(env, vals=None):
            got = list(items)
            for i, slot, name in bound:
                if slot is None or not isinstance(env[slot], str):
                    raise ReductionError(f"list slot {name!r} is not a payload")
                got[i] = env[slot]
            return tuple(got)
        make = lambda env: ListLit(build(env))
        if not bound:
            build, make = (lambda env, vals=None: items), (lambda env: e)
        if all(v.__class__ is str or v.__class__ is Var and slots.get(v.name, -1) in payloads
               for v in items):
            arrow = [v if v.__class__ is str else (slots[v.name],) for v in items]
    elif cls is Call:  # a call takes its value from its body instead
        matched = parts[0] if parts else (_fails("a call with no arguments"), 0, ())
        calls.append((e, matched[0], tuple([p[0] for p in parts[1:]]), matched[1], matched[2],
                      [p[1:3] for p in parts[1:] if p[1] or p[2]]))
        index, fn, makes = len(calls) - 1, e.fn, [p[3] for p in parts]
        build = lambda env, vals: vals[index]
        make = lambda env: Call(fn, tuple([m(env) for m in makes]))
        if parts and _over(e.args, (Var, Term)):
            paren = arrow = index
    elif cls is Ctor or cls is Concat:
        builds, makes = [p[0] for p in parts], [p[3] for p in parts]
        if cls is Ctor:
            name, pays = e.name, e.payloads
            kind, join = Term, lambda *args: Term(name, pays, args)
            make = lambda env: _collapse_ctor(name, pays, tuple([m(env) for m in makes]))
            kid = [p[4] for p in parts]
            if None not in kid and (len(kid) == 1 and not pays
                                    or _over(e.args, (Var, Term))):
                # a link of the emitted prefix, or a value: the constructor,
                # its payloads, then its arguments, as linearize writes a term
                paren = [name, *pays, *kid]
        else:
            # two lists that were lists already take a level to join; any
            # other concat joins in the level that completes it
            (left, right), kind, join, c = makes, tuple, operator.add, 1
            make = lambda env: Concat(left(env), right(env))
            if parts[0][5] is not None and parts[1][5] is not None:
                arrow = [parts[0][5], parts[1][5]]

        def build(env, vals):
            args = []
            for get in builds:
                arg = get(env, vals)
                if type(arg) is not kind:
                    raise ReductionError("ill-typed")  # levels() gets stuck, rejects or leaves it
                args.append(arg)
            return join(*args)
        c = max([c] + [p[1] for p in parts])
    else:  # a token where a term belongs, or no expression: levels() keeps it
        make = lambda env: e
        build = (lambda env, vals: e) if isinstance(e, str) else _fails("not an expression")
    return build, c, range(first, len(calls)), make, paren, arrow


def _flat(code) -> tuple:
    """The pieces of a code _node nests, in order, where a term stands for
    its tokens: read only where it renders, never under a call."""
    out, stack = [], [code]
    while stack:
        piece = stack.pop()
        if piece.__class__ is list:
            stack += reversed(piece)
        else:
            out += linearize(piece) if piece.__class__ is Term else (piece,)
    return tuple(out)


def _fails(message: str):
    """A build that raises ReductionError(message) where it is reached."""
    def fail(env, vals=None):
        raise ReductionError(message)
    return fail


def _big_step(expr: Expr, programs, fuel: int | None, style: str | None = None):
    """(normal form, levels) of the levels() run from a call on values, by
    eval/apply on an explicit stack.  A call fires one level after its
    matched argument is normal.  None past the larger of fuel and _budget's
    default (not counted at fuel math.inf), and where only levels() can
    tell what happens: an error, a stuck part, or a call that fires while
    another argument is pending, which levels() substitutes unevaluated.
    A run that completes past an explicit fuel raises FuelExhaustedError:
    it is the levels() run, so no error of levels() comes before the level
    past the fuel.

    With a trace style, instead (levels, code, kids) of the run from any
    state that style renders, each of its calls on values starting at level
    0, and no value: the state's render code and calls, from the walk that
    compiles a clause (see _compile), and each call recorded as it fires as
    (the level it fires in, its matched term, the environment and render
    code of its clause instance, the records of the calls the instance
    makes).  None also where style cannot render a clause instance from the
    cut."""
    kids = None
    if style is None:  # a call on values
        if not (isinstance(expr, Call) and expr.args
                and all(isinstance(a, Term) for a in expr.args)):
            return None
        terms = [lambda env, vals, a=a: a for a in expr.args]
        calls = [(expr, terms[0], tuple(terms[1:]), 0, (), ())]
    else:
        calls, _, c, codes, _ = _compile(expr, {})
        # levels() gets stuck on a call on a constructor over values
        if codes[style] is None or not all(
                isinstance(a, Term) for call in calls for a in call[0].args):
            return None
        if not calls:  # normal, or lists to join in one level
            return c, codes[style], []
        kids = []
    limit = _budget(expr, fuel)
    if fuel is not None and limit < math.inf:  # an explicit fuel: at least the default
        limit = max(limit, _budget(expr, None))
    # the body being evaluated: its calls and build, its environment and the
    # level it appeared at, the values and levels of its calls so far, and
    # the records of its fired calls, kept instead of values
    build, root, no_value = (lambda env, vals: vals[0]), kids, (lambda env, vals: None)
    env, t, vals, ready_at, stack = (), 0, [], [], []
    try:
        while True:
            if len(vals) < len(calls):
                call, first, rest, k, w, others = calls[len(vals)]
                term = first(env, vals)
                ready = max([t + k] + [ready_at[j] for j in w]) if w else t + k
                if others and any(max([t + ok] + [ready_at[j] for j in ow]) > ready
                                  for ok, ow in others):
                    return None  # levels() would substitute an argument still pending
                prog = programs.get(call.fn)
                entry = prog.compiled.get(term.constructor) if type(term) is Term and prog else None
                if entry is None or ready >= limit or entry[0] != (
                        len(term.payloads), len(term.children), len(rest) + 1):
                    return None
                body_calls, body_build, c, code = entry[4]
                body_env = term.payloads + term.children
                if rest:
                    body_env += tuple([make(env, vals) for make in rest])
                if kids is not None:
                    # the code's checks stand in for the build's: the calls
                    # and arguments here read no value, and the calls of the
                    # body record into this call's record
                    if code[style] is None:
                        return None
                    kids.append((ready + 1, term, body_env, code[style], []))
                    body_build = no_value
                if body_calls:
                    stack.append((calls, build, env, t, vals, ready_at, kids))
                    calls, build, kids = body_calls, body_build, kids and kids[-1][4]
                    env, t, vals, ready_at = body_env, ready + 1, [], []
                else:  # a body without calls is normal as it appears, or c levels later
                    vals.append(body_build(body_env, ()))
                    ready_at.append(ready + 1 + c)
            else:
                # normal with its latest call: a call inside an argument
                # fires before the call it is in, and every call ends a level
                # or more after the body appeared, as late as c can make it
                level = max(ready_at)
                if not stack:
                    break
                value = build(env, vals)
                calls, build, env, t, vals, ready_at, kids = stack.pop()
                vals.append(value)
                ready_at.append(level)
        value = build(env, vals)
    except ReductionError:  # only levels() tells what happens
        return None
    if level > limit or root is None and type(value) not in (Term, tuple):
        return None
    if fuel is not None and level > fuel:
        raise FuelExhaustedError(f"no normal form within {fuel} levels")
    if root is not None:
        return level, codes[style], root
    return (value if type(value) is Term else ListLit(value)), level


def _collapse_ctor(name: str, payloads: tuple, args: tuple) -> Expr:
    # bookkeeping, not a reduction step: a constructor over values is a value
    for arg in args:
        if arg.__class__ is not Term:
            return Ctor(name, payloads, args)
    return Term(name, payloads, args)


def _make_builtins() -> dict[str, Program]:
    programs = [
        Program("s", ("b",), BIN_POS, (
            Clause(ONE, (), Term(X0, children=(Term(ONE),))),
            Clause(X0, ("b",), Ctor(X1, (), (Var("b"),))),
            Clause(X1, ("b",), Ctor(X0, (), (Call("s", (Var("b"),)),))))),
        Program("add", ("n", "m"), PEANO, (
            Clause("I", (), Ctor("S", (), (Var("m"),))),
            Clause("S", ("p",), Ctor("S", (), (Call("add", (Var("p"), Var("m"))),))))),
    ]
    label = ListLit((Var("v"),))
    for name in ("inorder", "preorder"):  # the label after, or before, the left subtree's walk
        left = Call(name, (Var("l"),))
        programs.append(Program(name, ("t",), CHAR_TREE, (
            Clause("Leaf", (), ListLit(())),
            Clause("Branch", ("v", "l", "r"), Concat(
                Concat(left, label) if name == "inorder" else Concat(label, left),
                Call(name, (Var("r"),)))))))
    return {p.name: p for p in programs}


_BUILTINS = _make_builtins()


def builtin_programs() -> dict[str, Program]:
    return dict(_BUILTINS)


def _style_of(program: Program) -> _Style:
    """The style of program's states: arrow for a walk of a tree, else paren."""
    return _STYLES[ARROW if program.arg_type is CHAR_TREE else PAREN]


def program_call(program: Program, inputs) -> Call:
    """program applied to its inputs, one token sequence per parameter;
    trees read in their serialized form, other types in constructor order."""
    if len(inputs) != len(program.params):
        raise ReductionError(
            f"{program.name} takes {len(program.params)} input(s), got {len(inputs)}")
    return Call(program.name, tuple(
        tree_parse(toks) if program.arg_type is CHAR_TREE
        else delinearize(toks, program.arg_type) for toks in inputs))


# ---------------------------------------------------------------------------
# stepping


class _Engine:
    """Call-by-value reduction, one pass over the pending part per step.

    The state is the chain of unary constructors already emitted (prefix)
    over the part still pending (body).  A step walks the body once, in
    post-order: it fires each outermost redex it meets and rebuilds only
    the nodes whose children changed, folding what that completes: a
    constructor over terms becomes a term and, within a level, a concat
    of two lists flattens.  A level rewrites every outermost redex; a
    single step stops after the first (leftmost-outermost) one, so it
    rebuilds only that redex's ancestors.  A redex's clause instance is
    built by the builder its program compiled (see _compile); expr() folds
    the prefix back over the body as a step folds a constructor.  The engine is the
    reference big-step and its cuts are held to, and runs where they give up."""

    def __init__(self, expr: Expr, programs, single: bool):
        self.programs, self.single = programs, single
        stack = [expr]  # the input's one check; an instance is checked as it is built
        while stack:
            e = stack.pop()
            if isinstance(e, Var):
                raise ReductionError("unbound template variable in a runtime expression")
            if isinstance(e, Call) and e.fn not in programs:
                raise ReductionError(f"unknown program: {e.fn!r}")
            if isinstance(e, Call) and not e.args:
                raise ReductionError(f"call of {e.fn!r} has no arguments")
            stack += (e.left, e.right) if isinstance(e, Concat) else getattr(e, "args", ())
        self.prefix: list[str] = []
        self.body = expr
        self._absorb()

    def _absorb(self) -> None:
        # a unary constructor over a part still pending is output for good
        body = self.body
        while (isinstance(body, Ctor) and not body.payloads and len(body.args) == 1
               and isinstance(body.args[0], (Call, Ctor, Concat))):
            self.prefix.append(body.name)
            body = body.args[0]
        self.body = body

    def expr(self) -> Expr:
        expr = self.body
        for name in reversed(self.prefix):
            expr = _collapse_ctor(name, (), (expr,))
        return expr

    def step(self) -> bool:
        """Take one step; False once the state is normal."""
        programs, single = self.programs, self.single
        recs: list = []  # (path from body, rule) of each rewrite, in order
        # per ancestor of node, outermost first: [expr, its kids, the new
        # kids or None], and the index of the kid on the way to node
        frames: list = []
        path: list = []
        node = self.body
        while True:
            cls = node.__class__
            if cls is Concat:
                left, right = node.left, node.right
                if left.__class__ is ListLit and right.__class__ is ListLit:
                    recs.append((tuple(path), "++"))
                    node = ListLit(left.items + right.items)
                else:
                    frames.append([node, (left, right), None])
                    path.append(0)
                    node = left
                    continue
            elif cls is Call and node.args[0].__class__ is Term:
                # the instance of the clause the matched term selects
                prog, args, term = programs[node.fn], node.args, node.args[0]
                if term.constructor not in prog.compiled:
                    raise ReductionError(f"{prog.name} has no clause for {term.constructor!r}")
                want, rule, fns, make, _ = prog.compiled[term.constructor]
                got = len(term.payloads), len(term.children), len(args)
                if got != want:
                    raise ReductionError(f"{prog.name} on {term.constructor!r} takes "
                                         f"(payloads, children, arguments) {want}, got {got}")
                node = make(term.payloads + term.children + args[1:])
                for fn in fns:
                    if fn not in programs:
                        raise ReductionError(f"unknown program: {fn!r}")
                recs.append((tuple(path), rule))
            elif (cls is Call or cls is Ctor) and node.args:
                frames.append([node, node.args, None])
                path.append(0)
                node = node.args[0]
                continue
            # node is done: it goes to its parent, then the next kid is
            # visited, or the parent is rebuilt and is done too
            while frames:
                frame = frames[-1]
                kids, i = frame[1], path[-1]
                if node is not kids[i]:
                    if frame[2] is None:
                        frame[2] = list(kids)
                    frame[2][i] = node
                if i + 1 < len(kids) and not (single and recs):
                    path[-1] = i + 1
                    node = kids[i + 1]
                    break
                frames.pop()
                path.pop()
                parent, _, new = frame
                if new is None:
                    node = parent
                elif parent.__class__ is Ctor:
                    node = _collapse_ctor(parent.name, parent.payloads, tuple(new))
                elif parent.__class__ is Call:
                    node = Call(parent.fn, tuple(new))
                elif single or not new[0].__class__ is new[1].__class__ is ListLit:
                    node = Concat(*new)
                else:  # a level flattens each concat of two lists it completes
                    recs.append((tuple(path), "++"))
                    node = ListLit(new[0].items + new[1].items)
            else:
                break
        if not recs:
            if is_normal(node):
                return False
            raise ReductionError("expression is stuck: nothing to rewrite")
        self._paths, self.rules = zip(*recs)
        self._depth = len(self.prefix)  # of the body the paths start from
        self.body = node
        self._absorb()
        return True

    @property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        """The paths of the last step's rewrites, from the root of the state."""
        zeros = (0,) * self._depth
        return tuple([zeros + path for path in self._paths])


def levels(expr: Expr, programs: dict[str, Program] | None = None, single: bool = False):
    """Reduce expr step by step until it is normal.  A step is a level,
    which rewrites every outermost redex at once, or with single one
    leftmost-outermost rewrite.  Yields the running engine after each
    step: its paths and rules describe the step, and expr() gives the
    state reached."""
    engine = _Engine(expr, _BUILTINS if programs is None else programs, single)
    while engine.step():
        yield engine


def step_level(expr: Expr, programs: dict[str, Program] | None = None):
    """Rewrite every outermost redex at once: (the state reached, the engine
    whose paths and rules describe the step), or None when expr is normal."""
    return next(((engine.expr(), engine) for engine in levels(expr, programs)), None)


def step_single(expr: Expr, programs: dict[str, Program] | None = None):
    """Rewrite the leftmost-outermost redex: (the state reached, the engine),
    as step_level gives, or None when expr is normal."""
    return next(((engine.expr(), engine) for engine in levels(expr, programs, True)), None)


def _budget(expr: Expr, fuel: int | None) -> int:
    """The level budget: fuel, or by default one that scales with the input
    size."""
    if fuel is None:
        return max(4, 2 * expr_token_count(expr))
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    return fuel


def _fueled_levels(expr: Expr, programs, fuel: float | None):
    """levels(expr, programs), raising FuelExhaustedError on the first level
    past the budget of fuel (see _budget)."""
    fuel = _budget(expr, fuel)
    for taken, engine in enumerate(levels(expr, programs), start=1):
        if taken > fuel:
            raise FuelExhaustedError(f"no normal form within {fuel} levels")
        yield engine


def reduce(expr: Expr, programs: dict[str, Program] | None = None, fuel: int | None = None):
    """Reduce expr to normal form within fuel levels (by default a budget
    that grows with the input); returns (normal form, levels taken), from
    big-step, which raises FuelExhaustedError for a run that completes past
    fuel.  Where only levels() can tell what happens, it runs here under the
    budget, so its errors come from here."""
    programs = _BUILTINS if programs is None else programs
    found = _big_step(expr, programs, fuel)
    if found is None:
        taken, engine = 0, None
        for taken, engine in enumerate(_fueled_levels(expr, programs, fuel), start=1):
            pass  # one engine, stepped in place
        found = (expr if engine is None else engine.expr()), taken
    return found


def recursion_depth(term: Term | tuple[Term, ...], program: str = "s",
                    programs: dict[str, Program] | None = None) -> int:
    """Levels to reach the normal form of program applied to term, unbudgeted."""
    args = (term,) if isinstance(term, Term) else tuple(term)
    return reduce(Call(program, args), programs, math.inf)[1]


# ---------------------------------------------------------------------------
# surface forms


def render_state_paren(expr: Expr) -> list[str]:
    """Emitted constructor prefix, then the pending argument in parens.
    The parens enclose the part the next step runs on; a normal state
    renders paren-free."""
    prefix: list[str] = []
    cur = expr
    while isinstance(cur, Ctor):
        if len(cur.args) != 1 or cur.payloads:
            raise RenderError("paren form needs a chain of unary constructors")
        prefix.append(cur.name)
        cur = cur.args[0]
    if isinstance(cur, Term):
        return prefix + linearize(cur)
    if isinstance(cur, Call):
        inner: list[str] = []
        for arg in cur.args:
            if not isinstance(arg, Term):
                raise RenderError("pending call arguments must be values")
            inner.extend(linearize(arg))
        return prefix + [LPAR] + inner + [RPAR]
    raise RenderError(f"paren form cannot render {type(cur).__name__} states")


def parse_state_paren(tokens, program: Program, *, normalized: bool = False) -> Expr:
    """Inverse of render_state_paren for one program.  With normalized,
    tokens is a list that the caller has normalized already."""
    toks = tokens if normalized else normalize_tokens(tokens)
    if not toks:
        raise ReductionError("empty state")
    if LPAR not in toks:
        if RPAR in toks:
            raise ReductionError("unbalanced parens")
        return delinearize(toks, program.arg_type, normalized=True)
    open_i = toks.index(LPAR)
    if toks[-1] != RPAR or toks.count(LPAR) != 1 or toks.count(RPAR) != 1:
        raise ReductionError("state must contain exactly one trailing paren group")
    prefix, inner = toks[:open_i], toks[open_i + 1 : -1]
    if not inner:
        raise ReductionError("empty paren group")
    args: list[Expr] = []
    for _ in program.params:  # one term per parameter
        term, used = delinearize(inner, program.arg_type, prefix=True, normalized=True)
        args.append(term)
        inner = inner[used:]
    if inner:
        raise ReductionError(f"trailing tokens in paren group: {inner}")
    expr: Expr = Call(program.name, tuple(args))
    for name in reversed(prefix):
        cdef = program.arg_type.constructor(name)
        if cdef.recursive_arity != 1 or cdef.payload_kinds:
            raise ReductionError(f"{name!r} cannot appear in an emitted prefix")
        expr = Ctor(name, (), (expr,))
    return expr


def render_state_unroll(expr: Expr) -> list[str]:
    """Flat traversal state: pending subtree calls bracketed, pending leaf
    calls as EMPTY, emitted values bare, in left-to-right order."""
    out: list[str] = []
    stack = [expr]
    while stack:
        e = stack.pop()
        cls = e.__class__
        if cls is Concat:
            stack += (e.right, e.left)
        elif cls is ListLit:
            out += e.items
        elif cls is not Call:
            raise RenderError(f"traversal form cannot render {cls.__name__} states")
        elif not e.args or e.args[0].__class__ is not Term:
            raise RenderError("pending call argument must be a value")
        elif e.args[0].constructor == "Leaf":
            out.append(EMPTY_TOKEN)
        else:
            try:
                out += [UNROLL_OPEN, *tree_serialize(e.args[0]), UNROLL_CLOSE]
            except MalformedSequenceError as err:  # err names the node off the char_tree shape
                raise RenderError(f"traversal form cannot render this call: {err}") from None
    return out


def parse_state_unroll(tokens, program: Program, *, normalized: bool = False) -> Expr:
    """Inverse of render_state_unroll for one traversal program.  With
    normalized, tokens is a list that the caller has normalized already."""
    toks = tokens if normalized else normalize_tokens(tokens)
    if not toks:
        raise ReductionError("empty state")
    items: list[Expr] = []
    run: list[str] = []
    pos = 0

    def flush() -> None:
        if run:
            items.append(ListLit(tuple(run)))
            run.clear()

    while pos < len(toks):
        tok = toks[pos]
        if tok == EMPTY_TOKEN:
            flush()
            items.append(Call(program.name, (Term("Leaf"),)))
            pos += 1
        elif tok == UNROLL_OPEN:
            flush()
            try:
                close = toks.index(UNROLL_CLOSE, pos + 1)
            except ValueError:
                raise ReductionError("unterminated UNROLL group") from None
            tree = tree_parse(toks[pos + 1 : close], normalized=True)
            items.append(Call(program.name, (tree,)))
            pos = close + 1
        elif tok == UNROLL_CLOSE:
            raise ReductionError("unmatched ] in state")
        else:
            run.append(tok)
            pos += 1
    flush()
    if not items:
        raise ReductionError("empty state")
    expr = items[0]
    for item in items[1:]:
        expr = Concat(expr, item)
    return expr


def render_states(expr: Expr, style: str, programs: dict[str, Program] | None = None,
                  fuel: float | None = math.inf):
    """The states of the levels() run from expr rendered in style, each as
    its tokens joined by spaces, from expr to the normal form.  fuel bounds
    the levels as reduce()'s does (None: the default budget that grows with
    the input); past it, or where the run fails, the error is raised before
    the first state is yielded.

    A level is one unit of depth of big-step's call tree (Blelloch and
    Greiner, "Parallelism in sequential functional languages", FPCA 1995),
    so the state after level k is the cut of that tree at k: a call that
    fires after k is pending, and one that fired by k is its clause
    instance.  A part that has completed renders once and its text is
    reused, so no state is built.  Where big-step gives up (see _big_step),
    levels() steps and each state it reaches is rendered."""
    if style not in (PAREN, ARROW):
        raise RenderError(f"unknown trace style: {style!r}")
    programs = _BUILTINS if programs is None else programs
    return _cuts(expr, style, programs, fuel)


def _cuts(expr: Expr, style: str, programs, fuel: float | None):
    """render_states(expr, style, programs, fuel), once its arguments are
    checked."""
    found = _big_step(expr, programs, fuel, style)
    if found is None:
        # stepped in full first, so that an error comes before any state
        render = _STYLES[style].render
        states = [" ".join(render(expr))]
        for engine in _fueled_levels(expr, programs, fuel):
            states.append(" ".join(render(engine.expr())))
        yield from states
        return
    last, code, kids = found
    paren = style == PAREN
    pieces = [(0, None, (), code, kids)]  # the state fires at level 0 into its code
    for level in range(last + 1):
        pieces = _cut(pieces, level, paren)
        yield " ".join([p if p.__class__ is str else _pending(p, paren) for p in pieces])


def _cut(pieces: list, level: int, paren: bool) -> list:
    """The pieces of the state after level from those of the state before
    it: texts, and between them the calls still pending, where each call
    that fires at level is replaced by its clause instance."""
    cut, run = [], []  # run: the tokens and texts since the last pending call
    for piece in pieces:
        if piece.__class__ is str:
            run.append(piece)
        elif piece[0] != level:
            if run:
                cut.append(" ".join(run))
                run = []
            cut.append(piece)
        else:
            _, _, env, code, kids = piece
            for part in code:
                cls = part.__class__
                if cls is str:
                    run.append(part)
                elif cls is int:  # a call of the instance, which fires later
                    if run:
                        cut.append(" ".join(run))
                        run = []
                    cut.append(kids[part])
                elif paren:
                    run += linearize(env[part[0]])
                else:
                    run.append(env[part[0]])
    if run:
        cut.append(" ".join(run))
    return cut


def _pending(call: tuple, paren: bool) -> str:
    """A pending call's text, as render_state_paren or render_state_unroll
    renders it."""
    term = call[1]
    if paren:
        inner = linearize(term)
        for arg in call[2][len(term.payloads) + len(term.children):]:
            inner += linearize(arg)
        return f"{LPAR} {' '.join(inner)} {RPAR}"
    if term.constructor == "Leaf":
        return EMPTY_TOKEN
    return f"{UNROLL_OPEN} {' '.join(tree_serialize(term))} {UNROLL_CLOSE}"


def render_trace(expr: Expr, style: str, programs: dict[str, Program] | None = None) -> str:
    """render_states(expr, style, programs) joined by the style's separator."""
    states = render_states(expr, style, programs)  # checks the style first
    return _STYLES[style].separator.join(states)
