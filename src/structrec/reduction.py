"""Small-step execution of structurally recursive programs.

A program is an ordered set of pattern-match clauses over one inductive
argument.  One step bundles unfolding the definition, applying it, and
selecting the matching clause.  Two stepping modes are provided: a
single leftmost-outermost rewrite, and a whole-frontier "level" that
rewrites every outermost redex simultaneously; either is one post-order
pass over the part of the state still pending.  reduce() gets the normal
form and the number of levels from a big-step evaluator of the same
clauses, and steps only when a caller reads the trace's steps.

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

from .errors import FuelExhaustedError, ReductionError, RenderError
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
    delinearize,
    linearize,
    normalize_tokens,
    tree_parse,
    tree_serialize,
)

# ---------------------------------------------------------------------------
# expressions
#
# Expressions keep their fields in slots: a trace holds every state, and a
# slotted instance takes about half the memory of one with a dict.


@dataclass(frozen=True, slots=True)
class Value:
    """A fully reduced constructor term."""

    term: Term


class _Nested:
    """Eq, hash and repr of the expressions that hold expressions, from one
    walk on a stack, as Term's are: the dataclass-generated ones recurse
    once per level.  The repr text is the generated one."""

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


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Ctor(_Nested):
    """A constructor applied to not-yet-reduced arguments."""

    name: str
    payloads: tuple[str, ...]
    args: tuple["Expr", ...]

    _exprs = ("args",)


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Call(_Nested):
    """A pending program call; the first argument is the matched one."""

    fn: str
    args: tuple["Expr", ...]

    _exprs = ("args",)


@dataclass(frozen=True, slots=True)
class ListLit:
    """A literal list of output tokens (template slots may hold a Var)."""

    items: tuple


@dataclass(frozen=True, eq=False, repr=False, slots=True)
class Concat(_Nested):
    left: "Expr"
    right: "Expr"

    _exprs = ("left", "right")


@dataclass(frozen=True)
class Var:
    """Template placeholder; never present in a runtime expression."""

    name: str


Expr = Value | Ctor | Call | ListLit | Concat | Var


def is_normal(expr: Expr) -> bool:
    """Normal forms contain no pending calls and no unflattened concats."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Ctor):
            stack.extend(e.args)
        elif not isinstance(e, (Value, ListLit)):
            return False
    return True


def expr_token_count(expr: Expr) -> int:
    """The size of expr in tokens; a value counts as many as it linearizes
    to (its constructors and payloads, or the span it was read from),
    without building the list."""
    return _token_count(expr, math.inf)


def _token_count(expr: Expr, enough: float) -> int:
    """expr_token_count(expr), or a count of at least enough, once it reaches it."""
    total = 0
    stack = [expr]
    while stack and total < enough:
        e = stack.pop()
        if type(e) is Term:
            if e._span is None:
                total += 1 + len(e.payloads)
                stack += e.children
            else:
                total += e._span[2] - e._span[1]
        elif isinstance(e, Value):
            stack.append(e.term)
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
        covered = [c.constructor for c in self.clauses]
        expected = [c.name for c in self.arg_type.constructors]
        if sorted(covered) != sorted(expected):
            raise ValueError(
                f"{self.name} must cover each constructor of {self.arg_type.name} "
                f"exactly once, got {covered}"
            )
        # per constructor: the payloads, children and arguments it takes, the
        # function building the instance, rule name, the programs the
        # instance calls, and big-step code (its calls, build and c); both
        # builders read the payloads, children, then the other arguments by
        # position.  Not a field, so eq and repr ignore it
        object.__setattr__(self, "compiled", {})
        for clause in self.clauses:
            cdef = self.arg_type.constructor(clause.constructor)
            n_pay = len(cdef.payload_kinds)
            if len(clause.binders) != n_pay + cdef.recursive_arity:
                raise ValueError(f"{self.name}.{clause.constructor} needs "
                                 f"{n_pay + cdef.recursive_arity} binders")
            slots = {b: i for i, b in enumerate(clause.binders + self.params[1:])}
            fns: set = set()
            build = _compile(clause.template, self.name, slots,
                             range(n_pay, n_pay + cdef.recursive_arity), fns)
            calls: list = []
            try:
                build_big, c, _ = _compile_big(clause.template, slots, calls)
                big = (calls, build_big, c)
            except (KeyError, ReductionError):  # an unbound variable, or not an expression
                big = None
            self.compiled[clause.constructor] = (
                (n_pay, cdef.recursive_arity, len(self.params)), build,
                f"{self.name}/{clause.constructor}", tuple(fns), big)


# ---------------------------------------------------------------------------
# substitution and local normalization


def _compile(template: Expr, name: str, slots: dict, kids: range, fns: set):
    """A function from the environment (payloads, children, then the other
    arguments, by position) to the instance of template, in which each
    child becomes a value.  Adds to fns the programs the instance calls.
    Recursive calls may only be applied to a child of the matched term."""
    if isinstance(template, Var):
        slot = slots.get(template.name)
        if slot is None:
            def unbound(env, var=template.name):
                raise ReductionError(f"unbound template variable {var!r}")
            return unbound
        return (lambda env: Value(env[slot])) if slot in kids else operator.itemgetter(slot)
    if isinstance(template, ListLit):
        items = template.items
        picks = {i: slots.get(it.name) for i, it in enumerate(items) if isinstance(it, Var)}
        if not picks:
            return lambda env: template

        def fill(env):
            out = list(items)
            for i, slot in picks.items():
                out[i] = None if slot is None else env[slot]
                if not isinstance(out[i], str):
                    raise ReductionError(f"list slot {items[i].name!r} is not a payload")
            return ListLit(tuple(out))

        return fill
    if isinstance(template, Call):
        first = template.args[0]
        if template.fn == name and not (isinstance(first, Var) and slots.get(first.name) in kids):
            raise ValueError(f"{name}: recursion is not structurally decreasing")
        fns.add(template.fn)
    if isinstance(template, (Ctor, Call)):
        parts = [_compile(a, name, slots, kids, fns) for a in template.args]
        if isinstance(template, Call):
            fn = template.fn
            return lambda env: Call(fn, tuple([p(env) for p in parts]))
        ctor, payloads = template.name, template.payloads
        return lambda env: _collapse_ctor(Ctor(ctor, payloads, tuple([p(env) for p in parts])))
    if isinstance(template, Concat):
        left = _compile(template.left, name, slots, kids, fns)
        right = _compile(template.right, name, slots, kids, fns)
        return lambda env: Concat(left(env), right(env))
    return lambda env: template


def _compile_big(template: Expr, slots: dict, calls: list):
    """(build, c, waits): build(env, vals) makes the node's value from the
    environment and the values of earlier calls; in a body that appeared at
    level t it is normal at level max(t + c, the levels of calls waits).
    Appends the node's calls in firing order as (program, the matched
    argument's build, the other arguments' builds, c and waits of the
    matched one, those of the others not normal at t)."""
    if isinstance(template, Var):
        slot = slots[template.name]
        return (lambda env, vals: env[slot]), 0, ()
    if isinstance(template, (Value, str)):  # a term, or a token in a list
        const = template.term if isinstance(template, Value) else template
        return (lambda env, vals: const), 0, ()
    if isinstance(template, ListLit):
        kids, kind, c, join = template.items, str, 0, None
    elif isinstance(template, Concat):
        # two lists that were lists already take a level to join; any other
        # concat joins in the level that completes it
        kids, kind, c, join = (template.left, template.right), tuple, 1, operator.add
    elif isinstance(template, (Ctor, Call)):  # a call takes its value from its body instead
        kids, kind, c = template.args, Term, 0
        join = lambda *args: Term(template.name, template.payloads, args)
    else:
        raise ReductionError("not an expression")
    parts = [_compile_big(kid, slots, calls) for kid in kids]
    builds = [build for build, _, _ in parts]
    if isinstance(template, Call):
        calls.append((template.fn, builds[0], tuple(builds[1:]), *parts[0][1:],
                      [p[1:] for p in parts[1:] if p[1:] != (0, ())]))
        index = len(calls) - 1
        return (lambda env, vals: vals[index]), 0, (index,)
    return (_joined(builds, kind, join), max([c] + [p[1] for p in parts]),
            sum((p[2] for p in parts), ()))


def _joined(builds: list, kind: type, join):
    """build(env, vals): join over the values of builds, each of type kind,
    or their tuple when join is None (a list's items), fixed to the arity."""
    if not builds:  # nothing to evaluate: one value serves every instance
        const = join() if join else ()
        return lambda env, vals: const
    if len(builds) == 1:
        (only,) = builds

        def build(env, vals):
            arg = only(env, vals)
            if type(arg) is not kind:
                raise ReductionError("ill-typed")  # levels() gets stuck, rejects or leaves it
            return join(arg) if join else (arg,)
    elif len(builds) == 2:
        first, second = builds

        def build(env, vals):
            left, right = first(env, vals), second(env, vals)
            if type(left) is not kind or type(right) is not kind:
                raise ReductionError("ill-typed")
            return join(left, right) if join else (left, right)
    else:
        def build(env, vals):
            args = tuple([make(env, vals) for make in builds])
            for arg in args:
                if type(arg) is not kind:
                    raise ReductionError("ill-typed")
            return join(*args) if join else args
    return build


def _big_step(expr: Expr, programs, fuel: int | None):
    """(normal form, levels) of the levels() run from a call on values, by
    eval/apply on an explicit stack.  A call fires one level after its
    matched argument is normal.  None past fuel levels (None: _budget's
    default, sized only once a level reaches 4, the least it can be), and
    where only levels() can tell what happens: an error, a stuck part, or a
    call that fires while another argument is pending, which levels()
    substitutes unevaluated."""
    if not (isinstance(expr, Call) and expr.args
            and all(isinstance(a, Value) for a in expr.args)):
        return None
    limit = 4 if fuel is None else _budget(expr, fuel)
    # the body being evaluated: its calls and build, its environment and the
    # level it appeared at, and the values and levels of its calls so far
    terms = [lambda env, vals, a=a: a.term for a in expr.args]
    calls, build = ((expr.fn, terms[0], tuple(terms[1:]), 0, (), ()),), lambda env, vals: vals[0]
    env, t, vals, ready_at, stack = (), 0, [], [], []
    try:
        while True:
            if len(vals) < len(calls):
                fn, first, rest, k, w, others = calls[len(vals)]
                term = first(env, vals)
                ready = max([t + k] + [ready_at[j] for j in w]) if w else t + k
                if others and any(max([t + ok] + [ready_at[j] for j in ow]) > ready
                                  for ok, ow in others):
                    return None  # levels() would substitute an argument still pending
                prog = programs.get(fn)
                entry = prog.compiled.get(term.constructor) if type(term) is Term and prog else None
                body = entry[4] if entry else None
                if body is None or entry[0] != (len(term.payloads), len(term.children),
                                                len(rest) + 1):
                    return None
                if ready >= limit:
                    if fuel is None:  # a default budget counted past twice the level
                        limit = _budget(expr, None, 2 * ready)
                    if ready >= limit:
                        return None
                body_env = term.payloads + term.children
                if rest:
                    body_env += tuple([make(env, vals) for make in rest])
                if body[0]:
                    stack.append((calls, build, env, t, vals, ready_at))
                    calls, build = body[0], body[1]
                    env, t, vals, ready_at = body_env, ready + 1, [], []
                else:  # a body without calls is normal as it appears, or c levels later
                    vals.append(body[1](body_env, ()))
                    ready_at.append(ready + 1 + body[2])
            else:
                # normal with its latest call: a call inside an argument
                # fires before the call it is in, and every call ends a level
                # or more after the body appeared, as late as c can make it
                value, level = build(env, vals), max(ready_at)
                if not stack:
                    break
                calls, build, env, t, vals, ready_at = stack.pop()
                vals.append(value)
                ready_at.append(level)
    except ReductionError:  # only levels() tells what happens
        return None
    if level > limit and fuel is None:
        limit = _budget(expr, None, level)
    if level > limit or type(value) not in (Term, tuple):
        return None
    return (Value(value) if type(value) is Term else ListLit(value)), level


def _collapse_ctor(expr: Ctor) -> Expr:
    # bookkeeping, not a reduction step: fold a constructor over values
    # back into a plain term
    if all(isinstance(a, Value) for a in expr.args):
        return Value(Term(expr.name, expr.payloads, tuple(a.term for a in expr.args)))
    return expr


def _apply_clause(prog: Program, args: tuple[Expr, ...]):
    """The instance of the clause args[0] matches, its rule name, and the
    programs the instance calls."""
    term = args[0].term
    if term.constructor not in prog.compiled:
        raise ReductionError(f"{prog.name} has no clause for {term.constructor!r}")
    want, build, rule, fns, _ = prog.compiled[term.constructor]
    got = len(term.payloads), len(term.children), len(args)
    if got != want:
        raise ReductionError(f"{prog.name} on {term.constructor!r} takes "
                             f"(payloads, children, arguments) {want}, got {got}")
    return build(term.payloads + term.children + args[1:]), rule, fns


def _make_builtins() -> dict[str, Program]:
    s = Program(
        "s",
        ("b",),
        BIN_POS,
        (
            Clause(ONE, (), Value(Term(X0, children=(Term(ONE),)))),
            Clause(X0, ("b",), Ctor(X1, (), (Var("b"),))),
            Clause(X1, ("b",), Ctor(X0, (), (Call("s", (Var("b"),)),))),
        ),
    )
    add = Program(
        "add",
        ("n", "m"),
        PEANO,
        (
            Clause("I", (), Ctor("S", (), (Var("m"),))),
            Clause("S", ("p",), Ctor("S", (), (Call("add", (Var("p"), Var("m"))),))),
        ),
    )
    inorder = Program(
        "inorder",
        ("t",),
        CHAR_TREE,
        (
            Clause("Leaf", (), ListLit(())),
            Clause(
                "Branch",
                ("v", "l", "r"),
                Concat(
                    Concat(Call("inorder", (Var("l"),)), ListLit((Var("v"),))),
                    Call("inorder", (Var("r"),)),
                ),
            ),
        ),
    )
    preorder = Program(
        "preorder",
        ("t",),
        CHAR_TREE,
        (
            Clause("Leaf", (), ListLit(())),
            Clause(
                "Branch",
                ("v", "l", "r"),
                Concat(
                    Concat(ListLit((Var("v"),)), Call("preorder", (Var("l"),))),
                    Call("preorder", (Var("r"),)),
                ),
            ),
        ),
    )
    return {p.name: p for p in (s, add, inorder, preorder)}


_BUILTINS = _make_builtins()


def builtin_programs() -> dict[str, Program]:
    return dict(_BUILTINS)


def program_call(program: Program, inputs) -> Call:
    """program applied to its inputs, one token sequence per parameter;
    trees read in their serialized form, other types in constructor order."""
    if len(inputs) != len(program.params):
        raise ReductionError(
            f"{program.name} takes {len(program.params)} input(s), got {len(inputs)}")
    return Call(program.name, tuple(
        Value(tree_parse(toks) if program.arg_type is CHAR_TREE
              else delinearize(toks, program.arg_type)) for toks in inputs))


# ---------------------------------------------------------------------------
# stepping


@dataclass(frozen=True)
class ReductionStep:
    before: Expr
    after: Expr
    paths: tuple[tuple[int, ...], ...]
    rules: tuple[str, ...]


class Trace:
    """A run of levels to normal form.  Its initial and final states and its
    length are known when it is made; its steps are taken by levels() the
    first time they are read, and kept."""

    __slots__ = ("initial", "final", "_length", "_programs", "_steps")

    def __init__(self, initial: Expr, final: Expr, length: int, programs) -> None:
        self.initial, self.final, self._length = initial, final, length
        self._programs, self._steps = programs, None

    @property
    def steps(self) -> tuple[ReductionStep, ...]:
        if self._steps is None:
            self._steps = tuple(_steps(self.initial, levels(self.initial, self._programs)))
        return self._steps

    def states(self) -> list[Expr]:
        return [self.initial] + [s.after for s in self.steps]

    def __len__(self) -> int:
        return self._length


class _Engine:
    """Call-by-value reduction, one pass over the pending part per step.

    The state is the chain of unary constructors already emitted (prefix)
    over the part still pending (body).  A step walks the body once, in
    post-order: it fires each outermost redex it meets and rebuilds only
    the nodes whose children changed, folding what that completes: a
    constructor over values becomes a value and, within a level, a concat
    of two lists flattens.  A level rewrites every outermost redex; a
    single step stops after the first (leftmost-outermost) one, so it
    rebuilds only that redex's ancestors."""

    def __init__(self, expr: Expr, programs, single: bool):
        self.programs, self.single = programs, single
        stack = [expr]  # the input's one check; an instance is checked as it is built
        while stack:
            e = stack.pop()
            if isinstance(e, Var):
                raise ReductionError("unbound template variable in a runtime expression")
            if isinstance(e, Call) and e.fn not in programs:
                raise ReductionError(f"unknown program: {e.fn!r}")
            stack += (e.left, e.right) if isinstance(e, Concat) else getattr(e, "args", ())
        self.prefix: list[str] = []
        self.base: tuple[int, ...] = ()  # path of body
        self.body = expr
        self._absorb()

    def _absorb(self) -> None:
        # a unary constructor over a part still pending is output for good
        body = self.body
        while (isinstance(body, Ctor) and not body.payloads and len(body.args) == 1
               and isinstance(body.args[0], (Call, Ctor, Concat))):
            self.prefix.append(body.name)
            body = body.args[0]
            self.base += (0,)
        self.body = body

    def expr(self) -> Expr:
        expr = self.body
        if isinstance(expr, Value) and self.prefix:  # the prefix folds into the value
            term = expr.term
            for name in reversed(self.prefix):
                term = Term(name, (), (term,))
            return Value(term)
        for name in reversed(self.prefix):
            expr = Ctor(name, (), (expr,))
        return expr

    def step(self) -> bool:
        """Take one step; False once the state is normal."""
        programs, single, base = self.programs, self.single, self.base
        recs: list = []  # (path, rule) of each rewrite, in order
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
                    recs.append((base + tuple(path), "++"))
                    node = ListLit(left.items + right.items)
                else:
                    frames.append([node, (left, right), None])
                    path.append(0)
                    node = left
                    continue
            elif cls is Call and node.args[0].__class__ is Value:
                node, rule, fns = _apply_clause(programs[node.fn], node.args)
                for fn in fns:
                    if fn not in programs:
                        raise ReductionError(f"unknown program: {fn!r}")
                recs.append((base + tuple(path), rule))
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
                    node = _collapse_ctor(Ctor(parent.name, parent.payloads, tuple(new)))
                elif parent.__class__ is Call:
                    node = Call(parent.fn, tuple(new))
                elif single or not new[0].__class__ is new[1].__class__ is ListLit:
                    node = Concat(*new)
                else:  # a level flattens each concat of two lists it completes
                    recs.append((base + tuple(path), "++"))
                    node = ListLit(new[0].items + new[1].items)
            else:
                break
        if not recs:
            if is_normal(node):
                return False
            raise ReductionError("expression is stuck: nothing to rewrite")
        self.body = node
        self._absorb()
        self.paths, self.rules = zip(*recs)
        return True

    def render(self, style: str) -> list[str]:
        """The state in a trace style; the paren form starts from the
        emitted prefix instead of walking it."""
        if style == PAREN and not isinstance(self.body, Ctor):
            return _paren_form(self.prefix, self.body, linearize)
        return (render_state_paren if style == PAREN else render_state_unroll)(self.expr())


def levels(expr: Expr, programs: dict[str, Program] | None = None, single: bool = False):
    """Reduce expr step by step until it is normal.  A step is a level,
    which rewrites every outermost redex at once, or with single one
    leftmost-outermost rewrite.  Yields the running engine after each
    step: its paths and rules describe the step, and expr() and render()
    give the state reached."""
    engine = _Engine(expr, _BUILTINS if programs is None else programs, single)
    while engine.step():
        yield engine


def _steps(expr: Expr, engines):
    """The steps that the engines of a levels() run over expr take."""
    before = expr
    for engine in engines:
        after = engine.expr()
        yield ReductionStep(before, after, engine.paths, engine.rules)
        before = after


def step_level(expr: Expr, programs: dict[str, Program] | None = None):
    """Rewrite every outermost redex at once; None when expr is normal."""
    return next(((step.after, step) for step in _steps(expr, levels(expr, programs))), None)


def step_single(expr: Expr, programs: dict[str, Program] | None = None):
    """Rewrite the leftmost-outermost redex; None when expr is normal."""
    return next(((step.after, step) for step in _steps(expr, levels(expr, programs, True))), None)


def _budget(expr: Expr, fuel: int | None, past: float = math.inf) -> int:
    """The level budget: fuel, or by default one that scales with the input
    size, counted only until it passes past."""
    if fuel is None:
        return max(4, 2 * _token_count(expr, past / 2 + 1))
    if fuel < 1:
        raise ValueError("fuel must be at least 1")
    return fuel


def reduce(expr: Expr, programs: dict[str, Program] | None = None, fuel: int | None = None):
    """Reduce expr to normal form within fuel levels (by default a budget
    that grows with the input); returns (normal form, trace).  Big-step gives
    the normal form and the trace's length; the trace steps when its steps
    are first read.  Where only levels() can tell what happens, it runs here
    under the budget, so its errors and FuelExhaustedError come from here."""
    programs = _BUILTINS if programs is None else programs
    found = _big_step(expr, programs, fuel)
    if found is None:
        fuel, taken, engine = _budget(expr, fuel), 0, None
        for taken, engine in enumerate(levels(expr, programs), start=1):
            if taken > fuel:
                raise FuelExhaustedError(f"no normal form within {fuel} levels")
        found = (expr if engine is None else engine.expr()), taken
    return found[0], Trace(expr, *found, programs)


def reduce_k(expr: Expr, k: int, programs: dict[str, Program] | None = None):
    """Apply at most k levels; returns (expr, levels actually taken)."""
    if k < 0:
        raise ValueError("k must be non-negative")
    taken = 0
    for taken, engine in zip(range(1, k + 1), levels(expr, programs)):
        pass  # zip stops after k levels, or at the normal form
    return (engine.expr() if taken else expr), taken


def recursion_depth(term: Term | tuple[Term, ...], program: str = "s",
                    programs: dict[str, Program] | None = None) -> int:
    """Levels to reach the normal form of program applied to term, unbudgeted."""
    args = (term,) if isinstance(term, Term) else tuple(term)
    return len(reduce(Call(program, tuple(Value(t) for t in args)), programs, math.inf)[1])


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
    return _paren_form(prefix, cur, linearize)


def _paren_form(prefix: list[str], cur: Expr, tokens) -> list[str]:
    if isinstance(cur, Value):
        return prefix + tokens(cur.term)
    if isinstance(cur, Call):
        inner: list[str] = []
        for arg in cur.args:
            if not isinstance(arg, Value):
                raise RenderError("pending call arguments must be values")
            inner.extend(tokens(arg.term))
        return prefix + [LPAR] + inner + [RPAR]
    raise RenderError(f"paren form cannot render {type(cur).__name__} states")


def parse_state_paren(tokens, program: Program) -> Expr:
    """Inverse of render_state_paren for one program."""
    toks = normalize_tokens(tokens)
    if not toks:
        raise ReductionError("empty state")
    if LPAR not in toks:
        if RPAR in toks:
            raise ReductionError("unbalanced parens")
        return Value(delinearize(toks, program.arg_type))
    open_i = toks.index(LPAR)
    if toks[-1] != RPAR or toks.count(LPAR) != 1 or toks.count(RPAR) != 1:
        raise ReductionError("state must contain exactly one trailing paren group")
    prefix, inner = toks[:open_i], toks[open_i + 1 : -1]
    if not inner:
        raise ReductionError("empty paren group")
    args: list[Expr] = []
    for _ in program.params:  # one term per parameter
        term, used = delinearize(inner, program.arg_type, prefix=True)
        args.append(Value(term))
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
        elif e.args[0].__class__ is not Value:
            raise RenderError("pending call argument must be a value")
        elif e.args[0].term.constructor == "Leaf":
            out.append(EMPTY_TOKEN)
        else:
            out.append(UNROLL_OPEN)
            out += tree_serialize(e.args[0].term)
            out.append(UNROLL_CLOSE)
    return out


def parse_state_unroll(tokens, program: Program) -> Expr:
    """Inverse of render_state_unroll for one traversal program."""
    toks = normalize_tokens(tokens)
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
            items.append(Call(program.name, (Value(Term("Leaf")),)))
            pos += 1
        elif tok == UNROLL_OPEN:
            flush()
            try:
                close = toks.index(UNROLL_CLOSE, pos + 1)
            except ValueError:
                raise ReductionError("unterminated UNROLL group") from None
            tree = tree_parse(toks[pos + 1 : close])
            items.append(Call(program.name, (Value(tree),)))
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


PAREN = "paren"
ARROW = "arrow"


def render_trace(trace: Trace, style: str) -> str:
    """Join trace states with ' = ' (paren style) or ' -> ' (arrow style)."""
    if style not in (PAREN, ARROW):
        raise RenderError(f"unknown trace style: {style!r}")
    render = render_state_paren if style == PAREN else render_state_unroll
    return (" = " if style == PAREN else " -> ").join(" ".join(render(s)) for s in trace.states())
