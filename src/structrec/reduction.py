"""Small-step execution of structurally recursive programs.

A program is an ordered set of pattern-match clauses over one inductive
argument.  One step bundles unfolding the definition, applying it, and
selecting the matching clause.  Two stepping modes are provided: a
single leftmost-outermost rewrite, and a whole-frontier "level" that
rewrites every outermost redex simultaneously.

Two intermediate-state surface forms are supported: the paren form for
linear programs (emitted prefix, then the pending argument in parens)
and the flat traversal form where a pending call on a subtree renders
as UNROLL[ ... ], a pending call on a leaf renders as EMPTY, and
emitted values render bare.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Value:
    """A fully reduced constructor term."""

    term: Term


@dataclass(frozen=True)
class Ctor:
    """A constructor applied to not-yet-reduced arguments."""

    name: str
    payloads: tuple[str, ...]
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class Call:
    """A pending program call; the first argument is the matched one."""

    fn: str
    args: tuple["Expr", ...]


@dataclass(frozen=True)
class ListLit:
    """A literal list of output tokens (template slots may hold a Var)."""

    items: tuple


@dataclass(frozen=True)
class Concat:
    left: "Expr"
    right: "Expr"


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
    total = 0
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Value):
            total += len(linearize(e.term))
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
        # per constructor: binders, the function filling in the template, rule
        # name and static redex paths; not a field, so eq and repr ignore it
        object.__setattr__(self, "compiled", {})
        for clause in self.clauses:
            cdef = self.arg_type.constructor(clause.constructor)
            n_pay = len(cdef.payload_kinds)
            if len(clause.binders) != n_pay + cdef.recursive_arity:
                raise ValueError(f"{self.name}.{clause.constructor} needs "
                                 f"{n_pay + cdef.recursive_arity} binders")
            children = clause.binders[n_pay:]
            redexes: list = []
            build = _compile(clause.template, self.name, set(children), (), redexes)
            self.compiled[clause.constructor] = (
                clause.binders[:n_pay], children, build, f"{self.name}/{clause.constructor}",
                None if None in redexes else tuple(redexes))


# ---------------------------------------------------------------------------
# substitution and local normalization


def _compile(template: Expr, name: str, child_binders: set[str], path: tuple = (),
             redexes: list | None = None):
    """A function from binder values to the instance of template.  Appends
    to redexes the paths of the outermost redexes every instance has, or
    None where they depend on what a parameter is bound to.  Recursive
    calls may only be applied to a child of the matched term."""
    if isinstance(template, Var):
        if redexes is not None and template.name not in child_binders:
            redexes.append(None)
        var = template.name
        return lambda env: env[var]
    if isinstance(template, ListLit):
        if not any(isinstance(it, Var) for it in template.items):
            return lambda env: template

        def fill(env):
            items = []
            for it in template.items:
                if isinstance(it, Var):
                    bound = env[it.name]
                    if not isinstance(bound, str):
                        raise ReductionError(f"list slot {it.name!r} is not a payload")
                    items.append(bound)
                else:
                    items.append(it)
            return ListLit(tuple(items))

        return fill
    if isinstance(template, Call):
        first = template.args[0]
        on_child = isinstance(first, Var) and first.name in child_binders
        if template.fn == name and not on_child:
            raise ValueError(f"{name}: recursion is not structurally decreasing")
        if redexes is not None and (on_child or isinstance(first, (Value, Ctor))):
            # a constructor may fold into a value, so only a scan can tell
            redexes.append(path if on_child or isinstance(first, Value) else None)
            redexes = None
    elif (isinstance(template, Concat) and redexes is not None
          and isinstance(template.left, ListLit) and isinstance(template.right, ListLit)):
        redexes.append(path)
    if isinstance(template, (Ctor, Call)):
        parts = [_compile(a, name, child_binders, path + (i,), redexes)
                 for i, a in enumerate(template.args)]
        if isinstance(template, Call):
            fn = template.fn
            return lambda env: Call(fn, tuple([p(env) for p in parts]))
        ctor, payloads = template.name, template.payloads
        return lambda env: _collapse_ctor(Ctor(ctor, payloads, tuple([p(env) for p in parts])))
    if isinstance(template, Concat):
        left = _compile(template.left, name, child_binders, path + (0,), redexes)
        right = _compile(template.right, name, child_binders, path + (1,), redexes)
        return lambda env: Concat(left(env), right(env))
    return lambda env: template


def _collapse_ctor(expr: Ctor) -> Expr:
    # bookkeeping, not a reduction step: fold a constructor over values
    # back into a plain term
    if all(isinstance(a, Value) for a in expr.args):
        return Value(Term(expr.name, expr.payloads, tuple(a.term for a in expr.args)))
    return expr


def _apply_clause(prog: Program, args: tuple[Expr, ...]):
    """The instance of the clause args[0] matches, its rule name, and the
    paths of the redexes inside it when every instance has the same."""
    term = args[0].term
    if term.constructor not in prog.compiled:
        raise ReductionError(f"{prog.name} has no clause for {term.constructor!r}")
    payload_binders, child_binders, build, rule, redexes = prog.compiled[term.constructor]
    env: dict = dict(zip(payload_binders, term.payloads))  # payloads bind to raw tokens
    env.update(zip(child_binders, [Value(child) for child in term.children]))
    env.update(zip(prog.params[1:], args[1:]))
    return build(env), rule, redexes


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


@dataclass(frozen=True)
class Trace:
    initial: Expr
    steps: tuple[ReductionStep, ...]

    @property
    def final(self) -> Expr:
        return self.steps[-1].after if self.steps else self.initial

    def states(self) -> list[Expr]:
        return [self.initial] + [s.after for s in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


class _Engine:
    """Call-by-value reduction that keeps its frontier between steps.

    The state is the chain of unary constructors already emitted (prefix)
    over the part still pending (body).  The frontier holds the paths of
    the outermost redexes in traversal order.  A step rebuilds only the
    spines that lead to the redexes it rewrites and looks for new redexes
    only inside their results and on those spines, so its cost follows the
    redexes, not the size of the state.  A single step rewrites the first
    redex (leftmost-outermost); a level rewrites all of them at once and
    flattens, within the level, every concat of two lists it completes."""

    def __init__(self, expr: Expr, programs, single: bool):
        self.programs, self.single = programs, single
        self.prefix: list[str] = []
        self.base: tuple[int, ...] = ()  # path of body
        self.body = expr
        self.frontier: list[tuple[int, ...]] = []
        self._scan(expr, (), self.frontier)
        self._absorb()

    def _scan(self, expr: Expr, path: tuple, found: list) -> None:
        """Append the paths of the outermost redexes in expr, in order."""
        stack = [(expr, path)]
        while stack:
            e, p = stack.pop()
            if isinstance(e, Call):
                if e.fn not in self.programs:
                    raise ReductionError(f"unknown program: {e.fn!r}")
                if isinstance(e.args[0], Value):
                    found.append(p)
                    continue
                kids = e.args
            elif isinstance(e, Ctor):
                kids = e.args
            elif isinstance(e, Concat):
                if isinstance(e.left, ListLit) and isinstance(e.right, ListLit):
                    found.append(p)
                    continue
                kids = (e.left, e.right)
            else:
                if isinstance(e, Var) and not self.single:
                    raise ReductionError("unbound template variable in a runtime expression")
                continue
            for j in range(len(kids) - 1, -1, -1):
                stack.append((kids[j], p + (j,)))

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

    def _fire(self, e: Expr, path: tuple, recs: list, found: list) -> Expr:
        if isinstance(e, Call):
            new, rule, redexes = _apply_clause(self.programs[e.fn], e.args)
        else:
            new, rule, redexes = ListLit(e.left.items + e.right.items), "++", ()
        recs.append((path, rule))
        if redexes is None:
            self._scan(new, path, found)
        else:
            found += [path + rel for rel in redexes]
        return new

    def _close_top(self, spine: list, path: tuple, recs: list, found: list) -> None:
        """Rebuild the deepest spine node, folding what it completes: a
        concat of two lists flattens (a level) or becomes a redex (a single
        step), a constructor over values becomes a value, and a call whose
        matched argument became a value becomes a redex."""
        e, mark, *args = spine.pop()
        depth = len(self.base) + len(spine)
        if isinstance(e, Concat):
            left, right = args
            new = Concat(left, right)
            woke = isinstance(left, ListLit) and isinstance(right, ListLit)
            if woke and not self.single:
                recs.append((path[:depth], "++"))
                new, woke = ListLit(left.items + right.items), False
        elif isinstance(e, Ctor):
            new = _collapse_ctor(Ctor(e.name, e.payloads, tuple(args)))
            woke = False
        else:
            new = Call(e.fn, tuple(args))
            woke = isinstance(args[0], Value)
        if woke:
            # it is outermost now, so it replaces the redexes found inside
            del found[mark:]
            found.append(path[:depth])
        if spine:
            spine[-1][2 + path[depth - 1]] = new
        else:
            self.body = new

    def step(self) -> bool:
        """Take one step; False once the state is normal."""
        if not self.frontier:
            if is_normal(self.expr()):
                return False
            raise ReductionError("expression is stuck: nothing to rewrite")
        targets = self.frontier[:1] if self.single else self.frontier
        recs: list = []  # (path, rule) of each rewrite, in order
        found: list = []  # the next frontier
        d0 = len(self.base)
        # the ancestors of the current target, as [expr, frontier mark, new
        # args...]; entry k sits at depth d0 + k on the path of the target
        spine: list = []
        prev = self.base
        for target in targets:
            shared = d0
            while shared < len(prev) and prev[shared] == target[shared]:
                shared += 1
            while len(spine) > shared - d0 + 1:
                self._close_top(spine, prev, recs, found)
            depth = d0 + len(spine)
            while depth < len(target):
                node = spine[-1][2 + target[depth - 1]] if spine else self.body
                kids = (node.left, node.right) if isinstance(node, Concat) else node.args
                spine.append([node, len(found), *kids])
                depth += 1
            if spine:
                i = 2 + target[-1]
                spine[-1][i] = self._fire(spine[-1][i], target, recs, found)
            else:
                self.body = self._fire(self.body, target, recs, found)
            prev = target
        while spine:
            self._close_top(spine, prev, recs, found)
        if self.single:
            rest = self.frontier[1:]
            if found and len(found[-1]) < len(targets[0]):
                woke = found[-1]
                rest = [p for p in rest if p[: len(woke)] != woke]
            found += rest
        self.frontier = found
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


def _steps(expr: Expr, programs, single: bool):
    before = expr
    for engine in levels(expr, programs, single):
        after = engine.expr()
        yield ReductionStep(before, after, engine.paths, engine.rules)
        before = after


def step_level(expr: Expr, programs: dict[str, Program] | None = None):
    """Rewrite every outermost redex at once; None when expr is normal."""
    return next(((step.after, step) for step in _steps(expr, programs, False)), None)


def step_single(expr: Expr, programs: dict[str, Program] | None = None):
    """Rewrite the leftmost-outermost redex; None when expr is normal."""
    return next(((step.after, step) for step in _steps(expr, programs, True)), None)


def reduce(expr: Expr, programs: dict[str, Program] | None = None, fuel: int | None = None):
    """Run levels to normal form; returns (normal form, trace)."""
    if fuel is None:
        fuel = max(4, 2 * expr_token_count(expr))
    elif fuel < 1:
        raise ValueError("fuel must be at least 1")
    steps: list[ReductionStep] = []
    for step in _steps(expr, programs, False):
        if len(steps) >= fuel:
            raise FuelExhaustedError(f"no normal form within {fuel} levels")
        steps.append(step)
    trace = Trace(initial=expr, steps=tuple(steps))
    return trace.final, trace


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
    """Number of levels to reach the normal form of program applied to term."""
    args = (term,) if isinstance(term, Term) else tuple(term)
    return sum(1 for _ in levels(Call(program, tuple(Value(t) for t in args)), programs))


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
        if isinstance(e, Concat):
            stack += (e.right, e.left)
        elif isinstance(e, ListLit):
            out.extend(e.items)
        elif isinstance(e, Call):
            arg = e.args[0]
            if not isinstance(arg, Value):
                raise RenderError("pending call argument must be a value")
            if arg.term.constructor == "Leaf":
                out.append(EMPTY_TOKEN)
            else:
                out.append(UNROLL_OPEN)
                out.extend(tree_serialize(arg.term))
                out.append(UNROLL_CLOSE)
        else:
            raise RenderError(f"traversal form cannot render {type(e).__name__} states")
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
