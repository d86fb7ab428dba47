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
reference both are held to.

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
    return _over(expr, (Term, ListLit))


def _over(expr: Expr, leaves: tuple) -> bool:
    """expr is constructors over leaves, each of a class in leaves."""
    stack = [expr]
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
        expected = [c.name for c in self.arg_type.constructors]
        if sorted(covered) != sorted(expected):
            raise ValueError(
                f"{self.name} must cover each constructor of {self.arg_type.name} "
                f"exactly once, got {covered}"
            )
        # per constructor: the payloads, children and arguments it takes, the
        # template and its variables' slots in the environment (payloads,
        # children, then the other arguments, by position), the rule name,
        # the programs the instance calls, and big-step code (its calls,
        # build and c, and its render code per trace style).  Not a field,
        # so eq and repr ignore it
        object.__setattr__(self, "compiled", {})
        for clause in self.clauses:
            cdef = self.arg_type.constructor(clause.constructor)
            n_pay = len(cdef.payload_kinds)
            if len(clause.binders) != n_pay + cdef.recursive_arity:
                raise ValueError(f"{self.name}.{clause.constructor} needs "
                                 f"{n_pay + cdef.recursive_arity} binders")
            slots = {b: i for i, b in enumerate(clause.binders + self.params[1:])}
            kids = range(n_pay, n_pay + cdef.recursive_arity)
            fns: set = set()
            stack = [clause.template]
            while stack:
                e = stack.pop()
                if isinstance(e, Call):
                    if not e.args:
                        raise ValueError(f"{self.name}.{clause.constructor}: "
                                         f"call of {e.fn!r} has no arguments")
                    # recursive calls may only be applied to a child of the matched term
                    first = e.args[0]
                    if e.fn == self.name and not (isinstance(first, Var)
                                                  and slots.get(first.name) in kids):
                        raise ValueError(f"{self.name}: recursion is not structurally decreasing")
                    fns.add(e.fn)
                stack += reversed((e.left, e.right) if isinstance(e, Concat)
                                  else getattr(e, "args", ()))
            calls: list = []
            try:
                build_big, c, _ = _compile_big(clause.template, slots, calls)
                big = (calls, build_big, c, {style: _render_code(
                    clause.template, slots, style, range(n_pay))[0] for style in _STYLES})
            except (KeyError, ReductionError):  # an unbound variable, or not an expression
                big = None
            self.compiled[clause.constructor] = (
                (n_pay, cdef.recursive_arity, len(self.params)), clause.template, slots,
                f"{self.name}/{clause.constructor}", tuple(fns), big)


# ---------------------------------------------------------------------------
# substitution and local normalization


def _instance(template: Expr, slots: dict, env: tuple) -> Expr:
    """The instance of template in env (payloads, children, then the other
    arguments, as slots numbers them)."""
    cls = template.__class__
    if cls is Var:
        slot = slots.get(template.name)
        if slot is None:
            raise ReductionError(f"unbound template variable {template.name!r}")
        return env[slot]
    if cls is ListLit and Var in map(type, template.items):
        items = []
        for item in template.items:
            if item.__class__ is Var:
                slot = slots.get(item.name)
                if slot is None or not isinstance(env[slot], str):
                    raise ReductionError(f"list slot {item.name!r} is not a payload")
                item = env[slot]
            items.append(item)
        return ListLit(tuple(items))
    if cls is Concat:
        return Concat(_instance(template.left, slots, env), _instance(template.right, slots, env))
    if cls is not Call and cls is not Ctor:
        return template
    args = tuple([_instance(arg, slots, env) for arg in template.args])
    return Call(template.fn, args) if cls is Call else _collapse_ctor(
        template.name, template.payloads, args)


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
    if isinstance(template, (Term, str)):  # a term, or a token in a list
        return (lambda env, vals: template), 0, ()
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


def _render_code(expr: Expr, slots: dict, style: str, payloads: range = range(0)):
    """(code, calls): the tokens in which style renders expr, a template or
    a state, in order, where (slot,) stands for a bound variable's tokens
    and i for the state of its i-th call, and its calls in that order (the
    order _compile_big numbers them in).  Slots in payloads hold a payload,
    the others a term.  (None, None) where the style cannot render expr
    from a cut alone: a call on a pending argument, a list item that is no
    token, and what render_state_paren or render_state_unroll rejects."""
    code: list = []
    calls: list = []
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Call):
            if not all(_over(arg, (Var, Term)) for arg in e.args):
                return None, None
            code.append(len(calls))
            calls.append(e)
        elif style == ARROW:
            if isinstance(e, Concat):
                stack += (e.right, e.left)
            elif isinstance(e, ListLit):
                for it in e.items:
                    if isinstance(it, Var) and slots[it.name] in payloads:
                        code.append((slots[it.name],))
                    elif isinstance(it, str):
                        code.append(it)
                    else:
                        return None, None
            else:
                return None, None
        elif isinstance(e, Var) and slots[e.name] not in payloads:
            code.append((slots[e.name],))
        elif isinstance(e, Term):
            code += linearize(e)
        elif isinstance(e, Ctor) and (len(e.args) == 1 and not e.payloads
                                      or all(_over(arg, (Var, Term)) for arg in e.args)):
            # a link of the emitted prefix, or a value: the constructor, its
            # payloads, then its arguments, as linearize writes a term
            code.append(e.name)
            code += e.payloads
            stack += reversed(e.args)
        else:
            return None, None
    return tuple(code), calls


def _big_step(expr: Expr, programs, fuel: int | None, style: str | None = None):
    """(normal form, levels) of the levels() run from a call on values, by
    eval/apply on an explicit stack.  A call fires one level after its
    matched argument is normal.  None past the larger of fuel and _budget's
    default (sized only once a level reaches 4, the least it can be), and
    where only levels() can tell what happens: an error, a stuck part, or a
    call that fires while another argument is pending, which levels()
    substitutes unevaluated.  A run that completes past an explicit fuel
    raises FuelExhaustedError: it is the levels() run, so no error of
    levels() comes before the level past the fuel.

    With a trace style, instead (levels, code, calls) of the run from any
    state that style renders, each of its calls on values starting at level
    0, and no value: the state's render code and calls (see _render_code),
    each call recorded as it fires as (the level it fires in, its matched
    term, the environment and render code of its clause instance, the
    calls the instance makes).  None also where style cannot render a
    clause instance from the cut."""
    code, starts, kids = None, [expr], None
    if style is not None:
        try:
            code, starts = _render_code(expr, {}, style)
        except KeyError:  # a variable in a runtime expression
            return None
        if code is None:
            return None
        if not starts:  # normal, or lists to join in one level
            return int(isinstance(expr, Concat)), code, []
        kids = []
    calls = []
    for call in starts:  # each a call on values
        if not (isinstance(call, Call) and call.args
                and all(isinstance(a, Term) for a in call.args)):
            return None
        terms = [lambda env, vals, a=a: a for a in call.args]
        calls.append((call.fn, terms[0], tuple(terms[1:]), 0, (), ()))
    limit = 4 if fuel is None else max(4, _budget(expr, fuel))
    # the body being evaluated: its calls and build, its environment and the
    # level it appeared at, the values and levels of its calls so far, and
    # the records of its fired calls, kept instead of values
    build, root = (lambda env, vals: vals[0]), kids
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
                body = entry[5] if entry else None
                if body is None or entry[0] != (len(term.payloads), len(term.children),
                                                len(rest) + 1):
                    return None
                if ready >= limit:  # the default budget, counted past twice the level
                    limit = max(limit, _budget(expr, None, 2 * ready))
                    if ready >= limit:
                        return None
                body_env = term.payloads + term.children
                if rest:
                    body_env += tuple([make(env, vals) for make in rest])
                if kids is not None:
                    # the code's checks stand in for the build's: the calls
                    # and arguments here read no value
                    own = body[3][style]
                    if own is None:
                        return None
                    fired = (ready + 1, term, body_env, own, [])
                    kids.append(fired)
                    if body[0]:
                        stack.append((calls, build, env, t, vals, ready_at, kids))
                        calls, build, kids = body[0], lambda env, vals: None, fired[4]
                        env, t, vals, ready_at = body_env, ready + 1, [], []
                    else:
                        vals.append(None)
                        ready_at.append(ready + 1 + body[2])
                elif body[0]:
                    stack.append((calls, build, env, t, vals, ready_at, kids))
                    calls, build = body[0], body[1]
                    env, t, vals, ready_at = body_env, ready + 1, [], []
                else:  # a body without calls is normal as it appears, or c levels later
                    vals.append(body[1](body_env, ()))
                    ready_at.append(ready + 1 + body[2])
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
    if level > limit:
        limit = max(limit, _budget(expr, None, level))
    if level > limit or root is None and type(value) not in (Term, tuple):
        return None
    if fuel is not None and level > fuel:
        raise FuelExhaustedError(f"no normal form within {fuel} levels")
    if root is not None:
        return level, code, root
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
    built by one walk of the template (_instance); expr() folds the prefix
    back over the body as a step folds a constructor.  The engine is the
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
                want, template, slots, rule, fns, _ = prog.compiled[term.constructor]
                got = len(term.payloads), len(term.children), len(args)
                if got != want:
                    raise ReductionError(f"{prog.name} on {term.constructor!r} takes "
                                         f"(payloads, children, arguments) {want}, got {got}")
                node = _instance(template, slots, term.payloads + term.children + args[1:])
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


def _budget(expr: Expr, fuel: int | None, past: float = math.inf) -> int:
    """The level budget: fuel, or by default one that scales with the input
    size, counted only until it passes past."""
    if fuel is None:
        return max(4, 2 * _token_count(expr, past / 2 + 1))
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
