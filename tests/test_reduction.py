"""Reduction engine: levels, single steps, traces, renderings."""

import copy
import dataclasses
import itertools
import math
import pickle
import random

import pytest

from structrec import evaluation
from structrec.datasets import _TRACE_TASKS, record_rng, sample_tree
from structrec.errors import FuelExhaustedError, MalformedSequenceError, ReductionError, RenderError
from structrec.evaluation import validate_trace
from structrec.reduction import (
    ARROW,
    PAREN,
    Call,
    Clause,
    Concat,
    Ctor,
    ListLit,
    Program,
    Var,
    _big_step,
    _fueled_levels,
    _style_of,
    builtin_programs,
    is_normal,
    levels,
    parse_state_paren,
    parse_state_unroll,
    program_call,
    recursion_depth,
    reduce,
    render_state_paren,
    render_state_unroll,
    render_states,
    render_trace,
    step_level,
    step_single,
)
from structrec.terms import (
    BIN_POS,
    CHAR_TREE,
    ConstructorDef,
    InductiveDef,
    ONE,
    PEANO,
    X0,
    X1,
    Term,
    bin_encode,
    bin_value,
    bin_x1_run,
    branch,
    delinearize,
    leaf,
    linearize,
    peano_encode,
    peano_value,
    tokenize,
    tree_depth,
    tree_parse,
    tree_serialize,
)

CAT_TREE = branch("a", branch("c", leaf(), leaf()), branch("t", leaf(), leaf()))


def s_of(n):
    return Call("s", (bin_encode(n),))


def run(expr):
    return reduce(expr)


# ---------------------------------------------------------------------------
# successor


SUCCESSOR_PAIRS = [
    ("01", "X0 01"),
    ("X0 01", "X1 01"),
    ("X1 01", "X0 X0 01"),
    ("X0 X0 01", "X1 X0 01"),
    ("X1 X0 01", "X0 X1 01"),
    ("X0 X1 01", "X1 X1 01"),
]


@pytest.mark.parametrize("arg,expected", SUCCESSOR_PAIRS)
def test_successor_small_pairs(arg, expected):
    final, _ = run(Call("s", (delinearize(tokenize(arg), BIN_POS),)))
    assert isinstance(final, Term)
    assert linearize(final) == tokenize(expected)


def test_successor_is_plus_one_random():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 2**40)
        final, _ = run(s_of(n))
        assert bin_value(final) == n + 1


def test_successor_trace_eleven():
    assert run(s_of(11))[1] == 3
    assert render_trace(s_of(11), PAREN) == (
        "( X1 X1 X0 01 ) = X0 ( X1 X0 01 ) = X0 X0 ( X0 01 ) = X0 X0 X1 01"
    )


def test_successor_trace_five():
    assert render_trace(s_of(5), PAREN) == "( X1 X0 01 ) = X0 ( X0 01 ) = X0 X1 01"


def test_trace_level_count_is_x1_run_plus_one():
    for n in range(1, 2048):
        assert run(s_of(n))[1] == bin_x1_run(n) + 1


def _stepped(expr, programs=None):
    return sum(1 for _ in levels(expr, programs))


def test_recursion_depth_matches_trace_length():
    # recursion_depth and reduce's level count both come from big-step, so the depth
    # law is held to a count of the stepping engine's levels
    for n in range(1, 2048):
        assert recursion_depth(bin_encode(n)) == _stepped(s_of(n))
    rng = random.Random(11)
    for _ in range(40):
        tree = _tree_of_size(rng, rng.randint(0, 60))
        for kind in ("inorder", "preorder"):
            assert recursion_depth(tree, kind) == _stepped(Call(kind, (tree,)))
        args = (peano_encode(rng.randint(1, 40)), peano_encode(rng.randint(1, 40)))
        assert recursion_depth(args, "add") == _stepped(Call("add", args))


def test_reduce_takes_no_step_until_the_steps_are_read(monkeypatch):
    import structrec.reduction as reduction

    def no_levels(*args, **kwargs):
        raise AssertionError("levels() ran")

    monkeypatch.setattr(reduction, "levels", no_levels)
    for expr, tokens, length, style in [
        (s_of(11), ["X0", "X0", "X1", "01"], 3, PAREN),
        (Call("add", (peano_encode(2), peano_encode(1))), ["S", "S", "I"], 2,
         PAREN),
        (Call("inorder", (CAT_TREE,)), ["c", "a", "t"], 3, ARROW),
        (Call("preorder", (CAT_TREE,)), ["a", "c", "t"], 3, ARROW),
    ]:
        final, taken = reduce(expr)
        assert taken == length
        assert (linearize(final) if isinstance(final, Term) else list(final.items)) == tokens
        assert render_trace(expr, style).count(" = " if style == PAREN else " -> ") == length
    # the steps are levels()'s, which only runs when asked
    with pytest.raises(AssertionError, match="levels"):
        step_level(expr)


# ---------------------------------------------------------------------------
# addition


def test_add_two_plus_one():
    final, taken = run(Call("add", (peano_encode(2), peano_encode(1))))
    assert isinstance(final, Term)
    assert linearize(final) == ["S", "S", "I"]
    assert taken == 2


def test_add_commutes_on_values():
    rng = random.Random(6)
    for _ in range(50):
        a, b = rng.randint(1, 20), rng.randint(1, 20)
        fa, _ = run(Call("add", (peano_encode(a), peano_encode(b))))
        fb, _ = run(Call("add", (peano_encode(b), peano_encode(a))))
        assert peano_value(fa) == peano_value(fb) == a + b


# ---------------------------------------------------------------------------
# traversals


def test_inorder_cat():
    final, taken = run(Call("inorder", (CAT_TREE,)))
    assert final == ListLit(("c", "a", "t"))
    assert taken == 3


def test_preorder_cat():
    final, _ = run(Call("preorder", (CAT_TREE,)))
    assert final == ListLit(("a", "c", "t"))


def test_inorder_arrow_trace():
    assert render_trace(Call("inorder", (CAT_TREE,)), ARROW) == (
        "UNROLL[ a ( c LEAF LEAF ) ( t LEAF LEAF ) ] -> "
        "UNROLL[ c LEAF LEAF ] a UNROLL[ t LEAF LEAF ] -> "
        "EMPTY c EMPTY a EMPTY t EMPTY -> "
        "c a t"
    )


def test_inorder_leaf_is_empty_list():
    final, taken = run(Call("inorder", (leaf(),)))
    assert final == ListLit(())
    assert taken == 1


def _ref_inorder(tree):
    if tree.constructor == "Leaf":
        return []
    left, right = tree.children
    return _ref_inorder(left) + [tree.payloads[0]] + _ref_inorder(right)


def _ref_preorder(tree):
    if tree.constructor == "Leaf":
        return []
    left, right = tree.children
    return [tree.payloads[0]] + _ref_preorder(left) + _ref_preorder(right)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return leaf()
    return branch(rng.choice("abc"), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


@pytest.mark.parametrize("kind,ref", [("inorder", _ref_inorder), ("preorder", _ref_preorder)])
def test_traversals_match_reference(kind, ref):
    rng = random.Random(7)
    for _ in range(400):
        tree = _random_tree(rng, 6)
        final, _ = run(Call(kind, (tree,)))
        assert list(final.items) == ref(tree)


def test_traversal_level_count_is_depth_plus_one():
    # each level resolves one frontier of calls, plus a final flatten
    rng = random.Random(8)
    for _ in range(100):
        tree = branch(rng.choice("abc"), _random_tree(rng, 4), _random_tree(rng, 4))
        assert run(Call("inorder", (tree,)))[1] == tree_depth(tree) + 1


# ---------------------------------------------------------------------------
# stepping discipline


def test_step_level_expands_whole_frontier():
    expr = Call("inorder", (CAT_TREE,))
    one = step_level(expr)[0]
    # both children become calls at once
    two = step_level(one)[0]
    rendered = render_state_unroll(two)
    assert rendered == ["EMPTY", "c", "EMPTY", "a", "EMPTY", "t", "EMPTY"]


def test_step_single_is_leftmost_outermost():
    expr = Call("inorder", (CAT_TREE,))
    state = step_level(expr)[0]
    # two pending calls; a single step fires only the left one
    after, _ = step_single(state)
    rendered = render_state_unroll(after)
    assert rendered[:3] == ["EMPTY", "c", "EMPTY"]
    assert "UNROLL[" in rendered


def test_step_single_reaches_same_normal_form():
    rng = random.Random(9)
    for _ in range(100):
        n = rng.randint(1, 4096)
        by_level, _ = reduce(s_of(n))
        cur = s_of(n)
        for _ in range(10_000):
            nxt = step_single(cur)
            if nxt is None:
                break
            cur = nxt[0]
        assert cur == by_level


def test_step_on_normal_form_is_none():
    assert step_level(bin_encode(9)) is None
    assert step_single(ListLit(("a",))) is None


def test_is_normal():
    assert is_normal(bin_encode(3))
    assert is_normal(ListLit(("a", "b")))
    assert not is_normal(s_of(3))
    assert not is_normal(Concat(ListLit(()), ListLit(())))


def test_fuel_exhaustion():
    with pytest.raises(FuelExhaustedError):
        reduce(s_of(2**40 - 1), fuel=3)


def test_default_fuel_suffices_for_long_runs():
    final, _ = reduce(s_of(2**60 - 1))
    assert bin_value(final) == 2**60


# ---------------------------------------------------------------------------
# program hygiene


def test_programs_cover_all_constructors():
    with pytest.raises(ValueError):
        Program(
            name="half",
            params=("n",),
            arg_type=BIN_POS,
            clauses=(Clause("01", (), bin_encode(1)),),
        )


def test_programs_must_recurse_structurally():
    with pytest.raises(ValueError):
        Program(
            name="bad",
            params=("n",),
            arg_type=PEANO,
            clauses=(
                Clause("I", (), peano_encode(1)),
                # recursing on the whole argument, not the child binder
                Clause("S", ("p",), Call("bad", (Call("bad", (Var("q"),)),))),
            ),
        )


def test_a_program_needs_a_parameter_to_match_on():
    with pytest.raises(ValueError, match=r"^z takes no parameters: it needs one to match on$"):
        Program("z", (), PEANO, (Clause("I", (), ListLit(())),
                                 Clause("S", ("p",), Call("z", (Var("p"),)))))


def test_builtin_programs_present():
    programs = builtin_programs()
    assert set(programs) == {"s", "add", "inorder", "preorder"}


# ---------------------------------------------------------------------------
# state rendering round trips


def test_paren_round_trip():
    program = builtin_programs()["s"]
    expr = s_of(11)
    while expr is not None:
        toks = render_state_paren(expr if isinstance(expr, tuple) is False else expr)
        assert render_state_paren(parse_state_paren(toks, program)) == toks
        nxt = step_single(expr)
        expr = None if nxt is None else nxt[0]


def test_unroll_round_trip():
    program = builtin_programs()["inorder"]
    expr = Call("inorder", (CAT_TREE,))
    while expr is not None:
        toks = render_state_unroll(expr)
        assert render_state_unroll(parse_state_unroll(toks, program)) == toks
        nxt = step_level(expr)
        expr = None if nxt is None else nxt[0]


def test_parse_state_paren_rejects_garbage():
    program = builtin_programs()["s"]
    with pytest.raises(ReductionError):
        parse_state_paren(["X0", "(", "01"], program)
    with pytest.raises(ReductionError):
        parse_state_paren(["X0", "(", ")", "01"], program)


def test_each_renderer_refuses_the_states_of_the_other_form():
    walk = program_call(builtin_programs()["inorder"], [tree_serialize(CAT_TREE)])
    for state in (reduce(walk)[0], step_level(walk)[0]):  # a list, then a concat
        with pytest.raises(RenderError, match=rf"^paren form cannot render "
                                              rf"{type(state).__name__} states$"):
            render_state_paren(state)
    with pytest.raises(RenderError, match=r"^paren form cannot render Concat states$"):
        render_trace(walk, PAREN)
    with pytest.raises(RenderError, match=r"^traversal form cannot render \w+ states$"):
        render_state_unroll(reduce(s_of(5))[0])  # a value


def test_parse_state_paren_accepts_alias_spelling():
    program = builtin_programs()["s"]
    state = parse_state_paren(tokenize("XO ( X1 01 )"), program)
    assert render_state_paren(state) == ["X0", "(", "X1", "01", ")"]


# ---------------------------------------------------------------------------
# inputs far beyond Python's recursion limit


def test_hundred_thousand_token_successor_reduces_renders_and_replays():
    # a short X1 run keeps the trace at four levels, so its text stays small
    rng = random.Random(11)
    tokens = ["X1"] * 3 + ["X0"] + [rng.choice(("X0", "X1")) for _ in range(99_995)] + ["01"]
    term = delinearize(tokens, BIN_POS)
    final, taken = reduce(Call("s", (term,)))
    assert taken == 4
    assert bin_value(final) == bin_value(term) + 1
    text = render_trace(Call("s", (term,)), PAREN)
    assert text.split(" = ")[-1].split() == ["X0"] * 3 + ["X1"] + tokens[4:]
    assert validate_trace(text, "successor", input_tokens=tokens).valid


def _left_spine(depth):
    tree = leaf()
    for i in range(depth):
        tree = branch("abc"[i % 3], tree, leaf())
    return tree


def _walk_inorder(tree):
    walk = []
    while tree.constructor != "Leaf":
        walk.append(tree.payloads[0])
        tree = tree.children[0]
    return walk[::-1]


def test_left_spine_tree_of_depth_two_thousand_parses_and_serializes():
    tokens = tree_serialize(_left_spine(2000))
    assert tokens[:4] == ["b", "(", "a", "("] and tokens[-2:] == [")", "LEAF"]
    assert len(tokens) == 4 * 2000 - 1
    assert tree_serialize(tree_parse(tokens)) == tokens  # == on terms this deep would recurse


def _ctor_chain(depth, base):
    expr = base
    for _ in range(depth):
        expr = Ctor(X0, (), (expr,))
    return expr


def _concat_chain(depth, last="a"):
    expr = ListLit((last,))
    for i in range(depth):
        expr = Concat(expr, Call("inorder", (leaf(),))) if i % 2 else Concat(
            ListLit(("b",)), expr)
    return expr


def test_expression_repr_text():
    args = (Call("s", (bin_encode(2),)), ListLit((X0, Var("x"))))
    expr = Concat(Ctor("Branch", ("a",), args), Ctor(ONE, (), ()))
    assert repr(expr) == (
        "Concat(left=Ctor(name='Branch', payloads=('a',), args=(Call(fn='s', args=("
        "Term(constructor='X0', payloads=(), children=("
        "Term(constructor='01', payloads=(), children=()),)),)), "
        "ListLit(items=('X0', Var(name='x'))))), right=Ctor(name='01', payloads=(), args=()))")


def test_deep_expressions_compare_hash_and_print_past_the_recursion_limit():
    chain = _ctor_chain(3000, bin_encode(3))
    same = _ctor_chain(3000, bin_encode(3))
    assert chain == same and hash(chain) == hash(same)
    assert chain != _ctor_chain(3000, bin_encode(5))
    assert chain != _ctor_chain(2999, bin_encode(3))
    assert repr(chain) == ("Ctor(name='X0', payloads=(), args=(" * 3000
                           + repr(bin_encode(3)) + ",))" * 3000)
    cat = _concat_chain(3000)
    assert cat == _concat_chain(3000) and hash(cat) == hash(_concat_chain(3000))
    assert cat != _concat_chain(3000, last="b") and cat != _concat_chain(2999)
    assert repr(cat).count("Concat(left=") == 3000


def test_inorder_of_a_left_spine_past_the_recursion_limit():
    # level k holds a concat chain about 2k deep, so the trace holds about
    # depth**2 nodes; 700 keeps that small, while a walk of its states that
    # recursed per node would pass Python's default limit of 1,000 frames
    tree = tree_parse(tree_serialize(_left_spine(700)))
    final, taken = reduce(Call("inorder", (tree,)))
    assert taken == 701
    assert list(final.items) == _walk_inorder(tree)


# ---------------------------------------------------------------------------
# big-step normal forms against levels()


def _by_levels(expr, programs=None):
    """The normal form of a levels() run and the number of levels it took."""
    taken, engine = 0, None
    for taken, engine in enumerate(levels(expr, programs), start=1):
        pass
    return engine.expr(), taken


def _tokens(expr):
    # compares deep terms without the recursion of the generated __eq__
    return (type(expr), linearize(expr) if isinstance(expr, Term) else list(expr.items))


def _assert_big_step_is_levels(expr, programs=None):
    """Big-step gives the levels() normal form and level count L within L
    levels, and below it both big-step and reduce raise FuelExhaustedError;
    returns L."""
    expected, taken = _by_levels(expr, programs)
    programs = builtin_programs() if programs is None else programs
    got = _big_step(expr, programs, taken)
    assert got is not None and _tokens(got[0]) == _tokens(expected) and got[1] == taken
    final, level = reduce(expr, programs, fuel=taken)
    assert _tokens(final) == _tokens(expected) and level == taken
    if taken > 1:
        with pytest.raises(FuelExhaustedError):
            _big_step(expr, programs, taken - 1)
        with pytest.raises(FuelExhaustedError):
            reduce(expr, programs, fuel=taken - 1)
    return taken


def _tree_of_size(rng, branches):
    """A random tree with the given number of branches, joined bottom up."""
    forest = [leaf() for _ in range(branches + 1)]
    while len(forest) > 1:
        i = rng.randrange(len(forest) - 1)
        forest[i:i + 2] = [branch(rng.choice("abc"), forest[i], forest[i + 1])]
    return forest[0]


@pytest.mark.parametrize("program", ["s", "add", "inorder", "preorder"])
def test_big_step_equals_levels_at_random_sizes(program):
    for i in range(25):
        rng = record_rng(5, f"big-step-{program}", i)
        size = rng.randint(2, 10 ** rng.randint(1, 4))  # input tokens, up to 10^4
        if program == "s":
            value = 2**size - 1 if i % 4 == 0 else rng.getrandbits(size - 1) | 1 << (size - 1)
            taken = _assert_big_step_is_levels(s_of(value))
            assert taken == bin_x1_run(value) + 1  # the depth law
        elif program == "add":
            n = rng.randint(1, size - 1)
            _assert_big_step_is_levels(
                Call("add", (peano_encode(n), peano_encode(size - n))))
        else:
            tree = _tree_of_size(rng, max(1, (size - 1) // 3))
            expr = Call(program, (tree,))
            assert _assert_big_step_is_levels(expr) == tree_depth(tree) + 1
            ref = _ref_inorder if program == "inorder" else _ref_preorder
            assert list(reduce(expr)[0].items) == ref(tree)


def _plus_two(ctor, binders):
    kids = tuple(Var(b) for b in binders)
    return Clause(ctor, binders, Call("s", (Call("s", (Ctor(ctor, (), kids),)),)))


HAND_BUILT = {
    # bodies that join two lists that are lists already, which takes a level
    "wrap": Program("wrap", ("t",), CHAR_TREE, (
        Clause("Leaf", (), Concat(ListLit(("<",)), ListLit((">",)))),
        Clause("Branch", ("v", "l", "r"), Concat(
            Concat(ListLit((Var("v"),)), Call("wrap", (Var("l"),))),
            Concat(Call("wrap", (Var("r"),)), ListLit((Var("v"), "!"))))),
    )),
    # a call on the value of another call
    "plus2": Program("plus2", ("b",), BIN_POS, (
        _plus_two(ONE, ()), _plus_two(X0, ("b",)), _plus_two(X1, ("b",)))),
    # lists of three items
    "echo": Program("echo", ("t",), CHAR_TREE, (
        Clause("Leaf", (), ListLit(("<", "-", ">"))),
        Clause("Branch", ("v", "l", "r"), Concat(
            Concat(Call("echo", (Var("l"),)), ListLit((Var("v"), "|", Var("v")))),
            Call("echo", (Var("r"),)))),
    )),
    # a one-child constructor over a list, and two-child concats over a term
    # on the right and on the left: levels() gets stuck, so every input is
    # left to it
    "mistyped": Program("mistyped", ("b",), BIN_POS, (
        Clause(ONE, (), Ctor(X0, (), (ListLit(("1",)),))),
        Clause(X0, ("b",), Concat(ListLit(("0",)), Var("b"))),
        Clause(X1, ("b",), Concat(Var("b"), ListLit(("1",)))),
    )),
    # two parameters, and a constructor over a variable in a call's argument:
    # an accumulator that moves each bit below the leading one onto acc
    "rev": Program("rev", ("b", "acc"), BIN_POS, (
        Clause(ONE, (), Ctor(X1, (), (Var("acc"),))),
        Clause(X0, ("b",), Call("rev", (Var("b"), Ctor(X0, (), (Var("acc"),))))),
        Clause(X1, ("b",), Call("rev", (Var("b"), Ctor(X1, (), (Var("acc"),))))),
    )),
}


def _outcome(normalize):
    """What normalize() returns, or the class and text of what it raises."""
    try:
        return normalize()
    except Exception as exc:  # levels() lets some errors of hand-built input through
        return type(exc), str(exc)


@pytest.mark.parametrize("program", sorted(HAND_BUILT))
def test_big_step_equals_levels_on_hand_built_programs(program):
    programs = {**builtin_programs(), **HAND_BUILT}
    for i in range(40):
        rng = record_rng(5, f"big-step-{program}", i)
        if HAND_BUILT[program].arg_type is CHAR_TREE:
            arg = _tree_of_size(rng, rng.randint(0, 60))
        else:  # 1, 2 and 3 first: each clause at the top
            arg = bin_encode(i + 1 if i < 3 else rng.randint(1, 2 ** rng.randint(1, 60)))
        expr = Call(program, (arg,) + tuple(bin_encode(rng.randint(1, 2 ** rng.randint(1, 60)))
                                            for _ in HAND_BUILT[program].params[1:]))
        if program == "rev" and i < 8:
            _assert_cuts_are_levels(expr, programs)
        if program != "mistyped":
            _assert_big_step_is_levels(expr, programs)
            continue
        assert _big_step(expr, programs, 10**6) is None
        by_levels = _outcome(lambda: _by_levels(expr, programs)[0])
        assert _outcome(lambda: reduce(expr, programs)[0]) == by_levels
        assert not isinstance(by_levels, (Term, ListLit))


def test_default_fuel_is_twice_the_token_count():
    from structrec.reduction import _budget, expr_token_count

    # no call fires past level 3, but joining the leaves' lists takes two more
    programs = {**builtin_programs(), **HAND_BUILT}
    tree = branch("a", branch("b", branch("c", leaf(), leaf()), leaf()), leaf())
    expr = Call("wrap", (tree,))
    expected, taken = _by_levels(expr, programs)
    got, level = _big_step(expr, programs, None)
    assert level == taken == 5 and _tokens(got) == _tokens(expected)
    expr = Call("inorder", (_tree_of_size(random.Random(4), 3000),))
    assert _budget(expr, None) == 2 * expr_token_count(expr) and _budget(expr, 7) == 7
    deep = s_of(2**40 - 1)  # 40 levels
    assert _tokens(reduce(deep)[0]) == (Term, linearize(bin_encode(2**40)))


# programs that run far longer than their input is long, each with an
# input whose run takes exactly the default budget and one that needs one
# level more: "far" walks down a numeral, then runs s on a six-bit all-ones
# constant, so its last level fires a call; "far_wrap" walks down the left
# spine of a tree, then wraps a depth-12 spine, so its last level joins lists
BUDGET_EDGES = {
    "far": (Program("far", ("b",), BIN_POS, (
        Clause(ONE, (), Call("s", (bin_encode(2**6 - 1),))),
        Clause(X0, ("b",), Call("far", (Var("b"),))),
        Clause(X1, ("b",), Call("far", (Var("b"),))),
    )), PAREN, bin_encode(8), bin_encode(4)),
    "far_wrap": (Program("far_wrap", ("t",), CHAR_TREE, (
        Clause("Leaf", (), Call("wrap", (_left_spine(12),))),
        Clause("Branch", ("v", "l", "r"), Call("far_wrap", (Var("l"),))),
    )), ARROW, branch("a", leaf(), branch("b", leaf(), leaf())), _left_spine(2)),
}


@pytest.mark.parametrize("name", sorted(BUDGET_EDGES))
def test_default_fuel_ends_the_run_on_its_last_level(name):
    from structrec.reduction import _budget

    program, style, *args = BUDGET_EDGES[name]
    programs = {**builtin_programs(), **HAND_BUILT, name: program}
    for over, arg in enumerate(args):
        expr = Call(name, (arg,))
        budget = _budget(expr, None)
        assert sum(1 for _ in _fueled_levels(expr, programs, math.inf)) == budget + over
        assert (_big_step(expr, programs, None) is None) == bool(over)

        def by_reduce():
            final, level = reduce(expr, programs)
            return repr(final), level

        got = (_outcome(by_reduce),
               _outcome(lambda: list(render_states(expr, style, programs, None))))
        assert got == _by_fueled_levels(expr, programs, None, style)
        if over:
            assert got[0] == got[1] == (FuelExhaustedError,
                                        f"no normal form within {budget} levels")
        else:
            assert got[0][1] == budget and len(got[1]) == budget + 1


def test_fuel_infinity_counts_no_tokens(monkeypatch):
    # replay and recursion_depth run unbudgeted, so they never size the budget
    import structrec.reduction as reduction

    successor = render_trace(s_of(0b1011), PAREN)
    tree = branch("a", branch("b", leaf(), leaf()), branch("c", leaf(), leaf()))
    walk = render_trace(Call("inorder", (tree,)), ARROW)

    def counted(expr):
        raise AssertionError("counted the tokens of an unbudgeted run")

    monkeypatch.setattr(reduction, "expr_token_count", counted)
    assert validate_trace(successor, "successor").valid
    assert validate_trace(walk, "inorder").valid
    assert list(render_states(s_of(0b1011), PAREN))[-1] == " ".join(linearize(bin_encode(12)))
    assert _tokens(reduce(s_of(0b111), fuel=math.inf)[0]) == (Term, linearize(bin_encode(8)))
    assert recursion_depth(bin_encode(0b111)) == 3
    with pytest.raises(AssertionError, match="unbudgeted"):
        reduce(s_of(0b111))  # the default budget is counted


def test_a_call_that_does_not_fit_its_clause_is_left_to_levels():
    # hand-built: too few or too many children or payloads, or arguments; a
    # payload too many would bind the right-hand child to the left one
    pairs = InductiveDef("pairs", (ConstructorDef("Tip", 0), ConstructorDef("Node", 2)))
    right = Program("right", ("t",), pairs, (
        Clause("Tip", (), ListLit(("tip",))),
        Clause("Node", ("l", "r"), Concat(ListLit(("node",)), Call("right", (Var("r"),)))),
    ))
    programs = {**builtin_programs(), "right": right}
    node = Term("Node", (), (Term("Tip"), Term("Tip")))
    for expr in (Call("s", (Term(X0),)),
                 Call("s", (Term(X1, (), (Term(ONE), Term(ONE))),)),
                 Call("s", (Term(X0, ("a",), (Term(ONE),)),)),
                 Call("inorder", (Term("Branch", ("a", "b"), (leaf(),)),)),
                 Call("right", (Term("Node", ("x",), (node, Term("Tip"))),)),
                 Call("add", (peano_encode(2),)),
                 Call("s", (bin_encode(5), bin_encode(1)))):
        assert _big_step(expr, programs, 100) is None
        by_levels = _outcome(lambda: _by_levels(expr, programs)[0])
        assert _outcome(lambda: reduce(expr, programs)[0]) == by_levels


@pytest.mark.parametrize("expr,message", [
    (Call("s", (Term(X0),)), r"s on 'X0' .* \(0, 1, 1\), got \(0, 0, 1\)"),
    (Call("add", (peano_encode(2),)), r"add on 'S' .* \(0, 1, 2\), got \(0, 1, 1\)"),
    (Call("s", (Term(X1, (), (Term(ONE), Term(ONE))),)), r"s on 'X1' .* got \(0, 2, 1\)"),
    (Call("s", (Term(X0, ("a",), (Term(ONE),)),)), r"s on 'X0' .* got \(1, 1, 1\)"),
    (Call("s", (bin_encode(5), bin_encode(1))), r"s on 'X1' .* got \(0, 1, 2\)"),
])
def test_a_call_of_the_wrong_shape_raises_a_reduction_error(expr, message):
    # a child, payload or argument too few or too many, which zip would
    # otherwise drop or leave unbound
    assert _big_step(expr, builtin_programs(), 100) is None  # levels() raises it
    with pytest.raises(ReductionError, match=message):
        reduce(expr)
    with pytest.raises(ReductionError, match=message):
        reduce(expr, builtin_programs())


def test_token_count_needs_no_linearize():
    # a parsed term counts its span, a built one its nodes and payloads
    from structrec.reduction import expr_token_count

    tree = _tree_of_size(random.Random(3), 40)
    parsed = delinearize(linearize(tree), CHAR_TREE)
    chain = delinearize(["X1"] * 9 + ["01"], BIN_POS)
    for term in (bin_encode(2**70 + 5), tree, parsed, parsed.children[1], chain,
                 chain.children[0]):
        assert expr_token_count(term) == len(linearize(term))
    add = Call("add", (peano_encode(3), peano_encode(2)))
    assert expr_token_count(add) == 1 + 3 + 2


PEANO_ONE = peano_encode(1)


def _peano_program(name, params, on_one, on_succ):
    return Program(name, params, PEANO, (Clause("I", (), on_one), Clause("S", ("p",), on_succ)))


def test_a_pending_other_argument_leaves_the_normal_form_to_levels():
    # the outer add fires while its second argument is still an add call,
    # which levels() substitutes unevaluated
    twice = _peano_program("twice", ("n", "m"), Var("m"),
                           Call("add", (Var("p"), Call("add", (Var("p"), Var("m"))))))
    programs = {**builtin_programs(), "twice": twice}
    expr = Call("twice", (peano_encode(4), peano_encode(3)))
    assert _big_step(expr, programs, 100) is None
    expected, taken = _by_levels(expr, programs)
    final, level = reduce(expr, programs)
    assert _tokens(final) == _tokens(expected) and level == taken
    assert peano_value(expected) == 3 + 3 + 3  # p + (p + m) with p = n - 1


def test_a_missing_clause_raises_the_levels_error():
    wrong = _peano_program("wrong", ("n",), Call("s", (PEANO_ONE,)), Call("wrong", (Var("p"),)))
    programs = {**builtin_programs(), "wrong": wrong}
    expr = Call("wrong", (peano_encode(3),))
    assert _big_step(expr, programs, 100) is None
    with pytest.raises(ReductionError) as by_levels:
        _by_levels(expr, programs)
    with pytest.raises(ReductionError) as by_reduce:
        reduce(expr, programs)
    assert str(by_reduce.value) == str(by_levels.value) == "s has no clause for 'I'"


def test_a_cross_program_loop_runs_out_of_fuel():
    ping = _peano_program("ping", ("n",), Call("pong", (PEANO_ONE,)), Call("pong", (Var("p"),)))
    pong = _peano_program("pong", ("n",), Call("ping", (PEANO_ONE,)), Call("ping", (Var("p"),)))
    programs = {"ping": ping, "pong": pong}
    expr = Call("ping", (peano_encode(3),))
    assert _big_step(expr, programs, 8) is None
    with pytest.raises(FuelExhaustedError, match="within 8 levels"):
        reduce(expr, programs)


def test_an_error_within_the_fuel_comes_before_a_deep_call_runs_out():
    # big-step walks the deep call on the left past the fuel first, but
    # levels() meets the missing clause on the right at level 2
    both = Program("both", ("t",), CHAR_TREE, (
        Clause("Leaf", (), ListLit(())),
        Clause("Branch", ("v", "l", "r"),
               Concat(Call("inorder", (Var("l"),)), Call("s", (Var("r"),)))),
    ))
    programs = {**builtin_programs(), "both": both}
    expr = Call("both", (branch("a", _left_spine(10), leaf()),))
    for fuel in (2, 3, 12):
        with pytest.raises(ReductionError, match="^s has no clause for 'Leaf'$"):
            reduce(expr, programs, fuel)
        with pytest.raises(ReductionError, match="^s has no clause for 'Leaf'$"):
            next(render_states(expr, ARROW, programs, fuel))


def test_big_step_takes_a_hundred_thousand_token_numeral():
    term = delinearize(["X1"] * 99_999 + ["01"], BIN_POS)
    expr = Call("s", (term,))
    final, level = _big_step(expr, builtin_programs(), 100_000)
    assert linearize(final) == ["X0"] * 100_000 + ["01"] and level == 100_000
    with pytest.raises(FuelExhaustedError, match="within 99999 levels"):
        _big_step(expr, builtin_programs(), 99_999)


def test_big_step_takes_a_depth_ten_thousand_left_spine():
    tree = _left_spine(10_000)
    expr = Call("inorder", (tree,))
    final, level = _big_step(expr, builtin_programs(), 10_001)
    assert list(final.items) == _walk_inorder(tree) and level == 10_001
    with pytest.raises(FuelExhaustedError, match="within 10000 levels"):
        _big_step(expr, builtin_programs(), 10_000)


def _fuel_inputs():
    """The fuzz inputs, and eleven seeded calls of each hand-built program,
    each with the programs it runs on and its trace style."""
    programs = {**builtin_programs(), **HAND_BUILT}
    for expr in _fuzz_exprs(record_rng(13, "one-pass", 0)):
        yield expr, programs, PAREN if expr.fn == "s" else ARROW
    for name in sorted(HAND_BUILT):
        for i in range(11):
            rng = record_rng(7, f"fuel-{name}", i)
            if HAND_BUILT[name].arg_type is CHAR_TREE:
                arg, style = _tree_of_size(rng, rng.randint(0, 12)), ARROW
            else:
                arg, style = bin_encode(i + 1 if i < 3 else rng.randint(1, 2**12)), PAREN
            yield Call(name, (arg,) * len(HAND_BUILT[name].params)), programs, style


def _by_fueled_levels(expr, programs, fuel, style):
    """What reduce and render_states give by stepping levels() under fuel."""
    render = render_state_paren if style == PAREN else render_state_unroll

    def normal_form():
        taken, engine = 0, None
        for taken, engine in enumerate(_fueled_levels(expr, programs, fuel), start=1):
            pass
        return repr(expr if engine is None else engine.expr()), taken

    def states():
        return [" ".join(render(expr))] + [
            " ".join(render(engine.expr())) for engine in _fueled_levels(expr, programs, fuel)]

    return _outcome(normal_form), _outcome(states)


def test_fuel_gives_what_levels_gives_under_it():
    # big-step raises past the fuel itself where it completes; either way
    # the outcome is the levels() run's: the normal form and level count,
    # the states, or the error and its text
    checked = 0
    for expr, programs, style in _fuel_inputs():
        taken = 0
        try:
            for taken, _ in enumerate(_fueled_levels(expr, programs, math.inf), start=1):
                pass
        except ReductionError:
            pass  # taken counts the levels before the error
        for fuel in [*range(1, taken + 2), None]:
            def by_reduce():
                final, level = reduce(expr, programs, fuel)
                return repr(final), level

            got = (_outcome(by_reduce),
                   _outcome(lambda: list(render_states(expr, style, programs, fuel))))
            assert got == _by_fueled_levels(expr, programs, fuel, style), (expr, fuel)
            checked += 1
    assert checked > 1500


# ---------------------------------------------------------------------------
# the one-pass engine


def _run_levels(expr, single=False):
    """The rules of each step a levels() run takes, and the state it ends in."""
    rules, engine = [], None
    for engine in levels(expr, single=single):
        rules.append(engine.rules)
    return rules, (expr if engine is None else engine.expr())


def test_one_pass_engine_agrees_with_big_step_on_random_inputs():
    for expr in _fuzz_exprs(record_rng(13, "one-pass", 0)):
        final, taken = reduce(expr)
        by_level, last = _run_levels(expr)
        assert len(by_level) == taken and _tokens(last) == _tokens(final)
        by_single, last = _run_levels(expr, single=True)
        assert _tokens(last) == _tokens(final)
        # a level's rewrites are the single steps' rewrites, taken at once
        assert sorted(r for rules in by_single for r in rules) == sorted(
            r for rules in by_level for r in rules)
        assert all(len(rules) == 1 for rules in by_single)


# ---------------------------------------------------------------------------
# traces cut from big-step's call tree


def _fuzz_exprs(rng):
    """The seeded fuzz above: successor calls on values below 2^80 and on
    all-ones values, and traversal calls on random trees, half of them
    parsed."""
    exprs = [s_of(rng.randrange(1, 2**80)) for _ in range(60)]
    exprs += [s_of(2**k - 1) for k in (1, 2, 40, 79)]
    for i in range(160):
        tree = _random_tree(rng, rng.randint(1, 7))
        if i % 2 and tree.constructor != "Leaf":  # a parsed tree renders from its span
            tree = tree_parse(tree_serialize(tree))
        exprs.append(Call(("inorder", "preorder")[i % 4 // 2], (tree,)))
    return exprs


def _stepped_states(expr, style, programs=None, single=False):
    """The reference: each state a levels() run reaches, rendered."""
    render = render_state_paren if style == PAREN else render_state_unroll
    states = [render(expr)] + [render(engine.expr()) for engine in levels(expr, programs, single)]
    return [" ".join(state) for state in states]


def _assert_cuts_are_levels(expr, programs=None):
    """The cut's states are the rendered levels() states, from expr and from
    a parsed state halfway; in the paren form they are also the single
    steps' states, so the validator's cut by levels accepts a paren trace
    of single steps; returns the states."""
    programs = builtin_programs() if programs is None else programs
    program = programs[expr.fn]
    style = ARROW if program.arg_type is CHAR_TREE else PAREN
    parse = parse_state_unroll if style == ARROW else parse_state_paren
    assert _big_step(expr, programs, math.inf, style) is not None  # no fallback
    states = list(render_states(expr, style, programs))
    middle = parse(tokenize(states[(len(states) - 1) // 2]), program)
    from_middle = list(render_states(middle, style, programs))
    for single in (False, True) if style == PAREN else (False,):
        assert states == _stepped_states(expr, style, programs, single)
        assert from_middle == _stepped_states(middle, style, programs, single)
    return states


def test_cut_states_are_the_levels_states_on_the_fuzz():
    for expr in _fuzz_exprs(record_rng(13, "one-pass", 0)):
        _assert_cuts_are_levels(expr)
    for n, m in ((1, 1), (3, 2), (40, 17)):
        _assert_cuts_are_levels(Call("add", (peano_encode(n), peano_encode(m))))


# ---------------------------------------------------------------------------
# trace states read from the input tokens by the trace-task rows

_ROWS = {row.program.name: row for row in _TRACE_TASKS.values()}


def _value_tokens(program, value):
    return tree_serialize(value) if program.arg_type is CHAR_TREE else linearize(value)


def _assert_row_states_are_the_cuts(expr):
    """The row's states on the tokens of expr's value are render_states' of
    expr, streamed so that a long run is never held; rendered tokens hold no
    space, so equal texts are equal tokens."""
    row = _ROWS[expr.fn]
    states = row.states(_value_tokens(row.program, expr.args[0]))
    assert states is not None
    cuts = render_states(expr, _style_of(row.program).name)
    for mine, cut in itertools.zip_longest(states, cuts):
        assert mine == cut


def _right_spine(depth):
    tree = leaf()
    for i in range(depth):
        tree = branch("abc"[i % 3], leaf(), tree)
    return tree


def test_row_states_are_the_cuts_on_the_fuzz():
    for expr in _fuzz_exprs(record_rng(13, "one-pass", 0)):
        if expr.args[0].constructor != "Leaf":  # a bare Leaf has no serialized form
            _assert_row_states_are_the_cuts(expr)


def test_row_states_are_the_cuts_on_seeded_values_and_trees():
    for i in range(500):
        rng = record_rng(13, "row-states", i)
        bits = rng.randint(1, 600)
        _assert_row_states_are_the_cuts(s_of(rng.randint(2 ** (bits - 1), 2**bits - 1)))
        tree = sample_tree(rng, rng.randint(1, 9), "abc")
        for kind in ("inorder", "preorder"):
            _assert_row_states_are_the_cuts(Call(kind, (tree,)))


def test_row_states_are_the_cuts_on_deep_spines_and_long_numerals():
    for tree in (_left_spine(2000), _right_spine(2000)):
        tree = tree_parse(tree_serialize(tree))  # so that each pending subtree's text is a slice
        for kind in ("inorder", "preorder"):
            _assert_row_states_are_the_cuts(Call(kind, (tree,)))
    bits = 10_000
    for value in (2**bits - 1, 3 * 2 ** (bits - 2) - 1):
        _assert_row_states_are_the_cuts(s_of(value))


def test_a_row_reads_only_tokens_the_state_parser_reads_as_one_pending_call():
    # seeded edits of value tokens: each list a row reads, the state parser
    # reads as the one pending call on it, whose cuts are the row's states
    vocab = (X0, X1, ONE, "a", "b", "(", ")", "LEAF", "UNROLL[", "]", "EMPTY", "Q")
    read = 0
    for i in range(3000):
        rng = record_rng(13, "row-scan", i)
        row = rng.choice(list(_TRACE_TASKS.values()))
        program, style = row.program, _style_of(row.program)
        value = (sample_tree(rng, rng.randint(1, 4), "ab") if program.arg_type is CHAR_TREE
                 else bin_encode(rng.randint(1, 2**12)))
        tokens = _value_tokens(program, value)
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(len(tokens) + 1)
            edit = rng.randrange(3)
            if edit == 0:
                tokens.insert(at, rng.choice(vocab))
            elif at < len(tokens):
                del tokens[at:at + 1]
                if edit == 1:
                    tokens.insert(at, rng.choice(vocab))
        states = row.states(tokens)
        if states is None:
            continue
        read += 1
        call = style.parse([style.opening, *tokens, style.closing], program)
        assert isinstance(call, Call)
        assert list(states) == list(render_states(call, style.name))
    assert read > 1000


@pytest.mark.parametrize("program", sorted(HAND_BUILT))
def test_cut_states_on_hand_built_programs_are_the_levels_states(program):
    # wrap, echo and rev render from the cut; plus2 calls on a pending
    # argument and mistyped gets stuck, so levels() renders both
    programs = {**builtin_programs(), **HAND_BUILT}
    cut = program in ("wrap", "echo", "rev")
    style = ARROW if HAND_BUILT[program].arg_type is CHAR_TREE else PAREN
    for i in range(12):
        rng = record_rng(6, f"cut-{program}", i)
        if style == ARROW:
            arg = _tree_of_size(rng, rng.randint(0, 30))
        else:
            arg = bin_encode(i + 1 if i < 3 else rng.randint(1, 2 ** rng.randint(1, 30)))
        expr = Call(program, (arg,) * len(HAND_BUILT[program].params))
        found = _big_step(expr, programs, math.inf, style)
        assert (found is not None) == cut
        assert _outcome(lambda: list(render_states(expr, style, programs))) == _outcome(
            lambda: _stepped_states(expr, style, programs))


def test_a_parsed_state_of_lists_and_calls_is_cut_from_level_zero():
    program = builtin_programs()["preorder"]
    for text in ("a b", "EMPTY", "x UNROLL[ a ( b LEAF LEAF ) LEAF ] y EMPTY UNROLL[ c LEAF LEAF ] z"):
        state = parse_state_unroll(tokenize(text), program)
        assert list(render_states(state, ARROW)) == _stepped_states(state, ARROW)
    state = parse_state_paren(tokenize("X0 X0 ( X1 X1 01 )"), builtin_programs()["s"])
    assert list(render_states(state, PAREN)) == [
        "X0 X0 ( X1 X1 01 )", "X0 X0 X0 ( X1 01 )", "X0 X0 X0 X0 ( 01 )", "X0 X0 X0 X0 X0 01"]
    assert list(render_states(bin_encode(6), PAREN)) == ["X0 X1 01"]
    with pytest.raises(RenderError, match="unknown trace style"):
        render_states(s_of(3), "zigzag")
    with pytest.raises(RenderError, match="unknown trace style"):  # not SEPARATOR's KeyError
        render_trace(s_of(3), "zigzag")


def test_a_deep_parsed_state_is_cut_from_level_zero():
    # a state is compiled by a walk on a stack: a parsed state is as deep as
    # its emitted prefix, or as its run of items
    paren = parse_state_paren(tokenize("X0 " * 3000 + "( X1 X1 01 )"), builtin_programs()["s"])
    arrow = parse_state_unroll(tokenize("a EMPTY UNROLL[ b LEAF LEAF ] " * 1000),
                               builtin_programs()["inorder"])
    for state, style in ((paren, PAREN), (arrow, ARROW)):
        assert _big_step(state, builtin_programs(), math.inf, style) is not None
        assert list(render_states(state, style)) == _stepped_states(state, style)


def _validate_by_levels(text, task, input_tokens):
    """validate_trace as it stood on levels(): each state stepped, then rendered."""
    row = evaluation._TRACE_TASKS[task]
    program, style = row.program, _style_of(row.program).name
    separator = "=" if style == PAREN else "->"
    parse, render = ((parse_state_paren, render_state_paren) if style == PAREN
                     else (parse_state_unroll, render_state_unroll))
    states = [part.strip() for part in text.split(separator)]
    if not all(states):
        return False, states.index(""), evaluation.MALFORMED_STATE
    got = tokenize(states[0])
    try:
        cur = parse(got, program, normalized=True)
    except (ReductionError, MalformedSequenceError):
        return False, 0, evaluation.MALFORMED_STATE
    if got != render(program_call(program, [input_tokens])):
        return False, 0, evaluation.TOKEN_MUTATION
    run = levels(cur, {program.name: program}, single=(style == PAREN))
    last = len(states) - 1
    for i in range(1, last + 1):
        engine = next(run, None)
        if engine is None:
            return False, i, evaluation.MISSING_TERMINATION
        expected = render(engine.expr())
        got = tokenize(states[i])
        if got != expected:
            return False, i, evaluation._classify(row, tokenize(states[i - 1]), got, expected,
                                                  is_last=(i == last))
    if not _style_of(program).pending.isdisjoint(got):
        return False, last, evaluation.MISSING_TERMINATION
    return True, None, None


def test_cut_judgments_are_the_levels_judgments_on_replay_corruptions():
    rng = record_rng(13, "cut-replay", 0)
    for expr in _fuzz_exprs(record_rng(13, "one-pass", 0)):
        if expr.args[0].constructor == "Leaf":  # no input names a bare leaf
            continue
        task = "successor" if expr.fn == "s" else expr.fn
        style = PAREN if task == "successor" else ARROW
        states = _stepped_states(expr, style)
        tokens = (linearize if task == "successor" else tree_serialize)(expr.args[0])
        mutated = [state.split() for state in states]
        at = rng.randrange(len(mutated))
        mutated[at][rng.randrange(len(mutated[at]))] = rng.choice(
            ("X0", "X1", "01") if task == "successor" else ("a", "b", "c", "LEAF"))
        for damaged in (states, [" ".join(s) for s in mutated], states[:-1],
                        states + states[-1:]):
            text = (" = " if style == PAREN else " -> ").join(damaged)
            judgment = validate_trace(text, task, input_tokens=tokens)
            assert (judgment.valid, judgment.first_bad_step, judgment.error) == (
                _validate_by_levels(text, task, tokens))


def test_unknown_programs_and_unbound_variables_raise_on_the_first_step():
    nope = Call("nope", (leaf(),))
    pending = Call("inorder", (CAT_TREE,))
    for expr, message in ((nope, "unknown program: 'nope'"),
                          (Concat(pending, Concat(ListLit(("a",)), nope)), "unknown program"),
                          (Concat(pending, Var("x")), "unbound template variable")):
        for single in (False, True):
            with pytest.raises(ReductionError, match=message):
                next(levels(expr, single=single))


def _runs_of(expr, programs):
    """Each way to normalize expr: reduce, levels and render_states."""
    return (lambda: reduce(expr, programs), lambda: list(levels(expr, programs)),
            lambda: list(render_states(expr, PAREN, programs)))


@pytest.mark.parametrize("on_succ, message", [
    (Ctor("S", (), (Var("zz"),)), "unbound template variable 'zz'"),
    (Concat(ListLit(("x",)), ListLit((Var("a"),))), "list slot 'a' is not a payload"),
], ids=["unbound", "list-slot"])
def test_a_clause_instance_error_raises_from_every_run(on_succ, message):
    bad = Program("bad", ("n",), PEANO, (Clause("I", (), ListLit(())), Clause("S", ("a",), on_succ)))
    programs = {**builtin_programs(), "bad": bad}
    expr = Call("bad", (peano_encode(3),))
    for normalize in _runs_of(expr, programs):
        with pytest.raises(ReductionError) as raised:
            normalize()
        assert str(raised.value) == message


@pytest.mark.parametrize("first", [Var("n"), Var("m"), PEANO_ONE, Call("r", (Var("p"),))],
                         ids=["own-argument", "other-argument", "value", "call"])
def test_recursion_on_anything_but_a_child_is_rejected(first):
    with pytest.raises(ValueError) as raised:
        _peano_program("r", ("n", "m"), ListLit(()), Concat(ListLit(()), Call("r", (first,))))
    assert str(raised.value) == "r: recursion is not structurally decreasing"


def test_a_call_with_no_arguments_is_rejected():
    with pytest.raises(ValueError, match=r"^r\.S: call of 's' has no arguments$"):
        _peano_program("r", ("n",), ListLit(()), Ctor("S", (), (Call("s", ()),)))
    nested = Concat(ListLit(("a",)), Call("inorder", ()))
    for normalize in _runs_of(Call("s", ()), None)[::-1] + _runs_of(nested, None)[:2]:
        with pytest.raises(ReductionError, match=r"^call of '(s|inorder)' has no arguments$"):
            normalize()
    states = render_states(Call("inorder", ()), ARROW)
    with pytest.raises(RenderError, match="pending call argument must be a value"):
        next(states)


@pytest.mark.parametrize("on_one, on_succ, clause, item", [
    (ListLit((Term("I"),)), ListLit(()), "I", "Term(constructor='I', payloads=(), children=())"),
    (ListLit(()), ListLit(("x", 5)), "S", "5"),
    (ListLit(()), Concat(ListLit(("x",)), Ctor("S", (), (ListLit((Var("p"), 5)),))), "S", "5"),
], ids=["term-item", "int-item", "nested"])
def test_a_list_item_that_is_no_token_or_variable_is_rejected(on_one, on_succ, clause, item):
    with pytest.raises(ValueError) as raised:
        _peano_program("r", ("n",), on_one, on_succ)
    assert str(raised.value) == f"r.{clause}: list item {item} is neither a token nor a variable"


def test_an_instance_calling_an_unknown_program_raises_in_the_step_that_builds_it():
    hop = _peano_program("hop", ("n",), ListLit(("end",)), Call("gone", (Var("p"),)))
    relay = _peano_program("relay", ("n",), ListLit(()), Call("hop", (Var("p"),)))
    programs = {**builtin_programs(), "hop": hop, "relay": relay}
    assert [e.rules for e in levels(Call("hop", (PEANO_ONE,)), programs)] == [("hop/I",)]
    run = levels(Call("relay", (peano_encode(3),)), programs)
    assert next(run).rules == ("relay/S",)
    with pytest.raises(ReductionError, match="unknown program: 'gone'"):
        next(run)


# ---------------------------------------------------------------------------
# the node layer

_TWO = Term(X0, (), (Term(ONE),))
_TWO_TEXT = ("Term(constructor='X0', payloads=(), children=("
             "Term(constructor='01', payloads=(), children=()),))")
_PENDING = Call("s", (_TWO,))
_PENDING_TEXT = f"Call(fn='s', args=({_TWO_TEXT},))"


# each node class: an instance, one field and another value for it, its
# fields, and its repr and the key its hash is the hash of, as they were
# before the nodes were slot-stored
@pytest.mark.parametrize("node, name, other, names, text, key", [
    (_TWO, "constructor", X1, ("constructor", "payloads", "children"), _TWO_TEXT,
     ((X0, (), 1), (ONE, (), 0))),
    (Ctor("Branch", ("a",), (_PENDING, Term("Leaf"))), "payloads", ("b",),
     ("name", "payloads", "args"),
     f"Ctor(name='Branch', payloads=('a',), args=({_PENDING_TEXT}, "
     "Term(constructor='Leaf', payloads=(), children=())))",
     ("Ctor(", "name='Branch'", ", payloads=('a',)", ", args=", "(",
      "Call(", "fn='s'", ", args=", "(", _TWO, ",)", ")",
      ", ", Term("Leaf"), ")", ")")),
    (_PENDING, "fn", "add", ("fn", "args"), _PENDING_TEXT,
     ("Call(", "fn='s'", ", args=", "(", _TWO, ",)", ")")),
    (ListLit(("a", "b")), "items", ("a",), ("items",), "ListLit(items=('a', 'b'))",
     (("a", "b"),)),
    (Concat(ListLit(("a",)), _PENDING), "left", ListLit(()), ("left", "right"),
     f"Concat(left=ListLit(items=('a',)), right={_PENDING_TEXT})",
     ("Concat(", "left=", ListLit(("a",)), ", right=",
      "Call(", "fn='s'", ", args=", "(", _TWO, ",)", ")", ")")),
], ids=["Term", "Ctor", "Call", "ListLit", "Concat"])
def test_nodes_are_frozen_slot_stores_with_their_dataclass_surface(node, name, other, names,
                                                                   text, key):
    cls = type(node)
    assert not hasattr(node, "__dict__")
    for attribute in (name, "_span", "astrology"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, attribute, other)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(node, attribute)
    assert tuple(f.name for f in dataclasses.fields(cls)) == names
    assert repr(node) == text and hash(node) == hash(key)
    again = cls(*(getattr(node, n) for n in names))
    assert again == node and hash(again) == hash(node) and again is not node
    changed = dataclasses.replace(node, **{name: other})
    assert getattr(changed, name) == other and changed != node
    assert dataclasses.replace(changed, **{name: getattr(node, name)}) == node
    assert copy.copy(node) == node
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):  # 0 and 1 cannot carry slots
        assert pickle.loads(pickle.dumps(node, protocol)) == node


def test_deep_expressions_round_trip_through_pickle_and_deepcopy():
    # pickle and deepcopy used to recurse once per level, so both raised
    # RecursionError on either chain
    chain = Call("s", (Term("01"),))
    for _ in range(3000):
        chain = Ctor("X0", (), (chain,))
    spine = ListLit(("a",))
    for i in range(3000):
        spine = Concat(spine, ListLit((str(i),)))
    mixed = Concat(Ctor("Branch", ("a",), (Term("Leaf"), Call("f", (ListLit(()), _PENDING)),
                                           Ctor("E", (), ()))), Call("g", (_TWO, _TWO)))
    for expr in (chain, spine, mixed):
        copies = [pickle.loads(pickle.dumps(expr, protocol))
                  for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies + [copy.deepcopy(expr)]:
            assert other == expr and other is not expr and type(other) is type(expr)
    assert repr(copies[-1]) == repr(mixed)


def test_single_step_cost_does_not_grow_with_length(monkeypatch):
    built = [0]  # expression nodes and terms built
    for cls in (Term, Ctor, Call, ListLit, Concat):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built[0] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    per_step = {}
    for n in (64, 1024):  # n X1 constructors over 01: the successor carries n times
        expr = Call("s", (delinearize([X1] * n + [ONE], BIN_POS),))
        per_step[n], steps, start = [], [], built[0]
        for engine in levels(expr, single=True):
            per_step[n].append(built[0] - start)
            steps.append((engine.paths, engine.rules))
            start = built[0]
        assert len(steps) == n + 1
    assert max(per_step[1024]) <= max(per_step[64])
    assert steps == [(((0,) * i,), ("s/X1",)) for i in range(1024)] + [(((0,) * 1024,), ("s/01",))]


def test_cut_path_builds_nodes_linear_in_the_depth_of_a_left_spine(monkeypatch):
    built = [0]  # expression nodes and terms built; rendered text is no node
    for cls in (Term, Ctor, Call, ListLit, Concat):
        def counted(self, *args, _init=cls.__init__, **kwargs):
            built[0] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    per_depth = {}
    for depth in (250, 500, 1000):
        tree = _left_spine(depth)
        tokens, expr = tree_serialize(tree), Call("inorder", (tree,))
        start = built[0]
        text = render_trace(expr, ARROW)
        assert validate_trace(text, "inorder", input_tokens=tokens).valid
        # and the call records the cuts are read from, one per call
        records, stack = 0, list(_big_step(expr, builtin_programs(), math.inf, ARROW)[2])
        while stack:
            records += 1
            stack += stack.pop()[4]
        per_depth[depth] = built[0] - start + records
    assert 0 < per_depth[500] <= 2.2 * per_depth[250]
    assert per_depth[1000] <= 2.2 * per_depth[500]


def test_traversal_form_of_a_call_on_no_tree_is_malformed():
    # a successor call asked for in the traversal form: the renderer refuses it
    expr = s_of(5)
    for render in (render_state_unroll, lambda call: render_trace(call, ARROW)):
        with pytest.raises(RenderError, match=r"^traversal form cannot render this call: "
                                              r"not a char_tree term: 'X1'$"):
            render(expr)


def test_a_call_on_a_term_off_the_char_tree_shape_raises_render_error():
    # the message names the first node off the shape, at the root or deep in a subtree
    deep = branch("a", leaf(), branch("b", peano_encode(2), leaf()))
    for arg, name in ((bin_encode(4), "X0"), (bin_encode(1), "01"), (peano_encode(3), "S"),
                      (deep, "S")):
        with pytest.raises(RenderError) as raised:
            render_state_unroll(Concat(ListLit(("x",)), Call("inorder", (arg,))))
        assert not isinstance(raised.value, MalformedSequenceError)
        assert str(raised.value) == (f"traversal form cannot render this call: "
                                     f"not a char_tree term: {name!r}")
