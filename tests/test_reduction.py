"""Reduction engine: levels, single steps, traces, renderings."""

import math
import random

import pytest

from structrec.datasets import record_rng
from structrec.errors import FuelExhaustedError, ReductionError
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
    Value,
    Var,
    _big_step,
    builtin_programs,
    is_normal,
    levels,
    parse_state_paren,
    parse_state_unroll,
    recursion_depth,
    reduce,
    reduce_k,
    render_state_paren,
    render_state_unroll,
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
    return Call("s", (Value(bin_encode(n)),))


def run(expr):
    final, trace = reduce(expr)
    return final, trace


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
    final, _ = run(Call("s", (Value(delinearize(tokenize(arg), BIN_POS)),)))
    assert isinstance(final, Value)
    assert linearize(final.term) == tokenize(expected)


def test_successor_is_plus_one_random():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(1, 2**40)
        final, _ = run(s_of(n))
        assert bin_value(final.term) == n + 1


def test_successor_trace_eleven():
    _, trace = run(s_of(11))
    assert len(trace) == 3
    assert render_trace(trace, PAREN) == (
        "( X1 X1 X0 01 ) = X0 ( X1 X0 01 ) = X0 X0 ( X0 01 ) = X0 X0 X1 01"
    )


def test_successor_trace_five():
    _, trace = run(s_of(5))
    assert render_trace(trace, PAREN) == "( X1 X0 01 ) = X0 ( X0 01 ) = X0 X1 01"


def test_trace_level_count_is_x1_run_plus_one():
    for n in range(1, 2048):
        _, trace = run(s_of(n))
        assert len(trace) == bin_x1_run(n) + 1


def _stepped(expr, programs=None):
    return sum(1 for _ in levels(expr, programs))


def test_recursion_depth_matches_trace_length():
    # recursion_depth and len(trace) both come from big-step, so the depth
    # law is held to a count of the stepping engine's levels
    for n in range(1, 2048):
        assert recursion_depth(bin_encode(n)) == _stepped(s_of(n))
    rng = random.Random(11)
    for _ in range(40):
        tree = _tree_of_size(rng, rng.randint(0, 60))
        for kind in ("inorder", "preorder"):
            assert recursion_depth(tree, kind) == _stepped(Call(kind, (Value(tree),)))
        args = (peano_encode(rng.randint(1, 40)), peano_encode(rng.randint(1, 40)))
        assert recursion_depth(args, "add") == _stepped(Call("add", tuple(map(Value, args))))


def test_reduce_takes_no_step_until_the_steps_are_read(monkeypatch):
    import structrec.reduction as reduction

    def no_levels(*args, **kwargs):
        raise AssertionError("levels() ran")

    monkeypatch.setattr(reduction, "levels", no_levels)
    for expr, tokens, length in [
        (s_of(11), ["X0", "X0", "X1", "01"], 3),
        (Call("add", (Value(peano_encode(2)), Value(peano_encode(1)))), ["S", "S", "I"], 2),
        (Call("inorder", (Value(CAT_TREE),)), ["c", "a", "t"], 3),
        (Call("preorder", (Value(CAT_TREE),)), ["a", "c", "t"], 3),
    ]:
        final, trace = reduce(expr)
        assert trace.initial is expr and trace.final is final and len(trace) == length
        assert (linearize(final.term) if isinstance(final, Value) else list(final.items)) == tokens
    with pytest.raises(AssertionError, match="levels"):
        trace.steps


# ---------------------------------------------------------------------------
# addition


def test_add_two_plus_one():
    final, trace = run(Call("add", (Value(peano_encode(2)), Value(peano_encode(1)))))
    assert isinstance(final, Value)
    assert linearize(final.term) == ["S", "S", "I"]
    assert len(trace) == 2


def test_add_commutes_on_values():
    rng = random.Random(6)
    for _ in range(50):
        a, b = rng.randint(1, 20), rng.randint(1, 20)
        fa, _ = run(Call("add", (Value(peano_encode(a)), Value(peano_encode(b)))))
        fb, _ = run(Call("add", (Value(peano_encode(b)), Value(peano_encode(a)))))
        assert peano_value(fa.term) == peano_value(fb.term) == a + b


# ---------------------------------------------------------------------------
# traversals


def test_inorder_cat():
    final, trace = run(Call("inorder", (Value(CAT_TREE),)))
    assert final == ListLit(("c", "a", "t"))
    assert len(trace) == 3


def test_preorder_cat():
    final, _ = run(Call("preorder", (Value(CAT_TREE),)))
    assert final == ListLit(("a", "c", "t"))


def test_inorder_arrow_trace():
    _, trace = run(Call("inorder", (Value(CAT_TREE),)))
    assert render_trace(trace, ARROW) == (
        "UNROLL[ a ( c LEAF LEAF ) ( t LEAF LEAF ) ] -> "
        "UNROLL[ c LEAF LEAF ] a UNROLL[ t LEAF LEAF ] -> "
        "EMPTY c EMPTY a EMPTY t EMPTY -> "
        "c a t"
    )


def test_inorder_leaf_is_empty_list():
    final, trace = run(Call("inorder", (Value(leaf()),)))
    assert final == ListLit(())
    assert len(trace) == 1


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
        final, _ = run(Call(kind, (Value(tree),)))
        assert list(final.items) == ref(tree)


def test_traversal_level_count_is_depth_plus_one():
    # each level resolves one frontier of calls, plus a final flatten
    rng = random.Random(8)
    for _ in range(100):
        tree = branch(rng.choice("abc"), _random_tree(rng, 4), _random_tree(rng, 4))
        _, trace = run(Call("inorder", (Value(tree),)))
        from structrec.terms import tree_depth

        assert len(trace) == tree_depth(tree) + 1


# ---------------------------------------------------------------------------
# stepping discipline


def test_step_level_expands_whole_frontier():
    expr = Call("inorder", (Value(CAT_TREE),))
    one = step_level(expr)[0]
    # both children become calls at once
    two = step_level(one)[0]
    rendered = render_state_unroll(two)
    assert rendered == ["EMPTY", "c", "EMPTY", "a", "EMPTY", "t", "EMPTY"]


def test_step_single_is_leftmost_outermost():
    expr = Call("inorder", (Value(CAT_TREE),))
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
    assert step_level(Value(bin_encode(9))) is None
    assert step_single(ListLit(("a",))) is None


def test_is_normal():
    assert is_normal(Value(bin_encode(3)))
    assert is_normal(ListLit(("a", "b")))
    assert not is_normal(s_of(3))
    assert not is_normal(Concat(ListLit(()), ListLit(())))


def test_reduce_k_partial():
    state, taken = reduce_k(s_of(7), 2)
    assert taken == 2
    assert render_state_paren(state) == ["X0", "X0", "(", "01", ")"]


def test_reduce_k_overshoot_stops_at_normal():
    state, taken = reduce_k(s_of(7), 50)
    assert taken == 3
    assert is_normal(state)


def test_reduce_k_zero_is_identity():
    expr = s_of(7)
    state, taken = reduce_k(expr, 0)
    assert state == expr and taken == 0


def test_fuel_exhaustion():
    with pytest.raises(FuelExhaustedError):
        reduce(s_of(2**40 - 1), fuel=3)


def test_default_fuel_suffices_for_long_runs():
    final, _ = reduce(s_of(2**60 - 1))
    assert bin_value(final.term) == 2**60


# ---------------------------------------------------------------------------
# program hygiene


def test_programs_cover_all_constructors():
    with pytest.raises(ValueError):
        Program(
            name="half",
            params=("n",),
            arg_type=BIN_POS,
            clauses=(Clause("01", (), Value(bin_encode(1))),),
        )


def test_programs_must_recurse_structurally():
    with pytest.raises(ValueError):
        Program(
            name="bad",
            params=("n",),
            arg_type=PEANO,
            clauses=(
                Clause("I", (), Value(peano_encode(1))),
                # recursing on the whole argument, not the child binder
                Clause("S", ("p",), Call("bad", (Call("bad", (Var("q"),)),))),
            ),
        )


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
    expr = Call("inorder", (Value(CAT_TREE),))
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
    final, trace = reduce(Call("s", (Value(term),)))
    assert len(trace) == 4
    assert bin_value(final.term) == bin_value(term) + 1
    text = render_trace(trace, PAREN)
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
        expr = Concat(expr, Call("inorder", (Value(leaf()),))) if i % 2 else Concat(
            ListLit(("b",)), expr)
    return expr


def test_expression_repr_text():
    args = (Call("s", (Value(bin_encode(2)),)), ListLit((X0, Var("x"))))
    expr = Concat(Ctor("Branch", ("a",), args), Ctor(ONE, (), ()))
    assert repr(expr) == (
        "Concat(left=Ctor(name='Branch', payloads=('a',), args=(Call(fn='s', args=("
        "Value(term=Term(constructor='X0', payloads=(), children=("
        "Term(constructor='01', payloads=(), children=()),))),)), "
        "ListLit(items=('X0', Var(name='x'))))), right=Ctor(name='01', payloads=(), args=()))")


def test_deep_expressions_compare_hash_and_print_past_the_recursion_limit():
    chain = _ctor_chain(3000, Value(bin_encode(3)))
    same = _ctor_chain(3000, Value(bin_encode(3)))
    assert chain == same and hash(chain) == hash(same)
    assert chain != _ctor_chain(3000, Value(bin_encode(5)))
    assert chain != _ctor_chain(2999, Value(bin_encode(3)))
    assert repr(chain) == ("Ctor(name='X0', payloads=(), args=(" * 3000
                           + repr(Value(bin_encode(3))) + ",))" * 3000)
    cat = _concat_chain(3000)
    assert cat == _concat_chain(3000) and hash(cat) == hash(_concat_chain(3000))
    assert cat != _concat_chain(3000, last="b") and cat != _concat_chain(2999)
    assert repr(cat).count("Concat(left=") == 3000


def test_inorder_of_a_left_spine_past_the_recursion_limit():
    # level k holds a concat chain about 2k deep, so the trace holds about
    # depth**2 nodes; 700 keeps that small, while a walk of its states that
    # recursed per node would pass Python's default limit of 1,000 frames
    tree = tree_parse(tree_serialize(_left_spine(700)))
    final, trace = reduce(Call("inorder", (Value(tree),)))
    assert len(trace) == 701
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
    return (type(expr), linearize(expr.term) if isinstance(expr, Value) else list(expr.items))


def _assert_big_step_is_levels(expr, programs=None):
    """Big-step gives the levels() normal form and level count L within L
    levels and gives way below it, where reduce raises FuelExhaustedError;
    returns L."""
    expected, taken = _by_levels(expr, programs)
    programs = builtin_programs() if programs is None else programs
    got = _big_step(expr, programs, taken)
    assert got is not None and _tokens(got[0]) == _tokens(expected) and got[1] == taken
    final, trace = reduce(expr, programs, fuel=taken)
    assert _tokens(final) == _tokens(expected) and len(trace) == taken
    if taken > 1:
        assert _big_step(expr, programs, taken - 1) is None
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
                Call("add", (Value(peano_encode(n)), Value(peano_encode(size - n)))))
        else:
            tree = _tree_of_size(rng, max(1, (size - 1) // 3))
            expr = Call(program, (Value(tree),))
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
    # lists of three items, built by the general loop rather than a fixed arity
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
        expr = Call(program, (Value(arg),))
        if program != "mistyped":
            _assert_big_step_is_levels(expr, programs)
            continue
        assert _big_step(expr, programs, 10**6) is None
        by_levels = _outcome(lambda: _by_levels(expr, programs)[0])
        assert _outcome(lambda: reduce(expr, programs)[0]) == by_levels
        assert not isinstance(by_levels, (Value, ListLit))


def test_default_fuel_is_sized_only_past_four_levels(monkeypatch):
    # the default budget is at least 4, so shallower runs never count tokens
    import structrec.reduction as reduction

    sized = []
    monkeypatch.setattr(reduction, "_token_count", lambda expr, enough: sized.append(expr) or 50)
    assert _tokens(reduce(s_of(0b1111))[0]) == (Value, linearize(bin_encode(16)))  # four
    assert sized == []
    assert _tokens(reduce(s_of(0b11111))[0]) == (Value, linearize(bin_encode(32)))  # five
    assert sized == [s_of(0b11111)]
    # no call fires past level 3, but joining the leaves' lists takes two more
    programs = {**builtin_programs(), **HAND_BUILT}
    tree = branch("a", branch("b", branch("c", leaf(), leaf()), leaf()), leaf())
    expr = Call("wrap", (Value(tree),))
    expected, taken = _by_levels(expr, programs)
    got, level = _big_step(expr, programs, None)
    assert level == taken == 5 and _tokens(got) == _tokens(expected)
    assert len(sized) == 2


def test_default_fuel_counts_only_until_it_passes_the_level():
    # big-step asks only whether twice the count passes the level reached,
    # so a large input is counted no further than that
    from structrec.reduction import _budget, _token_count, expr_token_count

    tree = _tree_of_size(random.Random(4), 3000)
    expr = Call("inorder", (Value(tree),))
    full = expr_token_count(expr)
    assert full > 9000 and _token_count(expr, math.inf) == full
    assert 10 <= _token_count(expr, 10) <= 12  # a Branch adds 2, a Leaf 1, the call 1
    for past in (0, 3, 4, 9, 100, 2 * full - 1, 2 * full, 10 * full):
        budget = _budget(expr, None, past)
        assert budget == 2 * full if 2 * full <= past else past < budget <= 2 * full
    assert _budget(expr, None) == 2 * full and _budget(expr, 7, 1) == 7
    deep = s_of(2**40 - 1)  # 40 levels: sized in steps as the levels pass 4, 8, ...
    assert _tokens(reduce(deep)[0]) == (Value, linearize(bin_encode(2**40)))


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
    for expr in (Call("s", (Value(Term(X0)),)),
                 Call("s", (Value(Term(X1, (), (Term(ONE), Term(ONE)))),)),
                 Call("s", (Value(Term(X0, ("a",), (Term(ONE),))),)),
                 Call("inorder", (Value(Term("Branch", ("a", "b"), (leaf(),))),)),
                 Call("right", (Value(Term("Node", ("x",), (node, Term("Tip")))),)),
                 Call("add", (Value(peano_encode(2)),)),
                 Call("s", (Value(bin_encode(5)), Value(bin_encode(1))))):
        assert _big_step(expr, programs, 100) is None
        by_levels = _outcome(lambda: _by_levels(expr, programs)[0])
        assert _outcome(lambda: reduce(expr, programs)[0]) == by_levels


@pytest.mark.parametrize("expr,message", [
    (Call("s", (Value(Term(X0)),)), r"s on 'X0' .* \(0, 1, 1\), got \(0, 0, 1\)"),
    (Call("add", (Value(peano_encode(2)),)), r"add on 'S' .* \(0, 1, 2\), got \(0, 1, 1\)"),
    (Call("s", (Value(Term(X1, (), (Term(ONE), Term(ONE)))),)), r"s on 'X1' .* got \(0, 2, 1\)"),
    (Call("s", (Value(Term(X0, ("a",), (Term(ONE),))),)), r"s on 'X0' .* got \(1, 1, 1\)"),
    (Call("s", (Value(bin_encode(5)), Value(bin_encode(1)))), r"s on 'X1' .* got \(0, 1, 2\)"),
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
        assert expr_token_count(Value(term)) == len(linearize(term))
    add = Call("add", (Value(peano_encode(3)), Value(peano_encode(2))))
    assert expr_token_count(add) == 1 + 3 + 2


PEANO_ONE = Value(peano_encode(1))


def _peano_program(name, params, on_one, on_succ):
    return Program(name, params, PEANO, (Clause("I", (), on_one), Clause("S", ("p",), on_succ)))


def test_a_pending_other_argument_leaves_the_normal_form_to_levels():
    # the outer add fires while its second argument is still an add call,
    # which levels() substitutes unevaluated
    twice = _peano_program("twice", ("n", "m"), Var("m"),
                           Call("add", (Var("p"), Call("add", (Var("p"), Var("m"))))))
    programs = {**builtin_programs(), "twice": twice}
    expr = Call("twice", (Value(peano_encode(4)), Value(peano_encode(3))))
    assert _big_step(expr, programs, 100) is None
    expected, taken = _by_levels(expr, programs)
    final, trace = reduce(expr, programs)
    assert _tokens(final) == _tokens(expected) and len(trace) == taken
    assert peano_value(expected.term) == 3 + 3 + 3  # p + (p + m) with p = n - 1
    # its steps are the levels() steps, taken when first read
    stepped = [(engine.paths, engine.rules) for engine in levels(expr, programs)]
    assert [(step.paths, step.rules) for step in trace.steps] == stepped
    assert trace.steps[-1].after == final and trace.states()[0] is expr


def test_a_missing_clause_raises_the_levels_error():
    wrong = _peano_program("wrong", ("n",), Call("s", (PEANO_ONE,)), Call("wrong", (Var("p"),)))
    programs = {**builtin_programs(), "wrong": wrong}
    expr = Call("wrong", (Value(peano_encode(3)),))
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
    expr = Call("ping", (Value(peano_encode(3)),))
    assert _big_step(expr, programs, 8) is None
    with pytest.raises(FuelExhaustedError, match="within 8 levels"):
        reduce(expr, programs)


def test_big_step_takes_a_hundred_thousand_token_numeral():
    term = delinearize(["X1"] * 99_999 + ["01"], BIN_POS)
    expr = Call("s", (Value(term),))
    final, level = _big_step(expr, builtin_programs(), 100_000)
    assert linearize(final.term) == ["X0"] * 100_000 + ["01"] and level == 100_000
    assert _big_step(expr, builtin_programs(), 99_999) is None


def test_big_step_takes_a_depth_ten_thousand_left_spine():
    tree = _left_spine(10_000)
    expr = Call("inorder", (Value(tree),))
    final, level = _big_step(expr, builtin_programs(), 10_001)
    assert list(final.items) == _walk_inorder(tree) and level == 10_001
    assert _big_step(expr, builtin_programs(), 10_000) is None


# ---------------------------------------------------------------------------
# the one-pass engine


def _run_levels(expr, single=False):
    """The rules of each step a levels() run takes, and the state it ends in."""
    rules, engine = [], None
    for engine in levels(expr, single=single):
        rules.append(engine.rules)
    return rules, (expr if engine is None else engine.expr())


def test_one_pass_engine_agrees_with_big_step_on_random_inputs():
    rng = record_rng(13, "one-pass", 0)
    exprs = [s_of(rng.randrange(1, 2**80)) for _ in range(60)]
    exprs += [s_of(2**k - 1) for k in (1, 2, 40, 79)]
    for i in range(160):
        tree = _random_tree(rng, rng.randint(1, 7))
        if i % 2 and tree.constructor != "Leaf":  # a parsed tree renders from its span
            tree = tree_parse(tree_serialize(tree))
        exprs.append(Call(("inorder", "preorder")[i % 4 // 2], (Value(tree),)))
    for expr in exprs:
        final, trace = reduce(expr)
        by_level, last = _run_levels(expr)
        assert len(by_level) == len(trace) and _tokens(last) == _tokens(final)
        assert by_level == [step.rules for step in trace.steps]
        by_single, last = _run_levels(expr, single=True)
        assert _tokens(last) == _tokens(final)
        # a level's rewrites are the single steps' rewrites, taken at once
        assert sorted(r for rules in by_single for r in rules) == sorted(
            r for rules in by_level for r in rules)
        assert all(len(rules) == 1 for rules in by_single)


def test_unknown_programs_and_unbound_variables_raise_on_the_first_step():
    nope = Call("nope", (Value(leaf()),))
    pending = Call("inorder", (Value(CAT_TREE),))
    for expr, message in ((nope, "unknown program: 'nope'"),
                          (Concat(pending, Concat(ListLit(("a",)), nope)), "unknown program"),
                          (Concat(pending, Var("x")), "unbound template variable")):
        for single in (False, True):
            with pytest.raises(ReductionError, match=message):
                next(levels(expr, single=single))


def test_an_instance_calling_an_unknown_program_raises_in_the_step_that_builds_it():
    hop = _peano_program("hop", ("n",), ListLit(("end",)), Call("gone", (Var("p"),)))
    relay = _peano_program("relay", ("n",), ListLit(()), Call("hop", (Var("p"),)))
    programs = {**builtin_programs(), "hop": hop, "relay": relay}
    assert [e.rules for e in levels(Call("hop", (PEANO_ONE,)), programs)] == [("hop/I",)]
    run = levels(Call("relay", (Value(peano_encode(3)),)), programs)
    assert next(run).rules == ("relay/S",)
    with pytest.raises(ReductionError, match="unknown program: 'gone'"):
        next(run)
