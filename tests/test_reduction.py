"""Reduction engine: levels, single steps, traces, renderings."""

import random

import pytest

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
    builtin_programs,
    is_normal,
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
    PEANO,
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


def test_recursion_depth_matches_trace_length():
    for n in range(1, 1024):
        _, trace = run(s_of(n))
        assert recursion_depth(bin_encode(n)) == len(trace)


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


def test_inorder_of_a_left_spine_past_the_recursion_limit():
    # level k holds a concat chain about 2k deep, so the trace holds about
    # depth**2 nodes; 700 keeps that small, while a walk of its states that
    # recursed per node would pass Python's default limit of 1,000 frames
    tree = tree_parse(tree_serialize(_left_spine(700)))
    final, trace = reduce(Call("inorder", (Value(tree),)))
    assert len(trace) == 701
    assert list(final.items) == _walk_inorder(tree)
