"""Token and term layer: encodings, round trips, orders, respelling."""

import random
import re

import pytest

from structrec.errors import MalformedSequenceError, RemapError
from structrec.terms import (
    BIN_POS,
    CHAR_TREE,
    NATURAL,
    PEANO,
    REVERSE,
    ConstructorDef,
    InductiveDef,
    Term,
    _TOKEN_RE,
    _bin_terms,
    _chain_length,
    bin_encode,
    bin_value,
    bin_x1_run,
    branch,
    delinearize,
    leaf,
    linearize,
    normalize_tokens,
    peano_encode,
    peano_value,
    remap_tokens,
    reorder,
    tokenize,
    tree_depth,
    tree_parse,
    tree_serialize,
)

KNOWN_ENCODINGS = [
    (1, ["01"]),
    (2, ["X0", "01"]),
    (3, ["X1", "01"]),
    (4, ["X0", "X0", "01"]),
    (5, ["X1", "X0", "01"]),
    (6, ["X0", "X1", "01"]),
    (7, ["X1", "X1", "01"]),
    (11, ["X1", "X1", "X0", "01"]),
    (13, ["X1", "X0", "X1", "01"]),
    (131072, ["X0"] * 17 + ["01"]),
]


@pytest.mark.parametrize("value,tokens", KNOWN_ENCODINGS)
def test_bin_encode_known(value, tokens):
    assert linearize(bin_encode(value)) == tokens
    assert bin_value(bin_encode(value)) == value


def test_bin_round_trip_exhaustive():
    for n in range(1, 4096):
        assert bin_value(bin_encode(n)) == n


def test_bin_round_trip_large():
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(1, 2**200)
        assert bin_value(bin_encode(n)) == n


def _chain_nodes(term):
    while True:
        yield term
        if not term.children:
            return
        term = term.children[0]


def test_bin_terms_equal_bin_encode_over_a_range():
    rng = random.Random(5)
    ranges = [(1, 1), (1, 700), (2**11 - 30, 2**13 + 30), (2**40 - 5, 2**40 + 5)]
    for _ in range(20):
        lo = rng.randint(1, 2**rng.randint(1, 64))
        ranges.append((lo, lo + rng.randint(0, 300)))
    for lo, hi in ranges:
        assert list(_bin_terms(lo, hi)) == [bin_encode(v) for v in range(lo, hi + 1)]


def test_bin_terms_of_two_thousand_bits():
    rng = random.Random(6)
    for value in (2**2000 - 1, 2**1999, rng.getrandbits(2000) | 2**1999):
        assert list(_bin_terms(value, value)) == [bin_encode(value)]
    lo, hi = 2**2000 - 3, 2**2000 + 3  # crosses a power of two
    assert list(_bin_terms(lo, hi)) == [bin_encode(v) for v in range(lo, hi + 1)]


def test_bin_terms_share_the_terms_of_high_bits():
    terms = list(_bin_terms(1, 2**12))
    nodes = {id(node) for term in terms for node in _chain_nodes(term)}
    # a value builds one node per bit the carry changes, 2 on average; each
    # new bit length builds its whole chain
    assert len(nodes) <= 2 * len(terms) + sum(range(1, 14))


@pytest.mark.parametrize("bad", [0, -1, -7])
def test_bin_encode_rejects_nonpositive(bad):
    with pytest.raises(ValueError):
        bin_encode(bad)


def test_peano_round_trip():
    # I denotes one, so the domain starts there
    for n in range(1, 50):
        term = peano_encode(n)
        assert peano_value(term) == n
    assert linearize(peano_encode(1)) == ["I"]
    assert linearize(peano_encode(3)) == ["S", "S", "I"]


def test_peano_rejects_zero():
    with pytest.raises(ValueError):
        peano_encode(0)


def test_bin_x1_run_matches_leading_x1_tokens():
    """The run length is exactly the count of leading X1 constructors."""
    for n in range(1, 8192):
        toks = linearize(bin_encode(n))
        lead = 0
        for tok in toks:
            if tok != "X1":
                break
            lead += 1
        assert bin_x1_run(n) == lead, n


@pytest.mark.parametrize("n,run", [(1, 0), (2, 0), (3, 1), (7, 2), (11, 2), (15, 3), (12, 0)])
def test_bin_x1_run_known(n, run):
    assert bin_x1_run(n) == run


# ---------------------------------------------------------------------------
# linearize / delinearize


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        return leaf()
    return branch(rng.choice("abc"), _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def test_linearize_round_trip_bin():
    rng = random.Random(1)
    for _ in range(2000):
        term = bin_encode(rng.randint(1, 2**48))
        assert delinearize(linearize(term), BIN_POS) == term


def test_linearize_round_trip_peano():
    for n in range(1, 40):
        term = peano_encode(n)
        assert delinearize(linearize(term), PEANO) == term


def test_linearize_round_trip_tree():
    rng = random.Random(2)
    for _ in range(2000):
        term = _random_tree(rng, 5)
        assert delinearize(linearize(term), CHAR_TREE) == term


def test_delinearize_dangling():
    with pytest.raises(MalformedSequenceError):
        delinearize(["X0", "X1"], BIN_POS)


def test_delinearize_trailing():
    with pytest.raises(MalformedSequenceError):
        delinearize(["01", "01"], BIN_POS)


def test_delinearize_unknown_constructor():
    with pytest.raises(MalformedSequenceError):
        delinearize(["X2", "01"], BIN_POS)


def test_delinearize_missing_payload():
    with pytest.raises(MalformedSequenceError):
        delinearize(["Branch"], CHAR_TREE)


def test_delinearize_empty():
    with pytest.raises(MalformedSequenceError):
        delinearize([], BIN_POS)


def _outcome(call):
    try:
        return call()
    except MalformedSequenceError as exc:
        return str(exc)


@pytest.mark.parametrize("idef", [BIN_POS, PEANO], ids=lambda idef: idef.name)
def test_chain_parse_agrees_with_the_generic_loop(idef):
    """A chain type takes the one-pass parse; the same constructors plus
    one with payloads and two children take the generic loop.  Both give
    the same terms, counts and errors, in both modes."""
    generic = InductiveDef(idef.name, idef.constructors + (ConstructorDef("Pair", 2, ("c",)),))
    assert idef._links is not None and generic._links is None
    rng = random.Random(3)
    vocab = ("X0", "X1", "01", "XO", "S", "I", "Q")
    for _ in range(3000):
        tokens = [rng.choice(vocab) for _ in range(rng.choice((0, 1, 2, 4, 9)))]
        for prefix in (False, True):
            chain = _outcome(lambda: delinearize(tokens, idef, prefix=prefix))
            assert chain == _outcome(lambda: delinearize(tokens, generic, prefix=prefix))
            used = chain[1] if prefix and not isinstance(chain, str) else len(tokens)
            assert _outcome(lambda: _chain_length(normalize_tokens(tokens), idef, prefix)) == (
                chain if isinstance(chain, str) else used)


def test_parsed_terms_keep_their_spans():
    tokens = ["X1", "XO", "X1", "01", "X0"]
    term, used = delinearize(tokens, BIN_POS, prefix=True)
    assert used == 4
    assert linearize(term) == ["X1", "X0", "X1", "01"]
    assert linearize(term.children[0].children[0]) == ["X1", "01"]
    assert term == bin_encode(13) and hash(term) == hash(bin_encode(13))
    assert repr(term) == repr(bin_encode(13))
    linearize(term).append("X0")  # a copy: the span stays as it was
    assert linearize(term) == ["X1", "X0", "X1", "01"]
    tree = delinearize(linearize(CAT_TREE), CHAR_TREE)
    assert linearize(tree.children[1]) == linearize(CAT_TREE.children[1])
    assert Term("X0", (), (term,))._span is None
    assert linearize(Term("X0", (), (term,))) == ["X0", "X1", "X0", "X1", "01"]


def _built(tree):
    """The same tree made with Term(...), so it holds no span."""
    if tree.constructor == "Leaf":
        return Term("Leaf")
    return Term("Branch", tree.payloads, tuple(_built(kid) for kid in tree.children))


def _random_branch(rng, depth):
    kids = [leaf() if depth == 1 or rng.random() < 0.3 else _random_branch(rng, depth - 1)
            for _ in range(2)]
    return branch(rng.choice(("a", "b", "c", "X0")), *kids)


def _subtrees(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.constructor != "Leaf":
            yield node
            stack += node.children


def test_parsed_trees_serialize_from_their_spans():
    rng = random.Random(23)
    for _ in range(200):
        tokens = tree_serialize(_random_branch(rng, rng.randint(1, 7)))
        tree = tree_parse(tokens)
        assert tree_serialize(tree) == tokens
        for node in _subtrees(tree):  # every Branch keeps its own span
            assert node._tree_span is not None and node._span is None
            assert tree_serialize(node) == tree_serialize(_built(node))
        built = _built(tree)
        assert built._tree_span is None
        assert tree == built and hash(tree) == hash(built) and repr(tree) == repr(built)
        assert linearize(tree) == linearize(built)
        from structrec.reduction import Value, expr_token_count

        assert expr_token_count(Value(tree)) == expr_token_count(Value(built))


def test_a_serialized_span_is_a_fresh_copy():
    tokens = tokenize("a ( b LEAF LEAF ) ( c LEAF ( a LEAF LEAF ) )")
    tree = tree_parse(tokens)
    out = tree_serialize(tree)
    out[0] = "z"
    out.append("LEAF")
    tree_serialize(tree.children[1]).clear()
    tokens[0] = "y"  # nor does the caller's list back the span
    assert tree_serialize(tree) == tokenize("a ( b LEAF LEAF ) ( c LEAF ( a LEAF LEAF ) )")
    assert tree_serialize(tree.children[1]) == tokenize("c LEAF ( a LEAF LEAF )")
    assert tree_serialize(tree) is not tree_serialize(tree)


def test_parsed_trees_and_states_normalize_aliases():
    from structrec.reduction import builtin_programs, parse_state_unroll, render_state_unroll

    tree = tree_parse(["XO", "(", "b", "LEAF", "LEAF", ")", "LEAF"])
    assert tree_serialize(tree) == ["X0", "(", "b", "LEAF", "LEAF", ")", "LEAF"]
    state = parse_state_unroll(tokenize("c REDUCE[ XO LEAF LEAF ] EMPTY"),
                               builtin_programs()["inorder"])
    assert render_state_unroll(state) == ["c", "UNROLL[", "X0", "LEAF", "LEAF", "]", "EMPTY"]


def test_bin_encode_is_the_chain_delinearize_reads():
    rng = random.Random(29)
    for n in [1, 2, 3, 13, 2**17 - 1] + [rng.randrange(1, 2**80) for _ in range(50)]:
        term = bin_encode(n)
        built = Term("01")
        for op in reversed(linearize(term)[:-1]):
            built = Term(op, children=(built,))
        assert term == built and hash(term) == hash(built) and repr(term) == repr(built)
        assert term == delinearize(linearize(built), BIN_POS) and bin_value(term) == n
        assert linearize(term) == linearize(built) and term._span is not None


# ---------------------------------------------------------------------------
# tokens and aliases


def test_tokenize_splits_on_whitespace():
    assert tokenize("X1  X0\t01") == ["X1", "X0", "01"]


def test_tokenize_letter_o_alias():
    # the digit spelling is canonical, the letter-O one is accepted
    assert tokenize("XO XO X1 01") == ["X0", "X0", "X1", "01"]
    assert normalize_tokens(["XO", "01"]) == ["X0", "01"]


def test_tokenize_unroll_alias():
    assert tokenize("REDUCE[ a LEAF LEAF ]") == ["UNROLL[", "a", "LEAF", "LEAF", "]"]


def test_tokenize_parens_without_spaces():
    assert tokenize("(X1 01)") == ["(", "X1", "01", ")"]


ALL_CHARS = "".join(map(chr, range(0x110000)))
WHITESPACE = [c for c in ALL_CHARS if c.isspace()]
TEXT_PIECES = ("X0", "X1", "01", "LEAF", "EMPTY", "a", "b", "Q", "(", ")", "[", "]", "UNROLL[",
               "REDUCE[", "XO", "XOR", "aXO", "XOX", "X", "O", "REDUCE", "\u200b", "\xa0X1")


def test_regex_whitespace_is_str_isspace():
    # what lets tokenize split text without brackets on str.split
    assert re.findall(r"\s", ALL_CHARS) == WHITESPACE


def test_tokenize_agrees_with_the_token_regex():
    rng = random.Random(8)
    for case in range(4000):
        parts = []
        for _ in range(rng.randint(0, 12)):
            if rng.random() < 0.4:
                parts.append("".join(rng.choices(WHITESPACE, k=rng.randint(1, 3))))
            else:
                parts.append(rng.choice(TEXT_PIECES))  # glued when no whitespace falls between
        text = "".join(parts)
        assert tokenize(text) == normalize_tokens(_TOKEN_RE.findall(text)), (case, text)


# ---------------------------------------------------------------------------
# orders


def test_reorder_is_reversal():
    assert reorder(["X1", "X0", "01"], NATURAL) == ["01", "X0", "X1"]
    assert reorder(["01", "X0", "X1"], REVERSE) == ["X1", "X0", "01"]


def test_reorder_round_trip():
    rng = random.Random(3)
    for _ in range(500):
        toks = linearize(bin_encode(rng.randint(1, 2**32)))
        assert reorder(reorder(toks, NATURAL), REVERSE) == toks


def test_reorder_keeps_spellings():
    # only the sequence flips, X0/X1 spellings stay put
    assert reorder(["X0", "X1", "01"], NATURAL) == ["01", "X1", "X0"]


def test_reorder_identity_when_already_there():
    assert reorder(["X1", "01"], REVERSE) == ["X1", "01"]
    assert reorder(["01", "X1"], NATURAL) == ["01", "X1"]


def test_reorder_single_token():
    assert reorder(["01"], NATURAL) == ["01"]
    assert reorder(["01"], REVERSE) == ["01"]


def test_reorder_rejects_malformed():
    with pytest.raises(MalformedSequenceError):
        reorder(["X0", "X1"], NATURAL)


# ---------------------------------------------------------------------------
# trees


CAT_TREE = branch("a", branch("c", leaf(), leaf()), branch("t", leaf(), leaf()))


def test_tree_serialize_known():
    assert tree_serialize(CAT_TREE) == [
        "a", "(", "c", "LEAF", "LEAF", ")", "(", "t", "LEAF", "LEAF", ")",
    ]


def test_tree_parse_round_trip():
    rng = random.Random(4)
    for _ in range(2000):
        tree = branch(rng.choice("abc"), _random_tree(rng, 4), _random_tree(rng, 4))
        assert tree_parse(tree_serialize(tree)) == tree


def test_tree_serialize_rejects_bare_leaf():
    with pytest.raises(MalformedSequenceError):
        tree_serialize(leaf())


def test_tree_parse_rejects_unbalanced():
    with pytest.raises(MalformedSequenceError):
        tree_parse(["a", "(", "c", "LEAF", "LEAF"])


def test_tree_depth():
    assert tree_depth(leaf()) == 0
    assert tree_depth(branch("a", leaf(), leaf())) == 1
    assert tree_depth(CAT_TREE) == 2


def test_tree_depth_of_a_spine_past_the_recursion_limit():
    tree = leaf()
    for i in range(10_000):
        tree = branch("a", leaf(), tree) if i % 2 else branch("b", tree, leaf())
    assert tree_depth(tree) == 10_000


# ---------------------------------------------------------------------------
# respelling


def test_remap_tokens():
    mapping = {"X0": "a", "X1": "b", "01": "c"}
    assert remap_tokens(["X1", "X0", "01"], mapping) == ["b", "a", "c"]


def test_remap_requires_known_tokens():
    with pytest.raises(RemapError):
        remap_tokens(["X1", "Q"], {"X1": "b"})


def test_remap_requires_injective():
    with pytest.raises(RemapError):
        remap_tokens(["X1", "X0", "01"], {"X0": "a", "X1": "a", "01": "c"})


def test_invert_remap_round_trip():
    mapping = {"X0": "a", "X1": "b", "01": "c"}
    toks = ["X1", "X0", "X0", "01"]
    inverse = {v: k for k, v in mapping.items()}
    assert remap_tokens(remap_tokens(toks, mapping), inverse) == toks


# ---------------------------------------------------------------------------
# definitions


def test_builtin_defs_vocabularies():
    assert [d.name for d in (PEANO, BIN_POS, CHAR_TREE)] == ["peano", "bin_pos", "char_tree"]
    assert BIN_POS.vocabulary == {"01", "X0", "X1"}
    assert PEANO.vocabulary == {"I", "S"}
    assert CHAR_TREE.vocabulary == {"Leaf", "Branch"}


def test_term_equality_is_structural():
    assert bin_encode(6) == Term("X0", (), (Term("X1", (), (Term("01"),)),))


def test_term_repr_text():
    assert repr(bin_encode(2)) == ("Term(constructor='X0', payloads=(), children=("
                                   "Term(constructor='01', payloads=(), children=()),))")
    assert repr(branch("a", leaf(), leaf())) == (
        "Term(constructor='Branch', payloads=('a',), children=("
        "Term(constructor='Leaf', payloads=(), children=()), "
        "Term(constructor='Leaf', payloads=(), children=())))")


def _left_spine(depth, last="a"):
    tree = leaf()
    for i in range(depth):
        tree = branch(last if i == depth - 1 else "abc"[i % 3], tree, leaf())
    return tree


def test_deep_terms_compare_hash_and_print_past_the_recursion_limit():
    tree = _left_spine(10_000)
    parsed = tree_parse(tree_serialize(tree))
    assert parsed == tree and hash(parsed) == hash(tree)
    assert parsed != _left_spine(10_000, last="b") and parsed != _left_spine(9_999)
    assert repr(parsed) == repr(tree) and repr(parsed).count("Branch") == 10_000

