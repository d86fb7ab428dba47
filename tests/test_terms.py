"""Token and term layer: encodings, round trips, respelling, the node layer."""

import copy
import dataclasses
import operator
import pickle
import random
import re

import pytest

from structrec import terms
from structrec.errors import MalformedSequenceError, RemapError
from structrec.terms import (
    BIN_POS,
    CHAR_TREE,
    ONE,
    PEANO,
    X0,
    ConstructorDef,
    InductiveDef,
    Term,
    _TOKEN_RE,
    _chain_length,
    _check_injective,
    _respelled,
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


@pytest.mark.parametrize("decode, term", [
    (peano_value, Term("S")),
    (peano_value, Term("S", children=(Term("I"), Term("I")))),
    (peano_value, Term("I", children=(Term("I"),))),
    (bin_value, Term(ONE, children=(Term(ONE),))),
    (bin_value, Term(X0)),
], ids=["S-without-child", "S-with-two", "I-with-child", "01-with-child", "X0-without-child"])
def test_the_value_decoders_reject_malformed_terms(decode, term):
    with pytest.raises(MalformedSequenceError):
        decode(term)


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


def _scanned_chain_length(toks, idef, prefix=False):
    """_chain_length by its scan alone, for every input: the reference."""
    try:
        end = operator.indexOf(map(idef._links.__contains__, toks), False) + 1
    except ValueError:
        raise MalformedSequenceError("dangling constructor: token sequence ends early") from None
    idef.constructor(toks[end - 1])
    if not prefix and end != len(toks):
        raise MalformedSequenceError(f"trailing tokens after position {end}")
    return end


def _end_or_error(call):
    try:
        return call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


@pytest.mark.parametrize("idef", [BIN_POS, PEANO], ids=lambda idef: idef.name)
def test_a_whole_chain_is_counted_as_the_scan_finds_it(idef, monkeypatch):
    """Whole chains, damaged ones (a token replaced, inserted or dropped:
    links, bases of both types, an alias, unknown tokens) and empty lists,
    as lists and tuples, in both modes: _chain_length gives the scan's end,
    or raises its exception type with its message."""
    rng = random.Random(39)
    links = sorted(idef._links)
    base = next(c.name for c in idef.constructors if not c.recursive_arity)
    spare = [*links, base, "01", "I", "XO", "Q", ""]
    whole = []
    for _ in range(3000):
        toks = [rng.choice(links) for _ in range(rng.choice((0, 1, 2, 3, 5, 8, 40)))] + [base]
        for _ in range(rng.choice((0, 0, 1, 2))):
            damage, at = rng.choice(("insert", "replace", "drop")), rng.randrange(len(toks) + 1)
            if damage == "insert":
                toks.insert(at, rng.choice(spare))
            elif toks:
                at = min(at, len(toks) - 1)
                toks[at:at + 1] = [rng.choice(spare)] if damage == "replace" else []
        for seq in (toks, tuple(toks)):
            for prefix in (False, True):
                expected = _end_or_error(lambda: _scanned_chain_length(seq, idef, prefix))
                assert _end_or_error(lambda: _chain_length(seq, idef, prefix)) == expected
                if not prefix and expected == len(seq):
                    whole.append(seq)
    assert _end_or_error(lambda: _chain_length([], idef)) == (
        MalformedSequenceError, "dangling constructor: token sequence ends early")
    assert len(whole) > 2000
    monkeypatch.setattr(terms, "operator", None)  # the scan cannot run: each is counted
    assert [_chain_length(seq, idef) for seq in whole] == list(map(len, whole))


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
    built = Term("X0", (), (term,))
    assert built._span is None and built._tree_span is None
    assert linearize(Term("X0", (), (term,))) == ["X0", "X1", "X0", "X1", "01"]


def test_spanned_terms_copy_pickle_and_replace_with_their_spans_readable():
    term = delinearize(["X1", "X0", "01"], BIN_POS)
    tree = tree_parse(tokenize("a ( b LEAF LEAF ) LEAF"))
    for spanned in (term, tree):
        assert not hasattr(spanned, "__dict__")
        copies = [copy.copy(spanned)] + [pickle.loads(pickle.dumps(spanned, protocol))
                                         for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:  # the spans travel with the term
            assert other == spanned and other is not spanned
            assert (other._span, other._tree_span) == (spanned._span, spanned._tree_span)
        replaced = dataclasses.replace(spanned)  # a new term from the fields holds no span
        assert replaced == spanned and replaced._span is None and replaced._tree_span is None
        assert linearize(replaced) == linearize(spanned)


def _spans(term) -> list:
    """The (tokens, start, end) spans of term's nodes, in preorder."""
    out, stack = [], [term]
    while stack:
        t = stack.pop()
        out += [span for span in (t._span, t._tree_span) if span is not None]
        stack += t.children[::-1]
    return out


def test_deep_terms_round_trip_through_pickle_and_deepcopy_with_their_spans():
    # pickle and deepcopy used to recurse once per level, so both raised
    # RecursionError some hundreds of levels down
    tree, bare = leaf(), leaf()
    for i in range(20000):  # depth 20,000, down a path that turns at every third level
        tree = branch("ab"[i % 2], tree, bare) if i % 3 else branch("c", bare, tree)
    numeral, tree = bin_encode(2**99999 + 12345), tree_parse(tree_serialize(tree))
    assert (len(linearize(numeral)), tree_depth(tree)) == (100000, 20000)
    for term in (numeral, tree):
        spans = _spans(term)
        for other in [pickle.loads(pickle.dumps(term, protocol))
                      for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)] + [
                copy.deepcopy(term)]:
            assert other == term
            copied = _spans(other)
            assert [span[1:] for span in copied] == [span[1:] for span in spans]
            # every node still slices one token sequence, equal to the original's
            assert len({id(span[0]) for span in copied}) == 1 and copied[0][0] == spans[0][0]


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
        from structrec.reduction import expr_token_count

        assert expr_token_count(tree) == expr_token_count(built)


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


def test_peano_encode_is_the_chain_delinearize_reads():
    for n in (1, 2, 7, 3000):
        term, read = peano_encode(n), delinearize(["S"] * (n - 1) + ["I"], PEANO)
        assert term == read and hash(term) == hash(read) and peano_value(term) == n
        assert term._span == read._span and linearize(term) == linearize(read)


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


def test_tokenize_keeps_a_stray_bracket_as_a_token():
    assert tokenize("X1 [ 01") == ["X1", "[", "01"]
    assert tokenize("[X1 01") == tokenize("[ X1 01") == ["[", "X1", "01"]
    assert tokenize("aUNROLL[ b") == ["aUNROLL", "[", "b"]


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
    with pytest.raises(MalformedSequenceError, match="^a bare Leaf has no serialized form$"):
        tree_serialize(leaf())


@pytest.mark.parametrize("term, name", [
    (bin_encode(5), "X1"),
    (Term("Branch", ("a",), (leaf(),)), "Branch"),
    (branch("a", leaf(), bin_encode(2)), "X0"),
    (branch("a", branch("b", Term("01"), leaf()), leaf()), "01"),
    (Term("X1", ("a",), (leaf(), leaf())), "X1"),  # a misnamed node of Branch's shape
    (branch("a", leaf(), Term("Node", ("b",), (leaf(), leaf()))), "Node"),
    (branch("a", leaf(), Term("Leaf", ("z",))), "Leaf"),  # a Leaf with a payload, or a child
    (branch("a", Term("Leaf", (), (leaf(),)), leaf()), "Leaf"),
    (Term("Leaf", ("z",)), "Leaf"),  # the same at the root, which is no bare Leaf
    (Term("Leaf", (), (leaf(),)), "Leaf"),
])
def test_tree_serialize_of_a_term_that_is_no_tree_is_malformed(term, name):
    with pytest.raises(MalformedSequenceError, match=f"not a char_tree term: '{name}'"):
        tree_serialize(term)


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
    assert _respelled(["X1", "X0", "01"], mapping) == ["b", "a", "c"]


def test_remap_requires_known_tokens():
    with pytest.raises(RemapError):
        _respelled(["X1", "Q"], {"X1": "b"})


def test_remap_requires_injective():
    with pytest.raises(RemapError):
        _check_injective({"X0": "a", "X1": "a", "01": "c"})


def test_invert_remap_round_trip():
    mapping = {"X0": "a", "X1": "b", "01": "c"}
    toks = ["X1", "X0", "X0", "01"]
    inverse = {v: k for k, v in mapping.items()}
    assert _respelled(_respelled(toks, mapping), inverse) == toks


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

