"""Inductive types, terms, and their token-level serializations.

Terms of three builtin inductive types (unary naturals, positive binary
numbers, character-labeled binary trees) are linearized to flat token
sequences and parsed back.  Tokens are atomic symbols: they are never
split into characters, and any bijective respelling of the vocabulary
yields an equivalent encoding.
"""

from __future__ import annotations

import functools
import operator
import re
import sys
from dataclasses import dataclass

from .errors import MalformedSequenceError, RemapError

# Canonical constructor spellings for positive binary numbers.  Some
# sources write the even constructor with a letter O; that spelling is
# accepted on input and normalized to the digit form.
ONE = "01"
X0 = "X0"
X1 = "X1"

LPAR = "("
RPAR = ")"
LEAF_TOKEN = "LEAF"
UNROLL_OPEN = "UNROLL["
UNROLL_CLOSE = "]"
EMPTY_TOKEN = "EMPTY"

# read-time aliases -> canonical token
TOKEN_ALIASES = {
    "XO": X0,
    "REDUCE[": UNROLL_OPEN,
}

# sequence orders for linear (bin_pos) encodings
REVERSE = "reverse"  # constructor order: least-significant effect first
NATURAL = "natural"  # written order: exact reversal of constructor order

_TOKEN_RE = re.compile(r"UNROLL\[|REDUCE\[|[()\]]|[^\s()\[\]]+")


def normalize_tokens(tokens) -> list[str]:
    toks = list(tokens)
    if not TOKEN_ALIASES.keys().isdisjoint(toks):  # rare; the check runs at C speed
        toks = [TOKEN_ALIASES.get(t, t) for t in toks]
    return toks


def intern_tokens(tokens, what: str = "tokens") -> list[str]:
    """A list of token strings with every token interned, so equal tokens
    read from a file are one object; TypeError on anything else."""
    if isinstance(tokens, list):
        try:
            return list(map(sys.intern, tokens))
        except TypeError:  # intern() takes strings only
            pass
    raise TypeError(f"{what} must be a list of token strings")


# text holding none of these splits on whitespace exactly as _TOKEN_RE
# does (only its last branch can match, and \s is str.isspace) and holds
# no alias, so str.split gives its tokens
_NEEDS_REGEX = ("(", ")", "[", "]", *TOKEN_ALIASES)


def tokenize(text: str) -> list[str]:
    """Split canonical text into tokens, treating parens and brackets as
    atomic even when they are glued to a neighbor."""
    for piece in _NEEDS_REGEX:
        if piece in text:
            return normalize_tokens(_TOKEN_RE.findall(text))
    return text.split()


@dataclass(frozen=True)
class ConstructorDef:
    """One constructor: payload slots come before recursive child slots."""

    name: str
    recursive_arity: int
    payload_kinds: tuple[str, ...] = ()


@dataclass(frozen=True)
class InductiveDef:
    name: str
    constructors: tuple[ConstructorDef, ...]

    def __post_init__(self) -> None:
        names = [c.name for c in self.constructors]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate constructor names in {self.name}")
        if not any(c.recursive_arity == 0 for c in self.constructors):
            raise ValueError(f"{self.name} has no base constructor")

    def constructor(self, name: str) -> ConstructorDef:
        for c in self.constructors:
            if c.name == name:
                return c
        raise MalformedSequenceError(f"unknown {self.name} constructor: {name!r}")

    @functools.cached_property
    def _links(self) -> frozenset[str] | None:
        """The one-child constructors of a chain type (no payloads, no two children)."""
        if any(c.recursive_arity > 1 or c.payload_kinds for c in self.constructors):
            return None
        return frozenset(c.name for c in self.constructors if c.recursive_arity)

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(c.name for c in self.constructors)


@dataclass(frozen=True)
class Term:
    """A fully applied constructor tree.  Structural equality and hashing
    (iterative, as is repr) make terms directly usable as dedup keys."""

    constructor: str
    payloads: tuple[str, ...] = ()
    children: tuple["Term", ...] = ()

    # not fields: (shared normalized tokens, start, end) of a term read by
    # delinearize (constructor order), and of a tree read by tree_parse
    # (serialized form)
    _span = None
    _tree_span = None

    def _nodes(self):
        """Constructor, payloads and child count per node in preorder: the tree."""
        stack = [self]
        while stack:
            t = stack.pop()
            yield t.constructor, t.payloads, len(t.children)
            stack += t.children[::-1]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or all(map(operator.eq, self._nodes(), other._nodes()))

    def __hash__(self):
        return hash(tuple(self._nodes()))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, str):
                out.append(t)
                continue
            out.append(f"{t.__class__.__qualname__}(constructor={t.constructor!r}, "
                       f"payloads={t.payloads!r}, children=(")
            stack.append(",))" if len(t.children) == 1 else "))")
            for j in range(len(t.children) - 1, -1, -1):
                stack.append(t.children[j])
                if j:
                    stack.append(", ")
        return "".join(out)


PEANO = InductiveDef(
    "peano",
    (
        ConstructorDef("I", 0),
        ConstructorDef("S", 1),
    ),
)

BIN_POS = InductiveDef(
    "bin_pos",
    (
        ConstructorDef(ONE, 0),
        ConstructorDef(X0, 1),
        ConstructorDef(X1, 1),
    ),
)

CHAR_TREE = InductiveDef(
    "char_tree",
    (
        ConstructorDef("Leaf", 0),
        ConstructorDef("Branch", 2, ("char",)),
    ),
)


# ---------------------------------------------------------------------------
# linear (preorder) serialization


def linearize(term: Term) -> list[str]:
    """Constructor-order tokens: each constructor before its arguments.  A
    term read by delinearize gives a copy of its span, without a walk."""
    if term._span is not None:
        toks, start, end = term._span
        return list(toks[start:end])
    out: list[str] = []
    stack = [term]
    while stack:
        t = stack.pop()
        while True:  # down the first children; later siblings wait on the stack
            out.append(t.constructor)
            out += t.payloads
            if not t.children:
                break
            stack += t.children[:0:-1]
            t = t.children[0]
    return out


def _spanned(constructor: str, payloads: tuple, children: tuple, span: tuple,
             kind: str = "_span") -> Term:
    """Term(constructor, payloads, children) with span as its kind of span
    (_span or _tree_span); set directly, as the frozen __init__ (a setattr
    per field) takes 1.5 times as long."""
    term = object.__new__(Term)
    fields = term.__dict__
    fields["constructor"], fields["payloads"], fields["children"], fields[kind] = \
        constructor, payloads, children, span
    return term


def _chain(toks: tuple, end: int) -> Term:
    """The chain term of toks[:end], built from its base up; each node keeps its span."""
    term = _spanned(toks[end - 1], (), (), (toks, end - 1, end))
    for i in range(end - 2, -1, -1):
        term = _spanned(toks[i], (), (term,), (toks, i, end))
    return term


def _chain_length(toks, idef: InductiveDef, prefix: bool = False) -> int:
    """The number of normalized tokens the chain at the front of toks takes,
    for a chain type (see InductiveDef._links); raises what delinearize raises."""
    try:  # the first token that is not a link ends the chain, or is unknown
        end = operator.indexOf(map(idef._links.__contains__, toks), False) + 1
    except ValueError:  # links only
        raise MalformedSequenceError("dangling constructor: token sequence ends early") from None
    idef.constructor(toks[end - 1])  # a base, or raises for an unknown token
    if not prefix and end != len(toks):
        raise MalformedSequenceError(f"trailing tokens after position {end}")
    return end


def delinearize(tokens, idef: InductiveDef, prefix: bool = False):
    """Parse constructor-order tokens back into a term.  With prefix, parse
    one term off the front and return it with the number of tokens used.
    Each term keeps its span of the normalized tokens."""
    toks = tuple(normalize_tokens(tokens))
    if idef._links is not None:
        end = _chain_length(toks, idef, prefix)
        term = _chain(toks, end)
        return (term, end) if prefix else term
    pos = 0
    open_terms: list = []  # (constructor, payloads, arity, children so far, start)
    while True:
        if pos >= len(toks):
            raise MalformedSequenceError("dangling constructor: token sequence ends early")
        cdef = idef.constructor(toks[pos])
        n_pay = len(cdef.payload_kinds)
        if pos + 1 + n_pay > len(toks):
            raise MalformedSequenceError(f"{cdef.name} is missing payload tokens")
        open_terms.append((cdef.name, toks[pos + 1 : pos + 1 + n_pay],
                           cdef.recursive_arity, [], pos))
        pos += 1 + n_pay
        # close every term whose children are all parsed
        while len(open_terms[-1][3]) == open_terms[-1][2]:
            name, payloads, _, children, start = open_terms.pop()
            term = _spanned(name, payloads, tuple(children), (toks, start, pos))
            if not open_terms:
                if prefix:
                    return term, pos
                if pos != len(toks):
                    raise MalformedSequenceError(f"trailing tokens after position {pos}")
                return term
            open_terms[-1][3].append(term)


def reorder(tokens, target_order: str, source_order: str | None = None) -> list[str]:
    """Convert a complete bin_pos sequence between constructor (reverse)
    and natural order.  Natural order is the exact reversal; tokens keep
    their spellings."""
    if target_order not in (REVERSE, NATURAL):
        raise MalformedSequenceError(f"unknown order: {target_order!r}")
    toks = normalize_tokens(tokens)
    if not toks:
        raise MalformedSequenceError("empty sequence has no order")
    if source_order is None:
        if toks[-1] == ONE:
            source_order = REVERSE
        elif toks[0] == ONE:
            source_order = NATURAL
        else:
            raise MalformedSequenceError("sequence is not a complete bin_pos encoding")
    elif source_order not in (REVERSE, NATURAL):
        raise MalformedSequenceError(f"unknown order: {source_order!r}")
    _chain_length(toks if source_order == REVERSE else toks[::-1], BIN_POS)  # completeness check
    if source_order == target_order:
        return list(toks)
    return list(reversed(toks))


# ---------------------------------------------------------------------------
# value semantics for the numeric types


def _bin_tokens(n: int) -> list[str]:
    """Constructor-order bin_pos tokens of n >= 1: the bits from the least
    significant up, then the leading 1 bit as 01."""
    if n < 1:
        raise ValueError(f"bin_pos encodes positive integers only, got {n}")
    return [X1 if bit == "1" else X0 for bit in bin(n)[:2:-1]] + [ONE]


def bin_encode(n: int) -> Term:
    """Positive binary term for n >= 1, spanned as if read by delinearize."""
    toks = tuple(_bin_tokens(n))
    return _chain(toks, len(toks))


def _bin_terms(lo: int, hi: int):
    """Yield bin_encode(v) for v in lo..hi.  The term of v shares the term
    of its high bits with v - 1's: only the t + 1 nodes the carry changed
    are new, where t is the number of trailing ones of v - 1 (about two per
    value), and a new bit length starts again from bin_encode."""
    chain: list[Term] = []  # chain[k] is the term of v >> k, down to 01
    for v in range(lo, hi + 1):
        if v == lo or not v & (v - 1):
            chain = [bin_encode(v)]
            while chain[-1].children:
                chain.append(chain[-1].children[0])
        else:
            t = (v ^ (v - 1)).bit_length() - 1  # below the top bit: v is no power of two
            chain[t] = Term(X1, children=(chain[t + 1],))
            for k in range(t - 1, -1, -1):
                chain[k] = Term(X0, children=(chain[k + 1],))
        yield chain[0]


def bin_value(term: Term) -> int:
    ops: list[str] = []
    t = term
    while t.constructor != ONE:
        if t.constructor not in (X0, X1) or len(t.children) != 1:
            raise MalformedSequenceError(f"not a bin_pos term: {t.constructor!r}")
        ops.append(t.constructor)
        t = t.children[0]
    value = 1
    for op in reversed(ops):
        value = value * 2 + (1 if op == X1 else 0)
    return value


def bin_x1_run(n: int) -> int:
    """Count of consecutive X1 constructors at the front of the
    constructor-order encoding of n.  This is the trailing-ones count of
    the binary form, except that the leading 1 bit is the 01 token and
    never part of the run (so an all-ones value like 7 has run 2)."""
    if n < 1:
        raise ValueError(f"bin_pos encodes positive integers only, got {n}")
    if n & (n + 1) == 0:
        return n.bit_length() - 1
    return ((n + 1) & ~n).bit_length() - 1


def peano_encode(n: int) -> Term:
    """Unary term for n >= 1 (I denotes one)."""
    if n < 1:
        raise ValueError(f"peano encodes positive integers only, got {n}")
    term = Term("I")
    for _ in range(n - 1):
        term = Term("S", children=(term,))
    return term


def peano_value(term: Term) -> int:
    value = 1
    t = term
    while t.constructor == "S":
        value += 1
        t = t.children[0]
    if t.constructor != "I":
        raise MalformedSequenceError(f"not a peano term: {t.constructor!r}")
    return value


# ---------------------------------------------------------------------------
# character trees


def leaf() -> Term:
    return Term("Leaf")


def branch(value: str, left: Term, right: Term) -> Term:
    return Term("Branch", (value,), (left, right))


def tree_depth(term: Term) -> int:
    """Leaf alone is depth 0; a Branch over two Leaf children is depth 1."""
    depth, level = 0, [term]
    while level := [kid for node in level if node.constructor != "Leaf" for kid in node.children]:
        depth += 1  # level holds the nodes one deeper than the last
    return depth


def tree_serialize(term: Term) -> list[str]:
    """Render a Branch-rooted tree: root value, then each subtree either as
    LEAF or wrapped in parens.  A tree that keeps its span (read by
    tree_parse, or sampled for a dataset) gives a copy of it, without a walk."""
    if term._tree_span is not None:
        toks, start, end = term._tree_span
        return toks[start:end]
    if term.constructor == "Leaf":
        raise MalformedSequenceError("a bare Leaf has no serialized form")
    out: list[str] = []
    owed: list = []  # per open paren, the right sibling owed after it (None: none)
    node = term
    while True:
        out.append(node.payloads[0])
        left, right = node.children
        if left.constructor != "Leaf":
            out.append(LPAR)
            owed.append(right)
            node = left
            continue
        out.append(LEAF_TOKEN)
        while right.constructor == "Leaf":
            out.append(LEAF_TOKEN)
            while owed:
                right = owed.pop()
                out.append(RPAR)
                if right is not None:
                    break
            else:
                return out
        out.append(LPAR)
        owed.append(None)
        node = right


_STRUCTURAL = {LPAR, RPAR, LEAF_TOKEN, UNROLL_OPEN, UNROLL_CLOSE, EMPTY_TOKEN}


def tree_parse(tokens) -> Term:
    """Inverse of tree_serialize; each Branch keeps its span of the
    normalized tokens."""
    toks = normalize_tokens(tokens)
    bare = Term("Leaf")
    pos, want = 0, "a node value"
    open_nodes: list = []  # (value, subtrees so far, start) of each unfinished node
    while True:
        if pos >= len(toks):
            raise MalformedSequenceError(f"unexpected end of tree tokens, wanted {want}")
        tok = toks[pos]
        pos += 1
        if want == "a node value":
            if tok in _STRUCTURAL:
                raise MalformedSequenceError(f"expected a node value, got {tok!r}")
            open_nodes.append((tok, [], pos - 1))
            want = "LEAF or a subtree"
            continue
        if want == "LEAF or a subtree":
            if tok == LPAR:
                want = "a node value"
                continue
            if tok != LEAF_TOKEN:
                raise MalformedSequenceError(f"expected LEAF or '(', got {tok!r}")
            tree = bare
        elif tok != RPAR:
            raise MalformedSequenceError(f"unbalanced parens: got {tok!r}")
        # tree is the next subtree of the innermost unfinished node
        value, kids, start = open_nodes[-1]
        kids.append(tree)
        want = "LEAF or a subtree"
        if len(kids) == 2:
            open_nodes.pop()
            tree = _spanned("Branch", (value,), tuple(kids), (toks, start, pos), "_tree_span")
            if not open_nodes:
                if pos != len(toks):
                    raise MalformedSequenceError(f"trailing tokens after position {pos}")
                return tree
            want = "a closing paren"


# ---------------------------------------------------------------------------
# vocabulary remaps


def remap_tokens(tokens, mapping: dict[str, str]) -> list[str]:
    """Apply a bijective respelling positionwise."""
    _check_injective(mapping)
    return _respelled(tokens, mapping)


def _check_injective(mapping: dict[str, str]) -> None:
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise RemapError("remap is not injective")


def _respelled(tokens, mapping: dict[str, str]) -> list[str]:
    """The normalized tokens respelled by mapping, which the caller has
    checked is injective."""
    try:
        return list(map(mapping.__getitem__, normalize_tokens(tokens)))
    except KeyError as exc:  # the first token outside the domain
        raise RemapError(f"token outside remap domain: {exc.args[0]!r}") from None
