"""Inductive types, terms, and their token-level serializations.

Terms of three builtin inductive types (unary naturals, positive binary
numbers, character-labeled binary trees) are linearized to flat token
sequences and parsed back.  Tokens are atomic symbols: they are never
split into characters, and any bijective respelling of the vocabulary
yields an equivalent encoding.
"""

from __future__ import annotations

import re
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
    return [TOKEN_ALIASES.get(t, t) for t in tokens]


def tokenize(text: str) -> list[str]:
    """Split canonical text into tokens, treating parens and brackets as
    atomic even when they are glued to a neighbor."""
    return normalize_tokens(_TOKEN_RE.findall(text))


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

    @property
    def vocabulary(self) -> frozenset[str]:
        return frozenset(c.name for c in self.constructors)


@dataclass(frozen=True)
class Term:
    """A fully applied constructor tree.  Structural equality and hashing
    make terms directly usable as dedup keys."""

    constructor: str
    payloads: tuple[str, ...] = ()
    children: tuple["Term", ...] = ()


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


def builtin_defs() -> dict[str, InductiveDef]:
    return {d.name: d for d in (PEANO, BIN_POS, CHAR_TREE)}


# ---------------------------------------------------------------------------
# linear (preorder) serialization


def linearize(term: Term) -> list[str]:
    """Constructor-order tokens: each constructor before its arguments."""
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


def delinearize(tokens, idef: InductiveDef, prefix: bool = False):
    """Parse constructor-order tokens back into a term.  With prefix, parse
    one term off the front and return it with the number of tokens used."""
    toks = normalize_tokens(tokens)
    pos = 0
    open_terms: list = []  # (constructor, payloads, arity, children so far)
    while True:
        if pos >= len(toks):
            raise MalformedSequenceError("dangling constructor: token sequence ends early")
        cdef = idef.constructor(toks[pos])
        n_pay = len(cdef.payload_kinds)
        if pos + 1 + n_pay > len(toks):
            raise MalformedSequenceError(f"{cdef.name} is missing payload tokens")
        open_terms.append((cdef.name, tuple(toks[pos + 1 : pos + 1 + n_pay]),
                           cdef.recursive_arity, []))
        pos += 1 + n_pay
        # close every term whose children are all parsed
        while len(open_terms[-1][3]) == open_terms[-1][2]:
            name, payloads, _, children = open_terms.pop()
            term = Term(name, payloads, tuple(children))
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
    constructor_form = toks if source_order == REVERSE else list(reversed(toks))
    delinearize(constructor_form, BIN_POS)  # completeness check
    if source_order == target_order:
        return list(toks)
    return list(reversed(toks))


# ---------------------------------------------------------------------------
# value semantics for the numeric types


def bin_encode(n: int) -> Term:
    """Positive binary term for n >= 1."""
    if n < 1:
        raise ValueError(f"bin_pos encodes positive integers only, got {n}")
    ops: list[str] = []
    while n > 1:
        ops.append(X1 if n & 1 else X0)
        n >>= 1
    term = Term(ONE)
    for op in reversed(ops):
        term = Term(op, children=(term,))
    return term


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
    if term.constructor == "Leaf":
        return 0
    return 1 + max(tree_depth(c) for c in term.children)


def tree_serialize(term: Term) -> list[str]:
    """Render a Branch-rooted tree: root value, then each subtree either as
    LEAF or wrapped in parens."""
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
    toks = normalize_tokens(tokens)
    bare = Term("Leaf")
    pos, want = 0, "a node value"
    open_nodes: list = []  # (value, subtrees so far) of each unfinished node
    while True:
        if pos >= len(toks):
            raise MalformedSequenceError(f"unexpected end of tree tokens, wanted {want}")
        tok = toks[pos]
        pos += 1
        if want == "a node value":
            if tok in _STRUCTURAL:
                raise MalformedSequenceError(f"expected a node value, got {tok!r}")
            open_nodes.append((tok, []))
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
        value, kids = open_nodes[-1]
        kids.append(tree)
        want = "LEAF or a subtree"
        if len(kids) == 2:
            open_nodes.pop()
            tree = Term("Branch", (value,), tuple(kids))
            if not open_nodes:
                if pos != len(toks):
                    raise MalformedSequenceError(f"trailing tokens after position {pos}")
                return tree
            want = "a closing paren"


# ---------------------------------------------------------------------------
# vocabulary remaps


def remap_tokens(tokens, mapping: dict[str, str]) -> list[str]:
    """Apply a bijective respelling positionwise."""
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise RemapError("remap is not injective")
    toks = normalize_tokens(tokens)
    out = []
    for tok in toks:
        if tok not in mapping:
            raise RemapError(f"token outside remap domain: {tok!r}")
        out.append(mapping[tok])
    return out


def invert_remap(mapping: dict[str, str]) -> dict[str, str]:
    values = list(mapping.values())
    if len(set(values)) != len(values):
        raise RemapError("remap is not injective")
    return {v: k for k, v in mapping.items()}
