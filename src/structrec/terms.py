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
from dataclasses import FrozenInstanceError, dataclass, fields

from .errors import GenerationError, MalformedSequenceError, RemapError

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

_TOKEN_RE = re.compile(r"UNROLL\[|REDUCE\[|[()\[\]]|[^\s()\[\]]+")


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


def _slot_stored(cls):
    """cls, a frozen slotted dataclass, with an __init__ that stores each
    field straight into its slot and None into its bases' slots (the frozen
    one calls object.__setattr__ per field: Call takes 1.5 times as long),
    and a pickled state of every slot.  Fields, eq, hash and repr stay the
    dataclass's; setting or deleting any attribute raises FrozenInstanceError
    (the slotted dataclass's own check raises TypeError for a non-field)."""
    names = [f.name for f in fields(cls)]
    slots = names + [s for base in cls.__mro__[1:] for s in vars(base).get("__slots__", ())]
    stores = [getattr(cls, name).__set__ for name in slots]
    namespace = {f"_store_{name}": store for name, store in zip(slots, stores)}
    exec(f"def __init__(self, {', '.join(names)}):\n" + "".join(
        f"    _store_{name}(self, {name if name in names else None})\n" for name in slots), namespace)
    init = namespace["__init__"]
    init.__defaults__, init.__qualname__ = cls.__init__.__defaults__, f"{cls.__qualname__}.__init__"
    cls.__init__ = init

    def __setstate__(self, state):
        for store, value in zip(stores, state):
            store(self, value)

    def frozen(self, name, *value):
        raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    cls.__getstate__ = lambda self: [getattr(self, name) for name in slots]
    cls.__setstate__, cls.__setattr__, cls.__delattr__ = __setstate__, frozen, frozen
    return cls


class _Spans:
    # (shared normalized tokens, start, end) of a term read by delinearize
    # (constructor order), and of a tree read by tree_parse (serialized
    # form); Term(...) sets both to None
    __slots__ = ("_span", "_tree_span")


@_slot_stored
@dataclass(frozen=True, slots=True)
class Term(_Spans):
    """A fully applied constructor tree.  Structural equality and hashing
    (iterative, as is repr) make terms directly usable as dedup keys."""

    constructor: str
    payloads: tuple[str, ...] = ()
    children: tuple["Term", ...] = ()

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

    def __reduce__(self):
        """Its preorder nodes with their spans, for _rebuilt: no recursion at any depth."""
        nodes, stack = [], [self]
        while stack:
            t = stack.pop()
            nodes.append((t.constructor, t.payloads, len(t.children), t._span, t._tree_span))
            stack += t.children[::-1]
        return _rebuilt, (nodes,)

    def __deepcopy__(self, memo):
        return self  # immutable, as a tuple of strings is (rebuilt, it would copy every span)

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


_new = object.__new__
_store_constructor, _store_payloads, _store_children, _store_span, _store_tree_span = (
    Term.constructor.__set__, Term.payloads.__set__, Term.children.__set__,
    Term._span.__set__, Term._tree_span.__set__)


def _rebuilt(nodes) -> Term:
    """The term whose nodes Term.__reduce__ lists, built from the last one back."""
    built: list[Term] = []  # the subterms built so far, the next child on top
    for constructor, payloads, arity, span, tree_span in reversed(nodes):
        term = _spanned(constructor, payloads, tuple(built[:-arity - 1:-1]), span, tree_span)
        del built[len(built) - arity:]
        built.append(term)
    return built[0]


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


def _spanned(constructor: str, payloads: tuple, children: tuple, span: tuple | None,
             tree_span: tuple | None = None) -> Term:
    """Term(constructor, payloads, children) with its _span and _tree_span,
    stored straight into the slots."""
    term = _new(Term)
    _store_constructor(term, constructor)
    _store_payloads(term, payloads)
    _store_children(term, children)
    _store_span(term, span)
    _store_tree_span(term, tree_span)
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


def delinearize(tokens, idef: InductiveDef, prefix: bool = False, *, normalized: bool = False):
    """Parse constructor-order tokens back into a term.  With prefix, parse
    one term off the front and return it with the number of tokens used.
    Each term keeps its span of the normalized tokens.  With normalized,
    the caller has normalized the tokens already."""
    toks = tuple(tokens if normalized else normalize_tokens(tokens))
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


def _chain_links(term: Term, links: tuple, end: str, kind: str) -> list[str]:
    """The constructors of term's chain of one-child links, from the root,
    down to end, which takes no children; a node off that shape raises."""
    ops: list[str] = []
    t = term
    while t.constructor in links and len(t.children) == 1 and not t.payloads:
        ops.append(t.constructor)
        t = t.children[0]
    if t.constructor != end or t.children or t.payloads:
        raise MalformedSequenceError(f"not a {kind} term: {t.constructor!r}")
    return ops


def bin_value(term: Term) -> int:
    value = 1
    for op in reversed(_chain_links(term, (X0, X1), ONE, "bin_pos")):
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


def edge_group(value: int) -> int:
    """1 for all-ones values (>= 2 bits), 2 for values of binary shape
    1 0 1...1 (>= 3 bits), else 0."""
    if value >= 3 and value & (value + 1) == 0:
        return 1
    bits = value.bit_length()
    if bits >= 3 and value == 3 * 2 ** (bits - 2) - 1:
        return 2
    return 0


def group1_value(bits: int) -> int:
    if bits < 2:
        raise GenerationError("group 1 needs bit length >= 2")
    return 2**bits - 1


def group2_value(bits: int) -> int:
    if bits < 3:
        raise GenerationError("group 2 needs bit length >= 3")
    return 3 * 2 ** (bits - 2) - 1


def peano_encode(n: int) -> Term:
    """Unary term for n >= 1 (I denotes one)."""
    if n < 1:
        raise ValueError(f"peano encodes positive integers only, got {n}")
    term = Term("I")
    for _ in range(n - 1):
        term = Term("S", children=(term,))
    return term


def peano_value(term: Term) -> int:
    return 1 + len(_chain_links(term, ("S",), "I", "peano"))


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
    if term.constructor == "Leaf" and not (term.payloads or term.children):
        raise MalformedSequenceError("a bare Leaf has no serialized form")
    out: list[str] = []
    owed: list = []  # per open paren, the right sibling owed after it (None: none)
    node = term
    try:
        while True:
            if node.constructor != "Branch":  # a misnamed node of any shape, or a Leaf with parts
                raise MalformedSequenceError(f"not a char_tree term: {node.constructor!r}")
            out.append(node.payloads[0])
            left, right = node.children
            if left.constructor != "Leaf" or left.payloads or left.children:
                out.append(LPAR)
                owed.append(right)
                node = left
                continue
            out.append(LEAF_TOKEN)
            while right.constructor == "Leaf" and not (right.payloads or right.children):
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
    except (IndexError, ValueError):  # node has no payload, or not two children
        raise MalformedSequenceError(f"not a char_tree term: {node.constructor!r}") from None


_STRUCTURAL = {LPAR, RPAR, LEAF_TOKEN, UNROLL_OPEN, UNROLL_CLOSE, EMPTY_TOKEN}


def tree_parse(tokens, *, normalized: bool = False) -> Term:
    """Inverse of tree_serialize; each Branch keeps its span of the
    normalized tokens.  With normalized, tokens is a list of normalized
    tokens that the caller leaves unchanged, and the spans share it."""
    toks = tokens if normalized else normalize_tokens(tokens)
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
            tree = _spanned("Branch", (value,), tuple(kids), None, (toks, start, pos))
            if not open_nodes:
                if pos != len(toks):
                    raise MalformedSequenceError(f"trailing tokens after position {pos}")
                return tree
            want = "a closing paren"


# ---------------------------------------------------------------------------
# vocabulary remaps


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
