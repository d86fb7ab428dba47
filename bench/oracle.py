"""Reference encodings, traces and tree walks, written apart from structrec.

The benchmark builds its inputs and checks the program's outputs with these
functions only, so a fault in the program cannot hide behind the same fault
in the checks.  Numerals use constructor order (least significant bit first,
closing with ``01``); trees are ``(label, left, right)`` tuples with ``None``
for a leaf.
"""

from __future__ import annotations

X0, X1, ONE = "X0", "X1", "01"
LPAR, RPAR, LEAF = "(", ")", "LEAF"
UNROLL_OPEN, UNROLL_CLOSE, EMPTY = "UNROLL[", "]", "EMPTY"


# ---------------------------------------------------------------------------
# binary numerals


def encode(n: int) -> list[str]:
    """Constructor-order tokens of n >= 1."""
    tokens = []
    while n > 1:
        tokens.append(X1 if n & 1 else X0)
        n >>= 1
    tokens.append(ONE)
    return tokens


def decode(tokens) -> int | None:
    """Value of constructor-order tokens, or None when they are not a numeral."""
    tokens = list(tokens)
    if not tokens or tokens[-1] != ONE:
        return None
    value = 1
    for tok in reversed(tokens[:-1]):
        if tok not in (X0, X1):
            return None
        value = 2 * value + (tok == X1)
    return value


def x1_run(tokens) -> int:
    """Length of the leading run of X1 tokens."""
    run = 0
    while run < len(tokens) and tokens[run] == X1:
        run += 1
    return run


def edge_group(n: int) -> int:
    """1 for 2^L-1 (L >= 2), 2 for 3*2^(L-2)-1 (L >= 3), else 0."""
    bits = bin(n)[2:]
    if len(bits) >= 2 and set(bits) == {"1"}:
        return 1
    if len(bits) >= 3 and bits == "10" + "1" * (len(bits) - 2):
        return 2
    return 0


def successor_states(n: int) -> list[list[str]]:
    """Paren-form states of the leftmost-outermost reduction of s(n):
    X0 ( rest ) while the head is X1, then the flipped or extended tail."""
    tokens = encode(n)
    run = x1_run(tokens)
    states = [[X0] * j + [LPAR] + tokens[j:] + [RPAR] for j in range(run + 1)]
    tail = [X1] + tokens[run + 1:] if tokens[run] == X0 else [X0, ONE]
    return states + [[X0] * run + tail]


def is_single_deletion(short, long) -> bool:
    """True when short is long with exactly one position removed."""
    if len(short) != len(long) - 1:
        return False
    return any(short == long[:i] + long[i + 1:] for i in range(len(long)))


# ---------------------------------------------------------------------------
# labelled binary trees


def random_tree(rng, depth: int, alphabet: str):
    """A tree of exactly the given depth: one child carries the depth, the
    other is drawn below it."""
    if depth == 0:
        return None
    deep = random_tree(rng, depth - 1, alphabet)
    other = random_tree(rng, rng.randint(0, depth - 1), alphabet)
    left, right = (deep, other) if rng.random() < 0.5 else (other, deep)
    return (rng.choice(alphabet), left, right)


def tree_depth(tree) -> int:
    if tree is None:
        return 0
    return 1 + max(tree_depth(tree[1]), tree_depth(tree[2]))


def serialize(tree) -> list[str]:
    """Root label, then each subtree as LEAF or wrapped in parens."""
    out = [tree[0]]
    for child in tree[1:]:
        out.extend([LEAF] if child is None else [LPAR, *serialize(child), RPAR])
    return out


def parse(tokens):
    """Inverse of serialize; None when the tokens are not a tree."""
    tokens = list(tokens)
    pos = 0

    def node():
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] in (LPAR, RPAR, LEAF):
            raise ValueError
        label = tokens[pos]
        pos += 1
        return (label, child(), child())

    def child():
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError
        tok = tokens[pos]
        pos += 1
        if tok == LEAF:
            return None
        if tok != LPAR:
            raise ValueError
        sub = node()
        if pos >= len(tokens) or tokens[pos] != RPAR:
            raise ValueError
        pos += 1
        return sub

    try:
        tree = node()
    except ValueError:
        return None
    return tree if pos == len(tokens) else None


def walk(tree, kind: str) -> list[str]:
    """Inorder or preorder label list."""
    if tree is None:
        return []
    label, left, right = tree
    if kind == "inorder":
        return walk(left, kind) + [label] + walk(right, kind)
    return [label] + walk(left, kind) + walk(right, kind)


def unroll_states(tree, kind: str) -> list[list[str]]:
    """Arrow-form states of the level-by-level traversal: each level expands
    every pending subtree into its pieces and drops every pending leaf."""
    items = [("tree", tree)]
    states = []
    while True:
        rendered = []
        for tag, val in items:
            if tag == "label":
                rendered.append(val)
            elif val is None:
                rendered.append(EMPTY)
            else:
                rendered.extend([UNROLL_OPEN, *serialize(val), UNROLL_CLOSE])
        states.append(rendered)
        if all(tag == "label" for tag, _ in items):
            return states
        expanded = []
        for tag, val in items:
            if tag == "label":
                expanded.append((tag, val))
            elif val is not None:
                label, left, right = val
                pieces = [("tree", left), ("label", label), ("tree", right)]
                if kind == "preorder":
                    pieces = [pieces[1], pieces[0], pieces[2]]
                expanded.extend(pieces)
        items = expanded
