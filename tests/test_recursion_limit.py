"""The recursion-limit gate: each layer handles a depth or length of 20,000
under a recursion limit of 150, far below it, so none of them recurses once
per level.  Each check runs in a fresh interpreter, whose limit the test
process does not share."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")

_DEEP = """
import pickle
import sys
from structrec.asm import asm_run, machine_output, rasm_run, successor_machine, successor_rasm
from structrec.datasets import _walk, tree_key
from structrec.evaluation import failure_signature
from structrec.reduction import Call, reduce
from structrec.shortcuts import CORRECTED, emulate_natural, emulate_reverse
from structrec.terms import (BIN_POS, _bin_tokens, bin_encode, branch, delinearize, leaf,
                             peano_encode, tree_depth, tree_parse, tree_serialize)

N = 20_000
tree = leaf()
for i in range(N):  # a zigzag spine: every walk goes N deep on both sides
    tree = branch("abc"[i % 3], tree, leaf()) if i % 2 else branch("abc"[i % 3], leaf(), tree)
ones, value = _bin_tokens(2**N - 1), bin_encode(2**N - 1)
succ = _bin_tokens(2**N)
sys.setrecursionlimit(150)

tokens = tree_serialize(tree)
parsed = tree_parse(tokens)
assert len(tokens) == 4 * N - 1 and tree_serialize(parsed) == tokens
assert parsed == tree and hash(parsed) == hash(tree) and repr(parsed) == repr(tree)
assert pickle.loads(pickle.dumps(parsed)) == tree
assert tree_depth(parsed) == N and len(tree_key(parsed)) == 64
for kind in ("inorder", "preorder"):
    walk = _walk(parsed, kind)
    assert len(walk) == N
inorder, levels = reduce(Call("inorder", (parsed,)))
assert list(inorder.items) == _walk(parsed, "inorder") and levels > N
assert reduce(Call("s", (value,)))[0] == bin_encode(2**N)
assert reduce(Call("add", (peano_encode(N), peano_encode(N))))[0] == peano_encode(2 * N)
assert delinearize(ones, BIN_POS) == value
assert emulate_reverse(ones, CORRECTED) == succ
assert emulate_natural(ones[::-1], CORRECTED) == succ[::-1]
assert machine_output(asm_run(successor_machine(), ones)[0]) == succ
assert rasm_run(successor_rasm(), ones).output == succ
assert failure_signature(succ[1:], succ) == "one-token-short"
print("ok")
"""

_DEEP_SAMPLE = """
import sys
from structrec.datasets import record_rng, sample_tree
from structrec.terms import tree_depth

sys.setrecursionlimit(150)
assert tree_depth(sample_tree(record_rng(0, "deep", 0), 200, "abc")) == 200
print("ok")
"""


def _run(script: str):
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": _SRC}, timeout=120)


def test_every_layer_handles_depth_20000_under_a_low_recursion_limit():
    done = _run(_DEEP)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"


@pytest.mark.xfail(raises=RecursionError, strict=True,
                   reason="sample_tree draws a tree by recursing once per level")
def test_sample_tree_draws_depth_200_under_a_low_recursion_limit():
    done = _run(_DEEP_SAMPLE)
    if "RecursionError" in done.stderr:
        raise RecursionError(done.stderr.strip().splitlines()[-1])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "ok\n"
