"""Byte-identity pins: generated files, CLI traces and the rewrite records
of every reduction step are fixed to digests of their known-good output, so
any change to the reduction engine that alters a state, a path or a rule
name shows up here."""

import hashlib

import pytest

from structrec.cli import main
from structrec.reduction import (
    Call,
    Value,
    builtin_programs,
    program_call,
    reduce,
    step_single,
)
from structrec.terms import tokenize, tree_parse

S_INPUT = " ".join(["X1"] * 40 + ["X0", "X1", "X0", "01"])
TREE = ("a ( b ( c LEAF LEAF ) ( a LEAF ( b LEAF LEAF ) ) ) "
        "( c ( a LEAF LEAF ) ( b ( c LEAF LEAF ) LEAF ) )")
INPUTS = {"s": [S_INPUT], "add": ["S S S I", "S S I"], "inorder": [TREE], "preorder": [TREE]}

GEN_PINS = {
    "traces_successor": (
        ["gen", "traces", "--range", "1:2048"],
        "4f7902bb283f0f792e339b2a0fbf8ac4e904818fed8088d97b47e683ca2ca262",
        "ef418da5a46b868ba489539572b11ce0bec568ceab5713d51386e7b16f635c93",
    ),
    "traces_inorder": (
        ["gen", "traces", "--task", "inorder", "--count", "200", "--depths", "2:6",
         "--seed", "11"],
        "3b00c1f62c95f6757066c17b11ce10073860e23def4ed1a3d2e75b3e802d314d",
        "37147c61dfacddf84373dce8f98de8a9a6b97e77da10071462b157791578a739",
    ),
    "traces_preorder": (
        ["gen", "traces", "--task", "preorder", "--count", "200", "--depths", "2:6",
         "--seed", "11"],
        "293b8503afed054ce18d048a13148ed91077dac2c13fe88049b25f5614a2eaa8",
        "4607eddb5ad8e8972d375fb4ad56d1c0a6c2968a1c7a0a5371800ba75f8953c9",
    ),
}

# sha256 of `structrec reduce PROGRAM INPUT... --trace` stdout
TRACE_PINS = {
    "s": "85e7da2e17ce65973160953c469b783776f670cface4366440972223e95e6f70",
    "add": "9635548631269bdfd979cdbfd2537039d0776ecadb973f412494da8b7c5f5002",
    "inorder": "d410c1ab640af6d7590625fb28e5dd8dd0940f20725618f847fe5afc4724ed7e",
    "preorder": "50176f936bbbf56b8ef1218ae9eb341ec6ad0b9f3cbde0a3250106e35d28ea33",
}

# sha256 of repr([(paths, rules) per step]): reduce's levels, then the
# chain of single steps to normal form
STEP_PINS = {
    "s": ("4a42d7d3e6e73bbd5b8b7acabb482ad76904ffc33f26f788ac4bc12410452a75",
          "4a42d7d3e6e73bbd5b8b7acabb482ad76904ffc33f26f788ac4bc12410452a75"),
    "add": ("aa70af416c333dcffc076844cc143e8cce184338187cf1fa9408ee14c2d22b3a",
            "aa70af416c333dcffc076844cc143e8cce184338187cf1fa9408ee14c2d22b3a"),
    "inorder": ("c959fc498c6958b3d861c0da595d0f7085aab99652dad752e13fe37bc494edb3",
                "bfa2fc7cb73caa3d235364709f341734107ce79e415262c4c567b225f82053ca"),
    "preorder": ("530491ed6d71fd81db3045351f21db37d1c84f1dd7b0915d38a5dcc71bfcde06",
                 "b8ece188475bd40a2cea48e272de24cfe40f63ae1586388f5708f6b29bd1c7b8"),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(program: str) -> Call:
    return program_call(builtin_programs()[program], [tokenize(t) for t in INPUTS[program]])


def _single_records(expr):
    records = []
    while (result := step_single(expr)) is not None:
        expr, step = result
        records.append((step.paths, step.rules))
    return records


@pytest.mark.parametrize("name", sorted(GEN_PINS))
def test_gen_traces_files_are_pinned(tmp_path, capsys, name):
    argv, data_sha, manifest_sha = GEN_PINS[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _sha((tmp_path / f"{name}.jsonl").read_bytes()) == data_sha
    assert _sha((tmp_path / f"{name}.manifest.json").read_bytes()) == manifest_sha


@pytest.mark.parametrize("program", sorted(TRACE_PINS))
def test_reduce_trace_output_is_pinned(capsys, program):
    assert main(["reduce", program, *INPUTS[program], "--trace"]) == 0
    assert _sha(capsys.readouterr().out.encode()) == TRACE_PINS[program]


@pytest.mark.parametrize("program", sorted(STEP_PINS))
def test_step_paths_and_rules_are_pinned(program):
    _, trace = reduce(_call(program))
    levels = [(step.paths, step.rules) for step in trace.steps]
    assert (_sha(repr(levels).encode()), _sha(repr(_single_records(_call(program))).encode())) \
        == STEP_PINS[program]


def test_add_level_records():
    _, trace = reduce(_call("add"))
    assert [(step.paths, step.rules) for step in trace.steps] == [
        (((),), ("add/S",)),
        (((0,),), ("add/S",)),
        (((0, 0),), ("add/S",)),
        (((0, 0, 0),), ("add/I",)),
    ]


def test_inorder_level_and_single_records():
    expr = Call("inorder", (Value(tree_parse(tokenize("a ( c LEAF LEAF ) ( t LEAF LEAF )"))),))
    _, trace = reduce(expr)
    assert [(step.paths, step.rules) for step in trace.steps] == [
        (((),), ("inorder/Branch",)),
        (((0, 0), (1,)), ("inorder/Branch", "inorder/Branch")),
        (((0, 0, 0, 0), (0, 0, 0), (0, 0, 1), (0, 0), (0,), (1, 0, 0), (1, 0), (1, 1), (1,), ()),
         ("inorder/Leaf", "++", "inorder/Leaf", "++", "++",
          "inorder/Leaf", "++", "inorder/Leaf", "++", "++")),
    ]
    assert _single_records(expr) == [
        (((),), ("inorder/Branch",)),
        (((0, 0),), ("inorder/Branch",)),
        (((0, 0, 0, 0),), ("inorder/Leaf",)),
        (((0, 0, 0),), ("++",)),
        (((0, 0, 1),), ("inorder/Leaf",)),
        (((0, 0),), ("++",)),
        (((0,),), ("++",)),
        (((1,),), ("inorder/Branch",)),
        (((1, 0, 0),), ("inorder/Leaf",)),
        (((1, 0),), ("++",)),
        (((1, 1),), ("inorder/Leaf",)),
        (((1,),), ("++",)),
        (((),), ("++",)),
    ]
