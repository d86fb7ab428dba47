"""Byte-identity pins: generated files, CLI traces and normal forms,
machine logs, shortcut diffs and the rewrite records of every reduction
step are fixed to digests of their known-good output, so any change to
the reduction engine, the big-step evaluator or the machines that alters
a state, a path, a rule name or a reported disagreement shows up here."""

import functools
import hashlib
import json

import pytest

from structrec.cli import main
from structrec.datasets import record_rng, sample_tree
from structrec.errors import StructrecError
from structrec.evaluation import TRACE_ERRORS, validate_trace
from structrec.reduction import (
    ARROW,
    PAREN,
    Call,
    Value,
    builtin_programs,
    levels,
    parse_state_unroll,
    program_call,
    reduce,
    render_state_paren,
    render_state_unroll,
    step_single,
)
from structrec.terms import BIN_POS, PEANO, delinearize, linearize, tokenize, tree_parse, \
    tree_serialize

S_INPUT = " ".join(["X1"] * 40 + ["X0", "X1", "X0", "01"])
TREE = ("a ( b ( c LEAF LEAF ) ( a LEAF ( b LEAF LEAF ) ) ) "
        "( c ( a LEAF LEAF ) ( b ( c LEAF LEAF ) LEAF ) )")
INPUTS = {"s": [S_INPUT], "add": ["S S S I", "S S I"], "inorder": [TREE], "preorder": [TREE]}

TRAVERSAL_ARGV = ["gen", "traversal", "--train", "300", "--test", "60", "--depths", "2:7",
                  "--seed", "5"]
TREES_ARGV = ["gen", "trees", "--depths", "2:7", "--train", "200", "--test", "40", "--seed", "5"]

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
    "inorder_full_train": (
        TRAVERSAL_ARGV + ["--kind", "inorder"],
        "4ddc1e8f4484c12b46e5dd2d8c58bddd59a759d61444d18d2b2ee3f31c3c6699",
        "20f39ba7b7bfbce351534914d0223cdc9d4099bc7f68f428d58431b19a2896dc",
    ),
    "inorder_full_test": (
        TRAVERSAL_ARGV + ["--kind", "inorder"],
        "cb57539038eaa6d659ab064fe4789e1641ebef2963fbec6a23b13a679759edc2",
        "2cbb1f3e79e705df46cc136654a668d36c0e356561b6426030d4d8599120564a",
    ),
    "preorder_full_train": (
        TRAVERSAL_ARGV + ["--kind", "preorder"],
        "7c68038df74e783792f2107095609153f4d36668f406a422c6fa8e8ea1a045fb",
        "2dd047761045d5412ca9cac74c5e216cd2f75103665e277b3041648ccf516fe4",
    ),
    "preorder_full_test": (
        TRAVERSAL_ARGV + ["--kind", "preorder"],
        "e42b13b68fde424c0781e3bdd8348211079829220ef526befa5b9caf957907db",
        "8ec07499dd19699ce333f89b8c391cb416753cec80cfe7868e90d01ebbc08b02",
    ),
    "inorder_k2_train": (
        TRAVERSAL_ARGV + ["--kind", "inorder", "--k", "2"],
        "3271a844419a011914acc95da0a04139381e1838e2a1daf2c48096171a7ff475",
        "c424202e7a76786356c0792873a9d85c891d0e44c627300c523d23c2bc5ce34c",
    ),
    "inorder_k2_test": (
        TRAVERSAL_ARGV + ["--kind", "inorder", "--k", "2"],
        "e119fa5b8a7fc68fa2a3cb707993df3ecf8c31cb5811c7f082e3b001418ff9c2",
        "204781f2ac401ce88caed20b7cb60a7deb1480dc837d8b5995e707439a37a885",
    ),
    "preorder_k2_train": (
        TRAVERSAL_ARGV + ["--kind", "preorder", "--k", "2"],
        "095b504c42d68c23efd0767c18636b431b677cc656d9e0b03a826909ff06737a",
        "e60725d442f3b89c89370253ef04c3ce04a2ae130699caccf07ff84a0d960155",
    ),
    "preorder_k2_test": (
        TRAVERSAL_ARGV + ["--kind", "preorder", "--k", "2"],
        "78406c12ceab98e036eaa62bba9e6204e66683e3a8de0157ff65c8d86244f589",
        "523b78a640dc6620acc7176cdb54ea2aa085921c348006205da688eb920e7d0d",
    ),
    "successor_reverse": (
        ["gen", "successor", "--range", "1:4096", "--max-pad", "3",
         "--remap", '{"X0":"a","X1":"b","01":"c"}', "--oversample-g1", "4",
         "--oversample-g2", "3"],
        "bc9bb0e53bbbc2acb54a8e9326b4fe4093b1311f8337b9982c7dbcd179f17d27",
        "a297971c5d6a5a83ec63175d22057a7025f467b3ea0d3557c1dfdac389b95c22",
    ),
    "edge_group1_reverse": (
        ["gen", "successor", "--edge-cases", "2:40"],
        "2365ef4f6ce2d9f639b05ed38dd3df90086b0995adfa461bb667cb1ca143faf3",
        "3f24e4772ce402b52a538949b9d81b23b34764f53d0aa2cad4c9d87f163adb10",
    ),
    "edge_group2_reverse": (
        ["gen", "successor", "--edge-cases", "2:40"],
        "982227d7a3f97b8957912ef94c2d76f7af26ff92d41cd8f3a615b67a5d4cf1b8",
        "252029700c7cca5767fea266aefd5080468330dd90cdfc46055fbe63b29619f8",
    ),
    "successor_random_reverse": (
        ["gen", "random", "--count", "300"],
        "8c56afbb7c0d727eccaab66b7ec762357661341a8d4849011d857c11ced8fed9",
        "068d7148701bd458136434d9c78cc3b2a581baa0f9e3f32692fe12056dcba8f3",
    ),
    "single_step": (
        ["gen", "single-step", "--range", "1:512"],
        "822b6f3dc4597de66180e4145935d0b89c6cf904d97fef50f78bd1b9e02532bd",
        "96a30174fd319ccdcf622844c4aa3f47093200304cdcd614693ebdb9e052eb3a",
    ),
    "trees_train": (
        TREES_ARGV,
        "422eef9953f112a9b30df814f9170b6c6660513536f775490e66acb4eae316c3",
        "ef1fdf0bf5da7868b505a69bc4668cacf18aa3d66bae0c686ca7ce80563a7e1e",
    ),
    "trees_test": (
        TREES_ARGV,
        "d7238a89f85366fe980004b7c8f11ca4af8db4a93a3d952887dac036cead3fc2",
        "aa49f1c537092773c8228fff5656331f241a8085f75b5e8039933610bd8cd785",
    ),
    # a remap that names PAD, which padding adds after the remap
    "successor_natural": (
        ["gen", "successor", "--order", "natural", "--range", "1:2048", "--max-pad", "2",
         "--remap", '{"X0":"a","X1":"b","01":"c","PAD":"p"}', "--oversample-g1", "3"],
        "579cec2a3396443b6c5872d3575cc1e037217c561db066ee8d4d1481e211de95",
        "17d59fa2cd67c8f9dfafd988a90b648d3000f1cbb57026fa19400ad9b78639ee",
    ),
}

# sha256 of `structrec reduce PROGRAM INPUT... --trace` stdout
TRACE_PINS = {
    "s": "85e7da2e17ce65973160953c469b783776f670cface4366440972223e95e6f70",
    "add": "9635548631269bdfd979cdbfd2537039d0776ecadb973f412494da8b7c5f5002",
    "inorder": "d410c1ab640af6d7590625fb28e5dd8dd0940f20725618f847fe5afc4724ed7e",
    "preorder": "50176f936bbbf56b8ef1218ae9eb341ec6ad0b9f3cbde0a3250106e35d28ea33",
}

# sha256 of `structrec reduce PROGRAM INPUT...` stdout, the normal form alone
NORMAL_FORM_PINS = {
    "s": "e9d51ee251c2994aadd206f782008f2c819cf49dd57eaba3be57ae7569d65cdb",
    "add": "73be7ff1f29cd4493187c382af24df3987db4a21a14bb2551a478252fab2915b",
    "inorder": "323bebcb804469d9d23e7fd0a4d6a2f8be20fddb816b89f35ab65a067a3af8e8",
    "preorder": "734b435d77dce20f44c93bd62c2d3e0be23eceb194cdfc504b4c7e165c237338",
}

# sha256 of `structrec asm MACHINE --input TOKENS --log [--mode MODE]` stdout,
# over every input of the machine's token order, one run after another
ASM_CONSTRUCTOR_INPUTS = ["X1 X1 X1 X0 X1 01", "X1 X1 X1 X1 01", "X0 X1 X0 01", "01", "X0 01"]
ASM_NATURAL_INPUTS = [" ".join(reversed(text.split())) for text in ASM_CONSTRUCTOR_INPUTS]
ASM_LOG_PINS = {
    ("successor", None): "5f67c6834607244820b8a8643e97b1d6a8e13aa1778f4671af5e8f5358b38aa8",
    ("shortcut-natural", "faithful"):
        "809a20e4c7d6ec6caa3c2d32e7edb3b0500827389ea775cb9c011334c798ef0e",
    ("shortcut-natural", "corrected"):
        "26cf3f1c54c78f58d5d9fec0b3426c6a8410f41c23da3c310d54c3f284a873cb",
    ("shortcut-reverse", "faithful"):
        "ccd55cbdac5be4f78f61b659c9c2945e09430252f51cb483e925ab2e56343064",
    ("shortcut-reverse", "corrected"):
        "f43c494c895fae370b349d628793eae2051f76a0e652c33581c2472a478a128f",
}

# sha256 of `structrec shortcut ORDER --mode MODE --diff --range 1:4096 --out F`
# stdout (with F written as OUT) and of F
SHORTCUT_DIFF_PINS = {
    ("natural", "faithful"): (
        "83035c227b46ad576182920afecc8a227223928de5497eca817b24b92009799f",
        "5cd992ad06f5e44b4dd7f511144a4022198d75b1037930abf4dba87c4586d75e",
    ),
    ("reverse", "corrected"): (
        "7b7494e5966a3e51018c0bf040a419ea92ae3b6fcd51e3b551c127daf63c3b50",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
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


@pytest.mark.parametrize("program", sorted(NORMAL_FORM_PINS))
def test_reduce_normal_form_output_is_pinned(capsys, program):
    assert main(["reduce", program, *INPUTS[program]]) == 0
    assert _sha(capsys.readouterr().out.encode()) == NORMAL_FORM_PINS[program]


@pytest.mark.parametrize("machine,mode", sorted(ASM_LOG_PINS, key=str))
def test_asm_log_output_is_pinned(capsys, machine, mode):
    inputs = ASM_NATURAL_INPUTS if machine == "shortcut-natural" else ASM_CONSTRUCTOR_INPUTS
    for text in inputs:
        assert main(["asm", machine, "--input", text, "--log",
                     *(["--mode", mode] if mode else [])]) == 0
    assert _sha(capsys.readouterr().out.encode()) == ASM_LOG_PINS[machine, mode]


@pytest.mark.parametrize("order,mode", sorted(SHORTCUT_DIFF_PINS))
def test_shortcut_diff_output_is_pinned(tmp_path, capsys, order, mode):
    path = tmp_path / "diff.jsonl"
    assert main(["shortcut", order, "--mode", mode, "--diff", "--range", "1:4096",
                 "--out", str(path)]) == 0
    out = capsys.readouterr().out.replace(str(path), "OUT")
    assert (_sha(out.encode()), _sha(path.read_bytes())) == SHORTCUT_DIFF_PINS[order, mode]


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


# ---------------------------------------------------------------------------
# eval reports


def _numeral(value: int) -> list[str]:
    """bin_pos tokens, least significant bit first, with the top bit as 01."""
    bits = bin(value)[3:]
    return ["X1" if bit == "1" else "X0" for bit in reversed(bits)] + ["01"]


def _eval_fixture(directory):
    """Gold records and ranked predictions that hit every scoring path: all
    four failure labels, an empty candidate list, targets at rank 1, 2, 3
    and 6 and nowhere, string candidates, and the XO alias in gold
    targets and predictions."""
    gold, preds = [], []
    for i in range(60):
        value = 1 + (i * 37) % 300
        target = _numeral(value + 1)
        rid = f"r{i:03d}"
        gold.append({"id": rid, "task": "successor", "order": "reverse",
                     "input": _numeral(value),
                     "target": ["XO" if tok == "X0" and i % 7 == 0 else tok
                                for tok in target],
                     "meta": {"value": value, "bits": value.bit_length(),
                              "depth": i % 4 + 1, "edge_group": i % 3,
                              "pad_len": 0, "weight": 1}})
        wrong = ["X1" if tok == "X0" else "X0" if tok == "X1" else tok for tok in target]
        if wrong == target:
            wrong = ["X0"] + target
        short, long = target[1:], ["X0"] + target
        other = ["01"] if len(target) > 2 else ["X1", "X1", "X1", "01"]
        candidates = [
            [target],                                  # exact
            [wrong, short, target, long],              # rank 3, wrong-token
            [short, wrong, other],                     # nowhere, one-token-short
            [long, target],                            # rank 2, one-token-long
            [other, wrong, short, long, wrong],        # nowhere, other
            [],                                        # no candidates
            [" ".join(target).replace("X0", "XO")],    # a string, with the alias
            [wrong, wrong, short, long, other, target],  # rank 6
        ][i % 8]
        preds.append({"id": rid, "candidates": candidates})
    gold_path, pred_path = directory / "gold.jsonl", directory / "pred.jsonl"
    gold_path.write_text("".join(json.dumps(obj) + "\n" for obj in gold))
    pred_path.write_text("".join(json.dumps(obj) + "\n" for obj in reversed(preds)))
    return gold_path, pred_path


# sha256 of `structrec eval` stdout on the fixture above, by --format
EVAL_PINS = {
    "json": "dcba0c90a8ad4e400a0329880cf9daee8dc570c05f4f287a821ae4643ca44fdf",
    "text": "8ca8a61c11a0dc54c5ad67ce76759fcc2f565fbc901e2fbf08906dccd40c5187",
}


@pytest.mark.parametrize("fmt", sorted(EVAL_PINS))
def test_eval_report_is_pinned(tmp_path, capsys, fmt):
    gold, pred = _eval_fixture(tmp_path)
    argv = ["eval", "--gold", str(gold), "--pred", str(pred), "--format", fmt,
            "--breakdown", "bits", "--breakdown", "bit_length", "--breakdown", "edge_group"]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == EVAL_PINS[fmt]


WHITESPACE = [chr(c) for c in range(0x110000) if chr(c).isspace()]


def _string_variants(target, i) -> list[str]:
    """Candidate strings around a target: the whitespace-split ones and
    the ones that hold a paren, a bracket, an alias or a token that
    merely contains an alias."""
    plain = " ".join(target)
    wide = WHITESPACE[i % len(WHITESPACE)]
    return [
        plain,
        "\t".join(target),
        wide.join(target) + wide,
        f"  {plain} \n",
        "",
        "(" + "".join(f"{tok}(" for tok in target[:-1]) + target[-1] + ")",
        plain.replace("X0", "XO"),
        plain.replace("X0", "XOR"),
        "aXO " + plain,
        f"UNROLL[{plain}]",
        f"REDUCE[ {plain} ]",
        "XO" + plain,
        "[" + plain,
        "X1 " + plain,
    ]


def _string_eval_fixture(directory):
    """Gold records and ranked predictions whose every candidate is a string."""
    gold, preds = [], []
    for i in range(90):
        value = 1 + (i * 53) % 400
        target = _numeral(value + 1)
        rid = f"s{i:03d}"
        gold.append({"id": rid, "task": "successor", "order": "reverse",
                     "input": _numeral(value), "target": target,
                     "meta": {"value": value, "bits": value.bit_length(),
                              "depth": i % 4 + 1, "edge_group": i % 3,
                              "pad_len": 0, "weight": 1}})
        rng = record_rng(3, "string-candidates", i)
        variants = _string_variants(target, i)
        rng.shuffle(variants)
        preds.append({"id": rid, "candidates": variants[:rng.randrange(7)]})
    gold_path, pred_path = directory / "gold.jsonl", directory / "pred.jsonl"
    gold_path.write_text("".join(json.dumps(obj) + "\n" for obj in gold))
    pred_path.write_text("".join(json.dumps(obj) + "\n" for obj in preds))
    return gold_path, pred_path


# sha256 of `structrec eval` stdout on the string-candidate fixture, by --format
STRING_EVAL_PINS = {
    "json": "f94c09037ddbc72ccb1b289bf4b2e1293d27c05f81a41bc181ff56deafb5d051",
    "text": "b73122d5c500fc5e0c795fcf3d388936378203c470844ff9e690580fad5b5b44",
}


@pytest.mark.parametrize("fmt", sorted(STRING_EVAL_PINS))
def test_string_candidate_report_is_pinned(tmp_path, capsys, fmt):
    gold, pred = _string_eval_fixture(tmp_path)
    argv = ["eval", "--gold", str(gold), "--pred", str(pred), "--format", fmt,
            "--hit-ks", "1,3,6", "--breakdown", "bits"]
    assert main(argv) == 0
    assert _sha(capsys.readouterr().out.encode()) == STRING_EVAL_PINS[fmt]


# ---------------------------------------------------------------------------
# trace judgments and the constructor-order parser


def _oracle_states(task: str, tokens) -> list[list[str]]:
    """The states of the oracle trace of task on tokens, each as tokens."""
    program = builtin_programs()["s" if task == "successor" else task]
    call = program_call(program, [tokens])
    if task == "successor":
        return [render_state_paren(call)] + [engine.render(PAREN) for engine in levels(call)]
    return [render_state_unroll(call)] + [engine.render(ARROW) for engine in levels(call)]


TRACE_DAMAGE = ("none", "none", "mutate", "drop", "repeat", "swap", "premature", "malformed",
                "alias", "other-input", "mutate-input", "no-input", "cut")


def _damaged(kind: str, task: str, states, tokens, rng):
    """The trace text of states after one kind of damage, and the input
    given with it."""
    states = [list(state) for state in states]
    last = len(states) - 1
    vocab = ("X0", "X1", "01") if task == "successor" else ("a", "b", "c", "LEAF")
    if kind == "mutate":
        state = states[rng.randrange(last + 1)]
        state[rng.randrange(len(state))] = rng.choice(vocab)
    elif kind == "drop" and last:
        del states[-1]
    elif kind == "repeat":
        states.append(states[-1])
    elif kind == "swap" and task != "successor" and last:
        # from state i on, the sibling traversal's trace
        i = rng.randrange(last)
        sibling = builtin_programs()["preorder" if task == "inorder" else "inorder"]
        _, trace = reduce(parse_state_unroll(states[i], sibling))
        states[i:] = [render_state_unroll(state) for state in trace.states()]
    elif kind == "premature" and last > 1:
        states[rng.randrange(1, last):] = [states[-1]]
    elif kind == "malformed":
        state = states[rng.randrange(last + 1)]
        state.insert(rng.randrange(len(state) + 1),
                     rng.choice(("(", ")", "]", "UNROLL[", "EMPTY", "Q")))
    elif kind == "alias":
        spelled = {"X0": "XO", "UNROLL[": "REDUCE["}
        states = [[spelled.get(tok, tok) if rng.random() < 0.5 else tok for tok in state]
                  for state in states]
        tokens = [spelled.get(tok, tok) for tok in tokens]
    elif kind == "other-input":
        tokens = (_numeral(rng.randint(1, 2**12)) if task == "successor"
                  else tree_serialize(sample_tree(rng, rng.randint(1, 3), "abc")))
    elif kind == "mutate-input":
        tokens = list(tokens)
        tokens[rng.randrange(len(tokens))] = rng.choice(vocab)
    elif kind == "no-input":
        tokens = None
    text = (" = " if task == "successor" else " -> ").join(" ".join(state) for state in states)
    if kind == "cut":
        text = text[: rng.randrange(1, len(text) + 1)]
    return text, tokens


@functools.cache
def _trace_cases() -> tuple:
    """(task, trace text, input tokens): successor traces of 1-300 bits,
    a third of them edge-group members, and inorder and preorder traces of
    depth 1-7, each clean or damaged in one way; then malformed inputs."""
    cases = []
    for i in range(240):
        rng = record_rng(0, "trace-pins", i)
        if i % 2:
            task = rng.choice(("inorder", "preorder"))
            tokens = tree_serialize(sample_tree(rng, rng.randint(1, 7), "abc"))
        else:
            task, bits, group = "successor", rng.randint(1, 300), rng.randrange(3)
            if group == 1 and bits >= 2:
                value = 2**bits - 1
            elif group == 2 and bits >= 3:
                value = 3 * 2 ** (bits - 2) - 1
            else:
                value = rng.randint(2 ** (bits - 1), 2**bits - 1)
            tokens = _numeral(value)
        kind = rng.choice(TRACE_DAMAGE)
        cases.append((task, *_damaged(kind, task, _oracle_states(task, tokens), tokens, rng)))
    successor = " = ".join(" ".join(s) for s in _oracle_states("successor", ["X1", "X0", "01"]))
    tree = "a ( b LEAF LEAF ) LEAF"
    inorder = " -> ".join(" ".join(s) for s in _oracle_states("inorder", tokenize(tree)))
    cases += [
        ("successor", successor, ["X1", "X0"]),  # dangling
        ("successor", successor, ["X1", "Q", "01"]),  # unknown constructor
        ("successor", successor, ["X1", "X0", "01", "X1"]),  # trailing tokens
        ("successor", successor, []),
        ("successor", successor, ["X1", "XO", "01"]),
        ("successor", "X0 ( X0 01 )", ["X1", "X0", "01"]),  # an emitted prefix in state 0
        ("successor", "X0 X1 01", ["X1", "X0", "01"]),  # state 0 a value
        ("inorder", inorder, ["a", "(", "b", "LEAF", "LEAF", ")", "LEAF", "]"]),
        ("inorder", inorder, ["]"]),
        ("preorder", "UNROLL[ a LEAF LEAF ] ]", ["a", "LEAF", "LEAF", "]"]),
        ("preorder", "UNROLL[ a LEAF LEAF ] -> a", ["a", "LEAF", "LEAF", "]"]),
        # state 0 shows the input's tokens but is no single call on it
        ("inorder", "UNROLL[ a LEAF LEAF ] x UNROLL[ b LEAF LEAF ]",
         ["a", "LEAF", "LEAF", "]", "x", "UNROLL[", "b", "LEAF", "LEAF"]),
        ("inorder", "EMPTY", ["LEAF"]),
        ("inorder", "REDUCE[ a LEAF LEAF ] -> a EMPTY EMPTY -> a", ["a", "LEAF", "LEAF"]),
        ("carousel", successor, None),
    ]
    return tuple(cases)


def _outcome(call):
    """What call returns, or the type and message of what it raises."""
    try:
        return call()
    except StructrecError as exc:  # the pin fixes which error, too
        return type(exc).__name__, str(exc)


def _judgments(cases) -> list:
    def judge(task, text, tokens):
        judgment = validate_trace(text, task, input_tokens=tokens)
        return judgment.valid, judgment.first_bad_step, judgment.error
    return [_outcome(lambda: judge(*case)) for case in cases]


# sha256 of repr(_judgments(_trace_cases()))
TRACE_JUDGMENT_PIN = "d967a979edb163411549eec9d43ae4a2a14628ddb4a5aceab662feb0ee184cc5"


def test_trace_judgments_are_pinned():
    judgments = _judgments(_trace_cases())
    labels = {j[2] for j in judgments if len(j) == 3}
    assert labels == {None, *TRACE_ERRORS}  # every label, and valid traces
    assert {j[0] for j in judgments if len(j) == 2} == {"MalformedSequenceError", "EvalError"}
    assert _sha(repr(judgments).encode()) == TRACE_JUDGMENT_PIN


# sha256 of `structrec eval --validate-traces` stdout over the trace cases
# that have an input and raise nothing, by --format
TRACE_REPORT_PINS = {
    "json": "223ba06b8b6a0955b6bfe89c6a37a8286ef91e8ee26e69aae32e4dddc990d5fe",
    "text": "f1b2bc79ad4c8b57afd6dcbe8b7fdba86ee428ddc834e28d6f466ce9ea019846",
}


@pytest.mark.parametrize("fmt", sorted(TRACE_REPORT_PINS))
def test_trace_validation_report_is_pinned(tmp_path, capsys, fmt):
    cases = _trace_cases()
    path = tmp_path / "traces.jsonl"
    path.write_text("".join(
        json.dumps({"id": f"t{i}", "task": task, "input": tokens, "trace": text}) + "\n"
        for i, ((task, text, tokens), judgment) in enumerate(zip(cases, _judgments(cases)))
        if tokens is not None and len(judgment) == 3))
    assert main(["eval", "--validate-traces", "--traces", str(path), "--format", fmt]) == 0
    assert _sha(capsys.readouterr().out.encode()) == TRACE_REPORT_PINS[fmt]


def _parser_inputs(idef, count: int = 5000) -> list[list[str]]:
    """Seeded token sequences around the chains of idef: complete chains
    with up to three edits (a token dropped, inserted or replaced, from
    both types' constructors, the XO alias and an unknown token)."""
    unary = [c.name for c in idef.constructors if c.recursive_arity]
    base = next(c.name for c in idef.constructors if not c.recursive_arity)
    vocab = ("X0", "X1", "01", "XO", "S", "I", "Q")
    inputs = []
    for i in range(count):
        rng = record_rng(0, f"parse-pins/{idef.name}", i)
        tokens = [rng.choice(unary) for _ in range(rng.choice((0, 1, 2, 5, 40)))] + [base]
        for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
            at = rng.randrange(len(tokens) + 1)
            edit = rng.choice(("drop", "insert", "replace"))
            if edit == "insert" or at == len(tokens):
                tokens.insert(at, rng.choice(vocab))
            elif edit == "drop":
                del tokens[at]
            else:
                tokens[at] = rng.choice(vocab)
        inputs.append(tokens)
    return inputs


def _parser_outcomes(idef) -> list:
    def whole(tokens):
        return linearize(delinearize(tokens, idef))

    def front(tokens):
        term, used = delinearize(tokens, idef, prefix=True)
        return linearize(term), used
    return [(_outcome(lambda: whole(tokens)), _outcome(lambda: front(tokens)))
            for tokens in _parser_inputs(idef)]


# sha256 of repr(_parser_outcomes(idef)), by type
PARSER_PINS = {
    "bin_pos": "a7171c24e0cd434614da5c4e93b5002118cdcb2c7fa84d6580d2643c85ad485f",
    "peano": "cb8480675a3ff27d1e09741969148a141c1e7f05fead3f39c2177e88b3270c6a",
}


@pytest.mark.parametrize("idef", [BIN_POS, PEANO], ids=lambda idef: idef.name)
def test_delinearize_outcomes_are_pinned(idef):
    assert _sha(repr(_parser_outcomes(idef)).encode()) == PARSER_PINS[idef.name]
