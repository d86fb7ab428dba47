"""Command line front end.

Subcommands: gen, reduce, shortcut, asm, eval.  Every command is
deterministic given its flags; randomness flows from one --seed flag
with a fixed default, never from wall-clock time.

Exit codes: 0 success, 2 bad flags, 3 I/O failure, 4 malformed input,
5 fuel or step budget exhausted, 6 prediction/gold id mismatch.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
from pathlib import Path

from . import asm as asm_mod
from . import datasets, evaluation, shortcuts
from .errors import (
    BudgetExhaustedError,
    FuelExhaustedError,
    IdMismatchError,
    StructrecError,
)
from .reduction import _style_of, builtin_programs, program_call, reduce, render_states
from .terms import NATURAL, REVERSE, tokenize

DATA_DIR_ENV = "STRUCTREC_DATA_DIR"

GOOD = 0
BAD_FLAGS = 2
IO_ERROR = 3
BAD_INPUT = 4
OUT_OF_FUEL = 5
ID_MISMATCH = 6


def _range_arg(text: str, bound=int) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    try:
        bounds = bound(lo), bound(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected integers in LO:HI, got {text!r}") from None
    if bounds[0] > bounds[1]:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return bounds


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type when int() fails
    return parse


def _ks_arg(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise argparse.ArgumentTypeError("every k must be at least 1")
    return ks


def _breakdown_key(text: str) -> str:
    try:
        evaluation._meta_field(text)  # its error names the accepted keys
    except StructrecError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def _remap_arg(text: str) -> dict:
    try:
        mapping = json.loads(text)
    except json.JSONDecodeError:
        # not inline JSON, treat it as a file path
        try:
            with open(text, encoding="utf-8") as handle:
                mapping = json.load(handle)
        except OSError as exc:
            raise argparse.ArgumentTypeError(f"remap is neither JSON nor a readable file: {exc}")
        except json.JSONDecodeError as exc:
            raise argparse.ArgumentTypeError(f"remap file is not JSON: {exc}")
    if not isinstance(mapping, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in mapping.items()
    ):
        raise argparse.ArgumentTypeError("remap must be a string-to-string object")
    return mapping


def _default_out() -> str:
    return os.environ.get(DATA_DIR_ENV, ".")


REQUIRED = object()  # a mode_flags default: the modes that read the flag must be given it


def _flag_text(value) -> str:
    return "%d:%d" % value if isinstance(value, tuple) else str(value)


class _Parser(argparse.ArgumentParser):
    """The parser of every subcommand.  Of its mode_flags, which only some
    values of its mode_dest argument read, one the chosen mode does not
    read is a usage error, as a flag the subcommand lacks is, and so is a
    REQUIRED one it reads and was not given; any other takes its default."""

    mode_dest = None
    mode_flags: dict = {}  # dest: (the mode_dest values that read the flag, its default)

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if not self.mode_flags:
            return namespace, extras
        mode = getattr(namespace, self.mode_dest)
        flag = {action.dest: action.option_strings[0] for action in self._actions
                if action.option_strings}
        unread = [flag[dest] for dest, (modes, _) in self.mode_flags.items()
                  if mode not in modes and getattr(namespace, dest) is not None]
        for dest, (modes, default) in self.mode_flags.items():
            if mode in modes and getattr(namespace, dest) is None:
                setattr(namespace, dest, default)
        missing = [flag[dest] for dest in self.mode_flags if getattr(namespace, dest) is REQUIRED]
        if unread or missing:
            if self.mode_dest not in flag:  # a positional is named by its value
                name = mode
            elif mode is None or mode is False:
                name = f"{self.prog.split()[-1]} without {flag[self.mode_dest]}"
            else:
                name = flag[self.mode_dest] + ("" if mode is True else f" {_flag_text(mode)}")
            self.error(f"{name} does not read {', '.join(unread)}" if unread
                       else f"{name} needs {', '.join(missing)}")
        return namespace, extras


# ---------------------------------------------------------------------------
# gen


def _add_gen_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=datasets.DEFAULT_SEED,
                        help=f"global RNG seed (default {datasets.DEFAULT_SEED})")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default ${DATA_DIR_ENV} or '.')")


def _add_postprocess_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--max-pad", type=_int_at_least(0), default=0, metavar="P",
                        help="prefix input and target with Uniform{0..P} pad tokens (default 0)")
    parser.add_argument("--remap", type=_remap_arg, default=None, metavar="JSON",
                        help="token respelling, inline JSON object or a path to one")


def _add_edge_group_flags(parser: argparse.ArgumentParser) -> None:
    for group in (1, 2):
        parser.add_argument(f"--oversample-g{group}", dest=f"oversample_group{group}",
                            type=_int_at_least(1), default=None, metavar="K",
                            help=f"duplication factor for edge group {group} records (default 1)")


def _add_tree_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--depths", type=_range_arg, default=(5, 6), metavar="LO:HI")
    parser.add_argument("--train", type=_int_at_least(0), default=20000)
    parser.add_argument("--test", type=_int_at_least(0), default=1000)
    parser.add_argument("--alphabet", default="abc")


# the DatasetSpec fields that the shared flag groups set, each flag's dest
_GROUP_FIELDS = frozenset({"seed", "max_pad", "remap", "oversample_group1", "oversample_group2"})


def _gen_spec(args, **fields) -> datasets.DatasetSpec:
    """The spec of fields and of the group flags this subcommand has; a
    flag it lacks, or one left at None, leaves its field at the spec's
    default."""
    flags = {field: value for field, value in vars(args).items()
             if field in _GROUP_FIELDS and value is not None}
    spec = datasets.DatasetSpec(**{**flags, **fields})
    spec.validate()
    return spec


def _tree_spec(args, **fields) -> datasets.DatasetSpec:
    return _gen_spec(args, task=datasets.TRAVERSAL,
                     depth_lo=args.depths[0], depth_hi=args.depths[1],
                     train_count=args.train, test_count=args.test, alphabet=args.alphabet,
                     **fields)


def _emit(records, out_dir: str, name: str, spec: datasets.DatasetSpec, streamed=False) -> Path:
    """Post-process records by spec unless streamed, then write them and their manifest."""
    records = records if streamed else datasets.postprocess(records, spec)
    directory = Path(out_dir if out_dir is not None else _default_out())
    directory.mkdir(parents=True, exist_ok=True)
    data_path = directory / f"{name}.jsonl"
    datasets.write_jsonl(records, data_path)
    datasets.write_manifest(directory / f"{name}.manifest.json", spec, data_path, len(records))
    print(f"wrote {len(records)} records to {data_path}")
    return data_path


def cmd_gen_successor(args) -> int:
    if args.edge_cases is not None:
        spec = _gen_spec(args, task=datasets.SUCCESSOR, order=args.order,
                         bits_lo=args.edge_cases[0], bits_hi=args.edge_cases[1])
        # edge files are test groups, so the parser takes no oversample flag for them
        g1, g2 = datasets.gen_edge_records(spec)
        _emit(g1, args.out, f"edge_group1_{args.order}", spec)
        _emit(g2, args.out, f"edge_group2_{args.order}", spec)
        return GOOD
    spec = _gen_spec(args, task=datasets.SUCCESSOR, order=args.order,
                     lo=args.range[0], hi=args.range[1])
    _emit(datasets._successor_stream(spec), args.out, f"successor_{args.order}", spec, streamed=True)
    return GOOD


def cmd_gen_random(args) -> int:
    spec = _gen_spec(args, task=datasets.SUCCESSOR_RANDOM, order=args.order,
                     count=args.count, bits_lo=args.bits[0], bits_hi=args.bits[1])
    _emit(datasets.gen_successor_random(spec), args.out, f"successor_random_{args.order}", spec)
    return GOOD


def cmd_gen_single_step(args) -> int:
    spec = _gen_spec(args, task=datasets.SINGLE_STEP, lo=args.range[0], hi=args.range[1])
    _emit(datasets.gen_single_step(spec), args.out, "single_step", spec)
    return GOOD


def cmd_gen_trees(args) -> int:
    spec = _tree_spec(args)
    samples, split = datasets.gen_trees(spec)
    assert not split.overlap()
    directory = Path(args.out if args.out is not None else _default_out())
    directory.mkdir(parents=True, exist_ok=True)
    for name, part in (("trees_train", "train"), ("trees_test", "test")):
        path = directory / f"{name}.jsonl"
        records = [s for s in samples if s.split == part]
        datasets.write_jsonl(records, path)
        datasets.write_manifest(directory / f"{name}.manifest.json", spec, path, len(records))
        print(f"wrote {name} to {path}")
    return GOOD


def cmd_gen_traversal(args) -> int:
    spec = _tree_spec(args, kind=args.kind, k=args.k)
    samples, _ = datasets.gen_trees(spec)
    stem = f"{spec.kind}_{'full' if spec.k is None else f'k{spec.k}'}"
    for part in ("train", "test"):
        records = datasets.gen_traversal([s for s in samples if s.split == part], spec)
        _emit(records, args.out, f"{stem}_{part}", spec)
    return GOOD


# the flags of gen traces that only some tasks read, by dest: the tasks
# that read each, and its default
_TRACE_TASK_FLAGS = {"range": ((datasets.SUCCESSOR,), (1, 1024)),
                     "count": (datasets._TRAVERSALS, 100),
                     "depths": (datasets._TRAVERSALS, (2, 4)),
                     "alphabet": (datasets._TRAVERSALS, "abc")}
# the flags of gen successor that a value range reads and --edge-cases does not
_RANGE_FLAGS = {"range": ((None,), (1, 131072)), "oversample_group1": ((None,), 1),
                "oversample_group2": ((None,), 1)}


def cmd_gen_traces(args) -> int:
    if args.task in datasets._TRAVERSALS:
        spec = _gen_spec(args, task=datasets.TRAVERSAL, kind=args.task, count=args.count,
                         depth_lo=args.depths[0], depth_hi=args.depths[1],
                         alphabet=args.alphabet)
    else:
        spec = _gen_spec(args, task=datasets.SUCCESSOR, lo=args.range[0], hi=args.range[1])
    _emit(datasets.gen_traces(spec), args.out, f"traces_{args.task}", spec)
    return GOOD


# ---------------------------------------------------------------------------
# reduce


def cmd_reduce(args) -> int:
    program = builtin_programs()[args.program]
    expr = program_call(program, [tokenize(text) for text in args.input])
    style = _style_of(program)
    if args.k is not None:  # the state after k levels, or the normal form before them
        for taken, state in zip(range(args.k + 1), render_states(expr, style.name)):
            pass  # zip stops at state k, or after the normal form
        print(state)
        if taken < args.k:
            print(f"(normal after {taken} levels)", file=sys.stderr)
        return GOOD
    if args.trace:  # each state written as it is cut
        for i, state in enumerate(render_states(expr, style.name, fuel=args.fuel)):
            sys.stdout.write(f"{style.separator if i else ''}{state}")
        sys.stdout.write("\n")
        return GOOD
    final, _ = reduce(expr, fuel=args.fuel)
    print(" ".join(style.render(final)))
    return GOOD


# ---------------------------------------------------------------------------
# shortcut


def cmd_shortcut(args) -> int:
    if args.input is not None:
        emulate = (shortcuts.emulate_natural if args.order == NATURAL
                   else shortcuts.emulate_reverse)
        print(" ".join(emulate(tokenize(args.input), args.mode)))
        return GOOD
    report = shortcuts.diff_against_oracle(args.order, args.mode, *args.range)
    if args.out:  # written before anything is printed, as gen and eval do
        datasets.write_jsonl(report.disagreements, args.out)
    print(shortcuts.report_summary(report))
    if args.out:
        print(f"wrote disagreements to {args.out}")
    return GOOD


# ---------------------------------------------------------------------------
# asm


def cmd_asm(args) -> int:
    tokens = tokenize(args.input)
    if args.machine == "successor-rasm":
        result = asm_mod.rasm_run(asm_mod.successor_rasm(), tokens, budget=args.budget)
        print(" ".join(result.output))
        print(f"agents: {result.agent_count}  max call depth: {result.max_call_depth}  "
              f"steps: {result.steps}", file=sys.stderr)
        return GOOD
    machine = {
        "successor": asm_mod.successor_machine,
        "shortcut-natural": lambda: shortcuts.natural_shortcut_machine(args.mode),
        "shortcut-reverse": lambda: shortcuts.reverse_shortcut_machine(args.mode),
    }[args.machine]()
    if args.log:
        entries = asm_mod.asm_log(machine, tokens, budget=args.budget)
        for step, fired, state in entries:
            print(f"step {step}: fired {', '.join(fired) if fired else '(none)'} -> "
                  f"out = {' '.join(asm_mod.machine_output(state))}")
        final = entries[-1][2]
    else:
        final, steps = asm_mod.asm_run(machine, tokens, budget=args.budget)
        print(f"steps: {steps}", file=sys.stderr)
    print(" ".join(asm_mod.machine_output(final)))
    return GOOD


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args) -> int:
    if args.validate_traces:
        report = evaluation.TraceValidationReport()
        for record in datasets.read_traces(args.traces):
            try:
                judgment = evaluation.validate_trace(
                    record.trace, args.task or record.task, input_tokens=record.input)
            except StructrecError as exc:  # same class, so the same exit code
                raise type(exc)(f"{args.traces}: record {record.id}: {exc}") from None
            report.add(judgment)
        text = report.render(args.format)
    else:
        gold = datasets.read_jsonl(args.gold)
        predictions = evaluation.read_predictions(args.pred)
        metrics = evaluation.compute_metrics(
            predictions, gold, ks=args.hit_ks, breakdown_keys=args.breakdown)
        text = evaluation.render_report(metrics, args.format)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    print(text)
    return GOOD


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    """A new parser of every subcommand on each call."""
    parser = _Parser(
        prog="structrec",
        description="datasets, reduction, machine emulation, and evaluation "
                    "for structural-recursion sequence tasks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write datasets with manifest sidecars")
    gen_sub = gen.add_subparsers(dest="gen_command", required=True)

    g = gen_sub.add_parser("successor", help="successor pairs over a value range")
    g.add_argument("--order", choices=(REVERSE, NATURAL), default=REVERSE)
    g.add_argument("--range", type=_range_arg, default=None, metavar="LO:HI",
                   help="value range, inclusive (default 1:131072)")
    g.add_argument("--edge-cases", type=_range_arg, default=None, metavar="LO:HI",
                   help="write the two edge groups for this bit-length range instead")
    _add_gen_common(g)
    _add_postprocess_flags(g)
    _add_edge_group_flags(g)
    g.mode_dest, g.mode_flags = "edge_cases", _RANGE_FLAGS

    g = gen_sub.add_parser("random", help="successor pairs at uniform long bit lengths")
    g.add_argument("--order", choices=(REVERSE, NATURAL), default=REVERSE)
    g.add_argument("--count", type=_int_at_least(1), default=1000)
    g.add_argument("--bits", type=_range_arg, default=(18, 41), metavar="LO:HI",
                   help="bit-length range (default 18:41)")
    _add_gen_common(g)
    _add_postprocess_flags(g)
    _add_edge_group_flags(g)

    g = gen_sub.add_parser("single-step", help="consecutive state pairs from successor runs")
    g.add_argument("--range", type=_range_arg, default=(1, 1024), metavar="LO:HI")
    _add_gen_common(g)
    _add_postprocess_flags(g)
    _add_edge_group_flags(g)

    g = gen_sub.add_parser("trees", help="structure-disjoint train/test tree files")
    _add_tree_flags(g)
    _add_gen_common(g)

    g = gen_sub.add_parser("traversal", help="traversal targets over fresh tree splits")
    g.add_argument("--kind", choices=datasets._TRAVERSALS, default=datasets.DatasetSpec.kind)
    g.add_argument("--k", type=_int_at_least(1), default=None,
                   help="emit the state after k levels instead of the full traversal")
    _add_tree_flags(g)
    _add_gen_common(g)
    _add_postprocess_flags(g)

    g = gen_sub.add_parser("traces", help="fully rendered oracle traces")
    default = {dest: _flag_text(value) for dest, (_, value) in _TRACE_TASK_FLAGS.items()}
    g.add_argument("--task", choices=tuple(datasets._TRACE_TASKS), default=datasets.SUCCESSOR)
    g.add_argument("--range", type=_range_arg, default=None, metavar="LO:HI",
                   help=f"successor value range (default {default['range']})")
    g.add_argument("--count", type=_int_at_least(1), default=None,
                   help=f"tree count for traversal traces (default {default['count']})")
    g.add_argument("--depths", type=_range_arg, default=None, metavar="LO:HI",
                   help="tree depth range for traversal traces "
                        f"(default {default['depths']})")
    g.add_argument("--alphabet", default=None,
                   help=f"node values of traversal trees (default {default['alphabet']})")
    _add_gen_common(g)
    g.mode_dest, g.mode_flags = "task", _TRACE_TASK_FLAGS

    red = sub.add_parser("reduce", help="reduce a program application")
    red.add_argument("program", choices=tuple(builtin_programs()))
    red.add_argument("input", nargs="+",
                     help="one token string per program parameter")
    mode = red.add_mutually_exclusive_group()
    mode.add_argument("--trace", action="store_true", help="print the full chain")
    mode.add_argument("--k", type=_int_at_least(0), default=None, metavar="N",
                      help="stop after N levels and print that state")
    red.add_argument("--fuel", type=_int_at_least(1), default=None,
                     help="level budget override (default scales with input size)")
    red.mode_dest, red.mode_flags = "k", {"fuel": ((None,), None)}

    sc = sub.add_parser("shortcut", help="run a shortcut emulator or diff it against the oracle")
    sc.add_argument("order", choices=(NATURAL, REVERSE))
    sc.add_argument("--mode", choices=(shortcuts.FAITHFUL, shortcuts.CORRECTED),
                    default=shortcuts.FAITHFUL)
    sc.add_argument("--input", default=None, metavar="TOKENS",
                    help="single input in the order's own token layout")
    sc.add_argument("--diff", action="store_true", default=None,
                    help="compare against the reduction oracle over --range")
    sc.add_argument("--range", type=lambda text: _range_arg(text, _int_at_least(1)),
                    default=None, metavar="LO:HI")
    sc.add_argument("--out", default=None, help="write per-value disagreements as JSONL")
    sc.mode_dest, sc.mode_flags = "input", {
        "diff": ((None,), REQUIRED), "out": ((None,), None), "range": ((None,), (1, 1024))}

    am = sub.add_parser("asm", help="run a guarded-update machine step by step")
    am.add_argument("machine", choices=("successor", "successor-rasm",
                                        "shortcut-natural", "shortcut-reverse"))
    am.add_argument("--input", required=True, metavar="TOKENS")
    am.add_argument("--mode", choices=(shortcuts.FAITHFUL, shortcuts.CORRECTED),
                    default=None, help=f"shortcut machines only (default {shortcuts.FAITHFUL})")
    am.add_argument("--log", action="store_true", default=None,
                    help="print every step and fired rules")
    am.add_argument("--budget", type=_int_at_least(1), default=None,
                    help="step budget override")
    am.mode_dest, am.mode_flags = "machine", {
        "mode": (("shortcut-natural", "shortcut-reverse"), shortcuts.FAITHFUL),
        "log": (("successor", "shortcut-natural", "shortcut-reverse"), False)}

    ev = sub.add_parser("eval", help="score predictions or validate traces")
    ev.add_argument("--gold", default=None, help="gold dataset JSONL")
    ev.add_argument("--pred", default=None, help="prediction JSONL (id + candidates)")
    ev.add_argument("--hit-ks", type=_ks_arg, default=None, metavar="K,K,...")
    ev.add_argument("--breakdown", action="append", type=_breakdown_key, metavar="KEY",
                    help="repeatable; accuracy grouped by this metadata key")
    ev.add_argument("--validate-traces", action="store_true")
    ev.add_argument("--traces", default=None, help="trace JSONL for --validate-traces")
    ev.add_argument("--task", choices=tuple(datasets._TRACE_TASKS), default=None,
                    metavar="TASK", help="override the per-record task when validating traces")
    ev.add_argument("--format", choices=("text", "json"), default="text")
    ev.add_argument("--out", default=None, help="also write the report here")
    ev.mode_dest, ev.mode_flags = "validate_traces", {
        "gold": ((False,), REQUIRED), "pred": ((False,), REQUIRED), "breakdown": ((False,), ()),
        "hit_ks": ((False,), (1, 3, 5)), "traces": ((True,), REQUIRED), "task": ((True,), None)}

    return parser


@functools.cache
def _main_parser() -> argparse.ArgumentParser:
    """main's parser, built by its first call: a parse leaves a parser as it was."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _main_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # each subcommand runs the cmd_ function named after it, looked up when it runs
    name = f"cmd_gen_{args.gen_command}" if args.command == "gen" else f"cmd_{args.command}"
    command = globals()[name.replace("-", "_")]
    # gen's and eval's records hold no cycles: a collection while they are
    # built, read or scored only rescans them
    paused = args.command in ("gen", "eval") and gc.isenabled()
    if paused:
        gc.disable()
    try:
        return command(args)
    except (FuelExhaustedError, BudgetExhaustedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return OUT_OF_FUEL
    except IdMismatchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ID_MISMATCH
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except StructrecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return BAD_INPUT
    finally:
        if paused:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
