"""Command-line front end.

Subcommands: eval (stream -> value), merge (partial state files), classify
(type-hierarchy report), verify (axiom suite), myhill (state-complexity
profile).  Input streams are newline- or comma-separated decimals on stdin
or a file, or one column of a CSV file; a lone "#" line (or a CSV row whose
first cell is "#") terminates the stream early, and a leading UTF-8
byte-order mark is dropped.  eval reads its input in blocks of BLOCK_LINES
lines, one block at a time, absorbs each with ``absorb_many``'s fold of its
floats, in pure Python, and merges the blocks' states in ``merge_tree``, so
its memory does not grow with the input (except for the median, whose state
is the multiset itself).  Each block is parsed in a few C-level passes when
it can be: a quote-free CSV block whose lines are rows of the header's
width by one split of its text and a slice of its column (_csv_values), and
a plain ASCII block with no line break but "\n" by one float() per line as
read (_split_lines).  Any other plain block goes through _parse_lines, and
the first other CSV block, with the rest of the input, through one
csv.reader, with the same values, errors and line numbers.  merge reads its
state files one at a time and joins them in ``merge_tree``'s balanced tree
too.  An error that waits for the end of the input (eval's domain error,
merge's family mismatch) gives way to a later parse error or unreadable
file.

Exit codes: 0 ok, 2 parse error (also a bad argument, an input file that
cannot be read or is not UTF-8, an output file that cannot be written, or a
myhill --max-len below 4, a negative --probe-len, or a probe or evaluation
count over myhill's budget), 3 domain error, 4 empty input, 5 family
mismatch, 1 any other library error; EXIT_CODES decides them all.

eval imports only what its flags need: csv for --column, the state format
(``state_io``, with json) for --state-out, and json for --family-json.
merge loads the state format too, and ``classify --format json`` and myhill
load json.
"""

import argparse
import contextlib
import gc
import os
import sys
from functools import partial
from itertools import chain, islice

from . import families
# absorb is not called here; it stays importable as cli.absorb beside the
# other core operations, which bench/job.py wraps by attribute
from .core import (_absorb_floats, _lazy_names, absorb,  # noqa: F401
                   finalize, init, merge, merge_tree)
from .errors import (BudgetExceeded, DomainError, EmptyStateError,
                     FamilyMismatch, InsufficientData, InvalidDescriptor,
                     MeanStreamError, ParseError)

EXIT_OK = 0

BLOCK_LINES = 8192  # input lines per absorb_many fold in eval


class CliError(MeanStreamError):
    """A bad argument or input that the CLI itself refuses."""


# main exits with the code of the first row whose classes the error is an
# instance of
EXIT_CODES = (
    (DomainError, 3),
    (EmptyStateError, 4),
    (FamilyMismatch, 5),
    ((CliError, ParseError, InvalidDescriptor, InsufficientData,
      BudgetExceeded), 2),
    (MeanStreamError, 1),
)


def _family_params(args) -> tuple:
    if args.family_json:
        import json

        try:
            spec = json.loads(args.family_json)
        except (ValueError, RecursionError) as e:  # digit limit, deep nesting
            raise CliError(f"bad --family-json: {e}")
        if not isinstance(spec, dict) or "family" not in spec:
            raise CliError('bad --family-json: expected an object with a '
                           '"family" key')
        return spec.pop("family"), spec
    if not args.family:
        raise CliError("--family (or --family-json) is required")
    values = vars(args)
    return args.family, {key: values[key] for key in _PARAM_FLAGS
                         if values[key] is not None}


def _open_input(path: str, *args, **kwargs):
    """open(path, ...); a file that cannot be opened is a bad argument."""
    try:
        return open(path, *args, **kwargs)
    except OSError as e:
        raise CliError(f"{path}: {e.strerror}") from None


def _write_output(path: str, data: bytes) -> None:
    """Write data to path; a file that cannot be written is a bad argument,
    as one that cannot be read is."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except OSError as e:
        raise CliError(f"{path}: {e.strerror}") from None


def _build_descriptor(args):
    return families.descriptor_from_params(*_family_params(args))


def _parse_lines(lines: list, lineno: int) -> tuple:
    """(values, ended) of plain lines, the first of them line lineno + 1."""
    values = []
    for lineno, line in enumerate(lines, start=lineno + 1):
        for token in line.split(","):
            token = token.strip()
            if token == "#":
                return values, True
            if not token:
                continue
            try:
                values.append(float(token))
            except ValueError:
                raise CliError(f"line {lineno}: cannot parse {token!r}")
    return values, False


def _parse_rows(rows: list, idx: int) -> tuple:
    """(values, ended) of CSV rows, each a (first line, cells) pair."""
    values = []
    for lineno, row in rows:
        if row and row[0].strip() == "#":
            return values, True
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            values.append(float(row[idx]))
        except (ValueError, IndexError):
            raise CliError(f"line {lineno}: cannot parse {row!r}")
    return values, False


def _numbered(reader, start: int):
    """(first line, row) of each row of a csv.reader (see _row_blocks)."""
    line = start + reader.line_num + 1
    for row in reader:
        yield line, row
        line = start + reader.line_num + 1


def _line_values(lines: list, lineno: int) -> tuple:
    """(values, ended) of plain lines: by one float() per line, unless one
    is blank, "#", holds a comma or does not parse."""
    try:
        return list(map(float, lines)), False
    except ValueError:
        return _parse_lines(lines, lineno)


# every byte but "," and "\n", and the bytes that make csv.reader cut or
# join cells otherwise (the quote, NUL, "\r") or may end the stream ("#")
_CELL_BYTES = bytes(sorted(set(range(256)) - set(b',\n"\0\r#')))


def _csv_values(block: list, lineno: int, width: int, idx: int,
                limit: int):
    """(values, False) of a block of CSV lines that are rows of width cells
    that csv.reader would cut at each "," (no quote, NUL, "\r" or "#", and
    no line over the reader's field limit), by one split of its text and a
    slice of every width-th cell; None for any other block, or one with a
    cell that float() refuses, which csv.reader then reads."""
    text = "".join(block)
    marks = (b"," * (width - 1) + b"\n") * len(block)
    if not text.endswith("\n"):  # the input's last line
        marks = marks[:-1]
    if not (-width <= idx < width and marks == text.encode(
            "utf-8", "surrogatepass").translate(None, _CELL_BYTES)
            and not (len(text) > limit and max(map(len, block)) > limit)):
        return None
    cells = text.replace("\n", ",").split(",")[
        idx % width:len(block) * width:width]
    try:
        return list(map(float, cells)), False
    except ValueError:  # a blank or bad cell
        return None


def _chunks(items):
    """Lists of BLOCK_LINES items: a list is built only once the one before
    it is dropped."""
    return iter(lambda: list(islice(items, BLOCK_LINES)), [])


def _blocks(chunks, parse, lineno: int):
    """Each chunk's values, up to a "#", by parse(chunk, lineno) ->
    (values, ended); lineno lines precede the chunk.  A parse that returns
    None leaves the chunk, and the rest of the input, to the caller: the
    generator returns (iter(chunk), lineno), an iterator that drops the
    chunk once it is read.  A chunk is dropped before its values are
    yielded, and the values before the next chunk is read, so that one
    block of input is held at a time."""
    for chunk in chunks:
        parsed = parse(chunk, lineno)
        if parsed is None:
            return iter(chunk), lineno
        values, ended = parsed
        lineno += len(chunk)
        del chunk, parsed
        yield values
        del values
        if ended:
            return


# the line breaks of str.splitlines besides "\n" and the non-ASCII ones
_OTHER_BREAKS = ("\r", "\v", "\f", "\x1c", "\x1d", "\x1e")


def _split_lines(chunk: list) -> list:
    """A chunk of lines split as str.splitlines does, so that the line
    numbers count its breaks.  An ASCII chunk with no break but "\n" is
    returned as it is: its lines are already split, and float() and
    _parse_lines strip their "\n"."""
    text = "".join(chunk)
    if text.isascii() and not any(map(text.__contains__, _OTHER_BREAKS)):
        return chunk
    return text.splitlines()


def _row_blocks(first: str, fh, column: str):
    """The values of a CSV column, BLOCK_LINES rows at a time, from its
    first line and the lines of fh that follow; csv loads here, for
    --column only.  A row the reader refuses is a parse error.

    While no cell is quoted, each line is one row, so the lines are read
    as they are, a block at a time, and _csv_values splits each.  The
    first block that it does not split (one with a '"', whose quoted cells
    may run on into the next block, or a blank, ragged or bad row) goes
    with the rest of the input to one csv.reader, whose rows _parse_rows
    reads, as does all that follows a header whose quoted cells hold a
    line end.  A row's line is one past the reader's line_num before it,
    a csv.Error's is the line_num, after the start lines it did not read."""
    import csv

    if not first:
        return
    reader, start = csv.reader(chain([first], fh)), 0
    try:
        header = next(reader)
        if column in header:
            idx, lineno = header.index(column), 1
        else:
            try:
                idx = int(column)
            except ValueError:
                raise CliError(f"column {column!r} not found")
            lineno = 0
        head = [] if lineno else [(1, header)]  # the header is a row
        if reader.line_num == 1:  # no line end in a quoted header cell
            left = yield from _blocks(
                _chunks(fh if lineno else chain([first], fh)),
                partial(_csv_values, width=len(header), idx=idx,
                        limit=csv.field_size_limit()), lineno)
            if left is None:
                return
            (rest, start), head = left, []
            reader = csv.reader(chain(rest, fh))
        yield from _blocks(_chunks(chain(head, _numbered(reader, start))),
                           lambda chunk, _: _parse_rows(chunk, idx), 0)
    except csv.Error as e:  # only the reader raises it
        raise CliError(f"line {start + reader.line_num}: {e}") from None


def _value_blocks(args):
    """The input's values, BLOCK_LINES lines at a time.  Input that is not
    UTF-8 is a parse error, and a U+FEFF that begins it, the byte-order
    mark with which some programs begin UTF-8 text, is not data."""
    name = args.input if args.input and args.input != "-" else None
    with (_open_input(name, "r", encoding="utf-8") if name
          else contextlib.nullcontext(sys.stdin)) as fh:
        try:
            first = next(fh, "").removeprefix("\ufeff")
            if args.column is None:
                lines = chain([first] if first else [], fh)
                yield from _blocks(map(_split_lines, _chunks(lines)),
                                   _line_values, 0)
            else:
                yield from _row_blocks(first, fh, args.column)
        except UnicodeDecodeError as e:
            raise CliError(f"{name or '<stdin>'}: not UTF-8 text "
                           f"({e.reason})") from None


def _read_state(path: str):
    """The state in the file at path; a parse error names the file."""
    with _open_input(path, "rb") as fh:
        data = fh.read()
    try:
        return _this.parse_state(data)
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None


def cmd_eval(args) -> int:
    empty = init(_build_descriptor(args))
    blocks = _value_blocks(args)
    try:
        # a tree of block states, not one running state: the median's merge
        # copies both multisets.  map keeps no block's values once absorbed
        state = merge_tree(merge, map(partial(_absorb_floats, empty), blocks))
    except DomainError:
        for _ in blocks:  # read on: a later parse error takes precedence
            pass
        raise
    if state is None or state.is_empty():
        raise EmptyStateError("empty input")
    value = finalize(state)
    if args.state_out:
        _write_output(args.state_out, _this.serialize_state(state))
    print(f"{value:.17g}")
    return EXIT_OK


def cmd_merge(args) -> int:
    states = map(_read_state, args.state_files)
    try:
        merged = merge_tree(merge, states)
    except FamilyMismatch:
        for _ in states:  # read on: a later parse error takes precedence
            pass
        raise
    payload = _this.serialize_state(merged)
    if args.out:
        _write_output(args.out, payload)
    else:
        sys.stdout.buffer.write(payload + b"\n")
    return EXIT_OK


def cmd_classify(args) -> int:
    descriptor = _build_descriptor(args)
    report = {
        "family": descriptor.family,
        "params": descriptor.params,
        "type": descriptor.type_label,
        "upper_bound_only": descriptor.ctype_is_upper_bound,
        # the median's state is the whole multiset: no fixed dimension
        "state_dimension": descriptor.k if descriptor.ctype else None,
        "has_counter": descriptor.has_counter,
        "hierarchy_index": (descriptor.ctype.order_index
                            if descriptor.ctype else None),
    }
    if args.format == "json":
        import json

        print(json.dumps(report))
    else:
        print(f"{descriptor.name}: type {report['type']}"
              + (" (upper bound only)" if report["upper_bound_only"] else ""))
        print(f"  state dimension: {report['state_dimension'] or 'unbounded'}"
              + (" + counter" if report["has_counter"] else ""))
        if report["hierarchy_index"] is not None:
            print(f"  hierarchy chain position: {report['hierarchy_index']}"
                  "  (T1 < T1+ < T2 < T2+ < ...)")
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify  # loaded on use, so eval never compiles it
    seed, source = args.seed, "--seed"
    if seed is None and "MEANSTREAM_SEED" in os.environ:
        seed, source = os.environ["MEANSTREAM_SEED"], "MEANSTREAM_SEED"
    if seed is not None and not str(seed).isdecimal():
        raise CliError(f"{source} must be a non-negative integer, got "
                       f"{seed!r}")
    if args.trials < 1:
        raise CliError(f"--trials must be at least 1, got {args.trials}")
    reports = verify.run_suite(seed=None if seed is None else int(seed),
                               trials=args.trials)
    if args.format == "json":
        for report in reports:
            print(report.to_json())
    else:
        width = max(len(r.property) for r in reports)
        for r in reports:
            status = "holds" if r.holds else "VIOLATED"
            line = f"{r.property:<{width}}  {r.subject:<24} {status}"
            if not r.holds and r.witness is not None:
                line += f"  witness={r.witness}"
            print(line)
    return EXIT_OK


def cmd_myhill(args) -> int:
    import json

    from . import myhill  # loaded on use, like verify
    descriptor = _build_descriptor(args)
    try:
        alphabet = [float(t) for t in args.alphabet.split(",")]
    except ValueError as e:
        raise CliError(f"bad --alphabet {args.alphabet!r}: {e}")
    try:
        probes = myhill.default_probes(alphabet, args.probe_len)
        profile = myhill.enumerate_classes(descriptor, alphabet, args.max_len,
                                           probes=probes)
    except ValueError as e:  # the alphabet's size or domain, a length
        raise CliError(str(e))
    result = profile.as_dict()
    result["growth"] = myhill.growth_report(profile)
    print(json.dumps(result))
    return EXIT_OK


# a family parameter's flag --<name>: its add_argument keywords.  eval,
# classify and myhill take these flags, and _family_params reads them
_PARAM_FLAGS = {
    "p": {"type": float},
    "q": {"type": float},
    "r": {"type": int},
    "c": {"type": int},
    "d": {"type": int},
    "f": {"help": "generator name (identity, ln, exp, power:<p>, "
                  "affine:<a>,<b>)"},
    "g": {"help": "second generator for bajraktarevic"},
    "kind": {"choices": ["lower", "upper"]},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanstream",
        description="Constant-memory streaming evaluation of symmetric means.")
    sub = parser.add_subparsers(dest="command", required=True)

    family = argparse.ArgumentParser(add_help=False)
    family.add_argument("--family", help="family name (power, gini, ...)")
    family.add_argument("--family-json", help='family spec as JSON, e.g. '
                        '\'{"family":"gini","p":2,"q":1}\'')
    for name, flag in _PARAM_FLAGS.items():
        family.add_argument(f"--{name}", **flag)

    p_eval = sub.add_parser("eval", parents=[family],
                            help="evaluate a stream of reals")
    p_eval.add_argument("--input", help="input file (default stdin)")
    p_eval.add_argument("--column", help="CSV column name or index")
    p_eval.add_argument("--state-out", help="also write the final state file")
    p_eval.set_defaults(func=cmd_eval)

    p_merge = sub.add_parser("merge", help="merge serialized partial states")
    p_merge.add_argument("state_files", nargs="+")
    p_merge.add_argument("--out", help="output state file (default stdout)")
    p_merge.set_defaults(func=cmd_merge)

    p_classify = sub.add_parser("classify", parents=[family],
                                help="complexity-type report")
    p_classify.add_argument("--format", choices=["text", "json"], default="text")
    p_classify.set_defaults(func=cmd_classify)

    p_verify = sub.add_parser("verify", help="run the axiom suite")
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=200)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.set_defaults(func=cmd_verify)

    p_myhill = sub.add_parser("myhill", parents=[family],
                              help="empirical state-complexity profile")
    p_myhill.add_argument("--alphabet", default="0,1,2")
    p_myhill.add_argument("--max-len", type=int, default=8)
    p_myhill.add_argument("--probe-len", type=int, default=2)
    p_myhill.set_defaults(func=cmd_myhill)

    return parser


# parse_state and serialize_state load state_io on their first lookup, for
# merge and --state-out only.  This module calls them as _this.<name>, where
# bench/job.py's wrappers, set by attribute, apply
_LAZY = {"state_io": ("parse_state", "serialize_state")}
__getattr__ = _lazy_names(globals(), _LAZY)

_this = sys.modules[__name__]


def main(argv=None) -> int:
    """Run the command of argv (default sys.argv[1:]) and return its exit
    code.  A call with no argv is a process run (``python -m meanstream.cli``
    or the console script): once the command is done, gc.freeze() moves
    every object into the permanent generation, so that the interpreter's
    exit skips the collections over the heap that the imports built (6-7 ms
    a process), also after argparse refuses argv.  Nothing is lost: every
    file is closed by then, and the exit still flushes stdout and stderr
    and runs atexit handlers."""
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except MeanStreamError as e:
        print(f"error: {e}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(e, cls))
    finally:
        if argv is None:
            gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
