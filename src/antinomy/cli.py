"""Command line front end: generate, detect, classes, lexicon validate.

Exit codes: 0 success, 1 bad input (unreadable or non-UTF-8 input or
lexicon, invalid lexicon, unknown class, bad override, bad flag) or a
failed write to stdout, 2 generation produced nothing because every
schema was skipped. Stdout and stderr are written verbatim: the same
bytes on a terminal and a pipe, with characters their encoding cannot
represent as backslash escapes.

`generate` and `detect` stream: each sentence is made, or each input
line read and classified, then encoded and written before the next, so
their memory does not grow with `--count` or with the input. A `skipped:`
line reaches stderr when its class does, and a decode error in `detect`
input exits 1 after the records of the lines that ended before it.
"""
from __future__ import annotations

import codecs
import errno
import io
import os
import sys
from contextlib import contextmanager
from functools import partial
from importlib import resources
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, NoReturn, TextIO

import click

from .detector import Detection, EvidenceKind, iter_scan
from .generator import (BadOverrideError, Binding, GeneratedSentence, SkippedSchema,
                        iter_batch)
# The commands stream through iter_batch and iter_scan. These two names stay
# bound here because benchmarks/tracing.py wraps them by this module's name
# (and its self-test requires every target to exist) until that list is
# re-pointed at the streaming functions.
from .detector import scan_corpus  # noqa: F401
from .generator import generate_batch  # noqa: F401
from .lexicon import Lexicon, ValidationReport, parse_lexicon
from .schema import Schema, builtin_registry, render_template


@contextmanager
def _usage_errors_exit_1() -> Iterator[None]:
    try:
        yield
    except click.UsageError as err:
        err.exit_code = 1
        raise


class _Main(click.Group):
    """Usage errors (bad flags, bad flag values) exit 1, not click's 2,
    because 2 is reserved for "nothing generated". The exit code is set
    on each raised error, so other click programs in the process keep
    click's default."""

    def make_context(self, *args, **kwargs) -> click.Context:
        with _usage_errors_exit_1():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx: click.Context):
        with _usage_errors_exit_1():
            return super().invoke(ctx)


def _read_text(path: str) -> str:
    """The text of a UTF-8 file; an unreadable or undecodable file exits 1."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        _fail(f"error: {err}")


@contextmanager
def _binary_input(path: str) -> Iterator[BinaryIO]:
    """Stdin's bytes for "-", else the file's; a file that cannot be
    opened exits 1. Stdin is read as bytes whatever the locale says."""
    if path == "-":
        yield sys.stdin.buffer
        return
    try:
        stream = Path(path).open("rb")
    except OSError as err:
        _fail(f"error: {err}")
    with stream:
        yield stream


_READ_CHUNK = 1 << 16
# Where `str.splitlines` ends a line; "\r\n" is one break.
_LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def _decode_error(err: UnicodeDecodeError, offset: int) -> str:
    """The message of `err`, raised on bytes that start at `offset` in the
    input, worded as decoding the whole input at once words it."""
    start, end = offset + err.start, offset + err.end
    where = (f"byte 0x{err.object[err.start]:02x} in position {start}"
             if err.end - err.start == 1 else f"bytes in position {start}-{end - 1}")
    return f"'{err.encoding}' codec can't decode {where}: {err.reason}"


class _InputLines:
    """The lines of UTF-8 input that arrives as byte chunks, each given as
    soon as it ends, split exactly as `str.splitlines` splits the whole
    text after one leading BOM: a "\r\n" cut between two chunks is one
    break. Bytes decode strictly. A decode or read error ends the lines
    after the last one that ended before it and is kept in `error`,
    worded as reading the whole input at once words it."""

    def __init__(self, chunks: Iterable[bytes]):
        self._chunks = chunks
        self.error: str | None = None

    def _texts(self) -> Iterator[str]:
        """The decoded text, chunk by chunk; on a decode error, the text
        before the bad byte last."""
        pending, offset = b"", 0       # undecoded bytes, and where they start
        try:
            for chunk in chain(self._chunks, [None]):     # None: the end
                data = pending + (chunk or b"")
                try:
                    text, used = codecs.utf_8_decode(data, "strict", chunk is None)
                except UnicodeDecodeError as err:
                    self.error = _decode_error(err, offset)
                    yield data[:err.start].decode("utf-8")
                    return
                yield text
                pending, offset = data[used:], offset + used
        except OSError as err:
            self.error = str(err)

    def __iter__(self) -> Iterator[str]:
        open_line: list[str] = []      # the text of the line not yet ended
        after_cr = False               # the last break was "\r": a "\n" next joins it
        at_start = True
        for text in self._texts():
            if at_start and text:
                text, at_start = text.removeprefix("\ufeff"), False
            if after_cr and text[:1] == "\n":
                text, after_cr = text[1:], False
            if not text:
                continue
            lines = text.splitlines()
            ended = text[-1] in _LINE_BREAKS
            after_cr = text[-1] == "\r"
            if open_line and (ended or len(lines) > 1):
                lines[0] = "".join(open_line) + lines[0]
                open_line.clear()
            if not ended:
                open_line.append(lines.pop())
            yield from lines
        if open_line and self.error is None:
            yield "".join(open_line)


def _check_min_score(_ctx: click.Context, _param: click.Parameter, value: float) -> float:
    if not 0.0 <= value <= 1.0:          # also false for nan
        raise click.BadParameter(f"{value} is not a number in [0, 1]")
    return value


def _load_lexicon(path: str | None) -> Lexicon:
    if path is None:
        text = (resources.files("antinomy") / "data" / "demo.lex").read_text(encoding="utf-8")
    else:
        text = _read_text(path)
    parsed = parse_lexicon(text)
    if isinstance(parsed, ValidationReport):
        _fail("lexicon rejected:", str(parsed))
    return parsed


def _pick_schemas(class_id: str) -> list[Schema]:
    registry = builtin_registry()
    if class_id == "all":
        return list(registry)
    chosen = [s for s in registry if s.class_id == class_id]
    if not chosen:
        _fail(f"error: unknown class {class_id!r}")
    return chosen


_ECHO_BATCH = 64


@contextmanager
def _write_errors_exit_1(stream: TextIO) -> Iterator[None]:
    """A failed write to stdout other than a broken pipe (which click ends
    with exit 1) exits 1 with an error line. Stdout's descriptor is first
    pointed at the null device, so the output still buffered is dropped
    there and interpreter shutdown has nothing left to fail on."""
    try:
        yield
    except OSError as err:
        if stream is not sys.stdout or err.errno == errno.EPIPE:
            raise
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        stream.flush()
        _fail(f"error: cannot write output: {err}")


def _echo_lines(stream: TextIO, lines: Iterable[str]) -> None:
    """Write each line with its newline to `stream`, verbatim: one write
    per batch of up to _ECHO_BATCH lines taken from `lines` until a batch
    comes back empty, then one flush. The bytes are the same on a terminal
    and on a pipe (click's echo strips terminal escapes from a pipe only),
    and a generator's lines are written while it runs, never all held at
    once. No lines write nothing. An error raised by `lines` passes through."""
    lines = iter(lines)
    while batch := list(islice(lines, _ECHO_BATCH)):
        with _write_errors_exit_1(stream):
            stream.write("\n".join(batch) + "\n")
    with _write_errors_exit_1(stream):
        stream.flush()


def _fail(*lines: str) -> NoReturn:
    """Write the lines to stderr and exit 1."""
    _echo_lines(sys.stderr, lines)
    sys.exit(1)


def _parse_overrides(slot_options: tuple[str, ...]) -> dict[int, str]:
    """GROUP=WORD options as {group: word}. A malformed option or a group
    given twice exits 1; iter_batch judges the words."""
    overrides: dict[int, str] = {}
    for option in slot_options:
        group_text, sep, word = option.partition("=")
        digits = group_text.isascii() and group_text.isdecimal()
        group = int(group_text) if sep and digits and word else None
        if group is None:
            error = f"bad --slot {option!r}, expected GROUP=WORD"
        elif group in overrides:
            error = f"--slot group {group} given more than once"
        else:
            overrides[group] = word
            continue
        _fail(f"error: {error}")
    return overrides


# Output records are JSON lines written as `json.dumps` writes them with
# its defaults: ", " and ": " separators, strings escaped to ASCII by the
# same C escaper, ints and floats as their repr (scores lie in [0, 1]).


def _binding(binding: Binding) -> str:
    """A binding's JSON object: bases keyed by group id in ascending order,
    then the realized slot fills."""
    bases = ", ".join([f'"{g}": {_json_str(w)}' for g, w in sorted(binding.bases)])
    realized = ", ".join(map(_json_str, binding.realized))
    return f'{{"bases": {{{bases}}}, "realized": [{realized}]}}'


def _generated_record(s: GeneratedSentence) -> str:
    return (f'{{"class": {_json_str(s.class_id)}, "sentence": {_json_str(s.sentence)}, '
            f'"seed": {s.seed!r}, "binding": {_binding(s.binding)}}}')


_KIND_JSON = {kind: _json_str(kind.value) for kind in EvidenceKind}


def _detection_record(d: Detection) -> str:
    evidence = ", ".join([f'{{"slot": {e.slot!r}, "kind": {_KIND_JSON[e.kind]}}}'
                          for e in d.evidence])
    return (f'{{"line": {d.sentence_index!r}, "class": {_json_str(d.class_id)}, '
            f'"score": {d.score!r}, "evidence": [{evidence}], '
            f'"binding": {_binding(d.binding)}}}')


@click.group(cls=_Main)
def main() -> None:
    """Paradox and tautology sentences: generate them, detect them."""
    # What stdout's encoding cannot represent is written as backslash
    # escapes, as Python writes it to stderr, not raised as an error.
    if isinstance(sys.stdout, io.TextIOWrapper):
        sys.stdout.reconfigure(errors="backslashreplace")


@main.command()
@click.option("--lexicon", "lexicon_path", type=click.Path(), default=None,
              help="Lexicon file (defaults to the bundled demo lexicon).")
@click.option("--class", "class_id", default="all", show_default=True,
              help="Class id, or 'all'.")
@click.option("--count", type=click.IntRange(min=0), default=1, show_default=True,
              help="Sentences per class.")
@click.option("--seed", type=click.IntRange(min=0, max=2 ** 64 - 1), default=0,
              show_default=True, help="Batch seed.")
@click.option("--slot", "slot_options", multiple=True, metavar="GROUP=WORD",
              help="Pin a slot group's base word; repeatable.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "text"]),
              default="jsonl", show_default=True)
def generate(lexicon_path: str | None, class_id: str, count: int, seed: int,
             slot_options: tuple[str, ...], fmt: str) -> None:
    """Generate sentences from the built-in schemas."""
    lexicon = _load_lexicon(lexicon_path)
    schemas = _pick_schemas(class_id)
    overrides = _parse_overrides(slot_options)
    try:
        items = iter_batch(lexicon, schemas, seed, count, overrides)
    except BadOverrideError as err:
        _fail(f"error: {err}")
    produced = skipped = False

    def output() -> Iterator[str]:
        nonlocal produced, skipped
        for item in items:
            if isinstance(item, SkippedSchema):
                skipped = True
                _echo_lines(sys.stderr, [f"skipped: {item.reason}"])
            else:
                produced = True
                yield item.sentence if fmt == "text" else _generated_record(item)

    _echo_lines(sys.stdout, output())
    if skipped and not produced:
        sys.exit(2)


@main.command()
@click.option("--lexicon", "lexicon_path", type=click.Path(), default=None,
              help="Lexicon file (defaults to the bundled demo lexicon).")
@click.option("--input", "input_path", default="-", show_default=True,
              help="File of sentences, one per line; '-' reads stdin.")
@click.option("--min-score", type=float, default=0.5, show_default=True,
              callback=_check_min_score,
              help="Keep detections scoring at least this, from 0 to 1.")
@click.option("--format", "fmt", type=click.Choice(["jsonl", "text"]),
              default="jsonl", show_default=True)
@click.option("--stats", is_flag=True,
              help="Print a per-class count table to stderr.")
def detect(lexicon_path: str | None, input_path: str, min_score: float,
           fmt: str, stats: bool) -> None:
    """Detect schema instances in text, one sentence per line."""
    lexicon = _load_lexicon(lexicon_path)
    registry = builtin_registry()
    counts = {schema.class_id: 0 for schema in registry}

    def output(lines: Iterable[str]) -> Iterator[str]:
        for index, line, kept in iter_scan(lexicon, registry, lines, min_score):
            if kept:
                counts[kept[0].class_id] += 1
            for d in kept:
                yield (f"{index}\t{d.class_id}\t{d.score:.3f}\t{line}" if fmt == "text"
                       else _detection_record(d))

    with _binary_input(input_path) as stream:
        lines = _InputLines(iter(partial(stream.read, _READ_CHUNK), b""))
        _echo_lines(sys.stdout, output(lines))
    if lines.error is not None:
        _fail(f"error: {lines.error}")
    if stats:
        _echo_lines(sys.stderr, (f"{class_id}\t{n}" for class_id, n in counts.items()))


@main.command()
@click.option("--id", "class_id", default="all", show_default=True,
              help="Class id, or 'all'.")
def classes(class_id: str) -> None:
    """List the built-in classes as classId<TAB>kind<TAB>template."""
    _echo_lines(sys.stdout, (f"{schema.class_id}\t{schema.kind.value}\t{render_template(schema)}"
                             for schema in _pick_schemas(class_id)))


@main.group("lexicon")
def lexicon_group() -> None:
    """Lexicon file utilities."""


@lexicon_group.command("validate")
@click.argument("path", type=click.Path())
def lexicon_validate(path: str) -> None:
    """Parse a lexicon file and report defects and repairs."""
    parsed = parse_lexicon(_read_text(path))
    if isinstance(parsed, ValidationReport):
        _echo_lines(sys.stdout, [str(parsed)])
        sys.exit(1)
    report = parsed.report
    lines = [str(report)] if report.repairs else []
    _echo_lines(sys.stdout, lines + [f"ok: {len(parsed)} entries, {len(report.repairs)} repairs"])


if __name__ == "__main__":
    main()
