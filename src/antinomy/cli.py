"""Command line front end: generate, detect, classes, lexicon validate.

Exit codes: 0 success, 1 bad input (unreadable or non-UTF-8 input or
lexicon, invalid lexicon, unknown class, bad override, bad flag) or a
failed write to stdout, 2 generation produced nothing because every
schema was skipped. Stdout and stderr are written verbatim: the same
bytes on a terminal and a pipe, with characters their encoding cannot
represent as backslash escapes.
"""
from __future__ import annotations

import errno
import io
import os
import sys
from contextlib import contextmanager
from importlib import resources
from json.encoder import encode_basestring_ascii as _json_str
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, TextIO

import click

from .detector import Detection, EvidenceKind, scan_corpus
from .generator import BadOverrideError, Binding, GeneratedSentence, generate_batch
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


def _read_text(path: str | None) -> str:
    """The text of a UTF-8 file, or of stdin when path is None. Stdin's
    bytes are decoded strictly as UTF-8 whatever the locale says; its
    line ends are left for `str.splitlines`, which breaks at CRLF and at
    a lone CR as a file's universal newlines do."""
    try:
        if path is None:
            return sys.stdin.buffer.read().decode("utf-8")
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as err:
        _fail(f"error: {err}")


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


def _echo_lines(stream: TextIO, lines: Iterable[str]) -> None:
    """Write each line with its newline to `stream`, verbatim, in batches
    of up to _ECHO_BATCH lines, and flush once at the end. The bytes are
    the same on a terminal and on a pipe (click's echo strips terminal
    escapes from a pipe only), and one joined string for the whole
    output would hold all of it in memory at once. No lines write
    nothing.

    A failed write to stdout other than a broken pipe (which click ends
    with exit 1) exits 1 with an error line. Stdout's descriptor is first
    pointed at the null device, so the output still buffered is dropped
    there and interpreter shutdown has nothing left to fail on."""
    try:
        batch: list[str] = []
        for line in lines:
            batch.append(line)
            if len(batch) == _ECHO_BATCH:
                stream.write("\n".join(batch) + "\n")
                batch.clear()
        if batch:
            stream.write("\n".join(batch) + "\n")
        stream.flush()
    except OSError as err:
        if stream is not sys.stdout or err.errno == errno.EPIPE:
            raise
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)
        stream.flush()
        _fail(f"error: cannot write output: {err}")


def _fail(*lines: str) -> NoReturn:
    """Write the lines to stderr and exit 1."""
    _echo_lines(sys.stderr, lines)
    sys.exit(1)


def _parse_overrides(slot_options: tuple[str, ...]) -> dict[int, str]:
    """GROUP=WORD options as {group: word}. A malformed option or a group
    given twice exits 1; generate_batch judges the words."""
    overrides: dict[int, str] = {}
    for option in slot_options:
        group_text, sep, word = option.partition("=")
        group = int(group_text) if sep and group_text.isdecimal() and word else None
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
        result = generate_batch(lexicon, schemas, seed, count, overrides)
    except BadOverrideError as err:
        _fail(f"error: {err}")
    _echo_lines(sys.stderr, (f"skipped: {skip.reason}" for skip in result.skips))
    _echo_lines(sys.stdout, (s.sentence for s in result.sentences) if fmt == "text"
                else map(_generated_record, result.sentences))
    if result.skips and not result.sentences:
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
    text = _read_text(None if input_path == "-" else input_path)
    lines = text.removeprefix("\ufeff").splitlines()
    detections, counts = scan_corpus(lexicon, registry, lines, min_score)
    _echo_lines(sys.stdout, (
        f"{d.sentence_index}\t{d.class_id}\t{d.score:.3f}\t{lines[d.sentence_index]}"
        for d in detections) if fmt == "text" else map(_detection_record, detections))
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
