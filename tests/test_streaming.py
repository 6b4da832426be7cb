"""Streaming: `iter_batch` and `iter_scan` against the list-building
`generate_batch` and `scan_corpus` they replaced, which are kept here as
the oracle, and the CLI's chunked line reader against decoding and
splitting the whole input at once."""
from __future__ import annotations

import random
from importlib import resources
from typing import Iterable, Iterator, Mapping, Sequence

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (BadOverrideError, BatchResult, Detection, GeneratedSentence, Lexicon,
                      NoCandidateError, Schema, SchemaKind, SkippedSchema, classify,
                      generate, generate_batch, iter_batch, iter_scan, parse_lexicon,
                      parse_template, scan_corpus, sub_seed)
from antinomy.cli import _InputLines, _generated_record, main
from antinomy.generator import _overrides_per_schema
from conftest import random_template
from test_generator_oracle import random_lexicon, random_overrides


def reference_generate_batch(lexicon: Lexicon, schemas: Sequence[Schema], seed: int,
                             count: int, overrides: Mapping[int, str] | None = None
                             ) -> BatchResult:
    """`generate_batch` as it was before `iter_batch`: both lists built in one loop."""
    sentences: list[GeneratedSentence] = []
    skips: list[SkippedSchema] = []
    per_schema = _overrides_per_schema(lexicon, schemas, overrides or {})
    for i, (schema, schema_overrides) in enumerate(zip(schemas, per_schema)):
        for rep in range(count):
            item_seed = sub_seed(seed, i * count + rep)
            try:
                sentences.append(generate(lexicon, schema, item_seed, schema_overrides))
            except NoCandidateError as err:
                skips.append(SkippedSchema(schema.class_id, str(err)))
                break
    return BatchResult(tuple(sentences), tuple(skips))


def reference_scan_corpus(lexicon: Lexicon, registry: Sequence[Schema], lines: Iterable[str],
                          min_score: float = 0.5) -> tuple[list[Detection], dict[str, int]]:
    """`scan_corpus` as it was before `iter_scan`."""
    counts = {schema.class_id: 0 for schema in registry}
    detections: list[Detection] = []
    for index, line in enumerate(lines):
        kept = [d for d in classify(lexicon, registry, line, sentence_index=index)
                if d.score >= min_score]
        detections.extend(kept)
        if kept:
            counts[kept[0].class_id] += 1
    return detections, counts


def assert_batch_streams_as_reference(lexicon, schemas, seed, count, overrides=None):
    """iter_batch yields the oracle's sentences and skips, each in order,
    interleaved schema-major; generate_batch returns the oracle's result;
    a bad override raises when iter_batch is called, before any item."""
    try:
        expected = reference_generate_batch(lexicon, schemas, seed, count, overrides)
    except BadOverrideError as err:
        with pytest.raises(BadOverrideError) as raised:
            iter_batch(lexicon, schemas, seed, count, overrides)
        assert str(raised.value) == str(err)
        return
    items = list(iter_batch(lexicon, schemas, seed, count, overrides))
    assert tuple(i for i in items if isinstance(i, GeneratedSentence)) == expected.sentences
    assert tuple(i for i in items if isinstance(i, SkippedSchema)) == expected.skips
    order = {schema.class_id: i for i, schema in enumerate(schemas)}
    positions = [order[item.class_id] for item in items]
    assert positions == sorted(positions)
    assert generate_batch(lexicon, schemas, seed, count, overrides) == expected


def assert_scan_streams_as_reference(lexicon, registry, lines, min_score):
    scanned = list(iter_scan(lexicon, registry, iter(lines), min_score))
    assert [(index, line) for index, line, _ in scanned] == list(enumerate(lines))
    detections, counts = reference_scan_corpus(lexicon, registry, lines, min_score)
    assert [d for _, _, kept in scanned for d in kept] == detections
    assert scan_corpus(lexicon, registry, lines, min_score) == (detections, counts)


def test_round_trip_streams_as_the_list_building_batch_and_scan(demo_lexicon, registry):
    assert_batch_streams_as_reference(demo_lexicon, registry, 7, 100)
    sentences = [s.sentence for s in iter_batch(demo_lexicon, registry, 7, 100)]
    assert len(sentences) == 3600
    for min_score in (0.0, 0.5, 1.0):
        assert_scan_streams_as_reference(demo_lexicon, registry, sentences, min_score)


def test_golden_corpus_scans_as_the_list_building_scan(demo_lexicon, registry):
    text = (resources.files("antinomy") / "data" / "golden_corpus.tsv").read_text()
    lines = [row.split("\t")[2] for row in text.splitlines()
             if row.strip() and not row.startswith("#")]
    assert len(lines) > 40
    for min_score in (0.0, 0.5, 1.0):
        assert_scan_streams_as_reference(demo_lexicon, registry, lines + ["", "Nothing."],
                                         min_score)


OPPOSITES_SOURCE = "possible\tA\t\timpossible\nimpossible\tA\t\tpossible\n"
OPPOSITES = parse_lexicon(OPPOSITES_SOURCE)


def test_skipped_schemas_stream_in_their_turn(registry):
    assert isinstance(OPPOSITES, Lexicon)
    items = list(iter_batch(OPPOSITES, registry, 3, 2))
    skipped = [i.class_id for i in items if isinstance(i, SkippedSchema)]
    assert skipped and len(skipped) < len(registry)
    assert_batch_streams_as_reference(OPPOSITES, registry, 3, 2)
    assert_batch_streams_as_reference(OPPOSITES, registry, 3, 0)


@pytest.mark.parametrize("overrides", [{0: "car"}, {0: "possible"}, {0: "POSSIBLE", 1: "car"},
                                       {0: "gleeb"}, {7: "car"}, {0: "car", 7: "car"}])
@pytest.mark.parametrize("count", [0, 2])
def test_overrides_stream_as_the_list_building_batch(demo_lexicon, registry, overrides, count):
    assert_batch_streams_as_reference(demo_lexicon, registry, 11, count, overrides)


@settings(deadline=None, max_examples=150)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_random_batches_stream_as_the_list_building_batch(seed, demo_lexicon, registry):
    rng = random.Random(seed)
    if rng.random() < 0.3:
        lexicon, schemas = demo_lexicon, rng.sample(registry, rng.randint(1, 6))
    else:
        lexicon = random_lexicon(rng)
        schemas = [Schema(f"u{i}", SchemaKind.PARADOX, parse_template(random_template(rng)))
                   for i in range(rng.randint(1, 4))]
    overrides = (random_overrides(rng, lexicon, rng.choice(schemas))
                 if rng.random() < 0.5 else None)
    count = rng.randint(0, 3)
    assert_batch_streams_as_reference(lexicon, schemas, rng.getrandbits(64), count, overrides)
    sentences = [s.sentence for s in reference_generate_batch(lexicon, schemas, 0, count).sentences]
    assert_scan_streams_as_reference(lexicon, schemas, sentences, rng.choice([0.0, 0.5, 1.0]))


@pytest.mark.parametrize("args", [
    ["--class", "all", "--count", "3", "--seed", "9"],
    ["--class", "all", "--count", "3", "--format", "text"],
    ["--class", "10", "--count", "4"],
    ["--class", "10", "--count", "0"],
    ["--class", "all", "--count", "2", "--slot", "0=possible"],
], ids=["partial-skips", "partial-skips-text", "all-skipped", "count-0", "override"])
def test_generate_writes_the_list_building_batch(args, registry, tmp_path):
    """Stdout, the `skipped:` lines on stderr and the exit code are those
    the CLI wrote from the whole batch: 2 when every class was skipped
    and nothing was made."""
    path = tmp_path / "opposites.lex"
    path.write_text(OPPOSITES_SOURCE)
    res = CliRunner().invoke(main, ["generate", "--lexicon", str(path), *args])
    options = dict(zip(args[::2], args[1::2]))
    schemas = [s for s in registry if options["--class"] in ("all", s.class_id)]
    group, _, word = options.get("--slot", "").partition("=")
    batch = reference_generate_batch(OPPOSITES, schemas, int(options.get("--seed", 0)),
                                     int(options["--count"]), {int(group): word} if word else None)
    text = options.get("--format") == "text"
    assert res.stdout == "".join((s.sentence if text else _generated_record(s)) + "\n"
                                 for s in batch.sentences)
    assert res.stderr == "".join(f"skipped: {s.reason}\n" for s in batch.skips)
    assert res.exit_code == (2 if batch.skips and not batch.sentences else 0)


# Every place `str.splitlines` breaks a line, a BOM, and characters of
# two, three and four UTF-8 bytes, to be cut across chunk edges.
_PIECES = ("\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029", "\ufeff", "a", "Hell", " ", "é", "€", "\U0001d11e")
_TEXT = st.lists(st.sampled_from(_PIECES) | st.text(max_size=3), max_size=40).map("".join)
_SIZES = st.lists(st.integers(min_value=1, max_value=9) | st.integers(min_value=1), min_size=1,
                  max_size=8)
# Invalid UTF-8: a stray continuation byte, bytes that never start a
# character, a truncated sequence, an encoded surrogate, a code point
# beyond U+10FFFF and an overlong form.
_BAD = st.sampled_from([b"\x80", b"\xff", b"\xe2\x82", b"\xed\xa0\x80", b"\xf4\x90\x80\x80",
                        b"\xc0\xaf", b"\xf0\x9f"])


def chunked(data: bytes, sizes: list[int]) -> Iterator[bytes]:
    """`data` cut into chunks of the sizes in turn, cycling."""
    start, turn = 0, 0
    while start < len(data):
        size = sizes[turn % len(sizes)]
        yield data[start:start + size]
        start, turn = start + size, turn + 1


def ended_lines(text: str) -> list[str]:
    """The lines of `text` that a line break ends."""
    return [line for line, with_end in zip(text.splitlines(), text.splitlines(True))
            if line != with_end]


@settings(deadline=None, max_examples=500)
@given(text=_TEXT, sizes=_SIZES)
def test_chunked_lines_split_as_the_whole_text(text, sizes):
    data = text.encode("utf-8")
    reader = _InputLines(chunked(data, sizes))
    assert list(reader) == data.decode("utf-8").removeprefix("\ufeff").splitlines()
    assert reader.error is None


@settings(deadline=None, max_examples=500)
@given(text=_TEXT, bad=_BAD, where=st.floats(min_value=0, max_value=1), sizes=_SIZES)
def test_a_decode_error_ends_the_lines_before_it_and_keeps_its_message(text, bad, where, sizes):
    data = text.encode("utf-8")
    cut = int(where * len(data))
    data = data[:cut] + bad + data[cut:]
    with pytest.raises(UnicodeDecodeError) as whole:
        data.decode("utf-8")
    reader = _InputLines(chunked(data, sizes))
    prefix = data[:whole.value.start].decode("utf-8").removeprefix("\ufeff")
    assert list(reader) == ended_lines(prefix)
    assert reader.error == str(whole.value)


def test_a_read_error_ends_the_lines_and_keeps_its_message():
    def chunks():
        yield b"one\ntwo\nthr"
        raise OSError(5, "Input/output error")

    reader = _InputLines(chunks())
    assert list(reader) == ["one", "two"]
    assert reader.error == "[Errno 5] Input/output error"
