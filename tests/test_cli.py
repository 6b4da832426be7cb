from __future__ import annotations

import errno
import json
import os
import pty
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

import click
import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antinomy
from antinomy import PartOfSpeech, builtin_registry, sub_seed
from antinomy.cli import _echo_lines, main

runner = CliRunner()

GOOD_LEX = "possible\tA\t\timpossible\nimpossible\tA\t\tpossible\n"


@pytest.fixture
def lex_file(tmp_path):
    path = tmp_path / "tiny.lex"
    path.write_text(GOOD_LEX)
    return str(path)


def test_classes_lists_all():
    res = runner.invoke(main, ["classes"])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert len(lines) == 36
    assert lines[0] == "1\tparadox\tAll is {A}, the {~A} too."
    assert "4\tparadox\tThis is so {A}, that it looks {~A}." in lines


def test_classes_single_id():
    res = runner.invoke(main, ["classes", "--id", "4"])
    assert res.exit_code == 0
    assert res.stdout == "4\tparadox\tThis is so {A}, that it looks {~A}.\n"


def test_classes_id_all_lists_every_class():
    res = runner.invoke(main, ["classes", "--id", "all"])
    assert res.exit_code == 0
    assert res.stdout == runner.invoke(main, ["classes"]).stdout
    assert len(res.stdout.splitlines()) == 36


def test_classes_unknown_id():
    res = runner.invoke(main, ["classes", "--id", "99"])
    assert res.exit_code == 1
    assert "unknown class" in res.stderr


def test_generate_jsonl_record(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file,
                               "--class", "1", "--slot", "0=possible"])
    assert res.exit_code == 0
    record = json.loads(res.stdout)
    assert record == {
        "class": "1",
        "sentence": "All is possible, the impossible too.",
        "seed": sub_seed(0, 0),
        "binding": {"bases": {"0": "possible"},
                    "realized": ["possible", "impossible"]},
    }


def test_generate_text_format(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file, "--class", "1",
                               "--slot", "0=possible", "--format", "text"])
    assert res.exit_code == 0
    assert res.stdout == "All is possible, the impossible too.\n"


def test_generate_bundled_lexicon_covers_every_class():
    res = runner.invoke(main, ["generate", "--class", "all", "--count", "1"])
    assert res.exit_code == 0
    assert res.stderr == ""
    classes = [json.loads(line)["class"] for line in res.stdout.splitlines()]
    assert len(classes) == 36


def test_generate_is_byte_stable():
    args = ["generate", "--class", "all", "--count", "3", "--seed", "42"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.exit_code == second.exit_code == 0
    assert first.stdout == second.stdout
    assert len(first.stdout.splitlines()) == 108


def test_generate_seed_changes_output():
    one = runner.invoke(main, ["generate", "--class", "all", "--seed", "1"])
    two = runner.invoke(main, ["generate", "--class", "all", "--seed", "2"])
    assert one.stdout != two.stdout


@pytest.mark.parametrize("option", ["noequals", "0=", "=word", "x=word", "1.5=word", "²=word",
                                    "٣=word"])
def test_generate_bad_slot_syntax(option, lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file,
                               "--class", "1", "--slot", option])
    assert res.exit_code == 1
    assert "bad --slot" in res.stderr


def test_generate_slot_for_a_group_no_class_has(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file,
                               "--class", "1", "--slot", "7=possible"])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ")
    assert "group 7" in res.stderr
    assert res.stdout == ""


def test_generate_repeated_slot_group(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file, "--class", "1",
                               "--slot", "0=possible", "--slot", "0=impossible"])
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ")
    assert "more than once" in res.stderr
    assert res.stdout == ""


def test_generate_slot_applies_to_every_class_with_the_group(tmp_path):
    # "possible" exists in every part of speech, so group 0 of every
    # class accepts it.
    path = tmp_path / "all_pos.lex"
    path.write_text("".join(f"possible\t{p}\t\timpossible\nimpossible\t{p}\t\tpossible\n"
                            for p in "NVA"))
    res = runner.invoke(main, ["generate", "--lexicon", str(path), "--class", "all",
                               "--slot", "0=possible"])
    assert res.exit_code == 0, res.stderr
    records = [json.loads(line) for line in res.stdout.splitlines()]
    assert len(records) == 36
    assert all(r["binding"]["bases"]["0"] == "possible"
               for r in records if "0" in r["binding"]["bases"])


def test_generate_all_classes_slot_applies_where_the_word_fits():
    # In the bundled lexicon "possible" is an attribute only: group 0 of
    # every attribute class takes it, and the other classes draw as if
    # no --slot were given.
    res = runner.invoke(main, ["generate", "--class", "all", "--slot", "0=possible"])
    plain = runner.invoke(main, ["generate", "--class", "all"])
    assert res.exit_code == plain.exit_code == 0, res.stderr
    pos = {s.class_id: {g.group_id: g.pos for g in s.compiled.groups}
           for s in builtin_registry()}
    pinned = 0
    for record, unpinned in zip(res.stdout.splitlines(), plain.stdout.splitlines(), strict=True):
        record = json.loads(record)
        if pos[record["class"]].get(0) is PartOfSpeech.ATTRIBUTE:
            assert record["binding"]["bases"]["0"] == "possible"
            pinned += 1
        else:
            assert record == json.loads(unpinned)
    assert pinned > 1


def test_generate_all_classes_slot_word_no_group_takes():
    res = runner.invoke(main, ["generate", "--class", "all", "--slot", "0=gleeb"])
    assert res.exit_code == 1
    assert res.stderr == "error: override 0=gleeb: not a known A word\n"
    assert res.stdout == ""


def test_generate_all_classes_slot_skips_groups_that_need_an_antonym():
    # "car" is a noun without antonyms: the noun classes whose group 0
    # draws from every noun take it, those needing an antonym draw as usual.
    res = runner.invoke(main, ["generate", "--class", "all", "--slot", "0=car"])
    plain = runner.invoke(main, ["generate", "--class", "all"])
    assert res.exit_code == plain.exit_code == 0, res.stderr
    pinned = []
    for record, unpinned in zip(res.stdout.splitlines(), plain.stdout.splitlines(), strict=True):
        record = json.loads(record)
        if record["binding"]["bases"].get("0") == "car":
            pinned.append(record["class"])
        else:
            assert record == json.loads(unpinned)
    assert pinned == ["5", "6", "10", "20a", "20b", "21", "22n"]


def test_generate_count_zero_still_checks_overrides():
    res = runner.invoke(main, ["generate", "--count", "0", "--slot", "0=gleeb"])
    assert res.exit_code == 1
    assert res.stderr == "error: override 0=gleeb: not a known A word\n"
    assert res.stdout == ""


def test_generate_unknown_class(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file, "--class", "nope"])
    assert res.exit_code == 1
    assert "unknown class" in res.stderr


def test_generate_bad_override_word(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file,
                               "--class", "1", "--slot", "0=gleeb"])
    assert res.exit_code == 1
    assert "override" in res.stderr


def test_generate_count_zero(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file, "--count", "0"])
    assert res.exit_code == 0
    assert res.stdout == ""


def test_generate_all_skipped_exits_2(lex_file):
    # the tiny lexicon has no nouns, so a noun-only class yields nothing
    res = runner.invoke(main, ["generate", "--lexicon", lex_file, "--class", "10"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "skipped:" in res.stderr


def test_generate_partial_skip_still_succeeds(lex_file):
    res = runner.invoke(main, ["generate", "--lexicon", lex_file, "--class", "all"])
    assert res.exit_code == 0
    assert "skipped:" in res.stderr
    assert res.stdout != ""


def test_generate_rejected_lexicon(tmp_path):
    bad = tmp_path / "bad.lex"
    bad.write_text("word\tA\t\tmissing\n")
    res = runner.invoke(main, ["generate", "--lexicon", str(bad)])
    assert res.exit_code == 1
    assert "lexicon rejected" in res.stderr


def test_generate_unreadable_lexicon(tmp_path):
    res = runner.invoke(main, ["generate", "--lexicon", str(tmp_path / "missing.lex")])
    assert res.exit_code == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("args", [
    ["generate", "--seed", "-1"],
    ["generate", "--count", "-1"],
    ["generate", "--format", "bogus"],
    ["detect", "--format", "bogus"],
])
def test_bad_flag_values_exit_1(args):
    res = runner.invoke(main, args)
    assert res.exit_code == 1


@pytest.mark.parametrize("value", ["nan", "inf", "-0.1", "5"])
def test_detect_min_score_out_of_range_exit_1(value):
    res = runner.invoke(main, ["detect", "--min-score", value], input="Hell without hell.\n")
    assert res.exit_code == 1
    assert "--min-score" in res.stderr
    assert res.stdout == ""


def test_usage_error_exit_code_stays_local():
    assert click.UsageError.exit_code == 2
    res = runner.invoke(main, ["generate", "--count", "-1"])
    assert res.exit_code == 1
    assert click.UsageError.exit_code == 2


@pytest.fixture
def latin1_file(tmp_path):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"x \xff\n")
    return str(path)


@pytest.mark.parametrize("args", [
    ["detect", "--input", "{}"],
    ["detect", "--lexicon", "{}"],
    ["generate", "--lexicon", "{}"],
    ["lexicon", "validate", "{}"],
])
def test_non_utf8_file_exit_1(args, latin1_file):
    res = runner.invoke(main, [a.format(latin1_file) for a in args])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("error: ")
    assert "utf-8" in res.stderr


def test_non_utf8_stdin_exit_1():
    res = runner.invoke(main, ["detect"], input=b"x \xff\n")
    assert res.exit_code == 1
    assert res.stderr.startswith("error: ")


def test_detect_reads_stdin():
    res = runner.invoke(main, ["detect"],
                        input="All is possible, the impossible too.\n")
    assert res.exit_code == 0
    record = json.loads(res.stdout.splitlines()[0])
    assert record["line"] == 0
    assert record["class"] == "1"
    assert record["score"] == 1.0
    assert record["evidence"] == [{"slot": 1, "kind": "LexAntonym"}]
    assert record["binding"]["bases"] == {"0": "possible"}


def test_detect_text_format(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("Hell without hell.\n")
    res = runner.invoke(main, ["detect", "--input", str(corpus), "--format", "text"])
    assert res.exit_code == 0
    assert res.stdout == "0\t10\t1.000\tHell without hell.\n"


@pytest.mark.parametrize("fmt", ["jsonl", "text"])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_detect_ignores_leading_bom(source, fmt, tmp_path):
    def run(text: str):
        args = ["detect", "--format", fmt]
        if source == "stdin":
            return runner.invoke(main, args, input=text.encode("utf-8"))
        path = tmp_path / "corpus.txt"
        path.write_text(text, encoding="utf-8")
        return runner.invoke(main, args + ["--input", str(path)])

    plain = run("Hell without hell.\n")
    with_bom = run("\ufeffHell without hell.\n")
    assert plain.exit_code == with_bom.exit_code == 0
    assert with_bom.stdout == plain.stdout
    first = plain.stdout.splitlines()[0]
    assert (json.loads(first)["class"] if fmt == "jsonl" else first.split("\t")[1]) == "10"


def test_detect_min_score_filters():
    line = "Worst of the worst of the gleeb.\n"
    res = runner.invoke(main, ["detect"], input=line)
    assert any(json.loads(l)["class"] == "20b" for l in res.stdout.splitlines())
    res = runner.invoke(main, ["detect", "--min-score", "0.6"], input=line)
    assert res.stdout == ""


def test_detect_stats_table_on_stderr():
    text = "All is possible, the impossible too.\nNothing here.\n"
    res = runner.invoke(main, ["detect", "--stats"], input=text)
    assert res.exit_code == 0
    stats = dict(l.split("\t") for l in res.stderr.splitlines())
    assert len(stats) == 36
    assert stats["1"] == "1"
    assert stats["10"] == "0"


@pytest.mark.parametrize("args, stdin", [
    (["generate", "--count", "0"], ""),
    (["generate", "--count", "0", "--format", "text"], ""),
    (["detect"], "Nothing here.\nNor here.\n"),
    (["detect", "--format", "text"], "Nothing here.\n"),
    (["detect"], ""),
])
def test_no_records_print_nothing(args, stdin):
    res = runner.invoke(main, args, input=stdin)
    assert res.exit_code == 0
    assert res.stdout == ""


@pytest.mark.parametrize("n", [0, 1, 63, 64, 65, 129])
def test_echo_lines_batches_records(n):
    calls = []
    stream = SimpleNamespace(write=calls.append, flush=lambda: None)
    lines = [f"record {i}" for i in range(n)]
    _echo_lines(stream, iter(lines))
    assert "".join(calls) == "".join(line + "\n" for line in lines)
    assert len(calls) == -(-n // 64)


def test_echo_lines_lets_an_error_of_its_source_pass_through(monkeypatch):
    """Only a failed write is reported as one: an OSError raised by the
    lines themselves (a failed read of detect input) is not."""
    calls = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=calls.append, flush=lambda: None))

    def lines():
        yield "record"
        raise OSError(errno.EIO, "Input/output error")

    with pytest.raises(OSError, match="Input/output error"):
        _echo_lines(sys.stdout, lines())
    assert calls == []


SRC = str(Path(antinomy.__file__).resolve().parents[1])
ESCAPED = "\x1b[1mX without \x1b[1mX."


def _output(args: list[str], on_terminal: bool, stream: str = "stdout") -> tuple[int, bytes]:
    """The CLI's exit code and the bytes it writes to `stream` ("stdout"
    or "stderr"), that stream being a pipe, or a pseudo-terminal whose
    carriage returns are dropped. The other stream is discarded."""
    command = [sys.executable, "-m", "antinomy.cli", *args]
    env = {**os.environ, "PYTHONPATH": SRC}
    streams = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
    if not on_terminal:
        res = subprocess.run(command, stdin=subprocess.DEVNULL, env=env,
                             **{**streams, stream: subprocess.PIPE})
        return res.returncode, getattr(res, stream)
    master, slave = pty.openpty()
    chunks = []
    with subprocess.Popen(command, stdin=subprocess.DEVNULL, env=env,
                          **{**streams, stream: slave}) as proc:
        os.close(slave)
        while True:
            try:
                chunk = os.read(master, 4096)
            except OSError:          # EIO once the child has closed the terminal
                break
            if not chunk:
                break
            chunks.append(chunk)
    os.close(master)
    return proc.returncode, b"".join(chunks).replace(b"\r\n", b"\n")


@pytest.mark.parametrize("command, source", [
    (["detect", "--format", "text", "--min-score", "0"], f"Hell without hell.\n{ESCAPED}\n"),
])
def test_stdout_is_the_same_on_a_terminal_and_a_pipe(command, source, tmp_path):
    path = tmp_path / "source.txt"
    path.write_text(source)
    args = command + ["--input", str(path)]
    piped = _output(args, on_terminal=False)
    assert piped[0] == 0 and b"\x1b[1m" in piped[1]
    assert _output(args, on_terminal=True) == piped


@pytest.mark.parametrize("args", [
    ["generate", "--class", "10", "--slot", "0=\x1b[1mcar"],
], ids=["bad-slot-word"])
def test_stderr_is_the_same_on_a_terminal_and_a_pipe(args):
    piped = _output(args, on_terminal=False, stream="stderr")
    assert piped[0] == 1 and b"\x1b[1m" in piped[1]
    assert _output(args, on_terminal=True, stream="stderr") == piped


def _run(args: list[str], stdin: bytes = b"", **env: str) -> subprocess.CompletedProcess:
    """The CLI under the real interpreter, its stdin fed from `stdin`, its
    stdout and stderr captured, `env` added to its environment."""
    return subprocess.run([sys.executable, "-m", "antinomy.cli", *args], input=stdin,
                          capture_output=True, env={**os.environ, "PYTHONPATH": SRC, **env})


@pytest.mark.parametrize("encoding", [None, "latin-1"])
def test_non_utf8_stdin_exit_1_under_the_interpreter(encoding):
    env = {"PYTHONIOENCODING": encoding} if encoding else {}
    res = _run(["detect"], b"x \xff\n", **env)
    assert res.returncode == 1
    assert res.stdout == b""
    assert res.stderr.startswith(b"error: 'utf-8' codec can't decode")
    assert b"Traceback" not in res.stderr


@pytest.mark.parametrize("where", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("source", ["file", "stdin"])
def test_a_decode_error_deep_in_the_input_exits_1_after_the_lines_before_it(where, source,
                                                                           tmp_path):
    """The error names the bad byte's position in the whole input, and
    stdout holds the records of exactly the lines that end before it."""
    lines = runner.invoke(main, ["generate", "--class", "all", "--count", "150",
                                 "--format", "text"]).stdout.splitlines(keepends=True)
    data = "".join(lines).encode("utf-8")
    assert len(data) > 2 * 65536
    cut = 65536 + 7 + int(where * (len(data) - 65536 - 8))
    bad = data[:cut] + b"\xff" + data[cut:]
    ended = data[:data.rindex(b"\n", 0, cut) + 1]
    args = ["detect", "--min-score", "0", "--stats"]
    if source == "file":
        path = tmp_path / "bad.txt"
        path.write_bytes(bad)
        res = _run(args + ["--input", str(path)])
    else:
        res = _run(args, bad)
    assert res.returncode == 1
    assert res.stderr == (f"error: 'utf-8' codec can't decode byte 0xff in position {cut}: "
                          f"invalid start byte\n").encode()
    before = _run(["detect", "--min-score", "0"], ended)
    assert before.returncode == 0 and before.stdout.count(b"\n") > 1000
    assert res.stdout == before.stdout


@pytest.mark.parametrize("encoding", [None, "ascii", "latin-1"])
def test_stdin_reads_as_the_same_file_would(encoding, tmp_path):
    """Stdin is UTF-8 whatever PYTHONIOENCODING says, and its lines split
    as a file's do: a leading BOM skipped, CRLF and a lone CR each one break."""
    source = "\ufeffHell without hell.\r\nCaf\u00e9 without caf\u00e9.\rX.\r\n\nHell without hell."
    path = tmp_path / "source.txt"
    path.write_bytes(source.encode("utf-8"))
    args = ["detect", "--min-score", "0"]          # JSONL is ASCII in any encoding
    env = {"PYTHONIOENCODING": encoding} if encoding else {}
    from_file = _run(args + ["--input", str(path)])
    from_stdin = _run(args, source.encode("utf-8"), **env)
    assert from_file.returncode == from_stdin.returncode == 0
    assert from_stdin.stdout == from_file.stdout
    records = [json.loads(line) for line in from_stdin.stdout.splitlines()]
    assert {"line": 1, "class": "10"}.items() <= records[1].items()
    assert "\u00e9" in records[1]["binding"]["realized"][0]
    assert {r["line"] for r in records} == {0, 1, 4}


@pytest.mark.parametrize("encoding, echoed", [
    ("ascii", b"Caf\\xe9 without caf\\xe9."),
    ("latin-1", b"Caf\xe9 without caf\xe9."),
    ("utf-8", b"Caf\xc3\xa9 without caf\xc3\xa9."),
], ids=["ascii", "latin-1", "utf-8"])
def test_stdout_writes_what_its_encoding_cannot_represent_as_escapes(encoding, echoed,
                                                                     tmp_path):
    """As on stderr: a character stdout's encoding lacks is a backslash
    escape, not a UnicodeEncodeError traceback."""
    path = tmp_path / "source.txt"
    path.write_bytes("Caf\u00e9 without caf\u00e9.\n".encode("utf-8"))
    res = _run(["detect", "--format", "text", "--min-score", "0", "--input", str(path)],
               PYTHONIOENCODING=encoding)
    assert (res.returncode, res.stderr) == (0, b"")
    assert res.stdout == b"0\t10\t0.000\t" + echoed + b"\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", [
    ["generate", "--class", "all", "--count", "2000"],   # fails on a batch write
    ["classes"],                                          # fails on the closing flush
])
def test_failed_stdout_write_exit_1_without_traceback(args):
    with open("/dev/full", "wb") as full:
        res = subprocess.run([sys.executable, "-m", "antinomy.cli", *args],
                             stdin=subprocess.DEVNULL, stdout=full, stderr=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": SRC})
    assert res.returncode == 1
    assert res.stderr == b"error: cannot write output: [Errno 28] No space left on device\n"


def test_broken_pipe_exit_1_silently():
    command = [sys.executable, "-m", "antinomy.cli", "generate", "--class", "all", "--count", "2000"]
    with subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC}) as proc:
        assert proc.stdout.readline().startswith(b'{"class": "1"')
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == b""


def test_generate_stops_at_once_when_its_reader_leaves():
    """Lines are written as they are made, so a reader that takes one line
    of a million-sentence batch and closes the pipe ends the run at the
    next write: exit 1, nothing on stderr."""
    command = [sys.executable, "-m", "antinomy.cli", "generate", "--class", "all",
               "--count", "1000000"]
    with subprocess.Popen(command, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": SRC}) as proc:
        assert proc.stdout.readline().startswith(b'{"class": "1"')
        proc.stdout.close()
        closed = time.perf_counter()
        try:
            proc.wait(timeout=30)
        finally:
            proc.kill()
        ended = time.perf_counter() - closed
        stderr = proc.stderr.read()
    assert proc.returncode == 1
    assert stderr == b""
    assert ended < 1.0


def test_detect_echoes_escapes_verbatim():
    res = runner.invoke(main, ["detect", "--format", "text", "--min-score", "0"],
                        input=ESCAPED + "\n")
    assert res.exit_code == 0
    assert res.stdout == f"0\t10\t0.000\t{ESCAPED}\n"


def test_lexicon_validate_ok(lex_file):
    res = runner.invoke(main, ["lexicon", "validate", lex_file])
    assert res.exit_code == 0
    assert res.stdout == "ok: 2 entries, 0 repairs\n"


def test_lexicon_validate_reports_repairs(tmp_path):
    path = tmp_path / "oneway.lex"
    path.write_text("hot\tA\t\tcold\ncold\tA\t\t\n")
    res = runner.invoke(main, ["lexicon", "validate", str(path)])
    assert res.exit_code == 0
    assert "ok: 2 entries, 1 repairs" in res.stdout
    assert "hot" in res.stdout


def test_lexicon_validate_rejects_defects(tmp_path):
    path = tmp_path / "broken.lex"
    path.write_text("word\tA\t\tmissing\nword\tA\t\t\n")
    res = runner.invoke(main, ["lexicon", "validate", str(path)])
    assert res.exit_code == 1
    assert "missing" in res.stdout or "duplicate" in res.stdout.lower()


_SENTENCES = ("All is possible, the impossible too.", "Hell without hell.",
              "I hate the haters.", "Follower of the followers.")
_DETECT_INPUT = st.one_of(
    st.binary(max_size=200),
    st.text(max_size=200).map(str.encode),
    st.lists(st.sampled_from(_SENTENCES) | st.text(max_size=20), max_size=5)
    .map(lambda lines: "\n".join(lines).encode()),
)


@settings(deadline=None, max_examples=150)
@given(data=_DETECT_INPUT, fmt=st.sampled_from(["jsonl", "text"]))
def test_detect_survives_arbitrary_bytes(data, fmt):
    res = runner.invoke(main, ["detect", "--format", fmt, "--stats"], input=data)
    assert res.exception is None or isinstance(res.exception, SystemExit), repr(res.exception)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError:
        assert res.exit_code == 1 and res.stderr.startswith("error:")
    else:
        assert res.exit_code == 0, res.stderr


# Lexicon file bytes: arbitrary, or rows over near misses (bad parts of
# speech, words that are not lexicon words, too few or too many fields),
# so that a rejected, a repaired and an accepted lexicon all come up.
_LEXICON_FIELD = st.sampled_from(["hot", "cold", "Hot", "run", "two words", "",
                                  " n ", "V", "A", "X", "cold,hot"]) | st.text(max_size=3)
_LEXICON_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.lists(_LEXICON_FIELD, min_size=1, max_size=5).map("\t".join), max_size=6)
    .map(lambda rows: "\n".join(rows).encode()),
)


@settings(deadline=None, max_examples=100)
@given(data=_LEXICON_BYTES)
def test_every_command_survives_an_arbitrary_lexicon_file(data):
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "fuzz.lex")
        Path(path).write_bytes(data)
        for args in (["generate", "--lexicon", path, "--count", "1"],
                     ["detect", "--lexicon", path], ["lexicon", "validate", path]):
            res = runner.invoke(main, args, input="")
            error = res.exception
            assert error is None or isinstance(error, SystemExit), (args, repr(error))
            assert res.exit_code in (0, 1, 2), args
            assert res.exit_code == 0 or (res.stdout + res.stderr).strip(), args


# Option values: arbitrary text, or near misses of what each option takes.
# A --slot group is at times made of digits that are not ASCII decimals,
# such as "²", which str.isdigit accepts and int refuses.
_CLASS_TEXT = st.text(max_size=8) | st.sampled_from(["all", "ALL", "13", " 13", "2v", "2V",
                                                     "027", "36", ""])
_GROUP_TEXT = (st.text(max_size=3) | st.sampled_from(["0", "1", "7", "00", "-1", "+1"])
               | st.text(st.characters(categories=("Nd", "No")), min_size=1, max_size=2))
_SLOT_TEXT = st.text(max_size=10) | st.builds(
    "{}={}".format, _GROUP_TEXT, st.text(max_size=6) | st.sampled_from(["car", "hot", "Hot",
                                                                        "speak", "gleeb"]))


def assert_exit_contract(args: list[str]) -> None:
    """Exit 0, 1 or 2 with no exception but SystemExit; exit 1 with an
    error line or click's usage text first on stderr."""
    res = runner.invoke(main, args)
    error = res.exception
    assert error is None or isinstance(error, SystemExit), (args, repr(error))
    assert res.exit_code in (0, 1, 2), (args, res.exit_code)
    if res.exit_code == 1:
        assert res.stderr.startswith(("error:", "Usage:")), (args, res.stderr)


@settings(deadline=None, max_examples=100)
@given(text=_CLASS_TEXT)
def test_generate_survives_an_arbitrary_class(text):
    assert_exit_contract(["generate", "--class", text, "--count", "1"])


@settings(deadline=None, max_examples=100)
@given(text=_CLASS_TEXT)
def test_classes_survives_an_arbitrary_id(text):
    assert_exit_contract(["classes", "--id", text])


@settings(deadline=None, max_examples=100)
@example(text="²=car")
@given(text=_SLOT_TEXT)
def test_generate_survives_an_arbitrary_slot(text):
    assert_exit_contract(["generate", "--class", "all", "--count", "1", "--slot", text])
