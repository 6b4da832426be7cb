"""Seeded inputs and independent output checks for the three workloads.

Each builder turns a benchmark seed into the exact bytes the CLI reads
(plus its arguments), so two commits given the same seed run identical
inputs; `Workload.digest` proves it. The checks never use the code under
test as their reference: generate output is compared against a digest
frozen from an earlier commit and against a SplitMix64 written here,
detect output against the class each line was generated from.
"""
from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from importlib import resources

from antinomy import LiteralToken, builtin_registry, generate, parse_lexicon

DEFAULT_SEED = 1
GENERATE_COUNT = 800            # sentences per class in one CLI run: 28,800 in all
DETECT_GENERATED_LINES = 4000
DETECT_PROSE_LINES = 8000
MIN_SCORE = 0.5                 # the CLI default, passed explicitly

# sha256 of the stdout of `generate --class all --count 800 --seed 1`
# against the bundled lexicon, frozen from the commit that introduced
# this benchmark. Generate output is pinned byte for byte, so any change
# here is a regression, not a new baseline.
GENERATE_PIN_SHA256 = "4c5e2c334af3fe729f8a0a5b8442a5fb6c0bf1b81d72c50acdaa7488198e86b3"

# Templates 23 and 27 are byte-identical; detection reports the lower id.
IDENTICAL_PATTERNS = {"27": "23"}

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def reference_sub_seed(seed: int, index: int) -> int:
    """SplitMix64 output `index` for `seed`, written from the published
    algorithm so generate's per-item seeds are checked independently."""
    z = (seed + (index + 1) * _GAMMA) & _MASK
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Workload:
    """One CLI invocation: arguments after `python -m antinomy.cli`, stdin."""

    name: str
    args: tuple[str, ...]
    stdin: bytes
    items: int                      # sentences generated or lines detected
    seed: int
    lines: tuple[str, ...] = ()     # detect workloads: the input lines
    labels: tuple[str, ...] = ()    # detect-generated: expected class per line

    @property
    def digest(self) -> str:
        h = hashlib.sha256("\0".join(self.args).encode("utf-8"))
        h.update(b"\0")
        h.update(self.stdin)
        return h.hexdigest()


def demo_lexicon():
    text = (resources.files("antinomy") / "data" / "demo.lex").read_text(encoding="utf-8")
    return parse_lexicon(text)


def generate_all(seed: int, count: int = GENERATE_COUNT) -> Workload:
    """`generate --class all`: generator, rng, lexicon pools, forward
    morphology and JSONL output; the detector stays idle."""
    args = ("generate", "--class", "all", "--count", str(count), "--seed", str(seed))
    return Workload("generate-all", args, b"", len(builtin_registry()) * count, seed)


def detect_generated(seed: int, n_lines: int = DETECT_GENERATED_LINES) -> Workload:
    """Sentences generated from all 36 schemas, each labelled with its
    generating class (27 reads as 23). Lines come in shuffled blocks of
    one sentence per schema, so every prefix of whole blocks (such as the
    latency subset) holds all classes in equal shares."""
    rnd = random.Random(seed)
    lexicon = demo_lexicon()
    registry = builtin_registry()
    pairs: list[tuple[str, str]] = []
    while len(pairs) < n_lines:
        block = [(generate(lexicon, schema, rnd.getrandbits(64)).sentence,
                  IDENTICAL_PATTERNS.get(schema.class_id, schema.class_id))
                 for schema in registry]
        rnd.shuffle(block)
        pairs.extend(block[:n_lines - len(pairs)])
    lines = tuple(p[0] for p in pairs)
    return Workload("detect-generated", _detect_args(), _join(lines), len(lines), seed,
                    lines, tuple(p[1] for p in pairs))


def prose_vocabulary() -> tuple[str, ...]:
    """Every lexicon surface plus every word of the templates' literal text."""
    words = {e.surface for e in demo_lexicon().entries()}
    for schema in builtin_registry():
        for token in schema.tokens:
            if isinstance(token, LiteralToken):
                text = re.sub(r"[Aa]\(n\)", "a", token.text).lower()
                words.update(re.findall(r"[a-z]+(?:'[a-z]+)?", text))
    words.add("an")
    return tuple(sorted(words))


def detect_prose(seed: int, n_lines: int = DETECT_PROSE_LINES) -> Workload:
    """Sentence-shaped lines of 4 to 30 tokens over the same vocabulary as
    the generated sentences; hardly any anchors a whole skeleton."""
    rnd = random.Random(seed)
    vocab = prose_vocabulary()
    lines = []
    for _ in range(n_lines):
        tokens: list[str] = []
        for _ in range(rnd.randint(4, 30) - 1):     # the closing mark is a token too
            comma = tokens and tokens[-1] != "," and rnd.random() < 0.08
            tokens.append("," if comma else rnd.choice(vocab))
        text = " ".join(tokens).replace(" ,", ",")
        lines.append(text[0].upper() + text[1:] + rnd.choice(".?!"))
    return Workload("detect-prose", _detect_args(), _join(lines), len(lines), seed,
                    tuple(lines))


BUILDERS = {"generate-all": generate_all, "detect-generated": detect_generated,
            "detect-prose": detect_prose}


def head(workload: Workload, n_lines: int) -> Workload:
    """The first `n_lines` lines of a detect workload, with their labels."""
    lines = workload.lines[:n_lines]
    return Workload(workload.name, workload.args, _join(lines), len(lines), workload.seed,
                    lines, workload.labels[:n_lines])


def _detect_args() -> tuple[str, ...]:
    return ("detect", "--min-score", str(MIN_SCORE))


def _join(lines) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def empty_input(workload: Workload) -> tuple[tuple[str, ...], bytes]:
    """The same command with nothing to do: set-up cost only."""
    if workload.name == "generate-all":
        return generate_all(workload.seed, count=0).args, b""
    return workload.args, b""


def check_pinned(stdout: bytes) -> bool:
    return hashlib.sha256(stdout).hexdigest() == GENERATE_PIN_SHA256


def count_failures(workload: Workload, stdout: bytes) -> int:
    """Items (sentences or input lines) whose output is missing or wrong."""
    if workload.name == "generate-all":
        return _generate_failures(workload, stdout)
    return _detect_failures(workload, stdout)


def _records(stdout: bytes) -> list[dict | None]:
    out = []
    for raw in stdout.decode("utf-8", "replace").splitlines():
        try:
            record = json.loads(raw)
        except ValueError:
            record = None
        out.append(record if isinstance(record, dict) else None)
    return out


def _generate_failures(workload: Workload, stdout: bytes) -> int:
    count = workload.items // len(builtin_registry())
    expected = [(schema.class_id, reference_sub_seed(workload.seed, i * count + rep))
                for i, schema in enumerate(builtin_registry()) for rep in range(count)]
    records = _records(stdout)
    failed = abs(len(records) - len(expected))
    for record, (class_id, seed) in zip(records, expected):
        if not _sentence_ok(record, class_id, seed):
            failed += 1
    return failed


def _sentence_ok(record: dict | None, class_id: str, seed: int) -> bool:
    if record is None or record.get("class") != class_id or record.get("seed") != seed:
        return False
    sentence = record.get("sentence")
    realized = (record.get("binding") or {}).get("realized")
    if not isinstance(sentence, str) or not isinstance(realized, list) or not realized:
        return False
    # Slot fills appear in the sentence in template order.
    text, pos = sentence.lower(), 0
    for word in realized:
        pos = text.find(str(word), pos) if isinstance(word, str) else -1
        if pos < 0:
            return False
        pos += len(word)
    return True


def _detect_failures(workload: Workload, stdout: bytes) -> int:
    known = {schema.class_id for schema in builtin_registry()}
    bad_lines: set[int] = set()
    top: dict[int, dict] = {}
    unattributed = 0
    last = -1
    for record in _records(stdout):
        line = record.get("line") if record is not None else None
        if not isinstance(line, int) or not 0 <= line < workload.items or line < last:
            unattributed += 1
            continue
        last = line
        top.setdefault(line, record)
        if not _detection_ok(record, known, workload.lines[line]):
            bad_lines.add(line)
    if workload.labels:
        for line, label in enumerate(workload.labels):
            record = top.get(line)
            if record is None or record.get("class") != label or record.get("score") != 1.0:
                bad_lines.add(line)
    return min(workload.items, len(bad_lines) + unattributed)


def _detection_ok(record: dict, known: set[str], line: str) -> bool:
    score = record.get("score")
    realized = (record.get("binding") or {}).get("realized")
    if record.get("class") not in known or not isinstance(score, (int, float)):
        return False
    if not MIN_SCORE <= score <= 1.0 or not isinstance(realized, list):
        return False
    text = line.lower()
    # A capture of several tokens is reported joined by hyphens.
    return all(isinstance(w, str) and all(p in text for p in w.split("-")) for w in realized)
