from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antinomy import (Derivation, Evidence, EvidenceKind, GenerateError, PartOfSpeech,
                      Relation, apply_derivations, classify, detector, generate, match_schema,
                      normalize, scan_corpus)
from conftest import lex, make_schema, random_lexicon_source, random_template


@pytest.mark.parametrize("enum", [PartOfSpeech, Relation, Derivation, EvidenceKind])
def test_enums_keyed_on_hot_paths_hash_by_identity(enum):
    # Lexicon keys, slot specs and the JSONL writer's kind table hash these.
    assert enum.__hash__ is object.__hash__
    for member in enum:
        assert hash(member) == object.__hash__(member)
        assert {member: 1}[enum(member.value)] == 1


def test_normalize_splits_punctuation():
    assert normalize("All is possible, the impossible too.") == (
        "all", "is", "possible", ",", "the", "impossible", "too", ".")


def test_normalize_keeps_internal_marks():
    assert normalize("Don't break non-diary words!") == (
        "don't", "break", "non-diary", "words", "!")


def test_normalize_folds_typographic_apostrophe():
    assert normalize("Let’s go") == ("let's", "go")


def test_normalize_empty():
    assert normalize("") == ()
    assert normalize("   ") == ()


OPPOSITES = lex("possible\tA\t\timpossible\nimpossible\tA\t\tpossible\n")
CLASS_1 = make_schema("1", "All is {A}, the {~A} too.")


def test_full_match_detection_fields():
    det = match_schema(OPPOSITES, CLASS_1, "All is possible, the impossible too.")
    assert det is not None
    assert det.class_id == "1"
    assert det.binding.bases == ((0, "possible"),)
    assert det.binding.realized == ("possible", "impossible")
    assert det.score == 1.0
    assert det.relations_checked == 1
    assert det.relations_satisfied == 1
    assert det.sentence_index == 0
    assert det.evidence == (Evidence(1, EvidenceKind.LEX_ANTONYM),)


def test_match_is_case_and_index_aware():
    det = match_schema(OPPOSITES, CLASS_1,
                       "ALL IS POSSIBLE, THE IMPOSSIBLE TOO.", sentence_index=7)
    assert det is not None and det.score == 1.0
    assert det.sentence_index == 7


def test_missing_skeleton_is_no_match():
    assert match_schema(OPPOSITES, CLASS_1, "Nothing to see here.") is None
    assert match_schema(OPPOSITES, CLASS_1, "All is possible.") is None


def test_unknown_base_scores_zero():
    det = match_schema(OPPOSITES, CLASS_1, "All is gleeb, the blorp too.")
    assert det is not None
    assert det.score == 0.0
    assert det.relations_checked == 1
    assert det.relations_satisfied == 0
    assert det.evidence == ()


def test_negated_infinitive_evidence():
    speak = lex("speak\tV\t\t\n")
    schema = make_schema("9", "{~V} sometimes means to {V}.")
    det = match_schema(speak, schema, "Not to speak sometimes means to speak.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(0, EvidenceKind.NEG_INF),)
    assert det.binding.realized == ("not-to-speak", "speak")


def test_negation_span_must_wrap_the_base_exactly():
    speak = lex("speak\tV\t\t\nshout\tV\t\t\n")
    schema = make_schema("9", "{~V} sometimes means to {V}.")
    det = match_schema(speak, schema, "Not to shout sometimes means to speak.")
    assert det is not None
    assert det.score == 0.0


def test_negation_is_for_verbs_only():
    walk = lex("walk\tN\t\t\n")
    schema = make_schema("15", "{N} of the {~N}.")
    det = match_schema(walk, schema, "Walk of the not to walk.")
    assert det is not None
    assert det.score == 0.0


def test_derived_synonym_evidence():
    verbs = lex("hate\tV\tdetest\t\ndetest\tV\thate\t\n")
    schema = make_schema("30", "I {V} the {V':agent+pl}.")
    det = match_schema(verbs, schema, "I hate the detesters.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.SUFFIX_INVERSE),)


def test_inflected_repeat_counts_as_synonym_suffix():
    nouns = lex("follower\tN\t\t\n")
    schema = make_schema("20a", "{N} of the {N'}.")
    det = match_schema(nouns, schema, "Follower of the followers.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.SUFFIX_INVERSE),)


def test_derived_forms_are_tried_in_sorted_word_order(monkeypatch):
    # The calls a relation check makes must not depend on string hashing.
    words = ["hate", "detest", "loathe", "abhor", "despise", "scorn"]
    source = "".join(f"{w}\tV\t{','.join(o for o in words if o != w)}\t\n" for w in words)
    calls: list[str] = []

    def recorder(word, derivations):
        calls.append(word)
        return apply_derivations(word, derivations)

    monkeypatch.setattr(detector, "apply_derivations", recorder)
    schema = make_schema("30", "I {V} the {V':agent+pl}.")
    det = match_schema(lex(source), schema, "I hate the gleebers.")
    assert det is not None and det.score == 0.0
    assert calls == sorted(words)


@pytest.mark.parametrize("derived", ["dreamer", "dreaming"])
def test_agentive_and_gerund_repeats_count_as_synonym_suffix(derived):
    nouns = lex("dream\tN\t\t\n")
    schema = make_schema("20a", "{N} of the {N'}.")
    det = match_schema(nouns, schema, f"Dream of the {derived}.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.SUFFIX_INVERSE),)


def test_identity_repeat_evidence():
    nouns = lex("hell\tN\t\t\n")
    schema = make_schema("10", "{N} without {N}.")
    det = match_schema(nouns, schema, "Hell without hell.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.IDENTITY_REPEAT),)


def test_gerund_identity_evidence():
    verbs = lex("strike\tV\t\t\n")
    schema = make_schema("14", "Let's {V} by not {V:ger}.")
    det = match_schema(verbs, schema, "Let's strike by not striking.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.SUFFIX_INVERSE),)


def test_negated_infinitive_slot_evidence():
    # "not to talk" is captured as "not-to-talk" and compared in that shape.
    verbs = lex("talk\tV\t\t\n")
    schema = make_schema("u", "To {V} or {V:neginf}.")
    assert generate(verbs, schema).sentence == "To talk or not to talk."
    det = match_schema(verbs, schema, "To talk or not to talk.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.SUFFIX_INVERSE),)


def test_derived_antonym_slot_evidence():
    verbs = lex("win\tV\t\tlose\nlose\tV\t\twin\n")
    schema = make_schema("u", "To {V} is {~V:ger}, {~V:neginf}.")
    det = match_schema(verbs, schema, "To win is losing, not to lose.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.SUFFIX_INVERSE),
                            Evidence(2, EvidenceKind.SUFFIX_INVERSE))


def test_synonym_evidence_through_article_slots():
    nouns = lex("teacher\tN\tprofessor\t\nprofessor\tN\tteacher\t\n")
    schema = make_schema("21", "This is not a(n) {N}, this is a(n) {N'}.")
    det = match_schema(nouns, schema, "This is not a teacher, this is a professor.")
    assert det is not None
    assert det.score == 1.0
    assert det.evidence == (Evidence(1, EvidenceKind.LEX_SYNONYM),)


def test_article_element_accepts_an_but_not_the():
    nouns = lex("end\tN\t\torigin\norigin\tN\t\tend\n")
    schema = make_schema("17", "A(n) {~N} {N}.")
    assert match_schema(nouns, schema, "An end origin.") is not None
    assert match_schema(nouns, schema, "A end origin.") is not None
    assert match_schema(nouns, schema, "The end origin.") is None


def test_hyphenated_entry_matches_two_word_span():
    nouns = lex("sad-song\tN\t\t\n")
    schema = make_schema("10", "{N} without {N}.")
    det = match_schema(nouns, schema, "Sad song without sad song.")
    assert det is not None
    assert det.binding.bases == ((0, "sad-song"),)
    assert det.score == 1.0


def test_slot_span_is_capped():
    schema = make_schema("10", "{N} without {N}.")
    long = "One two three four without one two three four."
    assert match_schema(OPPOSITES, schema, long) is None


def test_shortest_capture_wins():
    nouns = lex("work\tN\t\t\n")
    schema = make_schema("15", "{N} of the {~N}.")
    det = match_schema(nouns, schema, "Work of the of the rest.")
    assert det is not None
    assert det.binding.realized[0] == "work"


def test_only_the_first_alignment_is_scored(demo_lexicon, registry):
    # {V} takes "which know" before {N} could take "slavery which"; that
    # first alignment scores 0 although the second would score 1.
    line = "There is some slavery which which know and really not to know at the same time."
    top = classify(demo_lexicon, registry, line)[0]
    assert (top.class_id, top.score) == ("6", 0.0)
    assert top.binding.bases == ((0, "slavery"), (1, "which-know"))
    assert top.binding.realized == ("slavery", "which-know", "not-to-know")


def test_classify_orders_by_score(demo_lexicon, registry):
    ranked = classify(demo_lexicon, registry, "Follower of the followers.")
    assert ranked
    assert ranked[0].class_id == "20a"
    assert ranked[0].score == 1.0
    scores = [d.score for d in ranked]
    assert scores == sorted(scores, reverse=True)


def test_identical_patterns_resolve_to_lower_id(demo_lexicon, registry):
    ranked = classify(demo_lexicon, registry, "More pretty than beautiful.")
    top_two = [(d.class_id, d.score) for d in ranked[:2]]
    assert top_two == [("23", 1.0), ("27", 1.0)]


def test_more_literal_anchoring_breaks_score_ties():
    sparse = make_schema("91", "{N} without {N}.")
    anchored = make_schema("90", "{N} without the {N}.")
    sentence = "Gleeb without the gleeb."
    ranked = classify(OPPOSITES, [sparse, anchored], sentence)
    assert [d.class_id for d in ranked] == ["90", "91"]
    assert {d.score for d in ranked} == {0.0}
    # and with ids swapped the anchored template still wins
    ranked = classify(OPPOSITES, [make_schema("90", "{N} without {N}."),
                                  make_schema("91", "{N} without the {N}.")], sentence)
    assert [d.class_id for d in ranked] == ["91", "90"]


def test_classify_blank_line(registry, demo_lexicon):
    assert classify(demo_lexicon, registry, "") == []
    assert classify(demo_lexicon, registry, "    ") == []


def test_scan_corpus_counts_top_detection_only(demo_lexicon, registry):
    lines = ["More pretty than beautiful.",
             "Nothing matches this line at all at all.",
             "Hell without hell."]
    detections, counts = scan_corpus(demo_lexicon, registry, lines)
    assert counts["23"] == 1 and counts["27"] == 0
    assert counts["10"] == 1
    assert sum(counts.values()) == 2
    assert set(counts) == {s.class_id for s in registry}
    # both members of the tie stay in the detection list
    assert [d.class_id for d in detections if d.sentence_index == 0] == ["23", "27"]


def test_scan_corpus_min_score_boundary():
    nouns = lex("worst\tN\t\t\n")
    schema = make_schema("20b", "{N} of the {N'} of the {N''}.")
    line = "Worst of the worst of the gleeb."
    det = match_schema(nouns, schema, line)
    assert det is not None and det.score == 0.5
    kept, counts = scan_corpus(nouns, [schema], [line])
    assert counts["20b"] == 1 and len(kept) == 1
    kept, counts = scan_corpus(nouns, [schema], [line], min_score=0.51)
    assert counts["20b"] == 0 and kept == []


@settings(deadline=None, max_examples=120)
@given(text=st.text(max_size=60))
def test_classify_handles_arbitrary_text(demo_lexicon, registry, text):
    for det in classify(demo_lexicon, registry, text):
        assert 0.0 <= det.score <= 1.0
        assert det.relations_satisfied <= det.relations_checked
        assert len(det.evidence) == det.relations_satisfied


@settings(deadline=None, max_examples=300)
@given(seed=st.integers(min_value=0, max_value=2 ** 32))
def test_random_user_templates_round_trip(seed):
    rng = random.Random(seed)
    lexicon = lex(random_lexicon_source(rng))
    schema = make_schema("u", random_template(rng))
    try:
        out = generate(lexicon, schema, rng.getrandbits(64))
    except GenerateError:
        return
    ranked = classify(lexicon, [schema], out.sentence)
    assert ranked and ranked[0].score == 1.0, out.sentence
