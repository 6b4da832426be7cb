"""Bidirectional template grammar for paradox and tautology sentences.

Thirty numbered classes of short paradoxes, semi-paradoxes and
tautologies share one mechanism: a template of literal text and typed
slots, plus a lexicon of synonym and antonym links. This package runs
the mechanism both ways: `generate` fills templates from the lexicon,
`classify` recovers a template and its word binding from a sentence.
"""
from .detector import (Detection, Evidence, EvidenceKind, classify, match_schema,
                       normalize, scan_corpus)
from .generator import (BadOverrideError, BatchResult, Binding, GeneratedSentence,
                        GenerateError, NoCandidateError, SkippedSchema, generate,
                        generate_batch)
from .lexicon import (DanglingReference, DuplicateEntry, LexEntry, Lexicon,
                      MalformedLine, PartOfSpeech, SelfReferenceDropped,
                      SymmetryRepair, ValidationReport, parse_lexicon,
                      serialize_lexicon)
from .morphology import (Derivation, EmptyPhraseError, agentive, agentive_bases,
                         apply_derivations, gerund, gerund_bases,
                         indefinite_article, negated_infinitive, plural_bases,
                         pluralize)
from .rng import SplitMix64, sub_seed
from .schema import (LiteralToken, Relation, Schema, SchemaKind, SlotSpec,
                     SlotToken, TemplateError, builtin_registry, class_sort_key,
                     dump_catalog, load_catalog, parse_template, render_template,
                     render_tokens)

__version__ = "0.1.0"

__all__ = [
    "BadOverrideError", "BatchResult", "Binding", "DanglingReference",
    "Derivation", "Detection", "DuplicateEntry", "EmptyPhraseError", "Evidence",
    "EvidenceKind", "GenerateError", "GeneratedSentence", "LexEntry", "Lexicon",
    "LiteralToken", "MalformedLine", "NoCandidateError", "PartOfSpeech",
    "Relation", "Schema", "SchemaKind", "SelfReferenceDropped", "SkippedSchema",
    "SlotSpec", "SlotToken", "SplitMix64", "SymmetryRepair", "TemplateError",
    "ValidationReport", "agentive", "agentive_bases", "apply_derivations",
    "builtin_registry", "class_sort_key",
    "classify", "dump_catalog", "generate", "generate_batch",
    "gerund", "gerund_bases", "indefinite_article", "load_catalog",
    "match_schema", "negated_infinitive", "normalize", "parse_lexicon",
    "parse_template", "plural_bases", "pluralize", "render_template",
    "render_tokens", "scan_corpus", "serialize_lexicon", "sub_seed",
]
