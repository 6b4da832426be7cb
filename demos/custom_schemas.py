"""
Building your own template and lexicon
======================================

The built-in registry is just parsed template text; the same machinery
runs on templates and lexicons you write yourself.
"""
import re
import sys

from antinomy import (Lexicon, LiteralToken, Schema, SchemaKind, TemplateError, classify,
                      generate, parse_lexicon, parse_template, render_tokens)

# a lexicon is tab-separated text: surface, part of speech, synonyms, antonyms.
# antonym links may be one-directional in the source; parsing repairs them.
lexicon = parse_lexicon(
    "build\tV\tconstruct\tdestroy\n"
    "construct\tV\tbuild\t\n"
    "destroy\tV\t\t\n"
    "wall\tN\tfence\t\n"
    "fence\tN\twall\t\n"
    "order\tN\t\tchaos\n"
    "chaos\tN\t\t\n"
    "end\tN\t\tbeginning\n"
    "beginning\tN\t\t\n"
)
assert isinstance(lexicon, Lexicon)
print("repairs made:", [str(r) for r in lexicon.report.repairs])

# slots: {V} base verb, {~V} its antonym, {N} base noun, {N:pl} its plural.
# slots of one symbol share a word group, and every group needs one bare
# base slot; "{N:pl} ... {~N}" alone would be rejected.
tokens = parse_template("To {V} {N:pl} is to {~V} the {N}.")
schema = Schema("demo", SchemaKind.PARADOX, tokens)
print(render_tokens(tokens))

out = generate(lexicon, schema, seed=5)
print(out.sentence)

# detection works against any schema list, not only the built-ins
ranked = classify(lexicon, [schema], out.sentence)
print(ranked[0].class_id, ranked[0].score)

# malformed templates are rejected with a reason kind; text glued onto a
# slot ("{N}'s") would print a word that detection cannot split back off
for bad in ("{N}{V} touching slots.", "{Q} unknown symbol.", "{~A} no base.", "{N}'s {~N}."):
    try:
        parse_template(bad)
    except TemplateError as err:
        print(f"{bad!r:<28} -> {err.kind}")

# a Schema built from tokens by hand passes the same checks: these are the
# tokens of "{N}'s {~N}.", refused as the template text is
noun, _, antonym, end = parse_template("{N} or {~N}.")
try:
    Schema("glued", SchemaKind.PARADOX, (noun, LiteralToken("'s "), antonym, end))
except TemplateError as err:
    print(f"{'hand-built tokens':<28} -> {err.kind}")
else:
    raise AssertionError("a Schema accepted tokens that parse_template refuses")

# "A(n)" prints a capital article, "a(n)" a lower-case one. Before a slot,
# the article is chosen by the word generation puts there; the sentence
# starts with a capital whatever its first word.
failures = 0
for dsl in ("A(n) {N} hides in a(n) {~N}.", "Look: A(n) {~N} is a(n) {N} too."):
    schema = Schema("articles", SchemaKind.PARADOX, parse_template(dsl))
    for seed in range(6):
        sentence = generate(lexicon, schema, seed=seed).sentence
        print(sentence)
        wrong = [f"{article} {word}" for article, word in re.findall(r"\b(an?) (\w+)", sentence,
                                                                      re.IGNORECASE)
                 if (article.lower() == "an") != (word[0].lower() in "aeiou")]
        if wrong or not sentence[0].isupper():
            print(f"  article or capital wrong: {wrong or sentence[0]}")
            failures += 1
sys.exit(1 if failures else 0)
