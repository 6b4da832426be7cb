"""Seeded synthetic lexicon of any size, for runs at thesaurus scale.

    python tests/synthetic_lexicon.py COUNT [SEED] > synthetic.lex

Words are `w0x`, `w1x`, ..., each of a random part of speech, with 0 to
4 synonyms of the same part of speech. Half the words of each part of
speech are paired as each other's antonym. Equal arguments give equal
text, and the text parses with no defect and no repair.
"""
from __future__ import annotations

import random
import sys


def synthetic_lexicon(count: int, seed: int = 0) -> str:
    rng = random.Random(seed)
    words = [f"w{i}x" for i in range(count)]
    pos_of = {w: rng.choice("NVA") for w in words}
    by_pos = {pos: [w for w in words if pos_of[w] == pos] for pos in "NVA"}
    antonym: dict[str, str] = {}
    for same_pos in by_pos.values():
        paired = rng.sample(same_pos, len(same_pos) // 4 * 2)
        for a, b in zip(paired[::2], paired[1::2]):
            antonym[a], antonym[b] = b, a
    lines = []
    for w in words:
        same_pos = by_pos[pos_of[w]]
        synonyms = {rng.choice(same_pos) for _ in range(rng.randint(0, 4))} - {w}
        lines.append(f"{w}\t{pos_of[w]}\t{','.join(sorted(synonyms))}\t{antonym.get(w, '')}")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":
    sys.stdout.write(synthetic_lexicon(int(sys.argv[1]), int(sys.argv[2]) if len(sys.argv) > 2 else 0))
