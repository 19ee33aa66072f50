"""The tagger's output pinned byte for byte.

``tests/golden/srl_tags.txt`` holds one JSON line per sentence: the
``render_annotation`` output and every span as (text, role, start, end,
entry).  The sentences are every ``spec`` of the shipped prompt sets, the
instructions of ``fixtures/eval_demo.jsonl`` and about 3,000 seeded random
sentences built from lexicon words, fillers and punctuation.

The golden file covers the default lexicon only.  The tags of about 2,000
more seeded sentences, each over one of a few seeded custom lexicons, are
pinned by the SHA-256 of the same JSON lines and by their count.

Regenerate the file, and print the custom corpus's digest (only when a
tagging change is intended), with

    PYTHONPATH=src python tests/test_srl_golden.py --write
"""

import hashlib
import json
import random
import sys
from pathlib import Path

from ltlkit.prompts import BUILTIN_PROMPT_SETS, builtin_prompt_set
from ltlkit.srl import Role, _parse_lexicon, default_lexicon, render_annotation, tag

GOLDEN_SRL_TAGS = Path(__file__).parent / "golden" / "srl_tags.txt"
EVAL_DEMO = Path(__file__).parent / "fixtures" / "eval_demo.jsonl"
RANDOM_SENTENCES = 3000

AUXILIARIES = "must should will can may please need do does is are be has have had".split()
PARTICLES = ["up", "down"]
FILLERS = (
    "the a an red blue room floor kitchen cup box robot it lab hallway "
    "second and_then x _tmp 's 42 7 once-ish"
).split()
PUNCTUATION = [",", ".", ";", ":"]

CUSTOM_LEXICONS = 8
CUSTOM_SENTENCES = 250  # per custom lexicon
CUSTOM_DIGEST = "d3ea149a63c67fda867cd271513ff8c273b3910e8a9f1b5a23c67767c4824b3d"
# Words a custom lexicon draws its verbs, prepositions and marker words
# from: "and", "then", "never", the particles and some auxiliaries among them.
LEXICON_WORDS = (
    "go visit enter pick place leave avoid stay and then never not before "
    "after until via through from to into in at on up down must do room"
).split()


def inflections(verb: str) -> list[str]:
    """The plain verb and suffixed forms, well formed or not."""
    forms = [verb, verb + "s", verb + "es", verb + "ed", verb + "ing"]
    forms += [verb + verb[-1] + "ed", verb + verb[-1] + "ing"]
    if verb.endswith("e"):
        forms += [verb[:-1] + "ed", verb[:-1] + "ing"]
    return forms


def random_sentence(rng: random.Random, lexicon) -> str:
    verbs = sorted(lexicon.verbs)
    prepositions = sorted(lexicon.prepositions)
    markers = sorted(" ".join(p) for p in lexicon.temporal + lexicon.negation)
    pieces = []
    for _ in range(rng.randint(1, 14)):
        kind = rng.random()
        if kind < 0.2:
            word = rng.choice(inflections(rng.choice(verbs)))
        elif kind < 0.32:
            word = rng.choice(prepositions)
        elif kind < 0.44:
            word = rng.choice(markers)
        elif kind < 0.5:
            word = rng.choice(AUXILIARIES)
        elif kind < 0.56:
            word = rng.choice(PARTICLES)
        elif kind < 0.66:
            word = " ".join(["and"] * rng.randint(1, 4))
        elif kind < 0.72:
            word = rng.choice(PUNCTUATION)
        else:
            word = rng.choice(FILLERS)
        if rng.random() < 0.1:
            word = word.capitalize()
        elif rng.random() < 0.03:
            word = word.upper()
        if word in PUNCTUATION and pieces and rng.random() < 0.7:
            pieces[-1] += word
        else:
            pieces.append(word)
    return " ".join(pieces)


def random_lexicon(rng: random.Random):
    """A lexicon in the file format with verbs and prepositions of every
    role; a word may be both, and a marker word may also be either."""
    roles = [r.value for r in Role]
    phrases = [
        " ".join(rng.sample(LEXICON_WORDS, rng.choice([1, 1, 2, 3])))
        for _ in range(rng.randint(1, 7))
    ]
    cut = rng.randint(1, len(phrases))
    verbs = rng.sample(LEXICON_WORDS, rng.randint(1, 8))
    lines = ["[verbs]", *(f"{w} {rng.choice(roles + ['-'])}" for w in verbs)]
    prepositions = rng.sample(LEXICON_WORDS, rng.randint(1, 6))
    lines += ["[prepositions]", *(f"{w} {rng.choice(roles)}" for w in prepositions)]
    lines += ["[temporal]", *phrases[:cut], "[negation]", *phrases[cut:]]
    return _parse_lexicon("\n".join(lines), "<random lexicon>")


def golden_sentences() -> list[str]:
    sentences = []
    for name in BUILTIN_PROMPT_SETS:
        sentences += [e.specification for e in builtin_prompt_set(name).examples]
    for line in EVAL_DEMO.read_text(encoding="utf-8").splitlines():
        record = json.loads(line)
        if "instruction" in record:
            sentences.append(record["instruction"])
    rng = random.Random("srl-golden")
    lexicon = default_lexicon()
    sentences += [random_sentence(rng, lexicon) for _ in range(RANDOM_SENTENCES)]
    return sentences


def tag_lines(sentences: list[str], lexicon=None) -> str:
    lines = []
    for sentence in sentences:
        spans = tag(sentence, lexicon)
        lines.append(json.dumps({
            "annotated": render_annotation(sentence, spans),
            "spans": [[s.text, s.role.value, s.start, s.end, s.entry] for s in spans],
        }) + "\n")
    return "".join(lines)


def golden_text() -> str:
    return tag_lines(golden_sentences())


def custom_lexicon_text() -> str:
    rng = random.Random("srl-custom-lexicons")
    parts = []
    for _ in range(CUSTOM_LEXICONS):
        lexicon = random_lexicon(rng)
        parts.append(tag_lines(
            [random_sentence(rng, lexicon) for _ in range(CUSTOM_SENTENCES)], lexicon
        ))
    return "".join(parts)


def test_tags_match_golden():
    assert golden_text() == GOLDEN_SRL_TAGS.read_text(encoding="utf-8")


def test_tags_on_custom_lexicons_match_their_digest():
    text = custom_lexicon_text()
    assert text.count("\n") == CUSTOM_LEXICONS * CUSTOM_SENTENCES
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == CUSTOM_DIGEST


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_srl_golden.py --write")
    GOLDEN_SRL_TAGS.write_text(golden_text(), encoding="utf-8")
    digest = hashlib.sha256(custom_lexicon_text().encode("utf-8")).hexdigest()
    print(f"CUSTOM_DIGEST = {digest!r}")
