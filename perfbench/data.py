"""Seeded synthetic inputs for the pipeline benchmark.

The language is built so that every expected output can be computed apart
from the program:

- A word is a stem plus a suffix. The suffix fixes the word's class, and the
  class fixes its POS tag and attributes, so tags are a function of spelling.
- A word's vector is a fixed function of its spelling: the class vector, plus
  vectors for the first three stem letters, plus a small hash-seeded term.
  The benchmark can therefore compute the true vector of any OOV word.
- Sentences follow a fixed POS chain (context carries information), and
  forms within a class are drawn with Zipfian frequencies.
- Word lengths (3-15 characters) and sentence lengths follow fixed profiles,
  so consecutive chunks of the same size cost the same to process. That keeps
  the benchmark's timed slices comparable within and across seeds.

Only the lexicon, the vectors and the draws depend on the seed; the class
inventory, the POS chain and the length profiles are constants.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

ALPHABET = "abdeghiklmnoprstuvyz"

# suffix -> (POS, attributes); ten attributes over twenty classes
CLASSES = [
    ("an", "NOUN", {"Case": "Nom", "Number": "Sing", "Gender": "Masc"}),
    ("ani", "NOUN", {"Case": "Nom", "Number": "Plur", "Gender": "Masc"}),
    ("el", "NOUN", {"Case": "Acc", "Number": "Sing", "Gender": "Fem"}),
    ("eli", "NOUN", {"Case": "Acc", "Number": "Plur", "Gender": "Fem"}),
    ("om", "NOUN", {"Case": "Gen", "Number": "Sing", "Gender": "Neut"}),
    ("ut", "PROPN", {"Number": "Sing"}),
    ("iv", "VERB", {"Tense": "Past", "Person": "3", "Mood": "Ind", "VerbForm": "Fin"}),
    ("us", "VERB", {"Tense": "Pres", "Person": "1", "Mood": "Ind", "VerbForm": "Fin"}),
    ("ar", "VERB", {"VerbForm": "Inf"}),
    ("eno", "VERB", {"VerbForm": "Part", "Tense": "Past"}),
    ("ok", "ADJ", {"Degree": "Pos", "Case": "Nom", "Number": "Sing"}),
    ("oki", "ADJ", {"Degree": "Cmp", "Case": "Nom", "Number": "Plur"}),
    ("ym", "ADJ", {"Degree": "Sup", "Case": "Acc"}),
    ("ez", "ADV", {"Degree": "Pos"}),
    ("ta", "DET", {"Definite": "Def", "PronType": "Art"}),
    ("tu", "DET", {"Definite": "Ind", "PronType": "Art"}),
    ("ja", "PRON", {"PronType": "Prs", "Person": "1", "Number": "Sing"}),
    ("jo", "PRON", {"PronType": "Dem", "Case": "Acc"}),
    ("ip", "ADP", {}),
    ("ha", "AUX", {"Tense": "Pres", "Mood": "Ind", "VerbForm": "Fin"}),
]
SUFFIXES = [c[0] for c in CLASSES]
CLOSED_POS = {"DET", "PRON", "ADP", "AUX"}
CLOSED_CLASS_FORMS = 12

# POS chain; "END" closes a clause. Sentences are cut to an exact length, and
# a clause that ends early is followed by a new one.
CHAIN = {
    "START": {"DET": 0.35, "PRON": 0.2, "PROPN": 0.15, "ADJ": 0.1, "NOUN": 0.15, "ADV": 0.05},
    "DET": {"ADJ": 0.3, "NOUN": 0.7},
    "ADJ": {"NOUN": 0.8, "ADJ": 0.2},
    "NOUN": {"VERB": 0.35, "AUX": 0.15, "ADP": 0.25, "ADJ": 0.05, "END": 0.2},
    "PROPN": {"VERB": 0.5, "AUX": 0.2, "ADP": 0.1, "END": 0.2},
    "PRON": {"VERB": 0.6, "AUX": 0.4},
    "VERB": {"DET": 0.3, "NOUN": 0.15, "ADP": 0.2, "ADV": 0.15, "PRON": 0.05, "END": 0.15},
    "AUX": {"VERB": 0.7, "ADJ": 0.2, "ADV": 0.1},
    "ADV": {"VERB": 0.4, "ADJ": 0.3, "END": 0.3},
    "ADP": {"DET": 0.5, "NOUN": 0.3, "PROPN": 0.1, "PRON": 0.1},
}
POS_CLASSES = {}
for _k, (_suffix, _pos, _attrs) in enumerate(CLASSES):
    POS_CLASSES.setdefault(_pos, []).append(_k)

# 31 word lengths, natural shape, mean 8.3 characters
NATURAL_LENGTHS = [3, 4, 4, 5, 5, 5, 6, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8,
                   9, 9, 9, 10, 10, 10, 11, 11, 12, 12, 13, 14, 15]
# long-word profile for low-resource dev/test splits, mean 11.5 characters
LONG_LENGTHS = [8, 9, 10, 10, 11, 11, 12, 12, 13, 14, 15, 13]
# sentence lengths come in pairs of 32 tokens (UD-like spread 5-27)
SENTENCE_PAIRS = [(5, 27), (9, 23), (12, 20), (14, 18), (16, 16), (8, 24), (11, 21), (15, 17)]
# short sentences, as in small treebanks built from grammar examples: pairs of 16
SHORT_PAIRS = [(3, 13), (5, 11), (7, 9), (8, 8), (4, 12), (6, 10), (5, 11), (7, 9)]


@dataclass
class Lexicon:
    dim: int
    class_vectors: np.ndarray
    letter_vectors: np.ndarray  # (3, len(ALPHABET), dim)
    key: int

    def true_vector(self, word: str, cls: int) -> np.ndarray:
        """The generator's vector for a word of the given class."""
        stem = word[: len(word) - len(SUFFIXES[cls])]
        vec = self.class_vectors[cls].copy()
        for i, ch in enumerate(stem[:3]):
            vec += self.letter_vectors[i, ALPHABET.index(ch)]
        noise_rng = np.random.default_rng([self.key, zlib.crc32(word.encode("utf-8"))])
        return vec + 0.1 * noise_rng.standard_normal(self.dim)


def make_lexicon(rng: np.random.Generator, dim: int) -> Lexicon:
    return Lexicon(
        dim,
        rng.standard_normal((len(CLASSES), dim)),
        0.35 * rng.standard_normal((3, len(ALPHABET), dim)),
        int(rng.integers(0, 2**31)),
    )


def make_words(rng, cls: int, lengths: list[int], taken: set[str]) -> list[str]:
    """Distinct words of one class, one per entry of `lengths`."""
    suffix = SUFFIXES[cls]
    out = []
    for length in lengths:
        stem_len = max(1, length - len(suffix))
        for attempt in range(10**6):
            # short stems run out; after 50 collisions the stem grows a letter
            size = stem_len + attempt // 50
            word = "".join(ALPHABET[i] for i in rng.integers(0, len(ALPHABET), size)) + suffix
            if word not in taken:
                taken.add(word)
                out.append(word)
                break
    return out


def zipf_weights(n: int, exponent: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1) ** exponent
    return w / w.sum()


@dataclass
class Corpus:
    """Per-class ranked form lists and the sentence sampler over them."""

    forms: list[list[str]]  # class -> forms, most frequent first
    weights: list[np.ndarray]

    def sentence(self, rng, length: int) -> list[tuple[str, int]]:
        tokens: list[tuple[str, int]] = []
        state = "START"
        while len(tokens) < length:
            options = CHAIN[state]
            nxt = list(options)[rng.choice(len(options), p=list(options.values()))]
            if nxt == "END":
                state = "START"
                continue
            cls = POS_CLASSES[nxt][int(rng.integers(0, len(POS_CLASSES[nxt])))]
            rank = int(rng.choice(len(self.forms[cls]), p=self.weights[cls]))
            tokens.append((self.forms[cls][rank], cls))
            state = nxt
        return tokens

    def sentences(self, rng, pairs: int, lengths=SENTENCE_PAIRS) -> list[list[tuple[str, int]]]:
        """`pairs` sentence pairs of 32 tokens each, cycling the pair profile."""
        out = []
        for i in range(pairs):
            a, b = lengths[i % len(lengths)]
            if rng.random() < 0.5:
                a, b = b, a
            out.append(self.sentence(rng, a))
            out.append(self.sentence(rng, b))
        return out
