"""Workload definitions and the input files each one writes.

Every size here is fixed per workload; only the seed changes the inputs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from data import (
    CLASSES,
    CLOSED_CLASS_FORMS,
    CLOSED_POS,
    LONG_LENGTHS,
    NATURAL_LENGTHS,
    SENTENCE_PAIRS,
    SHORT_PAIRS,
    Corpus,
    make_lexicon,
    make_words,
    zipf_weights,
)

DIM = 64
ROUNDS_PER_BLOCK = 8  # a timed block tags the whole test split, one chunk a round
NN_K = 10
DEV_PAIRS = 2
EXTRA_FORMS = 40  # open-class corpus forms per class outside the table
UNK = "<UNK>"
# table rows that exercise the neighbour ranking rules: an exact duplicate of
# the first row (a tie that table order must break) and a zero-norm row
TIE_WORD = "zzta"
ZERO_WORD = "zzzz"


@dataclass(frozen=True)
class Workload:
    name: str
    table_rows: int  # class words in the table, a multiple of 31
    mimick_rows: int  # leading table rows the spelling model trains on
    mimick_epochs: int
    mimick_slice_words: int  # leading Mimick rows trained per timed block, a multiple of 31
    oov_words: int  # distinct OOV words in the infer list
    infer_slice_words: int  # leading OOV words inferred per timed block, a multiple of 31
    nn_chunk: int  # queries per timed slice; eight chunks are checked
    variant: str
    hidden: int
    char_hidden: int
    tagger_epochs: int
    train_pairs: int  # sentence pairs (32 tokens each) in the training split
    token_limit: int | None  # subsample cap on training tokens
    short_sentences: bool  # pairs of 16 tokens instead of 32
    heldout_long: bool  # dev/test open-class forms are long and unseen
    tag_chunk: int  # sentence pairs per timed tagging slice; test = 8 chunks
    zipf: float
    attributes: tuple[str, ...] | None = None  # FEATS kept; None keeps all ten


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="mimick",
            table_rows=2480, mimick_rows=1240, mimick_epochs=1, mimick_slice_words=248,
            oov_words=1240, infer_slice_words=248, nn_chunk=16,
            variant="mimick", hidden=32, char_hidden=32, tagger_epochs=2,
            train_pairs=16, token_limit=None, short_sentences=False,
            heldout_long=False, tag_chunk=2, zipf=1.0,
            attributes=("Case", "Number"),
        ),
        Workload(
            name="tagger-nochar",
            table_rows=20026, mimick_rows=496, mimick_epochs=1, mimick_slice_words=62,
            oov_words=248, infer_slice_words=62, nn_chunk=2,
            variant="no-char", hidden=128, char_hidden=128, tagger_epochs=5,
            train_pairs=16, token_limit=None, short_sentences=False,
            heldout_long=False, tag_chunk=1, zipf=0.8,
        ),
        Workload(
            name="tagger-both",
            table_rows=3100, mimick_rows=620, mimick_epochs=1, mimick_slice_words=124,
            oov_words=248, infer_slice_words=124, nn_chunk=16,
            variant="both", hidden=32, char_hidden=128, tagger_epochs=3,
            train_pairs=40, token_limit=224, short_sentences=True,
            heldout_long=True, tag_chunk=2, zipf=1.0,
            attributes=("Case", "Number"),
        ),
    )
}


def smoke(w: Workload) -> Workload:
    """The same workload at a size that runs in seconds."""
    return replace(
        w,
        table_rows=min(w.table_rows, 620),
        mimick_rows=248,
        mimick_epochs=2,
        mimick_slice_words=62,
        oov_words=62,
        infer_slice_words=62,
        nn_chunk=2,
        hidden=16,
        char_hidden=16,
        tagger_epochs=4,
        train_pairs=8,
        token_limit=None if w.token_limit is None else 96,
        tag_chunk=1,
    )


@dataclass
class Inputs:
    dir: str
    table_path: str
    oov_path: str
    train_path: str
    dev_path: str
    test_path: str
    lexicon: object
    word_class: dict[str, int]
    table_words: list[str]
    oov_words: list[str]
    mimick_words: list[str]


def _blocks(rng, count: int, profile: list[int]) -> list[int]:
    """Word lengths in blocks of len(profile), each block a shuffled profile,
    so every block of consecutive words has the same length multiset."""
    out = []
    while len(out) < count:
        out.extend(profile[i] for i in rng.permutation(len(profile)))
    return out[:count]


def _format_rows(words, matrix) -> str:
    return "".join(
        w + " " + " ".join("%.6f" % v for v in row) + "\n" for w, row in zip(words, matrix)
    )


def _conllu(sentences, prefix: str, keep) -> str:
    out = []
    for i, sentence in enumerate(sentences):
        out.append(f"# sent_id = {prefix}{i}\n")
        for j, (form, cls) in enumerate(sentence, start=1):
            _, pos, attrs = CLASSES[cls]
            feats = "|".join(
                f"{k}={v}" for k, v in sorted(attrs.items()) if keep is None or k in keep
            ) or "_"
            out.append(f"{j}\t{form}\t_\t{pos}\t_\t{feats}\t_\t_\t_\t_\n")
        out.append("\n")
    return "".join(out)


def build_inputs(w: Workload, seed: int, directory: str) -> Inputs:
    rng = np.random.default_rng([seed, sum(map(ord, w.name))])
    lexicon = make_lexicon(rng, DIM)
    taken: set[str] = {TIE_WORD, ZERO_WORD}
    word_class: dict[str, int] = {}

    # table order: rank-interleaved over classes, closed classes exhausted early
    closed = [k for k, c in enumerate(CLASSES) if c[1] in CLOSED_POS]
    open_ = [k for k in range(len(CLASSES)) if k not in closed]
    order: list[int] = []
    rank = 0
    while len(order) < w.table_rows:
        for k in (closed if rank < CLOSED_CLASS_FORMS else []) + open_:
            order.append(k)
        rank += 1
    order = order[: w.table_rows]
    table_words = []
    for cls, length in zip(order, _blocks(rng, len(order), NATURAL_LENGTHS)):
        (word,) = make_words(rng, cls, [length], taken)
        word_class[word] = cls
        table_words.append(word)

    forms = [[t for t in table_words if word_class[t] == k] for k in range(len(CLASSES))]
    # rare corpus-only forms: absent from the table
    for k in open_:
        extra = make_words(rng, k, _blocks(rng, EXTRA_FORMS, NATURAL_LENGTHS), taken)
        word_class.update((e, k) for e in extra)
        forms[k] = forms[k] + extra
    corpus = Corpus(forms, [zipf_weights(len(f), w.zipf) for f in forms])

    oov_classes = [open_[i % len(open_)] for i in rng.permutation(w.oov_words)]
    oov_words = []
    for cls, length in zip(oov_classes, _blocks(rng, w.oov_words, NATURAL_LENGTHS)):
        (word,) = make_words(rng, cls, [length], taken)
        word_class[word] = cls
        oov_words.append(word)

    pairs = SHORT_PAIRS if w.short_sentences else SENTENCE_PAIRS
    train = corpus.sentences(rng, w.train_pairs, pairs)
    if w.heldout_long:
        # unseen long open-class forms: half from the table's tail, half new
        held_forms = []
        for k in range(len(CLASSES)):
            if k in closed:
                held_forms.append(forms[k])
                continue
            long_forms = [t for t in forms[k] if len(t) >= 8]
            tail = long_forms[len(long_forms) // 4 :][:20]
            new = make_words(rng, k, _blocks(rng, 20, LONG_LENGTHS), taken)
            word_class.update((e, k) for e in new)
            held_forms.append(tail + new)
        held = Corpus(held_forms, [zipf_weights(len(f), 0.5) for f in held_forms])
    else:
        held = corpus
    dev = held.sentences(rng, DEV_PAIRS, pairs)
    test = held.sentences(rng, ROUNDS_PER_BLOCK * w.tag_chunk, pairs)

    matrix = np.stack([lexicon.true_vector(t, word_class[t]) for t in table_words])
    tie_row = matrix[0]
    unk = matrix.mean(axis=0)
    rows = [UNK] + table_words + [TIE_WORD, ZERO_WORD]
    full = np.vstack([unk, matrix, tie_row, np.zeros(DIM)])

    os.makedirs(directory, exist_ok=True)
    paths = {
        name: os.path.join(directory, name)
        for name in ("table.txt", "oov.txt", "train.conllu", "dev.conllu", "test.conllu")
    }
    with open(paths["table.txt"], "w", encoding="utf-8") as handle:
        handle.write(f"{len(rows)} {DIM}\n")
        handle.write(_format_rows(rows, full))
    with open(paths["oov.txt"], "w", encoding="utf-8") as handle:
        handle.write("".join(word + "\n" for word in oov_words))
    for name, sentences in (("train", train), ("dev", dev), ("test", test)):
        with open(paths[f"{name}.conllu"], "w", encoding="utf-8") as handle:
            handle.write(_conllu(sentences, name, w.attributes))
    return Inputs(
        directory,
        paths["table.txt"],
        paths["oov.txt"],
        paths["train.conllu"],
        paths["dev.conllu"],
        paths["test.conllu"],
        lexicon,
        word_class,
        table_words,
        oov_words,
        table_words[: w.mimick_rows],
    )

