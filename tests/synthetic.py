"""Synthetic corpora and embedding tables shared across tests, with the
oracles and checks that several test files apply to models.

The suffix language pairs each suffix with a fixed (POS, Case) combination,
so tags are fully determined by word shape; table embeddings encode the
suffix class plus per-word noise, which makes spelling-to-vector inference
learnable and informative for tagging unseen stems.
"""

import gc
import tracemalloc
import weakref

import numpy as np

from spellvec import nn
from spellvec.conllu import Sentence, Token
from spellvec.embeddings import EmbeddingTable

SUFFIX_TAGS = [
    ("an", "NOUN", "Nom"),
    ("iv", "VERB", "Acc"),
    ("ok", "ADJ", "Nom"),
    ("el", "NOUN", "Acc"),
    ("us", "VERB", "Nom"),
    ("ym", "ADJ", "Acc"),
]

STEM_ALPHABET = "bdfgklmnprst"


def make_stems(rng, count):
    stems = []
    seen = set()
    while len(stems) < count:
        stem = "".join(rng.choice(list(STEM_ALPHABET), size=rng.integers(3, 6)))
        if stem not in seen:
            seen.add(stem)
            stems.append(stem)
    return stems


def suffix_table(rng, stems, n_suffixes=6, dim=12, noise=0.08):
    """One embedding per stem+suffix form: a suffix class direction plus noise."""
    class_vectors = np.zeros((n_suffixes, dim))
    for i in range(n_suffixes):
        class_vectors[i, i % dim] = 1.0
        class_vectors[i, (i + n_suffixes) % dim] = 0.5
    entries = []
    for stem in stems:
        for i, (suffix, _, _) in enumerate(SUFFIX_TAGS[:n_suffixes]):
            vec = class_vectors[i] + rng.normal(size=dim) * noise
            entries.append((stem + suffix, vec))
    return EmbeddingTable(dim, entries, unk=np.zeros(dim))


def suffix_sentences(rng, stems, n_sentences, n_suffixes=6, min_len=3, max_len=7):
    sentences = []
    for i in range(n_sentences):
        tokens = []
        for _ in range(rng.integers(min_len, max_len)):
            stem = stems[rng.integers(0, len(stems))]
            suffix, pos, case = SUFFIX_TAGS[int(rng.integers(0, n_suffixes))]
            tokens.append(Token(stem + suffix, pos, {"Case": case}))
        sentences.append(Sentence(tokens, sent_id=f"syn{i}"))
    return sentences


def bigram_table(rng, n_words, dim=16, alphabet="abcdefgh", scale=0.35, lengths=(4, 9)):
    """Embeddings that are a fixed random linear function of character bigram
    counts (word boundaries included as a virtual character)."""
    pairs = [(a, b) for a in "^" + alphabet for b in alphabet + "$"]
    pair_index = {p: i for i, p in enumerate(pairs)}
    mix = rng.normal(size=(dim, len(pairs))) * scale

    def embed(word):
        counts = np.zeros(len(pairs))
        padded = "^" + word + "$"
        for a, b in zip(padded, padded[1:]):
            counts[pair_index[(a, b)]] += 1.0
        return mix @ counts

    words = []
    seen = set()
    while len(words) < n_words:
        word = "".join(rng.choice(list(alphabet), size=rng.integers(*lengths)))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return EmbeddingTable(dim, [(w, embed(w)) for w in words]), embed, words


SYLLABLE_CONSONANTS = "bdfgk"
SYLLABLE_VOWELS = "aeo"
SYLLABLE_ALPHABET = sorted(set(SYLLABLE_CONSONANTS + SYLLABLE_VOWELS))


def syllable_bigram_table(rng, n_words, dim=16, scale=0.25, syllables=(4, 6)):
    """Bigram-linear embeddings over a vocabulary of consonant-vowel
    syllable words (regular spellings keep the mapping easy to learn)."""
    alphabet = "".join(SYLLABLE_ALPHABET)
    pairs = [(a, b) for a in "^" + alphabet for b in alphabet + "$"]
    pair_index = {p: i for i, p in enumerate(pairs)}
    mix = rng.normal(size=(dim, len(pairs))) * scale

    def embed(word):
        counts = np.zeros(len(pairs))
        padded = "^" + word + "$"
        for a, b in zip(padded, padded[1:]):
            counts[pair_index[(a, b)]] += 1.0
        return mix @ counts

    inventory = [c + v for c in SYLLABLE_CONSONANTS for v in SYLLABLE_VOWELS]
    words, seen = [], set()
    while len(words) < n_words:
        k = int(rng.integers(*syllables))
        word = "".join(inventory[rng.integers(0, len(inventory))] for _ in range(k))
        if word not in seen:
            seen.add(word)
            words.append(word)
    return EmbeddingTable(dim, [(w, embed(w)) for w in words]), words


def single_char_typos(rng, table, words, count):
    """(typo, original) pairs: one random substitution, absent from the table."""
    picked = [words[i] for i in rng.permutation(len(words))]
    typos = []
    for word in picked:
        if len(typos) == count:
            break
        for _ in range(50):
            pos = int(rng.integers(0, len(word)))
            sub = SYLLABLE_ALPHABET[int(rng.integers(0, len(SYLLABLE_ALPHABET)))]
            candidate = word[:pos] + sub + word[pos + 1 :]
            if candidate != word and candidate not in table:
                typos.append((candidate, word))
                break
    return typos


def naive_lstm(cell, x, h, c):
    """One LSTM step (the next h and c) by the straight-line gate equations:
    the numpy oracle the tape, the packed passes and the models are checked
    against."""
    z = np.concatenate([x, h])
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    # each gate's row block of the stacked weight and bias, i, f, o, c
    w_i, w_f, w_o, w_c = np.split(cell.w.data, 4)
    b_i, b_f, b_o, b_c = np.split(cell.b.data, 4)
    i = sig(w_i @ z + b_i)
    f = sig(w_f @ z + b_f)
    o = sig(w_o @ z + b_o)
    g = np.tanh(w_c @ z + b_c)
    c = f * c + i * g
    return o * np.tanh(c), c


def assert_gradients_released(params):
    """What training or loading leaves: every gradient is zero, and each
    parameter tensor keeps a writable gradient whose memory is its own, not a
    view of a larger buffer such as an optimizer's flat gradient store, and
    shared with no other tensor's data or gradient."""
    for name, p in params.items():
        assert not np.any(p.grad), name
    tensors = {id(p): p for p in params.values()}
    arrays = [a for t in tensors.values() for a in (t.data, t.grad)]
    for t in tensors.values():
        memory = t.grad
        while isinstance(memory, np.ndarray) and memory.base is not None:
            memory = memory.base
        assert t.grad.shape == t.data.shape and memory.nbytes == t.grad.nbytes, t
        assert t.grad.flags.writeable, t
        # the one array it shares memory with is itself
        assert sum(np.shares_memory(t.grad, a) for a in arrays) == 1, t


def traced_bytes(build):
    """What build() returns, and the bytes of heap memory (numpy's and
    Python's) it leaves allocated as tracemalloc counts them: an anonymous
    memory map is not traced."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        out = build()
        gc.collect()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        if started:
            tracemalloc.stop()


def two_thread_passes(patch, floats):
    """Set Tape.bilstm's two-thread gate, nn.TWO_THREAD_FLOATS, to floats
    through the MonkeyPatch patch; returns a list that gets one entry per
    pass that steps its directions on two threads."""
    passes, two_threads = [], nn._sweep_on_two_threads

    def counted(*args):
        passes.append(1)
        two_threads(*args)

    patch.setattr(nn, "TWO_THREAD_FLOATS", floats)
    patch.setattr(nn, "_sweep_on_two_threads", counted)
    return passes


def watched_tapes(patch, module):
    """Replace module.Tape, through the MonkeyPatch patch, by a Tape that
    keeps a weak reference to each recording tape made; returns the list of
    those references, which are dead once a tape is released."""
    tapes = []

    class WatchedTape(nn.Tape):
        def __init__(self, grad: bool = True):
            super().__init__(grad)
            if grad:
                tapes.append(weakref.ref(self))

    patch.setattr(module, "Tape", WatchedTape)
    return tapes
