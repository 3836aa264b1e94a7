"""Joint POS and morphosyntactic attribute tagger.

A two-layer sentence BiLSTM runs over per-token word representations; one
two-layer projection head per attribute (plus one for POS) turns each hidden
state into a distribution over that attribute's training inventory, with an
explicit NONE class at index 0 for non-POS attributes.

Word representations start from a pre-trained table and differ only in how
out-of-vocabulary forms are initialized (the four variants below, each a
lookup_many policy). A tagger is built from its training forms: their
vectors are the rows of one trainable matrix, the only rows an archive
holds; any other form reads the variant's lookup, one batch per call and
kept nowhere, so tagging never changes the model. The char2tag and both
variants append a task-trained character BiLSTM output, whose character
inventory is the training forms' characters.

Training runs on a recording tape, one sentence at a time: the char2tag
BiLSTM encodes a sentence's tokens as one record, with the gradient bits of
one record per word. Tagging runs the same forward on a grad-free tape,
batched per corpus: each distinct form's word vector and character encoding
once, then the sentences longest first, TAG_SLICE at a time, through packed
passes of the sentence BiLSTM and the heads, with the bits of training's
forward.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .archive import ArchiveError, load_archive, reading_meta, save_archive
from .conllu import (
    AttributeSchema,
    CorpusSplit,
    SchemaError,
    Sentence,
    Token,
    build_schema,
    token_count,
)
from .embeddings import MIMICK_DIRECT, UNK_LOWERCASE, EmbeddingTable, lookup_many
from .evaluate import TaggedCorpusPair, micro_f1, pos_accuracy
from .fileio import InputError
from .mimick import CharBiLstm, CharVocabulary, MimickModel, archive_tensors, restore_parameters
from .nn import (
    DimensionError,
    LstmCellParams,
    MomentumSgd,
    Tape,
    Tensor,
    dropout_mask,
    glorot_uniform,
    length_slices,
)

# variant -> (lookup_many policy for forms outside training, char2tag appended)
_VARIANTS = {
    "no-char": (UNK_LOWERCASE, False),
    "mimick": (MIMICK_DIRECT, False),
    "char2tag": (UNK_LOWERCASE, True),
    "both": (MIMICK_DIRECT, True),
}
VARIANTS = tuple(_VARIANTS)
MIMICK_VARIANTS = tuple(v for v, (policy, _) in _VARIANTS.items() if policy == MIMICK_DIRECT)
LOSS_MODES = ("sum", "weighted")

POS_HEAD = "POS"

# training sets at or below this many tokens get a doubled epoch budget
LOW_RESOURCE_TOKENS = 5000

# sentences per packed tagging pass: bounds the pass's per-step buffers
TAG_SLICE = 64


@dataclass
class WordRepSpec:
    """How token vectors are built: base table plus the OOV strategy."""

    variant: str
    table: EmbeddingTable
    mimick: MimickModel | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.variant in MIMICK_VARIANTS:
            if self.mimick is None:
                raise ValueError(f"variant {self.variant!r} requires a mimick model")
            self.mimick.check_dim(self.table.dim)
        elif self.table.unk is None:
            raise InputError(f"variant {self.variant!r} requires a table with an UNK vector")

    def vectors(self, words: list[str]) -> np.ndarray:
        """The words' (len(words), d) vectors under the variant's backoff policy."""
        return lookup_many(self.table, _VARIANTS[self.variant][0], words, self.mimick)[0]

    @property
    def uses_char_lstm(self) -> bool:
        return _VARIANTS[self.variant][1]


@dataclass
class TaggerTrainConfig:
    loss_mode: str = "sum"  # one of LOSS_MODES
    epochs: int = 40
    dropout: float = 0.5
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    hidden: int = 128  # per direction, both sentence BiLSTM layers
    char_dim: int = 20  # char2tag embedding dimension
    char_hidden: int = 128  # char2tag LSTM hidden size per direction
    pos_only: bool = False

    def __post_init__(self):
        if self.loss_mode not in LOSS_MODES:
            raise ValueError(f"loss mode must be 'sum' or 'weighted', got {self.loss_mode!r}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


class Head:
    """Per-attribute projection: O @ tanh(W @ h + b) + b_out, both layers
    as wide as the attribute's value inventory. Given (..., T, width)
    states, each layer is one GEMM per sentence and the logits are
    (..., T, values)."""

    def __init__(self, in_width: int, n_values: int, rng: np.random.Generator | None):
        self.w_h = Tensor(glorot_uniform(rng, n_values, in_width))
        self.o_w = Tensor(glorot_uniform(rng, n_values, n_values))
        self.b_h = Tensor(np.zeros(n_values))
        self.b_w = Tensor(np.zeros(n_values))

    def logits(self, tape: Tape, h: Tensor) -> Tensor:
        return tape.affine(self.o_w, tape.tanh(tape.affine(self.w_h, h, self.b_h)), self.b_w)

    def parameters(self, prefix: str) -> dict[str, Tensor]:
        return {
            f"{prefix}w_h": self.w_h,
            f"{prefix}b_h": self.b_h,
            f"{prefix}o_w": self.o_w,
            f"{prefix}b_w": self.b_w,
        }


class CharToTag(CharBiLstm):
    """Task-trained character BiLSTM appended to each word representation.
    Training encodes each sentence's words as one BiLSTM record."""

    def forward_on_tape(self, tape: Tape, words: list[str]) -> Tensor:
        """The (1, T, 2 * hidden) encodings of a sentence's T words, in order:
        one Tape.bilstm record over length_slices groups of every token,
        repeats included. Every gradient has the bits of one encode per word
        in sentence order, whose records replay the last word first: the
        record takes its turns in that order, and one take of every
        character, the last word's first, adds them into char_emb.grad in
        that order."""
        ids = [self.chars.encode(word) for word in words]
        lengths = [len(i) for i in ids]
        (groups,) = length_slices(lengths, len(ids))
        # word i's characters are the take's rows start[i] to start[i] + lengths[i]
        start = np.cumsum([0, *lengths[:0:-1]])[::-1]
        chars = tape.take(self.char_emb, np.array([c for i in ids[::-1] for c in i]))
        encodings = self._encodings(
            tape,
            [tape.take(chars, start[g, None] + np.arange(lengths[g[0]])) for g in groups],
            groups,
        )
        # each word's row of the encodings, which come in group order
        rows = np.argsort([i for g in groups for i in g])
        return tape.take(encodings, (rows[None], 0))


class TaggerModel:
    """The sentence BiLSTM and heads over word representations.

    The training forms give the trainable rows (distinct forms, first
    appearance first) and char2tag's character inventory. With rng, the
    network is drawn and each row starts from the variant's lookup; without,
    every parameter is zeros, to be restored. Tagging, sentence_forward and
    joint_loss read the model and write nothing into it: a form outside the
    training rows is looked up afresh on every call."""

    def __init__(
        self,
        schema: AttributeSchema,
        rep: WordRepSpec,
        hidden: int = TaggerTrainConfig.hidden,
        char_dim: int = TaggerTrainConfig.char_dim,
        char_hidden: int = TaggerTrainConfig.char_hidden,
        rng: np.random.Generator | None = None,
        forms: Iterable[str] = (),
    ):
        self.schema = schema
        self.rep = rep
        self.hidden = hidden
        # training form -> row of self.embeddings
        self.rows = {form: i for i, form in enumerate(dict.fromkeys(forms))}
        self.c2t: CharToTag | None = None
        if rep.uses_char_lstm:
            self.c2t = CharToTag(CharVocabulary.from_words(self.rows), char_dim, char_hidden, rng)
        self.width = rep.table.dim + (2 * char_hidden if self.c2t else 0)
        self.l1f = LstmCellParams(self.width, hidden, rng)
        self.l1b = LstmCellParams(self.width, hidden, rng)
        self.l2f = LstmCellParams(2 * hidden, hidden, rng)
        self.l2b = LstmCellParams(2 * hidden, hidden, rng)
        self.pos_head = Head(2 * hidden, len(schema.pos), rng)
        self.attr_heads = {
            attr: Head(2 * hidden, len(values) + 1, rng)
            for attr, values in schema.attrs.items()
        }
        if rng is None:
            self.embeddings = Tensor(np.zeros((len(self.rows), rep.table.dim)))
        else:
            self.embeddings = Tensor(rep.vectors(list(self.rows)))

    # ------------------------------------------------------------------
    # word representations

    def word_vectors(self, forms: list[str]) -> np.ndarray:
        """The forms' (len(forms), d) vectors: a training form's row, else its
        lookup. The distinct other forms are looked up in one batch, once."""
        unseen = [f for f in dict.fromkeys(forms) if f not in self.rows]
        looked_up = dict(zip(unseen, self.rep.vectors(unseen)))
        rows = self.embeddings.data
        vectors = [rows[self.rows[f]] if f in self.rows else looked_up[f] for f in forms]
        return np.array(vectors).reshape(len(forms), self.rep.table.dim)

    # ------------------------------------------------------------------
    # forward

    def states_on_tape(
        self,
        tape: Tape,
        sentence: Sentence,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        """The (1, T, 2 * hidden) sentence-BiLSTM states, one row per token. A
        sentence with any form outside training reads its word vectors as one
        constant: no training row has a gradient to take."""
        if not sentence.tokens:
            raise ValueError("cannot run the tagger on an empty sentence")
        forms = [token.form for token in sentence.tokens]
        if all(form in self.rows for form in forms):
            reps = tape.take(self.embeddings, np.array([[self.rows[form] for form in forms]]))
        else:
            reps = Tensor(self.word_vectors(forms)[None])
        if self.c2t is not None:
            reps = tape.concat([reps, self.c2t.forward_on_tape(tape, forms)])
        return self.sentence_layers(tape, [reps], dropout, rng)[0]

    def sentence_layers(
        self,
        tape: Tape,
        groups: list[Tensor],
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> list[Tensor]:
        """The two sentence-BiLSTM layers over groups of (B_L, L, width) word
        representations (see Tape.bilstm). With dropout, one mask of its
        input's shape per layer and group, the input layer's drawn first, each
        filled token by token: seeded runs and archives depend on this order."""

        def drop(xs: list[Tensor]) -> list[Tensor]:
            if dropout == 0.0:
                return xs
            return [tape.mul_const(x, dropout_mask(x.data.shape, dropout, rng)) for x in xs]

        layer1 = tape.bilstm(self.l1f, self.l1b, drop(groups))
        return tape.bilstm(self.l2f, self.l2b, drop(layer1))

    def packed_states(
        self, tape: Tape, sentences: list[Sentence]
    ) -> Iterator[tuple[list[int], Tensor]]:
        """The sentence-BiLSTM states of states_on_tape() without dropout, on a
        grad-free tape, in packed passes of at most TAG_SLICE sentences,
        longest first. Yields, per pass and sentence length L, the indices of
        the sentences of that length and their (B_L, L, 2 * hidden) states."""
        tokens = [sentence.tokens for sentence in sentences]
        if not all(tokens):
            raise ValueError("cannot run the tagger on an empty sentence")
        # each distinct form's representation once, gathered per length group
        distinct = list(dict.fromkeys(token.form for t in tokens for token in t))
        row = {form: i for i, form in enumerate(distinct)}
        ids = [[row[token.form] for token in t] for t in tokens]
        reps = self.word_vectors(distinct)
        if self.c2t is not None:
            reps = np.concatenate([reps, self.c2t.encode_many(distinct)], axis=1)
        for groups in length_slices([len(t) for t in tokens], TAG_SLICE):
            layer_input = [Tensor(reps[[ids[i] for i in g]]) for g in groups]
            yield from zip(groups, self.sentence_layers(tape, layer_input))

    # ------------------------------------------------------------------
    # loss

    def loss_on_tape(
        self,
        tape: Tape,
        sentence: Sentence,
        mode: str = TaggerTrainConfig.loss_mode,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ) -> Tensor:
        if mode not in LOSS_MODES:
            raise ValueError(f"loss mode must be 'sum' or 'weighted', got {mode!r}")
        states = self.states_on_tape(tape, sentence, dropout, rng)
        pos_targets = [self.schema.pos_index(t.upos) for t in sentence.tokens]
        parts = [self._head_nll(tape, self.pos_head, states, pos_targets)]
        for attr, head in self.attr_heads.items():
            targets = [self.schema.value_index(attr, t.attrs.get(attr)) for t in sentence.tokens]
            attr_sum = self._head_nll(tape, head, states, targets)
            if mode == "weighted":
                attr_sum = tape.mul_const(attr_sum, self.schema.proportions[attr])
            parts.append(attr_sum)
        return parts[0] if len(parts) == 1 else tape.add_n(parts)

    def _head_nll(self, tape: Tape, head: Head, states: Tensor, targets: list[int]) -> Tensor:
        log_probs = tape.log_softmax(head.logits(tape, states))
        picked = tape.take(log_probs, (0, np.arange(len(targets)), targets))
        return tape.mul_const(tape.sum(picked), -1.0)

    # ------------------------------------------------------------------
    # prediction

    def predict(self, sentences: list[Sentence]) -> list[list[tuple[str, dict[str, str]]]]:
        """Per sentence, per token (POS, attributes), grad-free; NONE selections
        are emitted as attribute absence. Argmax ties resolve to the lowest
        inventory index."""
        out: list = [None] * len(sentences)
        tape = Tape(grad=False)
        for group, states in self.packed_states(tape, sentences):
            # per sentence and token, as nested lists: cheaper to read than numpy scalars
            pos, *indices = [
                np.argmax(head.logits(tape, states).data, axis=-1).tolist()
                for head in [self.pos_head, *self.attr_heads.values()]
            ]
            choices = list(zip(self.attr_heads, indices))
            for b, i in enumerate(group):
                out[i] = [
                    (self.schema.pos[p], {
                        attr: self.schema.attrs[attr][index[b][t] - 1]
                        for attr, index in choices if index[b][t]
                    })
                    for t, p in enumerate(pos[b])
                ]
        return out

    # ------------------------------------------------------------------
    # parameters and persistence

    def network_parameters(self) -> dict[str, Tensor]:
        params: dict[str, Tensor] = {}
        if self.c2t is not None:
            params.update(self.c2t.parameters("c2t."))
        params.update(self.l1f.parameters("l1f."))
        params.update(self.l1b.parameters("l1b."))
        params.update(self.l2f.parameters("l2f."))
        params.update(self.l2b.parameters("l2b."))
        params.update(self.pos_head.parameters(f"head.{POS_HEAD}."))
        for attr, head in self.attr_heads.items():
            params.update(head.parameters(f"head.attr.{attr}."))
        return params

    def parameters(self) -> dict[str, Tensor]:
        return {"rows": self.embeddings, **self.network_parameters()}

    def save(self, path: str, extra_meta: dict | None = None) -> None:
        rep = self.rep
        meta = {
            "variant": rep.variant,
            "dim": rep.table.dim,
            "hidden": self.hidden,
            "char_dim": self.c2t.char_dim if self.c2t else None,
            "char_hidden": self.c2t.hidden if self.c2t else None,
            "c2t_chars": self.c2t.chars.chars if self.c2t else None,
            "schema": {
                "pos": self.schema.pos,
                "attrs": self.schema.attrs,
                "proportions": self.schema.proportions,
            },
            "rows": list(self.rows),
            "base_words": rep.table.words(),
            "mimick": rep.mimick.meta() if rep.mimick else None,
        }
        if extra_meta:
            meta.update(extra_meta)
        tensors = {"rows": self.embeddings.data, "base": rep.table.matrix()}
        if rep.table.unk is not None:
            tensors["base_unk"] = rep.table.unk
        if rep.mimick is not None:
            tensors.update(archive_tensors(rep.mimick.parameters("mimick.")))
        tensors.update(archive_tensors(self.network_parameters()))
        save_archive(path, "tagger", meta, tensors)

    @classmethod
    def load(cls, path: str) -> "TaggerModel":
        manifest, tensors = load_archive(path, expect_kind="tagger")
        meta = manifest["meta"]
        if "base" not in tensors:
            raise ArchiveError(f"{path}: missing tensor 'base'")
        # every tensor but these is a parameter's, which restore_parameters reads
        base, unk = tensors.pop("base"), tensors.pop("base_unk", None)
        with reading_meta(path):
            table = EmbeddingTable.over(meta["base_words"], base, unk=unk)
            if table.dim != meta["dim"]:
                raise ValueError(f"tensor 'base' is {table.dim} wide, meta 'dim' is {meta['dim']}")
            mimick = None
            if meta["mimick"] is not None:
                sub = {k: tensors.pop(k) for k in list(tensors) if k.startswith("mimick.")}
                mimick = MimickModel.restore(path, meta["mimick"], sub, "mimick.")
            schema = AttributeSchema(
                pos=list(meta["schema"]["pos"]),
                attrs={a: list(v) for a, v in meta["schema"]["attrs"].items()},
                proportions=dict(meta["schema"]["proportions"]),
            )
            model = cls(
                schema,
                WordRepSpec(meta["variant"], table, mimick),
                hidden=meta["hidden"],
                char_dim=meta["char_dim"],
                char_hidden=meta["char_hidden"],
                forms=meta["rows"],
            )
            if meta["c2t_chars"] != (model.c2t.chars.chars if model.c2t else None):
                raise ValueError("meta 'c2t_chars' are not the characters of meta 'rows'")
        restore_parameters(path, model.parameters(), tensors)
        if model.c2t is not None:
            model.c2t.source = path
        return model


# ----------------------------------------------------------------------
# public operations


def attribute_distribution(model: TaggerModel, h: np.ndarray, attr: str) -> np.ndarray:
    """Probability distribution over an attribute's inventory (NONE first for
    non-POS attributes) given a sentence-BiLSTM state."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (2 * model.hidden,):
        raise DimensionError(f"state shape {h.shape}, expected ({2 * model.hidden},)")
    if attr == POS_HEAD:
        head = model.pos_head
    elif attr in model.attr_heads:
        head = model.attr_heads[attr]
    else:
        raise SchemaError(f"unknown attribute {attr!r}")
    # shifted so the largest logit is 0: exp cannot overflow, and the sum is >= 1
    logits = head.logits(Tape(grad=False), Tensor(h)).data
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def sentence_forward(
    model: TaggerModel,
    sentence: Sentence,
    mode: str = "eval",
    dropout: float = TaggerTrainConfig.dropout,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Per-token hidden states; dropout applies in train mode only."""
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    if mode == "eval":
        dropout = 0.0
    elif dropout > 0.0 and rng is None:
        raise ValueError("train mode with dropout needs a random generator")
    return list(model.states_on_tape(Tape(grad=False), sentence, dropout, rng).data[0])


def joint_loss(
    model: TaggerModel, sentence: Sentence, mode: str = TaggerTrainConfig.loss_mode
) -> float:
    """Evaluation-mode joint negative log likelihood of the gold tags."""
    return float(model.loss_on_tape(Tape(grad=False), sentence, mode).data)


def tag(model: TaggerModel, sentence: Sentence) -> list[tuple[str, dict[str, str]]]:
    return model.predict([sentence])[0]


def tag_corpus(model: TaggerModel, sentences: list[Sentence]) -> list[Sentence]:
    """Predicted copies of the input sentences (forms kept, tags replaced)."""
    return [
        Sentence(
            [Token(token.form, pos, attrs) for token, (pos, attrs) in zip(sentence.tokens, tagged)],
            sentence.sent_id,
        )
        for sentence, tagged in zip(sentences, model.predict(sentences))
    ]


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    dev_pos_accuracy: float
    dev_micro_f1: float


def effective_epochs(epochs: int, train_tokens: int) -> int:
    return epochs * 2 if train_tokens <= LOW_RESOURCE_TOKENS else epochs


# a diverging run ends at the finite-loss check, not in numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def train_tagger(
    split: CorpusSplit, rep: WordRepSpec, cfg: TaggerTrainConfig
) -> tuple[TaggerModel, list[EpochMetrics]]:
    """Seeded per-sentence momentum SGD over the joint loss.

    The schema comes from the training split alone. The epoch budget doubles
    for low-resource training sets. Dev POS accuracy and micro F1 are
    recorded after every epoch (NaN when no dev split is given).
    """
    train = split.train
    n_tokens = token_count(train)
    if n_tokens == 0:
        raise InputError("empty training split")
    schema = build_schema(train, include_attributes=not cfg.pos_only)
    rng = np.random.default_rng(cfg.seed)
    forms = (t.form for s in train for t in s.tokens)
    model = TaggerModel(schema, rep, cfg.hidden, cfg.char_dim, cfg.char_hidden, rng, forms)
    optimizer = MomentumSgd(model.parameters(), cfg.lr, cfg.momentum)

    trace: list[EpochMetrics] = []
    for epoch in range(1, effective_epochs(cfg.epochs, n_tokens) + 1):
        total = 0.0
        for i in rng.permutation(len(train)):
            tape = Tape()
            loss = model.loss_on_tape(tape, train[i], cfg.loss_mode, cfg.dropout, rng)
            value = float(loss.data)
            if not math.isfinite(value):
                raise ValueError(
                    f"epoch {epoch}: loss {value} on training sentence {i} "
                    f"(sent_id {train[i].sent_id!r}); training diverged"
                )
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
            total += value
        # the last step's record (its gate history, buffers and closures)
        # would otherwise stay alive through dev scoring
        del tape, loss
        if split.dev:
            pair = TaggedCorpusPair(split.dev, tag_corpus(model, split.dev))
            dev_acc = pos_accuracy(pair)
            dev_f1 = micro_f1(pair).f1
        else:
            dev_acc = dev_f1 = float("nan")
        trace.append(EpochMetrics(epoch, total / len(train), dev_acc, dev_f1))
    optimizer.release()
    return model, trace
