"""Character BiLSTM plus MLP mapping a word's spelling to an embedding.

The model is trained at the type level to reproduce the vectors of a
pre-trained table by minimizing squared Euclidean distance, then used to
assign vectors to words the table does not cover. Cosine nearest neighbours
(embeddings.nearest_neighbors, also named here) inspect the inferred vectors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .archive import ArchiveError, load_archive, reading_meta, save_archive
from .embeddings import EmbeddingTable, nearest_neighbors  # noqa: F401 (re-exported)
from .fileio import InputError
from .nn import (
    DimensionError,
    LstmCellParams,
    MomentumSgd,
    Tape,
    Tensor,
    embedding_init,
    glorot_uniform,
    length_slices,
)

UNK_CHAR_INDEX = 0

# words per grad-free inference pass: bounds the pass's buffers, which hold
# both directions at once
INFER_SLICE = 64


class NonFiniteOutputError(ValueError):
    """A word's encoding or vector is not finite: the model's finite weights overflow."""


class CharVocabulary:
    """Dense character -> index mapping with a reserved UNK index at 0."""

    def __init__(self, chars: Iterable[str]):
        self.chars = sorted(set(chars))
        self._index = {c: i + 1 for i, c in enumerate(self.chars)}

    @classmethod
    def from_words(cls, words: Iterable[str]) -> "CharVocabulary":
        return cls(c for w in words for c in w)

    @property
    def size(self) -> int:
        return len(self.chars) + 1

    def encode(self, word: str) -> list[int]:
        return [self._index.get(c, UNK_CHAR_INDEX) for c in word]


@dataclass
class MimickTrainConfig:
    char_dim: int = 20
    hidden: int = 50
    epochs: int = 60
    dev_fraction: float = 0.01
    lr: float = 0.01
    momentum: float = 0.9
    seed: int = 0
    unk_char_rate: float = 0.05

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.dev_fraction < 0.5:
            raise ValueError(f"dev fraction must be in [0, 0.5), got {self.dev_fraction}")
        if not 0.0 <= self.unk_char_rate < 1.0:
            raise ValueError(f"unk char rate must be in [0, 1), got {self.unk_char_rate}")


class CharBiLstm:
    """Character embedding read by forward and backward LSTMs; a word is
    encoded as the concatenation of the two final states.

    encode is the one forward: Mimick's training runs it on a recording
    tape, one word a record; encode_many runs it on a grad-free tape over
    packed passes of many words, with the same bits. char2tag's training
    (tagger.CharToTag) makes one record of a sentence's words, whose
    gradients have the bits of one encode per word."""

    def __init__(
        self,
        chars: CharVocabulary,
        char_dim: int,
        hidden: int,
        rng: np.random.Generator | None = None,
    ):
        if char_dim < 1:
            raise DimensionError(f"char_dim must be positive, got {char_dim}")
        self.chars = chars
        self.char_dim = char_dim
        self.hidden = hidden
        if rng is None:
            self.char_emb = Tensor(np.zeros((chars.size, char_dim)))
        else:
            self.char_emb = Tensor(embedding_init(rng, chars.size, char_dim))
        self.fwd = LstmCellParams(char_dim, hidden, rng)
        self.bwd = LstmCellParams(char_dim, hidden, rng)
        self.source: str | None = None  # the archive it was loaded from, which its errors name
        # the (B, 1, 2 * hidden) encodings in the BiLSTM's (B, L, 2 * hidden) states: the
        # forward state after the last character, the backward one after the first
        self._final_states = (
            slice(None), np.repeat([[-1, 0]], hidden, axis=1), np.arange(2 * hidden)[None]
        )

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params = {f"{prefix}char_emb": self.char_emb}
        params.update(self.fwd.parameters(f"{prefix}fwd."))
        params.update(self.bwd.parameters(f"{prefix}bwd."))
        return params

    def encode(self, tape: Tape, groups: list[list[list[int]]]) -> Tensor:
        """The (B, 1, 2 * hidden) encodings, in group order, of words given as
        character indices in groups of one length, longest first (see
        length_slices)."""
        return self._encodings(tape, [tape.take(self.char_emb, np.array(g)) for g in groups])

    def _encodings(
        self, tape: Tape, chars: list[Tensor], order: list[list[int]] | None = None
    ) -> Tensor:
        """The (B, 1, 2 * hidden) encodings, in group order, of words given as
        groups of their character embeddings; order as in Tape.bilstm."""
        states = tape.bilstm(self.fwd, self.bwd, chars, order)
        return tape.concat([tape.take(s, self._final_states) for s in states], axis=0)

    @np.errstate(over="ignore", invalid="ignore")
    def _packed(self, forward, words: list[str], width: int) -> np.ndarray:
        """The (len(words), width) rows of forward(tape, groups) for words, on
        a grad-free tape in passes of at most INFER_SLICE words, longest
        first; unseen characters collapse to UNK. A word's row has its bits
        alone, whatever else is in the batch. Overflow warns nothing: the
        first word whose row is not finite raises NonFiniteOutputError."""
        if not all(words):
            raise ValueError("cannot embed an empty word")
        out, tape = np.empty((len(words), width)), Tape(grad=False)
        for groups in length_slices([len(word) for word in words], INFER_SLICE):
            out[[i for g in groups for i in g]] = forward(
                tape, [[self.chars.encode(words[i]) for i in g] for g in groups]
            ).data[:, 0]
        finite = np.isfinite(out).all(axis=1)
        if not finite.all():
            where = f"{self.source}: " if self.source else ""
            word = words[np.argmin(finite)]
            raise NonFiniteOutputError(f"{where}inferred vector for {word!r} is not finite")
        return out

    def encode_many(self, words: list[str]) -> np.ndarray:
        """The (len(words), 2 * hidden) encodings of words: encode, grad-free."""
        return self._packed(self.encode, words, 2 * self.hidden)


class MimickModel(CharBiLstm):
    """Forward/backward char LSTMs feeding a two-layer tanh MLP of width
    `hidden`, with output dimension matching the embedding table."""

    def __init__(
        self,
        chars: CharVocabulary,
        dim: int,
        char_dim: int = MimickTrainConfig.char_dim,
        hidden: int = MimickTrainConfig.hidden,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(chars, char_dim, hidden, rng)
        self.dim = dim
        if rng is None:
            self.t_h = Tensor(np.zeros((hidden, 2 * hidden)))
            self.o_t = Tensor(np.zeros((dim, hidden)))
        else:
            self.t_h = Tensor(glorot_uniform(rng, hidden, 2 * hidden))
            self.o_t = Tensor(glorot_uniform(rng, dim, hidden))
        self.b_h = Tensor(np.zeros(hidden))
        self.b_t = Tensor(np.zeros(dim))

    def parameters(self, prefix: str = "") -> dict[str, Tensor]:
        params = super().parameters(prefix)
        for name in ("t_h", "b_h", "o_t", "b_t"):
            params[prefix + name] = getattr(self, name)
        return params

    def forward_on_tape(self, tape: Tape, groups: list[list[list[int]]]) -> Tensor:
        """The (B, 1, dim) vectors of encode's words: the MLP runs once over
        the B encodings, as B mat-vecs per layer (see Tape.affine)."""
        z = self.encode(tape, groups)
        return tape.affine(self.o_t, tape.tanh(tape.affine(self.t_h, z, self.b_h)), self.b_t)

    def forward_many(self, words: list[str]) -> np.ndarray:
        """The (len(words), dim) inferred embeddings of words: forward_on_tape,
        grad-free."""
        return self._packed(self.forward_on_tape, words, self.dim)

    def forward(self, word: str) -> np.ndarray:
        """Infer the embedding of a word; unseen characters collapse to UNK."""
        return self.forward_many([word])[0]

    def check_dim(self, dim: int) -> None:
        """Raise DimensionError unless the model infers vectors for a table of dimension dim."""
        if self.dim != dim:
            where = f"{self.source}: " if self.source else ""
            raise DimensionError(f"{where}model dimension {self.dim} != table dimension {dim}")

    def meta(self) -> dict:
        """What an archive needs, besides the tensors, to rebuild the model."""
        return dict(
            chars=self.chars.chars, char_dim=self.char_dim, hidden=self.hidden, dim=self.dim
        )

    @classmethod
    def restore(
        cls, path: str, meta: dict, tensors: dict[str, np.ndarray], prefix: str = ""
    ) -> "MimickModel":
        """Rebuild a model from meta() and the archive tensors of parameters(prefix)."""
        with reading_meta(path):
            chars = CharVocabulary(meta["chars"])
            model = cls(chars, meta["dim"], meta["char_dim"], meta["hidden"])
        restore_parameters(path, model.parameters(prefix), tensors)
        model.source = path
        return model

    def save(self, path: str, extra_meta: dict | None = None) -> None:
        meta = {**self.meta(), **(extra_meta or {})}
        save_archive(path, "mimick", meta, archive_tensors(self.parameters()))

    @classmethod
    def load(cls, path: str) -> "MimickModel":
        manifest, tensors = load_archive(path, expect_kind="mimick")
        return cls.restore(path, manifest["meta"], tensors)


def archive_tensors(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Views of the parameters' data under their archive names, in archive
    order: an LSTM cell's stacked weight and bias (prefix + "w" and prefix +
    "b") as their gate row blocks prefix + w_i, b_i, w_f, b_f, w_o, b_o, w_c
    and b_c; every other parameter under its own name."""
    out = {}
    for name, param in params.items():
        kind = name.rpartition(".")[2]
        if kind == "w":
            prefix, b = name[:-1], params[name[:-1] + "b"].data
            gates = zip(LstmCellParams.GATES, np.split(param.data, 4), np.split(b, 4))
            for gate, w_rows, b_rows in gates:
                out[f"{prefix}w_{gate}"], out[f"{prefix}b_{gate}"] = w_rows, b_rows
        elif kind != "b":
            out[name] = param.data
    return out


def restore_parameters(path: str, params: dict[str, Tensor], tensors: dict[str, np.ndarray]) -> None:
    """Write an archive's tensors into the views archive_tensors(params)
    gives: each view needs its tensor, of its shape, and each tensor a view."""
    views = archive_tensors(params)
    for name, view in views.items():
        if name not in tensors:
            raise ArchiveError(f"{path}: missing tensor {name!r}")
        if tensors[name].shape != view.shape:
            raise ArchiveError(
                f"{path}: tensor {name!r} has shape {tensors[name].shape}, expected {view.shape}"
            )
        view[...] = tensors[name]
    for name in tensors:
        if name not in views:
            raise ArchiveError(f"{path}: unexpected tensor {name!r}")


def mimick_loss(model: MimickModel, word: str, target: np.ndarray) -> float:
    """Squared Euclidean distance between the inferred and target vectors."""
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (model.dim,):
        raise DimensionError(f"target shape {target.shape}, expected ({model.dim},)")
    return float(np.sum((model.forward(word) - target) ** 2))


@dataclass
class EpochLoss:
    epoch: int
    train_loss: float
    dev_loss: float


# a diverging run ends at the finite-loss check, not in numpy warnings
@np.errstate(over="ignore", invalid="ignore")
def train_mimick(
    table: EmbeddingTable, cfg: MimickTrainConfig
) -> tuple[MimickModel, list[EpochLoss]]:
    """Per-word momentum SGD on the squared-distance objective.

    The vocabulary is split (seeded) into train and a held-out dev fraction
    used only for loss monitoring; the UNK vector, if any, is not a training
    target. Returns the model and the per-epoch mean train/dev losses.
    """
    words = table.words()
    if len(words) < 2:
        raise InputError(f"need at least 2 vocabulary words, got {len(words)}")
    rng = np.random.default_rng(cfg.seed)
    chars = CharVocabulary.from_words(words)
    model = MimickModel(chars, table.dim, cfg.char_dim, cfg.hidden, rng)
    optimizer = MomentumSgd(model.parameters(), cfg.lr, cfg.momentum)

    perm = rng.permutation(len(words))
    dev_size = int(round(cfg.dev_fraction * len(words)))
    dev_words = [words[i] for i in perm[:dev_size]]
    train_words = [words[i] for i in perm[dev_size:]]

    trace: list[EpochLoss] = []
    for epoch in range(1, cfg.epochs + 1):
        total = 0.0
        for i in rng.permutation(len(train_words)):
            word = train_words[i]
            indices = chars.encode(word)
            if cfg.unk_char_rate > 0.0:
                drop = rng.random(len(indices)) < cfg.unk_char_rate
                indices = [
                    UNK_CHAR_INDEX if hit else idx for idx, hit in zip(indices, drop)
                ]
            tape = Tape()
            out = model.forward_on_tape(tape, [[indices]])
            loss = tape.sum_squares(tape.sub(out, table.vector(word)[None, None]))
            value = float(loss.data)
            if not math.isfinite(value):
                raise ValueError(f"epoch {epoch}: loss {value} on word {word!r}; training diverged")
            optimizer.zero_grad()
            tape.backward(loss)
            optimizer.step()
            total += value
        # the last step's record (its gate history, buffers and closures)
        # would otherwise stay alive through dev scoring
        del tape, out, loss
        dev_loss = (
            float(np.mean([
                float(np.sum((out - table.vector(w)) ** 2))
                for w, out in zip(dev_words, model.forward_many(dev_words))
            ]))
            if dev_words
            else float("nan")
        )
        trace.append(EpochLoss(epoch, total / len(train_words), dev_loss))
    optimizer.release()
    return model, trace


def infer_oov(model: MimickModel, table: EmbeddingTable, words: list[str]) -> EmbeddingTable:
    """Infer vectors for the requested words (in-vocabulary ones included)
    with forward_many."""
    model.check_dim(table.dim)
    words = list(dict.fromkeys(words))
    return EmbeddingTable.over(words, model.forward_many(words))
