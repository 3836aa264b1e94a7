"""CoNLL-U corpus handling: parsing, serialization, attribute schemas and
seeded low-resource subsampling.

Only FORM, UPOS and FEATS are retained. Multiword-token range lines (ID like
"4-5") are skipped in favour of their syntactic-word lines; empty-node lines
(ID like "5.1") are skipped. Attribute maps treat an absent key as the
implicit NONE value.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import IO, Iterable

import numpy as np

from .fileio import LineError, text_lines

_SENT_ID = re.compile(r"#\s*sent_id\s*=\s*(.+)")

N_COLUMNS = 10


class ConlluParseError(LineError):
    """A CoNLL-U line that does not parse."""


class SchemaError(ValueError):
    """An attribute or value outside the training-set inventory."""


@dataclass
class Token:
    form: str
    upos: str
    attrs: dict[str, str] = field(default_factory=dict)


@dataclass
class Sentence:
    tokens: list[Token]
    sent_id: str | None = None

    def __len__(self) -> int:
        return len(self.tokens)


def parse_conllu(source: IO[str] | str) -> list[Sentence]:
    lines = text_lines(source)
    sentences: list[Sentence] = []
    tokens: list[Token] = []
    sent_id: str | None = None

    def flush():
        nonlocal tokens, sent_id
        if tokens:
            sentences.append(Sentence(tokens, sent_id))
        tokens = []
        sent_id = None

    for line_no, line in enumerate(lines, start=1):
        if not line or line.isspace():
            flush()
            continue
        if line.startswith("#"):
            match = _SENT_ID.fullmatch(line.strip())
            if match:
                sent_id = match.group(1).strip()
            continue
        columns = line.split("\t")
        if len(columns) != N_COLUMNS:
            raise ConlluParseError(line_no, f"expected {N_COLUMNS} columns, got {len(columns)}")
        # IDs are runs of Unicode decimal digits (Nd, what the regex \d matches)
        token_id = columns[0]
        if not token_id.isdecimal():
            first, sep, second = token_id.partition("-" if "-" in token_id else ".")
            if not (sep and first.isdecimal() and second.isdecimal()):
                raise ConlluParseError(line_no, f"malformed token id {token_id!r}")
            continue  # multiword range or empty node: keep only syntactic words
        form = columns[1]
        if not form:
            raise ConlluParseError(line_no, "empty FORM")
        feats = {} if columns[5] == "_" else _parse_feats(line_no, columns[5])
        tokens.append(Token(form, columns[3], feats))
    flush()
    return sentences


def _parse_feats(line_no: int, feats: str) -> dict[str, str]:
    attrs: dict[str, str] = {}
    for pair in feats.split("|"):
        name, sep, value = pair.partition("=")
        if not sep or not name or not value:
            raise ConlluParseError(line_no, f"malformed FEATS pair {pair!r}")
        if name in attrs:
            raise ConlluParseError(line_no, f"attribute {name!r} appears twice")
        attrs[name] = value
    return attrs


def serialize_conllu(sentences: Iterable[Sentence]) -> str:
    """Emit parseable CoNLL-U; discarded columns come back as '_'."""
    out: list[str] = []
    for sentence in sentences:
        if sentence.sent_id is not None:
            out.append(f"# sent_id = {sentence.sent_id}\n")
        for i, token in enumerate(sentence.tokens, start=1):
            feats = (
                "|".join(f"{k}={v}" for k, v in sorted(token.attrs.items()))
                if token.attrs
                else "_"
            )
            out.append(
                f"{i}\t{token.form}\t_\t{token.upos}\t_\t{feats}\t_\t_\t_\t_\n"
            )
        out.append("\n")
    return "".join(out)


def token_count(sentences: Iterable[Sentence]) -> int:
    return sum(len(s) for s in sentences)


@dataclass
class CorpusSplit:
    train: list[Sentence]
    dev: list[Sentence]
    test: list[Sentence]


NONE_LABEL = "<NONE>"


@dataclass
class AttributeSchema:
    """Tag inventories computed from a training set.

    pos: sorted POS inventory. attrs: attribute name -> sorted observed
    values (NONE excluded). proportions: attribute -> fraction of training
    tokens carrying a non-NONE value.
    """

    pos: list[str]
    attrs: dict[str, list[str]]
    proportions: dict[str, float]

    def __post_init__(self):
        # label -> index of its first occurrence, as list.index gives
        self._pos_lookup = {tag: i for i, tag in reversed(list(enumerate(self.pos)))}
        self._value_lookup = {
            attr: {v: i for i, v in reversed(list(enumerate(self.value_labels(attr))))}
            for attr in self.attrs
        }

    def pos_index(self, tag: str) -> int:
        index = self._pos_lookup.get(tag)
        if index is None:
            raise SchemaError(f"POS tag {tag!r} not in training inventory")
        return index

    def value_labels(self, attr: str) -> list[str]:
        """Head output labels for an attribute; NONE sits at index 0."""
        if attr not in self.attrs:
            raise SchemaError(f"unknown attribute {attr!r}")
        return [NONE_LABEL] + self.attrs[attr]

    def value_index(self, attr: str, value: str | None) -> int:
        if value is None:
            return 0
        lookup = self._value_lookup.get(attr)
        if lookup is None:
            raise SchemaError(f"unknown attribute {attr!r}")
        index = lookup.get(value)
        if index is None:
            raise SchemaError(f"value {value!r} not in inventory of {attr!r}")
        return index


def build_schema(train: list[Sentence], include_attributes: bool = True) -> AttributeSchema:
    tokens = [t for s in train for t in s.tokens]
    if not tokens:
        raise ValueError("cannot build a schema from an empty training set")
    pos = sorted({t.upos for t in tokens})
    values: dict[str, set[str]] = {}
    counts: dict[str, int] = {}
    if include_attributes:
        for token in tokens:
            for name, value in token.attrs.items():
                values.setdefault(name, set()).add(value)
                counts[name] = counts.get(name, 0) + 1
    total = len(tokens)
    return AttributeSchema(
        pos=pos,
        attrs={name: sorted(vals) for name, vals in sorted(values.items())},
        proportions={name: counts[name] / total for name in sorted(counts)},
    )


def subsample(train: list[Sentence], token_limit: int, seed: int) -> list[Sentence]:
    """Draw sentences uniformly without replacement until the running token
    total reaches token_limit; the final draw may overshoot. Returns the whole
    corpus in original order when it is already within the limit."""
    if token_limit < 1:
        raise ValueError(f"token limit must be positive, got {token_limit}")
    if token_count(train) <= token_limit:
        return list(train)
    rng = np.random.default_rng(seed)
    # Fisher-Yates prefix: permute lazily only as far as the draw needs
    pool = list(train)
    picked: list[Sentence] = []
    total = 0
    index = 0
    while total < token_limit:
        swap = index + int(rng.integers(0, len(pool) - index))
        pool[index], pool[swap] = pool[swap], pool[index]
        picked.append(pool[index])
        total += len(pool[index])
        index += 1
    return picked
