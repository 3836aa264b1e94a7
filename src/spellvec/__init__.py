"""Spelling-based embedding inference for out-of-vocabulary words, with a
joint POS and morphosyntactic attribute sequence tagger."""

from .conllu import (
    AttributeSchema,
    CorpusSplit,
    Sentence,
    Token,
    build_schema,
    parse_conllu,
    serialize_conllu,
    subsample,
)
from .embeddings import (
    MIMICK_DIRECT,
    TABLE_ONLY,
    UNK_LOWERCASE,
    EmbeddingTable,
    lookup,
    lookup_many,
    read_embeddings,
    write_embeddings,
)
from .evaluate import (
    McNemarResult,
    MicroF1Report,
    TaggedCorpusPair,
    mcnemar,
    micro_f1,
    pos_accuracy,
    spearman,
)
from .mimick import (
    CharVocabulary,
    MimickModel,
    MimickTrainConfig,
    infer_oov,
    mimick_loss,
    nearest_neighbors,
    train_mimick,
)
from .tagger import (
    TaggerModel,
    TaggerTrainConfig,
    WordRepSpec,
    attribute_distribution,
    joint_loss,
    sentence_forward,
    tag,
    tag_corpus,
    train_tagger,
)

__version__ = "0.1.0"
