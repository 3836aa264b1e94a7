"""Write every seeded output of the spellvec commands to OUTDIR.

    PYTHONPATH=src python scripts/seeded_outputs.py OUTDIR

The script generates its inputs (a suffix-language embedding table, CoNLL-U
splits and an OOV word list, from tests/synthetic.py) into OUTDIR/inputs,
then runs, with fixed seeds: train-mimick (archive and trace), infer, nn
--model, nn on an in-vocabulary word at --k 1 and at --k the table's row
count (where nearest_neighbors' float32 screen keeps every row),
train-tagger for each of the four variants (archives and traces), tag and
eval, one train-tagger run with --loss weighted (which scales each
attribute's loss by a constant) and its tag, and a char2tag tagger at
--char-hidden 128 whose tag run is wide enough to step the char BiLSTM's
two directions on two threads when the process may use two CPUs (see
Tape.bilstm), and its tag. Standard output is kept as
NAME.stdout; stderr is not kept.
Every path it passes is relative to OUTDIR, so outputs do not depend on
where OUTDIR is.

Two runs of the same code write the same bytes, so

    PYTHONPATH=src python scripts/seeded_outputs.py /tmp/new
    PYTHONPATH=/path/to/parent/src python scripts/seeded_outputs.py /tmp/old
    diff -r /tmp/old /tmp/new

checks that a change keeps every seeded output byte for byte. The spellvec
it runs is the one Python imports, so PYTHONPATH picks the checkout.
"""

from __future__ import annotations

import io
import os
import sys
from contextlib import redirect_stdout
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from synthetic import make_stems, suffix_sentences, suffix_table  # noqa: E402

from spellvec.cli import main  # noqa: E402
from spellvec.conllu import serialize_conllu  # noqa: E402
from spellvec.embeddings import EmbeddingTable, write_embeddings  # noqa: E402

VARIANTS = ("no-char", "mimick", "char2tag", "both")
MIMICK_FLAGS = ["--epochs", "3", "--char-dim", "4", "--hidden", "6", "--seed", "5"]
# at hidden 48 a tagger holds more than 2**16 floats, so its optimizer step
# runs in more than one block (nn.STEP_BLOCK)
TAGGER_FLAGS = [
    "--epochs", "2", "--hidden", "48", "--char-dim", "4", "--char-hidden", "5", "--seed", "5",
]


def write_inputs() -> EmbeddingTable:
    rng = np.random.default_rng(23)
    stems = make_stems(rng, 14)
    table = suffix_table(rng, stems, n_suffixes=4, dim=8)
    sink = io.StringIO()
    write_embeddings(table, sink)
    Path("inputs").mkdir()
    Path("inputs/emb.txt").write_text(sink.getvalue(), encoding="utf-8")
    # dev and test draw from new stems too, so they hold forms outside the table
    unseen = stems + make_stems(rng, 6)
    splits = {"train": (stems, 24), "dev": (unseen, 6), "test": (unseen, 8)}
    for name, (pool, count) in splits.items():
        text = serialize_conllu(suffix_sentences(rng, pool, count, n_suffixes=4))
        Path(f"inputs/{name}.conllu").write_text(text, encoding="utf-8")
    Path("inputs/words.txt").write_text("zebraok\nqan\nbdiv\n", encoding="utf-8")
    return table


def run(name: str, argv: list[str]) -> None:
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{name}: spellvec {' '.join(argv)} exited {code}")
    if out.getvalue():
        Path(f"{name}.stdout").write_text(out.getvalue(), encoding="utf-8")


def main_script(outdir: str) -> None:
    Path(outdir).mkdir(parents=True, exist_ok=False)
    os.chdir(outdir)
    table = write_inputs()
    emb = "inputs/emb.txt"
    run("train-mimick", ["train-mimick", emb, "mimick.svm", *MIMICK_FLAGS])
    run("infer", ["infer", "mimick.svm", emb, "inputs/words.txt", "infer.txt"])
    run("nn", ["nn", emb, "zebraok", "--k", "5", "--model", "mimick.svm"])
    word = table.words()[0]
    run("nn-k1", ["nn", emb, word, "--k", "1"])
    run("nn-all", ["nn", emb, word, "--k", str(len(table))])
    for variant in VARIANTS:
        run(f"train-tagger-{variant}", [
            "train-tagger", "--train", "inputs/train.conllu", "--dev", "inputs/dev.conllu",
            "--embeddings", emb, "--out", f"tagger-{variant}.svm", "--variant", variant,
            "--mimick", "mimick.svm", *TAGGER_FLAGS,
        ])
        run(f"tag-{variant}", ["tag", f"tagger-{variant}.svm", "inputs/test.conllu",
                               f"tagged-{variant}.conllu"])
        run(f"eval-{variant}", ["eval", "inputs/test.conllu", f"tagged-{variant}.conllu",
                                "--train", "inputs/train.conllu",
                                "--compare", "tagged-no-char.conllu"])
    # tagging encodes the test split's 33 distinct forms in one grad-free pass of the
    # char2tag BiLSTM; at char hidden 128 its mat-vecs read 1.71M recurrent weight
    # floats a step, above nn.TWO_THREAD_FLOATS, so on two CPUs its forward direction
    # steps on a second thread
    run("train-tagger-wide", [
        "train-tagger", "--train", "inputs/train.conllu", "--embeddings", emb,
        "--out", "tagger-wide.svm", "--variant", "char2tag", *TAGGER_FLAGS, "--char-hidden", "128",
    ])
    run("tag-wide", ["tag", "tagger-wide.svm", "inputs/test.conllu", "tagged-wide.conllu"])
    run("train-tagger-weighted", [
        "train-tagger", "--train", "inputs/train.conllu", "--dev", "inputs/dev.conllu",
        "--embeddings", emb, "--out", "tagger-weighted.svm", "--variant", "both",
        "--mimick", "mimick.svm", "--loss", "weighted", *TAGGER_FLAGS,
    ])
    run("tag-weighted", ["tag", "tagger-weighted.svm", "inputs/test.conllu",
                         "tagged-weighted.conllu"])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: seeded_outputs.py OUTDIR (a directory that does not exist yet)")
    main_script(sys.argv[1])
