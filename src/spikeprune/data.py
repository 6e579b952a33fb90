"""Datasets: a synthetic keyword-counting task plus JSONL load/save.

Sequences are fixed-length int64 token rows padded with token 0, which is
also the reserved readout slot at position 0 (the classifier reads that
position's final rates, so real content never sits there). The synthetic
task splits the content vocabulary into two disjoint keyword sets and
labels a sequence by which set occurs more often, giving a linearly
checkable ground truth with tunable difficulty via vocabulary size and
sequence length.
"""

from __future__ import annotations

import dataclasses
import json
import os

import numpy as np

from .errors import InvalidInputError
from .numerics import RandomStream

__all__ = ["Dataset", "gen_keyword_task", "label_for", "load_jsonl",
           "save_jsonl", "iter_batches"]

_MAX_DRAWS = 10_000


@dataclasses.dataclass
class Dataset:
    tokens: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.tokens.ndim != 2:
            raise InvalidInputError("tokens must be 2-D (examples, seq_len)")
        if self.labels.ndim != 1 or len(self.labels) != len(self.tokens):
            raise InvalidInputError("labels must be 1-D, one per example")
        if self.tokens.size and self.tokens.min() < 0:
            raise InvalidInputError("token ids must be non-negative")
        if self.labels.size and self.labels.min() < 0:
            raise InvalidInputError("labels must be non-negative")

    def __len__(self) -> int:
        return len(self.labels)


def _keyword_split(vocab_size: int):
    # content ids 1..V-1; low half positive keywords, high half negative
    k = (vocab_size - 1) // 2
    return k


def label_for(tokens, vocab_size: int) -> int:
    """1 when positive keywords outnumber negative ones, else 0 (ties: 0)."""
    if vocab_size < 4:
        raise InvalidInputError("vocab_size must be at least 4")
    arr = np.asarray(tokens)
    k = _keyword_split(vocab_size)
    pos = int(((arr >= 1) & (arr <= k)).sum())
    neg = int((arr > k).sum())
    return 1 if pos > neg else 0


def gen_keyword_task(vocab_size: int, seq_len: int, n_examples: int,
                     stream: RandomStream) -> Dataset:
    """Balanced keyword-majority dataset (class counts differ by at most 1).

    Position 0 holds token 0; remaining positions draw uniformly from the
    content vocabulary, resampling whole sequences until they match the
    alternating target label.
    """
    if vocab_size < 4:
        raise InvalidInputError("vocab_size must be at least 4")
    if seq_len < 2:
        raise InvalidInputError("seq_len must be at least 2")
    if n_examples < 0:
        raise InvalidInputError("n_examples must be non-negative")
    tokens = np.zeros((n_examples, seq_len), dtype=np.int64)
    labels = np.zeros(n_examples, dtype=np.int64)
    for i in range(n_examples):
        target = i % 2
        for _ in range(_MAX_DRAWS):
            body = stream.integers(vocab_size - 1, (seq_len - 1,)) + 1
            if label_for(body, vocab_size) == target:
                break
        else:
            raise InvalidInputError(
                f"could not draw a class-{target} example; vocabulary too skewed")
        tokens[i, 1:] = body
        labels[i] = target
    return Dataset(tokens, labels)


def save_jsonl(path: str, dataset: Dataset) -> None:
    """One {"tokens": [...], "label": n} object per line."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        for row, label in zip(dataset.tokens, dataset.labels):
            fh.write(json.dumps({"tokens": [int(t) for t in row],
                                 "label": int(label)}) + "\n")
    os.replace(tmp, path)


def load_jsonl(path: str, seq_len: int, vocab_size: int,
               num_classes: int) -> Dataset:
    """Read a JSONL dataset, padding short rows with token 0.

    Malformed lines, out-of-range ids or labels, and rows longer than
    seq_len are rejected with the offending line number. An empty file is
    an empty dataset.
    """
    tokens, labels = [], []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
                raise InvalidInputError(f"line {lineno}: invalid JSON: {exc}") from exc
            if not isinstance(obj, dict) or "tokens" not in obj or "label" not in obj:
                raise InvalidInputError(
                    f"line {lineno}: expected an object with tokens and label")
            toks = obj["tokens"]
            if (not isinstance(toks, list)
                    or any(not isinstance(t, int) or isinstance(t, bool) for t in toks)):
                raise InvalidInputError(f"line {lineno}: tokens must be a list of ints")
            if len(toks) > seq_len:
                raise InvalidInputError(
                    f"line {lineno}: {len(toks)} tokens exceeds seq_len {seq_len}")
            if any(t < 0 or t >= vocab_size for t in toks):
                raise InvalidInputError(
                    f"line {lineno}: token id out of range [0, {vocab_size})")
            label = obj["label"]
            if not isinstance(label, int) or isinstance(label, bool):
                raise InvalidInputError(f"line {lineno}: label must be an int")
            if label < 0 or label >= num_classes:
                raise InvalidInputError(
                    f"line {lineno}: label out of range [0, {num_classes})")
            row = toks + [0] * (seq_len - len(toks))
            tokens.append(row)
            labels.append(label)
    if not tokens:
        return Dataset(np.zeros((0, seq_len), dtype=np.int64),
                       np.zeros(0, dtype=np.int64))
    return Dataset(np.array(tokens, dtype=np.int64),
                   np.array(labels, dtype=np.int64))


def iter_batches(dataset: Dataset, batch_size: int, stream: RandomStream = None):
    """Yield (tokens, labels) covering every example exactly once.

    With a stream the order is a seeded shuffle; without, dataset order.
    The final batch may be short.
    """
    if batch_size < 1:
        raise InvalidInputError("batch_size must be positive")
    n = len(dataset.labels)
    order = stream.permutation(n) if stream is not None else np.arange(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        yield dataset.tokens[idx], dataset.labels[idx]
