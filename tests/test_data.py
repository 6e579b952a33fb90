"""Synthetic keyword task, JSONL round trips, and batch iteration."""

import json

import numpy as np
import pytest

from spikeprune import (Dataset, InvalidInputError, RandomStream,
                        gen_keyword_task, label_for, load_jsonl, save_jsonl)
from spikeprune.data import iter_batches, write_replacing


class TestLabelFor:
    def test_majority_rules(self):
        # vocab 12: content 1..11, positives 1..5, negatives 6..11
        assert label_for([1, 2, 3], 12) == 1
        assert label_for([6, 7, 8], 12) == 0
        assert label_for([1, 2, 6], 12) == 1
        assert label_for([1, 6, 7], 12) == 0

    def test_ties_and_padding_go_negative(self):
        assert label_for([1, 6], 12) == 0
        assert label_for([0, 0, 0], 12) == 0
        assert label_for([], 12) == 0
        # padding zeros are not content and cannot sway the count
        assert label_for([1, 0, 0, 0], 12) == 1

    def test_split_point(self):
        # vocab 8: k = 3, positives 1..3, negatives 4..7
        assert label_for([3], 8) == 1
        assert label_for([4], 8) == 0

    def test_small_vocab_rejected(self):
        with pytest.raises(InvalidInputError):
            label_for([1], 3)


class TestGenKeywordTask:
    def test_balanced_and_self_consistent(self):
        data = gen_keyword_task(12, 16, 101, RandomStream(0))
        assert len(data) == 101
        ones = int(data.labels.sum())
        assert abs(ones - (101 - ones)) <= 1
        for row, label in zip(data.tokens, data.labels):
            assert row[0] == 0
            assert label_for(row, 12) == label

    def test_alternating_labels(self):
        data = gen_keyword_task(8, 6, 6, RandomStream(1))
        assert data.labels.tolist() == [0, 1, 0, 1, 0, 1]

    def test_deterministic(self):
        a = gen_keyword_task(12, 8, 20, RandomStream(5))
        b = gen_keyword_task(12, 8, 20, RandomStream(5))
        assert np.array_equal(a.tokens, b.tokens)
        c = gen_keyword_task(12, 8, 20, RandomStream(6))
        assert not np.array_equal(a.tokens, c.tokens)

    def test_token_range(self):
        data = gen_keyword_task(9, 10, 40, RandomStream(2))
        body = data.tokens[:, 1:]
        assert body.min() >= 1 and body.max() <= 8

    def test_zero_examples(self):
        data = gen_keyword_task(8, 4, 0, RandomStream(0))
        assert len(data) == 0 and data.tokens.shape == (0, 4)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            gen_keyword_task(3, 8, 4, RandomStream(0))
        with pytest.raises(InvalidInputError):
            gen_keyword_task(8, 1, 4, RandomStream(0))
        with pytest.raises(InvalidInputError):
            gen_keyword_task(8, 4, -1, RandomStream(0))


class TestDataset:
    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64))
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((4, 2), dtype=np.int64), np.zeros(3, dtype=np.int64))
        with pytest.raises(InvalidInputError):
            Dataset(np.full((2, 2), -1), np.zeros(2, dtype=np.int64))
        with pytest.raises(InvalidInputError):
            Dataset(np.zeros((2, 2), dtype=np.int64), np.array([-1, 0]))


class TestJsonl:
    def test_round_trip(self, tmp_path):
        data = gen_keyword_task(10, 7, 30, RandomStream(3))
        path = str(tmp_path / "d.jsonl")
        save_jsonl(path, data)
        back = load_jsonl(path, 7, 10, 2)
        assert np.array_equal(back.tokens, data.tokens)
        assert np.array_equal(back.labels, data.labels)

    def test_short_rows_padded(self, tmp_path):
        path = str(tmp_path / "d.jsonl")
        path_obj = tmp_path / "d.jsonl"
        path_obj.write_text('{"tokens": [0, 3], "label": 1}\n'
                            '\n'
                            '{"tokens": [], "label": 0}\n')
        data = load_jsonl(path, 4, 8, 2)
        assert data.tokens.tolist() == [[0, 3, 0, 0], [0, 0, 0, 0]]
        assert data.labels.tolist() == [1, 0]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "e.jsonl"
        path.write_text("")
        data = load_jsonl(str(path), 5, 8, 2)
        assert len(data) == 0 and data.tokens.shape == (0, 5)

    @pytest.mark.parametrize("line,fragment", [
        ('not json', "line 2: invalid JSON"),
        ('[1, 2]', "line 2: expected an object"),
        ('{"tokens": [1], "nope": 0}', "line 2: expected an object"),
        ('{"tokens": "ab", "label": 0}', "line 2: tokens must be a list"),
        ('{"tokens": [1.5], "label": 0}', "line 2: tokens must be a list"),
        ('{"tokens": [true], "label": 0}', "line 2: tokens must be a list"),
        ('{"tokens": [1, 2, 3, 4, 5], "label": 0}', "line 2: 5 tokens exceeds"),
        ('{"tokens": [9], "label": 0}', "line 2: token id out of range"),
        ('{"tokens": [-1], "label": 0}', "line 2: token id out of range"),
        ('{"tokens": [1], "label": "x"}', "line 2: label must be an int"),
        ('{"tokens": [1], "label": true}', "line 2: label must be an int"),
        ('{"tokens": [1], "label": 2}', "line 2: label out of range"),
    ])
    def test_bad_lines_name_the_line(self, tmp_path, line, fragment):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"tokens": [1], "label": 0}\n' + line + "\n")
        with pytest.raises(InvalidInputError) as err:
            load_jsonl(str(path), 4, 8, 2)
        assert fragment in str(err.value)

    def test_save_is_plain_jsonl(self, tmp_path):
        data = Dataset(np.array([[0, 2, 1]]), np.array([1]))
        path = str(tmp_path / "out.jsonl")
        save_jsonl(path, data)
        lines = open(path).read().splitlines()
        assert json.loads(lines[0]) == {"tokens": [0, 2, 1], "label": 1}

    def test_failed_replace_leaves_no_temp_file(self, tmp_path):
        """os.replace onto a directory fails; the temp file goes with it."""
        (tmp_path / "taken").mkdir()
        with pytest.raises(OSError):
            save_jsonl(str(tmp_path / "taken"), Dataset(np.array([[0, 2, 1]]), np.array([1])))
        assert [p.name for p in tmp_path.iterdir()] == ["taken"]

    def test_failed_write_leaves_no_file(self, tmp_path):
        """A lone surrogate cannot be encoded as UTF-8: neither the path
        nor its temp file is left behind."""
        with pytest.raises(UnicodeEncodeError):
            write_replacing(str(tmp_path / "out.txt"), "ok\ud800")
        assert list(tmp_path.iterdir()) == []


class TestIterBatches:
    def test_covers_every_example_exactly_once(self):
        data = gen_keyword_task(8, 4, 23, RandomStream(7))
        seen = []
        for tokens, labels in iter_batches(data, 5, RandomStream(9)):
            assert len(tokens) == len(labels) <= 5
            seen.extend(t.tolist() for t in tokens)
        assert len(seen) == 23
        orig = sorted(t.tolist() for t in data.tokens)
        assert sorted(seen) == orig

    def test_no_stream_keeps_order(self):
        data = gen_keyword_task(8, 4, 7, RandomStream(0))
        batches = list(iter_batches(data, 3))
        flat = np.concatenate([b[0] for b in batches])
        assert np.array_equal(flat, data.tokens)
        assert [len(b[1]) for b in batches] == [3, 3, 1]

    def test_shuffle_is_seeded(self):
        data = gen_keyword_task(8, 4, 12, RandomStream(1))
        a = [b[1].tolist() for b in iter_batches(data, 4, RandomStream(3))]
        b = [b[1].tolist() for b in iter_batches(data, 4, RandomStream(3))]
        assert a == b

    def test_bad_batch_size(self):
        data = gen_keyword_task(8, 4, 4, RandomStream(0))
        with pytest.raises(InvalidInputError):
            list(iter_batches(data, 0))
