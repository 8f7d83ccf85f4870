"""Tests for tuple adapters (state-structure compatibility machinery)."""

import random

import pytest

from repro.relational.schema import Schema, SchemaError
from repro.relational.tuples import TupleAdapter, concat_tuples, validate_tuple


class TestConcat:
    def test_concat_tuples(self):
        assert concat_tuples((1, 2), (3,)) == (1, 2, 3)

    def test_concat_empty(self):
        assert concat_tuples((), (1,)) == (1,)


class TestTupleAdapter:
    def test_identity_when_layouts_match(self):
        schema = Schema.from_names(["a", "b"])
        adapter = TupleAdapter(schema, schema)
        assert adapter.is_identity
        assert adapter.adapt((1, 2)) == (1, 2)

    def test_permutation(self):
        source = Schema.from_names(["a", "b", "c"])
        target = Schema.from_names(["c", "a", "b"])
        adapter = TupleAdapter(source, target)
        assert not adapter.is_identity
        assert adapter.adapt((1, 2, 3)) == (3, 1, 2)

    def test_projection_drops_attributes(self):
        source = Schema.from_names(["a", "b", "c"])
        target = Schema.from_names(["b"])
        adapter = TupleAdapter(source, target)
        assert adapter.adapt((1, 2, 3)) == (2,)

    def test_missing_attributes_filled(self):
        source = Schema.from_names(["a"])
        target = Schema.from_names(["a", "added"])
        adapter = TupleAdapter(source, target, fill_value=0)
        assert adapter.has_missing
        assert adapter.adapt((7,)) == (7, 0)

    def test_adapt_many(self):
        source = Schema.from_names(["a", "b"])
        target = Schema.from_names(["b", "a"])
        adapter = TupleAdapter(source, target)
        assert adapter.adapt_many([(1, 2), (3, 4)]) == [(2, 1), (4, 3)]

    def test_adapt_many_identity_returns_copy(self):
        schema = Schema.from_names(["a"])
        adapter = TupleAdapter(schema, schema)
        rows = [(1,), (2,)]
        result = adapter.adapt_many(rows)
        assert result == rows
        assert result is not rows


class TestValidateTuple:
    def test_valid(self):
        validate_tuple(Schema.from_names(["a", "b"]), (1, 2))

    def test_arity_mismatch(self):
        with pytest.raises(SchemaError):
            validate_tuple(Schema.from_names(["a", "b"]), (1,))


class TestTupleAdapterFastPath:
    def test_itemgetter_path_matches_generic_loop(self):
        """Satellite: the fast path must equal the per-tuple slow path."""
        rng = random.Random(5)
        for arity in (1, 2, 3, 6):
            names = [f"a{i}" for i in range(arity)]
            source = Schema.from_names(names)
            for _ in range(10):
                order = names[:]
                rng.shuffle(order)
                keep = order[: rng.randint(1, arity)]
                target = Schema.from_names(keep)
                adapter = TupleAdapter(source, target)
                assert adapter._getter is not None  # fast path engaged
                for _ in range(5):
                    row = tuple(rng.randrange(100) for _ in range(arity))
                    # The generic (slow) gather, inlined as the oracle:
                    expected = tuple(
                        row[i] if i >= 0 else adapter.fill_value
                        for i in adapter._mapping
                    )
                    assert adapter.adapt(row) == expected
                    assert adapter(row) == expected  # __call__ alias
                assert adapter.adapt_many([row]) == [expected]

    def test_zero_and_single_attribute_targets(self):
        source = Schema.from_names(["a", "b"])
        single = TupleAdapter(source, Schema.from_names(["b"]))
        assert single.adapt((1, 2)) == (2,)
        empty = TupleAdapter(source, Schema(()))
        assert empty.adapt((1, 2)) == ()

    def test_missing_attributes_take_slow_path(self):
        source = Schema.from_names(["a"])
        target = Schema.from_names(["a", "pad"])
        adapter = TupleAdapter(source, target, fill_value="x")
        assert adapter._getter is None
        assert adapter.adapt((1,)) == (1, "x")
        assert adapter.adapt_many([(1,), (2,)]) == [(1, "x"), (2, "x")]
