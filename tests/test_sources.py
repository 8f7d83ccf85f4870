"""Tests for data sources, network models and source descriptions."""

import pytest

from repro.engine.pipelined import SourceCursor
from repro.relational.catalog import TableStatistics
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.sources.description import MappingError, SourceDescription
from repro.sources.network import (
    BurstyNetworkModel,
    ConstantRateNetworkModel,
    InstantNetworkModel,
    NetworkModel,
    PhasedRateNetworkModel,
)
from repro.sources.remote import RemoteSource
from repro.sources.source import LocalSource


class TestLocalSource:
    def test_streams_with_zero_arrival(self, people):
        source = LocalSource(people)
        stream = list(source.open_stream())
        assert [row for row, _t in stream] == people.rows
        assert all(t == 0.0 for _row, t in stream)
        assert len(source) == len(people)
        assert source.schema is people.schema


class TestNetworkModels:
    def test_instant(self):
        assert list(InstantNetworkModel().arrival_times(3)) == [0.0, 0.0, 0.0]

    def test_constant_rate(self):
        times = list(ConstantRateNetworkModel(10.0, latency=1.0).arrival_times(3))
        assert times == pytest.approx([1.0, 1.1, 1.2])

    def test_constant_rate_validation(self):
        with pytest.raises(ValueError):
            ConstantRateNetworkModel(0.0)

    def test_bursty_deterministic_and_monotone(self):
        model = BurstyNetworkModel(seed=5)
        a = list(model.arrival_times(500))
        b = list(BurstyNetworkModel(seed=5).arrival_times(500))
        assert a == b
        assert all(a[i] <= a[i + 1] for i in range(len(a) - 1))
        assert len(a) == 500

    def test_bursty_has_gaps(self):
        model = BurstyNetworkModel(
            burst_rate=10_000, mean_burst_tuples=50, mean_gap_seconds=0.5, seed=1
        )
        times = list(model.arrival_times(1000))
        largest_gap = max(b - a for a, b in zip(times, times[1:]))
        assert largest_gap > 0.1  # visible burst gaps

    def test_bursty_validation(self):
        with pytest.raises(ValueError):
            BurstyNetworkModel(burst_rate=0)
        with pytest.raises(ValueError):
            BurstyNetworkModel(mean_burst_tuples=0)
        with pytest.raises(ValueError):
            BurstyNetworkModel(mean_gap_seconds=-1)

    def test_bursty_expected_transfer_estimate(self):
        model = BurstyNetworkModel(seed=0)
        assert model.expected_transfer_seconds(1000) > 0


class TestExpectedTransferSeconds:
    """``expected_transfer_seconds`` is pinned for all four network models."""

    def test_instant_is_zero(self):
        model = InstantNetworkModel()
        assert model.expected_transfer_seconds(0) == 0.0
        assert model.expected_transfer_seconds(1000) == 0.0

    def test_constant_rate_closed_form_matches_walk(self):
        model = ConstantRateNetworkModel(10.0, latency=1.0)
        assert model.expected_transfer_seconds(0) == 0.0
        assert model.expected_transfer_seconds(1) == pytest.approx(1.0)
        # latency + (n - 1) / rate, and exactly the last arrival time.
        for count in (2, 7, 100):
            last = list(model.arrival_times(count))[-1]
            expected = 1.0 + (count - 1) / 10.0
            assert model.expected_transfer_seconds(count) == pytest.approx(expected)
            assert model.expected_transfer_seconds(count) == pytest.approx(last)

    def test_phased_uses_exact_base_walk(self):
        model = PhasedRateNetworkModel(
            phases=[(1.0, 5.0), (2.0, 0.0), (1.0, 20.0)],
            tail_rate=50.0,
            latency=0.5,
        )
        assert model.expected_transfer_seconds(0) == 0.0
        for count in (1, 4, 6, 40, 200):
            last = list(model.arrival_times(count))[-1]
            assert model.expected_transfer_seconds(count) == pytest.approx(last)

    def test_bursty_estimate_is_analytic_not_a_walk(self):
        # Bursty keeps its rough analytic sizing estimate: positive,
        # monotone in tuple count, and stable across calls (no RNG state).
        model = BurstyNetworkModel(seed=3)
        small = model.expected_transfer_seconds(100)
        large = model.expected_transfer_seconds(10_000)
        assert 0 < small < large
        assert model.expected_transfer_seconds(100) == small
        expected = (
            model.latency
            + 100 / model.burst_rate
            + max(100 / model.mean_burst_tuples, 1.0) * model.mean_gap_seconds
        )
        assert small == pytest.approx(expected)

    def test_base_walk_handles_zero_and_negative_counts(self):
        model = PhasedRateNetworkModel(phases=[(1.0, 1.0)], tail_rate=1.0)
        assert model.expected_transfer_seconds(0) == 0.0
        assert model.expected_transfer_seconds(-3) == 0.0


class TestRemoteSource:
    def test_stream_matches_relation_with_arrivals(self, people):
        source = RemoteSource(people, ConstantRateNetworkModel(1.0))
        stream = list(source.open_stream())
        assert [row for row, _t in stream] == people.rows
        assert stream[-1][1] == pytest.approx(len(people) - 1)

    def test_repeated_access_is_reproducible(self, people):
        source = RemoteSource(people, BurstyNetworkModel(seed=3))
        assert list(source.open_stream()) == list(source.open_stream())

    def test_with_network(self, people):
        source = RemoteSource(people, InstantNetworkModel())
        slowed = source.with_network(ConstantRateNetworkModel(1.0))
        assert slowed.name == source.name
        assert list(slowed.open_stream())[-1][1] > 0


class TestSourceDescription:
    def test_translate_schema_and_rows(self):
        source_schema = Schema.from_names(["id", "full_name", "junk"], relation="crm")
        description = SourceDescription(
            source_name="crm_customers",
            global_relation="customer",
            attribute_mapping={"id": "c_custkey", "full_name": "c_name"},
        )
        translated = description.translate_schema(source_schema)
        assert translated.names == ("c_custkey", "c_name")
        assert translated.attributes[0].relation == "customer"
        assert description.translate_row(source_schema, (7, "Ada", "x")) == (7, "Ada")

    def test_identity_mapping_keeps_everything(self):
        source_schema = Schema.from_names(["a", "b"], relation="src")
        description = SourceDescription("src", "global")
        assert description.translate_schema(source_schema).names == ("a", "b")
        assert description.covers(["anything"])

    def test_covers(self):
        description = SourceDescription(
            "src", "global", attribute_mapping={"x": "a", "y": "b"}
        )
        assert description.covers(["a"])
        assert not description.covers(["a", "z"])

    def test_empty_mapping_result_raises(self):
        source_schema = Schema.from_names(["a"], relation="src")
        description = SourceDescription("src", "global", attribute_mapping={"zzz": "q"})
        with pytest.raises(MappingError):
            description.translate_schema(source_schema)

    def test_promised_statistics_default(self):
        description = SourceDescription("src", "global")
        assert isinstance(description.promised_statistics, TableStatistics)
        assert description.promised_statistics.cardinality is None


class _CountingNetwork(NetworkModel):
    """Wraps a network model, counting arrival_times materializations."""

    def __init__(self, inner: NetworkModel) -> None:
        self.inner = inner
        self.calls = 0

    def arrival_times(self, tuple_count: int):
        self.calls += 1
        return self.inner.arrival_times(tuple_count)


class TestArrivalSchedulePriming:
    def _relation(self, n=40):
        schema = Schema.from_names(["k", "v"], relation="r")
        return Relation("r", schema, [(i, i * 2) for i in range(n)])

    def test_priming_happens_at_most_once_per_source_network_pair(self):
        """Satellite regression: every access path shares one materialization."""
        network = _CountingNetwork(BurstyNetworkModel(seed=11))
        source = RemoteSource(self._relation(), network)
        source.prime()
        assert network.calls == 1
        # Every subsequent consumer — column streams, batch streams, tuple
        # streams, cursors, repeated opens — reuses the cached schedule.
        list(source.open_stream_columns(8))
        list(source.open_stream_batches(8))
        list(source.open_stream())
        for _ in range(3):
            cursor = SourceCursor("r", source, prefetch=4)
            while cursor.read() is not None:
                pass
        assert network.calls == 1
        assert source.open_count == 6

    def test_unprimed_source_materializes_lazily_once(self):
        network = _CountingNetwork(BurstyNetworkModel(seed=12))
        source = RemoteSource(self._relation(), network)
        assert network.calls == 0
        cursor = SourceCursor("r", source, prefetch=4)
        cursor.read_batch(1000)
        assert network.calls == 1
        SourceCursor("r", source, prefetch=4).read_batch(1000)
        assert network.calls == 1

    def test_column_chunks_match_pair_chunks(self):
        source = RemoteSource(self._relation(), BurstyNetworkModel(seed=13))
        pairs = [item for chunk in source.open_stream_batches(7) for item in chunk]
        flattened = []
        for rows, arrivals in source.open_stream_columns(7):
            if arrivals is None:
                arrivals = [0.0] * len(rows)
            flattened.extend(zip(rows, arrivals))
        assert flattened == pairs
