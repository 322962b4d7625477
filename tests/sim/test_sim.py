"""The discrete-event substrate: virtual clock, event queue, and the
chunked/pipelined transfer cost model the deploy broadcast rides on."""

import pytest

from repro.errors import ReproError
from repro.sim import (
    DEFAULT_BANDWIDTH,
    DEFAULT_LATENCY,
    EventQueue,
    LinkStats,
    NetLink,
    SimClock,
    SimEngine,
    SimError,
    Topology,
    TopologyError,
    TransferTiming,
    chunk_sizes,
    optimizations_enabled,
    reference_engine,
    set_optimizations,
    transmit,
)


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_to_is_monotone(self):
        c = SimClock()
        assert c.advance_to(5.0) == 5.0
        assert c.advance_to(3.0) == 5.0  # never rewinds
        assert c.now == 5.0

    def test_advance_delta(self):
        c = SimClock(start=1.0)
        assert c.advance(0.5) == 1.5
        with pytest.raises(ValueError):
            c.advance(-0.1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(start=-1.0)


class TestEventQueue:
    def test_pop_in_time_order(self):
        q = EventQueue()
        q.push(2.0, "b")
        q.push(1.0, "a")
        q.push(3.0, "c")
        assert [q.pop()[0] for _ in range(3)] == [1.0, 2.0, 3.0]

    def test_fifo_within_equal_timestamps(self):
        q = EventQueue()
        for tag in ("first", "second", "third"):
            q.push(1.0, tag)
        assert [q.pop()[1] for _ in range(3)] == ["first", "second", "third"]

    def test_peek_len_bool(self):
        q = EventQueue()
        assert q.peek_time() is None and not q and len(q) == 0
        q.push(4.0, "x")
        assert q.peek_time() == 4.0 and q and len(q) == 1

    def test_pop_empty_raises(self):
        with pytest.raises(SimError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimError):
            EventQueue().push(-1.0, "x")

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_time_rejected(self, bad):
        """Regression: a NaN timestamp compares false against everything,
        so it used to corrupt heap order silently instead of failing."""
        with pytest.raises(SimError, match="non-finite"):
            EventQueue().push(bad, "x")
        with pytest.raises(SimError, match="non-finite"):
            SimEngine().at(bad, lambda: None)

    def test_same_timestamp_flood_stays_fifo(self):
        """A flood of equal-time events drains in push order,
        interleaved correctly with distinct-time events."""
        q = EventQueue()
        q.push(2.0, "late")
        for i in range(1000):
            q.push(1.0, i)
        q.push(0.5, "early")
        assert len(q) == 1002
        assert q.peek_time() == 0.5
        got = [q.pop() for _ in range(1002)]
        assert got[0] == (0.5, "early", ())
        assert [fn for _, fn, _ in got[1:-1]] == list(range(1000))
        assert got[-1] == (2.0, "late", ())
        assert not q and q.peek_time() is None


class TestSimEngine:
    def test_fires_in_order_and_advances_clock(self):
        e = SimEngine()
        seen = []
        e.at(2.0, lambda: seen.append(("b", e.now)))
        e.at(1.0, lambda: seen.append(("a", e.now)))
        end = e.run()
        assert seen == [("a", 1.0), ("b", 2.0)]
        assert end == 2.0 and e.events_processed == 2

    def test_callbacks_chain_further_events(self):
        e = SimEngine()
        seen = []

        def hop(n):
            seen.append((n, e.now))
            if n < 3:
                e.after(1.0, hop, n + 1)

        e.at(0.0, hop, 1)
        e.run()
        assert seen == [(1, 0.0), (2, 1.0), (3, 2.0)]

    def test_after_is_relative_to_now(self):
        e = SimEngine()
        e.clock.advance_to(5.0)
        fired = []
        e.after(1.0, fired.append, "x")
        e.run()
        assert fired == ["x"] and e.now == 6.0
        with pytest.raises(SimError):
            e.after(-1.0, fired.append, "y")

    def test_run_until_stops_before_later_events(self):
        e = SimEngine()
        fired = []
        e.at(1.0, fired.append, "early")
        e.at(10.0, fired.append, "late")
        assert e.run(until=5.0) == 5.0
        assert fired == ["early"]
        assert len(e.queue) == 1  # the late event survives
        e.run()
        assert fired == ["early", "late"]

    def test_sim_error_is_a_repro_error(self):
        assert issubclass(SimError, ReproError)


class TestChunkSizes:
    @pytest.mark.parametrize("size,chunk,expect", [
        (0, 100, []),
        (-5, 100, []),
        (50, 100, [50]),
        (100, 100, [100]),
        (250, 100, [100, 100, 50]),
    ])
    def test_split(self, size, chunk, expect):
        assert chunk_sizes(size, chunk) == expect


def links(n, *, bandwidth=100.0, latency=0.0):
    return [NetLink(f"l{i}", bandwidth=bandwidth, latency=latency)
            for i in range(n)]


class TestTransmit:
    def test_duration_is_wire_time_plus_latencies(self):
        a, b = links(2, bandwidth=100.0, latency=0.05)
        t = transmit(a, b, 1000, chunk_size=100, available=0.0)
        # 10 chunks x 1 s wire, plus one-way latency at each endpoint
        assert t.end == pytest.approx(10.0 + 0.1)
        assert t.start == 0.0
        assert t.chunk_arrivals == pytest.approx(
            [i + 1 + 0.1 for i in range(10)])
        assert t.duration == pytest.approx(t.end - t.start)

    def test_sender_serializes_fifo(self):
        a, b, c = links(3)
        t1 = transmit(a, b, 500, chunk_size=100, available=0.0)
        t2 = transmit(a, c, 500, chunk_size=100, available=0.0)
        assert t1.end == pytest.approx(5.0)
        # a's transmit side was busy until t=5, so the second transfer queues
        assert t2.start == pytest.approx(5.0)
        assert t2.end == pytest.approx(10.0)

    def test_full_duplex_directions_do_not_contend(self):
        a, b = links(2)
        t1 = transmit(a, b, 500, chunk_size=100, available=0.0)
        t2 = transmit(b, a, 500, chunk_size=100, available=0.0)
        assert t1.end == pytest.approx(5.0)
        assert t2.end == pytest.approx(5.0)  # the reverse path was idle

    def test_pipelined_relay_overlaps_receive_and_resend(self):
        a, b, c = links(3)
        t1 = transmit(a, b, 1000, chunk_size=100, available=0.0)
        # b re-serves each chunk as it lands: one chunk of extra makespan,
        # not a full store-and-forward copy (which would end at 20 s)
        t2 = transmit(b, c, 1000, chunk_size=100,
                      available=t1.chunk_arrivals)
        assert t1.end == pytest.approx(10.0)
        assert t2.end == pytest.approx(11.0)

    def test_rate_is_bottleneck_of_both_ends(self):
        a, b = links(2)
        b.bandwidth = 50.0
        t = transmit(a, b, 500, chunk_size=100, available=0.0)
        assert t.end == pytest.approx(10.0)  # 500 B at 50 B/s

    def test_availability_length_must_match_chunks(self):
        a, b = links(2)
        with pytest.raises(ValueError):
            transmit(a, b, 500, chunk_size=100, available=[0.0, 0.0])

    def test_zero_size_is_a_no_op(self):
        a, b = links(2)
        t = transmit(a, b, 0, chunk_size=100, available=3.0)
        assert t.size == 0 and t.start == t.end == 3.0
        assert a.stats.bytes_tx == 0

    def test_zero_size_waits_for_busy_links(self):
        """Regression: an empty blob used to 'complete' while the link
        was still busy with in-flight traffic — zero-size sends must
        queue behind the FIFO horizons like any other transfer."""
        a, b = links(2)
        transmit(a, b, 500, chunk_size=100, available=0.0)  # busy to t=5
        t = transmit(a, b, 0, chunk_size=100, available=0.0)
        assert t.start == t.end == 5.0
        # the receive horizon alone also delays it
        c, d = links(2)
        d.rx_free_at = 7.0
        t = transmit(c, d, 0, chunk_size=100, available=2.0)
        assert t.start == t.end == 7.0
        assert t.chunk_arrivals == []

    def test_zero_size_with_sequence_availability(self):
        """Regression: a relayed zero-size hop used to report itself done
        at t=0 even though its source data only existed at max(avail)."""
        a, b = links(2)
        t = transmit(a, b, 0, chunk_size=100, available=[2.0, 5.0, 1.0])
        assert t.size == 0 and t.start == t.end == 5.0
        t = transmit(a, b, 0, chunk_size=100, available=[])
        assert t.start == t.end == 0.0

    def test_first_arrival_is_first_chunk_landing(self):
        a, b = links(2, bandwidth=100.0, latency=0.05)
        t = transmit(a, b, 1000, chunk_size=100, available=0.0)
        assert t.first_arrival == t.chunk_arrivals[0] == pytest.approx(1.1)
        # and for a sub-chunk blob the only chunk is both first and last
        t = transmit(a, b, 50, chunk_size=100, available=0.0)
        assert t.first_arrival == t.end == t.chunk_arrivals[0]

    def test_coalesced_transfer_skips_the_arrival_list(self):
        """record_arrivals=False must change nothing but chunk_arrivals."""
        a, b = links(2, latency=0.01)
        c, d = links(2, latency=0.01)
        full = transmit(a, b, 950, chunk_size=100, available=2.0)
        lean = transmit(c, d, 950, chunk_size=100, available=2.0,
                        record_arrivals=False)
        assert lean.chunk_arrivals is None
        assert full.chunk_arrivals is not None
        assert (lean.size, lean.start, lean.end, lean.first_arrival) == \
               (full.size, full.start, full.end, full.first_arrival)
        assert c.stats == a.stats and d.stats == b.stats
        assert isinstance(full, TransferTiming)

    def test_bulk_path_matches_reference_loop(self):
        """Smoke-level bit-identity (the Hypothesis suite in
        test_transfer_property.py covers the full input space)."""
        prev = set_optimizations(True)       # force the bulk path
        try:
            assert optimizations_enabled()
            a, b = links(2, bandwidth=77.0, latency=0.003)
            b.bandwidth = 31.0
            fast = transmit(a, b, 12345, chunk_size=1000, available=1.5)
        finally:
            set_optimizations(prev)
        with reference_engine():
            c, d = links(2, bandwidth=77.0, latency=0.003)
            d.bandwidth = 31.0
            assert not optimizations_enabled()
            slow = transmit(c, d, 12345, chunk_size=1000, available=1.5)
        assert fast == slow                  # dataclass: field-exact
        assert a.stats == c.stats == LinkStats(
            bytes_tx=12345, chunks_tx=13,
            busy_tx_seconds=a.stats.busy_tx_seconds,
            byte_seconds=a.stats.byte_seconds)
        assert b.stats == d.stats
        assert (a.tx_free_at, b.rx_free_at) == (c.tx_free_at, d.rx_free_at)

    def test_stats_account_both_sides(self):
        a, b = links(2, latency=0.05)
        transmit(a, b, 250, chunk_size=100, available=0.0)
        assert a.stats.bytes_tx == 250 and a.stats.chunks_tx == 3
        assert b.stats.bytes_rx == 250 and b.stats.chunks_rx == 3
        assert a.stats.busy_tx_seconds == pytest.approx(2.5)
        assert b.stats.busy_rx_seconds == pytest.approx(2.5)
        assert a.stats.byte_seconds > 0
        assert a.stats.as_dict()["bytes_tx"] == 250


class TestNetLink:
    def test_bad_parameters_rejected(self):
        with pytest.raises(TopologyError):
            NetLink("x", bandwidth=0)
        with pytest.raises(TopologyError):
            NetLink("x", latency=-1.0)

    def test_reset_time_keeps_stats(self):
        a, b = links(2)
        transmit(a, b, 100, chunk_size=100, available=0.0)
        assert a.tx_free_at > 0 and a.utilization_window > 0
        a.reset_time()
        assert a.tx_free_at == 0.0 and a.rx_free_at == 0.0
        assert a.stats.bytes_tx == 100  # traffic accounting survives


class TestTopology:
    def test_add_is_idempotent(self):
        topo = Topology()
        link = topo.add("cn1", bandwidth=10.0)
        assert topo.add("cn1") is link
        assert link.bandwidth == 10.0
        assert topo.has("cn1") and not topo.has("cn2")

    def test_defaults_apply(self):
        link = Topology().add("cn1")
        assert link.bandwidth == DEFAULT_BANDWIDTH
        assert link.latency == DEFAULT_LATENCY

    def test_attach_infers_hostname_or_name(self):
        class Host:
            hostname = "cn1"

        class Service:
            name = "registry"

        topo = Topology()
        host, svc = Host(), Service()
        assert topo.attach(host) is topo.link("cn1")
        assert topo.attach(svc) is topo.link("registry")
        assert host.netlink.name == "cn1"
        assert svc.netlink.name == "registry"

    def test_attach_nameless_object_rejected(self):
        with pytest.raises(TopologyError):
            Topology().attach(object())

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            Topology().link("nope")

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(TopologyError):
            Topology(chunk_size=0)

    def test_utilization_is_sorted_and_json_friendly(self):
        topo = Topology(bandwidth=100.0, latency=0.0)
        b = topo.add("b")
        a = topo.add("a")
        transmit(a, b, 100, chunk_size=100, available=0.0)
        util = topo.utilization()
        assert list(util) == ["a", "b"]
        assert util["a"]["bytes_tx"] == 100
        assert util["b"]["bytes_rx"] == 100

    def test_reset_time_covers_all_links(self):
        topo = Topology(bandwidth=100.0, latency=0.0)
        a, b = topo.add("a"), topo.add("b")
        transmit(a, b, 100, chunk_size=100, available=0.0)
        topo.reset_time()
        assert a.tx_free_at == 0.0 and b.rx_free_at == 0.0
