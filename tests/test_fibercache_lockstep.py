"""Lockstep differential tests: batched FiberCache vs the scalar oracle.

The batched range primitives (the tentpole of the array-kernel rewrite)
must be *bit-identical* to replaying the scalar primitives line by line.
:class:`~repro.core.fibercache_ref.ReferenceFiberCache` is that scalar
reference — the pre-rewrite dict-of-sets implementation, with its range
methods defined as per-line replay. Hypothesis drives both caches through
the same random interleavings of range operations and asserts, after
every single call:

* identical return values (miss lines, dirty-eviction deltas),
* identical aggregate stats and per-category occupancy / miss lines,
* identical per-bank access / hit / miss tables,
* identical last-eviction victims (address, category, dirtiness),
* identical residency and per-line replacement state for every address.

Run on a tiny multi-way cache so sets overflow constantly and the
SRRIP-aged eviction path dominates; a second config makes ranges span
more lines than there are sets, forcing ``fetch_read_range`` off its
fused single pass onto the two-pass fallback. The epoch primitive
``fetch_read_epoch`` is replayed against the oracle one range at a time
on both configs, so its flat pass and its range-at-a-time fallback are
checked here and not only through the simulator.
"""

from hypothesis import given, settings, strategies as st

from repro.config import GammaConfig
from repro.core.fibercache import FiberCache
from repro.core.fibercache_ref import ReferenceFiberCache

#: 4 sets x 4 ways: every long interleaving overflows sets repeatedly.
TINY = GammaConfig(
    num_pes=2, fibercache_bytes=1024, fibercache_ways=4,
    fibercache_banks=4,
)

#: 2 sets x 2 ways: ranges of >2 lines wrap sets, so the fused
#: fetch+read pass must fall back to explicit fetch-then-read passes.
WRAP = GammaConfig(
    num_pes=2, fibercache_bytes=256, fibercache_ways=2,
    fibercache_banks=2,
)

CATEGORIES = st.sampled_from(["B", "partial"])

RANGE_OPS = st.one_of(
    st.tuples(st.just("fetch_range"), st.integers(0, 40),
              st.integers(1, 20), CATEGORIES),
    st.tuples(st.just("read_range"), st.integers(0, 40),
              st.integers(1, 20), CATEGORIES),
    st.tuples(st.just("fetch_read_range"), st.integers(0, 40),
              st.integers(1, 20), CATEGORIES),
    st.tuples(st.just("write_range"), st.integers(0, 40),
              st.integers(1, 20), st.just("partial")),
    st.tuples(st.just("consume_range"), st.integers(0, 40),
              st.integers(1, 20), st.just("partial")),
    st.tuples(st.just("invalidate"), st.integers(0, 60),
              st.just(1), st.just("partial")),
)

MAX_ADDR = 64


def _apply(cache, op):
    kind, lo, span, category = op
    if kind == "invalidate":
        return cache.invalidate(lo)
    hi = lo + span
    if kind == "consume_range":
        return cache.consume_range(lo, hi)
    return getattr(cache, kind)(lo, hi, category)


def _stats_dict(cache):
    stats = cache.stats
    return {
        "fetch_hits": stats.fetch_hits,
        "fetch_misses": stats.fetch_misses,
        "read_hits": stats.read_hits,
        "read_misses": stats.read_misses,
        "writes": stats.writes,
        "consume_hits": stats.consume_hits,
        "consume_misses": stats.consume_misses,
        "dirty_evictions": stats.dirty_evictions,
        "clean_evictions": stats.clean_evictions,
    }


def _line_states(cache):
    states = {}
    for addr in range(MAX_ADDR):
        view = cache.line_state(addr)
        if view is not None:
            states[addr] = (view.category, view.priority, view.rrpv,
                            view.dirty)
    return states


def assert_lockstep(batched, reference, context):
    assert _stats_dict(batched) == _stats_dict(reference), context
    assert batched.occupancy == reference.occupancy, context
    assert batched.miss_lines == reference.miss_lines, context
    assert list(batched.bank_accesses) == list(reference.bank_accesses), \
        context
    assert list(batched.bank_hits) == list(reference.bank_hits), context
    assert list(batched.bank_misses) == list(reference.bank_misses), context
    assert (batched.last_victim_addr
            == reference.last_victim_addr), context
    assert (batched.last_victim_category
            == reference.last_victim_category), context
    assert (batched.last_victim_was_dirty
            == reference.last_victim_was_dirty), context
    assert _line_states(batched) == _line_states(reference), context


class TestLockstep:
    @given(st.lists(RANGE_OPS, max_size=80))
    @settings(max_examples=120, deadline=None)
    def test_range_interleavings_tiny(self, operations):
        batched = FiberCache(TINY)
        reference = ReferenceFiberCache(TINY)
        for step, op in enumerate(operations):
            assert _apply(batched, op) == _apply(reference, op), (step, op)
            assert_lockstep(batched, reference, (step, op))

    @given(st.lists(RANGE_OPS, max_size=60))
    @settings(max_examples=80, deadline=None)
    def test_range_interleavings_force_fused_fallback(self, operations):
        batched = FiberCache(WRAP)
        reference = ReferenceFiberCache(WRAP)
        for step, op in enumerate(operations):
            assert _apply(batched, op) == _apply(reference, op), (step, op)
            assert_lockstep(batched, reference, (step, op))

    @given(st.lists(
        st.tuples(st.just("fetch_read_range"), st.integers(0, 40),
                  st.integers(1, 4), st.just("B")),
        min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_fused_fetch_read_matches_two_passes(self, operations):
        """The fused single pass == explicit fetch pass then read pass."""
        fused = FiberCache(TINY)
        two_pass = FiberCache(TINY)
        for _, lo, span, category in operations:
            hi = lo + span
            got = fused.fetch_read_range(lo, hi, category)
            misses, dirty = two_pass.fetch_range(lo, hi, category)
            read_misses, read_dirty = two_pass.read_range(lo, hi, category)
            assert read_misses == 0  # the fetch pass made every read hit
            assert got == (misses, dirty + read_dirty)
        assert_lockstep(fused, two_pass, "fused vs two-pass")

    @given(st.lists(RANGE_OPS, max_size=30),
           st.lists(st.lists(st.tuples(st.integers(0, 40),
                                       st.integers(1, 6)),
                             min_size=1, max_size=4),
                    min_size=1, max_size=12),
           st.sampled_from([TINY, WRAP]))
    @settings(max_examples=80, deadline=None)
    def test_fetch_read_epoch_replays_per_range(self, warmup, groups,
                                                config):
        """One epoch call == ``fetch_read_range`` per range, in order.

        Groups (tasks) hold up to four ranges of up to six lines, so on
        both configs some epochs fit the flat single pass and others
        carry a range longer than ``num_sets`` and take the
        range-at-a-time fallback. Per-group misses, dirty evictions and
        occupancy snapshots must match the oracle after each group.
        """
        batched = FiberCache(config)
        reference = ReferenceFiberCache(config)
        for op in warmup:
            _apply(batched, op)
            _apply(reference, op)
        lows = [lo for group in groups for lo, _ in group]
        highs = [lo + span for group in groups for lo, span in group]
        counts = [len(group) for group in groups]
        misses, dirties, occ_b, occ_p = batched.fetch_read_epoch(
            lows, highs, counts, "B")
        for g, group in enumerate(groups):
            group_misses = 0
            group_dirty = 0
            for lo, span in group:
                got_misses, got_dirty = reference.fetch_read_range(
                    lo, lo + span, "B")
                group_misses += got_misses
                group_dirty += got_dirty
            assert (misses[g], dirties[g]) == (group_misses, group_dirty), g
            assert (occ_b[g], occ_p[g]) == (reference.occupancy["B"],
                                            reference.occupancy["partial"]), g
        assert_lockstep(batched, reference, "fetch_read_epoch")

    @given(st.lists(RANGE_OPS, max_size=40), st.lists(RANGE_OPS, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_lockstep_is_order_sensitive_but_deterministic(self, ops_a,
                                                           ops_b):
        """Same ops -> same state, for both implementations independently."""
        for ops in (ops_a, ops_b):
            first = FiberCache(TINY)
            second = FiberCache(TINY)
            for op in ops:
                assert _apply(first, op) == _apply(second, op)
            assert_lockstep(first, second, "replay determinism")
