"""The Gamma accelerator simulator: data-oriented, epoch-batched core.

Functionally this is the same machine as
:mod:`repro.core.simulator_ref` — Gustavson spMspM with scheduler-driven
task trees, FiberCache line touches, a bandwidth-limited memory channel,
and the paper's PE timing law — and it is lockstep-tested to produce
bit-identical outputs, cycle counts, and traffic breakdowns. What
changed is the execution engine: instead of one Python
``_execute_task`` call, heap transaction, and dict update per task, the
run advances in *epochs*.

The scheduler dispatches one kind of work (paper Sec. 3.3): tree
leaves, interior merges and root emits alike, in priority order onto
the earliest-free PE. So does the batched core. At each dispatch point
the whole ready heap drains into one batch
(:meth:`EpochScheduler.drain_ready`), :meth:`EpochScheduler.fence_plan`
computes the *fence* — the earliest instant a completion drain could
make a waiting task ready and preempt the rest of the batch — and one
executor, ``_execute_epoch``, dispatches the batch while the PE
horizon stays below the fence, returning the suffix to the heap. Each
non-final dispatch arms its waiting parents and lowers the fence in
place, so the stop condition stays exact. The unfenced stretch is the
``fence = inf``, no-waiters case. The core works on struct-of-arrays
state:

* every task has two input blocks — partial fibers (from the
  arming-time ``_InteriorGather`` record, empty for leaves) and direct
  B rows — laid out as arrays across the whole batch, so input
  gathering, B line ranges, and the PE timing law evaluate over the
  batch at once (``epoch_cycles``);
* output fibers come from one composite-key merge kernel (stable
  argsort + group reduction) over both blocks, bit-matched to
  ``linear_combine``'s dict and array paths;
* memory charges whose completion times feed nothing (C writes,
  partial writebacks) are deferred and flushed in issue order via
  ``MemoryInterface.request_epoch``.

One selection remains, decided by the batch itself. A batch that cannot
stop early (``fence = inf``, no waiters) and holds only final leaves
extends with simple items straight off the program cursor and touches
the cache for the whole batch in one ``FiberCache.fetch_read_epoch``
call. Every other batch touches the cache per task inside the loop
(``consume_range`` / ``fetch_read_range`` in the scalar input order),
so stopping at the fence leaves no phantom cache state, and replays the
reference's between-dispatch refills whenever the partial-output budget
moves. Non-final tasks keep the reference's side effects exactly:
partial lines are allocated and written in dispatch order, and
completions enter the drain heap carrying the real task so parents
unblock identically. A batch that dispatches nothing (unreachable by
the fence invariant) falls back to one scalar dispatch.
Runs that collect a MetricsRegistry take the scalar path wholesale so
every per-dispatch metric sample stays bit-identical; traces are
supported in epoch mode (events are emitted from the batch timing
loop with the same fields).

See docs/architecture.md §13 for the layout and the epoch advancement
rule, and ``tests/test_simulator_lockstep.py`` for the differential
suite against the reference engine.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from repro.config import ELEMENT_BYTES, GammaConfig, LINE_BYTES, OFFSET_BYTES
from repro.core.accumulator import accumulate_groups
from repro.core.pe import epoch_cycles, epoch_merge_groups
from repro.core.result import SimulationResult
from repro.core.scheduler import EpochScheduler, WorkProgram
from repro.core.simulator_ref import (ReferenceGammaSimulator,
                                      _ReferenceRunState)
from repro.matrices.csr import CsrMatrix
from repro.matrices.fiber import Fiber, _make_fiber

_INF = float("inf")


class _FastDetailedPE:
    """Serves ``combine_detailed`` from the fast functional model.

    The two PE models are observably identical: ``combine_detailed``
    reports ``cycles = max(1, len(merged))`` with every merged element
    consuming exactly one input element and ``multiplies = total_in`` —
    the same closed forms ``combine`` uses — and its accumulator fold
    (scaled left-to-right over the (coordinate, way)-sorted element
    stream) is the fold ``linear_combine`` evaluates array-wise. The
    batched core therefore runs detailed-PE configurations through the
    vectorized path; the reference engine keeps walking the per-cycle
    pipeline, and the lockstep suite holds the two bit-identical.
    """

    __slots__ = ("_pe",)

    def __init__(self, pe) -> None:
        self._pe = pe

    def __getattr__(self, name):
        return getattr(self._pe, name)

    def combine_detailed(self, fibers, scales, semiring=None):
        return self._pe.combine(fibers, scales, semiring=semiring)


class _InteriorGather:
    """Arming-time SoA gather of one interior task's inputs.

    Built when a batch first drains the task (all inputs are finished by
    then, so every array below is final): the partial block — partial
    fiber coordinate/value views, scales, lengths and line ranges in
    input order, plus the dependency-readiness time — and the direct B
    rows and scales that join the batch's B block. Reused across
    push-back re-drains and discharged at dispatch, so the epoch loop
    and the merge kernel never walk fiber objects or ``TaskInput``
    lists.
    """

    __slots__ = ("deps", "p_ranges", "p_coord_parts", "p_value_parts",
                 "p_scales", "p_lens", "p_total", "deps_ready",
                 "b_rows", "b_scales")

    def __init__(self) -> None:
        self.deps: List[int] = []
        self.p_ranges: List = []
        self.p_coord_parts: List = []
        self.p_value_parts: List = []
        self.p_scales: List[float] = []
        self.p_lens: List[int] = []
        self.p_total = 0
        self.deps_ready = 0.0
        self.b_rows = None
        self.b_scales = None


class _EpochInputs:
    """The two input blocks of one epoch batch and their merge kernel.

    Every task merges a partial block — the partial fibers its
    :class:`_InteriorGather` record references, empty for leaves —
    followed by a B block, its direct B rows. Both blocks are laid out
    as flat arrays across the whole batch: all partial elements first
    (task order, input order), then all B elements likewise. Because
    ``build_task_tree`` puts partial inputs ahead of direct B rows in
    every interior task, one stable sort on the composite key
    ``task * num_cols + coord`` orders each task's elements by
    coordinate with ties in exact input order — the fold order of
    ``linear_combine``.

    Construction is the value-free structure pass: B line ranges,
    per-task input element totals (the PE timing law's argument), and
    output lengths, which size C writes and partial allocations before
    anything dispatches. :meth:`merge` computes the values of a
    dispatched prefix off the same sort: tasks are the sort's major
    key, so a prefix's elements are a prefix of the sorted stream.
    """

    def __init__(self, b, coord_parts, records) -> None:
        num_tasks = len(coord_parts)
        self.num_tasks = num_tasks
        self.records = records
        counts = np.fromiter(map(len, coord_parts), dtype=np.int64,
                             count=num_tasks)
        all_rows = (np.concatenate(coord_parts) if num_tasks > 1
                    else np.asarray(coord_parts[0], dtype=np.int64))
        offsets = b.offsets
        row_start = offsets[all_rows]
        nnzs = offsets[all_rows + 1] - row_start
        ends = np.cumsum(nnzs)
        input_task = np.repeat(np.arange(num_tasks, dtype=np.int64), counts)
        # Per-task B element totals; bincount (not reduceat) because a
        # pure partial merge has no B inputs at all.
        totals = np.bincount(input_task, weights=nnzs,
                             minlength=num_tasks).astype(np.int64)
        b_total = int(ends[-1]) if len(ends) else 0
        gather = np.arange(b_total, dtype=np.int64)
        gather += np.repeat(row_start - (ends - nnzs), nnzs)
        el_task = np.repeat(input_task, nnzs)
        el_coords = b.coords[gather]
        self.p_inputs = None
        if records is not None:
            p_counts = np.fromiter(
                (0 if r is None else r.p_total for r in records),
                dtype=np.int64, count=num_tasks)
            p_parts = [part for r in records if r is not None
                       for part in r.p_coord_parts]
            if p_parts:
                el_task = np.concatenate(
                    (np.repeat(np.arange(num_tasks, dtype=np.int64),
                               p_counts), el_task))
                el_coords = np.concatenate(
                    (np.concatenate(p_parts), el_coords))
                self.p_inputs = np.fromiter(
                    (0 if r is None else len(r.p_lens) for r in records),
                    dtype=np.int64, count=num_tasks)
            totals += p_counts
        self.counts = counts
        self.input_first = np.cumsum(counts) - counts
        self.input_task = input_task
        self.nnzs = nnzs
        self.gather = gather
        self.totals = totals
        self.el_coords = el_coords
        self.lows = (row_start * ELEMENT_BYTES) // LINE_BYTES
        self.highs = -(-((row_start + nnzs) * ELEMENT_BYTES) // LINE_BYTES)
        self.order, self.flags, self.out_lens = epoch_merge_groups(
            el_task, el_coords, b.num_cols, num_tasks)

    def merge(self, b, scale_parts, dispatched: int, semiring):
        """Output fibers' ``(coords, values, bounds)`` for the first
        ``dispatched`` tasks, or None when they merge no elements.

        Bit-matched to ``linear_combine``: per-group reduction over the
        sorted stream reproduces the scalar fold — zero-started
        ``np.bincount`` for arithmetic, first-element
        ``add_ufunc.reduceat`` for semirings — and tasks with a single
        nonempty input take its scaled elements directly, as the
        ``fiber.scale`` shortcut does, so IEEE signed zeros survive.
        ``scale_parts`` are the per-task B scale arrays; partial inputs
        pass through at their gathered scale (the semiring's
        multiplicative identity).
        """
        num_elements = int(self.totals[:dispatched].sum())
        if not num_elements:
            return None
        order = self.order[:num_elements]
        flags = self.flags[:num_elements]
        scales = (np.concatenate(scale_parts) if len(scale_parts) > 1
                  else np.asarray(scale_parts[0], dtype=np.float64))
        el_values = b.values[self.gather]
        el_scales = np.repeat(scales, self.nnzs)
        p_inputs = self.p_inputs
        if p_inputs is not None:
            records = [r for r in self.records if r is not None]
            p_lens = np.fromiter(
                (n for r in records for n in r.p_lens), dtype=np.int64)
            p_values = [part for r in records for part in r.p_value_parts]
            el_values = np.concatenate((np.concatenate(p_values), el_values))
            el_scales = np.concatenate((np.repeat(
                np.fromiter((s for r in records for s in r.p_scales),
                            dtype=np.float64, count=len(p_lens)),
                p_lens), el_scales))
        arithmetic = semiring is None or semiring.is_arithmetic
        if arithmetic:
            products = el_values * el_scales
        else:
            products = np.asarray(
                semiring.mul_array(el_scales, el_values), dtype=np.float64)
        sorted_values = products[order]
        out_values = accumulate_groups(sorted_values, flags, semiring)
        out_coords = self.el_coords[order][flags]
        out_lens = self.out_lens[:dispatched]
        if arithmetic:
            nonempty = np.bincount(self.input_task[self.nnzs > 0],
                                   minlength=self.num_tasks)
            if p_inputs is not None:
                p_task = np.repeat(
                    np.arange(self.num_tasks, dtype=np.int64), p_inputs)
                nonempty += np.bincount(p_task[p_lens > 0],
                                        minlength=self.num_tasks)
            single = nonempty[:dispatched] == 1
            if single.any():
                # A single nonempty input's elements are its own sorted
                # groups of one: copy the products over the fold.
                out_values[np.repeat(single, out_lens)] = sorted_values[
                    np.repeat(single, self.totals[:dispatched])]
        return out_coords, out_values, np.cumsum(out_lens)


class GammaSimulator:
    """Simulates one spMspM on a Gamma system (batched engine).

    Drop-in replacement for :class:`ReferenceGammaSimulator` — same
    constructor, same results bit-for-bit — advancing execution in
    epochs instead of per-task events. Custom semirings without a
    declared ``add_ufunc`` have no vectorizable accumulation, so those
    runs delegate to the reference engine wholesale.

    Args:
        config: Hardware parameters.
        multi_pe_scheduling: Scheduler mode (Fig. 20 ablation); the default
            True lets tasks of one row run on any PE.
        keep_output: Retain the computed C matrix in the result (disable to
            save memory on large sweeps; also skips output-value
            computation entirely, since structure alone determines
            traffic and timing).
        semiring: Scalar algebra for the PEs' multiply/accumulate units;
            None selects ordinary (+, x).
        trace: Optional :class:`~repro.core.trace.ExecutionTrace` that
            records one event per executed task.
        metrics: Optional :class:`~repro.obs.MetricsRegistry`; when set,
            the run executes on the scalar path so per-dispatch samples
            match the reference engine exactly.
    """

    def __init__(
        self,
        config: Optional[GammaConfig] = None,
        multi_pe_scheduling: bool = True,
        keep_output: bool = True,
        semiring=None,
        trace=None,
        metrics=None,
    ) -> None:
        self.config = config or GammaConfig()
        self.multi_pe_scheduling = multi_pe_scheduling
        self.keep_output = keep_output
        self.semiring = semiring
        self.trace = trace
        self.metrics = metrics

    def run(
        self,
        a: CsrMatrix,
        b: CsrMatrix,
        program: Optional[WorkProgram] = None,
    ) -> SimulationResult:
        """Execute C = A x B; see :meth:`ReferenceGammaSimulator.run`."""
        if (self.semiring is not None and not self.semiring.is_arithmetic
                and self.semiring.add_ufunc is None):
            return ReferenceGammaSimulator(
                self.config, self.multi_pe_scheduling, self.keep_output,
                self.semiring, self.trace, self.metrics,
            ).run(a, b, program=program)
        if a.num_cols != b.num_rows:
            raise ValueError(
                f"inner dimensions differ: {a.shape} x {b.shape}"
            )
        if program is None:
            program = WorkProgram.from_matrix(a)
        state = _BatchedRunState(self.config, a, b, program,
                                 self.multi_pe_scheduling, self.semiring,
                                 self.trace, self.metrics,
                                 keep_output=self.keep_output)
        state.execute()
        return state.result(self.keep_output)


class _BatchedRunState(_ReferenceRunState):
    """Run state with struct-of-arrays epoch execution.

    Inherits all scalar machinery — ``_execute_task``, PE picking,
    metrics publishing, result assembly — from the reference run state
    and overrides the main loop to dispatch fence-bounded batches as
    epochs.
    """

    def __init__(self, config, a, b, program, multi_pe, semiring=None,
                 trace=None, metrics=None, keep_output=True) -> None:
        super().__init__(config, a, b, program, multi_pe, semiring,
                         trace, metrics)
        # Same construction arguments as the base Scheduler: the epoch
        # variant is bit-neutral and only adds batch extraction.
        self.scheduler = EpochScheduler(
            program,
            radix=config.radix,
            multi_pe=multi_pe,
            max_outstanding_partials=2 * config.num_pes,
            metrics=metrics,
        )
        self.keep_output = keep_output
        if config.detailed_pe_model:
            self.pe_model = _FastDetailedPE(self.pe_model)
        # Per-dispatch metric samples can't be replayed from batch
        # aggregates, so metric runs stay on the scalar path throughout.
        self.use_epochs = metrics is None
        #: Output-row lengths (c_nnz and C-write sizing) — maintained even
        #: when output values are skipped.
        self.output_len: Dict[int, int] = {}
        #: Arming-time gather records for drained interior tasks, keyed
        #: by task id: partial-input SoA views, line ranges, dependency
        #: readiness, and direct B rows. Built once when a batch drains
        #: the task, reused across push-back re-drains, and popped at
        #: dispatch.
        self._gather: Dict[int, _InteriorGather] = {}
        self._target_pending = 2 * config.num_pes
        #: Completion heap of ``(finish, sequence, task)`` entries (task
        #: None for epoch-dispatched finals, whose completions unblock
        #: nothing) and the next sequence number.
        self._completions: List = []
        self._sequence = 0

    # -- main loop --------------------------------------------------------
    def execute(self) -> None:
        """Epoch-batched list scheduling.

        Identical decision sequence to the reference event loop: refill,
        drain completions up to the PE horizon, dispatch. At each
        dispatch point the whole ready heap drains into one batch,
        ``fence_plan`` bounds how far the reference would dispatch it
        back to back, and :meth:`_execute_epoch` runs it up to there.
        """
        target_pending = self._target_pending
        completions = self._completions
        scheduler = self.scheduler
        items = self.program.items
        use_epochs = self.use_epochs
        while True:
            scheduler.refill(target_pending, allow_force=not completions)
            next_pe_time = self._next_pe_time()
            while completions and completions[0][0] <= next_pe_time:
                _, _, done = heapq.heappop(completions)
                if done is not None:
                    scheduler.task_completed(done)
                scheduler.refill(target_pending,
                                 allow_force=not completions)
            if use_epochs and scheduler.peek_ready() is not None:
                entries = scheduler.drain_ready()
                ids = [entry[1].task_id for entry in entries]
                fence, waiters = scheduler.fence_plan(self.finish_time, ids)
                if self._execute_epoch(entries, ids, fence, waiters):
                    continue
                # Nothing dispatched: unreachable per the fence invariant
                # (the fence clears the PE horizon at epoch entry), so
                # degrade to one scalar dispatch rather than spin.
            task = scheduler.next_task()
            if task is not None:
                self._dispatch_scalar(task)
                continue
            if completions:
                if (not scheduler.has_blocked_tasks()
                        and scheduler._item_cursor >= len(items)):
                    # Nothing can become ready anymore: the remaining
                    # completion drains are bookkeeping no-ops, so skip
                    # the one-pop-per-iteration tail wholesale.
                    completions.clear()
                    continue
                _, _, done = heapq.heappop(completions)
                if done is not None:
                    scheduler.task_completed(done)
                continue
            if scheduler.exhausted:
                break
            raise RuntimeError(
                "scheduler stalled with blocked tasks outstanding"
            )
        self._account_a_traffic()
        bandwidth_floor = (
            self.memory.traffic.total_bytes / self.config.bytes_per_cycle
        )
        self.now = max(
            max(self.pe_free_times, default=0.0),
            self.memory.busy_until,
            bandwidth_floor,
        )
        if self.metrics is not None:
            self._publish_run_metrics(bandwidth_floor)

    # -- scalar path --------------------------------------------------------
    def _dispatch_scalar(self, task) -> None:
        """Scalar fallback: execute one task and queue its completion."""
        finish = self._execute_task(task)
        heapq.heappush(self._completions, (finish, self._sequence, task))
        self._sequence += 1

    def _execute_task(self, task):
        # A drained interior task dispatched scalar (zero-dispatch
        # fallback) must not leave a stale gather record behind.
        self._gather.pop(task.task_id, None)
        finish = super()._execute_task(task)
        if task.is_final:
            self.output_len[task.row] = len(self.output_rows[task.row])
        return finish

    # -- epoch execution --------------------------------------------------
    def _execute_epoch(self, entries, ids, fence: float, waiters) -> int:
        """Execute a drained batch up to its fence; return how many dispatched.

        The reference loop dispatches the batch's tasks back to back in
        heap order while its PE-availability horizon stays below the
        *fence* — the earliest time a completion drain can make a
        waiting task ready (``EpochScheduler.fence_plan``), at which
        point that task preempts the rest. This loop does exactly that
        and returns the undispatched suffix to the ready heap verbatim.
        Input gathering, PE cycles and output lengths come from one
        :class:`_EpochInputs` structure pass before the loop and output
        values from its merge kernel after it; DRAM charges whose
        completion times feed nothing (C writes, partial writebacks)
        defer through ``MemoryInterface.request_epoch``.

        One selection, decided by the batch itself: a batch that cannot
        stop early (``fence`` infinite, no ``waiters``) and holds only
        final leaves arms nothing and moves no partial budget, so it
        extends with simple items straight off the program cursor and
        touches the cache for the whole batch before the loop (one
        ``fetch_read_epoch`` and one ``sample_utilization_epoch``
        call). A batch that cannot stop early but holds other tasks
        too leaves its trailing run of final leaves to the next batch,
        which takes that path. Any other batch touches the cache per task inside the
        loop in the scalar input order (partial consumes, then B
        fetches), so stopping at the fence leaves no phantom cache
        state. A non-final dispatch allocates and writes its partial
        lines, raises the partial budget, records its finish, and folds
        it into the ``waiters`` records of tasks it helps arm — lowering
        the fence in place, so the stop condition stays exact while the
        batch changes which tasks are armed. Whenever the budget moves,
        the reference's between-dispatch refills replay after every
        dispatch.
        """
        scheduler = self.scheduler
        tasks = [entry[1] for entry in entries]
        unstoppable = fence == _INF and not waiters
        if unstoppable:
            # Cutting a batch that cannot stop early changes nothing but
            # how it touches the cache: leave its trailing run of final
            # leaves to the next batch, which pre-touches it.
            cut = len(tasks)
            while cut and tasks[cut - 1].is_final and not tasks[cut - 1].level:
                cut -= 1
            if cut and cut < len(tasks):
                scheduler.push_back(entries[cut:])
                entries = entries[:cut]
                tasks = tasks[:cut]
                ids = ids[:cut]
        rows = [task.row for task in tasks]
        finals = [task.is_final for task in tasks]
        static = all(finals) and not any(task.level for task in tasks)
        pretouch = unstoppable and static
        coord_parts: List = []
        scale_parts: List = []
        records = None if static else []
        for task in tasks:
            if task.level:
                record = self._gather_interior(task)
                records.append(record)
                coord_parts.append(record.b_rows)
                scale_parts.append(record.b_scales)
                continue
            if records is not None:
                records.append(None)
            coord_parts.append(task.b_coords)
            scale_parts.append(task.b_scales)
        if pretouch:
            more_rows, more_ids, more_coords, more_scales = (
                scheduler.take_simple_items())
            if more_rows:
                rows += more_rows
                ids = ids + more_ids
                finals += [True] * len(more_rows)
                coord_parts += more_coords
                scale_parts += more_scales
        num_batch = len(rows)
        inputs = _EpochInputs(self.b, coord_parts, records)
        cycle_list = epoch_cycles(inputs.totals).tolist()
        len_list = inputs.out_lens.tolist()
        cache = self.cache
        if pretouch:
            misses, dirties, occ_b, occ_p = cache.fetch_read_epoch(
                inputs.lows, inputs.highs, inputs.counts, "B")
        else:
            lows = inputs.lows.tolist()
            highs = inputs.highs.tolist()
            first_list = inputs.input_first.tolist()
            count_list = inputs.counts.tolist()
        refill = not static

        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        fetch = cache.fetch_read_range
        consume = cache.consume_range
        write = cache.write_range
        sample = cache.sample_utilization
        allocate = self._allocate_partial_lines
        partial_fibers = self.partial_fibers
        partial_lines = self.partial_lines
        finish_time = self.finish_time
        gather_memo = self._gather
        trace = self.trace
        output_len = self.output_len
        refill_epoch = scheduler.refill_epoch
        partial_consumed = scheduler.partial_consumed
        target_pending = self._target_pending
        heappush = heapq.heappush
        heappop = heapq.heappop
        pending: List = []
        finishes: List[float] = []
        pe_busy = 0.0
        threshold = 0.0
        dispatched = num_batch
        if trace is not None:
            from repro.core.trace import TaskEvent
        for i in range(num_batch):
            row = rows[i]
            if multi:
                thr = pe_free[0][0]
            else:
                while pe_free[0][0] != free_times[pe_free[0][1]]:
                    heappop(pe_free)
                thr = pe_free[0][0]
            if thr >= fence:
                dispatched = i
                break
            threshold = thr
            if multi:
                start, pe = heappop(pe_free)
            else:
                pe = row_pe.get(row)
                if pe is None:
                    pe = pe_free[0][1]
                    row_pe[row] = pe
                start = free_times[pe]
            p_miss = 0
            if pretouch:
                b_miss = misses[i]
                dirty = dirties[i]
            else:
                record = records[i] if records else None
                if record is not None:
                    # Partial inputs precede direct B rows in
                    # ``task.inputs``: consume them first, as the scalar
                    # input loop does.
                    if record.deps_ready > start:
                        start = record.deps_ready
                    for dep in record.deps:
                        del partial_fibers[dep]
                        del partial_lines[dep]
                    for lo, hi in record.p_ranges:
                        p_miss += consume(lo, hi)[0]
                    partial_consumed(len(record.deps))
                    del gather_memo[ids[i]]
                b_miss = 0
                dirty = 0
                base = first_list[i]
                for j in range(base, base + count_list[i]):
                    got_miss, got_dirty = fetch(lows[j], highs[j], "B")
                    b_miss += got_miss
                    dirty += got_dirty
            cyc = cycle_list[i]
            finish = start + cyc
            if b_miss or p_miss:
                if pending:
                    memory.request_epoch(pending)
                    pending = []
                if b_miss:
                    got = memory.request("B", b_miss * LINE_BYTES, start)
                    if got > finish:
                        finish = got
                if p_miss:
                    got = memory.request(
                        "partial_read", p_miss * LINE_BYTES, start)
                    if got > finish:
                        finish = got
            free_times[pe] = finish
            heappush(pe_free, (finish, pe))
            busy_cycles[pe] += cyc
            pe_busy += cyc
            out_len = len_list[i]
            if finals[i]:
                output_len[row] = out_len
                pending.append(
                    ("C", out_len * ELEMENT_BYTES + OFFSET_BYTES, finish))
            else:
                tid = ids[i]
                self.num_partials += 1
                # Mirror ``Scheduler.next_task``: dispatching a
                # non-final task brings one more partial output fiber
                # into existence (Sec. 3.4 budget).
                scheduler.outstanding_partials += 1
                lines = allocate(out_len)
                partial_lines[tid] = lines
                _, write_dirty = write(lines[0], lines[1], "partial")
                dirty += write_dirty
                finish_time[tid] = finish
                arming = waiters.get(tid)
                if arming is not None:
                    for rec in arming:
                        if finish > rec[1]:
                            rec[1] = finish
                        rec[0] -= 1
                        if rec[0] == 0 and rec[1] < fence:
                            fence = rec[1]
            if dirty:
                pending.append(
                    ("partial_write", dirty * LINE_BYTES, finish))
            finishes.append(finish)
            if not pretouch:
                sample(weight=cyc)
            if trace is not None:
                task_level = tasks[i].level if i < len(tasks) else 0
                trace.record(TaskEvent(
                    task_id=ids[i],
                    row=row,
                    level=task_level,
                    is_final=finals[i],
                    pe=pe,
                    start=start,
                    finish=finish,
                    busy_cycles=cyc,
                    b_miss_lines=b_miss,
                    partial_miss_lines=p_miss,
                ))
            if refill:
                refill_epoch(target_pending, num_batch - i - 1)
        if pending:
            memory.request_epoch(pending)
        if pretouch:
            cache.sample_utilization_epoch(occ_b, occ_p, cycle_list)
        if dispatched < num_batch:
            scheduler.push_back(entries[dispatched:])
        if dispatched:
            self.flops += int(inputs.totals[:dispatched].sum())
            self.num_tasks += dispatched
            self.dispatch_epoch += dispatched
            self.pe_busy += pe_busy
            self._store_outputs(inputs, scale_parts, rows, finals, ids,
                                dispatched)
        # Catch up the completion drains the reference loop performed
        # during the batch, in its exact (finish, sequence) order: merge
        # the batch's own completions into the heap, then drain
        # everything up to the horizon it saw before the last dispatch.
        # Final completions are pure bookkeeping (final ids are never
        # consulted by a dependency scan), so those at or below the
        # horizon vanish outright; drained non-final completions unblock
        # their parents — by the fence invariant none of those parents
        # can have become ready at or below ``threshold``, so deferring
        # the drains to the batch boundary is order-equivalent.
        completions = self._completions
        sequence = self._sequence
        for i in range(dispatched):
            finish = finishes[i]
            if not finals[i]:
                heappush(completions, (finish, sequence + i, tasks[i]))
            elif finish > threshold:
                heappush(completions, (finish, sequence + i, None))
        while completions and completions[0][0] <= threshold:
            _, _, done = heappop(completions)
            if done is not None:
                scheduler.task_completed(done)
        self._sequence = sequence + dispatched
        return dispatched

    def _gather_interior(self, task) -> _InteriorGather:
        """Build (or fetch) the arming-time gather record of one interior task.

        Side-effect free: partial fibers are referenced, not popped, and
        no reference-path memo entries are created — a record built when
        a batch first drains the task stays valid across push-back
        re-drains (dependency finish times and partial fibers are
        immutable once set) and is discharged only at dispatch.
        """
        memo = self._gather
        record = memo.get(task.task_id)
        if record is not None:
            return record
        record = _InteriorGather()
        semiring = self.semiring
        finish_time = self.finish_time
        partial_fibers = self.partial_fibers
        partial_lines = self.partial_lines
        b_rows: List[int] = []
        b_scales: List[float] = []
        deps_ready = 0.0
        for inp in task.inputs:
            if inp.kind == "B":
                b_rows.append(inp.index)
                b_scales.append(inp.scale)
                continue
            dep = inp.index
            finish = finish_time[dep]
            if finish > deps_ready:
                deps_ready = finish
            fiber = partial_fibers[dep]
            n = len(fiber.coords)
            record.deps.append(dep)
            record.p_ranges.append(partial_lines[dep])
            record.p_coord_parts.append(fiber.coords)
            record.p_value_parts.append(fiber.values)
            # Partial fibers pass through unscaled: the semiring's
            # multiplicative identity, not necessarily 1.0.
            record.p_scales.append(
                semiring.one if semiring is not None else inp.scale)
            record.p_lens.append(n)
            record.p_total += n
        record.deps_ready = deps_ready
        record.b_rows = np.array(b_rows, dtype=np.int64)
        record.b_scales = np.array(b_scales, dtype=np.float64)
        memo[task.task_id] = record
        return record

    def _store_outputs(self, inputs, scale_parts, rows, finals, ids,
                       dispatched: int) -> None:
        """Route the dispatched prefix's merged fibers to their stores.

        Final rows go to ``output_rows`` (under ``keep_output``), partial
        outputs to ``partial_fibers`` under their task id — always, even
        on structure-only runs, since parents merge real values.
        """
        keep = self.keep_output
        if not keep and all(finals[:dispatched]):
            return
        merged = inputs.merge(self.b, scale_parts, dispatched,
                              self.semiring)
        output_rows = self.output_rows
        partial_fibers = self.partial_fibers
        start = 0
        for i in range(dispatched):
            if merged is None:
                fiber = Fiber.empty()
            else:
                out_coords, out_values, bounds = merged
                end = bounds[i]
                fiber = _make_fiber(out_coords[start:end],
                                    out_values[start:end])
                start = end
            if finals[i]:
                if keep:
                    output_rows[rows[i]] = fiber
            else:
                partial_fibers[ids[i]] = fiber

    # -- results ----------------------------------------------------------
    def c_nnz(self) -> int:
        return sum(self.output_len.values())


def multiply(
    a: CsrMatrix,
    b: CsrMatrix,
    config: Optional[GammaConfig] = None,
    program: Optional[WorkProgram] = None,
) -> SimulationResult:
    """Convenience one-shot simulation of C = A x B on Gamma."""
    return GammaSimulator(config).run(a, b, program=program)
