"""The Gamma accelerator simulator: data-oriented, epoch-batched core.

Functionally this is the same machine as
:mod:`repro.core.simulator_ref` — Gustavson spMspM with scheduler-driven
task trees, FiberCache line touches, a bandwidth-limited memory channel,
and the paper's PE timing law — and it is lockstep-tested to produce
bit-identical outputs, cycle counts, and traffic breakdowns. What
changed is the execution engine: instead of one Python
``_execute_task`` call, heap transaction, and dict update per task, the
run advances in *epochs*.

An epoch is a maximal run of dispatches whose order the reference event
loop would fix independently of task timing. Two stretch shapes
qualify. With no task tree in flight, the scheduler only expands
*simple* work items (untiled rows fitting the merger radix, each a
single final leaf task) and :meth:`EpochScheduler.drain_stretch`
extracts the whole cursor-consuming run. With trees in flight, the
ready run of level-0 leaves — final and non-final alike — executes as a
*fenced* epoch: the fence is the earliest instant a completion drain
could make a waiting parent ready (:meth:`EpochScheduler.fence_plan`),
dispatching stops when the PE-availability horizon reaches it, and each
non-final dispatch arms its parent and lowers the fence in place so the
stop condition stays exact. Either way the core works on
struct-of-arrays state:

* input gathering, B line ranges, and the PE timing law are evaluated
  as numpy arrays over the whole batch (``epoch_cycles``);
* every task's cache touches go through one
  ``FiberCache.fetch_read_epoch`` call (fenced epochs keep per-task
  ``fetch_read_range`` calls, so stopping at the fence leaves no
  phantom cache state);
* output fibers for the whole batch come from one composite-key merge
  kernel (stable argsort + group reduction), bit-matched to
  ``linear_combine``'s dict and array paths;
* memory charges whose completion times feed nothing (C writes,
  partial writebacks) are deferred and flushed in issue order via
  ``MemoryInterface.request_epoch``.

Interior merge tasks and root emits — the task-tree tail that used to
run scalar — execute as *cohort* epochs: when the ready head is an
interior task, the whole ready run of interior tasks drains
(:meth:`EpochScheduler.drain_ready_interiors`), the same fence plan
bounds how far dispatch order is timing-independent, and each task's
partial inputs are gathered into struct-of-arrays form at arming time
(coordinate/value arrays, line ranges, dependency readiness) so the
dispatch loop touches the FiberCache through batched
``consume_ranges`` / ``fetch_read_ranges`` calls and the composite-key
merge kernel combines partial-fiber and direct-B inputs for the whole
cohort at once. Root emits defer their C-write charges through
``request_epoch`` exactly like leaf epochs defer theirs. Only the
degenerate fence-at-entry case (unreachable by the fence invariant)
falls back to one scalar dispatch. Non-final tasks dispatched in any
fenced epoch keep the reference's side effects exactly: the
partial-output budget rises per dispatch (with the reference's
between-dispatch refill expansions replayed at the same budget
values), partial lines are allocated and written in dispatch order,
and completions enter the drain heap carrying the real task so parents
unblock identically.
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
from repro.core.simulator_ref import (_PARTIAL_BASE_LINE,  # noqa: F401
                                      ReferenceGammaSimulator,
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

    Built when a cohort first drains the task (all inputs are finished
    by then, so every array below is final): partial-fiber coordinate /
    value views and line ranges in input order, the dependency-readiness
    time, and the direct-B inputs' CSR layout. The cohort dispatch loop
    and combine kernel work entirely off these arrays — no fiber-object
    or ``TaskInput`` walks after arming.
    """

    __slots__ = ("deps", "p_ranges", "p_coord_parts", "p_value_parts",
                 "p_scales", "p_lens", "p_total", "deps_ready",
                 "b_starts", "b_nnzs", "b_scales", "b_ranges", "b_total")

    def __init__(self) -> None:
        self.deps: List[int] = []
        self.p_ranges: List = []
        self.p_coord_parts: List = []
        self.p_value_parts: List = []
        self.p_scales: List[float] = []
        self.p_lens: List[int] = []
        self.p_total = 0
        self.deps_ready = 0.0
        self.b_starts: List[int] = []
        self.b_nnzs: List[int] = []
        self.b_scales: List[float] = []
        self.b_ranges: List = []
        self.b_total = 0


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
    and overrides the main loop to carve timing-independent stretches
    into batched epochs.
    """

    def __init__(self, config, a, b, program, multi_pe, semiring=None,
                 trace=None, metrics=None, keep_output=True) -> None:
        super().__init__(config, a, b, program, multi_pe, semiring,
                         trace, metrics)
        # Same construction arguments as the base Scheduler: the epoch
        # variant is bit-neutral and only adds stretch extraction.
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
        #: Arming-time gather records for ready interior tasks, keyed by
        #: task id: partial-input SoA views, line ranges, dependency
        #: readiness, and direct-B layout. Built once when a cohort
        #: drains the task, reused across push-back re-drains, and
        #: popped at dispatch — interior gathering never walks fiber
        #: objects in the dispatch loop.
        self._cohort_gather: Dict[int, _InteriorGather] = {}

    # -- main loop --------------------------------------------------------
    def execute(self) -> None:
        """Epoch-batched list scheduling.

        Identical decision sequence to the reference event loop; whenever
        the loop reaches a dispatch point whose upcoming dispatch order
        is provably timing-independent (nothing waiting, final leaf at
        the head), the whole stretch executes as one epoch.
        """
        target_pending = 2 * self.config.num_pes
        completions: List = []
        sequence = 0
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
            if use_epochs:
                head = scheduler.peek_ready()
                if head is not None and head.level == 0:
                    if not scheduler.has_blocked_tasks():
                        # No task tree in flight: the head is usually a
                        # simple final leaf and the whole
                        # cursor-consuming stretch is
                        # timing-independent end to end. The head can
                        # still be a *non-final* level-0 leaf — a tiled
                        # row's part expanded before its siblings, so
                        # its combine parent does not exist yet — in
                        # which case the stretch is empty and the task
                        # takes the scalar path (what the reference
                        # event loop does with it).
                        batch = scheduler.drain_stretch(target_pending)
                        if batch[0]:
                            sequence = self._execute_epoch(
                                batch, completions, sequence)
                        else:
                            sequence = self._dispatch_scalar(
                                scheduler.next_task(), completions, sequence)
                        continue
                    entries = scheduler.drain_ready_leaves()
                    ids = [entry[1].task_id for entry in entries]
                    fence, waiters = scheduler.fence_plan(
                        self.finish_time, ids)
                    if fence == _INF and not waiters:
                        # Every drained leaf is final (a non-final leaf
                        # would put its armable parent in ``waiters``)
                        # and nothing armed can become ready mid-stretch
                        # (any unemitted combine still depends on an
                        # undispatched root), so the cursor fast path
                        # applies.
                        scheduler.push_back(entries)
                        batch = scheduler.drain_stretch(target_pending)
                        if batch[0]:
                            sequence = self._execute_epoch(
                                batch, completions, sequence)
                        else:
                            # Non-final level-0 head whose combine
                            # parent is not registered yet (tiled row,
                            # parts still on the cursor): scalar
                            # dispatch, as the reference does.
                            sequence = self._dispatch_scalar(
                                scheduler.next_task(), completions, sequence)
                    else:
                        new_sequence = self._execute_epoch_fenced(
                            entries, ids, fence, waiters, completions,
                            sequence, target_pending)
                        if new_sequence == sequence:
                            # Unreachable per the fence invariant (the
                            # fence clears the PE horizon at epoch
                            # entry); degrade to one scalar dispatch
                            # rather than spin.
                            sequence = self._dispatch_scalar(
                                scheduler.next_task(), completions, sequence)
                        else:
                            sequence = new_sequence
                    continue
                if head is not None:
                    # Interior cohort: the ready run of level >= 1 tasks
                    # whose inputs are all finished executes as one
                    # epoch under the same fence discipline.
                    new_sequence = self._execute_epoch_cohort(
                        completions, sequence, target_pending)
                    if new_sequence == sequence:
                        # Unreachable per the fence invariant (the
                        # fence clears the PE horizon at epoch entry);
                        # degrade to one scalar dispatch rather than
                        # spin.
                        sequence = self._dispatch_scalar(
                            scheduler.next_task(), completions, sequence)
                    else:
                        sequence = new_sequence
                    continue
            task = scheduler.next_task()
            if task is not None:
                sequence = self._dispatch_scalar(task, completions, sequence)
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

    # -- scalar-path hook -------------------------------------------------
    def _dispatch_scalar(self, task, completions: List,
                         sequence: int) -> int:
        """Scalar fallback: execute one task and queue its completion.

        Returns the next completion sequence number.
        """
        finish = self._execute_task(task)
        heapq.heappush(completions, (finish, sequence, task))
        return sequence + 1

    def _execute_task(self, task):
        # A task drained into a cohort but dispatched scalar (degenerate
        # fence fallback) must not leave a stale gather record behind.
        self._cohort_gather.pop(task.task_id, None)
        finish = super()._execute_task(task)
        if task.is_final:
            self.output_len[task.row] = len(self.output_rows[task.row])
        return finish

    # -- epoch execution --------------------------------------------------
    def _execute_epoch(self, batch, completions, sequence: int) -> int:
        """Execute one epoch of final-leaf tasks on array state.

        ``batch`` is the struct-of-arrays stretch from
        :meth:`EpochScheduler.drain_stretch`: parallel ``(rows,
        task_ids, coords, scales)`` sequences, one entry per dispatch.
        """
        rows, task_ids, coord_parts, scale_parts = batch
        offsets = self.b.offsets
        num_tasks = len(rows)
        counts = np.fromiter((len(part) for part in coord_parts),
                             dtype=np.int64, count=num_tasks)
        all_rows = (np.concatenate(coord_parts) if num_tasks > 1
                    else np.asarray(coord_parts[0], dtype=np.int64))
        row_start = offsets[all_rows]
        nnzs = offsets[all_rows + 1] - row_start

        # One fused fetch+read per B input, whole epoch in one call.
        start_bytes = row_start * ELEMENT_BYTES
        end_bytes = (row_start + nnzs) * ELEMENT_BYTES
        lows = start_bytes // LINE_BYTES
        highs = -(-end_bytes // LINE_BYTES)
        misses, dirties, occ_b, occ_p = self.cache.fetch_read_epoch(
            lows, highs, counts, "B")

        # PE timing law over the batch.
        input_first = np.empty(num_tasks, dtype=np.int64)
        input_first[0] = 0
        np.cumsum(counts[:-1], out=input_first[1:])
        input_task = np.repeat(np.arange(num_tasks, dtype=np.int64), counts)
        totals = np.add.reduceat(nnzs, input_first)
        cycles = epoch_cycles(totals)
        total_elements = int(totals.sum())
        self.flops += total_elements
        self.num_tasks += num_tasks
        self.dispatch_epoch += num_tasks

        out_lens = self._combine_epoch(
            rows, scale_parts, row_start, nnzs, input_task, input_first,
            counts, total_elements, num_tasks)

        # Bulk time advancement: earliest-free assignment per task, B
        # requests issued at dispatch, result-less charges deferred.
        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        trace = self.trace
        output_len = self.output_len
        heappush = heapq.heappush
        heappop = heapq.heappop
        cycle_list = cycles.tolist()
        len_list = out_lens.tolist()
        pending: List = []
        finishes: List[float] = []
        pe_busy = 0.0
        threshold = 0.0
        if trace is not None:
            from repro.core.trace import TaskEvent
        for i in range(num_tasks):
            row = rows[i]
            if multi:
                start, pe = heappop(pe_free)
                threshold = start
            else:
                while pe_free[0][0] != free_times[pe_free[0][1]]:
                    heappop(pe_free)
                threshold = pe_free[0][0]
                pe = row_pe.get(row)
                if pe is None:
                    pe = pe_free[0][1]
                    row_pe[row] = pe
                start = free_times[pe]
            miss = misses[i]
            cyc = cycle_list[i]
            if miss:
                if pending:
                    memory.request_epoch(pending)
                    pending = []
                data_ready = memory.request(
                    "B", miss * LINE_BYTES, start)
                finish = start + cyc
                if data_ready > finish:
                    finish = data_ready
            else:
                finish = start + cyc
            free_times[pe] = finish
            heappush(pe_free, (finish, pe))
            busy_cycles[pe] += cyc
            pe_busy += cyc
            out_len = len_list[i]
            output_len[row] = out_len
            pending.append(
                ("C", out_len * ELEMENT_BYTES + OFFSET_BYTES, finish))
            dirty = dirties[i]
            if dirty:
                pending.append(
                    ("partial_write", dirty * LINE_BYTES, finish))
            finishes.append(finish)
            if trace is not None:
                trace.record(TaskEvent(
                    task_id=task_ids[i],
                    row=row,
                    level=0,
                    is_final=True,
                    pe=pe,
                    start=start,
                    finish=finish,
                    busy_cycles=cyc,
                    b_miss_lines=miss,
                    partial_miss_lines=0,
                ))
        if pending:
            memory.request_epoch(pending)
        self.pe_busy += pe_busy
        self.cache.sample_utilization_epoch(occ_b, occ_p, cycle_list)
        # Catch up the completion drains the reference loop performed
        # during the stretch: everything finishing by the PE-availability
        # horizon it saw before the last dispatch is already completed.
        # Epoch tasks are final leaves — completing one is pure
        # bookkeeping (final ids are never consulted by a dependency
        # scan) — so drained epoch completions vanish outright and only
        # the still-in-flight tail enters the completions heap.
        scheduler = self.scheduler
        while completions and completions[0][0] <= threshold:
            _, _, done = heappop(completions)
            if done is not None:
                scheduler.task_completed(done)
        for i in range(num_tasks):
            finish = finishes[i]
            if finish > threshold:
                heappush(completions, (finish, sequence + i, None))
        return sequence + num_tasks

    def _execute_epoch_fenced(self, entries, ids, fence: float, waiters,
                              completions, sequence: int,
                              target_pending: int) -> int:
        """Execute a leaf stretch bounded by a ready-fence.

        With task trees in flight, the reference loop keeps dispatching
        level-0 leaves back-to-back until its PE-availability horizon
        reaches the *fence* — the earliest time a completion drain can
        make a waiting parent ready (``EpochScheduler.fence_plan``), at
        which point the parent preempts every later-ordered leaf. This
        path batches exactly that run: cache touches stay per-task (so
        stopping at the fence leaves no phantom state) while input
        gathering, output lengths, and the merge kernel run vectorized;
        the undispatched suffix returns to the ready heap verbatim.

        Both final leaves and non-final tree leaves dispatch here.
        A non-final leaf allocates and writes its partial-fiber lines in
        dispatch order (bit-identical cache evolution), records its
        finish for dependants, and folds that finish into the
        ``waiters`` records of parents it helps arm — lowering the
        fence on the spot, so the stop condition stays exact while the
        stretch itself changes which parents are armed. Its completion
        enters the heap carrying the real task so the drain unblocks
        the parent exactly like the reference loop's.

        ``entries`` are the raw heap entries from
        ``drain_ready_leaves``; ``ids`` their task ids in order.
        """
        num_batch = len(entries)
        offsets = self.b.offsets
        tasks = [entry[1] for entry in entries]
        rows = [task.row for task in tasks]
        finals = [task.is_final for task in tasks]
        coord_parts = []
        scale_parts = []
        for task in tasks:
            coords = getattr(task, "b_coords", None)
            if coords is None:
                # Tree leaf: materialize the TaskInput list once as
                # arrays (all inputs are B rows at level 0).
                inputs = task.inputs
                n = len(inputs)
                coords = np.fromiter((inp.index for inp in inputs),
                                     dtype=np.int64, count=n)
                scales = np.fromiter((inp.scale for inp in inputs),
                                     dtype=np.float64, count=n)
            else:
                scales = task.b_scales
            coord_parts.append(coords)
            scale_parts.append(scales)
        counts = np.fromiter((len(part) for part in coord_parts),
                             dtype=np.int64, count=num_batch)
        all_rows = (np.concatenate(coord_parts) if num_batch > 1
                    else np.asarray(coord_parts[0], dtype=np.int64))
        row_start = offsets[all_rows]
        nnzs = offsets[all_rows + 1] - row_start
        start_bytes = row_start * ELEMENT_BYTES
        end_bytes = (row_start + nnzs) * ELEMENT_BYTES
        lows = (start_bytes // LINE_BYTES).tolist()
        highs = (-(-end_bytes // LINE_BYTES)).tolist()

        input_first = np.empty(num_batch, dtype=np.int64)
        input_first[0] = 0
        np.cumsum(counts[:-1], out=input_first[1:])
        input_task = np.repeat(np.arange(num_batch, dtype=np.int64), counts)
        totals = np.add.reduceat(nnzs, input_first)
        cycle_list = epoch_cycles(totals).tolist()
        total_elements = int(totals.sum())

        # Output lengths for the whole chunk up front (value-independent,
        # needed in-loop to size each C write before the next flush).
        if total_elements:
            block_start = np.cumsum(nnzs) - nnzs
            gather = np.arange(total_elements, dtype=np.int64)
            gather += np.repeat(row_start - block_start, nnzs)
            el_task = np.repeat(input_task, nnzs)
            _, _, out_lens = epoch_merge_groups(
                el_task, self.b.coords[gather], self.b.num_cols, num_batch)
            len_list = out_lens.tolist()
        else:
            len_list = [0] * num_batch

        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        cache = self.cache
        fetch = cache.fetch_read_range
        write = cache.write_range
        sample = cache.sample_utilization
        allocate = self._allocate_partial_lines
        partial_lines = self.partial_lines
        finish_time = self.finish_time
        trace = self.trace
        output_len = self.output_len
        scheduler = self.scheduler
        refill_epoch = scheduler.refill_epoch
        heappush = heapq.heappush
        heappop = heapq.heappop
        first_list = input_first.tolist()
        count_list = counts.tolist()
        pending: List = []
        finishes: List[float] = []
        pe_busy = 0.0
        threshold = 0.0
        dispatched = num_batch
        # Chunks that dispatch non-final leaves move the partial-output
        # budget, which gates the reference loop's between-dispatch
        # refills; replay those refills in-loop so an expansion the
        # reference performed (or skipped) right at the budget edge
        # lands identically. All-final chunks leave the budget static,
        # so their refills defer to the main loop unchanged.
        needs_refill = not all(finals)
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
            miss = 0
            dirty = 0
            base = first_list[i]
            for j in range(base, base + count_list[i]):
                got_miss, got_dirty = fetch(lows[j], highs[j], "B")
                miss += got_miss
                dirty += got_dirty
            cyc = cycle_list[i]
            if miss:
                if pending:
                    memory.request_epoch(pending)
                    pending = []
                data_ready = memory.request("B", miss * LINE_BYTES, start)
                finish = start + cyc
                if data_ready > finish:
                    finish = data_ready
            else:
                finish = start + cyc
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
                records = waiters.get(tid)
                if records is not None:
                    for record in records:
                        if finish > record[1]:
                            record[1] = finish
                        record[0] -= 1
                        if record[0] == 0 and record[1] < fence:
                            fence = record[1]
            if dirty:
                pending.append(
                    ("partial_write", dirty * LINE_BYTES, finish))
            finishes.append(finish)
            sample(weight=cyc)
            if trace is not None:
                trace.record(TaskEvent(
                    task_id=ids[i],
                    row=row,
                    level=0,
                    is_final=finals[i],
                    pe=pe,
                    start=start,
                    finish=finish,
                    busy_cycles=cyc,
                    b_miss_lines=miss,
                    partial_miss_lines=0,
                ))
            if needs_refill:
                refill_epoch(target_pending, num_batch - i - 1)
        if pending:
            memory.request_epoch(pending)
        if dispatched < num_batch:
            scheduler.push_back(entries[dispatched:])
        if dispatched:
            if dispatched == num_batch:
                prefix_inputs = len(nnzs)
                prefix_elements = total_elements
            else:
                prefix_inputs = int(first_list[dispatched])
                prefix_elements = int(totals[:dispatched].sum())
            self.flops += prefix_elements
            self.num_tasks += dispatched
            self.dispatch_epoch += dispatched
            self.pe_busy += pe_busy
            dispatched_finals = finals[:dispatched]
            # Non-final leaves need their partial fibers materialized
            # even on structure-only runs: parents merge real values.
            if self.keep_output or not all(dispatched_finals):
                self._combine_epoch(
                    rows[:dispatched], scale_parts[:dispatched],
                    row_start[:prefix_inputs], nnzs[:prefix_inputs],
                    input_task[:prefix_inputs], input_first[:dispatched],
                    counts[:dispatched], prefix_elements, dispatched,
                    finals=dispatched_finals, ids=ids[:dispatched])
        # Catch up the completion drains the reference loop performed
        # during the stretch, in its exact (finish, sequence) order:
        # merge the stretch's own completions into the heap first, then
        # drain everything up to the horizon it saw before the last
        # dispatch. Drained finals vanish (their ids are never consulted
        # by a dependency scan); drained tree leaves unblock their
        # parents — by the fence invariant none of those parents can
        # have become ready at or below ``threshold``, so deferring the
        # drains to the epoch boundary is order-equivalent.
        for i in range(dispatched):
            heappush(completions, (finishes[i], sequence + i,
                                   None if finals[i] else tasks[i]))
        while completions and completions[0][0] <= threshold:
            _, _, done = heappop(completions)
            if done is not None:
                scheduler.task_completed(done)
        return sequence + dispatched

    # -- interior cohorts --------------------------------------------------
    def _gather_interior(self, task) -> _InteriorGather:
        """Build (or fetch) the arming-time gather record of one interior task.

        Side-effect free: partial fibers are referenced, not popped, and
        no reference-path memo entries are created — a record built when
        a cohort first drains the task stays valid across push-back
        re-drains (dependency finish times and partial fibers are
        immutable once set) and is discharged only at dispatch.
        """
        memo = self._cohort_gather
        record = memo.get(task.task_id)
        if record is not None:
            return record
        record = _InteriorGather()
        offsets = self.b.offsets
        semiring = self.semiring
        finish_time = self.finish_time
        partial_fibers = self.partial_fibers
        partial_lines = self.partial_lines
        deps_ready = 0.0
        for inp in task.inputs:
            if inp.kind == "B":
                row = inp.index
                start = int(offsets[row])
                end = int(offsets[row + 1])
                record.b_starts.append(start)
                record.b_nnzs.append(end - start)
                record.b_scales.append(inp.scale)
                record.b_ranges.append(
                    ((start * ELEMENT_BYTES) // LINE_BYTES,
                     -(-(end * ELEMENT_BYTES) // LINE_BYTES)))
                record.b_total += end - start
            else:
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
        memo[task.task_id] = record
        return record

    @staticmethod
    def _cohort_coords(b, p_coord_parts, b_starts, b_nnzs):
        """Coordinate stream of a cohort's two-block element layout.

        All partial-input elements first (task order, input order within
        each task), then all direct-B elements likewise. Because
        ``build_task_tree`` puts partial inputs ahead of direct B rows
        in every interior task, a stable composite-key sort over this
        layout keeps (task, coordinate) ties in exact task input order.
        Returns ``(el_coords, gather)`` with ``gather`` the B-element
        index vector for the matching value gather.
        """
        if p_coord_parts:
            p_coords = (np.concatenate(p_coord_parts)
                        if len(p_coord_parts) > 1
                        else np.asarray(p_coord_parts[0]))
        else:
            p_coords = np.empty(0, dtype=np.int64)
        nnz_arr = np.asarray(b_nnzs, dtype=np.int64)
        b_total = int(nnz_arr.sum())
        if b_total:
            starts_arr = np.asarray(b_starts, dtype=np.int64)
            block_start = np.cumsum(nnz_arr) - nnz_arr
            gather = np.arange(b_total, dtype=np.int64)
            gather += np.repeat(starts_arr - block_start, nnz_arr)
            b_coords = b.coords[gather]
        else:
            gather = np.empty(0, dtype=np.int64)
            b_coords = np.empty(0, dtype=np.int64)
        if not b_total:
            return p_coords, gather
        if not len(p_coords):
            return b_coords, gather
        return np.concatenate((p_coords, b_coords)), gather

    def _execute_epoch_cohort(self, completions, sequence: int,
                              target_pending: int) -> int:
        """Execute a ready cohort of interior tasks as one fenced epoch.

        The interior analogue of :meth:`_execute_epoch_fenced`: the
        ready run of level >= 1 tasks — every input already dispatched
        and finished — dispatches back-to-back in the reference loop's
        exact heap order until its PE-availability horizon reaches the
        cohort fence (``fence_plan`` with the drained interior ids in
        the leaf role), where a not-yet-drained completion could ready
        a new task that preempts the remainder. Input gathering comes
        from the arming-time :class:`_InteriorGather` records (no fiber
        walks in the loop), output lengths from one structure pass of
        the composite-key kernel, cache touches stay per-task in exact
        scalar order (partial consumes first, then B fetches, matching
        task input order), and result-less DRAM charges defer through
        ``request_epoch``. Dispatching an interior task always moves
        the partial budget (it consumes partials; non-finals also
        produce one), so the reference's between-dispatch refill gate
        replays after every dispatch. The undispatched suffix returns
        to the ready heap verbatim.
        """
        scheduler = self.scheduler
        entries = scheduler.drain_ready_interiors()
        num_batch = len(entries)
        tasks = [entry[1] for entry in entries]
        ids = [task.task_id for task in tasks]
        fence, waiters = scheduler.fence_plan(self.finish_time, ids)
        records = [self._gather_interior(task) for task in tasks]

        # Structure pass over the whole cohort up front (value-free,
        # needed in-loop to size partial allocations and C writes).
        b = self.b
        task_index = np.arange(num_batch, dtype=np.int64)
        p_counts = np.fromiter((r.p_total for r in records),
                               dtype=np.int64, count=num_batch)
        b_counts = np.fromiter((r.b_total for r in records),
                               dtype=np.int64, count=num_batch)
        p_coord_parts: List = []
        b_starts: List[int] = []
        b_nnzs: List[int] = []
        for record in records:
            p_coord_parts.extend(record.p_coord_parts)
            b_starts.extend(record.b_starts)
            b_nnzs.extend(record.b_nnzs)
        el_coords, _ = self._cohort_coords(b, p_coord_parts,
                                           b_starts, b_nnzs)
        el_task = np.concatenate((np.repeat(task_index, p_counts),
                                  np.repeat(task_index, b_counts)))
        _, _, out_lens = epoch_merge_groups(
            el_task, el_coords, b.num_cols, num_batch)
        len_list = out_lens.tolist()
        totals = p_counts + b_counts
        cycle_list = epoch_cycles(totals).tolist()

        multi = self.multi_pe
        pe_free = self.pe_free
        free_times = self.pe_free_times
        busy_cycles = self.pe_busy_cycles
        row_pe = self.row_pe
        memory = self.memory
        cache = self.cache
        consume = cache.consume_ranges
        fetch = cache.fetch_read_ranges
        write = cache.write_range
        sample = cache.sample_utilization
        allocate = self._allocate_partial_lines
        partial_fibers = self.partial_fibers
        partial_lines = self.partial_lines
        finish_time = self.finish_time
        trace = self.trace
        output_len = self.output_len
        refill_epoch = scheduler.refill_epoch
        partial_consumed = scheduler.partial_consumed
        gather_memo = self._cohort_gather
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
            task = tasks[i]
            row = task.row
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
            record = records[i]
            if record.deps_ready > start:
                start = record.deps_ready
            # Inputs in task order: partial consumes first (they precede
            # direct B rows in ``task.inputs``), then B fetches — the
            # scalar input loop's exact cache touch sequence.
            for dep in record.deps:
                del partial_fibers[dep]
                del partial_lines[dep]
            p_miss, _ = consume(record.p_ranges)
            if record.deps:
                partial_consumed(len(record.deps))
            if record.b_ranges:
                b_miss, dirty = fetch(record.b_ranges, "B")
            else:
                b_miss = 0
                dirty = 0
            cyc = cycle_list[i]
            if b_miss or p_miss:
                if pending:
                    memory.request_epoch(pending)
                    pending = []
                data_ready = start
                if b_miss:
                    got = memory.request("B", b_miss * LINE_BYTES, start)
                    if got > data_ready:
                        data_ready = got
                if p_miss:
                    got = memory.request(
                        "partial_read", p_miss * LINE_BYTES, start)
                    if got > data_ready:
                        data_ready = got
                finish = start + cyc
                if data_ready > finish:
                    finish = data_ready
            else:
                finish = start + cyc
            free_times[pe] = finish
            heappush(pe_free, (finish, pe))
            busy_cycles[pe] += cyc
            pe_busy += cyc
            out_len = len_list[i]
            tid = ids[i]
            if task.is_final:
                output_len[row] = out_len
                pending.append(
                    ("C", out_len * ELEMENT_BYTES + OFFSET_BYTES, finish))
            else:
                self.num_partials += 1
                # Mirror ``Scheduler.next_task``: dispatching a
                # non-final task brings one more partial output fiber
                # into existence (Sec. 3.4 budget).
                scheduler.outstanding_partials += 1
                lines = allocate(out_len)
                partial_lines[tid] = lines
                _, write_dirty = write(lines[0], lines[1], "partial")
                dirty += write_dirty
                arming = waiters.get(tid)
                if arming is not None:
                    for rec in arming:
                        if finish > rec[1]:
                            rec[1] = finish
                        rec[0] -= 1
                        if rec[0] == 0 and rec[1] < fence:
                            fence = rec[1]
            finish_time[tid] = finish
            if dirty:
                pending.append(
                    ("partial_write", dirty * LINE_BYTES, finish))
            finishes.append(finish)
            sample(weight=cyc)
            if trace is not None:
                trace.record(TaskEvent(
                    task_id=tid,
                    row=row,
                    level=task.level,
                    is_final=task.is_final,
                    pe=pe,
                    start=start,
                    finish=finish,
                    busy_cycles=cyc,
                    b_miss_lines=b_miss,
                    partial_miss_lines=p_miss,
                ))
            del gather_memo[tid]
            refill_epoch(target_pending, num_batch - i - 1)
        if pending:
            memory.request_epoch(pending)
        if dispatched < num_batch:
            scheduler.push_back(entries[dispatched:])
        if dispatched:
            self.flops += int(totals[:dispatched].sum())
            self.num_tasks += dispatched
            self.dispatch_epoch += dispatched
            self.pe_busy += pe_busy
            self._combine_cohort(records, tasks, ids, dispatched)
        # Completion catch-up in exact (finish, sequence) order, as in
        # the fenced leaf path: drained root emits vanish (final ids
        # are never consulted by a dependency scan); drained interior
        # partials unblock their parents — by the fence invariant none
        # of those parents can have become ready at or below
        # ``threshold``, so boundary drains are order-equivalent.
        for i in range(dispatched):
            heappush(completions, (finishes[i], sequence + i,
                                   None if tasks[i].is_final else tasks[i]))
        while completions and completions[0][0] <= threshold:
            _, _, done = heappop(completions)
            if done is not None:
                scheduler.task_completed(done)
        return sequence + dispatched

    def _combine_cohort(self, records, tasks, ids, dispatched: int) -> None:
        """Merge the dispatched cohort prefix in one composite-key kernel.

        The value-side twin of the cohort structure pass: rebuild the
        prefix's two-block element stream, scale it (partials pass
        through at the semiring's multiplicative identity), sort once,
        reduce per group. Bit-matched to ``linear_combine`` exactly as
        :meth:`_combine_epoch` is, including the single-nonempty-input
        ``fiber.scale`` replay that preserves IEEE signed zeros.
        """
        finals = [task.is_final for task in tasks[:dispatched]]
        if not self.keep_output and all(finals):
            return
        b = self.b
        semiring = self.semiring
        prefix = records[:dispatched]
        rows = [task.row for task in tasks[:dispatched]]
        p_coord_parts: List = []
        p_value_parts: List = []
        p_scales: List[float] = []
        p_lens: List[int] = []
        b_starts: List[int] = []
        b_nnzs: List[int] = []
        b_scales: List[float] = []
        for record in prefix:
            p_coord_parts.extend(record.p_coord_parts)
            p_value_parts.extend(record.p_value_parts)
            p_scales.extend(record.p_scales)
            p_lens.extend(record.p_lens)
            b_starts.extend(record.b_starts)
            b_nnzs.extend(record.b_nnzs)
            b_scales.extend(record.b_scales)
        p_counts = np.fromiter((r.p_total for r in prefix),
                               dtype=np.int64, count=dispatched)
        b_counts = np.fromiter((r.b_total for r in prefix),
                               dtype=np.int64, count=dispatched)
        total = int(p_counts.sum()) + int(b_counts.sum())
        if total == 0:
            self._store_epoch_outputs(rows, finals, ids[:dispatched],
                                      lambda i: Fiber.empty())
            return
        el_coords, gather = self._cohort_coords(b, p_coord_parts,
                                                b_starts, b_nnzs)
        task_index = np.arange(dispatched, dtype=np.int64)
        el_task = np.concatenate((np.repeat(task_index, p_counts),
                                  np.repeat(task_index, b_counts)))
        order, flags, out_lens = epoch_merge_groups(
            el_task, el_coords, b.num_cols, dispatched)
        if p_value_parts:
            p_values = (np.concatenate(p_value_parts)
                        if len(p_value_parts) > 1
                        else np.asarray(p_value_parts[0], dtype=np.float64))
            p_el_scales = np.repeat(
                np.asarray(p_scales, dtype=np.float64),
                np.asarray(p_lens, dtype=np.int64))
        else:
            p_values = np.empty(0, dtype=np.float64)
            p_el_scales = np.empty(0, dtype=np.float64)
        b_el_values = b.values[gather]
        b_el_scales = np.repeat(np.asarray(b_scales, dtype=np.float64),
                                np.asarray(b_nnzs, dtype=np.int64))
        el_values = np.concatenate((p_values, b_el_values))
        el_scales = np.concatenate((p_el_scales, b_el_scales))
        arithmetic = semiring is None or semiring.is_arithmetic
        if arithmetic:
            sorted_values = (el_values * el_scales)[order]
        else:
            products = np.asarray(
                semiring.mul_array(el_scales, el_values), dtype=np.float64)
            sorted_values = products[order]
        out_values = accumulate_groups(sorted_values, flags, semiring)
        out_coords = el_coords[order][flags]
        bounds = np.cumsum(out_lens)
        task_start = bounds - out_lens
        if arithmetic:
            # linear_combine's single-nonempty shortcut scales the fiber
            # directly, with no zero-started fold; replay it so -0.0
            # products survive bit-for-bit.
            b_values = b.values
            for t, record in enumerate(prefix):
                nonempty = 0
                for n in record.p_lens:
                    if n:
                        nonempty += 1
                for n in record.b_nnzs:
                    if n:
                        nonempty += 1
                if nonempty != 1:
                    continue
                span = None
                for j, n in enumerate(record.p_lens):
                    if n:
                        span = record.p_value_parts[j] * record.p_scales[j]
                        break
                if span is None:
                    for j, n in enumerate(record.b_nnzs):
                        if n:
                            lo = record.b_starts[j]
                            span = b_values[lo:lo + n] * record.b_scales[j]
                            break
                out_values[task_start[t]:bounds[t]] = span
        task_bounds = bounds
        self._store_epoch_outputs(
            rows, finals, ids[:dispatched],
            lambda i: _make_fiber(out_coords[task_start[i]:task_bounds[i]],
                                  out_values[task_start[i]:task_bounds[i]]))

    def _combine_epoch(self, rows, scale_parts, row_start, nnzs, input_task,
                       input_first, counts, total: int, num_tasks: int,
                       finals=None, ids=None):
        """Merge every task's B rows in one composite-key kernel.

        Bit-matched to ``linear_combine``: the composite key
        ``task * num_cols + coord`` makes one stable argsort order all
        tasks' elements by (task, coordinate) with ties in input order,
        so per-group reduction reproduces the scalar fold exactly —
        zero-started ``np.bincount`` for arithmetic, first-element
        ``add_ufunc.reduceat`` for semirings. Single-nonempty-input
        tasks mirror the ``fiber.scale`` shortcut (a direct product,
        no zero start) to preserve IEEE signed zeros.

        With ``finals``/``ids`` (the fenced mixed path), each task's
        fiber routes by kind: final rows to ``output_rows`` (under
        ``keep_output``), tree-leaf partials to ``partial_fibers``
        under their task id — always, since parents merge real values.
        Without them every task is a final row. Returns the per-task
        output lengths.
        """
        b = self.b
        if finals is None:
            need_values = self.keep_output
        else:
            need_values = self.keep_output or not all(finals)
        if total == 0:
            if need_values:
                self._store_epoch_outputs(
                    rows, finals, ids,
                    lambda i: Fiber.empty())
            return np.zeros(num_tasks, dtype=np.int64)
        block_start = np.cumsum(nnzs) - nnzs
        gather = np.arange(total, dtype=np.int64)
        gather += np.repeat(row_start - block_start, nnzs)
        el_coords = b.coords[gather]
        el_task = np.repeat(input_task, nnzs)
        order, flags, out_lens = epoch_merge_groups(
            el_task, el_coords, b.num_cols, num_tasks)
        if not need_values:
            return out_lens
        all_scales = (np.concatenate(scale_parts) if num_tasks > 1
                      else np.asarray(scale_parts[0], dtype=np.float64))
        el_scales = np.repeat(all_scales, nnzs)
        el_values = b.values[gather]
        out_coords = el_coords[order][flags]
        semiring = self.semiring
        arithmetic = semiring is None or semiring.is_arithmetic
        if arithmetic:
            sorted_values = (el_values * el_scales)[order]
        else:
            products = np.asarray(
                semiring.mul_array(el_scales, el_values), dtype=np.float64)
            sorted_values = products[order]
        out_values = accumulate_groups(sorted_values, flags, semiring)
        bounds = np.cumsum(out_lens)
        task_start = bounds - out_lens
        if arithmetic:
            # linear_combine's single-nonempty shortcut scales the fiber
            # directly, with no zero-started fold; replay it so -0.0
            # products survive bit-for-bit.
            nonempty = np.bincount(input_task[nnzs > 0],
                                   minlength=num_tasks)
            b_values = b.values
            nnz_list = nnzs
            for t in np.flatnonzero(nonempty == 1).tolist():
                first = input_first[t]
                span = np.flatnonzero(
                    nnz_list[first:first + counts[t]] > 0)
                j = first + span[0]
                lo = row_start[j]
                out_values[task_start[t]:bounds[t]] = (
                    b_values[lo:lo + nnz_list[j]] * all_scales[j])
        task_bounds = bounds
        self._store_epoch_outputs(
            rows, finals, ids,
            lambda i: _make_fiber(out_coords[task_start[i]:task_bounds[i]],
                                  out_values[task_start[i]:task_bounds[i]]))
        return out_lens

    def _store_epoch_outputs(self, rows, finals, ids, make_fiber) -> None:
        """Route each epoch task's fiber to its destination store."""
        output_rows = self.output_rows
        if finals is None:
            for i, row in enumerate(rows):
                output_rows[row] = make_fiber(i)
            return
        partial_fibers = self.partial_fibers
        keep = self.keep_output
        for i, row in enumerate(rows):
            if finals[i]:
                if keep:
                    output_rows[row] = make_fiber(i)
            else:
                partial_fibers[ids[i]] = make_fiber(i)

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
