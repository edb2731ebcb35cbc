"""Vectorized sender bank for the fixed-step DCQCN engine.

:class:`SenderBank` is the engine behind
:meth:`repro.cc.dcqcn.DcqcnFluidSimulator.run`. It holds every sender's
DCQCN rate-machine state (current/target rate, alpha, byte/timer
accumulators, increase-stage counters, CNP gating clocks) in
structure-of-arrays form and advances the whole bank over the
simulator's :class:`repro.cc.link_engine.LinkFabric` — a links x
senders incidence, of which the single-bottleneck dumbbell is the
1-link case. Marking randomness is pre-drawn in chunks from each
sender's generator (:class:`UniformChunks`). Four mechanisms make it
fast while keeping every observable output (rate series, queue series,
job timelines, bytes/remaining, CNP counts, RNG stream position)
*bit-identical* to the scalar oracle
:func:`repro.cc.link_engine.run_scalar_fabric`:

* **Deterministic span advancement** — a tick is deterministic when no
  CNP can possibly arrive on it: either every link's queue sits at or
  below the marker's ``kmin`` (marking probability exactly zero) or
  every active sender is still inside its CNP gating window (``now``
  before ``_next_cnp_time``, so the scalar sender early-outs before
  drawing). Over a run of such ticks each sender evolves as a
  piecewise-constant left fold punctuated by byte/timer increase events
  at exactly computable ticks. :meth:`_plan_sender` walks that
  evolution segment by segment — ``np.cumsum`` evaluates the folds
  sequentially in C, bit-identical to the per-tick ``+=``, and the
  event while-loops run in exact scalar order at the crossing tick — so
  one span can jump hundreds of ticks *through* increase events, not
  just up to the next one. Each link's queue trajectory is the exact
  fold of its senders' planned arrivals (slot order) with the single
  drain-clamp episode applied in closed form (arrivals are
  nondecreasing between CNPs, so at most one clamp episode exists), and
  the span is cut at the earliest violation across all links.
* **Idle fast-forward** — when every source is computing (or done)
  the clock jumps to the earliest next burst start exposed by
  :class:`repro.core.lifecycle.OnOffSource` deadlines, the queues
  drain in closed form and the skipped sample rows are synthesized
  exactly.
* **One per-tick kernel** — stochastic ticks (a queue above ``kmin``
  with a CNP-eligible sender) run a single flat pass over the bank with
  hoisted locals and an inlined queue/RED-marker update. Blocking and
  the marking maximum of each distinct multi-link route are computed
  once per tick, not per sender; a 1-link route reads its link
  directly. PFC pauses and fault windows with a failed or storming
  link run through this kernel too.
* **One control loop, two servers** — :meth:`SenderBank.drive` is the
  window/span loop as a generator that yields each stochastic stretch:
  a solo :meth:`SenderBank.run` serves it with :meth:`_tick_run`, and
  :class:`repro.cc.grid_bank.GridBank` serves it with its stacked
  multi-run kernel.

Randomness stays DET001-clean: chunks are drawn from the same
generators the scalar oracle would use, and :meth:`UniformChunks.rewind`
repositions each generator to the exact state the equivalent sequence
of scalar ``rng.random()`` calls would have left, so callers that reuse
a generator after ``run()`` (e.g. the runner's fluid backend running
several scenarios over shared streams) observe identical draws.

:meth:`SenderBank.build` accepts :class:`repro.cc.dcqcn.DcqcnSender`
and :class:`repro.cc.dcqcn.OnOffDcqcnJob` sources under a plain
:class:`repro.switches.ecn.RedEcnMarker` (exact types, no subclasses)
and returns ``None`` for anything else, which the simulator then runs
through the scalar loop.

One documented deviation: senders pinned at line rate (``rate`` and
``target_rate`` both at ``line_rate``) have increase events that are
exact no-ops on their rates, and their byte/timer accumulators and
stage counters are dead state until the next CNP resets them. Spans
therefore fold those accumulators without the wrap-around while-loops.
Every externally observable quantity is still bit-identical; only the
private ``_byte_accum``/``_timer_accum``/``_*_stage`` fields of a
line-pinned sender may differ from the scalar oracle's at the instant
``run()`` returns, and they re-converge on the next CNP.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Generator, List, Optional, Tuple

import numpy as np

from ..core.lifecycle import OnOffSource
from ..faults.runtime import (
    MODE_FREEZE,
    MODE_NORMAL,
    MODE_STORM,
    link_capacity_windows,
)
from ..switches.ecn import RedEcnMarker
from .dcqcn import DcqcnResult, DcqcnSender, OnOffDcqcnJob
from .link_engine import _SampleBuffer

#: Request a :meth:`SenderBank.drive` loop yields for one stochastic
#: stretch: ``(tick, stop, retry_at)``.
TickRequest = Tuple[int, int, int]

#: Minimum profitable deterministic span, ticks. Shorter spans fall back
#: to the per-tick kernel: planning a span costs more than stepping a
#: few ticks directly.
MIN_SPAN = 8

#: Longest span planned at once, ticks. Bounds the planning work thrown
#: away when a span is cut short by a queue/eligibility violation;
#: longer stretches simply chain several spans.
MAX_HORIZON = 256

#: Ticks to wait before re-attempting a span after a failed attempt.
#: Purely a cost heuristic — span boundaries never change results.
TICK_RETRY = 4

#: Safety margin (ticks) subtracted from analytic event estimates before
#: the exact upward scan; covers float rounding in the estimates.
SPAN_MARGIN = 2


class UniformChunks:
    """Chunked uniform draws from one generator, exactly replayable.

    The kernels read ``_buf[_pos]`` and bump ``_pos``/``_consumed``
    inline, calling :meth:`refill` when the buffer runs out: the buffers
    concatenate to the same sequence as repeated ``rng.random()`` calls
    (numpy fills ``random(n)`` with the identical stream), but the
    generator call overhead is amortized over whole chunks. Chunks start
    small and double up to :attr:`MAX_CHUNK`, so a stream that draws a
    few dozen times does not pay for thousands. :meth:`take` hands out a
    block of the stream as an array, counted as consumed, for a kernel
    that keeps its own table of draws; that kernel takes the block's
    unread end out of ``_consumed`` before the stream rewinds.
    :meth:`rewind` restores the generator to the state the equivalent
    number of scalar draws would have produced, discarding the unused
    tail of the final chunk.
    """

    __slots__ = ("_rng", "_chunk", "_buf", "_pos", "_consumed", "_state0")

    #: Largest chunk drawn at once.
    MAX_CHUNK = 4096

    def __init__(self, rng: np.random.Generator, chunk: int = 64) -> None:
        self._rng = rng
        self._chunk = chunk
        self._buf: List[float] = []
        self._pos = 0
        self._consumed = 0
        self._state0 = None

    def refill(self) -> List[float]:
        """Draw the next chunk into ``_buf`` (with ``_pos`` reset)."""
        if self._state0 is None:
            self._state0 = self._rng.bit_generator.state
        self._buf = self._rng.random(self._chunk).tolist()
        self._pos = 0
        if self._chunk < UniformChunks.MAX_CHUNK:
            self._chunk *= 2
        return self._buf

    def take(self, n: int) -> np.ndarray:
        """The next ``n`` draws as an array, counted as consumed: the
        unread buffer first, then fresh draws from the generator."""
        pos = self._pos
        head = self._buf[pos:pos + n]
        self._pos = pos + len(head)
        self._consumed += n
        if len(head) == n:
            return np.array(head)
        if self._state0 is None:
            self._state0 = self._rng.bit_generator.state
        fresh = self._rng.random(n - len(head))
        return np.concatenate((head, fresh)) if head else fresh

    def rewind(self) -> None:
        """Leave the generator exactly ``consumed`` scalar draws ahead."""
        if self._state0 is None:
            return
        self._rng.bit_generator.state = self._state0
        if self._consumed:
            self._rng.random(self._consumed)
        self._state0 = None
        self._buf = []
        self._pos = 0
        self._consumed = 0


# ---------------------------------------------------------------------------
# Exact fold helpers
# ---------------------------------------------------------------------------

def fold_last(x0: float, delta: float, n: int) -> float:
    """Value of ``x`` after ``n`` sequential ``x += delta`` updates.

    ``np.cumsum`` accumulates left-to-right, so the result is
    bit-identical to the per-tick Python fold.
    """
    if n <= 0:
        return x0
    arr = np.empty(n + 1)
    arr[0] = x0
    arr[1:] = delta
    return float(arr.cumsum()[-1])


def fold_traj(x0: float, delta: float, n: int) -> np.ndarray:
    """All ``n + 1`` fold values ``x0, x0+delta, ...`` (sequential)."""
    arr = np.empty(n + 1)
    arr[0] = x0
    arr[1:] = delta
    return arr.cumsum()


def clamp_drain(traj: np.ndarray) -> np.ndarray:
    """Apply the queue's ``max(0, .)`` clamp to a draining fold in place.

    Once the exact fold first goes negative the scalar queue pins the
    occupancy at ``0.0`` and every later draining step keeps it there,
    so zeroing the tail reproduces the per-tick clamp bit-for-bit.
    """
    below = np.nonzero(traj < 0.0)[0]
    if below.size:
        traj[below[0]:] = 0.0
    return traj


def activation_tick(deadline: float, dt: float) -> int:
    """First tick index ``j >= 0`` with ``j*dt + dt >= deadline``.

    This is the exact float predicate :class:`OnOffSource` evaluates, so
    the fast-forwarded clock lands on the same activation tick as the
    dt-by-dt loop. The analytic estimate only seeds a short upward scan.
    """
    est = int(math.ceil(deadline / dt)) - (SPAN_MARGIN + 1)
    j = est if est > 0 else 0
    while j * dt + dt < deadline:
        j += 1
    return j


def sample_ticks(start: int, end: int, samples_every: int) -> range:
    """Global tick indices in ``[start, end)`` that emit a sample row."""
    first = -(-(start + 1) // samples_every) * samples_every - 1
    return range(first, end, samples_every)


def _apply_increase(
    r: float,
    tgt: float,
    bst: int,
    tst: int,
    fast: int,
    rai: float,
    rhai: float,
    line: float,
) -> Tuple[float, float]:
    """One increase event on local ``(rate, target)``; exact scalar ops."""
    if bst < fast and tst < fast:
        pass
    elif bst >= fast and tst >= fast:
        tgt += rhai
    else:
        tgt += rai
    if tgt > line:
        tgt = line
    return (tgt + r) / 2.0, tgt


#: Sentinel phase for a timer accumulator whose tick offset from its
#: last exact-zero reset is unknown (pre-existing sender state, or a
#: line-pinned span that folded the accumulator without wrapping). A
#: slot with unknown phase cannot be span-planned until its next CNP,
#: which resets the accumulator to an exact ``0.0`` and re-syncs it.
UNKNOWN_PHASE = -(1 << 60)


class TimerCache:
    """Exact timer-accumulator trajectory for one ``(T, dt)`` pair.

    Every timer accumulator starts from an exact ``0.0`` (fresh sender,
    burst activation, CNP reset) and then evolves by the identical op
    sequence — ``t += dt``; on ``t >= T`` wrap with repeated ``t -= T``
    — so the whole trajectory, values *and* wrap schedule, is a pure
    function of ``(T, dt)``. The cache stores it indexed by integer
    *phase* (ticks since the last reset) and extends itself lazily, so
    span planning replaces per-segment float folds with list lookups.
    """

    CHUNK = 4096

    def __init__(self, T: float, dt: float) -> None:
        self._T = T
        self._dt = dt
        #: ``t_at[p]`` — accumulator value at the *start* of the tick
        #: that is ``p`` ticks after a reset.
        self.t_at: List[float] = [0.0]
        #: ``stages[p]`` — cumulative wrap count up to phase ``p``.
        self.stages: List[int] = [0]
        #: Sorted phases ``q`` whose preceding tick wraps the timer
        #: (``stages[q] > stages[q - 1]``), for bisect-then-index walks.
        self.events: List[int] = []

    def _extend(self, upto: int) -> None:
        T = self._T
        dt = self._dt
        t_at = self.t_at
        stages = self.stages
        events = self.events
        t = t_at[-1]
        st = stages[-1]
        for p in range(len(t_at), upto + TimerCache.CHUNK + 1):
            t += dt
            if t >= T:
                while t >= T:
                    t -= T
                    st += 1
                events.append(p)
            t_at.append(t)
            stages.append(st)

    def value(self, p: int) -> float:
        """Exact accumulator value at phase ``p``."""
        if p >= len(self.t_at):
            self._extend(p)
        return self.t_at[p]


class _Plan:
    """One sender's planned CNP-free evolution.

    ``sent[m]`` is the bytes sent on span tick ``m`` and ``rates[m]``
    the rate at the *start* of tick ``m`` (``rates[m+1]`` is the
    sampled rate after tick ``m``); ``cap`` is the number of ticks
    planned. ``segments`` holds ``(start, rate, target, b_stage,
    t_stage)`` at each event boundary and ``anchors`` holds
    ``(tick, byte_accum)`` at each exact byte-accumulator reset point,
    so :meth:`SenderBank._commit_sender` can recover exact state at any
    cut ``e <= cap``. ``clamped`` marks the line-pinned fast path whose
    timer accumulator folds without wrapping (phase becomes unknown).
    """

    __slots__ = (
        "cap", "sent", "rates", "segments", "anchors", "clamped",
        "t0", "ph0",
    )

    def __init__(
        self,
        cap: int,
        sent: np.ndarray,
        rates: np.ndarray,
        segments: List[tuple],
        anchors: List[tuple],
        clamped: bool,
        t0: float,
        ph0: int,
    ) -> None:
        self.cap = cap
        self.sent = sent
        self.rates = rates
        self.segments = segments
        self.anchors = anchors
        self.clamped = clamped
        self.t0 = t0
        self.ph0 = ph0


class SenderBank:
    """Structure-of-arrays state for every sender of one simulator,
    advanced over the simulator's links."""

    def __init__(self, sim) -> None:
        self.sim = sim
        fabric = sim.fabric
        self.fabric = fabric
        #: Per-slot routes as tuples of link indices.
        self.routes: List[Tuple[int, ...]] = fabric.resolve(sim.routes)
        #: Each slot's *gate*: its index into the kernel's per-tick gate
        #: table (marking probability, or ``None`` while blocked).
        #: Entries ``[0, links)`` are the links' own, so a 1-link route
        #: reads its link directly; each distinct multi-link route gets
        #: one entry after them, computed once per tick rather than per
        #: sender.
        n_links = len(fabric.names)
        multi: Dict[Tuple[int, ...], int] = {}
        self._gate_of: List[int] = [
            route[0] if len(route) == 1
            else n_links + multi.setdefault(route, len(multi))
            for route in self.routes
        ]
        self._multi: List[Tuple[int, Tuple[int, ...]]] = [
            (n_links + index, route) for index, route in enumerate(multi)
        ]
        # Per-tick scratch of the kernel, indexed by gate / link.
        self._p_gate: List[Optional[float]] = [0.0] * (n_links + len(multi))
        self._arrivals = [0.0] * n_links
        #: Ascending slots crossing each link (the arrival fold order).
        self._link_slots: List[List[int]] = [[] for _ in fabric.names]
        for slot, route in enumerate(self.routes):
            for link in route:
                self._link_slots[link].append(slot)
        # Run geometry, set by drive().
        self.steps = 0
        self.samples_every = 1
        self.samples = _SampleBuffer(
            fabric.names, sim.topology is not None
        )
        self.objs: List[object] = []
        self.is_job: List[bool] = []
        self.lifec: List[object] = []
        self.active: List[bool] = []
        self.finite: List[bool] = []
        self.rate: List[float] = []
        self.target: List[float] = []
        self.alpha: List[float] = []
        self.remaining: List[float] = []
        self.bytes_sent: List[float] = []
        self.b_acc: List[float] = []
        self.t_acc: List[float] = []
        self.b_st: List[int] = []
        self.t_st: List[int] = []
        self.next_cnp: List[float] = []
        self.next_decay: List[float] = []
        self.cnps: List[int] = []
        # Per-slot parameters.
        self.line: List[float] = []
        self.timer: List[float] = []
        self.byte_counter: List[float] = []
        self.rai: List[float] = []
        self.rhai: List[float] = []
        self.g: List[float] = []
        self.one_minus_g: List[float] = []
        self.fast_rounds: List[int] = []
        self.cnp_interval: List[float] = []
        self.alpha_timer: List[float] = []
        self.min_rate: List[float] = []
        self.mtu: List[float] = []
        self.stream: List[UniformChunks] = []
        self._streams_by_rng: Dict[int, UniformChunks] = {}
        self._act_tick: List[Optional[int]] = []
        self._n_active = 0
        self._idle_live: List[int] = []
        # Timer phase bookkeeping for span planning.
        self.t_ph: List[int] = []
        self.tcache: List[TimerCache] = []
        self._tcaches: Dict[Tuple[float, float], TimerCache] = {}
        # Earliest pending activation tick (-1 = recompute lazily).
        self._act_min = -1
        # RED marker and PFC parameters, resolved once in build().
        self._kmin = 0.0
        self._kmax = 0.0
        self._pmax = 0.0
        self._mspan = 0.0
        self._has_pfc = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, sim) -> Optional["SenderBank"]:
        """A bank for ``sim``'s sources over ``sim.fabric``, or ``None``
        if the marker or any source type is outside the bank's supported
        set (such runs take the scalar loop)."""
        marker = sim.marker
        if type(marker) is not RedEcnMarker:
            return None
        for source in sim.senders:
            if type(source) is not DcqcnSender and (
                type(source) is not OnOffDcqcnJob
            ):
                return None
        bank = cls(sim)
        for source in sim.senders:
            bank._add_slot(source)
        bank._n_active = sum(bank.active)
        bank._idle_live = [
            k
            for k in range(len(bank.objs))
            if bank.is_job[k]
            and not bank.active[k]
            and not bank.objs[k].lifecycle.done
        ]
        bank._kmin = marker.kmin
        bank._kmax = marker.kmax
        bank._pmax = marker.pmax
        # Same operands as the per-call ``kmax - kmin`` inside
        # marking_probability, so the cached span is bit-identical.
        bank._mspan = marker.kmax - marker.kmin
        bank._has_pfc = sim.pfc_pause_threshold is not None
        return bank

    def _stream_for(self, rng: np.random.Generator) -> UniformChunks:
        # Senders sharing one generator must share one chunk buffer so
        # the draw order within a tick matches the scalar oracle.
        stream = self._streams_by_rng.get(id(rng))
        if stream is None:
            stream = UniformChunks(rng)
            self._streams_by_rng[id(rng)] = stream
        return stream

    def _add_slot(self, source) -> None:
        job = type(source) is OnOffDcqcnJob
        params = source.params
        self.objs.append(source)
        self.is_job.append(job)
        self.lifec.append(source.lifecycle if job else None)
        self.line.append(params.line_rate)
        self.timer.append(params.timer)
        self.byte_counter.append(params.byte_counter)
        self.rai.append(params.rai)
        self.rhai.append(params.rhai)
        self.g.append(params.g)
        self.one_minus_g.append(1.0 - params.g)
        self.fast_rounds.append(params.fast_recovery_rounds)
        self.cnp_interval.append(params.cnp_interval)
        self.alpha_timer.append(params.alpha_timer)
        self.min_rate.append(params.min_rate)
        self.mtu.append(params.mtu)
        self.stream.append(self._stream_for(source._rng))
        key = (params.timer, self.sim.dt)
        cache = self._tcaches.get(key)
        if cache is None:
            cache = TimerCache(params.timer, self.sim.dt)
            self._tcaches[key] = cache
        self.tcache.append(cache)
        sender = source._sender if job else source
        if sender is None:
            # Idle on-off job: placeholder state until activation.
            self.active.append(False)
            self.finite.append(True)
            self.rate.append(0.0)
            self.target.append(0.0)
            self.alpha.append(1.0)
            self.remaining.append(0.0)
            self.bytes_sent.append(0.0)
            self.b_acc.append(0.0)
            self.t_acc.append(0.0)
            self.b_st.append(0)
            self.t_st.append(0)
            self.next_cnp.append(0.0)
            self.next_decay.append(params.alpha_timer)
            self.cnps.append(0)
            self._act_tick.append(None)
            self.t_ph.append(0)
        else:
            self.active.append(not sender.done)
            self.finite.append(sender.remaining is not None)
            self.rate.append(sender.rate)
            self.target.append(sender.target_rate)
            self.alpha.append(sender.alpha)
            self.remaining.append(
                sender.remaining if sender.remaining is not None else 0.0
            )
            self.bytes_sent.append(sender.bytes_sent)
            self.b_acc.append(sender._byte_accum)
            self.t_acc.append(sender._timer_accum)
            self.b_st.append(sender._byte_stage)
            self.t_st.append(sender._timer_stage)
            self.next_cnp.append(sender._next_cnp_time)
            self.next_decay.append(sender._next_alpha_decay)
            self.cnps.append(sender.cnps_received)
            self._act_tick.append(None)
            # Phase 0 only for a provably fresh accumulator (exactly
            # the post-__init__ state); anything else re-syncs at the
            # sender's next CNP reset.
            fresh = (
                sender._timer_accum <= 0.0
                and sender._timer_stage == 0
                and sender.cnps_received == 0
            )
            self.t_ph.append(0 if fresh else UNKNOWN_PHASE)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, duration: float) -> DcqcnResult:
        """Simulate ``duration`` seconds; same contract as
        :func:`repro.cc.link_engine.run_scalar_fabric`. Every stochastic
        stretch :meth:`drive` yields runs through :meth:`_tick_run`."""
        loop = self.drive(duration)
        try:
            request = next(loop)
            while True:
                i, stop, retry_at = request
                end = retry_at if i < retry_at else i + 1
                if end > stop:
                    end = stop
                request = loop.send(self._tick_run(i, end))
        except StopIteration:
            pass
        return self._finish(duration)

    def drive(self, duration: float) -> Generator[TickRequest, int, None]:
        """Set up a ``duration``-second run and return its control loop.

        The loop partitions the run into fault windows and advances
        each by span fast-forward and the idle fast-forward. It
        yields ``(tick, stop, retry_at)`` for every stochastic stretch:
        the caller steps ticks from ``tick`` (at least one, at most up
        to ``stop``; stopping before ``retry_at`` wastes no span probe)
        and resumes the loop with the first tick not stepped. Span and
        stretch boundaries are pure cost decisions — every committed
        quantity is bit-identical to per-tick stepping.
        """
        sim = self.sim
        self.steps = int(round(duration / sim.dt))
        self.samples_every = max(
            1, int(round(sim.sample_interval / sim.dt))
        )
        return self._windows()

    def _windows(self) -> Generator[TickRequest, int, None]:
        """:meth:`drive`'s loop over the fault windows."""
        sim = self.sim
        fabric = self.fabric
        # Span fast-forward truncates at every window boundary because
        # each window's end is the bound the inner loops see. An empty
        # schedule is one normal window.
        for window in link_capacity_windows(
            sim.faults, self.steps, sim.dt, fabric.base_capacities()
        ):
            fabric.apply_window(window.modes)
            if MODE_FREEZE not in fabric.modes and (
                MODE_STORM not in fabric.modes
            ):
                yield from self._normal_window(window.start, window.end)
            else:
                # A failed or storming link blocks its routes, so spans
                # would be invalid; fault windows are short.
                self._tick_run(window.start, window.end, fast_exit=False)
        fabric.restore()

    def _normal_window(
        self, start: int, steps: int
    ) -> Generator[TickRequest, int, None]:
        """Ticks ``[start, steps)`` with every link in normal mode."""
        i = start
        retry_at = start
        retry_gap = TICK_RETRY
        while i < steps:
            if self._has_pfc and self._pfc_hysteresis():
                # Paused links block their routes: the per-tick kernel
                # owns pause accrual and resume; probe again shortly.
                end = i + 4 * TICK_RETRY
                if end > steps:
                    end = steps
                i = self._tick_run(i, end, fast_exit=False)
                retry_gap = TICK_RETRY
                continue
            if self._n_active == 0:
                nxt = self._next_activation()
                if nxt is None or nxt > i:
                    end = steps if nxt is None else min(nxt, steps)
                    self._bulk_idle(i, end)
                    i = end
                    retry_gap = TICK_RETRY
                    continue
            elif i >= retry_at:
                advanced = self._try_span(i, steps)
                if advanced:
                    i += advanced
                    retry_gap = TICK_RETRY
                    continue
                # Exponential backoff: sustained stochastic stretches
                # (queue pinned above kmin) reject every attempt, so
                # probing less often is pure saved work.
                retry_at = i + retry_gap
                if retry_gap < 8 * TICK_RETRY:
                    retry_gap *= 2
            i = yield (i, steps, retry_at)

    def _pfc_hysteresis(self) -> bool:
        """Idempotent start-of-tick PFC hysteresis on every (normal)
        link; returns whether any link is paused."""
        sim = self.sim
        pause_threshold = sim.pfc_pause_threshold
        resume_threshold = sim.pfc_resume_threshold
        paused = self.fabric.paused
        for link, queue in enumerate(self.fabric.queues):
            occupancy = queue.occupancy
            if not paused[link] and occupancy >= pause_threshold:
                paused[link] = True
            elif paused[link] and occupancy <= resume_threshold:
                paused[link] = False
        return any(paused)

    # ------------------------------------------------------------------
    # Idle fast-forward
    # ------------------------------------------------------------------

    def _next_activation(self) -> Optional[int]:
        """Earliest activation tick among idle live on-off jobs."""
        best: Optional[int] = None
        dt = self.sim.dt
        for k in self._idle_live:
            tick = self._act_tick[k]
            if tick is None:
                tick = activation_tick(self.objs[k]._deadline, dt)
                self._act_tick[k] = tick
            if best is None or tick < best:
                best = tick
        return best

    def _bulk_idle(self, i: int, end: int) -> None:
        """Fast-forward ticks where every source computes or is done.

        Every link is in normal mode and none is PFC-paused on entry
        (checked by the caller after the hysteresis update), and
        occupancies only fall while draining, so no pause can begin
        mid-stretch: each queue follows the closed-form clamped drain
        and the skipped sample rows show every sender at rate 0.
        """
        span = end - i
        if span <= 0:
            return
        dt = self.sim.dt
        queues = self.fabric.queues
        trajs = [
            clamp_drain(fold_traj(
                queue.occupancy, (0.0 - queue.capacity) * dt, span
            ))
            for queue in queues
        ]
        for queue, traj in zip(queues, trajs):
            queue.occupancy = float(traj[span])
        rows = self.samples.rows
        n = len(self.objs)
        for j in sample_ticks(i, i + span, self.samples_every):
            u = j - i + 1
            rows.append((
                (j + 1) * dt, [0.0] * n, [float(t[u]) for t in trajs]
            ))

    # ------------------------------------------------------------------
    # Deterministic spans
    # ------------------------------------------------------------------

    def _plan_sender(self, k: int, H: int, dt: float) -> Optional[_Plan]:
        """Plan sender ``k``'s exact evolution over up to ``H`` CNP-free
        ticks, or ``None`` when the timer phase is unknown (it re-syncs
        at the sender's next CNP, which zeroes the accumulator).

        The walk advances one timer-event stretch at a time: the event
        schedule comes from the :class:`TimerCache` as integer phase
        lookups, and the byte counter / completion are screened with
        conservative bounds, materialized exactly (one ``cumsum`` from
        the last anchor) only when a bound says an event may be near.
        """
        r = self.rate[k]
        tgt = self.target[k]
        line = self.line[k]
        b0 = self.b_acc[k]
        bst = self.b_st[k]
        tst = self.t_st[k]
        B = self.byte_counter[k]
        finite = self.finite[k]
        rem0 = self.remaining[k] if finite else 0.0
        if r >= line and tgt >= line:
            # Line-pinned: increase events are exact no-ops on the
            # rates; fold accumulators without wrapping (dead state
            # until the next CNP — see module docstring).
            s = r * dt
            cap = H
            if finite and s > 0.0 and int(rem0 / s) - 2 < H:
                rtraj = fold_traj(rem0, -s, H)
                comp = np.nonzero(rtraj[:H] <= s)[0]
                if comp.size:
                    # Completion tick: its clamped send and lifecycle
                    # transition run per-tick; stop just short of it.
                    cap = int(comp[0])
            return _Plan(
                cap, np.full(cap, s), np.full(cap + 1, r),
                [(0, r, tgt, bst, tst)], [(0, b0)],
                True, self.t_acc[k], 0,
            )
        ph0 = self.t_ph[k]
        if ph0 < 0:
            return None
        cache = self.tcache[k]
        if ph0 + H >= len(cache.t_at):
            cache._extend(ph0 + H)
        events = cache.events
        stages = cache.stages
        n_events = len(events)
        eidx = bisect_right(events, ph0)
        fast = self.fast_rounds[k]
        rai = self.rai[k]
        rhai = self.rhai[k]
        runs: List[tuple] = []
        # Runs since the last anchor, for exact materialization.
        tail_lens: List[int] = []
        tail_sents: List[float] = []
        segments: List[tuple] = [(0, r, tgt, bst, tst)]
        anchors: List[tuple] = [(0, b0)]
        a_tick = 0
        a_b = b0
        a_rem = rem0
        # Conservative screens (exactness never depends on them: a
        # slack bound only costs an extra materialization). One byte of
        # absolute slack per stretch dwarfs fold rounding at these
        # magnitudes while staying far below one tick's send.
        b_hi = b0
        rem_lo = rem0
        cap = H
        m = 0
        while m < H:
            s = r * dt
            q = events[eidx] if eidx < n_events else ph0 + H + 1
            mt = q - ph0 - 1
            end = mt if mt < H - 1 else H - 1
            w = end - m + 1
            if s > 0.0:
                safe_b = int((B - b_hi) / s) - 2
                safe_c = int(rem_lo / s) - 3 if finite else w
            else:
                safe_b = w
                safe_c = w
            if w <= safe_b and w <= safe_c:
                runs.append((w, s, r))
                tail_lens.append(w)
                tail_sents.append(s)
                pad = w * s
                b_hi += pad + 1.0
                rem_lo -= pad + 1.0
                m += w
                if end == mt:
                    eidx += 1
                    for _ in range(stages[q] - stages[q - 1]):
                        tst += 1
                        r, tgt = _apply_increase(
                            r, tgt, bst, tst, fast, rai, rhai, line
                        )
                    segments.append((m, r, tgt, bst, tst))
                continue
            # A screen fired: materialize the exact accumulators from
            # the last anchor through this stretch, then either process
            # the event or rebase the screens exactly and move on.
            j0 = m - a_tick
            L = j0 + w
            seg_sent = np.asarray(tail_sents + [s]).repeat(tail_lens + [w])
            arr = np.empty(L + 1)
            arr[0] = a_b
            arr[1:] = seg_sent
            btr = arr.cumsum()
            jc = -1
            rtr = None
            if finite:
                arr = np.empty(L + 1)
                arr[0] = a_rem
                arr[1:] = -seg_sent
                rtr = arr.cumsum()
                comps = np.nonzero(rtr[j0:L] <= seg_sent[j0:])[0]
                if comps.size:
                    jc = j0 + int(comps[0])
            hits = np.nonzero(btr[j0 + 1:] >= B)[0]
            jb = j0 + int(hits[0]) if hits.size else -1
            if jc >= 0 and (jb < 0 or jc <= jb):
                # Completion tick: stop the plan just short of it.
                cap = a_tick + jc
                if cap > m:
                    runs.append((cap - m, s, r))
                break
            if jb >= 0:
                # Byte-counter event on tick ``ub``: send at the old
                # rate, wrap the byte stage fully, then the timer stage
                # if it fires on the same tick — exact scalar order.
                ub = a_tick + jb
                runs.append((ub - m + 1, s, r))
                m = ub + 1
                bb = float(btr[jb + 1])
                while bb >= B:
                    bb -= B
                    bst += 1
                    r, tgt = _apply_increase(
                        r, tgt, bst, tst, fast, rai, rhai, line
                    )
                if ub == mt:
                    eidx += 1
                    for _ in range(stages[q] - stages[q - 1]):
                        tst += 1
                        r, tgt = _apply_increase(
                            r, tgt, bst, tst, fast, rai, rhai, line
                        )
                segments.append((m, r, tgt, bst, tst))
                a_tick = m
                a_b = bb
                a_rem = float(rtr[jb + 1]) if finite else 0.0
                anchors.append((a_tick, a_b))
                tail_lens = []
                tail_sents = []
                b_hi = bb
                rem_lo = a_rem
                continue
            # Spurious screen: take the whole stretch and rebase the
            # anchor on the exact end-of-stretch values.
            runs.append((w, s, r))
            m += w
            a_tick = m
            a_b = float(btr[L])
            a_rem = float(rtr[L]) if finite else 0.0
            anchors.append((a_tick, a_b))
            tail_lens = []
            tail_sents = []
            b_hi = a_b
            rem_lo = a_rem
            if end == mt:
                eidx += 1
                for _ in range(stages[q] - stages[q - 1]):
                    tst += 1
                    r, tgt = _apply_increase(
                        r, tgt, bst, tst, fast, rai, rhai, line
                    )
                segments.append((m, r, tgt, bst, tst))
        lens = [run[0] for run in runs]
        sent = np.asarray([run[1] for run in runs]).repeat(lens)
        rates = np.empty(cap + 1)
        if cap:
            rates[:cap] = np.asarray([run[2] for run in runs]).repeat(lens)
        rates[cap] = r
        return _Plan(cap, sent, rates, segments, anchors, False, 0.0, ph0)

    def _try_span(self, i: int, steps: int) -> int:
        """Advance as many deterministic ticks as possible in one jump.

        Per-sender plans come from :meth:`_plan_sender`; each link's
        queue fold, clamp episode, kmin cut and PFC cut run over the
        senders crossing it, and the committed span is the minimum cut
        across all links. Returns the number of ticks advanced (0 if no
        profitable span exists).
        """
        sim = self.sim
        dt = sim.dt
        kmin = self._kmin
        queues = self.fabric.queues
        active = self.active
        n = len(self.objs)
        link_slots = self._link_slots
        occ0s = [queue.occupancy for queue in queues]
        arrival0s = []
        for slots in link_slots:
            arrival0 = 0.0
            for k in slots:
                if active[k]:
                    arrival0 += self.rate[k] * dt
            arrival0s.append(arrival0)
        # Earliest tick offset at which any active sender becomes
        # CNP-eligible; every tick before it is deterministic even with
        # a positive marking probability (the scalar sender early-outs
        # on ``now < _next_cnp_time`` without drawing).
        elig = steps
        for k in range(n):
            if not active[k]:
                continue
            nc = self.next_cnp[k]
            m = 0
            if i * dt < nc:
                est = int(math.ceil(nc / dt)) - i - (SPAN_MARGIN + 1)
                m = est if est > 0 else 0
                while (i + m) * dt < nc:
                    m += 1
            if m < elig:
                elig = m
        if elig < MIN_SPAN:
            # Arrivals are nondecreasing over a CNP-free span, so a
            # congested queue cannot dip below kmin before
            # ``need / drain`` ticks; if an eligible tick lands first
            # the span is doomed.
            for link, queue in enumerate(queues):
                occ0 = occ0s[link]
                if occ0 <= kmin:
                    continue
                drain = queue.capacity * dt - arrival0s[link]
                if drain <= 0.0 or elig < int((occ0 - kmin) / drain):
                    return 0
        H = steps - i
        if H > MAX_HORIZON:
            H = MAX_HORIZON
        nxt = self._next_activation()
        if nxt is not None and nxt - i < H:
            H = nxt - i
        if H < MIN_SPAN:
            return 0
        # Trim the horizon to the earliest estimated cut across links so
        # planning work is not thrown away: a span chained short is
        # still exact.
        e_est = H
        for link, queue in enumerate(queues):
            occ0 = occ0s[link]
            if occ0 > kmin:
                est_l = elig + 2 * SPAN_MARGIN
            else:
                delta0 = arrival0s[link] - queue.capacity * dt
                if delta0 > 0.0:
                    est_l = int((kmin - occ0) / delta0) + 1
                    if est_l < elig:
                        est_l = elig
                else:
                    est_l = H
            if est_l < e_est:
                e_est = est_l
        e_est += 4 * SPAN_MARGIN
        if MIN_SPAN <= e_est < H:
            H = e_est
        plans: List[Optional[_Plan]] = [None] * n
        cap = H
        for k in range(n):
            if not active[k]:
                continue
            plan = self._plan_sender(k, H, dt)
            if plan is None:
                # Unknown timer phase; heals at this sender's next CNP.
                return 0
            plans[k] = plan
            if plan.cap < cap:
                cap = plan.cap
                if cap < MIN_SPAN:
                    return 0
        # Exact per-link queue trajectories: arrivals folded in slot
        # order, then the per-tick net-delta fold with its single clamp
        # episode.
        occs: List[np.ndarray] = []
        for link, queue in enumerate(queues):
            acc = None
            for k in link_slots[link]:
                plan = plans[k]
                if plan is None:
                    continue
                if acc is None:
                    acc = plan.sent[:cap].copy()
                else:
                    acc += plan.sent[:cap]
            if acc is None:
                acc = np.zeros(cap)
            deltas = (acc / dt - queue.capacity) * dt
            occ = np.empty(cap + 1)
            occ[0] = occ0s[link]
            occ[1:] = deltas
            occ = occ.cumsum()
            if deltas[0] < 0.0:
                nonneg = np.nonzero(deltas >= 0.0)[0]
                jstar = int(nonneg[0]) if nonneg.size else cap
                below = np.nonzero(occ[1:jstar + 1] < 0.0)[0]
                if below.size:
                    kstar = 1 + int(below[0])
                    occ[kstar:jstar + 1] = 0.0
                    if jstar < cap:
                        tail = np.empty(cap - jstar + 1)
                        tail[0] = 0.0
                        tail[1:] = deltas[jstar:]
                        occ[jstar:] = tail.cumsum()
            occs.append(occ)
        e = cap
        for occ in occs:
            if elig < e:
                viol = np.nonzero(occ[elig:e] > kmin)[0]
                if viol.size:
                    e = elig + int(viol[0])
            if self._has_pfc and e > 1:
                hits = np.nonzero(occ[1:e] >= sim.pfc_pause_threshold)[0]
                if hits.size:
                    e = 1 + int(hits[0])
        if e < MIN_SPAN:
            return 0
        now_last = (i + e - 1) * dt
        for k in range(n):
            if plans[k] is not None:
                self._commit_sender(k, plans[k], e, dt, now_last)
        for queue, occ in zip(queues, occs):
            queue.occupancy = float(occ[e])
        rows = self.samples.rows
        for j in sample_ticks(i, i + e, self.samples_every):
            u = j - i + 1
            rows.append((
                (j + 1) * dt,
                [
                    float(plan.rates[u]) if plan is not None else 0.0
                    for plan in plans
                ],
                [float(occ[u]) for occ in occs],
            ))
        return e

    def _commit_sender(
        self, k: int, plan: _Plan, e: int, dt: float, now_last: float
    ) -> None:
        """Write sender ``k``'s exact state at span cut ``e`` back into
        the bank from its plan's segment and anchor records."""
        sent = plan.sent
        seg = plan.segments[0]
        for seg in reversed(plan.segments):
            if seg[0] <= e:
                break
        _start, r, tgt, bst, tst = seg
        self.rate[k] = r
        self.target[k] = tgt
        self.b_st[k] = bst
        self.t_st[k] = tst
        # Byte accumulator: wrap-free fold from the last anchor at or
        # before the cut (anchors sit right after each byte event).
        a_tick, a_b = plan.anchors[0]
        for a_tick, a_b in reversed(plan.anchors):
            if a_tick <= e:
                break
        u = e - a_tick
        if u > 0:
            arr = np.empty(u + 1)
            arr[0] = a_b
            arr[1:] = sent[a_tick:e]
            a_b = float(arr.cumsum()[-1])
        self.b_acc[k] = a_b
        if plan.clamped:
            # Line-pinned fold skips the dead wrap-arounds, so the
            # phase is no longer on the cache trajectory.
            self.t_acc[k] = fold_last(plan.t0, dt, e)
            self.t_ph[k] = UNKNOWN_PHASE
        else:
            ph = plan.ph0 + e
            self.t_acc[k] = self.tcache[k].value(ph)
            self.t_ph[k] = ph
        se = sent[:e]
        arr = np.empty(e + 1)
        arr[0] = self.bytes_sent[k]
        arr[1:] = se
        self.bytes_sent[k] = float(arr.cumsum()[-1])
        if self.finite[k]:
            arr = np.empty(e + 1)
            arr[0] = self.remaining[k]
            arr[1:] = -se
            self.remaining[k] = float(arr.cumsum()[-1])
        if self.is_job[k]:
            lifecycle = self.objs[k].lifecycle
            arr = np.empty(e + 1)
            arr[0] = lifecycle.comm_sent
            arr[1:] = se
            lifecycle.comm_sent = float(arr.cumsum()[-1])
        nd = self.next_decay[k]
        if now_last >= nd:
            a = self.alpha[k]
            shrink = self.one_minus_g[k]
            period = self.alpha_timer[k]
            while now_last >= nd:
                a *= shrink
                nd += period
            self.alpha[k] = a
            self.next_decay[k] = nd

    # ------------------------------------------------------------------
    # Per-tick kernels
    # ------------------------------------------------------------------

    def _activate(self, k: int, now: float) -> None:
        """Start slot ``k``'s communication burst; mirrors the state a
        fresh :class:`DcqcnSender` gets in :meth:`OnOffSource.step`."""
        obj = self.objs[k]
        budget = obj.lifecycle.begin_comm(now)
        params = obj.params
        self.active[k] = True
        self.finite[k] = True
        self.rate[k] = params.line_rate
        self.target[k] = params.line_rate
        self.alpha[k] = 1.0
        self.remaining[k] = budget
        self.bytes_sent[k] = 0.0
        self.b_acc[k] = 0.0
        self.t_acc[k] = 0.0
        self.b_st[k] = 0
        self.t_st[k] = 0
        self.next_cnp[k] = 0.0
        self.next_decay[k] = params.alpha_timer
        self.t_ph[k] = 0
        self._act_tick[k] = None
        self._n_active += 1
        self._idle_live.remove(k)
        self._act_min = -1

    def _complete(self, k: int, now: float, dt: float) -> None:
        """Close slot ``k``'s burst; mirrors :meth:`OnOffSource.step`."""
        end = now + dt
        obj = self.objs[k]
        lifecycle = obj.lifecycle
        self.active[k] = False
        self._n_active -= 1
        lifecycle.close_iteration(end)
        if not lifecycle.done:
            obj._deadline = end + lifecycle.begin_iteration(end)
        self._act_tick[k] = None
        self._act_min = -1
        if not lifecycle.done:
            self._idle_live.append(k)

    def _tick_run(self, start: int, stop: int, fast_exit: bool = True) -> int:
        """Step ticks ``[start, stop)`` through the exact per-tick
        kernel of :func:`repro.cc.link_engine.run_scalar_fabric`,
        hoisting state lookups once for the whole run. Returns the first
        tick *not* stepped.

        ``fast_exit`` (normal windows only) returns control early when
        the bank goes fully idle, so the caller's idle fast-forward
        takes over; faulted windows and PFC pauses must keep stepping
        the queues and pause accounting.
        """
        sim = self.sim
        dt = sim.dt
        samples_every = self.samples_every
        rows = self.samples.rows
        fabric = self.fabric
        queues = fabric.queues
        modes = fabric.modes
        paused = fabric.paused
        routes = self.routes
        gate_of = self._gate_of
        multi = self._multi
        n_links = len(queues)
        has_pfc = self._has_pfc
        pause_threshold = sim.pfc_pause_threshold
        resume_threshold = sim.pfc_resume_threshold
        kmin = self._kmin
        kmax = self._kmax
        pmax = self._pmax
        mspan = self._mspan
        n = len(self.objs)
        active = self.active
        rate = self.rate
        finite = self.finite
        is_job = self.is_job
        remaining = self.remaining
        bytes_sent = self.bytes_sent
        b_acc = self.b_acc
        t_acc = self.t_acc
        b_st = self.b_st
        t_st = self.t_st
        next_cnp = self.next_cnp
        next_decay = self.next_decay
        min_rate = self.min_rate
        line = self.line
        target = self.target
        fast_rounds = self.fast_rounds
        rai = self.rai
        rhai = self.rhai
        objs = self.objs
        t_ph = self.t_ph
        byte_counter = self.byte_counter
        timer = self.timer
        mtu = self.mtu
        stream = self.stream
        one_minus_g = self.one_minus_g
        g = self.g
        alpha = self.alpha
        cnp_interval = self.cnp_interval
        alpha_timer = self.alpha_timer
        cnps = self.cnps
        idle_live = self._idle_live
        lifec = self.lifec
        p_gate = self._p_gate
        arrivals = self._arrivals
        i = start
        while i < stop:
            now = i * dt
            # Gate table: a link's marking probability, or None while
            # it blocks its senders (failed, storming or PFC-paused).
            for link in range(n_links):
                arrivals[link] = 0.0
                if modes[link] != MODE_NORMAL:
                    p_gate[link] = None
                    continue
                occq = queues[link].occupancy
                if has_pfc:
                    if not paused[link] and occq >= pause_threshold:
                        paused[link] = True
                    elif paused[link] and occq <= resume_threshold:
                        paused[link] = False
                    if paused[link]:
                        p_gate[link] = None
                        continue
                if occq <= kmin:
                    p_gate[link] = 0.0
                elif occq >= kmax:
                    p_gate[link] = 1.0
                else:
                    p_gate[link] = pmax * (occq - kmin) / mspan
            for gate, route in multi:
                p_mark = 0.0
                for link in route:
                    p = p_gate[link]
                    if p is None:
                        p_mark = None
                        break
                    if p > p_mark:
                        p_mark = p
                p_gate[gate] = p_mark
            if idle_live:
                am = self._act_min
                if am < 0:
                    nxt = self._next_activation()
                    am = nxt if nxt is not None else (1 << 60)
                    self._act_min = am
                if i >= am:
                    for k in tuple(idle_live):
                        tick = self._act_tick[k]
                        if tick is None:
                            tick = activation_tick(objs[k]._deadline, dt)
                            self._act_tick[k] = tick
                        # A blocked route defers activation exactly as
                        # the reference loop's skipped step().
                        if i >= tick and p_gate[gate_of[k]] is not None:
                            self._activate(k, now)
            for k in range(n):
                if not active[k]:
                    continue
                gate = gate_of[k]
                p_mark = p_gate[gate]
                if p_mark is None:
                    continue
                r = rate[k]
                sent = r * dt
                fin = finite[k]
                if fin:
                    rem = remaining[k]
                    if rem < sent:
                        sent = rem
                    remaining[k] = rem - sent
                bytes_sent[k] += sent
                if p_mark > 0.0 and now >= next_cnp[k] and sent > 0.0:
                    packets = sent / mtu[k]
                    p_any = 1.0 - (1.0 - p_mark) ** packets
                    # Inlined chunk draw (see UniformChunks).
                    st = stream[k]
                    pos = st._pos
                    buf = st._buf
                    if pos >= len(buf):
                        buf = st.refill()
                        pos = 0
                    st._pos = pos + 1
                    st._consumed += 1
                    if buf[pos] < p_any:
                        a = one_minus_g[k] * alpha[k] + g[k]
                        alpha[k] = a
                        target[k] = r
                        cut = r * (1.0 - a / 2.0)
                        floor = min_rate[k]
                        rate[k] = cut if cut > floor else floor
                        b_acc[k] = 0.0
                        t_acc[k] = 0.0
                        b_st[k] = 0
                        t_st[k] = 0
                        next_cnp[k] = now + cnp_interval[k]
                        next_decay[k] = now + alpha_timer[k]
                        cnps[k] += 1
                        # Accumulator reset to exact 0.0: this tick's
                        # timer stage advances it to phase 1.
                        t_ph[k] = 0
                ba = b_acc[k] + sent
                limit = byte_counter[k]
                if ba >= limit:
                    while ba >= limit:
                        ba -= limit
                        b_st[k] += 1
                        rate[k], target[k] = _apply_increase(
                            rate[k], target[k], b_st[k], t_st[k],
                            fast_rounds[k], rai[k], rhai[k], line[k],
                        )
                b_acc[k] = ba
                ta = t_acc[k] + dt
                limit = timer[k]
                if ta >= limit:
                    while ta >= limit:
                        ta -= limit
                        t_st[k] += 1
                        rate[k], target[k] = _apply_increase(
                            rate[k], target[k], b_st[k], t_st[k],
                            fast_rounds[k], rai[k], rhai[k], line[k],
                        )
                t_acc[k] = ta
                t_ph[k] += 1
                nd = next_decay[k]
                if now >= nd:
                    a = alpha[k]
                    shrink = one_minus_g[k]
                    period = alpha_timer[k]
                    while now >= nd:
                        a *= shrink
                        nd += period
                    alpha[k] = a
                    next_decay[k] = nd
                r = rate[k]
                floor = min_rate[k]
                ln = line[k]
                if r < floor:
                    rate[k] = floor
                elif r > ln:
                    rate[k] = ln
                if target[k] > ln:
                    target[k] = ln
                # Arrivals fold per link in slot order, as in the
                # reference loop.
                if gate < n_links:
                    arrivals[gate] += sent
                else:
                    for link in routes[k]:
                        arrivals[link] += sent
                if is_job[k]:
                    lifec[k].comm_sent += sent
                    if remaining[k] <= 0.0:
                        self._complete(k, now, dt)
                elif fin and remaining[k] <= 0.0:
                    active[k] = False
                    self._n_active -= 1
            for link in range(n_links):
                if p_gate[link] is None:
                    if modes[link] == MODE_FREEZE:
                        continue
                    sim.pfc_pause_seconds += dt
                queue = queues[link]
                net = arrivals[link] / dt - queue.capacity
                occq = queue.occupancy + net * dt
                if net < 0.0 and occq <= 0.0:
                    occq = 0.0
                queue.occupancy = occq
            i += 1
            if i % samples_every == 0:
                rows.append((
                    i * dt,
                    [rate[k] if active[k] else 0.0 for k in range(n)],
                    [queue.occupancy for queue in queues],
                ))
            if self._n_active == 0 and fast_exit:
                return i
        return i

    # ------------------------------------------------------------------
    # Result assembly and write-back
    # ------------------------------------------------------------------

    def _finish(self, duration: float) -> DcqcnResult:
        """The result of the run :meth:`drive` set up, with every
        sender object and generator written back."""
        sim = self.sim
        result = DcqcnResult(duration=duration)
        names = [obj.name for obj in self.objs]
        self.samples.flush(result, names)
        if sim.telemetry.enabled:
            sim.telemetry.counter("cc.steps").inc(self.steps)
            cnp_counter = sim.telemetry.counter("cc.cnps")
            for k, obj in enumerate(self.objs):
                cnp_counter.inc(0 if self.is_job[k] else self.cnps[k])
        for k, obj in enumerate(self.objs):
            if self.is_job[k]:
                if self.active[k]:
                    sender = DcqcnSender(
                        obj.name, obj.params, obj._rng,
                        data_bytes=self.remaining[k],
                    )
                    self._write_sender(k, sender)
                    obj._sender = sender
                else:
                    obj._sender = None
            else:
                self._write_sender(k, obj)
        for stream in self._streams_by_rng.values():
            stream.rewind()
        result.timelines = {
            obj.name: obj.timeline
            for obj in self.objs
            if isinstance(obj, OnOffSource)
        }
        return result

    def _write_sender(self, k: int, sender: DcqcnSender) -> None:
        sender.rate = self.rate[k]
        sender.target_rate = self.target[k]
        sender.alpha = self.alpha[k]
        sender.bytes_sent = self.bytes_sent[k]
        sender.cnps_received = self.cnps[k]
        sender.remaining = self.remaining[k] if self.finite[k] else None
        sender._byte_accum = self.b_acc[k]
        sender._timer_accum = self.t_acc[k]
        sender._byte_stage = self.b_st[k]
        sender._timer_stage = self.t_st[k]
        sender._next_cnp_time = self.next_cnp[k]
        sender._next_alpha_decay = self.next_decay[k]
