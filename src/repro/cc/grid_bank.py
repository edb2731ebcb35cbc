"""Batched multi-run grid engine: N simulations as one SoA kernel.

:class:`GridBank` stacks N independent single-bottleneck
:class:`repro.cc.dcqcn.DcqcnFluidSimulator` runs of long-lived DCQCN
senders — a sweep grid of seeds x timers — into one structure-of-arrays
simulation with state shaped ``(runs, senders)``. Each run keeps its own
:class:`repro.cc.sender_bank.SenderBank` (the within-run engine over
the run's one link), and the grid reuses that machinery wholesale: the
shared :class:`TimerCache` wrap schedules, the deterministic span
fast-forward and the chunked :class:`UniformChunks` RNG draws.

The contract is the same as the sender bank's, one level up: every
run's observable output — rate/queue series, final sender state, RNG
stream positions — is **bit-identical** to executing that simulator
alone through :meth:`~repro.cc.dcqcn.DcqcnFluidSimulator.run`. Three
properties make that possible:

* **Per-run lane control flow.** Each lane runs its bank's own
  control loop (:meth:`SenderBank.drive`) — the span probe with its
  retry backoff — which yields every stochastic stretch; a solo run
  serves those with ``_tick_run``, the grid serves them with the shared
  kernel. Spans still execute on the lane's own bank; only the
  stochastic tick-by-tick stretches are stacked. Span/probe boundaries
  are pure cost decisions in the sender bank (every committed quantity
  is bit-identical to per-tick stepping), so the grid is free to cut
  them differently.
* **Masked per-tick kernel.** The stacked tick replays the per-slot
  scalar sequence with ``(runs, senders)`` array ops whose operands
  are neutralized on padding slots and finished lanes (``dt``
  contribution 0.0, clamp bounds that cannot bind), so elementwise
  IEEE-754 ops land exactly where the scalar loop would. The CNP coins
  of all eligible slots are flipped at once: each slot reads the next
  draw of its own row in a draw table filled from its stream, and only
  the miss probability runs as Python-float ``**`` (numpy's power is
  not bit-identical to it). The byte/timer wrap while-loops and the
  alpha decay run one vectorized round at a time over the slots still
  looping. Per-tick arrivals fold via ``cumsum`` (sequential adds; the
  interleaved 0.0 of padding slots are exact no-ops).
* **Writeback/reload sync.** Whenever a lane needs its bank's Python
  machinery (the span probe) the kernel writes its rows back into the
  bank lists, runs the original code, and reloads — so there is
  exactly one source of truth at any time and no grid-side
  reimplementation of the bank's logic. The draw table is the
  exception the bank code never reads, and needs no handback: spans
  draw nothing, so rows stay live across a lane's exits, and at the end
  of the run each row's unread draws only leave its stream's consumed
  count, which ``_finish`` rewinds the stream by.

:meth:`GridBank.build` is the one entry point: it returns a grid, or
``None`` when any simulator breaks a lane rule (see
:func:`_lane_bank`), the time steps differ, or two sender slots share
a numpy generator (each slot's table row holds its own generator's
next draws). The runner decides which specs to stack
(:func:`repro.runner.grid.plan_groups`) and runs them spec by spec when
``build`` says no.
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Sequence, Tuple

import numpy as np

from .dcqcn import DcqcnFluidSimulator, DcqcnResult, DcqcnSender
from .link_engine import prepare_run
from .sender_bank import SenderBank, TickRequest, TimerCache

#: CNP draws a slot's table row holds: a row is refilled from its
#: slot's stream once per this many coins, and costs 8 bytes a draw.
DRAWS_PER_ROW = 256


def _lane_bank(sim) -> Optional[SenderBank]:
    """A fresh :class:`SenderBank` for ``sim``, or ``None`` if ``sim``
    cannot ride in a :class:`GridBank` lane.

    The lane rules: a plain :class:`DcqcnFluidSimulator` (no subclass),
    single bottleneck (no topology, so one link), no PFC, no fault
    schedule (not even an empty one), at least one sender, every sender
    a long-lived :class:`DcqcnSender` (no on-off job, no finite
    ``data_bytes``), and a bank (:meth:`SenderBank.build` accepts the
    marker). So every slot of a lane sends from the first tick to the
    last, and the lane's control loop only ever spans or yields ticks.
    Building a bank only snapshots state — it never mutates the
    simulator — so probing is side-effect free.
    """
    if type(sim) is not DcqcnFluidSimulator:
        return None
    if sim.topology is not None or sim.faults is not None:
        return None
    if sim.pfc_pause_threshold is not None:
        return None
    if not sim.senders:
        return None
    for sender in sim.senders:
        if type(sender) is not DcqcnSender or sender.remaining is not None:
            return None
    bank = SenderBank.build(sim)
    if bank is None:
        return None
    # The grid clamps rates with maximum-then-minimum, which matches
    # the scalar if/elif only while the floor sits at or below the
    # line rate (always true for sane params; reject the pathology).
    for floor, line in zip(bank.min_rate, bank.line):
        if floor > line:
            return None
    return bank


class _Lane:
    """One run's slice of the grid: its bank, link queue and the bank's
    control loop (:meth:`SenderBank.drive`)."""

    __slots__ = ("r", "n", "bank", "queue", "gen")

    def __init__(self, r: int, bank: SenderBank) -> None:
        self.r = r
        self.n = len(bank.objs)
        self.bank = bank
        self.queue = bank.fabric.queues[0]
        self.gen: Optional[Generator[TickRequest, int, None]] = None


class GridBank:
    """Structure-of-arrays state for every sender of every run."""

    def __init__(self, sims: List, banks: List[SenderBank]) -> None:
        self.sims = sims
        self.banks = banks
        self.dt = sims[0].dt
        R = len(sims)
        S = max(len(bank.objs) for bank in banks)
        self._S = S
        shape = (R, S)
        # Float state, (runs, senders). Padding columns are permanently
        # inactive and neutralized below.
        self._rate = np.zeros(shape)
        self._target = np.zeros(shape)
        self._alpha = np.zeros(shape)
        self._bsent = np.zeros(shape)
        self._bacc = np.zeros(shape)
        self._tacc = np.zeros(shape)
        self._ncnp = np.zeros(shape)
        self._ndecay = np.full(shape, np.inf)
        self._sent = np.zeros(shape)
        # Integer state.
        self._bst = np.zeros(shape, dtype=np.int64)
        self._tst = np.zeros(shape, dtype=np.int64)
        self._tph = np.zeros(shape, dtype=np.int64)
        self._cnps = np.zeros(shape, dtype=np.int64)
        # Active mask and per-tick dt operand: a lane's senders send from
        # its first tick to its last, so both are set here and cleared
        # only when the lane retires; padding slots stay inactive.
        self._act = np.zeros(shape, dtype=bool)
        self._dt_act = np.zeros(shape)
        # Static per-slot parameters (padding stays inf: never wraps,
        # never draws). Full (runs, senders) arrays so the hit/wrap/
        # decay fixups can gather them with fancy indexing.
        self._p_B = np.full(shape, np.inf)
        self._p_T = np.full(shape, np.inf)
        self._p_mtu = np.full(shape, np.inf)
        self._p_g = np.zeros(shape)
        self._p_omg = np.ones(shape)
        self._p_cnpint = np.full(shape, np.inf)
        self._p_alphat = np.full(shape, np.inf)
        self._p_minrate = np.zeros(shape)
        self._p_rai = np.zeros(shape)
        self._p_rhai = np.zeros(shape)
        self._p_fast = np.zeros(shape, dtype=np.int64)
        self._p_line = np.full(shape, np.inf)
        # Reusable scratch (masks and the per-tick send matrix).
        self._elig = np.zeros(shape, dtype=bool)
        self._wrapb = np.zeros(shape, dtype=bool)
        self._decayb = np.zeros(shape, dtype=bool)
        # Per-lane state, (runs,).
        self._i = np.zeros(R, dtype=np.int64)
        self._end = np.zeros(R, dtype=np.int64)
        self._retry = np.zeros(R, dtype=np.int64)
        self._sev = np.ones(R, dtype=np.int64)
        self._occ = np.zeros(R)
        self._cap = np.zeros(R)
        self._kmin = np.zeros(R)
        self._kmax = np.zeros(R)
        self._pmax = np.zeros(R)
        self._mspan = np.ones(R)
        self._ticking = np.zeros(R, dtype=bool)
        self._n_ticking = 0
        # CNP draw table, one row per slot in row-major (lane, slot)
        # order: slot f's next draws are _draws[f, _dpos[f]:], then its
        # stream's own buffer, then its generator. A row is empty at
        # _dpos == DRAWS_PER_ROW.
        self._draws = np.empty((R * S, DRAWS_PER_ROW))
        self._dpos = np.full(R * S, DRAWS_PER_ROW, dtype=np.int64)
        self._lanes: List[_Lane] = []
        for r, bank in enumerate(banks):
            n = len(bank.objs)
            self._act[r, :n] = True
            self._dt_act[r, :n] = self.dt
            self._p_B[r, :n] = bank.byte_counter
            self._p_T[r, :n] = bank.timer
            self._p_mtu[r, :n] = bank.mtu
            self._p_g[r, :n] = bank.g
            self._p_omg[r, :n] = bank.one_minus_g
            self._p_cnpint[r, :n] = bank.cnp_interval
            self._p_alphat[r, :n] = bank.alpha_timer
            self._p_minrate[r, :n] = bank.min_rate
            self._p_rai[r, :n] = bank.rai
            self._p_rhai[r, :n] = bank.rhai
            self._p_fast[r, :n] = bank.fast_rounds
            self._p_line[r, :n] = bank.line
            # No fault window ever scales the lane's one link.
            self._cap[r] = bank.fabric.queues[0].capacity
            self._kmin[r] = bank._kmin
            self._kmax[r] = bank._kmax
            self._pmax[r] = bank._pmax
            self._mspan[r] = bank._mspan

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, sims: Sequence) -> Optional["GridBank"]:
        """A grid for ``sims``, or ``None`` if any simulator breaks a
        lane rule (see :func:`_lane_bank`), the time steps differ, or
        two sender slots share a numpy generator."""
        sims = list(sims)
        banks = [_lane_bank(sim) for sim in sims]
        if not sims or any(bank is None for bank in banks):
            return None
        dt0 = sims[0].dt
        if any(sim.dt != dt0 for sim in sims):
            return None
        # Each slot draws from its own table row, filled from its own
        # generator; a shared generator would need the rows of its
        # slots interleaved in draw order.
        rngs = [id(stream._rng) for bank in banks for stream in bank.stream]
        if len(set(rngs)) != len(rngs):
            return None
        # One TimerCache per (timer, dt) for the whole grid: the
        # trajectory is a pure function of the key, so lanes share the
        # lazily-extended wrap schedules instead of rebuilding them.
        shared: Dict[Tuple[float, float], TimerCache] = {}
        for bank in banks:
            for key, cache in list(bank._tcaches.items()):
                bank._tcaches[key] = shared.setdefault(key, cache)
            bank.tcache = [
                bank._tcaches[(bank.timer[k], dt0)]
                for k in range(len(bank.objs))
            ]
        return cls(sims, banks)

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    def run(self, duration: float) -> List[DcqcnResult]:
        """Simulate every lane for ``duration`` seconds; same contract
        as ``[sim.run(duration) for sim in sims]``, including the
        preparation (:func:`~repro.cc.link_engine.prepare_run`) and
        final sender writeback each solo run performs."""
        self._lanes = []
        for r, (sim, bank) in enumerate(zip(self.sims, self.banks)):
            prepare_run(sim)
            lane = _Lane(r, bank)
            lane.gen = bank.drive(duration)
            self._sev[r] = bank.samples_every
            self._lanes.append(lane)
        for lane in self._lanes:
            self._advance(lane, first=True)
        self._kernel()
        # Every table draw counts as consumed. _finish rewinds each
        # stream by its consumed count and drops its buffer, so a row's
        # unread draws only leave that count.
        for lane in self._lanes:
            base = lane.r * self._S
            unread = DRAWS_PER_ROW - self._dpos[base:base + lane.n]
            for stream, count in zip(lane.bank.stream, unread.tolist()):
                stream._consumed -= count
        # The kernel appends sample rows as array views to keep the hot
        # loop cheap; normalize them to the plain lists the bank's span
        # path appends before handing off to _finish.
        for bank in self.banks:
            rows = bank.samples.rows
            for idx, row in enumerate(rows):
                rates = row[1]
                if isinstance(rates, np.ndarray):
                    rows[idx] = (row[0], rates.tolist(), row[2])
        return [bank._finish(duration) for bank in self.banks]

    # ------------------------------------------------------------------
    # Lane control flow
    # ------------------------------------------------------------------

    def _advance(
        self, lane: _Lane, value: Optional[int] = None,
        first: bool = False,
    ) -> None:
        """Resume a lane's generator; load its next tick request into
        the arrays, or retire the lane when the run is finished."""
        try:
            if first:
                request = next(lane.gen)
            else:
                request = lane.gen.send(value)
        except StopIteration:
            self._retire_row(lane.r)
            return
        i, end, retry_at = request
        r = lane.r
        self._i[r] = i
        self._end[r] = end
        self._retry[r] = retry_at
        self._load_row(lane)
        if not self._ticking[r]:
            self._ticking[r] = True
            self._n_ticking += 1

    # ------------------------------------------------------------------
    # Array <-> bank synchronization
    # ------------------------------------------------------------------

    def _load_row(self, lane: _Lane) -> None:
        """Refresh lane ``r``'s rows from its bank and link queue."""
        r = lane.r
        n = lane.n
        bank = lane.bank
        self._rate[r, :n] = bank.rate
        self._target[r, :n] = bank.target
        self._alpha[r, :n] = bank.alpha
        self._bsent[r, :n] = bank.bytes_sent
        self._bacc[r, :n] = bank.b_acc
        self._tacc[r, :n] = bank.t_acc
        self._ncnp[r, :n] = bank.next_cnp
        self._ndecay[r, :n] = bank.next_decay
        self._bst[r, :n] = bank.b_st
        self._tst[r, :n] = bank.t_st
        self._tph[r, :n] = bank.t_ph
        self._cnps[r, :n] = bank.cnps
        self._occ[r] = lane.queue.occupancy

    def _writeback(self, lane: _Lane) -> None:
        """Write lane ``r``'s rows back into its bank and link queue so
        the original Python machinery sees exact current state."""
        r = lane.r
        n = lane.n
        bank = lane.bank
        bank.rate = self._rate[r, :n].tolist()
        bank.target = self._target[r, :n].tolist()
        bank.alpha = self._alpha[r, :n].tolist()
        bank.bytes_sent = self._bsent[r, :n].tolist()
        bank.b_acc = self._bacc[r, :n].tolist()
        bank.t_acc = self._tacc[r, :n].tolist()
        bank.next_cnp = self._ncnp[r, :n].tolist()
        bank.next_decay = self._ndecay[r, :n].tolist()
        bank.b_st = self._bst[r, :n].tolist()
        bank.t_st = self._tst[r, :n].tolist()
        bank.t_ph = self._tph[r, :n].tolist()
        bank.cnps = self._cnps[r, :n].tolist()
        lane.queue.occupancy = float(self._occ[r])

    def _retire_row(self, r: int) -> None:
        """Neutralize a finished lane so full-grid ops ignore it: its
        slots send nothing, so they never draw or wrap."""
        if self._ticking[r]:
            self._ticking[r] = False
            self._n_ticking -= 1
        self._act[r, :] = False
        self._dt_act[r, :] = 0.0
        self._occ[r] = 0.0
        self._cap[r] = 0.0

    # ------------------------------------------------------------------
    # The stacked tick kernel
    # ------------------------------------------------------------------

    def _kernel(self) -> None:
        """Step every ticking lane one tick at a time, all lanes at
        once, until each lane's generator finishes its run. The op
        sequence per tick replays ``_tick_run``'s per-slot order with
        the order-sensitive pieces as exact scalar fixups."""
        dt = self.dt
        rate = self._rate
        target = self._target
        bsent = self._bsent
        bacc = self._bacc
        tacc = self._tacc
        ncnp = self._ncnp
        ndecay = self._ndecay
        act = self._act
        sent = self._sent
        iarr = self._i
        occ_arr = self._occ
        while self._n_ticking:
            ticking = self._ticking
            now = iarr * dt
            # RED marking probability per lane (same operand order as
            # the scalar marking_probability fast path).
            kmin = self._kmin
            ramp = self._pmax * (occ_arr - kmin) / self._mspan
            p_mark = np.where(
                occ_arr <= kmin,
                0.0,
                np.where(occ_arr >= self._kmax, 1.0, ramp),
            )
            # Per-slot send: rate * dt on active slots, 0.0 elsewhere.
            np.multiply(rate, self._dt_act, out=sent)
            bsent += sent
            # CNP coin flips: scalar ``**`` and the inlined chunk draw,
            # in row-major (lane, slot) order — each lane's slot order,
            # and therefore each stream's draw order, matches solo.
            elig = self._elig
            np.greater(sent, 0.0, out=elig)
            elig &= now[:, None] >= ncnp
            elig &= p_mark[:, None] > 0.0
            if elig.any():
                self._cnp_pass(elig, p_mark, now)
            # Byte counter: accumulate post-CNP (a reset this tick
            # still counts this tick's bytes), then exact wrap loops.
            bacc += sent
            wrap = self._wrapb
            np.greater_equal(bacc, self._p_B, out=wrap)
            if wrap.any():
                self._wrap_pass(wrap, byte=True)
            # Timer: advance active slots by dt, then wrap loops.
            tacc += self._dt_act
            np.greater_equal(tacc, self._p_T, out=wrap)
            if wrap.any():
                self._wrap_pass(wrap, byte=False)
            self._tph += act
            # Alpha decay.
            decay = self._decayb
            np.greater_equal(now[:, None], ndecay, out=decay)
            decay &= act
            if decay.any():
                self._decay_pass(decay, now)
            # Rate/target clamps. Maximum-then-minimum equals the
            # scalar if/elif because build() guarantees floor <= line;
            # padding slots clamp 0.0 against 0.0 and +inf (no-ops).
            np.maximum(rate, self._p_minrate, out=rate)
            np.minimum(rate, self._p_line, out=rate)
            np.minimum(target, self._p_line, out=target)
            # Queue: arrivals fold in slot order (cumsum is the exact
            # sequential sum; padding slots add 0.0).
            arrival = sent.cumsum(axis=1)[:, -1]
            net = arrival / dt - self._cap
            occ_next = occ_arr + net * dt
            occ_arr[...] = np.where(
                (net < 0.0) & (occ_next <= 0.0), 0.0, occ_next
            )
            iarr += ticking
            # Sample rows land at tick boundaries, post-update; they
            # keep views of one copy of the rates.
            due = ticking & (iarr % self._sev == 0)
            if due.any():
                rates_now = rate.copy()
                for r in np.nonzero(due)[0].tolist():
                    lane = self._lanes[r]
                    lane.bank.samples.rows.append((
                        int(iarr[r]) * dt,
                        rates_now[r, : lane.n],
                        [float(occ_arr[r])],
                    ))
            # Lane exits: the run's end, or a span-friendly probe gate
            # past retry_at. The gate is a pure cost filter
            # — the bank's _try_span remains the deterministic
            # authority — so a conservative miss only costs ticks.
            # Kernel iterations are shared across lanes, so a span only
            # pays when it can run long: gate on an unmarked queue
            # (spans may reach MAX_HORIZON) and skip the short
            # between-CNP spans the solo engine would take.
            gate = occ_arr <= kmin
            exits = ticking & (
                (iarr >= self._end) | ((iarr >= self._retry) & gate)
            )
            if exits.any():
                for r in np.nonzero(exits)[0].tolist():
                    lane = self._lanes[r]
                    self._ticking[r] = False
                    self._n_ticking -= 1
                    self._writeback(lane)
                    self._advance(lane, int(iarr[r]))

    # ------------------------------------------------------------------
    # Scalar fixup passes (order-sensitive pieces of the tick)
    # ------------------------------------------------------------------

    def _cnp_pass(
        self, elig: np.ndarray, p_mark: np.ndarray, now: np.ndarray
    ) -> None:
        """Replay the scalar CNP block for every eligible slot.

        The marking probability comes from the vectorized RED ramp and
        the packet counts ``sent / mtu`` are elementwise divisions (IEEE
        ops, bit-identical to the scalar ones). Each slot's coin is the
        next unread draw of its table row; one generator per slot makes
        that the draw a solo run reads. The miss probability is
        Python-float ``**`` — the vectorized power op is *not*
        bit-identical to the scalar one. The slots whose coin lands then
        update as masked elementwise ops (same op sequence per slot).
        """
        flat = np.flatnonzero(elig)
        pos = self._dpos[flat]
        empty = pos == DRAWS_PER_ROW
        if empty.any():
            for f in flat[empty].tolist():
                r, k = divmod(f, self._S)
                self._draws[f] = self.banks[r].stream[k].take(DRAWS_PER_ROW)
            pos[empty] = 0
        draws = self._draws[flat, pos]
        self._dpos[flat] = pos + 1
        q_mark = (1.0 - p_mark)[flat // self._S]
        packets = self._sent.ravel()[flat] / self._p_mtu.ravel()[flat]
        q_any = np.fromiter(
            map(pow, q_mark.tolist(), packets.tolist()), float, flat.size
        )
        hf = flat[draws < 1.0 - q_any]
        if not hf.size:
            return
        # Flat views: every state array is C-contiguous (runs, senders).
        alpha = self._alpha.ravel()
        rate = self._rate.ravel()
        # a = (1 - g) * alpha + g; target parks at the pre-cut rate,
        # which is cut to max(r * (1 - a/2), floor).
        a_new = self._p_omg.ravel()[hf] * alpha[hf] + self._p_g.ravel()[hf]
        alpha[hf] = a_new
        r_now = rate[hf]
        self._target.ravel()[hf] = r_now
        rate[hf] = np.maximum(
            r_now * (1.0 - a_new / 2.0), self._p_minrate.ravel()[hf]
        )
        for state in (self._bacc, self._tacc, self._bst, self._tst, self._tph):
            state.ravel()[hf] = 0
        now_sel = now[hf // self._S]
        self._ncnp.ravel()[hf] = now_sel + self._p_cnpint.ravel()[hf]
        self._ndecay.ravel()[hf] = now_sel + self._p_alphat.ravel()[hf]
        self._cnps.ravel()[hf] += 1

    def _wrap_pass(self, wrap: np.ndarray, byte: bool) -> None:
        """Byte/timer wrap loops with increase events, vectorized one
        wrap round at a time over the wrapped slots (per-slot op order
        matches the scalar while-loop; slots are independent across
        rounds)."""
        accum = (self._bacc if byte else self._tacc).ravel()
        stage = (self._bst if byte else self._tst).ravel()
        limit = (self._p_B if byte else self._p_T).ravel()
        bst = self._bst.ravel()
        tst = self._tst.ravel()
        rate = self._rate.ravel()
        target = self._target.ravel()
        idx = np.flatnonzero(wrap)
        while idx.size:
            accum[idx] -= limit[idx]
            stage[idx] += 1
            # _increase_event on the wrapped slots: the in-fast branch
            # adds exactly 0.0 (a no-op on positive targets), matching
            # the scalar "pass"; the clamp applies unconditionally.
            f = self._p_fast.ravel()[idx]
            b = bst[idx]
            t = tst[idx]
            bump = np.where(
                (b < f) & (t < f),
                0.0,
                np.where(
                    (b >= f) & (t >= f),
                    self._p_rhai.ravel()[idx],
                    self._p_rai.ravel()[idx],
                ),
            )
            tgt = np.minimum(target[idx] + bump, self._p_line.ravel()[idx])
            target[idx] = tgt
            rate[idx] = (tgt + rate[idx]) / 2.0
            idx = idx[accum[idx] >= limit[idx]]

    def _decay_pass(self, decay: np.ndarray, now: np.ndarray) -> None:
        """Alpha-decay while-loops, vectorized one round at a time over
        the decaying slots."""
        alpha = self._alpha.ravel()
        ndecay = self._ndecay.ravel()
        omg = self._p_omg.ravel()
        period = self._p_alphat.ravel()
        idx = np.flatnonzero(decay)
        while idx.size:
            alpha[idx] *= omg[idx]
            ndecay[idx] += period[idx]
            idx = idx[now[idx // self._S] >= ndecay[idx]]
