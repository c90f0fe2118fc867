"""Shared (centralized) buffering — the architecture the paper implements.

A single memory pool of ``capacity`` cells is shared by all outputs; cells are
kept in per-output FIFO order (linked lists in a real chip, deques here).  A
cell is dropped only when the *whole* pool is full, which is why shared
buffering needs far fewer total cells than output queueing for the same loss
probability ([HlKa88]; bench E3).

This is the slot-level idealization of the pipelined-memory switch; the
word-level model in :mod:`repro.core` refines it to clock-cycle granularity.
Equivalence between the two (same departures under the same arrivals, up to
the pipeline latency) is checked by ``tests/integration``.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterable

import numpy as np

from repro.core.errors import ConfigError
from repro.policy import AdmissionPolicy, parse_policy
from repro.sim.packet import Cell
from repro.sim.rng import make_rng
from repro.sim.stats import SwitchStats
from repro.switches.base import SlottedSwitch
from repro.telemetry import DROP_POLICY


class SharedBuffer(SlottedSwitch):
    """Shared memory pool with per-output FIFO discipline.

    Parameters
    ----------
    capacity:
        Total pool size in cells (``None`` = infinite).  [HlKa88]'s headline
        number: 86 cells suffice for a 16x16 switch at load 0.8 for loss 1e-3.
    policy:
        Admission policy (spec string or :class:`~repro.policy.AdmissionPolicy`)
        consulted per cell at slot granularity, before the pool-full check.
        A refusal is a late drop with cause ``policy``.  Non-trivial policies
        require a finite ``capacity`` — free-space-scaled thresholds are
        meaningless over an infinite pool.
    """

    def __init__(
        self,
        n_in: int,
        n_out: int,
        capacity: int | None = None,
        warmup: int = 0,
        seed: int | np.random.Generator | None = None,
        policy: AdmissionPolicy | str | None = "complete",
    ) -> None:
        super().__init__(n_in, n_out, warmup)
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self.policy = parse_policy(policy)
        if not self.policy.trivial:
            if capacity is None:
                raise ConfigError(
                    f"admission policy '{self.policy.spec}' needs a finite "
                    f"capacity; an infinite shared pool has no free space "
                    f"to ration"
                )
            self.policy.validate(n=n_out, addresses=capacity, quanta=1)
        self._policy_trivial = self.policy.trivial
        self.policy_drops = 0  # after warmup, like stats.dropped
        self.queues: list[deque[Cell]] = [deque() for _ in range(n_out)]
        # len(q) per output, kept in step with every append/popleft: the
        # ``held`` view admission policies read, without a per-cell rebuild.
        self._depth = [0] * n_out
        self._total = 0
        self.rng = make_rng(seed)
        self._pending: list[Cell] = []

    def _admit(self, cell: Cell) -> bool:
        self._pending.append(cell)
        return True  # provisional; adjusted in _select_departures

    def _select_departures(self) -> list[Cell | None]:
        depth = self._depth
        if self._pending:
            order = self.rng.permutation(len(self._pending))
            for k in order:
                cell = self._pending[int(k)]
                if self.capacity is not None and self._total >= self.capacity:
                    self._record_late_drop(cell)
                elif not self._policy_trivial and not self.policy.admit(
                    cell.dst, self.capacity - self._total, depth, 1,
                ):
                    if cell.arrival_slot >= self.stats.warmup:
                        self.policy_drops += 1
                    self._record_late_drop(cell, cause=DROP_POLICY)
                else:
                    self.queues[cell.dst].append(cell)
                    depth[cell.dst] += 1
                    self._total += 1
            self._pending = []
        departures: list[Cell | None] = []
        for j, q in enumerate(self.queues):
            if q:
                departures.append(q.popleft())
                depth[j] -= 1
                self._total -= 1
            else:
                departures.append(None)
        return departures

    def occupancy(self) -> int:
        return self._total

    # -- whole-horizon loop ----------------------------------------------------
    def _drive(self, rows: Iterable[list[int | None]]) -> SwitchStats:
        """Switch a whole horizon in one loop when no per-slot hook listens.

        With telemetry, the sanitizer and occupancy sampling all off (every
        sweep cell and paper bench), nothing observes a slot in flight, so
        the loop below keeps the switch state in locals and folds the
        per-cell statistics into :attr:`stats` once, at the end.  It is the
        :meth:`step` path — arrivals, ``_admit`` and ``_select_departures``
        — with the calls inlined: the same ``rng.permutation`` draws in the
        same order, the same :class:`Cell` uids in the queues, and the
        Welford and histogram recurrences applied departure by departure in
        output order, so every statistic comes out bit-identical.  Any hook
        that does listen (or cells left pending by a failed :meth:`step`)
        selects the per-slot path, which stays the reference.
        """
        if self._tel or self._san or self.sample_occupancy or self._pending:
            return super()._drive(rows)
        n_in, n_out = self.n_in, self.n_out
        stats = self.stats
        warmup = stats.warmup
        queues = self.queues
        depth = self._depth
        capacity = self.capacity if self.capacity is not None else math.inf
        admit = None if self._policy_trivial else self.policy.admit
        permutation = self.rng.permutation
        per_out = stats.per_output_delivered
        delay = stats.delay
        dl_n, dl_mean, dl_m2 = delay.count, delay._mean, delay._m2
        dl_min, dl_max = delay.minimum, delay.maximum
        hist = stats.delay_hist.counts
        hist_get = hist.get
        hist_n = stats.delay_hist.total
        offered = accepted = dropped = delivered = refused = 0
        total = self._total
        start = slot = self.slot
        try:
            for dests in rows:
                if len(dests) != n_in:
                    raise ValueError(
                        f"expected {n_in} arrival entries, got {len(dests)}"
                    )
                arrived: list[Cell] = []
                for src, dst in enumerate(dests):
                    if dst is None:
                        continue
                    if not 0 <= dst < n_out:
                        # Leave the slot as a failed step() would: the cells
                        # before the bad entry offered, accepted, pending.
                        self._pending = arrived
                        if slot >= warmup:
                            offered += len(arrived)
                            accepted += len(arrived)
                        raise ValueError(
                            f"destination {dst} out of range (n_out={n_out})"
                        )
                    arrived.append(Cell(src, dst, slot))
                if arrived:
                    lost = refused_now = 0
                    for k in permutation(len(arrived)).tolist():
                        cell = arrived[k]
                        dst = cell.dst
                        if total >= capacity:
                            lost += 1
                        elif admit is not None and not admit(
                            dst, capacity - total, depth, 1
                        ):
                            lost += 1
                            refused_now += 1
                        else:
                            queues[dst].append(cell)
                            depth[dst] += 1
                            total += 1
                    if slot >= warmup:
                        offered += len(arrived)
                        accepted += len(arrived) - lost
                        dropped += lost
                        refused += refused_now
                if total:
                    for j in range(n_out):
                        if not depth[j]:
                            continue
                        cell = queues[j].popleft()
                        depth[j] -= 1
                        total -= 1
                        cell.depart_slot = slot
                        if slot >= warmup:
                            delivered += 1
                            per_out[j] += 1
                        arrival = cell.arrival_slot
                        if arrival >= warmup:
                            d = slot - arrival
                            dl_n += 1
                            delta = d - dl_mean
                            dl_mean += delta / dl_n
                            dl_m2 += delta * (d - dl_mean)
                            if d < dl_min:
                                dl_min = d
                            if d > dl_max:
                                dl_max = d
                            hist[d] = hist_get(d, 0) + 1
                            hist_n += 1
                slot += 1
        finally:
            self._total = total
            self.slot = slot
            if slot != start:
                stats.horizon = slot
            stats.offered += offered
            stats.accepted += accepted
            stats.dropped += dropped
            stats.delivered += delivered
            self.policy_drops += refused
            delay.count, delay._mean, delay._m2 = dl_n, dl_mean, dl_m2
            delay.minimum, delay.maximum = dl_min, dl_max
            stats.delay_hist.total = hist_n
        return stats
