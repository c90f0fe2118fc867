"""SharedBuffer's whole-horizon loop against the per-slot step() reference.

``run()`` / ``run_matrix()`` / ``run_fast()`` switch the whole horizon in
one loop when no per-slot hook listens (telemetry, sanitizer and occupancy
sampling off).  Driving the same switch with one ``step()`` per slot is the
reference: every statistic, Welford internal, histogram, policy-drop count,
queue content, packet uid and the final RNG state must come out equal.
"""

import itertools

import pytest

from repro.drc.sanitizer import Sanitizer
from repro.sim.packet import packet_id_state, reset_packet_ids
from repro.switches import SharedBuffer
from repro.telemetry import Telemetry
from repro.traffic import BernoulliUniform, BurstyOnOff, Hotspot

N = 4
SLOTS = 1500
POLICIES = ["complete", "static:cap=5", "dynamic:alpha=1.0",
            "reservation:reserve=2"]
TRAFFIC = {
    "bernoulli": lambda: BernoulliUniform(N, N, 0.9, seed=3),
    "bursty": lambda: BurstyOnOff(N, N, 0.9, mean_burst=8, seed=3),
    "hotspot": lambda: Hotspot(N, N, 0.9, hot=0, hot_fraction=0.5, seed=3),
}


def _switch(policy, capacity, warmup):
    return SharedBuffer(N, N, capacity=capacity, warmup=warmup, seed=5,
                        policy=policy)


def _state(sw):
    st = sw.stats
    return {
        "summary": st.summary(),
        "counts": (st.offered, st.accepted, st.dropped, st.delivered),
        "welford": (st.delay.count, st.delay._mean, st.delay._m2,
                    st.delay.minimum, st.delay.maximum),
        # items(), not the dict: insertion order reaches serialized output
        "hist": list(st.delay_hist.counts.items()),
        "hist_total": st.delay_hist.total,
        "per_output": list(st.per_output_delivered),
        "horizon": st.horizon,
        "slot": sw.slot,
        "policy_drops": sw.policy_drops,
        "occupancy": sw.occupancy(),
        "depth": list(sw._depth),
        "queues": [[(c.uid, c.src, c.arrival_slot) for c in q]
                   for q in sw.queues],
        "next_uid": packet_id_state(),
        "rng": sw.rng.bit_generator.state,
    }


def _step_run(sw, source, slots):
    """The reference for run(): one step() per slot."""
    for _ in range(slots):
        sw.step(source.arrivals(sw.slot))


def _step_run_fast(sw, source, slots, chunk):
    """The reference for run_fast(): the same matrices, one step() per row."""
    remaining = slots
    while remaining > 0:
        batch = min(chunk, remaining)
        matrix = source.arrivals_matrix(batch, start_slot=sw.slot)
        for row in matrix.tolist():
            sw.step([d if d >= 0 else None for d in row])
        remaining -= batch


def _pair(drive, reference, policy="dynamic:alpha=1.0", capacity=12,
          warmup=0, traffic="hotspot"):
    reset_packet_ids()
    loop = _switch(policy, capacity, warmup)
    drive(loop, TRAFFIC[traffic]())
    loop_state = _state(loop)
    reset_packet_ids()
    ref = _switch(policy, capacity, warmup)
    reference(ref, TRAFFIC[traffic]())
    return loop_state, _state(ref)


CASES = [
    (policy, capacity, traffic, warmup)
    for policy, capacity, traffic, warmup in itertools.product(
        POLICIES, [None, 12], TRAFFIC, [0, 300])
    if capacity is not None or policy == "complete"
]


@pytest.mark.parametrize("policy,capacity,traffic,warmup", CASES)
class TestHorizonLoopMatchesStep:
    def test_run(self, policy, capacity, traffic, warmup):
        loop, ref = _pair(lambda sw, src: sw.run(src, SLOTS),
                          lambda sw, src: _step_run(sw, src, SLOTS),
                          policy, capacity, warmup, traffic)
        assert loop == ref

    def test_run_fast(self, policy, capacity, traffic, warmup):
        loop, ref = _pair(
            lambda sw, src: sw.run_fast(src, SLOTS, chunk=400),
            lambda sw, src: _step_run_fast(sw, src, SLOTS, chunk=400),
            policy, capacity, warmup, traffic)
        assert loop == ref


def test_cases_exercise_every_drop_branch():
    """The matrix above is only worth something if both late-drop causes
    fire and cells stay queued at the horizon."""
    reset_packet_ids()
    sw = _switch("static:cap=5", 12, 0)
    sw.run(TRAFFIC["bursty"](), SLOTS)
    assert sw.policy_drops > 0
    assert sw.stats.dropped > sw.policy_drops
    assert sw.occupancy() > 0


def test_run_then_step_interleaving():
    """A step() after run() continues the loop's state, and run() after
    step() picks up where the per-slot path left off."""
    def mixed(sw, src):
        sw.run(src, 400)
        _step_run(sw, src, 250)
        sw.run_fast(src, 300, chunk=128)
        _step_run(sw, src, 50)
        sw.run(src, 500)

    def reference(sw, src):
        _step_run(sw, src, 650)
        _step_run_fast(sw, src, 300, chunk=128)
        _step_run(sw, src, 550)

    loop, ref = _pair(mixed, reference, warmup=200)
    assert loop == ref


@pytest.mark.parametrize("hook", ["telemetry", "sanitizer", "sample"])
def test_listening_hook_selects_step_path(hook, monkeypatch):
    """Telemetry, the sanitizer or occupancy sampling must see every slot,
    so any one of them routes run() through step(); the statistics are the
    loop's either way."""
    reset_packet_ids()
    plain = _switch("static:cap=5", 12, 100)
    plain.run(TRAFFIC["bursty"](), SLOTS)

    reset_packet_ids()
    hooked = _switch("static:cap=5", 12, 100)
    if hook == "telemetry":
        hooked.attach_telemetry(Telemetry.on(sample_interval=64))
    elif hook == "sanitizer":
        hooked.attach_sanitizer(Sanitizer())
    else:
        hooked.sample_occupancy = True
    steps = 0
    step = hooked.step

    def counting_step(*args, **kwargs):
        nonlocal steps
        steps += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(hooked, "step", counting_step)
    hooked.run(TRAFFIC["bursty"](), SLOTS)
    assert steps == SLOTS
    assert _state(hooked) == _state(plain)
    if hook == "sample":
        assert len(hooked.occupancy_samples) == SLOTS - 100


def test_loop_does_not_call_step(monkeypatch):
    sw = _switch("complete", None, 0)
    monkeypatch.setattr(sw, "step", lambda *a, **k: pytest.fail("step"))
    sw.run(TRAFFIC["bernoulli"](), 100)
    assert sw.stats.horizon == 100


class _Scripted:
    """A source replaying fixed rows (which may be malformed)."""

    def __init__(self, rows):
        self.n_in = self.n_out = N
        self._rows = iter(rows)

    def arrivals(self, slot):
        return next(self._rows)


GOOD = [[0, 1, None, 3], [2, 2, 2, None]]


@pytest.mark.parametrize("bad,message", [
    ([0, 1, N, 2], f"destination {N} out of range"),
    ([0, -1, None, 2], "destination -1 out of range"),
    ([0, 1], "expected 4 arrival entries, got 2"),
])
def test_bad_row_raises_like_step(bad, message):
    """A malformed row fails with step()'s ValueError and leaves the switch
    exactly as the failed step() leaves it: earlier cells of the slot
    offered and pending, later slots untouched."""
    def loop(sw, src):
        with pytest.raises(ValueError, match=message):
            sw.run(src, 3)

    def reference(sw, src):
        _step_run(sw, src, 2)
        with pytest.raises(ValueError, match=message):
            sw.step(src.arrivals(sw.slot))

    reset_packet_ids()
    a = _switch("complete", 12, 0)
    loop(a, _Scripted(GOOD + [bad]))
    reset_packet_ids()
    b = _switch("complete", 12, 0)
    reference(b, _Scripted(GOOD + [bad]))
    assert _state(a) == _state(b)
    assert [c.uid for c in a._pending] == [c.uid for c in b._pending]
    # The leftover cells are switched by the next slot on either path.
    a.run(_Scripted([[None] * N]), 1)
    b.step([None] * N)
    assert _state(a) == _state(b)


def test_source_shape_checked():
    sw = _switch("complete", None, 0)
    with pytest.raises(ValueError, match="source is 2x2, switch is 4x4"):
        sw.run(BernoulliUniform(2, 2, 0.5, seed=1), 10)
    with pytest.raises(ValueError, match="arrival matrix must be"):
        sw.run_matrix([[0, 1]])
