"""Property: versionset reclamation frees a run iff no live version has it.

The version-set lifecycle's reclamation rule (ISSUE 5): a retired run is
physically freed exactly when the last *live* version containing it goes
away -- where a version is live while it is the current one or some
un-released pin still refs it.  Hypothesis drives a random interleaving
of publications (add run), version pins, out-of-order releases and
retirements, and after every step compares the set of actually-executed
frees against an independent model: a retired run must be freed iff no
un-released pin's captured snapshot contains it (the current version
cannot contain it -- retirement follows the unlink's publication).

The model never peeks at lifecycle internals; it tracks only what the
API caller can see (which runs each pin's version contained, which pins
were released), so the test would catch both failure directions: frees
that fire under a live reader (the legacy hazard) and frees that never
fire (a leak).
"""

from hypothesis import given, settings, strategies as st

from repro.core.epoch import RunLifecycle, RunListVersion
from repro.storage.metrics import EpochStats


class _Run:
    __slots__ = ("run_id",)

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id


class _Harness:
    """Published run set + registered collector, mirroring UmziIndex."""

    def __init__(self) -> None:
        self.stats = EpochStats()
        self.lifecycle = RunLifecycle(self.stats)
        self.lifecycle.attach_collector(self._collect)
        self.published = []          # the "run lists"
        self.freed = []              # reclaim actions that actually ran
        self.pins = []               # (pin, frozenset(run_ids), released?)
        self.retired_ids = []
        self._next = 0

    def _collect(self) -> RunListVersion:
        return RunListVersion(
            version_id=self.lifecycle.version_seq,
            groomed=tuple(self.published),
            post_groomed=(),
            watermark=0,
        )

    def add_run(self) -> None:
        self._next += 1
        self.published = self.published + [_Run(f"r{self._next}")]
        self.lifecycle.note_publish()

    def pin(self) -> None:
        pin = self.lifecycle.pin()
        self.pins.append(
            [pin, frozenset(r.run_id for r in pin.runs), False]
        )

    def release(self, index: int) -> None:
        if not self.pins:
            return
        slot = self.pins[index % len(self.pins)]
        slot[0].release()
        slot[2] = True

    def retire_one(self) -> None:
        """Unlink the oldest still-published run, then retire it."""
        if not self.published:
            return
        victim = self.published[0]
        self.published = self.published[1:]
        self.lifecycle.note_publish()          # the unlink's publication
        self.retired_ids.append(victim.run_id)
        self.lifecycle.retire(
            victim.run_id,
            lambda rid=victim.run_id: self.freed.append(rid),
        )

    def expected_freed(self) -> set:
        """Model: retired and not covered by any un-released pin."""
        covered = set()
        for _pin, run_ids, released in self.pins:
            if not released:
                covered |= run_ids
        return {rid for rid in self.retired_ids if rid not in covered}

    def check(self) -> None:
        assert set(self.freed) == self.expected_freed(), (
            f"freed={sorted(self.freed)} "
            f"expected={sorted(self.expected_freed())} "
            f"retired={self.retired_ids}"
        )
        # No double frees, ever.
        assert len(self.freed) == len(set(self.freed))


# Operation alphabet: (op, payload).  Releases pick an arbitrary pin --
# crucially allowing out-of-publication-order unrefs.
_ops = st.lists(
    st.one_of(
        st.just(("add", 0)),
        st.just(("pin", 0)),
        st.tuples(st.just("release"), st.integers(0, 7)).map(tuple),
        st.just(("retire", 0)),
    ),
    min_size=1,
    max_size=40,
)


@given(_ops)
@settings(max_examples=150, deadline=None)
def test_retired_run_freed_iff_no_live_version_contains_it(ops):
    h = _Harness()
    for op, payload in ops:
        if op == "add":
            h.add_run()
        elif op == "pin":
            h.pin()
        elif op == "release":
            h.release(payload)
        else:
            h.retire_one()
        h.check()
    # Quiesce: release everything; every retired run must now be freed.
    for slot in h.pins:
        if not slot[2]:
            slot[0].release()
            slot[2] = True
    h.check()
    assert set(h.freed) == set(h.retired_ids)
    assert h.lifecycle.retired_backlog() == 0
    # Exactly 2 refcount ops per pin, regardless of how the interleaving
    # went; the chain collapsed back to the current version alone.
    assert h.stats.version_refs == h.stats.version_unrefs == len(h.pins)
    assert h.lifecycle.live_version_count() <= 1
