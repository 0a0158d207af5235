"""RemoteNetwork's tag -> deadline table: O(in-flight), budgets inherited.

A unit harness, no sockets: the transport writes into a list, the test
plays the overlay service (fabricated response frames through a real
``StreamReader`` into the real ``_read_loop``), and a scripted front-end
keeps the one habit of :class:`repro.core.frontend.Frontend` the table
depends on — it drains a tag's message count (``stats.pop_tag``) when
the tag's last answer has arrived.
"""

from __future__ import annotations

import asyncio
import pickle

from repro.serve.protocol import encode_frame
from repro.serve.resilience import Deadline
from repro.serve.transport import RemoteNetwork

ROOT = 7


class _Writer:
    """The overlay link's write side: keeps the decoded frames."""

    def __init__(self) -> None:
        self.frames: list[dict] = []

    def is_closing(self) -> bool:
        return False

    def write(self, data: bytes) -> None:
        self.frames.append(pickle.loads(data[4:]))


class _ScriptedFrontend:
    """Probe, then a two-group cover fan-out triggered by the probe's
    answer, then done: the wire shape of one composite query."""

    def __init__(self, net: RemoteNetwork) -> None:
        self.net = net
        self.waiting: dict[str, int] = {}
        self.completed = 0
        self.failures: list[tuple[object, str]] = []
        net.attach(self)

    def submit(self, n: int) -> None:
        self.net.send(-1, ROOT, "SIZE_PROBE", {"probe_id": f"p{n}"})

    def handle_message(self, message) -> None:
        payload = message.payload
        if message.mtype == "SIZE_RESPONSE":
            probe = payload["probe_id"]
            self.net.stats.pop_tag(probe)
            share = "s" + probe[1:]
            self.waiting[share] = 2
            for _ in range(2):
                self.net.send(-1, ROOT, "FRONTEND_QUERY", {"qid": share})
        else:
            share = payload["qid"]
            self.waiting[share] -= 1
            if not self.waiting[share]:
                del self.waiting[share]
                self.net.stats.pop_tag(share)
                self.completed += 1

    def on_link_failure(self, tags, reason) -> None:
        self.failures.append((tags, reason))


def _harness() -> tuple[RemoteNetwork, _Writer, _ScriptedFrontend]:
    net = RemoteNetwork("127.0.0.1", 1, node_id=-1, reconnect=False)
    net._writer = writer = _Writer()  # type: ignore[assignment]
    net._closing = True  # EOF on a fed reader is not a lost link
    return net, writer, _ScriptedFrontend(net)


def _wire(mtype: str, payload: dict) -> bytes:
    return encode_frame(
        {"kind": "wire", "src": ROOT, "dst": -1, "mtype": mtype, "payload": payload}
    )


async def _deliver(net: RemoteNetwork, *frames: bytes) -> None:
    reader = asyncio.StreamReader()
    for frame in frames:
        reader.feed_data(frame)
    reader.feed_eof()
    net._reader = reader
    await net._read_loop()


def test_table_is_bounded_by_in_flight_work_over_5000_queries() -> None:
    net, writer, frontend = _harness()
    high_water = 0

    async def scenario() -> None:
        nonlocal high_water
        for n in range(5000):
            budget = Deadline.after(30.0)
            with net.deadline_scope(budget):
                frontend.submit(n)
            assert set(net._tag_deadlines) == {f"p{n}"}
            # The probe's answer triggers the cover fan-out *outside*
            # any scope: those sends inherit the query's budget through
            # the probe tag, and register their own tag with it.
            await _deliver(net, _wire("SIZE_RESPONSE", {"probe_id": f"p{n}"}))
            assert net._tag_deadlines == {f"s{n}": budget}
            fan_out = writer.frames[-2:]
            assert [f["mtype"] for f in fan_out] == ["FRONTEND_QUERY"] * 2
            assert all(0.0 < f["deadline"] <= 30.0 for f in fan_out)
            # One of two answers in: the share is still in flight.
            await _deliver(net, _wire("FRONTEND_RESPONSE", {"qid": f"s{n}"}))
            assert set(net._tag_deadlines) == {f"s{n}"}
            high_water = max(high_water, len(net._tag_deadlines))
            await _deliver(net, _wire("FRONTEND_RESPONSE", {"qid": f"s{n}"}))
            assert not net._tag_deadlines

    asyncio.run(scenario())
    assert frontend.completed == 5000
    assert high_water == 1
    assert net._deadline_sweep_at == 512  # the backstop never had to run
    assert net.stats.deadline_expired == 0 and not frontend.failures


def test_unanswered_tags_are_swept_once_expired() -> None:
    net, writer, frontend = _harness()
    clock = [0.0]
    for n in range(600):  # 600 probes whose answers never come
        with net.deadline_scope(Deadline.after(5.0, clock=lambda: clock[0])):
            frontend.submit(n)
    # All still live at the 513th registration: nothing to drop, so the
    # threshold doubled instead of re-scanning on every later send.
    assert len(net._tag_deadlines) == 600
    assert net._deadline_sweep_at == 1026
    clock[0] = 6.0
    for n in range(600, 1100):
        with net.deadline_scope(Deadline.after(5.0, clock=lambda: clock[0])):
            frontend.submit(n)
    # The sweep at 1027 entries dropped the 600 expired ones, and
    # resolved them NULL: their answers will not come.
    assert len(net._tag_deadlines) == 500
    assert all(int(tag[1:]) >= 600 for tag in net._tag_deadlines)
    assert net._deadline_sweep_at == 2 * 427
    assert frontend.failures == [
        ({f"p{n}" for n in range(600)}, "end-to-end deadline exceeded")
    ]


def test_failed_tags_release_their_deadline() -> None:
    net, writer, frontend = _harness()
    clock = [0.0]
    with net.deadline_scope(Deadline.after(1.0, clock=lambda: clock[0])):
        frontend.submit(1)
    assert set(net._tag_deadlines) == {"p1"}
    clock[0] = 2.0
    # A later send under the same tag finds the budget spent: refused,
    # the tag resolves NULL, and its table entry goes with it.
    net.send(-1, ROOT, "SIZE_PROBE", {"probe_id": "p1"})
    assert frontend.failures == [({"p1"}, "end-to-end deadline exceeded")]
    assert len(writer.frames) == 1
    assert not net._tag_deadlines
    # The whole link failing releases everything.
    with net.deadline_scope(Deadline.after(1.0, clock=lambda: clock[0])):
        frontend.submit(2)
        frontend.submit(3)
    net._fail_tags(None, "overlay link lost")
    assert not net._tag_deadlines


def test_no_frame_leaves_with_a_spent_budget() -> None:
    net, writer, frontend = _harness()
    clock = [0.0]

    def ticking() -> float:
        clock[0] += 0.5  # every read of the clock moves it on
        return clock[0]

    # Expires at 1.5: the first send reads 1.0 and goes out with 0.5
    # left; the second reads 1.5 and is refused.  A check and a second
    # read for the frame would have sent the first one spent, and the
    # overlay drops a spent frame without an answer.
    with net.deadline_scope(Deadline.after(1.0, clock=ticking)):
        frontend.submit(1)
        frontend.submit(2)
    assert [frame["deadline"] for frame in writer.frames] == [0.5]
    assert frontend.failures == [({"p2"}, "end-to-end deadline exceeded")]
